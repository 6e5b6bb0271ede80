"""Equivalence of the one-pass exact core with the code it replaced.

Oracles, copied below as they were before the core was made one-pass and
run without a cache:

* the triangular `solve_aj`, which re-expands exp(-D) x from scratch for
  every coefficient (with its own copy of the derivation expansion);
* `vertex_mode` / `sigma_vertex_mode` as a composition of the former
  `State.map_words`, `+` and `scaled`, those three written out as they
  were: build a dict, then the validating public constructor
  `State(table)`, on every step;
* `CycScalar` sums, differences, negation and rational scaling through the
  validating public constructor;
* the inverse-map cross-check `_exp_derivation_on_x` as it was: a dense
  derivation pass, then a separate pass dividing every entry by m, against
  the one exponential series `deltak._exp_series` that it and
  `_exp_virasoro` now share;
* the unbounded coordinate-change loop, which applies L(j) for every j up
  to the table depth, at the old depth ceil(p) * k + 2;
* ((1+y)^{1/k} - 1)^e as plain truncated power series (repeated products,
  and the reciprocal series for e < 0), at each power the conjugation
  check reads, against the one exact root table `deltak._RootPowers`,
  which expands the same powers by Miller's recurrence;
* `apply_delta` without the per-word cache: `_exp_virasoro` on the whole
  state, with an explicit a_j table at the covering depth and deeper;
* `apply_delta` as it was before the per-word expansions were cached
  (`per_word_apply_delta`): the uncached per-word drop pieces combined per
  drop, each exponent worked out and each piece scaled on every call,
  against the cached expansions weighted by the state's numerators; with
  one numerator raised in one cached inverse piece, `apply_delta` must
  differ from the whole-state oracle;
* two one-form `verify._commutator_report` calls, against one call that
  walks the grid once for both obstruction forms;
* `CycScalar` arithmetic by polynomial division over Q, as it was: the
  dense product `_pmul` and the long division `_pdivmod`, which built each
  cyclotomic polynomial from x^n - 1 and reduced every product and every
  root of unity, against the int cyclotomic polynomials and the one
  per-conductor reduction table;
* `SlotField.mode` and `RecoveredField.mode` as they were, with the root
  of unity and k^{-p} multiplied into every coefficient, against one
  scalar times the rational image (of the fields and of verify's mode
  families);
* `State`, `combine`, `scaled` and `field_mode` as they were, with one
  `Fraction` or `CycScalar` coefficient per word and the recursion on
  Fraction coefficients (`FractionState`), against the integer numerators
  over one denominator: the rendered text must match, and one state built
  along different paths must be equal, hash equal and hold the same
  numerators;
* the rational-index bodies of the fields and of the conjugation
  check: `SlotField.rational_mode` and `eta_class` on a rational index,
  the fields' `top` and `verify._field_column`'s annihilation bound as
  rational inequalities, and `_conjugation_lhs`/`_rhs` keyed on rational
  exponents, against the int indices M = scale·m and int keys that
  replaced them, on indices drawn on and off each lattice;
* the coordinate change, slot-field modes and conjugation check on
  `Fraction` scalars, as they were before they ran on integral numerators:
  `_exp_virasoro` applying each L(j) through `virasoro` with a `Fraction`
  a_j and `combine`-ing per drop, `SlotField.image` as a `combine` of one
  `sigma_vertex_mode` state per coordinate-change piece, the int-keyed
  `_conjugation_lhs`/`_rhs` adding `Fraction` (or `CycScalar`) values key
  by key with the prefactor k^{-p_u} in each value, and the
  `check_conjugation` and `check_L_minus1_identities` that compared such
  maps value by value; with a planted wrong coefficient both conjugation
  checks must give the same witnesses;
* `RecoveredField.mode_at` as it was, one `SlotField.image` per inverse
  piece `combine`-d with its factor k^p·k^{-p_e}, against the flat plan
  whose one `mode_sum` covers every piece of every inverse piece; and the
  native parity-twisted field's `sigma_vertex_mode`, against the order-1
  slot field that replaced it;
* the conjugation sides as they were before they ran on the cached
  per-word pieces: the conjugated side with one `apply_delta` per inverse
  change and per vertex-mode image, the transformed side taking u's
  forward change per basis word and adding one `Fraction` product
  C(alpha, i) g(e, n) per (i, n), both summed by `KeyedSums`, the
  running sum that `fermion._add` replaced, and the check built on them,
  which must report the same witnesses under a planted error in one
  per-word piece or in one root coefficient; and `solve_aj`, `_exp_derivation_on_x` and
  `_RootPowers._power` on `Fraction` recurrences, against their int forms;
* `cyc_sqrt_k` as it was, zeta_8 + zeta_8^-1 for the prime 2 and one
  quadratic Gauss sum per odd prime, against the one Gauss sum of Z/4m;
  with (1 + i) planted for (1 - i), the float guard must refuse the value;
* `verify._expanded_product` as it was, with a doubled-level parameter,
  its sum run to the inner top past the binomial's support, and the old
  unbounded `_ModeFamily` and `_pair_scalars`, against the product that
  reads the level from its state, stops at n + 1 terms for n >= 0 and is
  one `_product_form` read by `_form_value`; a stop one term early must
  differ, one product reads the inner family at most n + 1 times, and a
  mode family keeps no entry above the top;
* `verify._bounded_image` and the fields' `top` on a doubled level as they
  were, against the bounded `_ModeField.mode` that replaced them, for slot
  fields in every slot at orders 1 to 4 and recovered fields at orders 2
  and 4; without its class test the read must differ in an odd slot at
  order 3; the expanded product on bare slot fields must equal it on their
  mode families; and the rational-index `SlotField.mode` and
  `RecoveredField.mode` as they were (`rational_slot_mode`,
  `rational_recovered_mode`), which the field tests read;
* the state path of the expanded product as it was, the summands of
  `verify._product_terms` combined as states: `_expanded_product`,
  `_expanded_bracket` with its `_bracket_halves`, `_field_product_mode`
  and `_jacobi_left` (the `combine_path_*` functions), and on them
  `verify.check_twisted_jacobi` and `verify.check_weak_associativity` as
  they were, against the checks whose every linear form over the
  composites is read by the one evaluator `_form_value`.  The Jacobi
  check runs at k = 2 and 4 on the suite's three pairs with x0 in -1..1:
  an honest run reads no left side for a witness, and one composite's
  weight planted one too high must give the same witnesses; so must it
  in weak associativity at k = 2 and 4, recovered and native.  With both
  fields in slot 2 at k = 4 the left side must equal the state path at
  every point, where classes j != 0 take cyclotomic scalars.  Along with
  them, Pascal's rule E_{n+1}(a, b) = E_n(a, b) - E_n(a - step, b + step)
  on the expanded product for n in -4..3, and one eta class per grid
  point of the forms, in slot 1 and in slot 2;
* the ``delta-apply`` front end as it was: `Sector.check_word` on
  `Fraction` arithmetic, `parse_state` building its state by the
  validating public constructor, and `cmd_delta_apply` working each drop
  j back from its exponent, against the int tests on the mode's numerator
  and denominator and j read off the doubled levels: the same stdout byte
  for byte over every NS word of weight <= 5, vacuum, psi and omega at
  k in {1, 2, 3, 4, 6}, both directions, with and without a window and
  --decimal, in all three formats, and the same refusal text for bad
  words; with j one too high at every drop >= 1 the sweep must differ;
* `SlotField.classes` as it was, the slot twist alone (`old_slot_classes`),
  against the class table that is the field's support on the sector
  lattice: over every slot power at orders 1 to 6, every NS word up to
  weight 4 and five periods of M on every Ramond word up to level 2, a
  newly None class must have a zero `mode_sum` over the plan and every
  other class must equal the old one; with the rule's parity flipped the
  sweep must fail; and `RecoveredField`'s hand-written parity coset, which
  the rule must reproduce at orders 2, 4 and 6;
* `verify._supercommutator_grid` and `verify._commutator_report` as they
  were, combining every point off neither class lattice, reading every
  iterate in every residue and building every location text, run on the
  old class tables, against the engine that counts zero points without
  building them: the same reports (counts, mismatches and their order)
  and the same refusals for the obstruction at k = 3 and 5, the even
  supercommutator at k = 2 and 4, cross-slot at slots (1, 2) and (2, 2)
  and the recovered commutator, also with the residue kernel's sign
  dropped, where both report the same nonzero witnesses;
* the Ramond module's facts as `ramond` held them, with their own bodies
  (`sigma_virasoro`, `ground_weight` without its cache and
  `sigma_L0_spectrum`), against the one body on `fermion.Sector` that
  serves both sectors: `R.virasoro`, `R.ground_weight` and `R.spectrum`
  over cutoffs 0..10;
* `formal.compare_fields` as it was, building every column's location
  prefix, against the one that builds a location text only for a
  mismatch: the same results on the recovery round trip at k = 2 and 4,
  honest and with one planted entry of the native field.
* the delta-function identities on `Fraction` monomials as they were:
  `merged_delta_kernel` keyed on exponent tuples with one cached
  `binomial` per monomial (run uncached here), `compare_series` filtering
  each monomial through the window, `_add_into` and
  `verify_delta_identity`, and the cover map `check_f_composition` on a
  `Fraction` power series, against the kernels on int indices at one key
  scale with int numerators over the identity's one denominator: the same
  name, count and mismatches for every identity at k = 1..6 on five
  radii, equal kernel tables on every `tests/test_formal.py` kernel case
  at three key scales and three depths, the same witnesses, location
  types and report text with one numerator doubled in every kernel, the
  same window filter, and the same cover-map results, honest and with one
  inverse coefficient planted.

The new code must give equal values; fast-built states must also satisfy
the `State` invariant (sorted by word, no zero coefficient) and be equal
and hash-equal to the same state built by `State(dict)`.
"""

import contextlib
import inspect
import io
import textwrap
from bisect import bisect_left
from functools import lru_cache
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistfock import clear_caches, cli, deltak, formal, twist, verify
from twistfock.deltak import (
    FORWARD,
    INVERSE,
    DeltaExpansion,
    _RootPowers,
    apply_delta,
    check_f_composition,
    covering_depth,
    solve_aj,
)
from twistfock.fermion import (
    NS,
    OMEGA,
    PSI,
    R,
    VACUUM,
    ZERO_STATE,
    State,
    _content,
    _level2,
    combine,
    field_mode,
    iterate_mode_word,
    mode_sum,
    vertex_mode,
    virasoro,
    word_level,
)
from twistfock.ramond import sigma_vertex_mode
from twistfock.scalars import (
    HALF,
    ONE,
    QQ,
    ZERO,
    CycScalar,
    binomial,
    cyc_sqrt_k,
    cyclotomic_poly,
    eta_k,
    eta_powers,
    euler_phi,
    k_to_the,
    rational_ceil,
    rational_floor,
    rationalized,
    scalar_content,
    scalar_is_zero,
    scalar_ratio,
    scalar_str,
)
from twistfock.formal import (
    ComparisonResult,
    DeltaIdentity,
    QSeries,
    Window,
    assert_on_lattice,
    compare_fields,
    compare_numerators,
    compare_series,
    merged_delta_kernel,
    verify_delta_identity,
)
from twistfock.twist import RecoveredField, SlotField, u_functor_sigma_mode

from test_formal import KERNEL_CASES

QQ_TYPE = type(QQ(1))


# ---------------------------------------------------------------------------
# the triangular solve, verbatim
# ---------------------------------------------------------------------------


def _apply_derivation(values, poly, top: int):
    out = [ZERO] * (top + 1)
    for i, c in enumerate(poly):
        if i == 0 or c == 0:
            continue
        for j, a in enumerate(values, start=1):
            d = i + j
            if d > top:
                break
            out[d] += a * c * i
    return out


def _exp_derivation_on_x(values, sign: int, top: int):
    total = [ZERO] * (top + 1)
    if top >= 1:
        total[1] = ONE
    term = list(total)
    m = 0
    while any(c != 0 for c in term):
        m += 1
        term = _apply_derivation(values, term, top)
        term = [c * QQ(sign) / m for c in term]
        total = [t + c for t, c in zip(total, term)]
    return total


def triangular_solve(k: int, J: int) -> tuple:
    values = []
    for j in range(1, J + 1):
        partial = _exp_derivation_on_x(tuple(values), -1, j + 1)
        target = binomial(QQ(k), j + 1) / k
        values.append(partial[j + 1] - target)
    return tuple(values)


def test_single_pass_solve_matches_triangular_solve():
    for k in range(1, 7):
        full = triangular_solve(k, 20)
        for J in range(1, 21):
            values = solve_aj(k, J).values
            assert values == full[:J], (k, J)
            assert all(type(a) is QQ_TYPE for a in values)


@pytest.mark.parametrize("k, J", [(1, 8), (2, 40), (3, 12), (4, 22), (6, 32)])
def test_cross_check_matches_the_dense_expansion(k, J):
    values = solve_aj(k, J).values
    for sign in (1, -1):
        for top in (0, 1, J // 2, J + 1):
            expected = _exp_derivation_on_x(values, sign, top)
            assert deltak._exp_derivation_on_x(values, sign, top) == expected


# ---------------------------------------------------------------------------
# the unbounded coordinate-change loop, verbatim
# ---------------------------------------------------------------------------


def unbounded_exp_virasoro(u, table, sign):
    summands = {0: [(u, ONE)]}
    term = {0: u}
    m = 0
    while term:
        m += 1
        nxt = {}
        for drop, state in term.items():
            for j in range(1, table.depth + 1):
                image = virasoro(QQ(j), state)
                if not image.is_zero():
                    scalar = table.a(j) * QQ(sign) / m
                    nxt.setdefault(drop + j, []).append((image, scalar))
        term = {}
        for d, pairs in nxt.items():
            s = combine(pairs)
            if not s.is_zero():
                term[d] = s
                summands.setdefault(d, []).append((s, ONE))
    total = {d: combine(pairs) for d, pairs in summands.items()}
    return {d: s for d, s in total.items() if not s.is_zero()}


def homogeneous_states():
    """Every basis word of weight <= 4, plus a two-term combination of the
    words of each weight <= 5 that has more than one."""
    out = [State({word: ONE}) for word in NS.basis(4)]
    by_level = {}
    for word in NS.basis(5):
        by_level.setdefault(word_level(word), []).append(word)
    for group in by_level.values():
        if len(group) > 1:
            out.append(State({group[0]: QQ(2), group[-1]: QQ(-1, 3)}))
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
def test_level_bound_matches_unbounded_loop(k):
    for u in homogeneous_states():
        p = u.homogeneous_level()
        old_table = solve_aj(k, rational_ceil(p) * k + 2)
        for direction in (FORWARD, INVERSE):
            expected = direct_apply_delta(
                k, u, direction, old_table, exp_virasoro=unbounded_exp_virasoro
            )
            assert apply_delta(k, u, direction) == expected, (k, u.render(), direction)


def test_virasoro_vanishes_above_the_level():
    for word in NS.basis(5):
        level = word_level(word)
        for j in range(int(level) + 1, 8):
            assert virasoro(QQ(j), State({word: ONE})).is_zero(), (word, j)


# ---------------------------------------------------------------------------
# the State compositions, as they were
# ---------------------------------------------------------------------------


def old_add(a: State, b: State) -> State:
    out = dict(a.terms)
    for word, coeff in b.terms:
        out[word] = out.get(word, ZERO) + coeff
    return State(out)


def old_scaled(s: State, scalar) -> State:
    return State({word: scalar * coeff for word, coeff in s.terms})


def old_map_words(s: State, rule) -> State:
    out = {}
    for word, coeff in s.terms:
        for new_word, factor in rule(word):
            out[new_word] = out.get(new_word, ZERO) + coeff * factor
    return State(out)


def kernel_rule(a_word, t, sector_half: int):
    """word -> [(word, QQ)] of lattice mode t of the field of a_word, read
    from the doubled-index kernel; empty off the half-integer lattice."""
    mu2 = 2 * QQ(t)
    if mu2.denominator != 1:
        return lambda word: []
    def rule(word):
        den, pairs = iterate_mode_word(a_word, int(mu2), word, sector_half)
        return [(w, QQ(c, den)) for w, c in sorted(pairs)]

    return rule


def old_field_mode(v: State, t, target: State, sector_half: int) -> State:
    t = QQ(t)
    out = State({})
    for a_word, a_coeff in v.terms:
        contribution = old_map_words(target, kernel_rule(a_word, t, sector_half))
        out = old_add(out, old_scaled(contribution, a_coeff))
    return out


def assert_invariant(s: State):
    words = [word for word, _ in s.terms]
    assert words == sorted(words)
    assert len(set(words)) == len(words)
    assert not any(scalar_is_zero(c) for _, c in s.terms)
    # integral numerators over one positive denominator, in lowest terms
    assert type(s.den) is int and s.den > 0
    for _, num in s.nums:
        if isinstance(num, CycScalar):
            assert all(c == int(c) for c in num.coeffs)
        else:
            assert type(num) is int
    assert gcd(s.den, *(scalar_content(num) for _, num in s.nums)) == 1
    assert s.den == 1 or s.nums
    rebuilt = State(dict(s.terms))
    assert rebuilt == s and hash(rebuilt) == hash(s)
    assert rebuilt.terms == s.terms


def assert_same_state(got: State, expected: State):
    assert_invariant(got)
    assert got == expected
    assert hash(got) == hash(expected)


# ---------------------------------------------------------------------------
# strategies: multi-term states with rational and cyclotomic coefficients
# ---------------------------------------------------------------------------

CONDUCTOR = 8  # the field of k = 2: sqrt(2) and the 8th roots of unity

small = st.integers(min_value=-3, max_value=3)
rationals = st.builds(QQ, small, st.integers(min_value=1, max_value=4))
cyclotomics = st.builds(
    lambda cs: CycScalar(CONDUCTOR, [QQ(c) for c in cs]),
    st.lists(small, min_size=4, max_size=4),
)
scalars = rationals | cyclotomics


def states(words):
    return st.dictionaries(
        st.sampled_from(words), scalars, max_size=4
    ).map(State)


FIELD_WORDS = NS.basis(2)
TARGET_WORDS = {0: NS.basis(2), 1: R.basis(2)}
INDICES = [QQ(j, 2) for j in range(-8, 7)]


@st.composite
def field_mode_inputs(draw):
    sector_half = draw(st.sampled_from([0, 1]))
    v = draw(states(FIELD_WORDS))
    target = draw(states(TARGET_WORDS[sector_half]))
    t = draw(st.sampled_from(INDICES))
    return v, t, target, sector_half


@given(field_mode_inputs())
@settings(max_examples=150, deadline=None)
def test_field_mode_matches_composition(args):
    v, t, target, sector_half = args
    expected = old_field_mode(v, t, target, sector_half)
    assert_same_state(field_mode(v, t, target, sector_half), expected)
    public = sigma_vertex_mode if sector_half else vertex_mode
    assert_same_state(public(v, t, target), expected)


ALL_WORDS = NS.basis(2)


@given(
    st.lists(st.tuples(states(ALL_WORDS), scalars), max_size=5),
    st.integers(min_value=0, max_value=4),
)
@settings(max_examples=150, deadline=None)
def test_combine_matches_left_fold(pairs, cancel):
    # repeat one pair with the opposite scalar, so some sums cancel to zero
    if pairs:
        state, scalar = pairs[cancel % len(pairs)]
        pairs = pairs + [(state, -scalar)]
    expected = State({})
    for state, scalar in pairs:
        expected = old_add(expected, old_scaled(state, scalar))
    assert_same_state(combine(pairs), expected)


@given(states(ALL_WORDS), states(ALL_WORDS), scalars)
@settings(max_examples=100, deadline=None)
def test_state_arithmetic_matches(a, b, scalar):
    assert_same_state(a + b, old_add(a, b))
    assert_same_state(a - b, old_add(a, old_scaled(b, -1)))
    assert_same_state(-a, old_scaled(a, -1))
    assert_same_state(a.scaled(scalar), old_scaled(a, scalar))
    assert_same_state(a.scaled(ZERO), State({}))
    assert (a - a).is_zero()


# ---------------------------------------------------------------------------
# the Fraction-coefficient State and its kernel, as they were
# ---------------------------------------------------------------------------
#
# Before coefficients became integer numerators over one denominator, a
# state held one exact scalar per word and every sum and product paid for
# it; the recursion returned int or Fraction coefficients.  The bodies
# below are those, run without a cache, as the oracle for the integer form.


def _fraction_accumulate(table: dict, pairs, factor) -> None:
    get = table.get
    unit = factor is ONE
    for word, coeff in pairs:
        new = get(word, 0) + (coeff if unit else factor * coeff)
        if new:
            table[word] = new
        else:
            table.pop(word, None)


class FractionState:
    """`State` as it was: sorted (word, scalar) terms, no zero scalar."""

    def __init__(self, table):
        clean = {}
        for word, coeff in dict(table).items():
            if not scalar_is_zero(coeff):
                clean[tuple(word)] = coeff
        self.terms = tuple(sorted(clean.items(), key=lambda item: item[0]))

    @classmethod
    def _of_table(cls, table: dict) -> "FractionState":
        self = object.__new__(cls)
        self.terms = tuple(sorted(table.items(), key=lambda item: item[0]))
        return self

    def scaled(self, scalar) -> "FractionState":
        if scalar_is_zero(scalar):
            return FractionState({})
        self_ = object.__new__(FractionState)
        self_.terms = tuple([(word, scalar * coeff) for word, coeff in self.terms])
        return self_

    def render(self, word_formatter) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({scalar_str(coeff)})*{word_formatter(word)}"
                          for word, coeff in self.terms)


def fraction_combine(pairs) -> FractionState:
    out: dict = {}
    for state, scalar in pairs:
        _fraction_accumulate(out, state.terms, scalar)
    return FractionState._of_table(out)


_SIGNED_HALF = (HALF, -HALF)


def _fraction_apply2(word: tuple, m2: int) -> tuple:
    if m2 > 0:
        if -m2 not in word:
            return ()
        i = word.index(-m2)
        return ((word[:i] + word[i + 1:], -1 if i & 1 else 1),)
    if m2 == 0:
        if word and word[-1] == 0:
            return ((word[:-1], _SIGNED_HALF[(len(word) - 1) & 1]),)
        return ((word + (0,), -1 if len(word) & 1 else 1),)
    if m2 in word:
        return ()
    i = bisect_left(word, m2)
    return ((word[:i] + (m2,) + word[i:], -1 if i & 1 else 1),)


def fraction_iterate(a_word: tuple, mu2: int, word: tuple, sector_half: int) -> tuple:
    if not a_word:
        return ((word, 1),) if mu2 == -2 else ()
    m1 = a_word[0]
    rest = a_word[1:]
    n = (m1 - 1) // 2
    out: dict = {}
    room = -sum(word) - sum(rest) - mu2 + sector_half - 2
    d = 1
    i = 0
    while room >= 0:
        psi2 = sector_half + m1 - 2 * i
        for mid_word, mid_coeff in fraction_iterate(
                rest, mu2 - sector_half + 2 * i, word, sector_half):
            _fraction_accumulate(out, _fraction_apply2(mid_word, psi2), d * mid_coeff)
        d = d * (i - n) // (i + 1)
        i += 1
        room -= 2
    if word:
        sign = -1 if (len(rest) + n) & 1 == 0 else 1
        top = -word[0]
        d = 1
        i = 0
        psi2 = sector_half + 1
        while psi2 <= top:
            for mid_word, mid_coeff in _fraction_apply2(word, psi2):
                inner = fraction_iterate(
                    rest, m1 - 1 + mu2 - sector_half - 2 * i, mid_word, sector_half)
                _fraction_accumulate(out, inner, sign * d * mid_coeff)
            d = d * (i - n) // (i + 1)
            i += 1
            psi2 += 2
    if sector_half:
        bound2 = -m1 - (rest[0] if rest else 0)
        for i in range(1, bound2 // 2 + 1):
            for mid_word, mid_coeff in _fraction_apply2(rest, m1 + 2 * i):
                inner = fraction_iterate(mid_word, mu2 - 2 * i, word, sector_half)
                _fraction_accumulate(out, inner, -binomial(HALF, i) * mid_coeff)
    return tuple(out.items())


def fraction_field_mode(v: FractionState, t, target: FractionState,
                        sector_half: int) -> FractionState:
    den = t.denominator
    if den > 2:
        return FractionState({})
    mu2 = t.numerator * (2 // den)
    out: dict = {}
    for a_word, a_coeff in v.terms:
        for word, t_coeff in target.terms:
            _fraction_accumulate(out, fraction_iterate(a_word, mu2, word, sector_half),
                                 a_coeff * t_coeff)
    return FractionState._of_table(out)


# coefficients with large and mutually prime denominators, rational and in
# Q(zeta_8)
big = st.integers(min_value=-10**18, max_value=10**18)
big_rationals = st.builds(QQ, big, st.integers(min_value=1, max_value=10**15))
wide_rationals = rationals | big_rationals
wide_cyclotomics = st.builds(
    lambda cs: CycScalar(CONDUCTOR, cs),
    st.lists(wide_rationals, min_size=4, max_size=4),
)
wide_scalars = wide_rationals | wide_cyclotomics


def wide_tables(words):
    return st.dictionaries(st.sampled_from(words), wide_scalars,
                           min_size=1, max_size=5)


@st.composite
def oracle_inputs(draw):
    sector_half = draw(st.sampled_from([0, 1]))
    v = draw(wide_tables(FIELD_WORDS))
    target = draw(wide_tables(TARGET_WORDS[sector_half]))
    t = draw(st.sampled_from(INDICES))
    other = draw(wide_tables(TARGET_WORDS[sector_half]))
    scalar_list = draw(st.lists(wide_scalars, min_size=2, max_size=3))
    return sector_half, v, target, t, other, scalar_list


@given(oracle_inputs())
@settings(max_examples=120, deadline=None)
def test_integer_states_render_as_the_fraction_oracle(args):
    """`State`, `combine`, `scaled` and `field_mode` on integer numerators
    render the text of the Fraction-coefficient oracle, in both sectors,
    and a combination that cancels exactly is the zero state."""
    sector_half, v, target, t, other, scalar_list = args
    sector = R if sector_half else NS
    new = {name: State(table) for name, table in
           (("v", v), ("target", target), ("other", other))}
    old = {name: FractionState(table) for name, table in
           (("v", v), ("target", target), ("other", other))}
    for name in new:
        assert new[name].render(sector) == old[name].render(sector.format_word)
        assert_invariant(new[name])

    got = field_mode(new["v"], t, new["target"], sector_half)
    expected = fraction_field_mode(old["v"], t, old["target"], sector_half)
    assert got.render(sector) == expected.render(sector.format_word)
    assert_invariant(got)

    # a combination whose last pair cancels its first exactly
    first, second = scalar_list[:2]
    pairs = [("target", first), ("other", second), ("target", -first)]
    got = combine([(new[name], c) for name, c in pairs])
    expected = fraction_combine([(old[name], c) for name, c in pairs])
    assert got.render(sector) == expected.render(sector.format_word)
    assert got == new["other"].scaled(second)
    assert_invariant(got)
    cancelled = combine([(new["other"], second), (new["other"], -second)])
    assert cancelled.is_zero() and cancelled == ZERO_STATE
    assert cancelled.den == 1 and hash(cancelled) == hash(ZERO_STATE)

    for scalar in scalar_list:
        got = new["other"].scaled(scalar)
        assert got.render(sector) == old["other"].scaled(scalar).render(
            sector.format_word)
        assert_invariant(got)


@given(st.sampled_from([0, 1]), st.data())
@settings(max_examples=120, deadline=None)
def test_equal_states_from_different_paths_are_equal(sector_half, data):
    """One state built along five paths: the public constructor, a
    combination, a scaling and its inverse, the identity mode of the
    vacuum's field, and a + b - b.  All are equal, hash equal and hold the
    same denominator and numerators."""
    words = TARGET_WORDS[sector_half]
    table = data.draw(wide_tables(words))
    other = State(data.draw(wide_tables(words)))
    q = data.draw(wide_scalars.filter(lambda x: not scalar_is_zero(x)))
    direct = State(table)
    paths = [
        combine([(direct, q), (direct, 1 - q)]),
        combine([(State({word: coeff}), ONE) for word, coeff in table.items()]),
        direct.scaled(q).scaled(1 / q),
        field_mode(VACUUM, QQ(-1), direct, sector_half),
        direct + other - other,
    ]
    for state in paths:
        assert state == direct
        assert hash(state) == hash(direct)
        assert state.den == direct.den and state.nums == direct.nums
        assert_invariant(state)


# ---------------------------------------------------------------------------
# cyclotomic results without re-validation
# ---------------------------------------------------------------------------


def assert_same_scalar(got: CycScalar, expected: CycScalar):
    assert isinstance(got, CycScalar)
    assert got.conductor == expected.conductor
    assert got.coeffs == expected.coeffs
    assert all(type(c) is QQ_TYPE for c in got.coeffs)


@given(cyclotomics, cyclotomics, rationals)
@settings(max_examples=150, deadline=None)
def test_cyclotomic_results_match_validated_construction(a, b, r):
    n = a.conductor
    add = CycScalar(n, [x + y for x, y in zip(a.coeffs, b.coeffs)])
    sub = CycScalar(n, [x - y for x, y in zip(a.coeffs, b.coeffs)])
    assert_same_scalar(a + b, add)
    assert_same_scalar(a - b, sub)
    assert_same_scalar(-a, CycScalar(n, [-c for c in a.coeffs]))
    assert_same_scalar(a * r, CycScalar(n, [c * r for c in a.coeffs]))
    assert_same_scalar(r * a, CycScalar(n, [c * r for c in a.coeffs]))
    rational = CycScalar.from_rational(r, n)
    assert_same_scalar(a + r, CycScalar(n, [x + y for x, y in zip(a.coeffs, rational.coeffs)]))
    assert_same_scalar(a - r, CycScalar(n, [x - y for x, y in zip(a.coeffs, rational.coeffs)]))
    assert_same_scalar(r - a, CycScalar(n, [y - x for x, y in zip(a.coeffs, rational.coeffs)]))
    assert (a - a).is_zero() and not (a - a)
    assert a.is_rational() == all(c == 0 for c in a.coeffs[1:])


# ---------------------------------------------------------------------------
# cyclotomic arithmetic by polynomial division over Q, verbatim
# ---------------------------------------------------------------------------


def _ptrim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _pmul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return _ptrim(out)


def _pdivmod(a: list, b: list) -> tuple:
    """Exact polynomial division with remainder over Q."""
    b = _ptrim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = _ptrim(list(a))
    quot = [ZERO] * max(0, len(a) - len(b) + 1)
    inv_lead = ONE / b[-1]
    while len(rem) >= len(b):
        coeff = rem[-1] * inv_lead
        deg = len(rem) - len(b)
        quot[deg] = coeff
        for i, cb in enumerate(b):
            rem[deg + i] = rem[deg + i] - coeff * cb
        _ptrim(rem)
        if not rem:
            break
    return _ptrim(quot), rem


@lru_cache(maxsize=None)
def fraction_cyclotomic_polys() -> dict:
    """n -> Phi_n for n <= 120 as `Fraction` coefficient tuples: the old
    body, x^n - 1 divided by Phi_d over the proper divisors d, with the
    smaller polynomials read from this table instead of a cache."""
    polys = {1: (QQ(-1), ONE)}
    for n in range(2, 121):
        poly = [QQ(-1)] + [ZERO] * (n - 1) + [ONE]
        for d in range(1, n):
            if n % d == 0:
                q, r = _pdivmod(poly, list(polys[d]))
                assert not r
                poly = q
        polys[n] = tuple(poly)
    return polys


def fraction_reduced(n: int, poly: list) -> CycScalar:
    """The element of Q(zeta_n) with power-basis polynomial ``poly``,
    reduced by long division by Phi_n over Q."""
    _, rem = _pdivmod(list(poly), list(fraction_cyclotomic_polys()[n]))
    rem = rem + [ZERO] * (euler_phi(n) - len(rem))
    return CycScalar._of(n, tuple(rem))


def test_int_cyclotomic_polynomials_match_the_fraction_division():
    for n in range(1, 121):
        got = cyclotomic_poly(n)
        assert got == fraction_cyclotomic_polys()[n], n
        assert all(type(c) is int for c in got)
        assert len(got) == euler_phi(n) + 1


@pytest.mark.parametrize("n", [8, 12, 16, 24, 60])
def test_roots_of_unity_match_the_fraction_division(n):
    for e in range(n):
        expected = fraction_reduced(n, [ZERO] * e + [ONE])
        assert_same_scalar(CycScalar.root_of_unity(n, e), expected)
        assert_same_scalar(CycScalar.root_of_unity(n, e - n), expected)


@pytest.mark.parametrize("n", [1, 3, 4, 8, 12, 16, 24])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_product_matches_polynomial_division(n, data):
    vectors = st.lists(rationals, min_size=euler_phi(n), max_size=euler_phi(n))
    a, b = data.draw(vectors), data.draw(vectors)
    expected = fraction_reduced(n, _pmul(a, b))
    assert_same_scalar(CycScalar(n, a) * CycScalar(n, b), expected)


# ---------------------------------------------------------------------------
# rational prefactors
# ---------------------------------------------------------------------------


def test_square_orders_give_rational_prefactors():
    half = k_to_the(4, QQ(-1, 2))
    assert half == QQ(1, 2) and type(half) is QQ_TYPE
    assert type(k_to_the(9, QQ(3, 2))) is QQ_TYPE and k_to_the(9, QQ(3, 2)) == 27
    assert type(k_to_the(1, QQ(-5, 2))) is QQ_TYPE and k_to_the(1, QQ(-5, 2)) == 1
    root = k_to_the(2, QQ(-1, 2))
    assert isinstance(root, CycScalar) and not root.is_rational()
    assert root * root == QQ(1, 2)
    assert root == cyc_sqrt_k(2) / 2


# ---------------------------------------------------------------------------
# the root power as plain truncated power series
# ---------------------------------------------------------------------------


def _series_product(a: list, b: list) -> list:
    """The product of two power series truncated to the length of a."""
    return [sum(a[j] * b[n - j] for j in range(n + 1)) for n in range(len(a))]


def _series_reciprocal(a: list) -> list:
    """1/a truncated to the length of a, for a[0] != 0."""
    inverse = [1 / a[0]]
    for n in range(1, len(a)):
        inverse.append(-sum(a[j] * inverse[n - j] for j in range(1, n + 1)) / a[0])
    return inverse


def root_power_coefficient(k: int, top: int, e: int, n: int):
    """The coefficient of y^n in ((1+y)^{1/k} - 1)^e, exact for
    n <= e + top - 1: (1+y)^{1/k} - 1 = (y/k) u with the unit
    u = sum_m k C(1/k, m+1) y^m, and u^e is a repeated product through
    y^(top-1), of u for e >= 0 and of its reciprocal for e < 0."""
    if n < e:
        return ZERO
    unit = [k * binomial(QQ(1, k), m + 1) for m in range(top)]
    factor = unit if e >= 0 else _series_reciprocal(unit)
    power = [ONE] + [ZERO] * (top - 1)
    for _ in range(abs(e)):
        power = _series_product(power, factor)
    return QQ(1, k) ** e * power[n - e]


@pytest.mark.parametrize("k", range(1, 7))
def test_root_table_matches_the_windowed_power(k):
    # the truncated power is exact through y^(e + top - 1) and zero below y^e
    for top in (1, 4, 9):
        roots = _RootPowers(k, top - 1)
        for e in range(-6, 7):
            for n in range(e - 2, e + top):
                expected = root_power_coefficient(k, top, e, n)
                got = roots.coefficient(e, n)
                assert got == expected, (k, top, e, n)
                assert type(got) is type(expected), (k, top, e, n)
            # past the exact range the table raises, never reads as zero
            with pytest.raises(ValueError, match="outside the exact range"):
                roots.coefficient(e, e + top)


def test_conjugation_reads_inside_the_stated_degree():
    # the transformed side reads the root table only up to _root_degree: a
    # deeper table gives the same map, a shallower one is refused
    u, v = OMEGA, State({(-5, -1): ONE})  # doubled: psi(-5/2)psi(-1/2)
    depth = 3
    degree = deltak._root_degree(u.homogeneous_level() + v.homogeneous_level(), depth)
    fwd_u = apply_delta(3, u, FORWARD)
    rhs = deltak._conjugation_rhs(3, fwd_u, v, depth, _RootPowers(3, degree))
    assert rhs[1]
    assert deltak._conjugation_rhs(3, fwd_u, v, depth, _RootPowers(3, degree + 4)) == rhs
    with pytest.raises(ValueError, match="outside the exact range"):
        deltak._conjugation_rhs(3, fwd_u, v, depth, _RootPowers(3, degree - 1))


# ---------------------------------------------------------------------------
# the coordinate change without the per-word cache, on an explicit table
# ---------------------------------------------------------------------------


def direct_apply_delta(k, u, direction, table, *,
                       exp_virasoro=deltak._exp_virasoro):
    if u.is_zero():
        return DeltaExpansion(k, direction, ZERO, ONE, ())
    p = u.homogeneous_level()
    sign = 1 if direction == FORWARD else -1
    drops = exp_virasoro(u, table, sign)
    pieces = []
    for j in sorted(drops):
        state = drops[j]
        if direction == FORWARD:
            exponent = p / k - p - QQ(j, k)
        else:
            exponent = p - p / k - j
            state = state.scaled(QQ(k) ** (-j))
        pieces.append((exponent, state))
    pieces.sort(key=lambda item: -item[0])
    prefactor = k_to_the(k, -p) if direction == FORWARD else k_to_the(k, p)
    return DeltaExpansion(k, direction, p, prefactor, tuple(pieces))


def quasi_primary_combination() -> State:
    """A weight-4 combination of two words that L(1) kills, so the drop-1
    piece of the coordinate change cancels between the words."""
    w1, w2 = (-7, -1), (-5, -3)  # doubled words of weight 4
    (_, c1), = virasoro(QQ(1), State({w1: ONE})).terms
    (_, c2), = virasoro(QQ(1), State({w2: ONE})).terms
    u = State({w1: c2, w2: -c1})
    assert virasoro(QQ(1), u).is_zero()
    return u


def delta_inputs():
    out = [State({word: ONE}) for word in NS.basis(4)]
    out.append(State({(-5, -1): QQ(-3, 4)}))
    out.append(State({(-7, -1): QQ(2), (-5, -3): QQ(1, 3)}))
    out.append(State({(-3, -1): cyc_sqrt_k(2) / 2}))
    out.append(quasi_primary_combination())
    return out


def per_word_apply_delta(k, u, direction):
    """`apply_delta` as it was before its per-word expansions were cached:
    the per-word drop pieces, read without the cache, combined per drop
    with u's numerators, then each drop's exponent worked out and its
    state scaled by 1/den, and by k^{-j} in the inverse direction."""
    if u.is_zero():
        return DeltaExpansion(k, direction, ZERO, ONE, ())
    p = u.homogeneous_level()
    by_drop = {}
    for word, num in u.nums:
        for j, state in deltak._word_drops.__wrapped__(k, direction, word):
            by_drop.setdefault(j, []).append((state, num))
    pieces = []
    for j in sorted(by_drop):
        if direction == FORWARD:
            exponent = p / k - p - QQ(j, k)
            scale = QQ(1, u.den)
        else:
            exponent = p - p / k - j
            scale = QQ(k) ** (-j) / u.den
        state = combine(by_drop[j])
        if state.is_zero():
            continue
        if scale != 1:
            state = state.scaled(scale)
        pieces.append((exponent, state))
    pieces.sort(key=lambda item: -item[0])
    prefactor = k_to_the(k, -p) if direction == FORWARD else k_to_the(k, p)
    return DeltaExpansion(k, direction, p, prefactor, tuple(pieces))


def test_delta_inputs_cover_every_combining_case():
    inputs = delta_inputs()
    assert any(u.den != 1 for u in inputs)
    assert any(not isinstance(num, int) for u in inputs for _, num in u.nums)
    assert quasi_primary_combination() in inputs


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
def test_cached_expansions_match_the_per_word_combine(k):
    for direction in (FORWARD, INVERSE):
        for u in delta_inputs():
            expected = per_word_apply_delta(k, u, direction)
            # cold for a word on its first read, warm on the second
            for _ in range(2):
                assert apply_delta(k, u, direction) == expected, (
                    k, direction, u.render())


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
def test_cached_coordinate_change_matches_direct(k):
    clear_caches()
    for direction in (FORWARD, INVERSE):
        for u in delta_inputs():
            p = u.homogeneous_level()
            # the first call fills the cache, the second reads it back; the
            # oracle reads the whole state through an explicit table, at the
            # covering depth and deeper
            for depth in (covering_depth(p), covering_depth(p) + 3):
                expected = direct_apply_delta(k, u, direction, solve_aj(k, depth))
                got = apply_delta(k, u, direction)
                assert got == expected, (k, direction, u.render(), depth)
                for _, piece in got.pieces:
                    assert_invariant(piece)
    assert deltak._word_expansion.cache_info().hits > 0


def test_cancelled_drop_is_left_out():
    u = quasi_primary_combination()
    for k in (2, 3):
        expansion = apply_delta(k, u)
        p = u.homogeneous_level()
        assert p / k - p - QQ(1, k) not in [e for e, _ in expansion.pieces]
        assert expansion == direct_apply_delta(k, u, FORWARD, solve_aj(k, 4))


def test_word_above_the_ceiling_is_refused_before_the_cache():
    clear_caches()
    u = State({(-257, -1): ONE})  # psi(-257/2)psi(-1/2), weight 129
    for v in (u, u.scaled(QQ(1, 2))):  # a unit word and any other state
        for direction in (FORWARD, INVERSE):
            with pytest.raises(ValueError, match="exceeds the ceiling"):
                apply_delta(2, v, direction)
    assert deltak._word_drops.cache_info().currsize == 0
    assert deltak._word_expansion.cache_info().currsize == 0


def raised_first_numerator(expansion):
    """A copy of an expansion whose first piece after the leading one has
    its first numerator raised by 1."""
    lead, (exponent, state), *rest = expansion.pieces
    (first, num), *others = state.nums
    piece = State._of_terms(state.den, [(first, num + 1), *others])
    return expansion._replace(pieces=(lead, (exponent, piece), *rest))


def test_planted_inverse_piece_error_differs_from_the_direct_change(monkeypatch):
    """One numerator of one cached inverse piece raised by 1, at k = 3 on
    psi(-3/2)psi(-1/2): both the unit word and omega, half of it, read
    the plant and differ from the oracle; a word without it does not."""
    honest = deltak._word_expansion
    planted_at = (3, INVERSE, (-3, -1))

    def planted(k, direction, word):
        expansion = honest(k, direction, word)
        if (k, direction, word) != planted_at:
            return expansion
        return raised_first_numerator(expansion)

    monkeypatch.setattr(deltak, "_word_expansion", planted)
    table = solve_aj(3, 4)
    for u in (State({(-3, -1): ONE}), OMEGA):
        assert (apply_delta(3, u, INVERSE)
                != direct_apply_delta(3, u, INVERSE, table)), u.render()
        assert (apply_delta(3, u, FORWARD)
                == direct_apply_delta(3, u, FORWARD, table)), u.render()
    u = State({(-5, -1): ONE})
    assert apply_delta(3, u, INVERSE) == direct_apply_delta(3, u, INVERSE, table)


def test_coefficients_do_not_depend_on_the_table_depth():
    for k in range(1, 7):
        deep = solve_aj(k, 24)
        for J in (1, 3, 8, 16):
            table = solve_aj(k, J)
            for j in range(1, J + 1):
                assert table.a(j) == deep.a(j), (k, J, j)


# ---------------------------------------------------------------------------
# both obstruction forms from one grid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("u", [PSI, OMEGA], ids=["psi", "omega"])
@pytest.mark.parametrize("v", [PSI, OMEGA], ids=["psi", "omega"])
def test_two_forms_match_two_one_form_calls(k, u, v):
    window = Window.cube(("x1", "x2"), QQ(-1, 2), QQ(1, 2))
    parity = u.homogeneous_parity()
    # the shifts 0 and parity/(2k), on the index 2k·e
    forms = (
        ("even", 0, "fail" if parity else "pass"),
        ("odd", parity, "pass"),
    )

    def run(selected):
        return verify._commutator_report(
            k,
            verify._slot_field(k, u),
            verify._slot_field(k, v),
            window,
            forms=selected,
            domain_level=QQ(1),
        )

    both = run(forms)
    # alone, an expected-fail form has no other form to differ from and is
    # refused, so each form runs alone expected to pass
    singles = run(((forms[0][0], 0, "pass"),)) + run(forms[1:])
    assert [r._values()[:5] for r in both] == [r._values()[:5] for r in singles]
    assert tuple(r.expected_verdict for r in both) == (forms[0][2], "pass")
    if parity:
        with pytest.raises(ValueError, match="cannot fail"):
            run(forms[:1])
    assert all(report.compared > 0 for report in both)


# ---------------------------------------------------------------------------
# slot and recovered modes with the scalar in every coefficient, as they were
# ---------------------------------------------------------------------------


def old_slot_mode(k: int, u: State, power: int, m, state: State) -> State:
    """The slot-(power+1) mode m of u, the prefactor and root of unity
    multiplied into every coefficient."""
    expansion = apply_delta(k, u)
    twist = power * k * (-m - 1)
    if twist.denominator != 1:
        return ZERO_STATE
    scalar = expansion.prefactor * eta_k(k) ** (int(twist) % k)
    km = k * m
    return combine(
        (sigma_vertex_mode(piece, k * (e + 1) - 1 + km, state), ONE)
        for e, piece in expansion.pieces
    ).scaled(scalar)


def old_recovered_mode(k: int, u: State, m, state: State) -> State:
    """The recovered mode m of u: k^p times the first-slot modes of the
    inverse pieces, each with its own k^{-p_e} in every coefficient."""
    expansion = apply_delta(k, u, INVERSE)
    if (m - QQ(u.homogeneous_parity(), 2)).denominator != 1:
        return ZERO_STATE
    shift = (m + 1) / k
    return combine(
        (old_slot_mode(k, piece, 0, e - 1 + shift, state), ONE)
        for e, piece in expansion.pieces
    ).scaled(expansion.prefactor)


def rational_slot_mode(field, m, state: State) -> State:
    """`SlotField.mode` as it was: the mode with rational index m; zero off
    the (1/2k)-lattice."""
    M = QQ(m) * field.scale
    return field.mode_at(M.numerator, state) if M.denominator == 1 else ZERO_STATE


def rational_recovered_mode(field, m, state: State) -> State:
    """`RecoveredField.mode` as it was: the mode with rational index m;
    raises off the (1/2)-lattice."""
    return field.mode_at(assert_on_lattice(m, 2), state)


def old_top(field, level2: int) -> int:
    """`_ModeField.top` as it was, on a doubled level: the largest index
    whose mode can act on a state of doubled level level2."""
    return int(field.scale * (field.weight - 1)) + level2


def old_bounded_image(field, M: int, state: State) -> State:
    """`verify._bounded_image`: the rational image of mode M of a field on a
    nonzero homogeneous state, zero off the field's class lattice or above
    its top on the state."""
    if M > old_top(field, _level2(state)) or field.eta_class(M) is None:
        return ZERO_STATE
    return field.image(M, state)


MODE_STATES = {"psi": PSI, "omega": OMEGA, "L(-1)psi": virasoro(QQ(-1), PSI)}
MODE_TARGETS = [State({word: ONE}) for word in R.basis(QQ(2))]


def mode_grid(den: int) -> list:
    """Mode indices m = -e - 1 for e on the 1/den-lattice of [-1, 1]."""
    return [-QQ(i, den) - 1 for i in range(-den, den + 1)]


def all_rational(state: State) -> bool:
    return all(type(c) is QQ_TYPE for _, c in state.terms)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(MODE_STATES))
def test_slot_mode_is_one_scalar_times_a_rational_image(k, name):
    u = MODE_STATES[name]
    nonzero = 0
    for power in range(k):
        field = SlotField(k, u, power)
        family = verify._ModeFamily(verify._slot_field(k, u, slot=power + 1))
        for m in mode_grid(2 * k):
            M = int(2 * k * m)
            j = field.eta_class(M)
            assert family.eta_class(M) == j
            for target in MODE_TARGETS:
                expected = old_slot_mode(k, u, power, m, target)
                assert rational_slot_mode(field, m, target) == expected, (
                    power, m, target)
                if j is None:
                    assert expected.is_zero()
                    assert family.mode(M, target).is_zero()
                    continue
                image = field.image(M, target)
                assert all_rational(image)
                assert image.scaled(field.scalars[j]) == expected
                assert family.mode(M, target) == image
                assert image.scaled(family.scalars[j]) == expected
                nonzero += not expected.is_zero()
    assert nonzero > 0


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("name", sorted(MODE_STATES))
def test_recovered_mode_is_rational(k, name):
    u = MODE_STATES[name]
    field = RecoveredField(k, u)
    family = verify._ModeFamily(verify._parity_field(k, u, True))
    assert family.scalars == (ONE,)
    nonzero = 0
    for m in mode_grid(2):
        mode = u_functor_sigma_mode(k, u, m)
        for target in MODE_TARGETS:
            got = mode(target)
            assert all_rational(got)
            assert got == old_recovered_mode(k, u, m, target), (m, target)
            assert field.mode_at(int(2 * m), target) == got
            assert family.mode(int(2 * m), target) == got
            nonzero += not got.is_zero()
    assert nonzero > 0


def bounded_read_sweep(field, mode) -> int:
    """Compare ``mode`` with the old `_bounded_image` of a field at every
    int index from two modes below -1 to one mode above the top, on every
    target of `MODE_TARGETS`: the number of nonzero images, or -1 at the
    first difference."""
    nonzero = 0
    for target in MODE_TARGETS:
        top = old_top(field, _level2(target))
        for M in range(-2 * field.scale, top + field.scale + 1):
            expected = old_bounded_image(field, M, target)
            if mode(M, target) != expected:
                return -1
            nonzero += not expected.is_zero()
    return nonzero


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(MODE_STATES))
def test_slot_field_mode_is_the_bounded_image(k, name):
    nonzero = 0
    for power in range(k):
        field = SlotField(k, MODE_STATES[name], power)
        got = bounded_read_sweep(field, field.mode)
        assert got >= 0, power
        nonzero += got
    assert nonzero > 0


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("name", sorted(MODE_STATES))
def test_recovered_field_mode_is_the_bounded_image(k, name):
    field = RecoveredField(k, MODE_STATES[name])
    assert bounded_read_sweep(field, field.mode) > 0


@pytest.mark.parametrize("name", ["psi", "L(-1)psi"])
def test_mode_without_the_class_test_differs_at_an_odd_slot_power(name):
    """A slot field's image does not know its slot: at odd order an odd
    state's image is nonzero at odd indices, and only the class test zeroes
    them in an odd slot power."""
    planted = mutated(twist._ModeField.mode,
                      " or self.eta_class(M) is None", "")
    for power in range(3):
        field = SlotField(3, MODE_STATES[name], power)
        got = bounded_read_sweep(field, lambda M, s: planted(field, M, s))
        assert (got == -1) == (power % 2 == 1), power


class OldRecoveredField:
    """`RecoveredField` as it was: a mode is one `SlotField.image` per
    inverse piece, combined with the piece's rational factor."""

    def __init__(self, k: int, u: State):
        self.parity = u.homogeneous_parity() or 0
        expansion = apply_delta(k, u, INVERSE)
        self.prefactor = expansion.prefactor
        fields = [(e, SlotField(k, piece)) for e, piece in expansion.pieces]
        self._pieces = tuple(
            (int(2 * k * (e - 1)) + 2, field,
             rationalized(self.prefactor * field.prefactor))
            for e, field in fields
        )

    def mode_at(self, N: int, state: State) -> State:
        if (N - self.parity) % 2:
            return ZERO_STATE
        return combine(
            (field.image(offset + N, state), factor)
            for offset, field, factor in self._pieces
        )


FLAT_STATES = {
    "vacuum": VACUUM,
    "psi": PSI,
    "omega": OMEGA,
    "psi_{-3/2}": State({(-3,): ONE}),
    "psi_{-5/2}psi_{-1/2}": State({(-5, -1): ONE}),
}
FLAT_TARGETS = [State({word: ONE}) for word in R.basis(QQ(2))[:10]]


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("name", sorted(FLAT_STATES))
def test_recovered_mode_is_one_flat_mode_sum(k, name):
    u = FLAT_STATES[name]
    field = RecoveredField(k, u)
    old = OldRecoveredField(k, u)
    nonzero = 0
    for N in range(-12, 9):
        for target in FLAT_TARGETS:
            expected = old.mode_at(N, target)
            assert field.mode_at(N, target) == expected, (N, target)
            nonzero += not expected.is_zero()
    assert nonzero > 0


@pytest.mark.parametrize("name", sorted(FLAT_STATES))
def test_native_field_is_the_order_one_slot_field(name):
    u = FLAT_STATES[name]
    field = SlotField(1, u)
    nonzero = 0
    for N in range(-12, 9):
        for target in FLAT_TARGETS:
            expected = sigma_vertex_mode(u, QQ(N, 2), target)
            assert field.image(N, target) == expected, (N, target)
            assert field.mode_at(N, target) == expected, (N, target)
            nonzero += not expected.is_zero()
    assert nonzero > 0


def test_odd_order_commutator_grid_runs_on_rationals():
    """The k = 3 (psi, psi) obstruction grid: both fields carry 3^{-1/2},
    whose square 1/3 is rational, so every coefficient is a Fraction."""
    k = 3
    left = verify._slot_field(k, PSI)
    right = verify._slot_field(k, PSI)
    pair = verify._pair(left, right)
    assert pair.scalars[0] == QQ(1, 3) and type(pair.scalars[0]) is QQ_TYPE
    grid = verify._lattice_grid(Window({"x": (QQ(-3, 2), QQ(3, 2))}), "x",
                                2 * k, 2 * k)
    coefficients = 0
    for word in R.basis(QQ(2)):
        for e1, e2, value in verify._supercommutator_grid(
            pair, State({word: ONE}), grid, grid
        ):
            assert all_rational(value), (e1, e2, word)
            coefficients += len(value.terms)
    assert coefficients > 0


# ---------------------------------------------------------------------------
# rational indices and exponent keys, as they were, against the int codec
# ---------------------------------------------------------------------------


def fraction_rational_mode(field: SlotField, m, state: State) -> State:
    """`SlotField.rational_mode`: the pieces' sigma modes at the rational
    index k(e+m+1) - 1."""
    k = field.k
    km = k * m
    return combine(
        (sigma_vertex_mode(piece, k * (e + 1) - 1 + km, state), ONE)
        for e, piece in field.pieces
    )


def fraction_eta_class(k: int, power: int, m):
    """`SlotField.eta_class` on a rational index."""
    power %= k
    if not power:
        return 0
    twist = power * k * (-m - 1)
    if twist.denominator != 1:
        return None
    return int(twist) % k


def fraction_top(weight, grading_den: int, level):
    """The fields' `top`: the largest rational index whose mode can act on
    a state of that level."""
    return weight - 1 + QQ(level) / grading_den


def fraction_field_image(mode, weight, den: int):
    """`verify._field_column` with its bound on the rational index."""

    def image(e, word):
        m = -e - 1
        if m > weight - 1 + word_level(word) / den:
            return ZERO_STATE
        return mode(m, State({word: ONE}))

    return image


def fraction_conjugation_lhs(k, u, v, depth_z0):
    """`deltak._conjugation_lhs` keyed on rational exponents."""
    p_u = u.homogeneous_level()
    p_v = v.homogeneous_level()
    inv = apply_delta(k, v, INVERSE)
    out = {}
    for e_j, piece in inv.pieces:
        w_j = piece.homogeneous_level()
        if w_j is None:
            continue
        t_hi = rational_floor(p_u + w_j - 1)
        t = QQ(-depth_z0 - 1)
        while t <= t_hi:
            image = vertex_mode(u, t, piece)
            if not image.is_zero():
                q = p_u + w_j - t - 1
                fwd = apply_delta(k, image, FORWARD)
                scalar = k_to_the(k, p_v - q)
                e_z0 = -t - 1
                for e_i, result in fwd.pieces:
                    e_z = e_j + e_i
                    scale = scalar / result.den
                    for word, num in result.nums:
                        key = (word, e_z, e_z0)
                        out[key] = out.get(key, ZERO) + scale * num
            t += 1
    return {key: val for key, val in out.items() if val != 0}


def fraction_conjugation_rhs(k, u, v, depth_z0, roots):
    """`deltak._conjugation_rhs` keyed on rational exponents."""
    p_u = u.homogeneous_level()
    p_v = v.homogeneous_level()
    fwd_u = apply_delta(k, u, FORWARD)
    prefactor = k_to_the(k, -p_u)
    out = {}
    for e_piece, piece in fwd_u.pieces:
        w_piece = piece.homogeneous_level()
        if w_piece is None:
            continue
        alpha = e_piece
        t_hi = rational_floor(w_piece + p_v - 1)
        t = QQ(-depth_z0 - 1)
        while t <= t_hi:
            image = vertex_mode(piece, t, v)
            if image.is_zero():
                t += 1
                continue
            e = int(-t - 1)
            for i in range(0, depth_z0 - e + 1):
                binom_c = binomial(alpha, i)
                if binom_c == 0:
                    continue
                for n in range(e, depth_z0 - i + 1):
                    g_c = roots.coefficient(e, n)
                    if g_c != 0:
                        e_z = alpha - i + QQ(e, k) - n
                        e_z0 = QQ(i + n)
                        scale = prefactor * binom_c * g_c / image.den
                        for word, num in image.nums:
                            key = (word, e_z, e_z0)
                            out[key] = out.get(key, ZERO) + scale * num
            t += 1
    return {key: val for key, val in out.items() if val != 0}


def lattice_index(m, den: int):
    """The int den·m, or None off the (1/den)-lattice."""
    index = m * den
    return index.numerator if index.denominator == 1 else None


CODEC_STATES = [PSI, OMEGA, virasoro(QQ(-1), PSI)]
CODEC_WORDS = R.basis(QQ(3, 2))


def rational_index(k: int):
    """A rational index on the (1/2k)-lattice or off it: a numerator over
    1, 2, k, 2k, 3k or 4k."""
    return st.sampled_from([1, 2, k, 2 * k, 3 * k, 4 * k]).flatmap(
        lambda den: st.integers(-4 * den, 3 * den).map(lambda n: QQ(n, den)))


@given(st.integers(1, 6), st.data())
@settings(max_examples=120, deadline=None)
def test_slot_index_matches_the_rational_index(k, data):
    u = data.draw(st.sampled_from(CODEC_STATES))
    power = data.draw(st.integers(0, 2 * k))
    field = SlotField(k, u, power)
    m = data.draw(rational_index(k))
    target = State({data.draw(st.sampled_from(CODEC_WORDS)): ONE})
    old_class = fraction_eta_class(k, power, m)
    old = fraction_rational_mode(field, m, target)
    M = lattice_index(m, 2 * k)
    if M is None:
        # every sigma index is off the half-integer lattice there
        assert old.is_zero()
        assert rational_slot_mode(field, m, target).is_zero()
        return
    # the lattice rule: the doubled sigma index 2(k(e+m+1) - 1) of every
    # piece has one parity, and off the Ramond lattice of u's parity r
    # (doubled index = r mod 2) the image is zero
    r = u.homogeneous_parity()
    (off,) = {int(2 * (k * (e + m + 1) - 1) - r) % 2 for e, _ in field.pieces}
    if off:
        assert old.is_zero()
    assert field.eta_class(M) == (None if off else old_class)
    assert field.image(M, target) == old
    expected = (ZERO_STATE if old_class is None
                else old.scaled(field.scalars[old_class]))
    assert field.mode_at(M, target) == expected
    assert rational_slot_mode(field, m, target) == expected
    assert [(piece, QQ(index, 2)) for piece, index in field.plan(M)] == [
        (piece, k * (e + 1) - 1 + k * m) for e, piece in field.pieces]


@given(st.integers(1, 6), st.data())
@settings(max_examples=120, deadline=None)
def test_int_tops_and_bounds_match_the_rational_ones(k, data):
    u = data.draw(st.sampled_from(CODEC_STATES))
    fields = [(verify._slot_field(k, u), k)]
    if k % 2 == 0:
        fields.append((verify._parity_field(k, u, True), 1))
    fields.append((verify._parity_field(k, u, False), 1))
    level2 = data.draw(st.integers(0, 12))
    # psi_{-level2/2}, a Ramond or NS word of doubled level level2
    state = State({(-level2,) if level2 else (): ONE})
    m = data.draw(rational_index(k))
    for field, grading_den in fields:
        old = fraction_top(field.weight, grading_den, QQ(level2, 2))
        assert field.scale == 2 * grading_den
        assert field.top(state) == field.scale * old
        M = lattice_index(m, field.scale)
        if M is not None:
            assert (M <= field.top(state)) == (m <= old)


@given(st.integers(1, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_field_image_bound_matches_the_rational_bound(k, data):
    u = data.draw(st.sampled_from(CODEC_STATES))
    word = data.draw(st.sampled_from(CODEC_WORDS))
    field = SlotField(k, u)
    e = data.draw(st.integers(-6 * k, 4 * k))
    got = verify._field_column(field)(e, word)
    old = fraction_field_image(
        lambda m, s: old_slot_mode(k, u, 0, m, s), field.weight, k)(
        QQ(e, 2 * k), word)
    assert got == (old.den, old.nums)
    if k % 2 == 0:
        recovered = RecoveredField(k, u)
        d = data.draw(st.integers(-6, 4))
        got = verify._field_column(recovered)(d, word)
        old = fraction_field_image(
            lambda m, s: old_recovered_mode(k, u, m, s), recovered.weight, 1)(
            QQ(d, 2), word)
        assert got == (old.den, old.nums)


@given(st.integers(1, 6), st.sampled_from([PSI, OMEGA]),
       st.sampled_from(NS.basis(QQ(3, 2))), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_int_conjugation_keys_decode_to_the_rational_keys(k, u, word, depth):
    v = State({word: ONE})
    degree = deltak._root_degree(u.homogeneous_level() + v.homogeneous_level(),
                                 depth)
    roots = _RootPowers(k, degree)
    for got, old in (
        (side_values(k, u, deltak._conjugation_lhs(k, u, v, depth)),
         fraction_conjugation_lhs(k, u, v, depth)),
        (side_values(k, u, deltak._conjugation_rhs(
            k, apply_delta(k, u, FORWARD), v, depth, roots)),
         fraction_conjugation_rhs(k, u, v, depth, roots)),
    ):
        assert all(type(z) is int and type(z0) is int for _, z, z0 in got)
        decoded = [((w, QQ(z, 2 * k), QQ(z0)), val)
                   for (w, z, z0), val in sorted(got.items())]
        # equal keys, values and sort order
        assert decoded == sorted(old.items(), key=lambda item: item[0])


# ---------------------------------------------------------------------------
# the coordinate change, slot modes and conjugation check on Fraction
# scalars, as they were
# ---------------------------------------------------------------------------


def side_values(k, u, side):
    """A conjugation side, (den, {key: numerator}) without the prefactor
    k^{-p_u}, as the key -> scalar map of the sides it replaced."""
    den, nums = side
    prefactor = k_to_the(k, -u.homogeneous_level())
    return {key: prefactor * scalar_ratio(num, den) for key, num in nums.items()}


def combine_exp_virasoro(u, table, sign):
    """`deltak._exp_virasoro`: one `virasoro` state per L(j), a `Fraction`
    scalar a_j sign / m per image, one `combine` per drop and term."""
    top = rational_floor(u.homogeneous_level())
    summands = {0: [(u, ONE)]}
    term = {0: u}
    m = 0
    while term:
        m += 1
        nxt = {}
        for drop, state in term.items():
            for j in range(1, top - drop + 1):
                image = virasoro(QQ(j), state)
                if not image.is_zero():
                    scalar = table.a(j) * QQ(sign) / m
                    nxt.setdefault(drop + j, []).append((image, scalar))
        term = {}
        for d, pairs in nxt.items():
            s = combine(pairs)
            if not s.is_zero():
                term[d] = s
                summands.setdefault(d, []).append((s, ONE))
    total = {d: combine(pairs) for d, pairs in summands.items()}
    return {d: s for d, s in total.items() if not s.is_zero()}


def combine_slot_image(field, M, state):
    """`SlotField.image`: one `sigma_vertex_mode` state per piece, combined."""
    return combine(
        (sigma_vertex_mode(piece, QQ(offset + M, 2), state), 1)
        for piece, offset in field._offsets
    )


def scalar_conjugation_lhs(k, u, v, depth_z0):
    """`deltak._conjugation_lhs` adding `Fraction`/`CycScalar` values."""
    p_u = u.homogeneous_level()
    p_v = v.homogeneous_level()
    inv = apply_delta(k, v, INVERSE)
    out = {}
    for e_j, piece in inv.pieces:
        w_j = piece.homogeneous_level()
        if w_j is None:
            continue
        z_j = int(2 * k * e_j)
        for t in range(-depth_z0 - 1, rational_floor(p_u + w_j - 1) + 1):
            image = vertex_mode(u, t, piece)
            if image.nums:
                fwd = apply_delta(k, image, FORWARD)
                scalar = k_to_the(k, p_v - w_j + t + 1)
                e_z0 = -t - 1
                for e_i, result in fwd.pieces:
                    z = z_j + int(2 * k * e_i)
                    scale = scalar / result.den
                    for word, num in result.nums:
                        key = (word, z, e_z0)
                        out[key] = out.get(key, ZERO) + scale * num
    prefactor = k_to_the(k, -p_u)
    return {key: prefactor * val for key, val in out.items() if val != 0}


def scalar_conjugation_rhs(k, u, v, depth_z0, roots):
    """`deltak._conjugation_rhs` adding `Fraction`/`CycScalar` values."""
    p_u = u.homogeneous_level()
    p_v = v.homogeneous_level()
    fwd_u = apply_delta(k, u, FORWARD)
    prefactor = k_to_the(k, -p_u)
    out = {}
    for e_piece, piece in fwd_u.pieces:
        w_piece = piece.homogeneous_level()
        if w_piece is None:
            continue
        alpha = e_piece
        z_alpha = int(2 * k * alpha)
        t_hi = rational_floor(w_piece + p_v - 1)
        binoms = [binomial(alpha, i) for i in range(depth_z0 + t_hi + 2)]
        for t in range(-depth_z0 - 1, t_hi + 1):
            image = vertex_mode(piece, t, v)
            if not image.nums:
                continue
            e = -t - 1
            for i in range(0, depth_z0 - e + 1):
                binom_c = binoms[i]
                if binom_c == 0:
                    continue
                for n in range(e, depth_z0 - i + 1):
                    g_c = roots.coefficient(e, n)
                    if g_c != 0:
                        z = z_alpha + 2 * (e - k * (i + n))
                        scale = binom_c * g_c / image.den
                        for word, num in image.nums:
                            key = (word, z, i + n)
                            out[key] = out.get(key, ZERO) + scale * num
    return {key: prefactor * val for key, val in out.items() if val != 0}


def scalar_check_conjugation(k, u, *, cutoff=QQ(5, 2), depth=4):
    """`deltak.check_conjugation` comparing the scalar sides key by key."""
    p_u = u.homogeneous_level()
    roots = _RootPowers(k, deltak._root_degree(p_u + QQ(cutoff), depth))
    result = ComparisonResult(f"conjugation[k={k},wt<= {cutoff},depth={depth}]")
    for word in NS.basis(cutoff):
        v = State({word: ONE})
        lhs = scalar_conjugation_lhs(k, u, v, depth)
        rhs = scalar_conjugation_rhs(k, u, v, depth, roots)
        source = NS.format_word(word)
        for key in sorted(lhs.keys() | rhs.keys()):
            out_word, z, e_z0 = key
            result.compare(
                (source, NS.format_word(out_word), QQ(z, 2 * k), QQ(e_z0)),
                lhs.get(key, ZERO),
                rhs.get(key, ZERO),
            )
    return result


def scalar_L_minus1_identities(k, *, cutoff=QQ(2)):
    """`deltak.check_L_minus1_identities` with the prefactors in every
    value, compared value by value."""
    result = ComparisonResult(f"translation-identities[k={k},wt<={cutoff}]")
    for word in NS.basis(cutoff):
        u = State({word: ONE})
        lu = virasoro(QQ(-1), u)
        for direction, shift_scalar, shift_exp, rhs_scale, rhs_shift in (
            (FORWARD, QQ(1, k), QQ(1, k) - 1, ONE, ZERO),
            (INVERSE, QQ(k), -QQ(1, k) + 1, QQ(k), 1 - QQ(1, k)),
        ):
            ex_u = apply_delta(k, u, direction)
            lhs = {}
            if not lu.is_zero():
                ex_lu = apply_delta(k, lu, direction)
                for e, s in ex_lu.pieces:
                    scale = ex_lu.prefactor / s.den
                    for w, num in s.nums:
                        key = (w, e)
                        lhs[key] = lhs.get(key, ZERO) + scale * num
            for e, s in ex_u.pieces:
                moved = virasoro(QQ(-1), s)
                scale = shift_scalar * ex_u.prefactor / moved.den
                for w, num in moved.nums:
                    key = (w, e + shift_exp)
                    lhs[key] = lhs.get(key, ZERO) - scale * num
            rhs = {}
            for e, s in ex_u.pieces:
                if e != 0:
                    scale = rhs_scale * e * ex_u.prefactor / s.den
                    for w, num in s.nums:
                        key = (w, e - 1 + rhs_shift)
                        rhs[key] = rhs.get(key, ZERO) + scale * num
            keys = sorted(set(lhs) | set(rhs))
            if not keys:
                result.compare((direction, NS.format_word(word)), lhs, rhs)
            for key in keys:
                w, e = key
                result.compare(
                    (direction, NS.format_word(word), NS.format_word(w), e),
                    lhs.get(key, ZERO),
                    rhs.get(key, ZERO),
                )
    return result


CYCLOTOMIC_OMEGA = State({(-3, -1): cyc_sqrt_k(2) / 2})  # in delta_inputs()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
def test_exp_virasoro_matches_the_combine_loop(k):
    inputs = delta_inputs()
    assert CYCLOTOMIC_OMEGA in inputs
    for u in inputs:
        p = u.homogeneous_level()
        for depth in (covering_depth(p), covering_depth(p) + 2):
            table = solve_aj(k, depth)
            for sign in (1, -1):
                got = deltak._exp_virasoro(u, table, sign)
                assert got == combine_exp_virasoro(u, table, sign), (
                    k, u.render(), depth, sign)
                for piece in got.values():
                    assert_invariant(piece)


def test_exp_virasoro_refuses_a_shallow_table():
    u = State({(-7, -1): ONE})  # weight 4 reads a_1..a_4
    for exp_virasoro in (deltak._exp_virasoro, combine_exp_virasoro):
        with pytest.raises(ValueError, match="outside table of depth 3"):
            exp_virasoro(u, solve_aj(2, 3), 1)


SLOT_STATES = [
    OMEGA,
    State({(-5, -1): QQ(-3, 4)}),
    State({(-7, -1): QQ(2), (-5, -3): QQ(1, 3)}),
    quasi_primary_combination(),
    CYCLOTOMIC_OMEGA,
]
SLOT_TARGETS = [State({word: ONE}) for word in R.basis(QQ(3, 2))] + [
    State({(-2, 0): QQ(-2, 3), (-3, -1): ONE, (-4,): QQ(5, 7)}),
]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_slot_image_matches_the_combined_sigma_modes(k):
    distinct_dens = nonzero = 0
    for u in SLOT_STATES:
        field = SlotField(k, u)
        distinct_dens += len({piece.den for _, piece in field.pieces}) > 1
        for M in range(-6 * k, 2 * k + 1):
            for target in SLOT_TARGETS:
                got = field.image(M, target)
                assert got == combine_slot_image(field, M, target), (
                    u.render(), M, target.render(R))
                assert_invariant(got)
                nonzero += not got.is_zero()
    assert distinct_dens > 0 and nonzero > 0


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
def test_conjugation_sides_match_the_scalar_sides(k):
    depth = 3
    for u in (PSI, OMEGA, CYCLOTOMIC_OMEGA):
        for word in NS.basis(QQ(3, 2)):
            v = State({word: ONE})
            degree = deltak._root_degree(
                u.homogeneous_level() + v.homogeneous_level(), depth)
            roots = _RootPowers(k, degree)
            for got, old in (
                (deltak._conjugation_lhs(k, u, v, depth),
                 scalar_conjugation_lhs(k, u, v, depth)),
                (deltak._conjugation_rhs(k, apply_delta(k, u, FORWARD), v,
                                         depth, roots),
                 scalar_conjugation_rhs(k, u, v, depth, roots)),
            ):
                den, nums = got
                assert type(den) is int and den > 0
                assert all(num for num in nums.values())
                assert gcd(den, *(scalar_content(n) for n in nums.values())) == 1
                assert side_values(k, u, got) == old, (k, u.render(), word)


@pytest.mark.parametrize("k, u", [(2, PSI), (3, PSI), (3, OMEGA), (4, PSI)])
def test_conjugation_check_matches_the_scalar_check(k, u):
    got = deltak.check_conjugation(k, u, cutoff=QQ(3, 2), depth=3)
    assert got == scalar_check_conjugation(k, u, cutoff=QQ(3, 2), depth=3)
    assert got.passed


def test_planted_root_error_gives_the_scalar_witnesses(monkeypatch):
    """One wrong root-table coefficient: the integral comparison reports the
    same mismatches as the scalar one, located and valued alike, the values
    carrying the cyclotomic prefactor 3^{-1/2}."""
    original = _RootPowers.coefficient

    def planted(self, e, n):
        value = original(self, e, n)
        return value + QQ(1, 5) if (e, n) == (1, 2) else value

    monkeypatch.setattr(_RootPowers, "coefficient", planted)
    got = deltak.check_conjugation(3, PSI)
    expected = scalar_check_conjugation(3, PSI)
    assert got.mismatches
    assert got.mismatches == expected.mismatches
    assert got == expected
    prefactor = k_to_the(3, QQ(-1, 2))
    assert isinstance(prefactor, CycScalar) and not prefactor.is_rational()
    values = [value for _, lhs, rhs in got.mismatches for value in (lhs, rhs)
              if not scalar_is_zero(value)]
    assert values and all(isinstance(value, CycScalar) for value in values)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_translation_identities_match_the_scalar_maps(k):
    got = deltak.check_L_minus1_identities(k, cutoff=QQ(2))
    assert got == scalar_L_minus1_identities(k, cutoff=QQ(2))
    assert got.passed


def test_planted_translation_error_gives_the_scalar_witnesses(monkeypatch):
    """L(-1) scaled by 3/2 breaks both identities: the two checks report
    the same mismatches, at k = 2 with cyclotomic prefactors k^{-p}."""
    real = virasoro

    def planted(n, s):
        image = real(n, s)
        return image.scaled(QQ(3, 2)) if n == -1 else image

    monkeypatch.setattr(deltak, "virasoro", planted)
    monkeypatch.setitem(globals(), "virasoro", planted)
    got = deltak.check_L_minus1_identities(2, cutoff=QQ(2))
    expected = scalar_L_minus1_identities(2, cutoff=QQ(2))
    assert got.mismatches
    assert got == expected
    assert any(isinstance(value, CycScalar)
               for _, lhs, rhs in got.mismatches for value in (lhs, rhs))


# ---------------------------------------------------------------------------
# the conjugation check on apply_delta images, and the a_j and root tables
# on Fraction recurrences, as they were
# ---------------------------------------------------------------------------


def fraction_exp_derivation_on_x(values, sign: int, top: int):
    """`deltak._exp_derivation_on_x` on `Fraction` coefficients."""
    total = [ZERO] * (top + 1)
    if top < 1:
        return total
    total[1] = ONE
    term = {1: ONE}  # the nonzero coefficients of the current term
    nonzero = [(j, a) for j, a in enumerate(values, start=1) if a]
    m = 0
    while term:
        m += 1
        out = {}
        for i, c in term.items():
            source = c * QQ(sign * i, m)
            for j, a in nonzero:
                d = i + j
                if d > top:
                    break
                out[d] = out.get(d, ZERO) + a * source
        term = {d: c for d, c in out.items() if c}
        for d, c in term.items():
            total[d] += c
    return total


def fraction_solve_aj(k: int, J: int) -> tuple:
    """`deltak.solve_aj` on `Fraction` coefficients, uncached; the values,
    after the same cross-check."""
    top = J + 1
    a = [ZERO] * (J + 1)  # a[j] for j = 1..J; a[0] unused
    # terms[m][n]: degree-n coefficient of T_m, for m = 0..top-1
    terms = [[ZERO] * (top + 1) for _ in range(top)]
    terms[0][1] = ONE
    for n in range(2, top + 1):
        total = ZERO
        for m in range(2, n):
            prev = terms[m - 1]
            acc = ZERO
            for j in range(1, n - m + 1):
                c = prev[n - j]
                if c:
                    acc += a[j] * c * (n - j)
            if acc:
                value = -acc / m
                terms[m][n] = value
                total += value
        a[n - 1] = total - binomial(QQ(k), n) / k
        terms[1][n] = -a[n - 1]
    values = tuple(a[1:])
    forward = fraction_exp_derivation_on_x(values, +1, J + 1)
    oracle = [ZERO] + [binomial(QQ(1, k), m) * k**m for m in range(1, J + 2)]
    assert forward == oracle, (k, J)
    return values


def fraction_root_power(k: int, degree: int, e: int) -> list:
    """`deltak._RootPowers._power` on `Fraction` coefficients: Miller's
    recurrence on the unit part, then the scale k^{-e}."""
    h = [ZERO] + [k * binomial(QQ(1, k), n + 1) for n in range(1, degree + 1)]
    b = [ONE]
    for n in range(1, degree + 1):
        acc = ZERO
        for i in range(1, n + 1):
            if h[i]:
                acc += ((e + 1) * i - n) * h[i] * b[n - i]
        b.append(acc / n)
    scale = QQ(1, k) ** e
    return [scale * c for c in b]


class KeyedSums:
    """`deltak._KeyedSums` as it was before `fermion._add` replaced it: a
    map key -> scalar built as a sum of scalar * state, the coefficient of
    each word of the state under the key (word, *tail), on integral
    numerators over one running denominator; a key whose sum cancels stays
    until `lowest`."""

    __slots__ = ("den", "nums")

    def __init__(self):
        self.den = 1
        self.nums = {}

    def add(self, n, d: int, state: State, *tail) -> None:
        part = d * state.den
        den = self.den
        if den % part:
            common = lcm(den, part)
            for key in self.nums:
                self.nums[key] *= common // den
            self.den = den = common
        n *= den // part
        nums = self.nums
        get = nums.get
        for word, num in state.nums:
            key = (word, *tail)
            nums[key] = get(key, 0) + n * num

    def lowest(self) -> tuple:
        nums = {key: num for key, num in self.nums.items() if num}
        g = _content(self.den, list(nums.values()))
        if g == 1:
            return self.den, nums
        return self.den // g, {key: num // g for key, num in nums.items()}


def apply_delta_conjugation_lhs(k, u, v, depth_z0):
    """`deltak._conjugation_lhs` with one `apply_delta` per inverse change
    and per vertex-mode image."""
    p_v = v.homogeneous_level()
    p_u = u.homogeneous_level()
    inv = apply_delta(k, v, INVERSE)
    sums = KeyedSums()
    for e_j, piece in inv.pieces:
        w_j = piece.homogeneous_level()
        z_j = int(2 * k * e_j)
        for t in range(-depth_z0 - 1, rational_floor(p_u + w_j - 1) + 1):
            image = vertex_mode(u, t, piece)
            if image.nums:
                fwd = apply_delta(k, image, FORWARD)
                scalar = k_to_the(k, p_v - w_j + t + 1)
                e_z0 = -t - 1
                for e_i, result in fwd.pieces:
                    sums.add(scalar.numerator, scalar.denominator, result,
                             z_j + int(2 * k * e_i), e_z0)
    return sums.lowest()


def per_word_conjugation_rhs(k, u, v, depth_z0, roots):
    """`deltak._conjugation_rhs` taking u's forward change once per basis
    word and adding one `Fraction` product C(alpha, i) g(e, n) per (i, n)."""
    p_v = v.homogeneous_level()
    fwd_u = apply_delta(k, u, FORWARD)
    sums = KeyedSums()
    for e_piece, piece in fwd_u.pieces:
        w_piece = piece.homogeneous_level()
        alpha = e_piece
        z_alpha = int(2 * k * alpha)
        t_hi = rational_floor(w_piece + p_v - 1)
        binoms = [binomial(alpha, i) for i in range(depth_z0 + t_hi + 2)]
        for t in range(-depth_z0 - 1, t_hi + 1):
            image = vertex_mode(piece, t, v)
            if not image.nums:
                continue
            e = -t - 1
            for i in range(0, depth_z0 - e + 1):
                binom_c = binoms[i]
                if binom_c == 0:
                    continue
                for n in range(e, depth_z0 - i + 1):
                    g_c = roots.coefficient(e, n)
                    if g_c != 0:
                        c = binom_c * g_c
                        z = z_alpha + 2 * (e - k * (i + n))
                        sums.add(c.numerator, c.denominator, image, z, i + n)
    return sums.lowest()


def apply_delta_check_conjugation(k, u, *, cutoff=QQ(5, 2), depth=4):
    """`deltak.check_conjugation` on the two sides above."""
    p_u = u.homogeneous_level()
    prefactor = k_to_the(k, -p_u)
    roots = _RootPowers(k, deltak._root_degree(p_u + QQ(cutoff), depth))
    result = ComparisonResult(f"conjugation[k={k},wt<= {cutoff},depth={depth}]")
    for word in NS.basis(cutoff):
        v = State({word: ONE})
        source = NS.format_word(word)
        compare_numerators(
            result,
            apply_delta_conjugation_lhs(k, u, v, depth),
            per_word_conjugation_rhs(k, u, v, depth, roots),
            lambda key: (source, NS.format_word(key[0]), QQ(key[1], 2 * k),
                         QQ(key[2])),
            prefactor,
        )
    return result


# psi, omega, psi_{-3/2}|0> and psi_{-5/2}psi_{-1/2}|0>
CONJUGATED_STATES = [PSI, OMEGA, State({(-3,): ONE}), State({(-5, -1): ONE})]


@given(st.integers(1, 6), st.integers(1, 4),
       st.sampled_from(CONJUGATED_STATES), st.sampled_from(NS.basis(QQ(5, 2))))
@settings(max_examples=150, deadline=None)
def test_int_sides_match_the_apply_delta_sides(k, depth, u, word):
    v = State({word: ONE})
    roots = _RootPowers(k, deltak._root_degree(
        u.homogeneous_level() + v.homogeneous_level(), depth))
    for got, old in (
        (deltak._conjugation_lhs(k, u, v, depth),
         apply_delta_conjugation_lhs(k, u, v, depth)),
        (deltak._conjugation_rhs(k, apply_delta(k, u, FORWARD), v, depth, roots),
         per_word_conjugation_rhs(k, u, v, depth, roots)),
    ):
        assert type(got[0]) is int
        assert got == old, (k, depth, u.render(), word)


@pytest.mark.parametrize("k", range(1, 9))
def test_int_root_tables_match_the_fraction_recurrence(k):
    for degree in (0, 1, 2, 3, 5, 8, 12, 16, 20, 24):
        roots = _RootPowers(k, degree)
        for e in range(-8, 9):
            got = roots._power(e)
            expected = fraction_root_power(k, degree, e)
            assert got == expected, (k, degree, e)
            assert [type(c) for c in got] == [type(c) for c in expected]


@pytest.mark.parametrize("k", range(1, 9))
def test_int_aj_tables_match_the_fraction_solve(k):
    for J in range(1, 25):
        got = solve_aj.__wrapped__(k, J)
        assert got.values == fraction_solve_aj(k, J), (k, J)
        assert all(type(a) is QQ_TYPE for a in got.values)
        assert solve_aj(k, J) == got
        for sign in (1, -1):
            for top in (0, 1, J // 2, J + 1):
                new = deltak._exp_derivation_on_x(got.values, sign, top)
                old = fraction_exp_derivation_on_x(got.values, sign, top)
                assert new == old, (k, J, sign, top)
                assert all(type(c) is QQ_TYPE for c in new)


@pytest.mark.parametrize("degree", range(7))
def test_cross_check_compares_every_degree(monkeypatch, degree):
    """A wrong coefficient of exp(+D) x at any degree 0..J+1 fails the
    solve, named by its degree; the cache is bypassed."""
    honest = deltak._exp_derivation_on_x

    def perturbed(values, sign, top):
        out = honest(values, sign, top)
        out[degree] += 1
        return out

    monkeypatch.setattr(deltak, "_exp_derivation_on_x", perturbed)
    with pytest.raises(ArithmeticError, match=f"cross-check at degree {degree}:"):
        solve_aj.__wrapped__(3, 5)


def assert_same_witnesses(got, expected):
    """The same mismatches, in order, with the cyclotomic prefactor 3^{-1/2}
    multiplied into every nonzero witness value and nowhere else."""
    assert got.mismatches
    assert got.mismatches == expected.mismatches
    assert got == expected
    values = [value for _, lhs, rhs in got.mismatches for value in (lhs, rhs)
              if not scalar_is_zero(value)]
    assert values and all(isinstance(value, CycScalar) for value in values)


def test_planted_word_piece_error_gives_the_oracle_witnesses(monkeypatch):
    """One numerator of one cached per-word piece raised by 1: the check
    that reads the pieces directly and the one that reads them through
    `apply_delta` report the same mismatches."""
    honest = deltak._word_drops
    planted_at = (3, INVERSE, (-3, -1))

    def planted(k, direction, word):
        pieces = honest(k, direction, word)
        if (k, direction, word) != planted_at:
            return pieces
        (drop, state), *rest = pieces
        (first, num), *others = state.nums
        return ((drop, State._of_terms(state.den, [(first, num + 1), *others])),
                *rest)

    # `apply_delta` reads the pieces through the per-word expansions, so
    # those must be built from the plant, and none built from it may stay
    clear_caches()
    monkeypatch.setattr(deltak, "_word_drops", planted)
    try:
        got = deltak.check_conjugation(3, PSI)
        expected = apply_delta_check_conjugation(3, PSI)
    finally:
        monkeypatch.undo()
        clear_caches()
    assert_same_witnesses(got, expected)


def test_planted_root_table_error_gives_the_oracle_witnesses(monkeypatch):
    """One coefficient of one root power's table raised by 1/7: both checks
    read it and report the same mismatches."""
    honest = _RootPowers._power

    def planted(self, e):
        table = honest(self, e)
        if e == 2:
            table[1] += QQ(1, 7)
        return table

    monkeypatch.setattr(_RootPowers, "_power", planted)
    got = deltak.check_conjugation(3, PSI)
    assert_same_witnesses(got, apply_delta_check_conjugation(3, PSI))


# ---------------------------------------------------------------------------
# the square root of k by one prime Gauss sum per prime, and the expanded
# product with its level parameter and its zero tail, as they were
# ---------------------------------------------------------------------------


def mutated(function, old: str, new: str):
    """A copy of a module-level function with the one occurrence of ``old``
    in its source replaced by ``new``, run in a copy of its module's
    namespace: a planted error in exactly that line."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    namespace = dict(function.__globals__)
    exec(source.replace(old, new), namespace)
    return namespace[function.__name__]


def prime_gauss_sqrt_k(k: int) -> CycScalar:
    """`scalars.cyc_sqrt_k` as it was: sqrt(2) = zeta_8 + zeta_8^-1 and one
    quadratic Gauss sum per odd prime of the squarefree part of k."""
    conductor = 4 * k
    square_part = 1
    squarefree = k
    p = 2
    while p * p <= squarefree:
        while squarefree % (p * p) == 0:
            squarefree //= p * p
            square_part *= p
        p += 1
    result = CycScalar.from_rational(square_part, conductor)
    remaining = squarefree
    p = 2
    while remaining > 1:
        if remaining % p == 0:
            remaining //= p
            if p == 2:
                z8 = conductor // 8
                factor = (CycScalar.root_of_unity(conductor, z8)
                          + CycScalar.root_of_unity(conductor, -z8))
            else:
                zp = conductor // p
                powers = [0] * conductor
                for a in range(p):
                    powers[zp * (a * a % p)] += 1
                factor = CycScalar(conductor, powers)
                if p % 4 == 3:
                    factor = factor * CycScalar.root_of_unity(
                        conductor, -(conductor // 4))
            result = result * factor
        p += 1
    return result


@pytest.mark.parametrize("k", [*range(1, 65), 96, 128, 210, 255, 256])
def test_sqrt_k_by_one_gauss_sum_matches_the_prime_gauss_sums(k):
    got = cyc_sqrt_k(k)
    assert got.conductor == 4 * k
    assert got.coeffs == prime_gauss_sqrt_k(k).coeffs


def test_sqrt_k_with_the_wrong_unit_is_refused():
    """(1 + i) in place of (1 - i) gives i sqrt(k): the float guard of
    `cyc_sqrt_k` refuses it."""
    planted = mutated(cyc_sqrt_k.__wrapped__,
                      "powers[(e + k) % conductor] -= 1",
                      "powers[(e + k) % conductor] += 1")
    for k in (2, 3, 12):
        with pytest.raises(ArithmeticError, match=f"sqrt[(]{k}[)] construction"):
            planted(k)


class OldModeFamily:
    """`verify._ModeFamily` as it was: every (index, state) is cached, with
    no bound; zero where the eta class is None."""

    def __init__(self, field):
        self.field = field
        self._cache = {}

    def __getattr__(self, name):
        return getattr(self.field, name)

    def mode(self, M: int, state: State) -> State:
        key = (M, state)
        if key not in self._cache:
            self._cache[key] = (ZERO_STATE if self.field.eta_class(M) is None
                                else self.field.image(M, state))
        return self._cache[key]


def old_pair_scalars(left, right) -> tuple:
    """`verify._pair_scalars`: entry j is the product of the two
    prefactors times eta^j."""
    base = left.scalars[0] * right.scalars[0]
    return tuple(rationalized(base * eta)
                 for eta in eta_powers(len(left.scalars)))


def old_expanded_product(outer, inner, scalars, n, a, b, state, level2,
                         scale=ONE):
    """`verify._expanded_product` with its level parameter: the sum runs to
    the inner top at every n, past the binomial's support, and skips an
    outer mode above the top of the inner image."""
    pairs = []
    step = inner.scale
    for i, m in enumerate(range(b, old_top(inner, level2) + 1, step)):
        image = inner.mode(m, state)
        if image.nums and a - i * step <= old_top(outer, _level2(image)):
            product = outer.mode(a - i * step, image)
            if product.nums:
                c = binomial(n, i).numerator
                pairs.append((product, -c if i % 2 else c))
    if not pairs:
        return pairs
    j = (outer.eta_class(a) + inner.eta_class(b)) % len(scalars)
    return [(combine(pairs), scale * scalars[j])]


def combine_path_product(outer, inner, scalars, n, a, b, state, scale=ONE):
    """`verify._expanded_product` as it was before one evaluator read every
    linear form: at most one (state, coefficient) pair for the
    `verify._product_terms` of outer(a) inner(b) on ``state``, the images
    combined with the int weights and the coefficient ``scale`` times the
    fields' scalar."""
    pairs = []
    for a_i, m, c in verify._product_terms(inner, n, a, b, state):
        image = inner.mode(m, state)
        if image.nums:
            product = outer.mode(a_i, image)
            if product.nums:
                pairs.append((product, c))
    if not pairs:
        return pairs
    j = (outer.eta_class(a) + inner.eta_class(b)) % len(scalars)
    return [(combine(pairs), scale * scalars[j])]


def combine_path_bracket(pair, n, a, b, state, scale=ONE) -> list:
    """`verify._expanded_bracket` (with `_bracket_halves`) as it was: the
    `combine_path_product` pairs of the ordered half left(a) right(b) and
    of the swapped half right(b + step n) left(a - step n), the latter
    with the sign -eps for even n and eps for odd."""
    left, right, scalars, eps = pair
    step = left.scale
    sign = -eps if n % 2 == 0 else eps
    return (combine_path_product(left, right, scalars, n, a, b, state, scale)
            + combine_path_product(right, left, scalars, n, b + step * n,
                                   a - step * n, state, scale * sign))


def combine_path_field_product(pair, n_loc, r, t, mu, state) -> State:
    """`verify._field_product_mode` as it was: one `combine_path_bracket`
    per bracket of `verify._field_product_brackets`, combined."""
    pairs = []
    for n, a, b, scale in verify._field_product_brackets(pair, n_loc, r, t, mu):
        pairs += combine_path_bracket(pair, n, a, b, state, scale)
    return combine(pairs)


def combine_path_jacobi_left(pair, r, e1, e2, state) -> State:
    """`verify._jacobi_left` as it was: its bracket combined as states."""
    n, a, b = verify._jacobi_bracket(pair.left.scale, r, e1, e2)
    return combine(combine_path_bracket(pair, n, a, b, state))


def form_product(pair, n, a, b, state) -> State:
    """The expanded product left(a) right(b) of a pair on ``state`` through
    the live path: one `verify._product_form` half, order 0, read by
    `verify._form_value`."""
    table = {}
    den = verify._product_form(table, 1, pair, 0, n, a, b, state)
    return verify._form_value(pair, table, den, state, {})


PRODUCT_PAIRS = [(PSI, PSI), (PSI, OMEGA), (OMEGA, PSI), (OMEGA, OMEGA)]
PRODUCT_WORDS = R.basis(QQ(1))


def product_sweep(k: int) -> int:
    """Compare `form_product` with the old expanded product over n in
    -3..3, the int indices a, b in -2·step..step on the 1/k-lattice and
    every word of `R.basis(1)`, for the four pairs of psi and omega;
    the number of nonzero products."""
    step = 2 * k
    grid = range(-2 * step, step + 1, 2)
    nonzero = 0
    for u, v in PRODUCT_PAIRS:
        outer = verify._ModeFamily(verify._slot_field(k, u))
        inner = verify._ModeFamily(verify._slot_field(k, v))
        old_outer = OldModeFamily(verify._slot_field(k, u))
        old_inner = OldModeFamily(verify._slot_field(k, v))
        pair = verify._pair(outer, inner)
        scalars = pair.scalars
        assert scalars == old_pair_scalars(old_outer, old_inner)
        for word in PRODUCT_WORDS:
            state = State({word: ONE})
            for n in range(-3, 4):
                for a in grid:
                    for b in grid:
                        got = form_product(pair, n, a, b, state)
                        expected = combine(old_expanded_product(
                            old_outer, old_inner, scalars, n, a, b, state,
                            -sum(word)))
                        if got != expected:
                            return -1
                        nonzero += not expected.is_zero()
    return nonzero


@pytest.mark.parametrize("k", [2, 4])
def test_expanded_product_matches_the_level_parameter_form(k):
    assert product_sweep(k) > 0


@pytest.mark.parametrize("k", [2, 4])
def test_expanded_product_stopping_before_the_last_binomial_term_fails(
        k, monkeypatch):
    # the stop lives in the summand list that the product reads
    planted = mutated(verify._product_terms, "b + step * n)",
                      "b + step * (n - 1))")
    monkeypatch.setattr(verify, "_product_terms", planted)
    assert product_sweep(k) == -1


@pytest.mark.parametrize("k, cases, nonzero",
                         [(2, 5488, 4038), (4, 18928, 12996)])
def test_expanded_product_on_bare_fields_matches_the_families(
        k, cases, nonzero):
    """A bare field's `mode` takes the int index, as its family's does, so
    the expanded product of two bare slot fields is that of their families,
    on the grid of `product_sweep`."""
    step = 2 * k
    grid = range(-2 * step, step + 1, 2)
    counted = [0, 0]
    for u, v in PRODUCT_PAIRS:
        outer, inner = verify._slot_field(k, u), verify._slot_field(k, v)
        bare_pair = verify._pair(outer, inner)
        pair = verify._pair(verify._ModeFamily(outer),
                            verify._ModeFamily(inner))
        for word in PRODUCT_WORDS:
            state = State({word: ONE})
            for n in range(-3, 4):
                for a in grid:
                    for b in grid:
                        bare = form_product(bare_pair, n, a, b, state)
                        cached = form_product(pair, n, a, b, state)
                        assert bare == cached, (u, v, n, a, b)
                        counted[0] += 1
                        counted[1] += not bare.is_zero()
    assert counted == [cases, nonzero]


class CountedFamily(verify._ModeFamily):
    """A mode family that counts its reads."""

    reads = 0

    def mode(self, M, state):
        self.reads += 1
        return super().mode(M, state)


@pytest.mark.parametrize("k", [2, 4])
def test_expanded_product_reads_the_binomial_support_only(k):
    """For n >= 0 one product reads the inner family at most n + 1 times,
    and n + 1 times somewhere."""
    step = 2 * k
    outer = verify._ModeFamily(verify._slot_field(k, OMEGA))
    most = {}
    for word in PRODUCT_WORDS:
        state = State({word: ONE})
        for n in range(4):
            for b in range(-4 * step, step + 1, 2):
                inner = CountedFamily(verify._slot_field(k, PSI))
                form_product(verify._pair(outer, inner), n, 0, b, state)
                assert inner.reads <= n + 1, (word, n, b)
                most[n] = max(most.get(n, 0), inner.reads)
    assert most == {n: n + 1 for n in range(4)}


def test_mode_family_above_the_top_adds_no_cache_entry():
    family = verify._ModeFamily(verify._slot_field(2, OMEGA))
    for word in PRODUCT_WORDS:
        state = State({word: ONE})
        top = family.top(state)
        for M in (top + 2, top + 4 * family.scale):
            before = dict(family._cache)
            assert family.mode(M, state) is ZERO_STATE
            assert family._cache == before
        family.mode(top, state)
        assert (top, state) in family._cache


# ---------------------------------------------------------------------------
# the twisted Jacobi check and weak associativity as they were: both sides
# built and combined at every grid point; Pascal's rule along the expanded
# product; one eta class per grid point of the linear form
# ---------------------------------------------------------------------------


def combine_path_twisted_jacobi(k, u, v, window, *, domain_level=QQ(2)):
    """`verify.check_twisted_jacobi` as it was: at every grid point the left
    side `combine_path_jacobi_left` and the right side, a combination of
    `combine_path_field_product` states kept per (class, t, mu) on the
    word, are built as states and compared."""
    verify._require_pair(k, u, v)
    pair = verify._pair(verify._ModeFamily(verify._slot_field(k, u)),
                        verify._ModeFamily(verify._slot_field(k, v)))
    step = pair.left.scale
    grid0 = verify._lattice_grid(window, "x0", 1, 1)
    grid1 = verify._lattice_grid(window, "x1", k, step)
    grid2 = verify._lattice_grid(window, "x2", k, step)
    n_loc = verify._iterate_top(u, v) + 2
    i_max = n_loc + max(grid0, default=-1)
    x0_text = verify._axis_texts("x0", grid0, 1)
    x1_text = verify._axis_texts("x1", grid1, step)
    x2_text = verify._axis_texts("x2", grid2, step, " @ ")
    kernel = {e1: verify._signed_binomials(e1, step, range(i_max + 1))
              for e1 in grid1}
    result = ComparisonResult(
        f"twisted-jacobi[k={k},{verify._pair_label(u, v)}]")
    for _, target, word_text in verify._domain(pair.left, domain_level):
        rhs_modes = {}
        for alpha in grid0:
            r = -alpha - 1
            for e1 in grid1:
                r_cls = (-(e1 // 2)) % k
                binoms = kernel[e1]
                for e2 in grid2:
                    lhs = combine_path_jacobi_left(pair, r, e1, e2, target)
                    rhs_terms = []
                    for i in range(0, n_loc + alpha + 1):
                        base = binoms[i]
                        if base == 0:
                            continue
                        t = i - alpha - 1
                        mu = -e1 - e2 - step * (i + 2)
                        key = (r_cls, t, mu)
                        image = rhs_modes.get(key)
                        if image is None:
                            image = combine_path_field_product(
                                pair, n_loc, r_cls, t, mu, target)
                            rhs_modes[key] = image
                        if image.nums:
                            rhs_terms.append((image, base))
                    result.compare(
                        x0_text[alpha] + x1_text[e1] + x2_text[e2] + word_text,
                        lhs,
                        combine(rhs_terms),
                    )
    return verify._wrap_comparison(result, k, verify._window_str(window))


JACOBI_PAIRS = [(PSI, PSI), (OMEGA, OMEGA), (VACUUM, PSI)]
# x0 runs over -1, 0, 1 in both windows
JACOBI_CASES = [
    (2, Window.cube(("x0", "x1", "x2"), QQ(-1), QQ(1)), QQ(1)),
    (4, Window.cube(("x0", "x1", "x2"), QQ(-1), QQ(1)), QQ(1, 2)),
]


@pytest.mark.parametrize("k, window, level", JACOBI_CASES, ids=["k2", "k4"])
@pytest.mark.parametrize("u, v", JACOBI_PAIRS,
                         ids=["psi-psi", "omega-omega", "vacuum-psi"])
def test_jacobi_forms_match_the_combine_path(monkeypatch, k, window, level,
                                            u, v):
    """The same report; and every point's form is zero on the honest
    check, so no left side is read for a witness."""
    expected = combine_path_twisted_jacobi(k, u, v, window, domain_level=level)
    witnessed = []
    monkeypatch.setattr(verify, "_jacobi_left",
                        lambda *args: witnessed.append(args))
    got = verify.check_twisted_jacobi(k, u, v, window, domain_level=level)
    assert got == expected
    assert got.verdict == "pass" and got.compared > 0
    assert witnessed == []


@pytest.mark.parametrize("k, window, level", JACOBI_CASES, ids=["k2", "k4"])
def test_planted_composite_weight_gives_the_oracle_witnesses(
        monkeypatch, k, window, level):
    """The weight of one composite, A(a')B(b')w at the modes a' = b' = -1/2
    (the int index -k), raised by one wherever an expanded product adds it:
    the linear forms and the combine path read the same summands, and both
    report the same mismatches."""
    planted_at = (-k, -k)
    honest = verify._product_terms

    def planted(inner, n, a, b, state):
        return [(a_i, m, c + 1 if (a_i, m) == planted_at else c)
                for a_i, m, c in honest(inner, n, a, b, state)]

    monkeypatch.setattr(verify, "_product_terms", planted)
    got = verify.check_twisted_jacobi(k, PSI, PSI, window, domain_level=level)
    expected = combine_path_twisted_jacobi(k, PSI, PSI, window,
                                           domain_level=level)
    assert got.mismatches
    assert got == expected


@pytest.mark.parametrize("use_recovered", [True, False],
                         ids=["recovered", "native"])
@pytest.mark.parametrize("k", [2, 4])
def test_planted_composite_weight_gives_the_weak_associativity_witnesses(
        monkeypatch, k, use_recovered):
    """The weight of the composite A(-1/2)B(-1/2)w (the doubled index -1)
    raised by one wherever an expanded product adds it: the product side
    read as a linear form and the state path of
    `combine_path_weak_associativity` report the same mismatches, at the
    last exponent shift searched."""
    planted_at = (-1, -1)
    honest = verify._product_terms

    def planted(inner, n, a, b, state):
        return [(a_i, m, c + 1 if (a_i, m) == planted_at else c)
                for a_i, m, c in honest(inner, n, a, b, state)]

    monkeypatch.setattr(verify, "_product_terms", planted)
    window = Window.cube(("x0", "x2"), QQ(-1), QQ(1))
    options = dict(max_order=1, domain_level=QQ(1),
                   use_recovered=use_recovered)
    got = verify.check_weak_associativity(k, PSI, PSI, window, **options)
    expected = combine_path_weak_associativity(k, PSI, PSI, window, **options)
    assert got.mismatches
    assert got == expected


@pytest.mark.parametrize("u, v", JACOBI_PAIRS,
                         ids=["psi-psi", "omega-omega", "vacuum-psi"])
def test_slot_two_left_side_matches_the_combine_path(u, v):
    """Both fields in slot 2 at k = 4, where the eta class of a form varies
    by point: at every point of the k4 window, on every word, the left side
    read by `_form_value` equals the combined states of
    `combine_path_jacobi_left`, and some points of a class j != 0 take a
    cyclotomic scalar."""
    k, window, level = JACOBI_CASES[1]
    pair = verify._pair(
        verify._ModeFamily(verify._slot_field(k, u, slot=2)),
        verify._ModeFamily(verify._slot_field(k, v, slot=2)))
    step = pair.left.scale
    grid0 = verify._lattice_grid(window, "x0", 1, 1)
    grid1 = verify._lattice_grid(window, "x1", k, step)
    grid2 = verify._lattice_grid(window, "x2", k, step)
    moved = cyclotomic = 0
    for _, target, _ in verify._domain(pair.left, level):
        composites = {}
        for alpha in grid0:
            for e1 in grid1:
                for e2 in grid2:
                    r = -alpha - 1
                    got = verify._jacobi_left(pair, r, e1, e2, target,
                                              composites)
                    assert got == combine_path_jacobi_left(
                        pair, r, e1, e2, target), (alpha, e1, e2, target)
                    table = {}
                    verify._bracket_form(table, 1, pair, *verify._jacobi_bracket(
                        step, r, e1, e2), target)
                    if got.nums and {key[0] for key in table} != {0}:
                        moved += 1
                        cyclotomic += any(type(num) is not int
                                          for _, num in got.nums)
    assert moved > 0 and cyclotomic > 0


def jacobi_classes(k, slot, u, v, window, level) -> list:
    """The set of eta classes of the keys of each grid point's Jacobi form,
    for the pair of u and v both in ``slot``, over the words of the
    domain."""
    left = verify._ModeFamily(verify._slot_field(k, u, slot=slot))
    right = verify._ModeFamily(verify._slot_field(k, v, slot=slot))
    pair = verify._pair(left, right)
    step = left.scale
    grid0 = verify._lattice_grid(window, "x0", 1, 1)
    grid1 = verify._lattice_grid(window, "x1", k, step)
    grid2 = verify._lattice_grid(window, "x2", k, step)
    n_loc = verify._iterate_top(u, v) + 2
    return [{key[0] for key in table}
            for _, target, _ in verify._domain(pair.left, level)
            for *_, table in verify._jacobi_forms(
                pair, n_loc, grid0, grid1, grid2, target)]


@pytest.mark.parametrize("k, window, level", JACOBI_CASES, ids=["k2", "k4"])
def test_one_eta_class_per_grid_point(k, window, level):
    """Every key of a grid point's form has the same eta class, so each
    point's form is one rational combination times one nonzero scalar.  The
    check's first-slot fields have the one class 0; in slot 2 the class
    varies from point to point, and still one class holds each point (a
    point whose weights all cancel holds none)."""
    for u, v in JACOBI_PAIRS:
        first = jacobi_classes(k, 1, u, v, window, level)
        assert set().union(*first) == {0}
        moved = jacobi_classes(k, 2, u, v, window, level)
        assert all(len(classes) <= 1 for classes in moved)
        assert len(set().union(*moved)) > 1


def combine_path_weak_associativity(k, u, v, window, *, max_order=6,
                                    domain_level=QQ(2), use_recovered=True):
    """`verify.check_weak_associativity` as it was: the product side of
    every (x0, x2) point one `combine_path_product`, combined as a state."""
    verify._require_pair(k, u, v)
    tag = "recovered" if use_recovered else "native"
    fam_u = verify._ModeFamily(verify._parity_field(k, u, use_recovered))
    fam_v = verify._ModeFamily(verify._parity_field(k, v, use_recovered))
    scalars = verify._pair(fam_u, fam_v).scalars
    parity_u = u.homogeneous_parity()
    grid0 = verify._lattice_grid(window, "x0", 1, 1)
    grid2 = verify._lattice_grid(window, "x2", 2, 2)
    domain = verify._domain(fam_u, domain_level)
    t_top = verify._iterate_top(u, v)
    i_max = t_top + max(grid0, default=-1) + 1
    x0_text = verify._axis_texts("x0", grid0, 1)
    x2_text = verify._axis_texts("x2", grid2, 2, " @ ")
    iterate_families = {}
    for t in range(-max(grid0, default=-1) - 1, t_top + 1):
        state = vertex_mode(u, t, v)
        iterate_families[t] = (None if state.is_zero()
                               else verify._ModeFamily(fam_v.field_of(state)))
    label = f"weak-associativity[{tag},k={k},{verify._pair_label(u, v)}]"

    def attempt(n: int) -> ComparisonResult:
        result = ComparisonResult(label)
        exponent = parity_u + 2 * n
        binoms = [binomial(QQ(exponent, 2), i) for i in range(i_max + 1)]
        for _, target, word_text in domain:
            for alpha in grid0:
                for beta in grid2:
                    lhs = combine(combine_path_product(
                        fam_u, fam_v, scalars, -alpha - 1,
                        exponent - 2 - 2 * alpha, -beta - 2, target))
                    rhs_terms = []
                    for i in range(0, t_top + alpha + 2):
                        family = iterate_families[i - alpha - 1]
                        if family is None:
                            continue
                        image = family.mode(exponent - 2 * i - beta - 2, target)
                        if image.nums:
                            rhs_terms.append((image, binoms[i]))
                    result.compare(x0_text[alpha] + x2_text[beta] + word_text,
                                   lhs, combine(rhs_terms))
        return result

    return verify._smallest_passing(attempt, max_order, k,
                                    verify._window_str(window),
                                    "exponent shift", "n")


# (cases, nonzero E_{n+1}) of the Pascal sweep
PASCAL_CASES = {2: (6272, 4630), 4: (21632, 14870)}


@pytest.mark.parametrize("k", [2, 4])
def test_expanded_product_follows_pascals_rule(k):
    """(x1 - x2)^{n+1} = (x1 - x2)(x1 - x2)^n along the expanded product:
    E_{n+1}(a, b) = E_n(a, b) - E_n(a - step, b + step), for n in -4..3; at
    n < 0 both sides are sums that the inner top cuts short."""
    step = 2 * k
    grid = range(-2 * step, step + 1, 2)
    cases = nonzero = 0
    for u, v in PRODUCT_PAIRS:
        outer = verify._ModeFamily(verify._slot_field(k, u))
        inner = verify._ModeFamily(verify._slot_field(k, v))
        pair = verify._pair(outer, inner)

        def product(n, a, b, state):
            return form_product(pair, n, a, b, state)

        for word in PRODUCT_WORDS:
            state = State({word: ONE})
            for n in range(-4, 4):
                for a in grid:
                    for b in grid:
                        expected = product(n + 1, a, b, state)
                        assert expected == (
                            product(n, a, b, state)
                            - product(n, a - step, b + step, state)
                        ), (u, v, word, n, a, b)
                        cases += 1
                        nonzero += not expected.is_zero()
    assert (cases, nonzero) == PASCAL_CASES[k]


# ---------------------------------------------------------------------------
# the delta-apply front end as it was: the word checked on Fractions and
# built by the public constructor, each drop j worked back from its exponent
# ---------------------------------------------------------------------------


def fraction_check_word(sector, modes) -> tuple:
    """`Sector.check_word` as it was, on `Fraction` arithmetic."""
    lattice = "Z" if sector.half else "Z + 1/2"
    modes = tuple(QQ(m) for m in modes)
    for m in modes:
        if m.denominator != 2 - sector.half:
            raise ValueError(f"mode {m} is not in {lattice}")
        if 2 * m > sector.half - 1:
            raise ValueError(f"mode {m} is not a creation mode")
    if any(a >= b for a, b in zip(modes, modes[1:])):
        text = ", ".join(str(m) for m in modes)
        raise ValueError(f"word ({text}) is not strictly ascending")
    return tuple(int(2 * m) for m in modes)


def fraction_parse_state(text: str) -> State:
    """`cli.parse_state` as it was: the word checked by the Fraction body
    and the state built by the validating public constructor."""
    name = text.strip().lower()
    if name in cli._NAMED_STATES:
        return cli._NAMED_STATES[name]
    indices = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ValueError(f"empty mode index in state {text!r}")
        try:
            indices.append(verify.parse_rational(part))
        except ValueError as exc:
            raise ValueError(f"bad mode index {part!r} in state") from exc
    return State({fraction_check_word(NS, indices): ONE})


def exponent_cmd_delta_apply(cfg) -> int:
    """`cli.cmd_delta_apply` as it was: each piece's drop j undone from its
    exponent with Fraction arithmetic."""
    state = fraction_parse_state(cfg.state)
    weight = state.homogeneous_level()
    direction = INVERSE if cfg.inverse else FORWARD
    window = Window({"x": (cfg.lo, cfg.hi)})
    expansion = apply_delta(cfg.k, state, direction)
    rows = []
    json_pieces = []
    for exponent, piece in expansion.pieces:
        if not window.contains("x", exponent):
            continue
        if direction == FORWARD:
            j = (weight / cfg.k - weight - exponent) * cfg.k
        else:
            j = weight - weight / cfg.k - exponent
        rendered = piece.render()
        rows.append((scalar_str(QQ(j)), cli._value(exponent, cfg.decimal), rendered))
        json_pieces.append(
            {
                "j": scalar_str(QQ(j)),
                "exponent": cli._value(exponent, cfg.decimal),
                "state": rendered,
            }
        )
    payload = {
        "k": cfg.k,
        "direction": direction,
        "input": state.render(),
        "weight": scalar_str(QQ(weight)),
        "prefactor": cli._value(expansion.prefactor, cfg.decimal),
        "pieces": json_pieces,
    }
    cli._emit(cli._render_rows(cfg.fmt, ("j", "exponent", "state"), rows, payload),
              cfg.out)
    return 0


def delta_apply_argvs() -> list:
    """Every NS word of weight <= 5 (the empty one as ``vacuum``), psi and
    omega, at k in {1, 2, 3, 4, 6}, both directions, with and without an
    exponent window and --decimal, in the three formats."""
    states = [",".join(str(QQ(m2, 2)) for m2 in word)
              for word in NS.basis(5) if word] + ["vacuum", "psi", "omega"]
    return [
        ("delta-apply", "--k", str(k), f"--state={state}", "--format", fmt,
         *inverse, *window, *decimal)
        for state in states
        for k in (1, 2, 3, 4, 6)
        for inverse in ((), ("--inverse",))
        for window in ((), ("--lo=-3/2", "--hi=1/3"))
        for decimal in ((), ("--decimal",))
        for fmt in cli.FORMATS
    ]


def front_end_mismatches(command) -> list:
    """The argvs of `delta_apply_argvs` on which ``command`` in place of
    `cli.cmd_delta_apply` prints other text than the oracle, by exit code
    and stdout."""
    def outputs(entry):
        printed = []
        commands = dict(cli._COMMANDS, **{"delta-apply": entry})
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_COMMANDS", commands)
            for argv in delta_apply_argvs():
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    code = cli.main(list(argv))
                printed.append((code, out.getvalue()))
        return printed

    return [argv for argv, got, expected
            in zip(delta_apply_argvs(), outputs(command),
                   outputs(exponent_cmd_delta_apply))
            if got != expected]


def test_delta_apply_prints_what_the_exponent_body_printed():
    assert front_end_mismatches(cli.cmd_delta_apply) == []


def test_planted_drop_error_fails_the_front_end_sweep():
    """j one too high at every drop >= 1: the sweep must tell, and only on
    states with such a piece in the window (psi has none)."""
    planted = mutated(cli.cmd_delta_apply, "// 2)",
                      "// 2 + (level2 > _level2(piece)))")
    mismatches = front_end_mismatches(planted)
    assert mismatches
    assert not [argv for argv in mismatches if "--state=psi" in argv]


BAD_STATE_TEXTS = ("-3/2,,-1/2", "abc", "-1/0", "0", "-1", "-3/4", "1/2",
                   "-1/2,-1/2", "-1/2,-3/2", "-5/2,-3/2,-3/2", "-3/2,1/2")


@pytest.mark.parametrize("text", BAD_STATE_TEXTS)
def test_bad_state_is_refused_with_the_fraction_body_message(text):
    with pytest.raises(ValueError) as expected:
        fraction_parse_state(text)
    with pytest.raises(ValueError) as got:
        cli.parse_state(text)
    assert str(got.value) == str(expected.value)


def test_check_word_matches_the_fraction_body():
    """Every word of at most two modes in (1/4)Z from -5/2 to 3/2, as
    Fractions and, where integral, as ints, in both sectors: the same
    doubled word or the same refusal."""
    grid = [QQ(n, 4) for n in range(-10, 7)]
    words = [(m,) for m in grid] + [(a, b) for a in grid for b in grid]
    words += [tuple(int(m) for m in word) for word in words
              if all(m.denominator == 1 for m in word)]
    accepted = 0
    for sector in (NS, R):
        for word in words:
            try:
                expected = fraction_check_word(sector, word)
            except ValueError as exc:
                expected = str(exc)
            try:
                got = sector.check_word(word)
            except ValueError as exc:
                got = str(exc)
            assert got == expected, (sector.ket, word)
            accepted += isinstance(expected, tuple)
    # three modes and three ascending pairs on |0>, and on |R> as
    # Fractions and as ints
    assert accepted == 6 + 2 * 6


# ---------------------------------------------------------------------------
# the class tables as they were, before they gave the fields' support on the
# sector lattice, and the residue-commutator engine as it was, combining
# and locating every grid point
# ---------------------------------------------------------------------------


def old_slot_classes(k: int, power: int) -> tuple:
    """`SlotField.classes` as it was: by M mod 2k, None where the slot twist
    power·k·(-m-1) is fractional, else its class mod k."""
    power %= k
    return tuple(None if power * M % 2 else (-power * M // 2) % k
                 for M in range(2 * k))


def old_class_table(self, classes) -> tuple:
    """`_ModeField._on_sector_lattice` replaced by the tables as they were:
    the slot twist alone for a slot field, the parity coset of the state
    for a recovered field."""
    if isinstance(self, RecoveredField):
        return (None, 0) if self.parity else (0, None)
    return tuple(classes)


# every NS word up to weight 4 (both parities, the vacuum included) on every
# Ramond word up to level 2
SUPPORT_STATES = [State({word: ONE}) for word in NS.basis(QQ(4))]
SUPPORT_TARGETS = [State({word: ONE}) for word in R.basis(QQ(2))]


def support_sweep(k: int) -> tuple:
    """Every slot power of every support state at order k, with M over five
    periods: (points, newly None, nonzero images, failures).  A failure is
    a point newly None (None where the old table's class is not, so only
    the lattice rule makes it zero) while the plan's `mode_sum` is nonzero,
    or a point whose class is not None and differs from the old table's."""
    points = newly_none = nonzero = 0
    failures = []
    scale = 2 * k
    for u in SUPPORT_STATES:
        base = SlotField(k, u)
        fields = [SlotField(k, u, p) for p in range(k)]
        # the plan does not depend on the slot
        assert all(field._offsets == base._offsets for field in fields)
        for M in range(-2 * scale, 3 * scale):
            images = [mode_sum(base.plan(M), target, R.half)
                      for target in SUPPORT_TARGETS]
            nonzero += sum(bool(image.nums) for image in images)
            for p, field in enumerate(fields):
                new, old = field.eta_class(M), old_slot_classes(k, p)[M % scale]
                points += len(images)
                if new is None:
                    if old is not None:
                        newly_none += len(images)
                        failures += [(u, p, M) for image in images
                                     if image.nums]
                elif new != old:
                    failures.append((u, p, M))
    return points, newly_none, nonzero, failures


@pytest.mark.parametrize("k", range(1, 7))
def test_slot_class_is_none_only_where_the_plan_is_zero(k):
    points, newly_none, nonzero, failures = support_sweep(k)
    assert failures == []
    # the support removes points at every order, and the sweep reads
    # nonzero images
    assert newly_none > 0 and nonzero > 0
    assert points == len(SUPPORT_STATES) * k * 5 * 2 * k * len(SUPPORT_TARGETS)


@pytest.mark.parametrize("k", [2, 3])
def test_parity_flipped_support_rule_fails_the_sweep(monkeypatch, k):
    rule = twist._ModeField._on_sector_lattice

    def flipped(self, classes):
        self.parity ^= 1
        try:
            return rule(self, classes)
        finally:
            self.parity ^= 1

    monkeypatch.setattr(twist._ModeField, "_on_sector_lattice", flipped)
    assert support_sweep(k)[3]


@pytest.mark.parametrize("k", [2, 4, 6])
@pytest.mark.parametrize("u", SUPPORT_STATES + [ZERO_STATE])
def test_recovered_classes_are_the_parity_coset(monkeypatch, k, u):
    field = RecoveredField(k, u)
    monkeypatch.setattr(twist._ModeField, "_on_sector_lattice", old_class_table)
    assert field.classes == RecoveredField(k, u).classes


def old_supercommutator_grid(pair, target: State, grid1, grid2):
    """`verify._supercommutator_grid` as it was: every point off neither
    class lattice combines its two composed images."""
    left, right, scalars, eps = pair
    sign = -eps
    step = left.scale
    a_images = []
    for e1 in grid1:
        m1 = -e1 - step
        a_images.append((e1, m1, left.eta_class(m1), left.mode(m1, target)))
    for e2 in grid2:
        m2 = -e2 - step
        c2 = right.eta_class(m2)
        b = right.mode(m2, target)
        for e1, m1, c1, a in a_images:
            if c1 is None or c2 is None:
                yield e1, e2, ZERO_STATE
                continue
            scalar = scalars[(c1 + c2) % len(scalars)]
            pairs = []
            if b.nums:
                pairs.append((left.mode(m1, b), scalar))
            if a.nums:
                pairs.append((right.mode(m2, a), sign * scalar))
            yield e1, e2, combine(pairs)


def old_commutator_report(k_report: int, left, right, window: Window, *,
                          forms, domain_level=QQ(2)) -> tuple:
    """`verify._commutator_report` as it was: the residue reads every
    iterate at every point, and every point builds its location text."""
    step = left.scale
    grid1 = verify._lattice_grid(window, "x1", step, step)
    grid2 = verify._lattice_grid(window, "x2", step, step)
    iterates = []
    for t in range(0, verify._iterate_top(left.state, right.state) + 1):
        it = vertex_mode(left.state, t, right.state)
        if not it.is_zero():
            iterates.append((t, right.field_of(it)))
    prefactor = QQ(2, step)
    power = left.power - right.power
    pair = verify._pair(left, right)
    results = [(ComparisonResult(name), shift) for name, shift, _ in forms]
    on_lattice = {
        e1: tuple((e1 - shift) % 2 == 0 for _, shift in results)
        for e1 in grid1
    }
    x1_text = verify._axis_texts("x1", grid1, step)
    x2_text = verify._axis_texts("x2", grid2, step, " @ ")
    orders = [t for t, _ in iterates]
    witnesses = 0
    kernel_terms = {
        e1: tuple(
            (binom, power * (e1 + step * t) // 2)
            for t, binom in zip(orders,
                                verify._signed_binomials(e1, step, orders))
        )
        for e1 in grid1 if any(on_lattice[e1])
    }

    for _, target, word_text in verify._domain(left, domain_level):
        images = {}

        def residue(e1, e2) -> State:
            total = e1 + e2
            hit = images.get(total)
            if hit is None:
                hit = []
                for t, field in iterates:
                    mu = -total - step * (t + 2)
                    hit.append((field.mode(mu, target),
                                field.eta_class(mu)))
                images[total] = hit
            terms = []
            for (_, field), (image, j), (binom, shift) in zip(
                    iterates, hit, kernel_terms[e1]):
                if image.nums:
                    scalars_t = field.scalars
                    terms.append(
                        (image, binom * scalars_t[(j + shift) % len(scalars_t)]))
            return combine(terms).scaled(prefactor)

        for e1, e2, lhs in old_supercommutator_grid(pair, target, grid1, grid2):
            location = x1_text[e1] + x2_text[e2] + word_text
            rhs = None
            for (result, _), on in zip(results, on_lattice[e1]):
                if on and rhs is None:
                    rhs = residue(e1, e2)
                result.compare(location, lhs, rhs if on else ZERO_STATE)
            if rhs is not None and rhs.nums and not all(on_lattice[e1]):
                witnesses += 1
    window_text = verify._window_str(window)
    for name, _, expected in forms:
        if expected == "fail" and not witnesses:
            raise ValueError(
                f"{name} cannot fail on the window {window_text}: at no "
                "point there does its residue side differ from another "
                "form's; widen the window")
    return tuple(
        verify._wrap_comparison(result, k_report, window_text,
                                expected_verdict=expected)
        for (result, _), (_, _, expected) in zip(results, forms)
    )


def obstruction_forms(u: State) -> tuple:
    parity = u.homogeneous_parity()
    return (("even", 0, "fail" if parity else "pass"), ("odd", parity, "pass"))


def slot_pair(slot_u: int, slot_v: int):
    return lambda k, u, v: (verify._slot_field(k, u, slot=slot_u),
                            verify._slot_field(k, v, slot=slot_v))


# (k, the two fields, the forms) of each check that runs the engine
ENGINE_CASES = {
    "obstruction-k3": (3, slot_pair(1, 1), obstruction_forms),
    "obstruction-k5": (5, slot_pair(1, 1), obstruction_forms),
    "even-k2": (2, slot_pair(1, 1), lambda u: (("even", 0, "pass"),)),
    "even-k4": (4, slot_pair(1, 1), lambda u: (("even", 0, "pass"),)),
    "cross-slot-1-2": (2, slot_pair(1, 2), lambda u: (("cross", 0, "pass"),)),
    "cross-slot-2-2": (2, slot_pair(2, 2), lambda u: (("cross", 0, "pass"),)),
    "recovered": (
        2,
        lambda k, u, v: (RecoveredField(k, u), RecoveredField(k, v)),
        lambda u: (("recovered", u.homogeneous_parity(), "pass"),),
    ),
}
ENGINE_WINDOW = Window.cube(("x1", "x2"), QQ(-1), QQ(1))
ENGINE_PAIRS = [(PSI, PSI), (PSI, OMEGA), (OMEGA, PSI), (OMEGA, OMEGA)]


def engine_outcomes(monkeypatch, case: str, u: State, v: State) -> tuple:
    """The reports of the engine and of the oracle on one case, the oracle
    on the old class tables; a refused run gives its message."""
    k, fields, forms = ENGINE_CASES[case]

    def outcome(report, *args):
        try:
            return [r._values() for r in report(k, *fields(k, u, v), *args,
                                                 forms=forms(u),
                                                 domain_level=QQ(1))]
        except ValueError as exc:
            return str(exc)

    new = outcome(verify._commutator_report, ENGINE_WINDOW)
    with monkeypatch.context() as patch:
        patch.setattr(twist._ModeField, "_on_sector_lattice", old_class_table)
        old = outcome(old_commutator_report, ENGINE_WINDOW)
    return new, old


@pytest.mark.parametrize("case", list(ENGINE_CASES))
def test_commutator_engine_matches_the_old_engine(monkeypatch, case):
    compared = 0
    for u, v in ENGINE_PAIRS:
        new, old = engine_outcomes(monkeypatch, case, u, v)
        assert new == old, (u, v)
        compared += sum(values[3] for values in new)
    assert compared > 0
    if case.startswith("obstruction"):
        # alone, the even form has no other form to differ from: both
        # engines refuse it
        k, fields, forms = ENGINE_CASES[case]
        for report in (verify._commutator_report, old_commutator_report):
            with pytest.raises(ValueError, match="cannot fail"):
                report(k, *fields(k, PSI, PSI), ENGINE_WINDOW,
                       forms=forms(PSI)[:1], domain_level=QQ(1))


def test_dropped_kernel_sign_gives_the_old_engine_witnesses(monkeypatch):
    """With the residue kernel's sign (-1)^t dropped, both engines report
    the same nonzero witnesses on every case."""
    monkeypatch.setattr(
        verify, "_signed_binomials",
        lambda e, step, orders: [binomial(QQ(e + step * t, step), t)
                                 for t in orders])
    mismatched = 0
    for case in ENGINE_CASES:
        for u, v in ENGINE_PAIRS:
            new, old = engine_outcomes(monkeypatch, case, u, v)
            assert new == old, (case, u, v)
            if not isinstance(new, str):
                mismatched += sum(len(values[4]) for values in new)
    assert mismatched > 0


# ---------------------------------------------------------------------------
# the Ramond module's facts as `ramond` held them, against `fermion.Sector`
# ---------------------------------------------------------------------------


def old_sigma_virasoro(n, s: State) -> State:
    """Twisted L(n): lattice mode n+1 of the conformal vector's twisted
    field (the body of `sigma_vertex_mode` written out)."""
    return field_mode(OMEGA, QQ(n) + 1, s, R.half)


def old_ground_weight() -> QQ:
    """The twisted L(0) eigenvalue on the ground space, without a cache."""
    image = old_sigma_virasoro(0, VACUUM)
    value = image.coefficient(())
    if image != VACUUM.scaled(value):
        raise AssertionError("twisted L(0) is not scalar on the ground vector")
    return value


def old_sigma_L0_spectrum(cutoff) -> QSeries:
    """Graded dimension of the twisted module up to a weight cutoff."""
    cutoff = QQ(cutoff)
    base = old_ground_weight()
    top = rational_floor(cutoff - base)
    if top < 0:
        return QSeries(base, ())
    counts = [0] * (top + 1)
    for w in R.basis(QQ(top)):
        s = State({w: QQ(1)})
        image = old_sigma_virasoro(0, s)
        value = image.coefficient(w)
        if image != s.scaled(value):
            raise AssertionError(f"twisted L(0) is not diagonal at word {w}")
        slot = value - base
        if slot.denominator != 1 or slot < 0:
            raise AssertionError(f"eigenvalue {value} is off the expected lattice")
        if slot <= top:
            counts[int(slot)] += 1
    return QSeries(base, tuple(counts))


def test_ramond_ground_weight_matches_the_old_body():
    clear_caches()
    assert R.ground_weight() == old_ground_weight() == QQ(1, 16)


@pytest.mark.parametrize("cutoff", range(11))
def test_ramond_spectrum_matches_the_old_body(cutoff):
    for weight in (QQ(cutoff), QQ(1, 16) + cutoff):
        new = R.spectrum(weight)
        assert new == old_sigma_L0_spectrum(weight), weight
        assert sum(new.coeffs) == len(R.basis(weight - QQ(1, 16)))


def test_ramond_virasoro_matches_the_old_body():
    nonzero = 0
    for w in R.basis(QQ(5)):
        s = State({w: ONE})
        for n in range(-3, 4):
            new = R.virasoro(n, s)
            assert_same_state(new, old_sigma_virasoro(n, s))
            nonzero += not new.is_zero()
    assert nonzero > 0


# ---------------------------------------------------------------------------
# compare_fields as it was, with every column's location prefix built
# ---------------------------------------------------------------------------


def old_compare_fields(
    name: str, lhs, rhs, exponents, keys, key_formatter=str, scale: int = 1
) -> ComparisonResult:
    result = ComparisonResult(name)
    for e in exponents:
        x_text = f"x^{QQ(e, scale)} @ "
        for key in keys:
            a_den, a = lhs(e, key)
            b_den, b = rhs(e, key)
            result.compared += 1
            column = f"{x_text}{key_formatter(key)} -> "
            compare_numerators(
                result, (a_den, dict(a)), (b_den, dict(b)),
                lambda okey: column + key_formatter(okey))
    return result


def round_trip_outcome(monkeypatch, compare, k: int, planted: bool) -> tuple:
    native = verify.sigma_vertex_mode
    # one entry in the column of psi(-1)|R> at x^-1 (mode 0) and one in
    # that of psi(0)|R> at x^-3/2 (mode 1/2)
    columns = ((0, State({(-2,): ONE})), (QQ(1, 2), State({(0,): ONE})))

    def broken(u, t, target):
        image = native(u, t, target)
        if (t, target) in columns:
            return image + State({(-2,): QQ(7)})
        return image

    with monkeypatch.context() as patch:
        patch.setattr(verify, "compare_fields", compare)
        if planted:
            patch.setattr(verify, "sigma_vertex_mode", broken)
        report = verify.check_u_round_trip(
            k, PSI, Window({"x": (QQ(-2), QQ(1))}), domain_level=QQ(1))
    return report.compared, report.mismatches


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("planted", [False, True], ids=["honest", "planted"])
def test_compare_fields_matches_the_old_body(monkeypatch, k, planted):
    new = round_trip_outcome(monkeypatch, compare_fields, k, planted)
    assert new == round_trip_outcome(monkeypatch, old_compare_fields, k, planted)
    assert new[0] > 0
    assert len(new[1]) == (2 if planted else 0)


# ---------------------------------------------------------------------------
# the delta-function identities and the cover map on Fraction monomials, as
# they were
# ---------------------------------------------------------------------------


uncached_binomial = binomial.__wrapped__


def old_merged_delta_kernel(
    top,
    second,
    bottom,
    window: Window,
    *,
    shift=0,
    lattice_den: int = 1,
    second_sign: int = -1,
    bottom_sign: int = 1,
) -> dict:
    shift = QQ(shift)
    blo, bhi = window.bounds_for(bottom)
    if blo is None or bhi is None:
        raise ValueError("kernel window must bound the denominator variable")
    slo, shi = window.bounds_for(second)
    if shi is None:
        raise ValueError("kernel window must bound the expansion variable")
    variables = (top, second, bottom)
    order = sorted(range(3), key=variables.__getitem__)
    # bottom exponent is -e-1, so e runs over [-1-bhi, -1-blo]
    e_lo, e_hi = -1 - bhi, -1 - blo
    n_lo = rational_ceil((e_lo - shift) * lattice_den)
    n_hi = rational_floor((e_hi - shift) * lattice_den)
    i_range = range(max(0, rational_ceil(slo or ZERO)), rational_floor(shi) + 1)
    table = {}
    for n in range(n_lo, n_hi + 1):
        e = shift + QQ(n, lattice_den)
        if bottom_sign == -1 and e.denominator != 1:
            raise ValueError("sign-reversed denominator requires integer exponents")
        bot_coeff = -1 if bottom_sign == -1 and e.numerator % 2 else 1
        for i in i_range:
            mono = (e - i, QQ(i), -e - 1)
            if not window.contains(top, mono[0]):
                continue
            c = uncached_binomial(e, i) * second_sign ** i * bot_coeff
            if c:
                table[tuple(mono[j] for j in order)] = c
    return table


def old_contains_mono(window: Window, variables, mono) -> bool:
    return all(window.contains(v, e) for v, e in zip(variables, mono))


def old_is_bounded(window: Window, variables) -> bool:
    return all(
        window.bounds_for(v)[0] is not None and window.bounds_for(v)[1] is not None
        for v in variables
    )


def old_lattice_size(window: Window, variables, den: int) -> int:
    total = 1
    for var in variables:
        lo, hi = window.bounds_for(var)
        total *= max(0, rational_floor(hi * den) - rational_ceil(lo * den) + 1)
    return total


def old_compare_series(
    name: str,
    lhs: dict,
    rhs: dict,
    window: Window,
    lattice_den: int,
) -> ComparisonResult:
    variables = sorted(window.bounds)
    if not old_is_bounded(window, variables):
        raise ValueError("comparison window must be bounded")
    result = ComparisonResult(name)
    for mono in lhs.keys() | rhs.keys():
        if not old_contains_mono(window, variables, mono):
            continue
        if any((e * lattice_den).denominator != 1 for e in mono):
            continue
        result.compare(mono, lhs.get(mono, ZERO), rhs.get(mono, ZERO))
    result.mismatches.sort(key=lambda item: item[0])
    result.compared = old_lattice_size(window, variables, lattice_den)
    return result


def old_add_into(total: dict, table: dict, sign: int = 1) -> None:
    """Add sign * table into the coefficient table total, in place."""
    for mono, c in table.items():
        total[mono] = total.get(mono, ZERO) + sign * c


def old_verify_delta_identity(
    kind: DeltaIdentity, k: int, r, window: Window,
    kernel=old_merged_delta_kernel,
) -> ComparisonResult:
    r = QQ(r)
    den = 2 * k
    if kind is DeltaIdentity.DF1:
        lhs = kernel("x1", "x0", "x2", window, shift=r, lattice_den=1)
        rhs = kernel(
            "x2", "x0", "x1", window, shift=-r, lattice_den=1, second_sign=1
        )
        name = f"delta-identity-DF1[k={k},r={r}]"
    elif kind is DeltaIdentity.DF2:
        lhs = {}
        for p in range(k):
            old_add_into(lhs, kernel(
                "x1", "x0", "x2", window, shift=QQ(p, k), lattice_den=1
            ))
        rhs = kernel("x1", "x0", "x2", window, shift=0, lattice_den=k)
        name = f"delta-identity-DF2[k={k}]"
    elif kind is DeltaIdentity.DF3:
        lhs = kernel("x1", "x0", "x2", window, shift=0, lattice_den=k)
        rhs = kernel(
            "x2", "x0", "x1", window, shift=0, lattice_den=k, second_sign=1
        )
        name = f"delta-identity-DF3[k={k}]"
    elif kind is DeltaIdentity.THREE_TERM:
        lhs = kernel("x1", "x2", "x0", window)
        old_add_into(lhs, kernel(
            "x2", "x1", "x0", window, bottom_sign=-1
        ), -1)
        rhs = kernel("x1", "x0", "x2", window)
        name = f"delta-identity-ThreeTerm[k={k}]"
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown identity {kind}")
    return old_compare_series(name, lhs, rhs, window, den)


def old_inverse_cover_series(k: int, degree: int) -> list:
    return [ZERO] + [uncached_binomial(QQ(1, k), m) * k**m
                     for m in range(1, degree + 1)]


def old_check_f_composition(k: int, degree: int = 10,
                            inverse=old_inverse_cover_series) -> ComparisonResult:
    shifted = inverse(k, degree)
    shifted[0] = ONE
    power = [ONE] + [ZERO] * degree
    for _ in range(k):
        power = [sum(power[j] * shifted[m - j] for j in range(m + 1))
                 for m in range(degree + 1)]
    composed = {(QQ(m), QQ(1 - m, k)): power[m] for m in range(1, degree + 1)}
    return old_compare_series(
        f"cover-map-composition[k={k},degree={degree}]",
        composed,
        {(ONE, ZERO): QQ(k)},
        Window({"x": (ZERO, QQ(degree)), "z": (QQ(-degree), QQ(degree))}),
        k,
    )


def identity_runs():
    """(kind, r) for the suite's six identities: DF1 at three shifts."""
    for kind in DeltaIdentity:
        shifts = ((ZERO, HALF, -HALF) if kind is DeltaIdentity.DF1
                  else (ZERO,))
        for r in shifts:
            yield kind, r


def assert_rational_witnesses(result: ComparisonResult):
    # only a mismatch leaves the ints: its location is a tuple of QQ and
    # its values are QQ, as the old engine gave them
    for location, lhs, rhs in result.mismatches:
        assert all(type(e) is QQ_TYPE for e in location)
        assert type(lhs) is QQ_TYPE and type(rhs) is QQ_TYPE


@pytest.mark.parametrize("k", range(1, 7))
def test_delta_identities_match_the_old_bodies(k):
    for radius in (ZERO, QQ(1, 4), HALF, QQ(3, 2), QQ(5, 2)):
        cube = Window.cube(("x0", "x1", "x2"), -radius - 1, radius + 1)
        for kind, r in identity_runs():
            new = verify_delta_identity(kind, k, r, cube)
            assert new == old_verify_delta_identity(kind, k, r, cube), (
                kind, r, radius)
            assert new.passed


def rational_table(table: tuple, scale: int) -> dict:
    """A (den, {int key: numerator}) table on exponents and values."""
    den, nums = table
    return {tuple(QQ(x, scale) for x in key): QQ(c, den)
            for key, c in nums.items() if c}


@pytest.mark.parametrize("case", KERNEL_CASES, ids=range(len(KERNEL_CASES)))
def test_kernel_table_matches_the_old_body(case):
    top, second, bottom, window, shift, lattice_den, s_sign, b_sign = case
    options = dict(shift=shift, lattice_den=lattice_den, second_sign=s_sign,
                   bottom_sign=b_sign)
    old = old_merged_delta_kernel(top, second, bottom, window, **options)
    assert old
    # on any key scale the lattice fits: the shared denominator only
    # rescales the numerators
    fit = lattice_den * shift.denominator
    for scale in (fit, 2 * fit, 6 * fit):
        new = merged_delta_kernel(top, second, bottom, window, scale=scale,
                                  **options)
        assert rational_table(new, scale) == old, scale


def double_one_numerator(table: tuple) -> tuple:
    """The table with the numerator of its middle key doubled."""
    den, nums = table
    nums = dict(nums)
    key = sorted(nums)[len(nums) // 2]
    nums[key] *= 2
    return den, nums


def double_one_coefficient(table: dict) -> dict:
    table = dict(table)
    mono = sorted(table)[len(table) // 2]
    table[mono] *= 2
    return table


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_planted_numerator_gives_the_old_witnesses(monkeypatch, k):
    exact = formal.merged_delta_kernel
    monkeypatch.setattr(formal, "merged_delta_kernel",
                        lambda *a, **kw: double_one_numerator(exact(*a, **kw)))

    def planted_old(*args, **kwargs):
        return double_one_coefficient(old_merged_delta_kernel(*args, **kwargs))

    witnesses = 0
    for radius in (ZERO, HALF, QQ(3, 2)):
        cube = Window.cube(("x0", "x1", "x2"), -radius - 1, radius + 1)
        text = verify._window_str(cube)
        for kind, r in identity_runs():
            new = verify_delta_identity(kind, k, r, cube)
            old = old_verify_delta_identity(kind, k, r, cube, planted_old)
            assert new == old, (kind, r, radius)
            assert_rational_witnesses(new)
            assert (verify._wrap_comparison(new, k, text)
                    == verify._wrap_comparison(old, k, text))
            witnesses += len(new.mismatches)
    assert witnesses > 0


@pytest.mark.parametrize("radius", [ZERO, QQ(3, 2)])
def test_compare_series_reads_only_the_window(radius):
    # a kernel built on a wider window, planted (the coefficients of even
    # powers of x0 doubled), and compared on the narrower one: keys outside
    # are dropped, as the old engine skipped them
    wide = Window.cube(("x0", "x1", "x2"), -radius - 3, radius + 3)
    cube = Window.cube(("x0", "x1", "x2"), -radius - 1, radius + 1)
    for scale, shift in ((2, HALF), (6, QQ(1, 3))):
        table = merged_delta_kernel("x1", "x0", "x2", wide, scale=scale,
                                    shift=shift)
        planted = table[0], {key: c * (1 + (key[0] % (2 * scale) == 0))
                             for key, c in table[1].items()}
        new = compare_series("window", planted, table, cube, scale)
        old = old_compare_series("window", rational_table(planted, scale),
                                 rational_table(table, scale), cube, scale)
        assert new == old
        assert new.mismatches
        assert_rational_witnesses(new)


@pytest.mark.parametrize("k", range(1, 7))
def test_cover_map_matches_the_old_body(k):
    for degree in range(2, 9):
        assert check_f_composition(k, degree) == old_check_f_composition(
            k, degree), degree


@pytest.mark.parametrize("k", [2, 3])
def test_planted_cover_coefficient_gives_the_old_witnesses(monkeypatch, k):
    exact = deltak._inverse_cover_series

    def planted(k, degree):
        den, coeffs = exact(k, degree)
        coeffs[3] += den // 5
        return den, coeffs

    def planted_old(k, degree):
        coeffs = old_inverse_cover_series(k, degree)
        coeffs[3] += QQ(1, 5)
        return coeffs

    monkeypatch.setattr(deltak, "_inverse_cover_series", planted)
    new = check_f_composition(k, 6)
    assert new == old_check_f_composition(k, 6, planted_old)
    assert len(new.mismatches) > 1
    assert_rational_witnesses(new)
