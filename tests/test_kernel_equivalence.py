"""Equivalence of the doubled-integer kernel and states with the Fraction code.

Oracles, copied below and run without a cache:

* the body of `iterate_mode_word` as it was before the recursion moved to
  doubled-integer modes, with the psi action `psi_oracle.apply_phys_mode`.
  They work on `QQ` words and indices throughout, so they share no
  arithmetic with the kernel under test;
* the public `iterate_mode_word` as it was while words were `QQ` tuples: a
  wrapper that encoded its arguments, ran the kernel and decoded the result;
* `State` and `field_mode` as they were on `QQ` words, with the old word
  rendering, driven by the Fraction recursion;
* the doubled-integer `iterate_mode_word` and `mode_sum` as they were
  before the one-mode and vacuum cases were put in closed form: both
  regular sums scan every i, and the vacuum's field is a recursion call;
  they add through `_accumulate` and `_rescale`, the two helpers that
  `fermion._add` replaced, copied below as they were;
* the doubled-integer `iterate_mode_word` as it was before a one-mode
  field word became one psi mode by the L(-1)-derivative property: each
  regular sum keeps one term, and the twisted correction recurses.  The
  closed form must match it on one-mode words of both sectors, and the
  same check run on a closed form without its lattice guard must fail.

The running-denominator sum `fermion._add` must equal a `Fraction` dict
sum on any sequence of additions, with int and cyclotomic numerators,
mixed denominators and sums that cancel; the same check run on an `_add`
that skips the rescale must fail.

The kernel must give the same (word, coefficient) pairs as the Fraction
recursion, with int words and exact int or `QQ` coefficients, and a mode of
a field must render to the same text in both representations, in both
sectors.
"""

import ast
from math import comb, factorial, gcd, lcm, prod
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from twistfock import fermion
from twistfock.fermion import (
    NS,
    OMEGA,
    PSI,
    R,
    VACUUM,
    State,
    _add,
    _apply2,
    _half_binomial,
    _lowest,
    field_mode,
    mode_sum,
)
from twistfock.scalars import (
    HALF,
    QQ,
    ZERO,
    CycScalar,
    binomial,
    integral_split,
    rational_floor,
    scalar_is_zero,
    scalar_ratio,
)

import psi_oracle
from psi_oracle import apply_phys_mode, decode, encode


def word_level(word) -> QQ:
    return sum((-m for m in word), ZERO)


# ---------------------------------------------------------------------------
# the Fraction recursion, verbatim, uncached
# ---------------------------------------------------------------------------


def _merge(table, addition, factor):
    for word, coeff in addition:
        new = table.get(word, ZERO) + coeff * factor
        if scalar_is_zero(new):
            table.pop(word, None)
        else:
            table[word] = new


def iterate_mode_word(a_word, mu, word, sector_half: int):
    """Mode `mu` (lattice index) of the field of `a_word`, on one word.

    `sector_half` is twice the sector shift: 0 acts on the untwisted module,
    1 on the parity-twisted one.  Returns a tuple of (word, coefficient)
    pairs; every sum below is finite because annihilation kills high modes
    and the graded pieces below the sector floor vanish.
    """
    mu = QQ(mu)
    s = QQ(sector_half, 2)
    ramond = sector_half == 1
    if not a_word:
        return ((word, QQ(1)),) if mu == -1 else ()
    m1 = a_word[0]
    rest = a_word[1:]
    n = m1 - HALF
    eps = QQ(-1) ** (len(rest) % 2)
    sign_n = QQ(-1) ** (int(n) % 2)
    rest_weight = word_level(rest)
    level = word_level(word)
    out: dict = {}

    # first regular sum: psi_{s+n-i} after (a')_{mu-s+i}
    i = 0
    while True:
        inner_index = mu - s + i
        if level + rest_weight - inner_index - 1 < 0:
            break  # below the sector floor for this and all larger i
        inner = iterate_mode_word(rest, inner_index, word, sector_half)
        factor = (QQ(-1) ** i) * binomial(n, i)
        psi_phys = s + n - i + HALF
        for mid_word, mid_coeff in inner:
            for out_word, c in apply_phys_mode(mid_word, psi_phys, ramond):
                _merge(out, ((out_word, c),), factor * mid_coeff)
        i += 1

    # second regular sum: (a')_{n+mu-s-i} after psi_{s+i}
    max_annihilator = -word[0] if word else None
    i = 0
    while True:
        psi_phys = s + i + HALF
        if max_annihilator is None or psi_phys > max_annihilator:
            break
        first = apply_phys_mode(word, psi_phys, ramond)
        if first:
            factor = (QQ(-1) ** i) * binomial(n, i) * (-eps) * sign_n
            inner_index = n + mu - s - i
            for mid_word, mid_coeff in first:
                inner = iterate_mode_word(rest, inner_index, mid_word, sector_half)
                _merge(out, inner, factor * mid_coeff)
        i += 1

    # twisted correction terms: strictly lower weight, same length
    if sector_half:
        bound = -m1 + (-(rest[0]) if rest else ZERO)
        for i in range(1, rational_floor(bound) + 1):
            for mid_word, mid_coeff in apply_phys_mode(rest, m1 + i, False):
                inner = iterate_mode_word(mid_word, mu - i, word, sector_half)
                _merge(out, inner, -binomial(s, i) * mid_coeff)

    return tuple(sorted(out.items(), key=lambda t: t[0]))


# ---------------------------------------------------------------------------
# the QQ-word wrapper and State, as they were
# ---------------------------------------------------------------------------


def kernel_output(a_word, mu, word, sector_half: int):
    """The kernel's raw result for QQ arguments: the arguments encoded once,
    and nothing off the half-integer lattice."""
    mu2 = 2 * QQ(mu)
    if mu2.denominator != 1:
        return 1, ()
    return fermion.iterate_mode_word(
        encode(a_word), int(mu2), encode(word), sector_half
    )


def wrapped_kernel(a_word, mu, word, sector_half: int):
    """The former public `iterate_mode_word` on QQ words: the kernel's
    numerators divided by its denominator, decoded and sorted."""
    den, result = kernel_output(a_word, mu, word, sector_half)
    return tuple((decode(w), QQ(c, den)) for w, c in sorted(result))


class FractionState:
    """`State` on QQ words as it was: sorted (word, coefficient) terms with
    no zero coefficient, rendered with the QQ modes printed by str."""

    def __init__(self, table):
        clean = {tuple(w): c for w, c in table.items() if not scalar_is_zero(c)}
        self.terms = tuple(sorted(clean.items(), key=lambda t: t[0]))

    def render(self, ket: str) -> str:
        if not self.terms:
            return "0"
        parts = []
        for word, coeff in self.terms:
            text = "".join(f"psi({m})" for m in word) + ket
            parts.append(f"({coeff})*{text}")
        return " + ".join(parts)


def fraction_field_mode(v, t, target, sector_half: int) -> FractionState:
    """`field_mode` as it was: the bilinear sum over word pairs in one dict,
    here over the Fraction recursion."""
    out: dict = {}
    for a_word, a_coeff in v.terms:
        for word, t_coeff in target.terms:
            _merge(out, iterate_mode_word(a_word, t, word, sector_half),
                   a_coeff * t_coeff)
    return FractionState(out)


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------

FIELD_WORDS = [decode(w) for w in NS.basis(3)]
TARGETS = {0: [decode(w) for w in NS.basis(3)],
           1: [decode(w) for w in R.basis(3)]}
HALF_LATTICE = [QQ(j, 2) for j in range(-12, 9)]
OFF_LATTICE = [QQ(1, 4), QQ(-3, 4), QQ(1, 3), QQ(-7, 6)]


def assert_exact_types(result):
    """Kernel output: int words and int numerators over a power of two,
    which is 1 in the untwisted sector."""
    den, pairs = result
    assert type(den) is int and den > 0 and den & (den - 1) == 0
    for word, num in pairs:
        assert type(num) is int and num != 0
        assert all(type(m) is int for m in word)


@st.composite
def recursion_inputs(draw):
    sector_half = draw(st.sampled_from([0, 1]))
    a_word = draw(st.sampled_from(FIELD_WORDS))
    word = draw(st.sampled_from(TARGETS[sector_half]))
    mu = draw(st.sampled_from(HALF_LATTICE) | st.sampled_from(OFF_LATTICE))
    return a_word, mu, word, sector_half


@given(recursion_inputs())
@settings(max_examples=300, deadline=None)
def test_kernel_matches_fraction_recursion(args):
    fermion.iterate_mode_word.cache_clear()
    assert wrapped_kernel(*args) == iterate_mode_word(*args)
    assert_exact_types(kernel_output(*args))


def test_weight_two_fields_on_every_index_and_target():
    """Exhaustive sweep on the conformal vector's word and its neighbours."""
    for sector_half, targets in TARGETS.items():
        for a_word in [decode(w) for w in NS.basis(2)]:
            for word in targets[:8]:
                for mu in HALF_LATTICE + OFF_LATTICE:
                    args = (a_word, mu, word, sector_half)
                    assert wrapped_kernel(*args) == iterate_mode_word(*args)
                    assert_exact_types(kernel_output(*args))


@given(
    sector_half=st.sampled_from([0, 1]),
    index=st.integers(min_value=0, max_value=40),
    m2=st.integers(min_value=-9, max_value=9),
)
@settings(max_examples=200, deadline=None)
def test_anticommutation_kernel_matches(sector_half, index, m2):
    word = TARGETS[sector_half][index % len(TARGETS[sector_half])]
    if (m2 % 2 == 0) != bool(sector_half):
        m2 += 1  # keep the mode on the sector's lattice
    got = _apply2(encode(word), m2)
    expected = apply_phys_mode(word, QQ(m2, 2), sector_half == 1)
    # the zero mode's coefficients come doubled
    assert [(decode(w), QQ(c, 1 if m2 else 2)) for w, c in got] == expected
    assert all(type(c) is int for _, c in got)


def test_psi_oracle_shares_no_code_with_the_kernel():
    """The oracle's psi action takes nothing from `twistfock.fermion` but
    `State` and the sectors that format words: never `_apply2`."""
    allowed = {"State", "NS", "R"}
    taken = set()
    for node in ast.walk(ast.parse(Path(psi_oracle.__file__).read_text())):
        if isinstance(node, ast.Import):
            assert all(alias.name != "twistfock.fermion" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if node.module == "twistfock.fermion":
                taken |= names
            elif node.module == "twistfock":
                assert "fermion" not in names
    assert taken <= allowed


def states_on(words):
    coefficients = st.builds(QQ, st.integers(-3, 3), st.integers(1, 4))
    return st.dictionaries(st.sampled_from(words), coefficients,
                           min_size=1, max_size=3)


@st.composite
def field_mode_inputs(draw):
    sector_half = draw(st.sampled_from([0, 1]))
    v = draw(states_on(FIELD_WORDS[:12]))
    target = draw(states_on(TARGETS[sector_half][:16]))
    # untwisted modes sit on integer indices, twisted ones on half-integers
    # too; a few indices off every lattice must give zero in both forms
    step = 1 + sector_half
    lattice = [QQ(j, step) for j in range(-4 * step, 2 * step)]
    t = draw(st.sampled_from(lattice) | st.sampled_from(OFF_LATTICE[:1]))
    return v, t, target, sector_half


@given(field_mode_inputs())
@settings(max_examples=200, deadline=None)
def test_both_sectors_render_equal_states(args):
    """A mode of a field renders to the same text from doubled words as
    from QQ words, in the untwisted and the parity-twisted sector."""
    v, t, target, sector_half = args
    old = fraction_field_mode(FractionState(v), t, FractionState(target),
                              sector_half)
    new = field_mode(State({encode(w): c for w, c in v.items()}), t,
                     State({encode(w): c for w, c in target.items()}),
                     sector_half)
    if sector_half:
        assert new.render(R) == old.render("|R>")
    else:
        assert new.render(NS) == old.render("|0>")


# ---------------------------------------------------------------------------
# the doubled-integer recursion before its closed forms, verbatim, uncached
# ---------------------------------------------------------------------------

_NOTHING = (1, ())


def _accumulate(table: dict, pairs, factor) -> None:
    """Add factor * num to table[word] for each (word, num) pair of
    integral numerators, dropping the entries that cancel to zero."""
    get = table.get
    for word, num in pairs:
        new = get(word, 0) + factor * num
        if new:
            table[word] = new
        else:
            table.pop(word, None)


def _rescale(table: dict, factor: int) -> None:
    """Multiply every numerator of a table by an int, in place: the table
    moves to a denominator `factor` times larger."""
    for word in table:
        table[word] *= factor


def scanning_recursion(a_word: tuple, mu2: int, word: tuple, sector_half: int) -> tuple:
    """`iterate_mode_word` as it was before its one-mode and vacuum closed
    forms: both regular sums scan every i up to the room left, and the
    vacuum's field is reached through the recursion."""
    if not a_word:
        return (1, ((word, 1),)) if mu2 == -2 else _NOTHING
    m1 = a_word[0]
    rest = a_word[1:]
    n = (m1 - 1) // 2
    out: dict = {}
    den = 1  # a power of two; an inner result's den divides it or is a multiple

    # first regular sum: psi_{s+n-i} after (a')_{mu-s+i}; `room` is twice
    # the level left above the sector floor, and drops by 2 per step
    room = -sum(word) - sum(rest) - mu2 + sector_half - 2
    d = 1
    i = 0
    while room >= 0:
        psi2 = sector_half + m1 - 2 * i
        inner_den, inner = scanning_recursion(
            rest, mu2 - sector_half + 2 * i, word, sector_half)
        if inner:
            if not psi2:  # the zero mode's coefficients come doubled
                inner_den *= 2
            if inner_den > den:
                _rescale(out, inner_den // den)
                den = inner_den
            factor = d * (den // inner_den)
            for mid_word, mid_num in inner:
                _accumulate(out, _apply2(mid_word, psi2), factor * mid_num)
        d = d * (i - n) // (i + 1)
        i += 1
        room -= 2

    # second regular sum: (a')_{n+mu-s-i} after psi_{s+i}; annihilators
    # above the word's largest creation mode kill it
    if word:
        sign = -1 if (len(rest) + n) & 1 == 0 else 1  # -eps (-1)^n
        top = -word[0]
        d = 1
        i = 0
        psi2 = sector_half + 1
        while psi2 <= top:
            for mid_word, mid_num in _apply2(word, psi2):
                inner_den, inner = scanning_recursion(
                    rest, m1 - 1 + mu2 - sector_half - 2 * i, mid_word, sector_half)
                if inner:
                    if inner_den > den:
                        _rescale(out, inner_den // den)
                        den = inner_den
                    _accumulate(out, inner, sign * d * mid_num * (den // inner_den))
            d = d * (i - n) // (i + 1)
            i += 1
            psi2 += 2

    # twisted correction terms: strictly lower weight, same length
    if sector_half:
        bound2 = -m1 - (rest[0] if rest else 0)
        for i in range(1, bound2 // 2 + 1):
            for mid_word, mid_num in _apply2(rest, m1 + 2 * i):
                inner_den, inner = scanning_recursion(mid_word, mu2 - 2 * i, word, sector_half)
                if inner:
                    b_num, b_den = integral_split(binomial(HALF, i))
                    inner_den *= b_den
                    if inner_den > den:
                        _rescale(out, inner_den // den)
                        den = inner_den
                    _accumulate(out, inner, -b_num * mid_num * (den // inner_den))

    if not out:
        return _NOTHING
    if den != 1:
        g = gcd(den, *out.values())
        if g != 1:
            den //= g
            out = {w: num // g for w, num in out.items()}
    return den, tuple(out.items())


def scanning_mode_sum(pieces, target: State, sector_half: int) -> State:
    """`mode_sum` as it was: a vacuum word of a field goes to the recursion
    like any other word."""
    out: dict = {}
    den = 1
    for v, mu2 in pieces:
        v_den = v.den
        for a_word, a_num in v.nums:
            for word, t_num in target.nums:
                inner_den, inner = scanning_recursion(a_word, mu2, word, sector_half)
                if inner:
                    part = v_den * inner_den
                    if den % part:
                        common = lcm(den, part)
                        _rescale(out, common // den)
                        den = common
                    _accumulate(out, inner, a_num * t_num * (den // part))
    return State._of_table(target.den * den, out)


def sorted_result(result) -> tuple:
    """(den, pairs) with the pairs sorted: the kernel's pairs are unsorted."""
    den, pairs = result
    return den, tuple(sorted(pairs))


SHORT_FIELD_WORDS = [w for w in NS.basis(3) if 1 <= len(w) <= 2]
DOUBLED_INDICES = range(-24, 17)
FIRST_TARGETS = {0: NS.basis(3)[:8], 1: R.basis(3)[:8]}


@pytest.mark.parametrize("sector_half", [0, 1])
@pytest.mark.parametrize("a_word", SHORT_FIELD_WORDS)
def test_closed_forms_match_the_scanning_recursion(a_word, sector_half):
    """Every one- and two-mode field word of level <= 3, on every doubled
    index of [-24, 16] and the first targets of the sector's basis, gives
    the same denominator and pairs as the recursion that scans every i."""
    assert {len(w) for w in SHORT_FIELD_WORDS} == {1, 2}
    fermion.iterate_mode_word.cache_clear()
    nonzero = 0
    for mu2 in DOUBLED_INDICES:
        for word in FIRST_TARGETS[sector_half]:
            args = (a_word, mu2, word, sector_half)
            expected = sorted_result(scanning_recursion(*args))
            assert sorted_result(fermion.iterate_mode_word(*args)) == expected, args
            nonzero += bool(expected[1])
    assert nonzero  # the sweep reaches nonzero modes


def _target_state(words) -> State:
    return State({w: QQ(j + 1, 2 + j % 3) for j, w in enumerate(words)})


@pytest.mark.parametrize("sector_half", [0, 1])
def test_vacuum_pieces_match_the_scanning_mode_sum(sector_half):
    """`mode_sum` on fields with a vacuum term, at the vacuum's index -2
    and off it, alone and beside other pieces."""
    target = _target_state(FIRST_TARGETS[sector_half])
    with_vacuum = OMEGA + VACUUM.scaled(QQ(-3, 4))
    for mu2 in range(-6, 5):
        for pieces in (((with_vacuum, mu2),),
                       ((with_vacuum, mu2), (PSI, mu2 - 1), (VACUUM, -2)),
                       ((VACUUM, mu2),)):
            got = mode_sum(pieces, target, sector_half)
            assert got == scanning_mode_sum(pieces, target, sector_half), (pieces, mu2)
    assert not mode_sum(((with_vacuum, -2),), target, sector_half).is_zero()


def test_no_empty_field_word_reaches_the_kernel(monkeypatch):
    """The vacuum's field is applied inline by every caller inside the
    package, so an empty field word never becomes a cache entry."""
    kernel = fermion.iterate_mode_word
    empty_calls = []
    calls = []

    def spy(a_word, mu2, word, sector_half):
        calls.append(a_word)
        if not a_word:
            empty_calls.append((mu2, word, sector_half))
        return kernel(a_word, mu2, word, sector_half)

    kernel.cache_clear()
    monkeypatch.setattr(fermion, "iterate_mode_word", spy)
    fields = (PSI, OMEGA, OMEGA + VACUUM)
    for sector_half, basis in ((0, NS.basis(2)), (1, R.basis(2))):
        target = _target_state(basis[:6])
        for j in range(-8, 5):
            for v in fields:
                field_mode(v, QQ(j, 2), target, sector_half)
    kernel.cache_clear()
    assert calls and empty_calls == []


# ---------------------------------------------------------------------------
# the doubled-integer recursion before its one-mode closed form, verbatim,
# uncached
# ---------------------------------------------------------------------------


def one_term_recursion(a_word: tuple, mu2: int, word: tuple, sector_half: int) -> tuple:
    """`iterate_mode_word` as it was before its one-mode closed form:
    on a one-mode word each regular sum keeps the one term that puts the
    vacuum's field at index -1, and the twisted correction recurses."""
    if not a_word:
        return (1, ((word, 1),)) if mu2 == -2 else _NOTHING
    m1 = a_word[0]
    rest = a_word[1:]
    n = (m1 - 1) // 2
    out: dict = {}
    den = 1  # a power of two: `_add` keeps the lcm of the inner results' dens

    if not rest:
        # first regular sum: (a')_{mu-s+i} is the identity at mu-s+i = -1;
        # the room left there is the target's level, never negative
        twice_i = sector_half - 2 - mu2
        if twice_i >= 0 and not twice_i & 1:
            i = twice_i // 2
            psi2 = sector_half + m1 - twice_i
            # the zero mode's coefficients come doubled
            den = _add(out, den, _apply2(word, psi2), comb(i - n - 1, i),
                       1 if psi2 else 2)
        # second regular sum: (a')_{n+mu-s-i} is the identity at
        # n+mu-s-i = -1; an annihilator missing from the word gives nothing
        twice_i = m1 + 1 + mu2 - sector_half
        if twice_i >= 0 and not twice_i & 1:
            i = twice_i // 2
            sign = 1 if n & 1 else -1  # -eps (-1)^n with eps = 1
            den = _add(out, den, _apply2(word, sector_half + 1 + twice_i),
                       sign * comb(i - n - 1, i))
    else:
        # first regular sum: psi_{s+n-i} after (a')_{mu-s+i}; `room` is twice
        # the level left above the sector floor, and drops by 2 per step
        room = -sum(word) - sum(rest) - mu2 + sector_half - 2
        d = 1
        i = 0
        while room >= 0:
            psi2 = sector_half + m1 - 2 * i
            inner_den, inner = one_term_recursion(
                rest, mu2 - sector_half + 2 * i, word, sector_half)
            if inner:
                if not psi2:  # the zero mode's coefficients come doubled
                    inner_den *= 2
                for mid_word, mid_num in inner:
                    den = _add(out, den, _apply2(mid_word, psi2), d * mid_num,
                               inner_den)
            d = d * (i - n) // (i + 1)
            i += 1
            room -= 2

        # second regular sum: (a')_{n+mu-s-i} after psi_{s+i}; annihilators
        # above the word's largest creation mode kill it
        if word:
            sign = -1 if (len(rest) + n) & 1 == 0 else 1  # -eps (-1)^n
            top = -word[0]
            d = 1
            i = 0
            psi2 = sector_half + 1
            while psi2 <= top:
                for mid_word, mid_num in _apply2(word, psi2):
                    inner_den, inner = one_term_recursion(
                        rest, m1 - 1 + mu2 - sector_half - 2 * i, mid_word, sector_half)
                    if inner:
                        den = _add(out, den, inner, sign * d * mid_num, inner_den)
                d = d * (i - n) // (i + 1)
                i += 1
                psi2 += 2

    # twisted correction terms: strictly lower weight
    if sector_half:
        bound2 = -m1 - (rest[0] if rest else 0)
        for i in range(1, bound2 // 2 + 1):
            b_num, b_den = _half_binomial(i)
            inner_mu2 = mu2 - 2 * i
            for mid_word, mid_num in _apply2(rest, m1 + 2 * i):
                if mid_word:
                    inner_den, inner = one_term_recursion(
                        mid_word, inner_mu2, word, sector_half)
                    if not inner:
                        continue
                elif inner_mu2 == -2:  # the vacuum's field, inline
                    inner_den, inner = 1, ((word, 1),)
                else:
                    continue
                den = _add(out, den, inner, -b_num * mid_num, inner_den * b_den)

    if not out:
        return _NOTHING
    if den != 1:
        den, out = _lowest(den, out)
    return den, tuple(out.items())


ONE_MODE_TARGETS = {0: NS.basis(5), 1: R.basis(5)}


@st.composite
def one_mode_inputs(draw):
    sector_half = draw(st.sampled_from([0, 1]))
    m1 = -1 - 2 * draw(st.integers(0, 10))
    mu2 = draw(st.integers(-40, 24))
    word = draw(st.sampled_from(ONE_MODE_TARGETS[sector_half]))
    return (m1,), mu2, word, sector_half


def one_mode_matches(kernel):
    """The property test of a one-mode kernel: on every one-mode field word
    of level <= 21/2, doubled index in [-40, 24] and target of level <= 5,
    in both sectors, it gives the same denominator and pairs as the
    recursion that keeps one term per regular sum."""

    @given(one_mode_inputs())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def check(args):
        expected = sorted_result(one_term_recursion(*args))
        assert sorted_result(kernel(*args)) == expected, args

    return check


test_one_mode_closed_form_matches = one_mode_matches(fermion.iterate_mode_word)


def unguarded_closed_form(a_word, mu2, word, sector_half):
    """The one-mode closed form without its lattice guard: psi2 off the
    sector's psi lattice is applied as if it were a mode."""
    (m1,) = a_word
    psi2 = mu2 + m1 + 2
    n1 = (-1 - m1) // 2
    x = -3 - m1 - mu2
    num = prod(range(x, x - 2 * n1, -2))
    pairs = _apply2(word, psi2)
    if not num or not pairs:
        return _NOTHING
    ((new_word, c),) = pairs
    den = (factorial(n1) << n1) * (1 if psi2 else 2)
    g = gcd(c * num, den)
    return den // g, ((new_word, c * num // g),)


def test_closed_form_without_the_lattice_guard_fails():
    with pytest.raises(AssertionError):
        one_mode_matches(unguarded_closed_form)()


@pytest.mark.parametrize("args", [((-5,), -3, (-2, 0), 1), ((-9,), 3, (), 1)])
def test_cold_one_mode_call_adds_one_cache_entry(args):
    """A one-mode field word makes no recursive call: a cold call caches
    itself alone (the one-term recursion added 3 and 5 entries here)."""
    kernel = fermion.iterate_mode_word
    kernel.cache_clear()
    assert kernel(*args)[1]
    assert kernel.cache_info().currsize == 1


# ---------------------------------------------------------------------------
# the running-denominator sum against a Fraction dict sum
# ---------------------------------------------------------------------------

# integral numerators: ints and elements of Z[i], conductor 4
NUMERATORS = st.one_of(
    st.integers(-3, 3),
    st.builds(lambda a, b: CycScalar(4, (a, b)), st.integers(-3, 3),
              st.integers(-3, 3)),
)


@st.composite
def additions(draw):
    """A sequence of (pairs, n, d) additions over a few keys; some are
    followed later by their negation, so sums cancel to zero."""
    steps = draw(st.lists(st.tuples(
        st.lists(st.tuples(st.sampled_from("abcd"), NUMERATORS), max_size=4),
        st.integers(-4, 4).filter(bool),
        st.sampled_from([1, 2, 3, 4, 6, 9, 12]),
    ), min_size=1, max_size=8))
    undone = [(pairs, -n, d) for pairs, n, d in steps if draw(st.booleans())]
    return steps + draw(st.permutations(undone))


def add_matches_fraction_sums(add, phases=tuple(Phase)):
    """The property test of a running-denominator sum ``add``: after any
    sequence of additions its table over its denominator is the Fraction
    dict sum, with no zero entry and the lcm of the parts' d as
    denominator.  ``phases`` are Hypothesis's phases of the run: a sum
    that is expected to fail need not have its failure shrunk."""

    @given(additions())
    @settings(max_examples=200, deadline=None, derandomize=True,
              phases=phases)
    def check(steps):
        table, den, expected, every_d = {}, 1, {}, 1
        for pairs, n, d in steps:
            den = add(table, den, pairs, n, d)
            every_d = lcm(every_d, d)
            for key, num in pairs:
                expected[key] = expected.get(key, ZERO) + num * QQ(n, d)
        expected = {key: value for key, value in expected.items()
                    if not scalar_is_zero(value)}
        assert type(den) is int and den == every_d
        assert not any(scalar_is_zero(num) for num in table.values())
        assert {key: scalar_ratio(num, den) for key, num in table.items()} == expected

    return check


test_add_matches_fraction_sums = add_matches_fraction_sums(_add)


def test_add_that_skips_the_rescale_fails():
    def unscaled_add(table, den, pairs, n, d=1):
        common = lcm(den, d)
        _accumulate(table, pairs, n * (common // d))
        return common

    with pytest.raises(AssertionError):
        add_matches_fraction_sums(
            unscaled_add, phases=(Phase.explicit, Phase.generate))()
