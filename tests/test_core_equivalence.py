"""Equivalence of the one-pass exact core with the code it replaced.

Oracles, copied below as they were before the core was made one-pass and
run without a cache:

* the triangular `solve_aj`, which re-expands exp(-D) x from scratch for
  every coefficient (with its own copy of the derivation expansion);
* `vertex_mode` / `sigma_vertex_mode` as a composition of `map_words`,
  `+` and `scaled`, those three written out as they were: build a dict,
  then the validating public constructor `State(table)`, on every step;
* `CycScalar` sums, differences, negation and rational scaling through the
  validating public constructor;
* the inverse-map cross-check `_exp_derivation_on_x` as it was: a dense
  derivation pass, then a separate pass dividing every entry by m;
* the unbounded coordinate-change loop, which applies L(j) for every j up
  to the table depth, at the old depth ceil(p) * k + 2.

The new code must give equal values; fast-built states must also satisfy
the `State` invariant (sorted by word, no zero coefficient) and be equal
and hash-equal to the same state built by `State(dict)`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistfock import deltak
from twistfock.deltak import (
    FORWARD,
    INVERSE,
    DeltaOp,
    apply_delta,
    delta_op,
    solve_aj,
)
from twistfock.fermion import (
    State,
    combine,
    field_mode,
    iterate_mode_word,
    ns_basis,
    ramond_basis,
    vertex_mode,
    virasoro,
    word_level,
)
from twistfock.ramond import sigma_vertex_mode
from twistfock.scalars import (
    ONE,
    QQ,
    ZERO,
    CycScalar,
    binomial,
    cyc_sqrt_k,
    k_to_the,
    rational_ceil,
    scalar_is_zero,
)

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
    out = [State({word: ONE}) for word in ns_basis(4)]
    by_level = {}
    for word in ns_basis(5):
        by_level.setdefault(word_level(word), []).append(word)
    for group in by_level.values():
        if len(group) > 1:
            out.append(State({group[0]: QQ(2), group[-1]: QQ(-1, 3)}))
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
def test_level_bound_matches_unbounded_loop(k, monkeypatch):
    for u in homogeneous_states():
        p = u.homogeneous_level()
        old_depth = rational_ceil(p) * k + 2
        for direction in (FORWARD, INVERSE):
            bounded = apply_delta(delta_op(k, direction, cutoff=p), u)
            with monkeypatch.context() as patch:
                patch.setattr(deltak, "_exp_virasoro", unbounded_exp_virasoro)
                expected = apply_delta(DeltaOp(k, old_depth, direction), u)
            assert bounded == expected, (k, u.render(), direction)


def test_virasoro_vanishes_above_the_level():
    for word in ns_basis(5):
        level = word_level(word)
        for j in range(int(level) + 1, 8):
            assert virasoro(QQ(j), State({word: ONE})).is_zero(), (word, j)


# ---------------------------------------------------------------------------
# the State compositions, as they were
# ---------------------------------------------------------------------------


def old_add(a: State, b: State) -> State:
    out = a.table()
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


def old_field_mode(v: State, t, target: State, sector_half: int) -> State:
    t = QQ(t)
    out = State({})
    for a_word, a_coeff in v.terms:
        contribution = old_map_words(
            target, lambda word, a=a_word: iterate_mode_word(a, t, word, sector_half)
        )
        out = old_add(out, old_scaled(contribution, a_coeff))
    return out


def assert_invariant(s: State):
    words = [word for word, _ in s.terms]
    assert words == sorted(words)
    assert len(set(words)) == len(words)
    assert not any(scalar_is_zero(c) for _, c in s.terms)
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


FIELD_WORDS = ns_basis(2)
TARGET_WORDS = {0: ns_basis(2), 1: ramond_basis(2)}
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


ALL_WORDS = ns_basis(2)


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
