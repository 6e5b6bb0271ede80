"""Equivalence of the doubled-integer recursion with the Fraction recursion.

Oracle: the body of `iterate_mode_word` and `apply_phys_mode` as they were
before the recursion moved to doubled-integer modes, copied verbatim below
and run without a cache.  It works on `QQ` words and indices throughout, so
it shares no arithmetic with the kernel under test.  Both must give the same
sorted tuple of (word, coefficient) pairs, and every coefficient must be a
`QQ` value, never a bare int, so that the kernel hands its callers the
same types as the Fraction recursion.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from twistfock import fermion
from twistfock.fermion import ns_basis, ramond_basis, word_level
from twistfock.scalars import (
    HALF,
    QQ,
    ZERO,
    binomial,
    rational_floor,
    scalar_is_zero,
)

QQ_TYPE = type(QQ(1))


# ---------------------------------------------------------------------------
# the Fraction recursion, verbatim, uncached
# ---------------------------------------------------------------------------


def apply_phys_mode(word, m, ramond: bool):
    """psi_m applied to one ordered word; returns [(word, rational)].

    Annihilation (m > 0) contracts against a matching creation mode with the
    sign of the anticommutations passed; creation (m < 0) inserts in order,
    vanishing on a repeated mode; the twisted-sector zero mode squares to 1/2.
    """
    m = QQ(m)
    if ramond:
        if m.denominator != 1:
            raise ValueError(f"twisted-sector mode {m} must be an integer")
    elif (2 * m).denominator != 1 or (2 * m).numerator % 2 == 0:
        raise ValueError(f"untwisted-sector mode {m} must be in Z + 1/2")
    if m > 0:
        for i, entry in enumerate(word):
            if entry + m == 0:
                reduced = word[:i] + word[i + 1 :]
                return [(reduced, QQ(-1) ** i)]
        return []
    if m == 0:  # only reachable in the twisted sector
        if word and word[-1] == 0:
            return [(word[:-1], HALF * QQ(-1) ** (len(word) - 1))]
        return [(word + (ZERO,), QQ(-1) ** len(word))]
    if m in word:
        return []
    position = sum(1 for entry in word if entry < m)
    inserted = tuple(sorted(word + (m,)))
    return [(inserted, QQ(-1) ** position)]


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
# the comparison
# ---------------------------------------------------------------------------

FIELD_WORDS = ns_basis(3)
TARGETS = {0: ns_basis(3), 1: ramond_basis(3)}
HALF_LATTICE = [QQ(j, 2) for j in range(-12, 9)]
OFF_LATTICE = [QQ(1, 4), QQ(-3, 4), QQ(1, 3), QQ(-7, 6)]


def assert_exact_types(result):
    for word, coeff in result:
        assert type(coeff) is QQ_TYPE
        assert all(type(m) is QQ_TYPE for m in word)


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
    got = fermion.iterate_mode_word(*args)
    assert got == iterate_mode_word(*args)
    assert_exact_types(got)


def test_weight_two_fields_on_every_index_and_target():
    """Exhaustive sweep on the conformal vector's word and its neighbours."""
    for sector_half, targets in TARGETS.items():
        for a_word in ns_basis(2):
            for word in targets[:8]:
                for mu in HALF_LATTICE + OFF_LATTICE:
                    got = fermion.iterate_mode_word(a_word, mu, word, sector_half)
                    assert got == iterate_mode_word(a_word, mu, word, sector_half)
                    assert_exact_types(got)


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
    m = QQ(m2, 2)
    got = fermion.apply_phys_mode(word, m, sector_half == 1)
    assert got == apply_phys_mode(word, m, sector_half == 1)
    assert_exact_types(got)
