"""Equivalence of the doubled-integer kernel and states with the Fraction code.

Oracles, copied below and run without a cache:

* the body of `iterate_mode_word` and `apply_phys_mode` as they were before
  the recursion moved to doubled-integer modes.  They work on `QQ` words
  and indices throughout, so they share no arithmetic with the kernel under
  test;
* the public `iterate_mode_word` as it was while words were `QQ` tuples: a
  wrapper that encoded its arguments, ran the kernel and decoded the result;
* `State` and `field_mode` as they were on `QQ` words, with the old word
  rendering, driven by the Fraction recursion.

The kernel must give the same (word, coefficient) pairs as the Fraction
recursion, with int words and exact int or `QQ` coefficients, and a mode of
a field must render to the same text in both representations, in both
sectors.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from twistfock import fermion
from twistfock.fermion import (
    State,
    field_mode,
    format_ns_word,
    format_ramond_word,
    ns_basis,
    ramond_basis,
)
from twistfock.scalars import (
    HALF,
    QQ,
    ZERO,
    binomial,
    rational_floor,
    scalar_is_zero,
)

QQ_TYPE = type(QQ(1))


def decode(word2) -> tuple:
    """The QQ word of a doubled word."""
    return tuple(QQ(m2, 2) for m2 in word2)


def encode(word) -> tuple:
    """The doubled word of a QQ word."""
    return tuple(int(2 * m) for m in word)


def word_level(word) -> QQ:
    return sum((-m for m in word), ZERO)


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

FIELD_WORDS = [decode(w) for w in ns_basis(3)]
TARGETS = {0: [decode(w) for w in ns_basis(3)],
           1: [decode(w) for w in ramond_basis(3)]}
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
        for a_word in [decode(w) for w in ns_basis(2)]:
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
    m = QQ(m2, 2)
    got = fermion.apply_phys_mode(encode(word), m, sector_half == 1)
    expected = apply_phys_mode(word, m, sector_half == 1)
    assert [(decode(w), c) for w, c in got] == expected
    assert all(type(c) is QQ_TYPE for _, c in got)


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
        assert new.render(format_ramond_word) == old.render("|R>")
    else:
        assert new.render(format_ns_word) == old.render("|0>")
