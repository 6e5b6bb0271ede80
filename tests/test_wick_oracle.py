"""Two-mode fields of the parity-twisted sector by Wick's theorem: an oracle
for the mode recursion that shares none of its code.

The Ramond two-point function is <psi(x)psi(y)> = (x + y)/(2 sqrt(xy)(x - y)).
Its regular part against 1/(x - y) is y^{-1} g(t), with t = x/y - 1 and
g_n = C(-1/2, n + 1) + C(-1/2, n)/2.  So, for a > b >= 0,

    Y_R(psi_{-1/2-a} psi_{-1/2-b}|0>, y)
        = :d^a psi/a! d^b psi/b!:(y) + c_ab y^{-a-b-1},
    c_ab = sum_{n=a}^{a+b} g_n C(n, a) (-1)^{n-a} C(-n-1, b-n+a),

with the twisted field psi(y) = sum_r psi_r y^{-r-1/2} over integer r and
the normal ordering :psi_r psi_s: = psi_r psi_s - theta(r) delta_{r+s,0},
theta = 1, 1/2, 0 for r >, =, < 0.  The constant c_10 = 1/8 gives the
conformal vector its Ramond 1/16.

The generator's modes come from `psi_oracle.ramond_mode` and the binomials
from `binom` below, so neither the recursion's psi action nor its
binomials are reached.  The recursion must match the formula for every
a <= 4, every word of the twisted basis of level <= 3 and every integer
mode in [-8, 8]; the same check run with a wrong C(1/2, i) in the twisted
correction must fail.
"""

from fractions import Fraction

from twistfock import fermion
from twistfock.fermion import R, State, combine
from twistfock.scalars import integral_split

from psi_oracle import ramond_mode

HALF = Fraction(1, 2)
WORDS = R.basis(3)
MODES = range(-8, 9)


def binom(x, j: int) -> Fraction:
    """C(x, j) for a rational x and an int j >= 0."""
    out = Fraction(1)
    for i in range(j):
        out = out * (x - i) / (i + 1)
    return out


def g(n: int) -> Fraction:
    return binom(-HALF, n + 1) + binom(-HALF, n) / 2


def wick_constant(a: int, b: int) -> Fraction:
    return sum((g(n) * binom(n, a) * (-1) ** (n - a) * binom(-n - 1, b - n + a)
                for n in range(a, a + b + 1)), Fraction(0))


def wick_mode(a: int, b: int, mu: int, word: tuple) -> State:
    """Mode mu of Y_R(psi_{-1/2-a} psi_{-1/2-b}|0>, y) on one twisted word.

    The mode of d^a psi/a! at psi_r is C(-r-1/2, a), so the normal-ordered
    product at mode mu pairs psi_r with psi_s, r + s = mu - a - b.  With L
    the word's level, a pair with r > L or s > L annihilates the word, so r
    runs over [mu - a - b - L, L]."""
    s = State({word: 1})
    level = -sum(word) // 2
    total = mu - a - b
    terms = []
    for r in range(total - level, level + 1):
        coeff = binom(-r - HALF, a) * binom(r - total - HALF, b)
        if coeff:
            terms.append((ramond_mode(r, ramond_mode(total - r, s)), coeff))
            if total == 0 and r >= 0:
                terms.append((s, -coeff if r else -coeff / 2))
    if mu == a + b:
        terms.append((s, wick_constant(a, b)))
    return combine(terms)


def kernel_mode(a: int, b: int, mu: int, word: tuple) -> State:
    den, pairs = fermion.iterate_mode_word(
        (-1 - 2 * a, -1 - 2 * b), 2 * mu, word, 1)
    return State({w: Fraction(num, den) for w, num in pairs})


def mismatches() -> tuple:
    """(mismatched cases, nonzero cases) over the sweep."""
    bad, nonzero = [], 0
    for a in range(1, 5):
        for b in range(a):
            for word in WORDS:
                for mu in MODES:
                    expected = wick_mode(a, b, mu, word)
                    if kernel_mode(a, b, mu, word) != expected:
                        bad.append((a, b, mu, word))
                    nonzero += not expected.is_zero()
    return bad, nonzero


def test_wick_constant_of_the_conformal_vector():
    assert wick_constant(1, 0) == Fraction(1, 8)


def test_two_mode_fields_match_wick():
    fermion.iterate_mode_word.cache_clear()
    bad, nonzero = mismatches()
    assert bad == []
    assert len(WORDS) == 10 and nonzero == 1426


def test_wrong_twisted_correction_binomial_fails(monkeypatch):
    # C(-1/2, i) in place of C(1/2, i)
    monkeypatch.setattr(fermion, "_half_binomial",
                        lambda i: integral_split(binom(-HALF, i)))
    fermion.iterate_mode_word.cache_clear()
    try:
        bad, _ = mismatches()
    finally:
        fermion.iterate_mode_word.cache_clear()
    assert bad
