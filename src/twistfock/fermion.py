"""The one-free-fermion vertex operator superalgebra, truncated exactly.

The space V is spanned by words of distinct negative half-integer creation
modes applied to a vacuum; the generating field obeys canonical
anticommutation relations {psi_m, psi_n} = delta_{m+n,0}.  Vertex operators
of descendant vectors are never expanded by hand: every mode is produced by
the residue-extraction recursion (`iterate_mode_word`), which also covers the
parity-twisted (Ramond) sector through its half-integer lattice shift.  All
coefficients are exact.

Coefficients are integers over one denominator: a `State` holds a positive
int denominator and an integral numerator per word, in lowest terms, and
the recursion returns int numerators over a power of two.  So the sums and
products of the hot path are int arithmetic, with one gcd per result
instead of one per operation.  Every running sum, here and in `deltak`,
adds each part with `_add`, which moves the table to the lcm of the two
denominators, and `_lowest` takes the one gcd.  `Fraction` (and
`CycScalar`, for the rare cyclotomic coefficient, as a numerator with int
coordinates) appears only where coefficients enter or leave:
`State(table)`, ``terms``, ``coefficient`` and ``render``.

Words are doubled-integer throughout: a mode m is stored as the int 2m and a
word as the tuple of those ints, so psi_{-3/2} psi_{-1/2}|0> is the word
(-3, -1) and psi_{-1} psi_0|R> is (-2, 0).  Doubling is increasing, so
doubled words sort as the modes do.  `State` terms, the bases and the
recursion all use this one form; physical modes appear only at the text
boundary, where a `Sector` (`NS` on |0>, `R` on |R>) encodes a word of
modes with ``check_word`` and prints one with ``format_word``.  Lattice
indices and levels stay exact rationals in the public functions.

A sum of modes of descendant fields, each at its own index, on a state of
either sector is `mode_sum`: it sums the recursion's numerators over every
field and every pair of words of the field's vector and of the target in
one dict and builds one `State`.  A single mode, `field_mode`, is its
one-piece call; `Sector.mode` is that on one sector, and the sector's
Virasoro modes, ground weight and L(0) spectrum are read from it, one body
for both (`vertex_mode` and `virasoro` are `NS.mode` and `NS.virasoro`).
A twisted field's mode (`twist._ModeField.image`) is one `mode_sum` over
its plan, in the sector the field names.  Every other linear combination
of states goes through `combine`, which sums scalar * state over all its
pairs in one dict, over the lcm of their denominators, and reduces and
sorts once, instead of after every `+`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache
from math import factorial, gcd, lcm, prod
from operator import itemgetter

from .formal import QSeries
from .scalars import (
    HALF,
    QQ,
    ZERO,
    binomial,
    integral_split,
    rational_floor,
    scalar_content,
    scalar_is_zero,
    scalar_ratio,
    scalar_str,
)

# ---------------------------------------------------------------------------
# words: ordered mode tuples applied to a highest-weight vector
# ---------------------------------------------------------------------------


def word_level(word) -> QQ:
    """Sum of -mode over the word: the grading above the sector's floor."""
    return QQ(-sum(word), 2)


def word_parity(word) -> int:
    return len(word) % 2


def _mode_str(m2: int) -> str:
    """The physical mode m2/2 as exact text: -3/2, -1, 0."""
    return f"{m2}/2" if m2 & 1 else str(m2 // 2)


class Sector(namedtuple("Sector", "half ket")):
    """One of the fermion's two modules: the untwisted (NS) module on |0>,
    or the parity-twisted (Ramond) module on |R>.  ``half`` is twice the
    sector shift, the int `iterate_mode_word` takes (0 or 1), and ``ket``
    the text of the highest-weight vector.  A sector reads, prints and
    enumerates its own words, and holds its module's modes, Virasoro
    modes, ground weight and L(0) spectrum; `NS` and `R` are its two
    instances."""

    __slots__ = ()

    @property
    def level_den(self) -> int:
        """d of the level lattice (1/d)Z, where the sector's creation modes
        lie too: 2 on |0>, 1 on |R>."""
        return 2 - self.half

    def check_word(self, modes) -> tuple:
        """The doubled word of a word of physical modes: strictly ascending
        creation modes, <= -1/2 in Z + 1/2 on |0> and <= 0 in Z on |R>.

        A mode is an int or a `Fraction`, whose numerator n and denominator
        d are in lowest terms, so the tests run on those ints with no
        `Fraction` arithmetic: the lattice test asks for d = 2 on |0> and
        d = 1 on |R>, and the creation and ascending tests run on the
        doubled mode 2n // d.  Mode text is built only for an error."""
        den = self.level_den
        word = []
        for m in modes:
            if m.denominator != den:
                lattice = "Z" if self.half else "Z + 1/2"
                raise ValueError(f"mode {QQ(m)} is not in {lattice}")
            m2 = 2 * m.numerator // den
            if m2 > self.half - 1:
                raise ValueError(f"mode {QQ(m)} is not a creation mode")
            word.append(m2)
        if any(a >= b for a, b in zip(word, word[1:])):
            text = ", ".join(map(_mode_str, word))
            raise ValueError(f"word ({text}) is not strictly ascending")
        return tuple(word)

    def format_word(self, word) -> str:
        return "".join(f"psi({_mode_str(m2)})" for m2 in word) + self.ket

    def basis(self, max_level) -> list:
        """All doubled words of level <= max_level, sorted by (level,
        word); empty below level 0.  Every level is a multiple of 1/2, so
        twice the level bound may be floored."""
        words = []

        def build(prefix, next2, budget2):
            words.append(tuple(reversed(prefix)))
            m2 = next2
            while -m2 <= budget2:
                build(prefix + [m2], m2 - 2, budget2 + m2)
                m2 -= 2

        budget2 = rational_floor(2 * QQ(max_level))
        if budget2 >= 0:
            build([], self.half - 1, budget2)  # the largest creation mode
        return sorted(words, key=lambda w: (-sum(w), w))

    def mode(self, v: State, t, target: State) -> State:
        """Lattice mode t of the field of v, an untwisted state, on a state
        of the sector.  The field is sum_t v_t x^{-t-1}, so the generator's
        mode t is the physical mode t + 1/2; on |R> the nonzero modes of an
        odd v sit on t in 1/2 + Z and those of an even v on t in Z."""
        return field_mode(v, t, target, self.half)

    def virasoro(self, n, s: State) -> State:
        """L(n): lattice mode n+1 of the conformal vector's field."""
        return self.mode(OMEGA, QQ(n) + 1, s)

    def ground_weight(self) -> QQ:
        """The L(0) eigenvalue on the highest-weight vector, computed
        exactly: the mode recursion applied to the conformal vector gives
        0 on |0> and 1/16 on |R>, derived output, not an input constant."""
        # the highest-weight vector is the empty word, the vacuum's word
        image = self.virasoro(0, VACUUM)
        value = image.coefficient(())
        if image != VACUUM.scaled(value):
            raise AssertionError("L(0) is not scalar on the ground vector")
        return value

    def spectrum(self, cutoff) -> QSeries:
        """Graded dimension of the module up to a weight cutoff, on the
        ground weight plus the level lattice: L(0) is diagonalized on the
        truncated basis (the recursion shows it is already diagonal there)
        and dimensions are counted per eigenvalue."""
        den = self.level_den
        step = QQ(1, den)
        base = self.ground_weight()
        top = rational_floor((QQ(cutoff) - base) * den)
        counts = [0] * (top + 1)  # empty below the ground weight
        for w in self.basis(top * step):
            s = State._of(1, ((w, 1),))
            image = self.virasoro(0, s)
            value = image.coefficient(w)
            if image != s.scaled(value):
                raise AssertionError(f"L(0) is not diagonal at word {w}")
            slot = (value - base) * den
            if slot.denominator != 1 or slot < 0:
                raise AssertionError(f"eigenvalue {value} is off the expected lattice")
            if slot <= top:
                counts[int(slot)] += 1
        return QSeries(base, tuple(counts), step)


NS = Sector(0, "|0>")
R = Sector(1, "|R>")


# ---------------------------------------------------------------------------
# states: exact linear combinations of words
# ---------------------------------------------------------------------------

_word_of = itemgetter(0)


def _require_doubled(word: tuple) -> tuple:
    """The word, once its entries are checked to be doubled-int modes: a
    rational mode is refused, never read."""
    for m in word:
        if type(m) is not int:
            raise TypeError(f"word entry {m!r} is not a doubled-int mode; "
                            "encode modes with NS.check_word/R.check_word")
    return word


def _add(table: dict, den: int, pairs, n, d: int = 1) -> int:
    """Add (n/d) * num to table[key] for each (key, num) pair, where the
    table holds integral numerators over ``den``; returns its new
    denominator lcm(den, d), to which it is first rescaled.  ``n`` is an
    integral numerator (see `integral_split`), ``d`` a positive int; a key
    whose sum cancels to zero is dropped."""
    if den % d:
        common = lcm(den, d)
        factor = common // den
        for key in table:
            table[key] *= factor
        den = common
    n *= den // d
    get = table.get
    for key, num in pairs:
        new = get(key, 0) + n * num
        if new:
            table[key] = new
        else:
            table.pop(key, None)
    return den


def _content(den: int, nums) -> int:
    """gcd of a denominator and the coordinates of every numerator."""
    try:
        return gcd(den, *nums)
    except TypeError:  # a cyclotomic numerator
        return gcd(den, *map(scalar_content, nums))


def _lowest(den: int, table: dict) -> tuple:
    """(den, table) of a numerator table in lowest terms: both divided by
    the gcd of the denominator and every numerator's coordinates."""
    g = _content(den, table.values())
    if g == 1:
        return den, table
    return den // g, {key: num // g for key, num in table.items()}


def _level2(state: State) -> int:
    """Twice the level of a nonzero homogeneous state, an int, read from
    its first word."""
    return -sum(state.nums[0][0])


class State:
    """A finite linear combination of doubled words with exact coefficients.

    A state is one denominator ``den``, a positive int, and ``nums``, a
    tuple of (word, numerator) pairs sorted by word, with distinct words
    and no zero numerator; the coefficient of a word is its numerator over
    ``den``.  A numerator is an int, or a `CycScalar` with integer
    coordinates for the rare cyclotomic coefficient.  The form is in
    lowest terms: no prime divides ``den`` and every numerator's
    coordinates.  So two states are equal exactly when their denominators
    and numerators are, and results built inside the package (`_of`,
    `_of_table`) rely on the invariant instead of re-validating.  The
    public constructor `State(table)` validates any mapping, or copies a
    state; ``terms`` and ``coefficient`` give the coefficients as scalars.
    """

    __slots__ = ("den", "nums")

    def __init__(self, table):
        if isinstance(table, State):
            den, nums = table.den, table.nums
        else:
            parts = {}
            for word, coeff in dict(table).items():
                if not scalar_is_zero(coeff):
                    parts[_require_doubled(tuple(word))] = integral_split(coeff)
            # each part is in lowest terms, so over the lcm the whole is too
            den = lcm(*[d for _, d in parts.values()])
            nums = tuple(sorted(
                [(word, n * (den // d)) for word, (n, d) in parts.items()],
                key=_word_of))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)

    def __setattr__(self, name, value):
        raise AttributeError("State is immutable")

    @classmethod
    def _of(cls, den: int, nums: tuple) -> "State":
        """A state from a denominator and numerators that already satisfy
        the invariant."""
        self = object.__new__(cls)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)
        return self

    @classmethod
    def _of_table(cls, den: int, table: dict) -> "State":
        """A state from a dict of words to nonzero integral numerators over
        ``den``: one sort orders it, `_of_terms` reduces it."""
        if not table:
            return ZERO_STATE
        return cls._of_terms(den, sorted(table.items(), key=_word_of))

    @classmethod
    def _of_terms(cls, den: int, nums: list) -> "State":
        """A state from sorted (word, nonzero integral numerator) pairs over
        ``den``, brought to lowest terms by one gcd over all of them: a
        product of cyclotomic numerators can gain content, so no shortcut
        over the factors' contents is taken."""
        if den != 1:
            g = _content(den, [num for _, num in nums])
            if g != 1:
                den //= g
                nums = [(word, num // g) for word, num in nums]
        return cls._of(den, tuple(nums))

    @property
    def terms(self) -> tuple:
        """The (word, coefficient) pairs, sorted by word, with the
        coefficients as scalars."""
        den = self.den
        return tuple([(word, scalar_ratio(num, den)) for word, num in self.nums])

    def __add__(self, other: "State") -> "State":
        return combine(((self, 1), (other, 1)))

    def __sub__(self, other: "State") -> "State":
        return combine(((self, 1), (other, -1)))

    def __neg__(self) -> "State":
        return State._of(self.den, tuple([(word, -num) for word, num in self.nums]))

    def scaled(self, scalar) -> "State":
        """scalar times the state; the word order is kept, and a nonzero
        scalar times a nonzero coefficient is nonzero in a field."""
        if scalar_is_zero(scalar) or not self.nums:
            return ZERO_STATE
        n, d = integral_split(scalar)
        return State._of_terms(self.den * d,
                               [(word, n * num) for word, num in self.nums])

    def is_zero(self) -> bool:
        return not self.nums

    def coefficient(self, word):
        """The coefficient of a doubled word."""
        num = dict(self.nums).get(tuple(word))
        return ZERO if num is None else scalar_ratio(num, self.den)

    def __eq__(self, other):
        if not isinstance(other, State):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, self.nums))

    def __repr__(self):
        return f"State({dict(self.terms)!r})"

    def homogeneous_level(self):
        """The common word level, or raise if the state is mixed."""
        sums = {sum(w) for w, _ in self.nums}
        if len(sums) > 1:
            levels = ", ".join(str(QQ(-s, 2)) for s in sorted(sums, reverse=True))
            raise ValueError(f"state is not homogeneous: levels {levels}")
        return QQ(-sums.pop(), 2) if sums else None

    def homogeneous_parity(self):
        parities = {word_parity(w) for w, _ in self.nums}
        if len(parities) > 1:
            raise ValueError("state is not parity-homogeneous")
        return parities.pop() if parities else None

    def render(self, sector=NS) -> str:
        if not self.nums:
            return "0"
        den = self.den
        parts = []
        for word, num in self.nums:
            if type(num) is int:
                g = gcd(num, den)
                text = str(num // g) if g == den else f"{num // g}/{den // g}"
            else:
                text = scalar_str(scalar_ratio(num, den))
            parts.append(f"({text})*{sector.format_word(word)}")
        return " + ".join(parts)


def combine(pairs) -> State:
    """The linear combination sum of scalar * state over (state, scalar)
    pairs: the numerators are summed by `_add` in one dict over the lcm of
    the denominators seen so far, then reduced and sorted once."""
    out: dict = {}
    den = 1
    for state, scalar in pairs:
        n, d = integral_split(scalar)
        den = _add(out, den, state.nums, n, state.den * d)
    return State._of_table(den, out)


ZERO_STATE = State._of(1, ())
VACUUM = State({(): QQ(1)})
PSI = State({(-1,): QQ(1)})  # psi_{-1/2} |0>
#: conformal vector: (1/2) psi_{-3/2} psi_{-1/2} |0>, central charge 1/2
OMEGA = State({(-3, -1): HALF})
CENTRAL_CHARGE = HALF


# ---------------------------------------------------------------------------
# the canonical anticommutation kernel
# ---------------------------------------------------------------------------

def _apply2(word: tuple, m2: int) -> tuple:
    """psi_{m2/2} on one ascending doubled word; a tuple of (word, int).

    Annihilation (m2 > 0) contracts against the matching creation mode with
    the sign of the anticommutations passed; creation (m2 < 0) inserts in
    order, vanishing on a repeated mode.  The coefficients are +-1.  The
    twisted-sector zero mode squares to 1/2, so its coefficients are given
    doubled: +-1 for the contraction (+-1/2), +-2 for the insertion.
    """
    if m2 > 0:
        if -m2 not in word:
            return ()
        i = word.index(-m2)
        return ((word[:i] + word[i + 1 :], -1 if i & 1 else 1),)
    if m2 == 0:  # only reachable in the twisted sector
        if word and word[-1] == 0:
            return ((word[:-1], -1 if len(word) & 1 == 0 else 1),)
        return ((word + (0,), -2 if len(word) & 1 else 2),)
    if m2 in word:
        return ()
    i = bisect_left(word, m2)
    return ((word[:i] + (m2,) + word[i:], -1 if i & 1 else 1),)


# ---------------------------------------------------------------------------
# the iterate recursion: modes of descendant fields in either sector
# ---------------------------------------------------------------------------
#
# For a = psi_{m1} a' the coefficient extraction of the (possibly twisted)
# Jacobi identity gives, with n = m1 - 1/2, s the sector shift (0 untwisted,
# 1/2 parity-twisted), and eps the parity sign (-1)^{|a'|}:
#
#   (psi_n a')_mu = sum_{i>=0} (-1)^i C(n,i) [ psi_{s+n-i} (a')_{mu-s+i}
#                     - eps (-1)^n (a')_{n+mu-s-i} psi_{s+i} ]
#                 - sum_{i>=1} C(s,i) (psi_{n+i} a')_{mu-i}
#
# where field subscripts are lattice indices (physical mode = index + 1/2)
# and the final sum re-enters the recursion on strictly lower word weight.
#
# `iterate_mode_word` evaluates this on doubled integers: every mode, word,
# index and the shift s enter as twice their value.  The field's word a is
# untwisted, so m1 lies in Z + 1/2 and n = m1 - 1/2 is an integer; then
# (-1)^i C(n,i) = C(i-n-1, i) is an integer too, built by the exact integer
# step d_{i+1} = d_i (i-n)/(i+1).  Only the binomials of half-integers and
# the zero mode's 1/2 are not integers.  Every index shift above is a
# multiple of 1/2 and the recursion ends at mu = -1, so an index off the
# half-integer lattice gives zero at once.
#
# A one-mode word psi_{-1/2-n'}|0> is L(-1)^{n'}|psi>/n'!, and a twisted
# module keeps the L(-1)-derivative property (H. Li 1996), so its field is
# the n'-th derivative of the generator's over n'! and its mode mu is one
# psi mode, C(n'-mu-1, n') psi_{mu+1/2-n'}: no recursion.  Where the field
# word itself is empty (the twisted correction on a two-mode word, a
# vacuum piece in `mode_sum`) the caller applies the identity inline, so
# an empty field word never becomes a cache entry.


_NOTHING = (1, ())


@lru_cache(maxsize=None)
def _half_binomial(i: int) -> tuple:
    """C(1/2, i) of the twisted correction as an int (numerator,
    denominator) pair; the denominator is a power of two."""
    return integral_split(binomial(HALF, i))


@lru_cache(maxsize=None)
def iterate_mode_word(a_word: tuple, mu2: int, word: tuple, sector_half: int) -> tuple:
    """Mode mu2/2 (a lattice index) of the field of `a_word`, on one word.

    Words are doubled and so is the index.  `sector_half` is twice the
    sector shift: 0 acts on the untwisted module, 1 on the parity-twisted
    one.  Returns (den, pairs): ``pairs`` is an unsorted tuple of (word,
    int numerator) pairs, each coefficient being its numerator over
    ``den``, a power of two that is 1 in the untwisted sector (the zero
    mode's 1/2 and the binomials of half-integers are the only fractions).
    Every sum of the recursion is finite because annihilation kills high
    modes and the graded pieces below the sector floor vanish.

    A one-mode field word (m1,) is in closed form: with n' = (-1 - m1)/2,
    x = -3 - m1 - mu2 and psi2 = mu2 + m1 + 2, its mode is C(x/2, n') times
    psi_{psi2/2}, zero where psi2 is off the sector's psi lattice; the
    binomial is prod_{j<n'} (x - 2j) over 2^n' n'!, all ints.  The empty
    field word is the identity at mu2 = -2; the recursion and
    `mode_sum` apply it inline and never ask for it.
    """
    if not a_word:
        return (1, ((word, 1),)) if mu2 == -2 else _NOTHING
    m1 = a_word[0]
    rest = a_word[1:]
    if not rest:
        psi2 = mu2 + m1 + 2
        if not (psi2 + sector_half) & 1:  # off the sector's psi lattice
            return _NOTHING
        n1 = (-1 - m1) // 2
        x = -3 - m1 - mu2
        num = prod(range(x, x - 2 * n1, -2))
        pairs = _apply2(word, psi2)
        if not num or not pairs:
            return _NOTHING
        ((new_word, c),) = pairs
        # the zero mode's coefficients come doubled
        den = (factorial(n1) << n1) * (1 if psi2 else 2)
        g = gcd(c * num, den)
        return den // g, ((new_word, c * num // g),)
    n = (m1 - 1) // 2
    out: dict = {}
    den = 1  # a power of two: `_add` keeps the lcm of the inner results' dens

    # first regular sum: psi_{s+n-i} after (a')_{mu-s+i}; `room` is twice
    # the level left above the sector floor, and drops by 2 per step
    room = -sum(word) - sum(rest) - mu2 + sector_half - 2
    d = 1
    i = 0
    while room >= 0:
        psi2 = sector_half + m1 - 2 * i
        inner_den, inner = iterate_mode_word(
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
                inner_den, inner = iterate_mode_word(
                    rest, m1 - 1 + mu2 - sector_half - 2 * i, mid_word, sector_half)
                if inner:
                    den = _add(out, den, inner, sign * d * mid_num, inner_den)
            d = d * (i - n) // (i + 1)
            i += 1
            psi2 += 2

    # twisted correction terms: strictly lower weight
    if sector_half:
        bound2 = -m1 - rest[0]
        for i in range(1, bound2 // 2 + 1):
            b_num, b_den = _half_binomial(i)
            inner_mu2 = mu2 - 2 * i
            for mid_word, mid_num in _apply2(rest, m1 + 2 * i):
                if mid_word:
                    inner_den, inner = iterate_mode_word(
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


def mode_sum(pieces, target: State, sector_half: int) -> State:
    """The sum over (v, mu2) pieces of the mode mu2/2 of the field of v on
    a state of either sector.

    `sector_half` is as in `iterate_mode_word`, and each index mu2 is a
    doubled lattice index, an int.  Each mode is bilinear in its v and the
    target: every pair of their words contributes v_num * t_num times the
    recursion's numerators, all of them summed by `_add` in one dict over
    the lcm of the pieces' denominators times the recursion's powers of
    two, and one `State` is built at the end.  A vacuum word of v is the identity field,
    applied inline at mu2 = -2 and skipped at every other index.
    """
    out: dict = {}
    den = 1
    for v, mu2 in pieces:
        v_den = v.den
        for a_word, a_num in v.nums:
            if not a_word and mu2 != -2:
                continue
            for word, t_num in target.nums:
                if a_word:
                    inner_den, inner = iterate_mode_word(a_word, mu2, word, sector_half)
                    if not inner:
                        continue
                else:
                    inner_den, inner = 1, ((word, 1),)
                den = _add(out, den, inner, a_num * t_num, v_den * inner_den)
    return State._of_table(target.den * den, out)


def field_mode(v: State, t, target: State, sector_half: int) -> State:
    """Lattice mode t of the field of v on a state of either sector.

    `sector_half` is as in `iterate_mode_word`.  The index is doubled
    once; off the half-integer lattice the mode is zero.  On it, the mode
    is `mode_sum` of the one piece (v, 2t).
    """
    den = t.denominator
    if den > 2:
        return ZERO_STATE
    return mode_sum(((v, t.numerator * (2 // den)),), target, sector_half)


vertex_mode = NS.mode
virasoro = NS.virasoro
