"""The graded coordinate-change operator for k-fold covers.

This module builds the exponential-of-Virasoro-derivations operator that
moves free-fermion states between a base coordinate and a k-th-root cover
coordinate.  It provides:

* the coefficient table of the generating derivation, solved exactly from
  the cover map ((1+x)^k - 1)/k and cross-checked against the compositional
  inverse (1+kx)^{1/k} - 1, both on ints over one denominator per degree
  or per series term;
* the check that the cover map undoes its compositional inverse, on the
  exact coefficients of one power series in t = x z^{-1/k};
* forward and inverse application of the operator to homogeneous states,
  producing finite graded expansions with exact scalar prefactors
  (half-integer weights land in a real quadratic subfield of a cyclotomic
  field); this and the cross-check's exp(+D) x are one exponential series,
  `_exp_series`.  The operator is linear: each basis word's expansion is
  built once per process, and a state's is read from its words';
* coefficientwise verification of the conjugation identity relating a
  conjugated vertex operator to the vertex operator of a transformed state
  in a shifted coordinate, and of the two derivative identities tying the
  operator to the translation generator.  Both sides of the conjugation
  identity are int numerators over one denominator: the conjugated side
  reads the operator's cached per-word pieces directly, and the shifted
  coordinate's powers come from a root table built on ints.

Every running sum here is `fermion._add`, and `fermion._lowest` reduces it.

Everything is exact; nothing is floating point.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb, factorial, gcd, lcm

from .scalars import (
    QQ,
    ZERO,
    ONE,
    binomial,
    integral_split,
    k_to_the,
    rational_ceil,
    rational_floor,
    rationalized,
    require_order,
)
from .formal import (
    ComparisonResult,
    Window,
    compare_numerators,
    compare_series,
)
from .fermion import (
    NS,
    State,
    ZERO_STATE,
    _add,
    _level2,
    _lowest,
    combine,
    iterate_mode_word,
    vertex_mode,
    virasoro,
    word_level,
)


# ---------------------------------------------------------------------------
# the derivation coefficient table
# ---------------------------------------------------------------------------


# Deepest coefficient table any caller may ask for.  The solve holds a
# (J+1) x (J+2) array of int numerators that grow with J and costs O(J^3)
# int operations: depth 128 takes about 0.4 s on a 2-core host (a state of
# weight 255/2, which reads it, about 1.2 s in all), and a depth of a
# million would exhaust memory before any check ran.
MAX_TABLE_DEPTH = 128


def _require_depth(depth: int) -> None:
    """Refuse a table depth outside 1..MAX_TABLE_DEPTH, before any work."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if depth > MAX_TABLE_DEPTH:
        raise ValueError(
            f"table depth {depth} exceeds the ceiling {MAX_TABLE_DEPTH}"
        )


# Deepest z0-expansion the conjugation check may run at.  Its cost grows
# steeply with the depth (the operator is applied to states of weight up to
# the depth): on a 2-core host the k = 3 obstruction suite takes about
# 0.15 s at the default depth 4, 0.2 s at depth 8 and 0.4 s at depth 12
# (wall time with start-up), and, measured in process past the ceiling,
# 0.9 s at depth 16 and 2.3 s at depth 20.
MAX_CONJUGATION_DEPTH = 12


def require_conjugation_depth(depth: int) -> None:
    """Refuse a conjugation depth outside 1..MAX_CONJUGATION_DEPTH, before
    any work."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if depth > MAX_CONJUGATION_DEPTH:
        raise ValueError(
            f"conjugation depth {depth} exceeds the ceiling {MAX_CONJUGATION_DEPTH}"
        )


def covering_depth(weight) -> int:
    """The table depth the coordinate change reads on a state of this weight.

    On a state of weight p only L(1)..L(floor(p)) act nonzero, so only
    a_1..a_floor(p) are ever read; depth ceil(p) (at least 1) suffices,
    whatever k.  A deeper table has this one as a prefix, so any larger
    depth gives the same results.
    """
    return max(1, rational_ceil(QQ(weight)))


class AjTable(namedtuple("AjTable", "k depth values")):
    """Coefficients a_1..a_J of the derivation D = sum_j a_j x^{j+1} d/dx
    chosen so that exp(-D) x = ((1+x)^k - 1)/k exactly through degree J+1."""

    __slots__ = ()

    def __new__(cls, k: int, depth: int, values: tuple):
        require_order(k)
        _require_depth(depth)
        if len(values) != depth:
            raise ValueError("coefficient count does not match depth")
        return super().__new__(cls, k, depth, values)

    def a(self, j: int):
        """The j-th coefficient, 1-indexed."""
        if not 1 <= j <= self.depth:
            raise ValueError(f"index {j} outside table of depth {self.depth}")
        return self.values[j - 1]

    def rows(self):
        """CSV-facing rows (j, a_j)."""
        return [(j, self.values[j - 1]) for j in range(1, self.depth + 1)]


def _exp_series(seed: dict, den: int, derive, scale: int) -> tuple:
    """(den, {key: numerator}) of the exponential series sum_{m>=0} T_m,
    with T_0 the table ``seed`` over ``den`` and T_m = derive(T_{m-1}) /
    (scale m): ``derive`` maps a term's numerators to the next term's
    nonzero ones before that division, and ends the series with an empty
    table.  Each term is one table over the previous denominator times
    scale·m, reduced by `_lowest`; the terms are summed by `_add`."""
    total_den, totals = den, dict(seed)
    term, m = seed, 0
    while True:
        m += 1
        term = derive(term)
        if not term:
            return total_den, totals
        den, term = _lowest(den * scale * m, term)
        total_den = _add(totals, total_den, term.items(), 1, den)


def _int_row(values, sign: int) -> tuple:
    """(D, [(j, sign·A_j)]) for a_j = values[j - 1] = A_j / D over the lcm
    D of their denominators, the zero a_j left out."""
    D = lcm(*[a.denominator for a in values])
    return D, [(j, sign * a.numerator * (D // a.denominator))
               for j, a in enumerate(values, start=1) if a]


def _exp_derivation_on_x(values, sign: int, top: int):
    """exp(sign * D) applied to the polynomial x, truncated to degree top.

    The m-th term is (sign/m) D of the previous one, and D sends x^i to
    sum_j a_j i x^{i+j}.  The a_j are ints A_j over their lcm D, so this is
    `_exp_series` on degree -> numerator tables with scale D; only the
    returned coefficients are `QQ`.  Each application of D raises the
    minimal degree by at least one, so the exponential series terminates
    after at most ``top`` applications.
    """
    if top < 1:
        return [ZERO] * (top + 1)
    D, coeffs = _int_row(values, sign)

    def derive(term: dict) -> dict:
        out = {}
        for i, c in term.items():
            _add(out, 1, [(i + j, A) for j, A in coeffs if i + j <= top], i * c)
        return out

    den, totals = _exp_series({1: 1}, 1, derive, D)
    total = [ZERO] * (top + 1)
    for d, c in totals.items():
        total[d] = QQ(c, den)
    return total


@lru_cache(maxsize=None)
def solve_aj(k: int, J: int) -> AjTable:
    """Solve for the derivation coefficients a_1..a_J in one pass over degree.

    exp(-D) x is the sum of the terms T_m = (-D)^m x / m!, where T_0 = x and
    T_m = -(1/m) D T_{m-1}.  D raises degree by at least one, so T_m starts
    at degree m+1, and the degree-n coefficient of T_m (m >= 2) needs only
    a_1..a_{n-m} and lower-degree coefficients of T_{m-1}.  The coefficient
    a_{n-1} enters degree n only through T_1[n] = -a_{n-1}; matching the
    degree-n coefficient of ((1+x)^k - 1)/k therefore gives
    a_{n-1} = sum_{m>=2} T_m[n] - C(k, n)/k.  Filling the terms column by
    column in n = 2..J+1 costs O(J^3).

    The pass runs on ints: every degree-n value (each T_m[n], and a_{n-1})
    is an int over one denominator ``dens[n]``.  Column n is first summed
    over a common multiple of its products' and its 1/m's denominators,
    then reduced by the gcd of the whole column, so ``dens[n]`` is the lcm
    of the column's denominators in lowest terms; only the finished a_j
    become `QQ`.

    The finished table is cross-checked against the independent expansion
    exp(+D) x = (1+kx)^{1/k} - 1 through degree J+1, computed by
    `_exp_derivation_on_x`, which shares no code with the pass above.
    """
    require_order(k)
    _require_depth(J)
    top = J + 1
    a = [0] * (J + 1)  # a[j] over dens[j + 1], for j = 1..J; a[0] unused
    # terms[m][n]: the numerator of the degree-n coefficient of T_m, over
    # dens[n], for m = 0..top-1
    terms = [[0] * (top + 1) for _ in range(top)]
    terms[0][1] = 1
    dens = [1] * (top + 1)
    for n in range(2, top + 1):
        # a_j T_{m-1}[n-j] (n-j) over dens[j+1] dens[n-j], for j <= n-2
        parts = [dens[j + 1] * dens[n - j] for j in range(1, n - 1)]
        L = lcm(*parts)
        weights = [a[j] * (n - j) * (L // part)
                   for j, part in enumerate(parts, start=1)]
        M = L * lcm(k, *range(2, n))  # a multiple of m L (m < n) and of k
        column = [0] * n  # column[m] = T_m[n] over M, for m = 2..n-1
        total = 0
        for m in range(2, n):
            prev = terms[m - 1]
            acc = 0
            for j in range(1, n - m + 1):
                acc += weights[j - 1] * prev[n - j]
            if acc:
                value = -acc * (M // (m * L))
                column[m] = value
                total += value
        a_n = total - comb(k, n) * (M // k)
        g = gcd(M, a_n, *column)
        dens[n] = M // g
        a[n - 1] = a_n // g
        terms[1][n] = -a[n - 1]
        for m in range(2, n):
            terms[m][n] = column[m] // g
    values = tuple([QQ(a[j], dens[j + 1]) for j in range(1, J + 1)])

    forward = _exp_derivation_on_x(values, +1, J + 1)
    den, inverse = _inverse_cover_series(k, J + 1)
    for m, oracle in enumerate(inverse):
        if forward[m] * den != oracle:
            raise ArithmeticError(
                f"coefficient table failed the inverse-map cross-check at "
                f"degree {m}: {forward[m]} != {QQ(oracle, den)}"
            )
    return AjTable(k, J, values)


# ---------------------------------------------------------------------------
# the cover map and its compositional inverse
# ---------------------------------------------------------------------------


def _inverse_cover_series(k: int, degree: int) -> tuple:
    """(den, [c_0, ..., c_degree]): the coefficients, in t = x z^{-1/k}, of
    the compositional inverse (1 + k t)^{1/k} - 1 of the cover map, as int
    numerators over den = degree!.  c_m = C(1/k, m) k^m =
    prod_{j<m} (1 - jk) / m!, built along m."""
    den = factorial(degree)
    coeffs, term = [0], den
    for m in range(degree):
        term = term * (1 - m * k) // (m + 1)
        coeffs.append(term)
    return den, coeffs


def check_f_composition(k: int, degree: int = 10) -> ComparisonResult:
    """Verify that the cover map undoes its compositional inverse.

    In t = x z^{-1/k} the cover map is ((1 + t)^k - 1)/k, so the identity
    is (1 + sum_{m>=1} C(1/k, m) k^m t^m)^k - 1 = k t.  Both sides are
    expanded through t^degree, t^m is read as the (x, z) monomial
    (m, (1 - m)/k) (the cover map's factor z^{1/k} times t^m), and every
    point of the (1/k)-lattice with x in [0, degree], z in [-degree, degree]
    is compared, exact equality.  The power runs on int numerators over
    den^k, den the inverse series' denominator, and its table is keyed on
    the int indices (m k, 1 - m) at scale k, as `compare_series` reads it.
    """
    require_order(k)
    den, shifted = _inverse_cover_series(k, degree)
    shifted[0] = den
    power = [1] + [0] * degree
    for _ in range(k):
        power = [sum(power[j] * shifted[m - j] for j in range(m + 1))
                 for m in range(degree + 1)]
    composed = {(m * k, 1 - m): power[m] for m in range(1, degree + 1)}
    return compare_series(
        f"cover-map-composition[k={k},degree={degree}]",
        (den ** k, composed),
        (1, {(k, 0): k}),
        Window({"x": (ZERO, QQ(degree)), "z": (QQ(-degree), QQ(degree))}),
        k,
    )


# ---------------------------------------------------------------------------
# the operator on states
# ---------------------------------------------------------------------------


FORWARD = "forward"
INVERSE = "inverse"


class DeltaExpansion(
        namedtuple("DeltaExpansion", "k direction weight prefactor pieces")):
    """A finite graded expansion: prefactor * sum_j state_j * x^{exponent_j}.

    The prefactor is k^{-weight} (forward) or k^{+weight} (inverse); for
    half-integer weights it is an exact square root in a cyclotomic field.
    The per-piece states carry all remaining rational scalars.
    """

    __slots__ = ()


# The conformal vector is one half of this doubled word, so L(j) is one half
# of the recursion's mode 2j + 2 of its field.
_OMEGA_WORD = (-3, -1)


def _exp_virasoro(u: State, table: AjTable, sign: int) -> dict:
    """exp(sign * sum_j a_j L(j)) applied to u, graded by total weight drop.

    L(j) sends level q to q - j and the NS module has no negative levels, so
    on the piece at drop d (level p - d, p the weight of u) only
    j <= floor(p) - d acts; higher j are never applied, so ``table`` needs
    depth at least floor(p).  Each positive Virasoro mode strictly lowers
    the grade, so the series terminates once the drop exceeds the weight
    of u.

    The series is `_exp_series` on tables (drop, word) -> numerator.  The
    a_j are ints A_j over their lcm D, and L(j) on a word is read from the
    untwisted recursion's int numerators, so the scale is 2D (the
    conformal vector's 1/2 and the lcm); only the sum per drop becomes a
    `State`.
    """
    top = rational_floor(u.homogeneous_level())
    values = [table.a(j) for j in range(1, top + 1)]
    D, coeffs = _int_row(values, sign)

    def derive(term: dict) -> dict:
        out = {}
        for (drop, word), num in term.items():
            for j, A in coeffs:
                if j > top - drop:
                    break
                # the untwisted recursion's denominator is 1
                _, pairs = iterate_mode_word(_OMEGA_WORD, 2 * j + 2, word, NS.half)
                _add(out, 1, [((drop + j, w), c) for w, c in pairs], A * num)
        return out

    den, totals = _exp_series({(0, word): num for word, num in u.nums}, u.den,
                              derive, 2 * D)
    by_drop = {}
    for (drop, word), num in totals.items():
        by_drop.setdefault(drop, {})[word] = num
    return {d: State._of_table(den, words) for d, words in by_drop.items()}


@lru_cache(maxsize=None)
def _word_drops(k: int, direction: str, word: tuple) -> tuple:
    """The (drop, state) pieces of the operator on one basis word, cached:
    exp(±sum_j a_j L(j)) of the word, graded by weight drop, with no
    exponent and no power of k attached.  `_word_expansion` builds the
    word's expansion on them, and the conjugation check reads them as they
    are.

    The a_j table has depth ``covering_depth`` of the word's weight, the
    most the word reads; a_j does not depend on the depth of the table it
    is read from.  A word of weight above ``MAX_TABLE_DEPTH`` is refused by
    `solve_aj` and leaves no entry.
    """
    table = solve_aj(k, covering_depth(word_level(word)))
    sign = 1 if direction == FORWARD else -1
    drops = _exp_virasoro(State._of(1, ((word, 1),)), table, sign)
    return tuple(sorted(drops.items()))


@lru_cache(maxsize=None)
def _word_expansion(k: int, direction: str, word: tuple) -> DeltaExpansion:
    """The operator on one basis word, as its finished expansion, cached.

    The piece at drop j of `_word_drops` lies at the exponent
    p/k - p - j/k (forward) or p - p/k - j (inverse), p the word's weight,
    so the pieces come in order of decreasing exponent; the inverse
    direction's rational factor k^{-j} is folded into its piece's state.
    The prefactor is k^{-p} (forward) or k^{+p} (inverse).  A word that
    `_word_drops` refuses leaves no entry here either.
    """
    p = word_level(word)
    drops = _word_drops(k, direction, word)
    if direction == FORWARD:
        lead = p / k - p
        pieces = [(lead - QQ(j, k), state) for j, state in drops]
        prefactor = k_to_the(k, -p)
    else:
        lead = p - p / k
        pieces = [(lead - j, state.scaled(QQ(1, k ** j))) for j, state in drops]
        prefactor = k_to_the(k, p)
    return DeltaExpansion(k, direction, p, prefactor, tuple(pieces))


def apply_delta(k: int, u: State, direction: str = FORWARD) -> DeltaExpansion:
    """Apply the coordinate-change operator of order k to a homogeneous state.

    Forward direction: pieces of weight p-j at exponents p/k - p - j/k with
    a common prefactor k^{-p}.  Inverse direction: pieces at exponents
    p - p/k - j with prefactor k^{+p} (the rational part k^{-j} is folded
    into the piece states).  The operator is linear, so the expansion is
    the cached per-word expansions (`_word_expansion`) weighted by the
    numerators of u over ``u.den``: a basis word with coefficient 1 is its
    cached expansion as it is, and any other state sums its words' pieces
    per exponent and leaves out the pieces that cancel.
    """
    require_order(k)
    if direction not in (FORWARD, INVERSE):
        raise ValueError(
            f"direction must be '{FORWARD}' or '{INVERSE}', got {direction!r}"
        )
    if u.is_zero():
        return DeltaExpansion(k, direction, ZERO, ONE, ())
    if u.den == 1 and len(u.nums) == 1:
        (word, num), = u.nums
        if type(num) is int and num == 1:
            return _word_expansion(k, direction, word)
    p = u.homogeneous_level()
    # per exponent, the numerators of u times the word pieces, over u.den
    tables, dens = {}, {}
    for word, num in u.nums:
        expansion = _word_expansion(k, direction, word)
        for exponent, state in expansion.pieces:
            dens[exponent] = _add(tables.setdefault(exponent, {}),
                                  dens.get(exponent, 1), state.nums, num,
                                  state.den * u.den)
    pieces = [(exponent, State._of_table(dens[exponent], table))
              for exponent, table in tables.items() if table]
    pieces.sort(key=lambda item: -item[0])
    return DeltaExpansion(k, direction, p, expansion.prefactor, tuple(pieces))


def round_trip_defect(k: int, u: State) -> State:
    """forward then inverse, minus the identity, on one homogeneous state.

    Returns the accumulated defect state (zero when the two directions are
    exact mutual inverses); the mixed-weight intermediate pieces are pushed
    through one by one and recombined at total exponent zero.
    """
    if u.is_zero():
        return ZERO_STATE
    fwd = apply_delta(k, u, FORWARD)
    by_exponent = {}
    for e_f, piece in fwd.pieces:
        inv = apply_delta(k, piece, INVERSE)
        scalar = rationalized(fwd.prefactor * inv.prefactor)
        for e_i, back in inv.pieces:
            by_exponent.setdefault(e_f + e_i, []).append((back, scalar))
    pairs = [(combine(group), ONE) for group in by_exponent.values()]
    if 0 in by_exponent:
        pairs.append((u, -ONE))
    return combine(pairs)


# ---------------------------------------------------------------------------
# the conjugation identity
# ---------------------------------------------------------------------------


class _RootPowers:
    """Coefficients of ((1+y)^{1/k} - 1)^e for integer e, exact and windowed.

    ((1+y)^{1/k} - 1)^e = (y/k)^e (1+h)^e with the unit part
    h = sum_{n>=1} k C(1/k, n+1) y^n.  (1+h)^e is expanded through y^degree
    by J.C.P. Miller's recurrence, b_0 = 1 and
        n b_n = sum_{i=1}^{n} ((e+1) i - n) h_i b_{n-i},
    once per exponent e, on first use.  The recurrence runs on ints: with
    h_i = hn_i / H over the lcm H of their denominators and
    b_n = B_n / (n! H^n), it reads
        B_n = sum_{i=1}^{n} ((e+1) i - n) hn_i B_{n-i} (n-1)!/(n-i)! H^{i-1},
    and only the finished coefficients k^{-e} B_n / (n! H^n) become `QQ`.
    So the coefficient of y^n is exact for n <= e + degree and zero below
    y^e; any other coefficient is unknown, and asking for it raises.
    """

    def __init__(self, k: int, degree: int):
        self.k = k
        self.degree = degree
        unit = [k * binomial(QQ(1, k), n + 1) for n in range(1, degree + 1)]
        H = lcm(*[h.denominator for h in unit])
        self._unit = H, [0] + [h.numerator * (H // h.denominator) for h in unit]
        self._tables = {}

    def _power(self, e: int) -> list:
        H, h = self._unit
        B = [1]
        for n in range(1, self.degree + 1):
            acc = 0
            weight = 1  # (n-1)!/(n-i)! H^{i-1}
            for i in range(1, n + 1):
                if h[i]:
                    acc += ((e + 1) * i - n) * h[i] * B[n - i] * weight
                weight *= (n - i) * H
            B.append(acc)
        k_num, k_den = (1, self.k ** e) if e >= 0 else (self.k ** -e, 1)
        out = []
        den = k_den
        for n, c in enumerate(B):
            if n:
                den *= n * H
            out.append(QQ(k_num * c, den))
        return out

    def coefficient(self, e: int, n: int):
        """The coefficient of y^n in ((1+y)^{1/k} - 1)^e."""
        if n < e:
            return ZERO
        if n - e > self.degree:
            raise ValueError(
                f"coefficient of y^{n} in the power {e} lies outside the "
                f"exact range y^{e}..y^{e + self.degree}"
            )
        table = self._tables.get(e)
        if table is None:
            table = self._tables[e] = self._power(e)
        return table[n - e]


def _root_degree(weight, depth_z0: int) -> int:
    """Unit-part degree the shifted-coordinate side reads for states of
    total weight <= weight: y^n with n <= depth_z0 at powers
    e >= -floor(weight)."""
    return depth_z0 + rational_floor(QQ(weight))


def _conjugation_lhs(k: int, u: State, v: State, depth_z0: int) -> tuple:
    """Conjugated side: operator, then vertex modes, then inverse operator.

    Returns (den, {(word, 2k·z-exponent, z0-exponent): numerator}) in
    lowest terms, keyed on ints, with every z0-exponent <= depth_z0
    included exactly; each value is k^{-p_u} times numerator/den.

    The side reads the cached per-word pieces of the operator directly,
    so it builds no expansion per image.  The piece of a word of v at
    inverse drop j (weight w = p_v - j) lies at the z-exponent
    p_v - p_v/k - j, with the rational factor k^{-j}; the piece of an image
    word of weight q at forward drop i adds q/k - q - i/k.  A key holds 2k
    times the sum, an int.  The factor k^{p_v - q} of an image of weight
    q = p_u + w - t - 1 is k^{-p_u} times k^{j + t + 1}, so with the k^{-j}
    of the inverse piece each image carries the int power k^{t+1}, and the
    common k^{-p_u} is left out.
    """
    u2 = _level2(u)
    v2 = _level2(v)
    table, den = {}, 1
    for v_word, v_num in v.nums:
        for j, piece in _word_drops(k, INVERSE, v_word):
            w2 = v2 - 2 * j
            z_j = (k - 1) * v2 - 2 * k * j
            for t in range(-depth_z0 - 1, (u2 + w2) // 2):
                image = vertex_mode(u, t, piece)
                if not image.nums:
                    continue
                d = v.den * image.den
                if t >= -1:
                    n = v_num * k ** (t + 1)
                else:
                    n, d = v_num, d * k ** (-t - 1)
                q2 = u2 + w2 - 2 * t - 2
                z_q = z_j + (1 - k) * q2
                e_z0 = -t - 1
                for word, num in image.nums:
                    for i, result in _word_drops(k, FORWARD, word):
                        z = z_q - 2 * i
                        den = _add(table, den,
                                   [((w, z, e_z0), c) for w, c in result.nums],
                                   n * num, d * result.den)
    return _lowest(den, table)


def _conjugation_rhs(k: int, fwd_u: DeltaExpansion, v: State, depth_z0: int,
                     roots: _RootPowers) -> tuple:
    """Transformed side: the operator applied to u (``fwd_u``, taken once
    per check), then vertex modes in the shifted coordinate
    (z+z0)^{1/k} - z^{1/k}, expanded binomially.

    The mode of z-power e of a piece at exponent alpha contributes at
    z0-exponent s the coefficient of y^s in (1+y)^alpha ((1+y)^{1/k} - 1)^e,
    the sum over i + n = s of C(alpha, i) and the coefficient of y^n read
    from ``roots``, whose degree must be at least
    ``_root_degree(p_u + p_v, depth_z0)``; both are read as int pairs and
    summed over their lcm.  Returned as `_conjugation_lhs`, the prefactor
    k^{-p_u} of every value left out.
    """
    v2 = _level2(v)
    table, den = {}, 1
    for alpha, piece in fwd_u.pieces:
        # z-exponent of the binomial base for this piece, and C(alpha, i)
        z_alpha = int(2 * k * alpha)
        t_hi = (_level2(piece) + v2) // 2 - 1
        binoms = []
        for i in range(depth_z0 + t_hi + 2):
            c = binomial(alpha, i)
            binoms.append((c.numerator, c.denominator))
        for t in range(-depth_z0 - 1, t_hi + 1):
            image = vertex_mode(piece, t, v)
            if not image.nums:
                continue
            e = -t - 1  # power of the shifted coordinate
            # the coefficients of y^e..y^depth_z0 of the root power
            row = []
            for n in range(e, depth_z0 + 1):
                c = roots.coefficient(e, n)
                row.append((c.numerator, c.denominator))
            for s in range(e, depth_z0 + 1):
                # C(alpha, i) times the root coefficient of y^(s-i)
                parts = [(b_n * g_n, b_d * g_d)
                         for (b_n, b_d), (g_n, g_d) in zip(binoms, row[s - e::-1])
                         if b_n and g_n]
                if not parts:
                    continue
                d = lcm(*[part for _, part in parts])
                n = sum([c * (d // part) for c, part in parts])
                if n:
                    # 2k times alpha + e/k - s
                    z = z_alpha + 2 * (e - k * s)
                    den = _add(table, den,
                               [((w, z, s), c) for w, c in image.nums],
                               n, d * image.den)
    return _lowest(den, table)


def check_conjugation(k: int, u: State, *, cutoff=QQ(5, 2),
                      depth: int = 4) -> ComparisonResult:
    """Verify the conjugation identity coefficientwise, exactly.

    For every basis state of weight <= cutoff, both sides are expanded as
    maps (word, z-exponent, z0-exponent) -> scalar with z0-exponents capped
    at ``depth`` (at most ``MAX_CONJUGATION_DEPTH``); the two maps must
    agree on every key.  They are compared on their integral numerators,
    across their denominators; the prefactor k^{-p_u} common to both sides
    and the decoded int keys enter only a mismatch witness.
    """
    require_conjugation_depth(depth)
    if u.is_zero():
        raise ValueError("conjugation check needs a nonzero homogeneous state")
    p_u = u.homogeneous_level()
    prefactor = k_to_the(k, -p_u)
    fwd_u = apply_delta(k, u, FORWARD)
    # one table of root powers, deep enough for every basis state
    roots = _RootPowers(k, _root_degree(p_u + QQ(cutoff), depth))
    result = ComparisonResult(f"conjugation[k={k},wt<= {cutoff},depth={depth}]")
    for word in NS.basis(cutoff):
        v = State({word: ONE})
        source = NS.format_word(word)
        compare_numerators(
            result,
            _conjugation_lhs(k, u, v, depth),
            _conjugation_rhs(k, fwd_u, v, depth, roots),
            lambda key: (source, NS.format_word(key[0]), QQ(key[1], 2 * k),
                         QQ(key[2])),
            prefactor,
        )
    return result


# ---------------------------------------------------------------------------
# the translation-generator identities
# ---------------------------------------------------------------------------


def check_L_minus1_identities(k: int, *, cutoff=QQ(2)) -> ComparisonResult:
    """Verify both derivative identities tying the operator to L(-1).

    Forward form: (op applied to L(-1)u) minus (1/k) z^{1/k-1} L(-1) (op
    applied to u) equals d/dz of (op applied to u).  Inverse form: (inverse
    op applied to L(-1)u) minus k z^{-1/k+1} L(-1) (inverse op applied to u)
    equals k z^{-1/k+1} d/dz of (inverse op applied to u).  Both sides are
    exact finite expansions; every (state, word, exponent) slot is compared.
    """
    result = ComparisonResult(f"translation-identities[k={k},wt<={cutoff}]")
    basis = NS.basis(cutoff)
    for word in basis:
        u = State({word: ONE})
        lu = virasoro(QQ(-1), u)
        source = NS.format_word(word)

        # the right side is rhs_scale z^rhs_shift d/dz of (op applied to u)
        for direction, shift_scalar, shift_exp, rhs_scale, rhs_shift in (
            (FORWARD, QQ(1, k), QQ(1, k) - 1, ONE, ZERO),
            (INVERSE, QQ(k), -QQ(1, k) + 1, QQ(k), 1 - QQ(1, k)),
        ):
            # every value carries the prefactor of op applied to u, left
            # out of the sums: L(-1) raises the weight by one, so the
            # prefactor of op applied to L(-1)u is shift_scalar times it
            ex_u = apply_delta(k, u, direction)
            touched = set()

            def add(table, den, scalar, state, e):  # keyed on (word, e)
                keyed = [((word, e), num) for word, num in state.nums]
                touched.update(key for key, _ in keyed)
                n, d = integral_split(scalar)
                return _add(table, den, keyed, n, d * state.den)

            lhs, l_den = {}, 1
            if not lu.is_zero():
                for e, s in apply_delta(k, lu, direction).pieces:
                    l_den = add(lhs, l_den, shift_scalar, s, e)
            for e, s in ex_u.pieces:
                l_den = add(lhs, l_den, -shift_scalar, virasoro(QQ(-1), s),
                            e + shift_exp)

            rhs, r_den = {}, 1
            for e, s in ex_u.pieces:
                if e != 0:
                    r_den = add(rhs, r_den, rhs_scale * e, s, e - 1 + rhs_shift)

            if not touched:
                # both sides identically zero: that agreement is itself a check
                result.compare((direction, source), lhs, rhs)
            # a key whose sum cancelled is still compared
            compare_numerators(
                result,
                (l_den, dict.fromkeys(touched, 0) | lhs),
                (r_den, rhs),
                lambda key: (direction, source, NS.format_word(key[0]), key[1]),
                ex_u.prefactor,
            )
    return result


__all__ = [
    "AjTable",
    "DeltaExpansion",
    "FORWARD",
    "INVERSE",
    "MAX_CONJUGATION_DEPTH",
    "MAX_TABLE_DEPTH",
    "apply_delta",
    "check_L_minus1_identities",
    "check_conjugation",
    "check_f_composition",
    "covering_depth",
    "require_conjugation_depth",
    "round_trip_defect",
    "solve_aj",
]
