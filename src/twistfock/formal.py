"""Windowed formal calculus: exact Laurent-type series with fractional exponents.

A series here is a plain coefficient table, (den, {key: numerator}), built
for a *window* — the per-variable exponent range on which it is complete: a
monomial of the window missing from the table has coefficient zero, and
nothing is claimed outside the window.  A key is the tuple of a monomial's
int indices, its exponents times one key scale, and a coefficient is an int
numerator over the table's one denominator.  No operation infers a window: each
table is built directly from a closed form that is exact on the window it is
asked for.  Formal-distribution kernels (delta functions and their
fractional-lattice variants) are materialized from their defining formulas,
and `compare_series` compares two tables at every lattice point of a bounded
window.  Operator fields are never tabulated: `compare_fields` reads them
one column at a time from functions the caller builds on their exact modes.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from enum import Enum
from math import factorial, prod
from operator import itemgetter

from .scalars import (
    ONE,
    QQ,
    ZERO,
    rational_ceil,
    rational_floor,
    scalar_ratio,
)

# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------


class Window:
    """Per-variable closed exponent intervals; None bounds mean unbounded."""

    __slots__ = ("bounds",)

    def __init__(self, bounds: dict):
        norm = {}
        for var, (lo, hi) in bounds.items():
            lo = None if lo is None else QQ(lo)
            hi = None if hi is None else QQ(hi)
            if lo is not None and hi is not None and lo > hi:
                raise ValueError(f"empty window for {var}: [{lo}, {hi}]")
            norm[var] = (lo, hi)
        self.bounds = norm

    @classmethod
    def cube(cls, variables, lo, hi) -> "Window":
        return cls({v: (lo, hi) for v in variables})

    def bounds_for(self, var):
        return self.bounds.get(var, (None, None))

    def contains(self, var, exponent) -> bool:
        lo, hi = self.bounds_for(var)
        if lo is not None and exponent < lo:
            return False
        if hi is not None and exponent > hi:
            return False
        return True

    def __eq__(self, other):
        return isinstance(other, Window) and self.bounds == other.bounds

    def __repr__(self):
        inner = ", ".join(
            f"{v}:[{lo},{hi}]" for v, (lo, hi) in sorted(self.bounds.items())
        )
        return f"Window({inner})"


def assert_on_lattice(exponent, den: int) -> int:
    """The int index den·exponent of an exponent on the (1/den)-lattice;
    raise off it."""
    index = QQ(exponent) * den
    if index.denominator != 1:
        raise ValueError(f"exponent {QQ(exponent)} is not on the (1/{den})-lattice")
    return index.numerator


# ---------------------------------------------------------------------------
# delta kernels
# ---------------------------------------------------------------------------


def _index_bounds(bounds: tuple, scale: int) -> tuple:
    """The int index bounds of a closed exponent interval on the
    (1/scale)-lattice, ceil(scale·lo) and floor(scale·hi); None stays
    unbounded."""
    lo, hi = bounds
    return (None if lo is None else rational_ceil(lo * scale),
            None if hi is None else rational_floor(hi * scale))


def merged_delta_kernel(
    top,
    second,
    bottom,
    window: Window,
    *,
    scale: int,
    shift=0,
    lattice_den: int = 1,
    second_sign: int = -1,
    bottom_sign: int = 1,
) -> tuple:
    """bottom^-1 * sum over e in shift + Z/lattice_den of ((top ± second)/(±bottom))^e.

    This is the merged (single-sum) form in which fractional powers of a
    delta argument are well defined; the top binomial is expanded in
    nonnegative integral powers of `second`.  With shift=0, lattice_den=1,
    it is bottom^-1 * delta((top ± second)/(±bottom)); a pure coset shift
    uses a fractional `shift` with lattice_den=1.

    The result is the kernel's coefficient table on the window as
    (den, {key: numerator}), complete there: a monomial of the window
    missing from it has coefficient zero.  A monomial is keyed by its int
    indices, ``scale`` times the exponents of the three variables in sorted
    name order, so every e must lie on the (1/scale)-lattice.
    top^{e-i} second^i bottom^{-e-1} has the coefficient C(e, i) (±1)^i,
    times (-1)^e for the sign-reversed bottom.  With E = scale·e,
    C(e, i) = P_i / (scale^i i!), where P_i = prod_{j<i} (E - j·scale) is
    built along i; over the one denominator den = scale^depth depth! its
    numerator is P_i scale^(depth-i) depth!/i!, where depth is the
    window's largest upper bound (0 if none is positive), so it reaches the
    expansion variable's bound: tables built at one scale on one window
    share a denominator and add and compare numerator by numerator.
    """
    shift = QQ(shift)
    b_lo, b_hi = _index_bounds(window.bounds_for(bottom), scale)
    if b_lo is None or b_hi is None:
        raise ValueError("kernel window must bound the denominator variable")
    slo, shi = window.bounds_for(second)
    if shi is None:
        raise ValueError("kernel window must bound the expansion variable")
    step, off = divmod(scale, lattice_den)
    start = shift * scale
    if off or start.denominator != 1:
        raise ValueError(f"kernel exponents {shift} + Z/{lattice_den} are "
                         f"not on the (1/{scale})-lattice")
    i_lo = max(0, rational_ceil(slo or ZERO))
    i_hi = rational_floor(shi)
    depth = max([0] + [rational_floor(hi) for _, hi in window.bounds.values()
                       if hi is not None])
    t_lo, t_hi = _index_bounds(window.bounds_for(top), scale)
    variables = (top, second, bottom)
    key = itemgetter(*sorted(range(3), key=variables.__getitem__))
    # over den = scale^depth depth!, C(e, i) = P_i / (scale^i i!) is the
    # numerator P_i rescale[i], and C(e, i) (±1)^i is P_i weights[i]
    rescale = [scale ** (depth - i) * (factorial(depth) // factorial(i))
               for i in range(depth + 1)]
    weights = [second_sign ** i * rescale[i] for i in range(depth + 1)]
    # the bottom index -E - scale lies in [b_lo, b_hi], and E in
    # start + step·Z
    first = start.numerator + step * -((b_hi + scale + start.numerator) // step)
    table = {}
    for E in range(first, -scale - b_lo + 1, step):
        if bottom_sign == -1 and E % scale:
            raise ValueError("sign-reversed denominator requires integer exponents")
        sign = -1 if bottom_sign == -1 and E // scale & 1 else 1
        B = -E - scale
        # the top index E - i·scale lies in [t_lo, t_hi]
        i_first = i_lo if t_hi is None else max(i_lo, -((t_hi - E) // scale))
        i_last = i_hi if t_lo is None else min(i_hi, (E - t_lo) // scale)
        product = 1
        for i in range(i_last + 1):
            if i >= i_first:
                table[key((E - i * scale, i * scale, B))] = (
                    sign * product * weights[i])
            product *= E - i * scale
            if not product:
                break
    return scale ** depth * factorial(depth), table


# ---------------------------------------------------------------------------
# comparison engine
# ---------------------------------------------------------------------------


class ComparisonResult:
    """Outcome of a window-exact coefficient comparison: the number of
    coefficients compared and a (location, lhs, rhs) witness for each one
    that differed, in comparison order."""

    __slots__ = ("name", "compared", "mismatches")

    def __init__(self, name: str, compared: int = 0,
                 mismatches: list | None = None):
        self.name = name
        self.compared = compared
        self.mismatches = [] if mismatches is None else mismatches

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.name, self.compared, self.mismatches)
                == (other.name, other.compared, other.mismatches))

    def __repr__(self) -> str:
        return (f"ComparisonResult(name={self.name!r}, "
                f"compared={self.compared!r}, mismatches={self.mismatches!r})")

    def compare(self, location, lhs, rhs) -> None:
        """Count one compared coefficient; record it when the sides differ."""
        self.compared += 1
        if lhs != rhs:
            self.mismatches.append((location, lhs, rhs))

    @property
    def passed(self) -> bool:
        return self.compared > 0 and not self.mismatches


def compare_series(
    name: str,
    lhs: tuple,
    rhs: tuple,
    window: Window,
    lattice_den: int,
) -> ComparisonResult:
    """Compare two coefficient tables on every lattice point of a bounded
    window.

    A table is (den, {key: numerator}), its coefficients int numerators
    over one positive int denominator; a key is the tuple of int indices,
    lattice_den times the exponents of the window's variables in sorted
    name order.  A table is complete on the window: a missing key is zero
    there.  So only stored keys inside the window can disagree, and
    `compare_numerators` compares those; the zeros elsewhere match for
    free, and every point of the (1/lattice_den)-lattice in the window
    counts as compared.  A mismatch is located at its exponents, a tuple
    of `QQ`, and its values are `QQ`: only a mismatch leaves the ints."""
    bounds = [_index_bounds(window.bounds_for(var), lattice_den)
              for var in sorted(window.bounds)]
    if any(lo is None or hi is None for lo, hi in bounds):
        raise ValueError("comparison window must be bounded")

    def inside(den, nums) -> tuple:  # the table's entries in the window
        return den, {key: c for key, c in nums.items()
                     if all(lo <= x <= hi for x, (lo, hi) in zip(key, bounds))}

    result = ComparisonResult(name)
    compare_numerators(
        result, inside(*lhs), inside(*rhs),
        lambda key: tuple(QQ(x, lattice_den) for x in key),
    )
    result.compared = prod(max(0, hi - lo + 1) for lo, hi in bounds)
    return result


def compare_numerators(result: ComparisonResult, lhs: tuple, rhs: tuple,
                       locate, factor=ONE) -> None:
    """Compare two (den, {key: numerator}) maps on every key of either, in
    sorted order, by cross-multiplying across their denominators; each key
    counts as one comparison.  A mismatch is recorded at ``locate(key)``
    with both values, each times ``factor`` (a factor common to both sides
    and left out of the maps); a missing key is the rational 0."""
    l_den, l_nums = lhs
    r_den, r_nums = rhs
    for key in sorted(l_nums.keys() | r_nums.keys()):
        x, y = l_nums.get(key, 0), r_nums.get(key, 0)
        result.compared += 1
        if x * r_den != y * l_den:
            result.mismatches.append((
                locate(key),
                factor * scalar_ratio(x, l_den) if x else ZERO,
                factor * scalar_ratio(y, r_den) if y else ZERO,
            ))


def compare_fields(
    name: str, lhs, rhs, exponents, keys, key_formatter=str, scale: int = 1
) -> ComparisonResult:
    """Compare two operator fields in x entrywise, column by column.

    A field is given by its column function: (e, key) -> (den, pairs), its
    x^{e/scale} coefficient applied to the basis vector ``key`` as (output
    key, nonzero numerator) pairs over one positive int denominator, the
    form of a `fermion.State`; ``exponents`` are the int indices e (with
    the default scale 1, any exact exponents).  Every (exponent, key)
    column counts once, so two empty columns are compared, and its output
    keys go to `compare_numerators`, a mismatch located as "x^e @ key ->
    output key", keys written by ``key_formatter``.
    """
    result = ComparisonResult(name)

    def locate(okey) -> str:  # a mismatch in the column (e, key) compared
        return f"x^{QQ(e, scale)} @ {key_formatter(key)} -> {key_formatter(okey)}"

    for e in exponents:
        for key in keys:
            a_den, a = lhs(e, key)
            b_den, b = rhs(e, key)
            result.compared += 1
            compare_numerators(
                result, (a_den, dict(a)), (b_den, dict(b)), locate)
    return result


# ---------------------------------------------------------------------------
# the delta-function identity suite
# ---------------------------------------------------------------------------


class DeltaIdentity(Enum):
    """The four structural delta-function identities checked by the suite."""

    DF1 = "DF1"
    DF2 = "DF2"
    DF3 = "DF3"
    THREE_TERM = "ThreeTerm"


def _sum_tables(plus: list, minus: list = ()) -> tuple:
    """The tables ``plus`` minus the tables ``minus``, all (den, {key:
    numerator}) over one shared denominator, as one such table."""
    total = Counter()
    for _, nums in plus:
        total.update(nums)
    for _, nums in minus:
        total.subtract(nums)
    return plus[0][0], total


def verify_delta_identity(
    kind: DeltaIdentity, k: int, r, window: Window
) -> ComparisonResult:
    """Window-exact check of one delta-function identity.

    DF1 equates the r-shifted kernels in (x1 - x0)/x2 and (x2 + x0)/x1;
    DF2 merges the k fractional shifts of an integer-lattice kernel into the
    (1/k)-lattice kernel; DF3 is the fractional-lattice version of DF1 at
    shift 0; THREE_TERM is the three-term substitution identity.  Comparisons
    run over the (1/2k)-lattice inside the window.  Every kernel table is
    keyed on int indices at that scale and built on the one window, so all
    the identity's tables share one denominator and add and compare as int
    numerators (`compare_series`).
    """
    r = QQ(r)
    den = 2 * k

    def kernel(top, second, bottom, **options) -> tuple:
        return merged_delta_kernel(top, second, bottom, window, scale=den,
                                   **options)

    if kind is DeltaIdentity.DF1:
        lhs = kernel("x1", "x0", "x2", shift=r)
        rhs = kernel("x2", "x0", "x1", shift=-r, second_sign=1)
        name = f"delta-identity-DF1[k={k},r={r}]"
    elif kind is DeltaIdentity.DF2:
        lhs = _sum_tables([kernel("x1", "x0", "x2", shift=QQ(p, k))
                           for p in range(k)])
        rhs = kernel("x1", "x0", "x2", lattice_den=k)
        name = f"delta-identity-DF2[k={k}]"
    elif kind is DeltaIdentity.DF3:
        lhs = kernel("x1", "x0", "x2", lattice_den=k)
        rhs = kernel("x2", "x0", "x1", lattice_den=k, second_sign=1)
        name = f"delta-identity-DF3[k={k}]"
    elif kind is DeltaIdentity.THREE_TERM:
        lhs = _sum_tables([kernel("x1", "x2", "x0")],
                          [kernel("x2", "x1", "x0", bottom_sign=-1)])
        rhs = kernel("x1", "x0", "x2")
        name = f"delta-identity-ThreeTerm[k={k}]"
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown identity {kind}")
    return compare_series(name, lhs, rhs, window, den)


# ---------------------------------------------------------------------------
# graded dimensions
# ---------------------------------------------------------------------------


class QSeries(namedtuple("QSeries", "offset coeffs step")):
    """Truncated graded-dimension series on a rational weight lattice.

    ``coeffs[i]`` is the dimension of the graded piece of weight
    ``offset + i*step``; weights off that arithmetic progression carry
    dimension zero, and weights beyond the truncation are unknown.
    """

    __slots__ = ()

    def __new__(cls, offset: QQ, coeffs: tuple, step: QQ = QQ(1)):
        offset, step = QQ(offset), QQ(step)
        coeffs = tuple(int(c) for c in coeffs)
        if step <= 0:
            raise ValueError("step must be positive")
        return super().__new__(cls, offset, coeffs, step)

    def weight(self, i: int) -> QQ:
        return self.offset + i * self.step
