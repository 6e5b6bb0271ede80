"""Windowed formal calculus: exact Laurent-type series with fractional exponents.

A series here is a plain coefficient table, {monomial: coefficient}, built
for a *window* — the per-variable exponent range on which it is complete: a
monomial of the window missing from the table has coefficient zero, and
nothing is claimed outside the window.  No operation infers a window: each
table is built directly from a closed form that is exact on the window it is
asked for.  Formal-distribution kernels (delta functions and their
fractional-lattice variants) are materialized from their defining formulas,
and `compare_series` compares two tables at every lattice point of a bounded
window.  Operator fields are never tabulated: `compare_fields` reads them
one column at a time from functions the caller builds on their exact modes.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .scalars import (
    ONE,
    QQ,
    ZERO,
    binomial,
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

    def contains_mono(self, variables, mono) -> bool:
        return all(self.contains(v, e) for v, e in zip(variables, mono))

    def is_bounded(self, variables) -> bool:
        return all(
            self.bounds_for(v)[0] is not None and self.bounds_for(v)[1] is not None
            for v in variables
        )

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


def merged_delta_kernel(
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
    """bottom^-1 * sum over e in shift + Z/lattice_den of ((top ± second)/(±bottom))^e.

    This is the merged (single-sum) form in which fractional powers of a
    delta argument are well defined; the top binomial is expanded in
    nonnegative integral powers of `second`.  With shift=0, lattice_den=1,
    it is bottom^-1 * delta((top ± second)/(±bottom)); a pure coset shift
    uses a fractional `shift` with lattice_den=1.

    The result is the kernel's coefficient table on the window, complete
    there: a monomial of the window missing from it has coefficient zero.
    A monomial is the tuple of exponents of the three variables in sorted
    name order; top^{e-i} second^i bottom^{-e-1} has the coefficient
    C(e, i) (±1)^i, times (-1)^e for the sign-reversed bottom.
    """
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
            c = binomial(e, i) * second_sign ** i * bot_coeff
            if c:
                table[tuple(mono[j] for j in order)] = c
    return table


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


def _lattice_size(window: Window, variables, den: int) -> int:
    total = 1
    for var in variables:
        lo, hi = window.bounds_for(var)
        total *= max(0, rational_floor(hi * den) - rational_ceil(lo * den) + 1)
    return total


def compare_series(
    name: str,
    lhs: dict,
    rhs: dict,
    window: Window,
    lattice_den: int,
) -> ComparisonResult:
    """Compare two coefficient tables on every lattice point of a bounded
    window.

    A table maps a monomial, the tuple of exponents of the window's
    variables in sorted name order, to its coefficient, and is complete on
    the window: a missing monomial is zero there.  So only stored monomials
    can disagree and the zeros elsewhere match for free; every point of the
    (1/lattice_den)-lattice in the window counts as compared."""
    variables = sorted(window.bounds)
    if not window.is_bounded(variables):
        raise ValueError("comparison window must be bounded")
    result = ComparisonResult(name)
    for mono in lhs.keys() | rhs.keys():
        if not window.contains_mono(variables, mono):
            continue
        if any((e * lattice_den).denominator != 1 for e in mono):
            continue
        result.compare(mono, lhs.get(mono, ZERO), rhs.get(mono, ZERO))
    result.mismatches.sort(key=lambda item: item[0])
    result.compared = _lattice_size(window, variables, lattice_den)
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


def _add_into(total: dict, table: dict, sign: int = 1) -> None:
    """Add sign * table into the coefficient table total, in place."""
    for mono, c in table.items():
        total[mono] = total.get(mono, ZERO) + sign * c


def verify_delta_identity(
    kind: DeltaIdentity, k: int, r, window: Window
) -> ComparisonResult:
    """Window-exact check of one delta-function identity.

    DF1 equates the r-shifted kernels in (x1 - x0)/x2 and (x2 + x0)/x1;
    DF2 merges the k fractional shifts of an integer-lattice kernel into the
    (1/k)-lattice kernel; DF3 is the fractional-lattice version of DF1 at
    shift 0; THREE_TERM is the three-term substitution identity.  Comparisons
    run over the (1/2k)-lattice inside the window.
    """
    r = QQ(r)
    den = 2 * k
    if kind is DeltaIdentity.DF1:
        lhs = merged_delta_kernel("x1", "x0", "x2", window, shift=r, lattice_den=1)
        rhs = merged_delta_kernel(
            "x2", "x0", "x1", window, shift=-r, lattice_den=1, second_sign=1
        )
        name = f"delta-identity-DF1[k={k},r={r}]"
    elif kind is DeltaIdentity.DF2:
        lhs = {}
        for p in range(k):
            _add_into(lhs, merged_delta_kernel(
                "x1", "x0", "x2", window, shift=QQ(p, k), lattice_den=1
            ))
        rhs = merged_delta_kernel("x1", "x0", "x2", window, shift=0, lattice_den=k)
        name = f"delta-identity-DF2[k={k}]"
    elif kind is DeltaIdentity.DF3:
        lhs = merged_delta_kernel("x1", "x0", "x2", window, shift=0, lattice_den=k)
        rhs = merged_delta_kernel(
            "x2", "x0", "x1", window, shift=0, lattice_den=k, second_sign=1
        )
        name = f"delta-identity-DF3[k={k}]"
    elif kind is DeltaIdentity.THREE_TERM:
        lhs = merged_delta_kernel("x1", "x2", "x0", window)
        _add_into(lhs, merged_delta_kernel(
            "x2", "x1", "x0", window, bottom_sign=-1
        ), -1)
        rhs = merged_delta_kernel("x1", "x0", "x2", window)
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
