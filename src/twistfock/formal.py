"""Windowed formal calculus: exact Laurent-type series with fractional exponents.

A series here is a finite table of exactly-known coefficients together with a
*window* — the per-variable exponent range inside which the table is complete.
Outside its window a series is unknown, not zero; every operation computes the
window of its result from the windows of its inputs, so a coefficient is never
reported unless it is provably exact.  Formal-distribution kernels (delta
functions and their fractional-lattice variants) are materialized directly
from their defining formulas, which are valid on any window.  Operator
fields are never tabulated: `compare_fields` reads them one column at a
time from functions the caller builds on their exact modes.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .scalars import (
    QQ,
    ZERO,
    binomial,
    rational_ceil,
    rational_floor,
    scalar_is_zero,
    scalar_ratio,
)

# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------


def _min_opt(a, b):
    """Minimum where None means minus infinity."""
    if a is None or b is None:
        return None
    return min(a, b)


def _max_opt(a, b):
    """Maximum where None means plus infinity."""
    if a is None or b is None:
        return None
    return max(a, b)


def _add_opt(a, b):
    if a is None or b is None:
        return None
    return a + b


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

    def intersect(self, other: "Window") -> "Window":
        merged = {}
        for var in set(self.bounds) | set(other.bounds):
            alo, ahi = self.bounds_for(var)
            blo, bhi = other.bounds_for(var)
            lo, hi = _max_opt_lo(alo, blo), _min_opt_hi(ahi, bhi)
            if lo is not None and hi is not None and lo > hi:
                raise ValueError(f"empty window intersection for {var}")
            merged[var] = (lo, hi)
        return Window(merged)

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


def _max_opt_lo(a, b):
    """Maximum of lower bounds where None means minus infinity."""
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def _min_opt_hi(a, b):
    """Minimum of upper bounds where None means plus infinity."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def assert_on_lattice(exponent, den: int) -> int:
    """The int index den·exponent of an exponent on the (1/den)-lattice;
    raise off it."""
    index = QQ(exponent) * den
    if index.denominator != 1:
        raise ValueError(f"exponent {QQ(exponent)} is not on the (1/{den})-lattice")
    return index.numerator


# ---------------------------------------------------------------------------
# scalar-valued series
# ---------------------------------------------------------------------------


class ScalarSeries:
    """Finite coefficient table + window + optional true support bounds.

    ``window=None`` means the table is the entire series (complete knowledge).
    ``supp_lo``/``supp_hi`` record mathematically guaranteed support bounds
    per variable (None = unbounded); they make products of truncations sound.
    """

    __slots__ = ("variables", "coeffs", "window", "supp_lo", "supp_hi")

    def __init__(self, variables: tuple, coeffs: dict, window: Window | None = None,
                 supp_lo: dict | None = None, supp_hi: dict | None = None):
        clean = {}
        for mono, value in coeffs.items():
            if not scalar_is_zero(value):
                clean[tuple(QQ(e) for e in mono)] = value
        self.variables = variables
        self.coeffs = clean
        self.window = window
        self.supp_lo = {} if supp_lo is None else supp_lo
        self.supp_hi = {} if supp_hi is None else supp_hi
        if window is None:
            # complete series: true support is the stored hull
            for i, var in enumerate(variables):
                exps = [m[i] for m in clean]
                hull = (min(exps), max(exps)) if exps else (ZERO, ZERO)
                self.supp_lo.setdefault(var, hull[0])
                self.supp_hi.setdefault(var, hull[1])

    def _values(self) -> tuple:
        return (self.variables, self.coeffs, self.window, self.supp_lo,
                self.supp_hi)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return ("ScalarSeries(variables={!r}, coeffs={!r}, window={!r}, "
                "supp_lo={!r}, supp_hi={!r})".format(*self._values()))

    # -- knowledge ----------------------------------------------------------

    def _supp(self, var):
        return self.supp_lo.get(var, None), self.supp_hi.get(var, None)

    def is_known(self, mono) -> bool:
        if self.window is None:
            return True
        for var, e in zip(self.variables, mono):
            slo, shi = self._supp(var)
            if slo is not None and e < slo:
                continue  # provably zero there
            if shi is not None and e > shi:
                continue
            if not self.window.contains(var, e):
                return False
        return True

    def get(self, mono):
        mono = tuple(QQ(e) for e in mono)
        if not self.is_known(mono):
            raise ValueError(f"coefficient at {mono} lies outside the window")
        return self.coeffs.get(mono, ZERO)

    # -- linear structure -----------------------------------------------------

    def _aligned(self, other: "ScalarSeries"):
        variables = tuple(dict.fromkeys(self.variables + other.variables))

        def embed(series):
            idx = [
                series.variables.index(v) if v in series.variables else None
                for v in variables
            ]
            coeffs = {}
            for mono, val in series.coeffs.items():
                new = tuple(ZERO if i is None else mono[i] for i in idx)
                coeffs[new] = val
            supp_lo = dict(series.supp_lo)
            supp_hi = dict(series.supp_hi)
            window = series.window
            for v in variables:
                if v not in series.variables:
                    supp_lo[v] = ZERO
                    supp_hi[v] = ZERO
            return ScalarSeries(variables, coeffs, window, supp_lo, supp_hi)

        return embed(self), embed(other)

    def __add__(self, other: "ScalarSeries") -> "ScalarSeries":
        a, b = self._aligned(other)
        coeffs = dict(a.coeffs)
        for mono, val in b.coeffs.items():
            coeffs[mono] = coeffs.get(mono, ZERO) + val
        if a.window is None and b.window is None:
            window = None
        elif a.window is None:
            window = b.window
        elif b.window is None:
            window = a.window
        else:
            window = a.window.intersect(b.window)
        supp_lo = {
            v: _min_opt(a.supp_lo.get(v), b.supp_lo.get(v)) for v in a.variables
        }
        supp_hi = {
            v: _max_opt(a.supp_hi.get(v), b.supp_hi.get(v)) for v in a.variables
        }
        if window is not None:
            coeffs = {
                m: c
                for m, c in coeffs.items()
                if window.contains_mono(a.variables, m)
            }
        return ScalarSeries(a.variables, coeffs, window, supp_lo, supp_hi)

    def __neg__(self):
        return self.scaled(-1)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, scalar) -> "ScalarSeries":
        return ScalarSeries(
            self.variables,
            {m: scalar * c for m, c in self.coeffs.items()},
            self.window,
            dict(self.supp_lo),
            dict(self.supp_hi),
        )

    # -- multiplication ----------------------------------------------------------

    def __mul__(self, other: "ScalarSeries") -> "ScalarSeries":
        """Convolution product with a window computed, never guessed.

        For each variable the set of splittings contributing to an output
        exponent is pinned by the factors' support bounds; the result window
        is the largest interval on which every contributing coefficient of
        both factors is inside its window.
        """
        a, b = self._aligned(other)
        window_bounds = {}
        exact = a.window is None and b.window is None
        for var in a.variables:
            salo, sahi = a._supp(var)
            sblo, sbhi = b._supp(var)
            if (salo is None and sbhi is None) or (sahi is None and sblo is None):
                raise ValueError(
                    f"non-composable product: unbounded splittings in {var}"
                )
            if exact:
                continue
            lo_conds, hi_conds = [], []
            walo, wahi = (None, None) if a.window is None else a.window.bounds_for(var)
            wblo, wbhi = (None, None) if b.window is None else b.window.bounds_for(var)
            # every contributing exponent of a must sit inside a's window
            if walo is not None and not (salo is not None and salo >= walo):
                if sbhi is None:
                    raise ValueError(f"non-composable product in {var}")
                lo_conds.append(walo + sbhi)
            if wahi is not None and not (sahi is not None and sahi <= wahi):
                if sblo is None:
                    raise ValueError(f"non-composable product in {var}")
                hi_conds.append(wahi + sblo)
            # and symmetrically for b
            if wblo is not None and not (sblo is not None and sblo >= wblo):
                if sahi is None:
                    raise ValueError(f"non-composable product in {var}")
                lo_conds.append(wblo + sahi)
            if wbhi is not None and not (sbhi is not None and sbhi <= wbhi):
                if salo is None:
                    raise ValueError(f"non-composable product in {var}")
                hi_conds.append(wbhi + salo)
            lo = max(lo_conds) if lo_conds else None
            hi = min(hi_conds) if hi_conds else None
            if lo is not None and hi is not None and lo > hi:
                raise ValueError(f"non-composable product: empty window in {var}")
            window_bounds[var] = (lo, hi)
        window = None if exact else Window(window_bounds)

        coeffs = {}
        for ma, ca in a.coeffs.items():
            for mb, cb in b.coeffs.items():
                mono = tuple(ea + eb for ea, eb in zip(ma, mb))
                if window is not None and not window.contains_mono(a.variables, mono):
                    continue
                prod = ca * cb
                if mono in coeffs:
                    coeffs[mono] = coeffs[mono] + prod
                else:
                    coeffs[mono] = prod
        supp_lo = {
            v: _add_opt(a.supp_lo.get(v), b.supp_lo.get(v)) for v in a.variables
        }
        supp_hi = {
            v: _add_opt(a.supp_hi.get(v), b.supp_hi.get(v)) for v in a.variables
        }
        return ScalarSeries(a.variables, coeffs, window, supp_lo, supp_hi)


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
) -> ScalarSeries:
    """bottom^-1 * sum over e in shift + Z/lattice_den of ((top ± second)/(±bottom))^e.

    This is the merged (single-sum) form in which fractional powers of a
    delta argument are well defined; the top binomial is expanded in
    nonnegative integral powers of `second`.  With shift=0, lattice_den=1,
    it is bottom^-1 * delta((top ± second)/(±bottom)); a pure coset shift
    uses a fractional `shift` with lattice_den=1.
    """
    shift = QQ(shift)
    variables = (top, second, bottom)
    blo, bhi = window.bounds_for(bottom)
    if blo is None or bhi is None:
        raise ValueError("kernel window must bound the denominator variable")
    slo, shi = window.bounds_for(second)
    tlo, thi = window.bounds_for(top)
    if shi is None:
        raise ValueError("kernel window must bound the expansion variable")
    # bottom exponent is -e-1, so e runs over [-1-bhi, -1-blo]
    e_lo, e_hi = -1 - bhi, -1 - blo
    n_lo = rational_ceil((e_lo - shift) * lattice_den)
    n_hi = rational_floor((e_hi - shift) * lattice_den)
    coeffs = {}
    for n in range(n_lo, n_hi + 1):
        e = shift + QQ(n, lattice_den)
        if bottom_sign == -1 and e.denominator != 1:
            raise ValueError("sign-reversed denominator requires integer exponents")
        bot_coeff = QQ(1) if bottom_sign == 1 else QQ(-1) ** int(e)
        for i in range(max(0, rational_ceil(slo or ZERO)), rational_floor(shi) + 1):
            mono = (e - i, QQ(i), -e - 1)
            if not window.contains_mono(variables, mono):
                continue
            c = binomial(e, i) * (QQ(second_sign) ** i) * bot_coeff
            if not scalar_is_zero(c):
                coeffs[mono] = c
    return ScalarSeries(
        variables,
        coeffs,
        window,
        {top: None, second: ZERO, bottom: None},
        {top: None, second: None, bottom: None},
    )


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


def _known_on_window(series: ScalarSeries, window: Window) -> bool:
    """True when every point of `window` is inside the series' knowledge.

    Per variable, the points not already forced to zero by the support bounds
    must lie inside the series' own window.
    """
    if series.window is None:
        return True
    for var in series.variables:
        lo, hi = window.bounds_for(var)
        slo, shi = series._supp(var)
        lo2 = _max_opt_lo(lo, slo)
        hi2 = _min_opt_hi(hi, shi)
        if lo2 is not None and hi2 is not None and lo2 > hi2:
            continue  # the whole range is provably zero in this variable
        wlo, whi = series.window.bounds_for(var)
        if wlo is not None and (lo2 is None or lo2 < wlo):
            return False
        if whi is not None and (hi2 is None or hi2 > whi):
            return False
    return True


def _lattice_size(window: Window, variables, den: int) -> int:
    total = 1
    for var in variables:
        lo, hi = window.bounds_for(var)
        total *= max(0, rational_floor(hi * den) - rational_ceil(lo * den) + 1)
    return total


def compare_series(
    name: str,
    lhs: ScalarSeries,
    rhs: ScalarSeries,
    window: Window,
    lattice_den: int,
) -> ComparisonResult:
    """Compare two series on every lattice point of a bounded window.

    Every point must be known on both sides, so only stored monomials can
    disagree and the zeros elsewhere match for free; a window reaching past
    what a side knows is refused."""
    variables = tuple(dict.fromkeys(lhs.variables + rhs.variables))
    if not window.is_bounded(variables):
        raise ValueError("comparison window must be bounded")
    lhs_a, rhs_a = lhs._aligned(rhs)
    if not (_known_on_window(lhs_a, window) and _known_on_window(rhs_a, window)):
        raise ValueError("comparison window reaches past a truncated series")
    result = ComparisonResult(name)
    for mono in set(lhs_a.coeffs) | set(rhs_a.coeffs):
        if not window.contains_mono(lhs_a.variables, mono):
            continue
        if any((e * lattice_den).denominator != 1 for e in mono):
            continue
        result.compare(
            mono, lhs_a.coeffs.get(mono, ZERO), rhs_a.coeffs.get(mono, ZERO)
        )
    result.mismatches.sort(key=lambda item: item[0])
    result.compared = _lattice_size(window, lhs_a.variables, lattice_den)
    return result


def compare_fields(
    name: str, lhs, rhs, exponents, keys, key_formatter=str, scale: int = 1
) -> ComparisonResult:
    """Compare two operator fields in x entrywise, column by column.

    A field is given by its column function: (e, key) -> (den, pairs), its
    x^{e/scale} coefficient applied to the basis vector ``key`` as (output
    key, nonzero numerator) pairs over one positive int denominator, the
    form of a `fermion.State`; ``exponents`` are the int indices e (with
    the default scale 1, any exact exponents).  Every (exponent, key)
    column counts once, so two empty columns are compared, and so does
    every output key of either column, in sorted order; the two numerators
    are compared across the denominators, and a mismatch is recorded with
    both values and located as "x^e @ key -> output key", keys written by
    ``key_formatter``.
    """
    result = ComparisonResult(name)
    for e in exponents:
        x_text = f"x^{QQ(e, scale)} @ "
        for key in keys:
            a_den, a = lhs(e, key)
            b_den, b = rhs(e, key)
            a, b = dict(a), dict(b)
            result.compared += 1
            for okey in sorted(a.keys() | b.keys()):
                location = f"{x_text}{key_formatter(key)} -> {key_formatter(okey)}"
                x, y = a.get(okey, 0), b.get(okey, 0)
                result.compared += 1
                if x * b_den != y * a_den:
                    result.mismatches.append(
                        (location, scalar_ratio(x, a_den), scalar_ratio(y, b_den)))
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
        lhs = None
        for p in range(k):
            term = merged_delta_kernel(
                "x1", "x0", "x2", window, shift=QQ(p, k), lattice_den=1
            )
            lhs = term if lhs is None else lhs + term
        rhs = merged_delta_kernel("x1", "x0", "x2", window, shift=0, lattice_den=k)
        name = f"delta-identity-DF2[k={k}]"
    elif kind is DeltaIdentity.DF3:
        lhs = merged_delta_kernel("x1", "x0", "x2", window, shift=0, lattice_den=k)
        rhs = merged_delta_kernel(
            "x2", "x0", "x1", window, shift=0, lattice_den=k, second_sign=1
        )
        name = f"delta-identity-DF3[k={k}]"
    elif kind is DeltaIdentity.THREE_TERM:
        first = merged_delta_kernel("x1", "x2", "x0", window)
        second = merged_delta_kernel("x2", "x1", "x0", window, bottom_sign=-1)
        lhs = first - second
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
