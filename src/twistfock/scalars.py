"""Exact scalar arithmetic: rationals and cyclotomic field elements.

Every coefficient in this package is an exact rational or an element of a
cyclotomic field Q(zeta_N), stored in the power basis modulo the N-th
cyclotomic polynomial.  Floats never enter a computation path; the complex
embedding below exists only as a cross-check oracle for tests and for the
single sign choice made when extracting square roots.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------


def QQ(numerator=0, denominator=None) -> Fraction:
    """Build an exact rational."""
    if denominator is None:
        return Fraction(numerator)
    return Fraction(numerator, denominator)


RATIONAL_TYPES = (int, Fraction)

ZERO = QQ(0)
ONE = QQ(1)
HALF = QQ(1, 2)


def is_rational(x) -> bool:
    """True for plain rational scalars (int, Fraction)."""
    return isinstance(x, RATIONAL_TYPES)


def rational_floor(x) -> int:
    """Floor of an exact rational."""
    num, den = x.numerator, x.denominator
    return num // den


def rational_ceil(x) -> int:
    """Ceiling of an exact rational."""
    num, den = x.numerator, x.denominator
    return -((-num) // den)


@lru_cache(maxsize=None)
def binomial(r, i: int):
    """Generalized binomial coefficient C(r, i) for rational r, integer i >= 0
    (cached: the check grids ask for the same few many times)."""
    if i < 0:
        return ZERO
    result = ONE
    r = QQ(r)
    for step in range(i):
        result = result * (r - step) / (step + 1)
    return result


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler totient."""
    result = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple:
    """Int coefficients of the n-th cyclotomic polynomial (low degree
    first): x^n - 1 divided by Phi_d for every proper divisor d of n.  Each
    Phi_d is monic with int coefficients, so every division is exact int
    synthetic division."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            divisor = cyclotomic_poly(d)
            degree = len(divisor) - 1
            quot = [0] * (len(poly) - degree)
            for i in range(len(quot) - 1, -1, -1):
                c = quot[i] = poly[i + degree]
                if c:
                    for j, b in enumerate(divisor):
                        poly[i + j] -= c * b
            if any(poly[:degree]):
                raise ArithmeticError("cyclotomic polynomial division not exact")
            poly = quot
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_rows(conductor: int) -> tuple:
    """x^j mod Phi_n for phi(n) <= j <= max(2 phi(n) - 2, n - 1), each as
    phi(n) ints (low degree first): every power that a product of two
    reduced elements reaches, and every power of zeta_n.  Phi_n is monic
    with int coefficients, so every row is integral."""
    poly = cyclotomic_poly(conductor)
    degree = len(poly) - 1
    row = [-c for c in poly[:-1]]  # x^degree
    rows = []
    for _ in range(max(2 * degree - 2, conductor - 1) - degree + 1):
        rows.append(tuple(row))
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [r - top * c for r, c in zip(row, poly)]
    return tuple(rows)


# ---------------------------------------------------------------------------
# cyclotomic field elements
# ---------------------------------------------------------------------------


# Largest conductor N of Q(zeta_N): an element holds phi(N) coordinates.
# sqrt(k) lives in Q(zeta_{4k}), so half-integer weights allow k <= 256;
# `delta-apply --state psi` takes at most about 0.2 s there on a 2-core
# host (cold, every k <= 256), and 0.4 s at k = 1021 with the ceiling
# lifted.  Raising the ceiling would change which inputs are refused.
MAX_CONDUCTOR = 1024


def require_order(k: int) -> None:
    """Refuse a tensor order k < 1, before any work."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")


def require_conductor(conductor: int) -> None:
    """Refuse a conductor outside 1..MAX_CONDUCTOR, before any work."""
    if conductor < 1:
        raise ValueError(f"conductor must be >= 1, got {conductor}")
    if conductor > MAX_CONDUCTOR:
        raise ValueError(f"cyclotomic conductor {conductor} exceeds the "
                         f"ceiling {MAX_CONDUCTOR}")


class CycScalar:
    """Element of Q(zeta_N): coefficient vector of length phi(N) over Q.

    Instances are immutable.  Arithmetic and comparison take an int, a
    `Fraction` or an element of the same conductor; another conductor
    raises, whatever the element's value.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        require_conductor(conductor)
        coeffs = self._reduce(conductor, [QQ(c) for c in coeffs])
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("CycScalar is immutable")

    @staticmethod
    def _reduce(conductor: int, coeffs: list) -> list:
        """The phi(N) power-basis coordinates of sum_j c_j x^j modulo
        Phi_N, N the conductor: exponents folded with x^N = 1, then every
        power from phi(N) on replaced by its row of `_reduction_rows`."""
        if len(coeffs) > conductor:
            folded = coeffs[:conductor]
            for j in range(conductor, len(coeffs)):
                folded[j % conductor] += coeffs[j]
            coeffs = folded
        degree = euler_phi(conductor)
        out = coeffs[:degree] + [ZERO] * (degree - len(coeffs))
        for c, row in zip(coeffs[degree:], _reduction_rows(conductor)):
            if c:
                for i, r in enumerate(row):
                    if r:
                        out[i] += c * r
        return out

    @classmethod
    def _of(cls, conductor: int, coeffs: tuple) -> "CycScalar":
        """An element from a coefficient tuple that is already valid: QQ
        or int entries, exactly phi(conductor) of them.  Results of
        arithmetic on valid elements are built here, without re-validating;
        an integral numerator (`integral_split`) keeps int entries, so its
        sums and int multiples stay in int arithmetic."""
        self = object.__new__(cls)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, value, conductor: int = 1) -> "CycScalar":
        return cls(conductor, [QQ(value)])

    @classmethod
    def root_of_unity(cls, conductor: int, exponent: int) -> "CycScalar":
        """zeta_N^m as an element of Q(zeta_N)."""
        return cls(conductor, [0] * (exponent % conductor) + [1])

    # -- predicates and conversions -----------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def complex_value(self) -> complex:
        """Complex embedding zeta_N -> exp(2*pi*i/N).  Test oracle only."""
        root = cmath.exp(2j * cmath.pi / self.conductor)
        return sum(float(c) * root**j for j, c in enumerate(self.coeffs))

    # -- operands ------------------------------------------------------------

    def _pair(self, other):
        """(self, other) for an element of the same conductor, None for a
        non-element; another conductor raises.  Every operator handles a
        rational operand before it asks."""
        if not isinstance(other, CycScalar):
            return None
        if self.conductor != other.conductor:
            raise ValueError(
                f"conductor mismatch: {self.conductor} vs {other.conductor}")
        return self, other

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if is_rational(other):
            coeffs = self.coeffs
            return CycScalar._of(self.conductor, (coeffs[0] + other,) + coeffs[1:])
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return CycScalar._of(
            a.conductor, tuple([x + y for x, y in zip(a.coeffs, b.coeffs)])
        )

    __radd__ = __add__

    def __neg__(self):
        return CycScalar._of(self.conductor, tuple([-c for c in self.coeffs]))

    def __sub__(self, other):
        if is_rational(other):
            coeffs = self.coeffs
            return CycScalar._of(self.conductor, (coeffs[0] - other,) + coeffs[1:])
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return CycScalar._of(
            a.conductor, tuple([x - y for x, y in zip(a.coeffs, b.coeffs)])
        )

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if is_rational(other):
            # fast path: scale the coefficient vector directly
            return CycScalar._of(self.conductor,
                                 tuple([c * other for c in self.coeffs]))
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        # int accumulators for two integral numerators (`integral_split`),
        # so their product stays in int arithmetic; QQ ones otherwise, so
        # a product of QQ elements keeps QQ coordinates
        zero = 0 if type(a.coeffs[0]) is int and type(b.coeffs[0]) is int else ZERO
        raw = [zero] * (2 * len(a.coeffs) - 1)
        for i, ca in enumerate(a.coeffs):
            if ca:
                for j, cb in enumerate(b.coeffs):
                    if cb:
                        raw[i + j] += ca * cb
        return CycScalar._of(a.conductor, tuple(self._reduce(a.conductor, raw)))

    __rmul__ = __mul__

    def inverse(self) -> "CycScalar":
        if self.is_zero():
            raise ZeroDivisionError("division by zero CycScalar")
        if self.is_rational():
            return CycScalar.from_rational(ONE / self.coeffs[0], self.conductor)
        # the product of the other Galois conjugates (zeta -> zeta^j, j a
        # unit mod N) over the norm, which is their product with self
        n = self.conductor
        others = CycScalar.from_rational(ONE, n)
        for j in range(2, n):
            if math.gcd(j, n) == 1:
                coeffs = [ZERO] * n
                for i, c in enumerate(self.coeffs):
                    coeffs[i * j % n] += c
                others = others * CycScalar(n, coeffs)
        return others * (ONE / (self * others).rational_value())

    def __truediv__(self, other):
        if is_rational(other):
            return self * (ONE / QQ(other))
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __floordiv__(self, other):
        """Coordinatewise floor division by an int: for an element with
        integer coordinates and a divisor of its `scalar_content`, the
        exact quotient."""
        if type(other) is not int:
            return NotImplemented
        return CycScalar._of(self.conductor,
                             tuple([c // other for c in self.coeffs]))

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CycScalar.from_rational(ONE, self.conductor)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- comparison ------------------------------------------------------------

    def __eq__(self, other):
        if is_rational(other):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CycScalar):
            return NotImplemented
        if self.conductor != other.conductor:
            raise ValueError(
                f"conductor mismatch: {self.conductor} vs {other.conductor}")
        return self.coeffs == other.coeffs

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.conductor, self.coeffs))

    def __bool__(self):
        return not self.is_zero()

    # -- rendering ---------------------------------------------------------------

    def __str__(self):
        if self.is_rational():
            return str(self.coeffs[0])
        sym = f"z{self.conductor}"
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                parts.append(str(c))
            else:
                power = sym if j == 1 else f"{sym}^{j}"
                parts.append(power if c == 1 else f"{c}*{power}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"CycScalar({self.conductor}, {[str(c) for c in self.coeffs]})"


# ---------------------------------------------------------------------------
# named constructors used throughout the package
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def cyc_sqrt_k(k: int) -> CycScalar:
    """The square root of k in Q(zeta_{4k}) that is positive in the real embedding.

    Write k = s^2 m with m squarefree, zeta = zeta_{4k} and i = zeta^k.
    The quadratic Gauss sum of Z/4m, G = sum_{a mod 4m} zeta_{4m}^{a^2}
    with zeta_{4m} = zeta^{s^2}, is (1 + i) 2 sqrt(m); so
    sqrt(k) = s (1 - i) G / 4, one power sum reduced once.
    """
    conductor = 4 * k
    require_conductor(conductor)
    s = math.isqrt(k)
    while k % (s * s):
        s -= 1
    c = conductor // (s * s)  # 4m
    powers = [0] * conductor
    for a in range(c):
        e = s * s * (a * a % c)
        powers[e] += 1  # the term zeta^e of G
        powers[(e + k) % conductor] -= 1  # and of -i G
    result = CycScalar(conductor, powers) * QQ(s, 4)
    numeric = result.complex_value()
    if abs(numeric - math.sqrt(k)) > 1e-9:
        raise ArithmeticError(f"sqrt({k}) construction failed: {numeric}")
    return result


def k_to_the(k: int, exponent) -> CycScalar | object:
    """k raised to a half-integer power, exactly (uses cyc_sqrt_k for halves).

    The result is a `QQ` whenever its value is rational: always for integer
    exponents, and for half-integer ones when k is a perfect square.
    """
    e = QQ(exponent)
    if e.denominator == 1:
        return QQ(k) ** int(e)
    if e.denominator != 2:
        raise ValueError(f"exponent {e} is not a half-integer")
    n = rational_floor(e)
    root = cyc_sqrt_k(k)
    if root.is_rational():
        return root.rational_value() * (QQ(k) ** n)
    return root * (QQ(k) ** n)


def rationalized(x):
    """x as a `QQ` when its value is rational; any other scalar as it is."""
    if isinstance(x, CycScalar) and x.is_rational():
        return x.coeffs[0]
    return x


def eta_k(k: int) -> CycScalar:
    """A fixed primitive k-th root of unity inside Q(zeta_{4k})."""
    return CycScalar.root_of_unity(4 * k, 4)


@lru_cache(maxsize=None)
def eta_powers(k: int) -> tuple:
    """(eta^0, ..., eta^{k-1}) for eta = eta_k(k); eta^i is entry i % k,
    a `QQ` where it is rational (eta^0, and -1 for even k).  Cached: every
    slot field of order k reads the same powers."""
    eta = eta_k(k)
    return tuple(rationalized(eta**i) for i in range(k))


# ---------------------------------------------------------------------------
# scalar helpers shared by the other modules (values are QQ or CycScalar)
# ---------------------------------------------------------------------------


def scalar_is_zero(x) -> bool:
    if isinstance(x, CycScalar):
        return x.is_zero()
    return x == 0


def scalar_str(x) -> str:
    if isinstance(x, CycScalar) and not x.is_rational():
        return f"({x})"
    if isinstance(x, CycScalar):
        return str(x.rational_value())
    return str(x)


def integral_split(x) -> tuple:
    """(numerator, denominator) of a scalar, in lowest terms: the
    denominator is a positive int and the numerator is integral, an int
    for a rational and a `CycScalar` with int coordinates for a cyclotomic
    element.  No prime divides the denominator and every coordinate of the
    numerator."""
    if isinstance(x, CycScalar):
        den = math.lcm(*[c.denominator for c in x.coeffs])
        return CycScalar._of(x.conductor, tuple(
            [c.numerator * (den // c.denominator) for c in x.coeffs])), den
    return x.numerator, x.denominator


def scalar_ratio(num, den: int):
    """The scalar num/den for an integral numerator (see `integral_split`):
    a `QQ` for an int numerator, a `CycScalar` for a cyclotomic one."""
    if type(num) is int:
        return Fraction(num, den)
    return num * Fraction(1, den)


def scalar_content(x) -> int:
    """The content of an integral scalar: the gcd of its integer
    coordinates, the value itself for an int."""
    if isinstance(x, CycScalar):
        return math.gcd(*[c.numerator for c in x.coeffs])
    return x


def complex_embedding(x) -> complex:
    """Numeric value of any scalar.  Test oracle only — never used to compute."""
    if isinstance(x, CycScalar):
        return x.complex_value()
    return complex(Fraction(x.numerator, x.denominator))
