"""Cyclic-rotation twisted modules over tensor powers of the free fermion.

The forward construction endows the parity-twisted (Ramond) module with an
action of the k-fold tensor power twisted by the k-cycle rotation, for k
even: the twisted field of a first-slot vector is the parity-twisted field
of the coordinate-changed vector evaluated at the k-th root of the
variable, other slots follow by root-of-unity substitution, and general
pure tensors by a normal-ordered product of slot fields.  The inverse
construction recovers the parity-twisted action from the twisted action by
the opposite coordinate change, with a structurally enforced branch choice.

Everything is materialized as exact windowed operator fields or exact mode
maps on the Ramond basis; scalars live in Q or in a cyclotomic field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .scalars import QQ, ZERO, ONE, eta_powers, rational_ceil
from .formal import OperatorField, QSeries, Window, assert_on_lattice
from .fermion import (
    CENTRAL_CHARGE,
    OMEGA,
    State,
    ZERO_STATE,
    combine,
    word_level,
)
from .ramond import (
    format_ramond_word,
    ground_weight,
    ramond_basis,
    sigma_vertex_mode,
)
from .deltak import FORWARD, INVERSE, DeltaOp, apply_delta, delta_op


def require_even_order(k: int):
    """The cyclic-twist module structure exists only for even tensor order."""
    if k < 2 or k % 2 != 0:
        raise ValueError(
            f"the cyclic-twist construction needs an even tensor order, got k={k}"
        )


def _forward_op(k: int, weight) -> DeltaOp:
    return delta_op(k, FORWARD, cutoff=rational_ceil(weight) + 1)


def _inverse_op(k: int, weight) -> DeltaOp:
    return delta_op(k, INVERSE, cutoff=rational_ceil(weight) + 1)


# ---------------------------------------------------------------------------
# twisted fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwistedField:
    """A windowed operator field with exponents on the (1/k) lattice.

    ``field`` maps exponent monomials to sparse matrices over Ramond basis
    words.  The charge decomposition groups modes n by their residue class
    n + 1/k Z, matching the grading-by-rotation-eigenvalue of the tensor
    power.
    """

    k: int
    field: OperatorField

    def exponents(self):
        return tuple(sorted(m[0] for m in self.field.terms))

    def mode_action(self, m) -> dict:
        """The sparse matrix of the mode with index m (exponent -m-1)."""
        exponent = (QQ(-m - 1),)
        if self.field.window is not None and not self.field.window.contains_mono(
            self.field.variables, exponent
        ):
            raise ValueError(f"mode {m} is outside the materialized window")
        return self.field.terms.get(exponent, {})

    def component(self, p: int) -> OperatorField:
        """The sub-field of modes n with n - p/k integral."""
        residue = QQ(p, self.k)
        terms = {}
        for mono, table in self.field.terms.items():
            n = -mono[0] - 1
            if (n - residue).denominator == 1:
                terms[mono] = table
        return OperatorField(
            self.field.variables, terms, self.field.window, self.field.parity
        )


def _materialize_twisted(k: int, u: State, window: Window, basis,
                         substitution_power: int = 0) -> TwistedField:
    """Shared materializer for first-slot fields and their substitutions."""
    lo, hi = window.bounds_for("x")
    if lo is None or hi is None:
        raise ValueError("twisted fields need a bounded exponent window")
    if u.is_zero():
        return TwistedField(k, OperatorField(("x",), {}, window, 0))
    p = u.homogeneous_level()
    parity = u.homogeneous_parity()
    expansion = apply_delta(_forward_op(k, p), u)
    etas = eta_powers(k)
    terms = {}
    for word in basis:
        level = word_level(word)
        target = State({word: ONE})
        for e_piece, piece in expansion.pieces:
            q = piece.homogeneous_level()
            r = piece.homogeneous_parity()
            offset = QQ(r, 2)
            # sigma-mode t contributes at exponent e_piece + (-t-1)/k
            t_window_lo = k * (e_piece - hi) - 1
            t_window_hi = k * (e_piece - lo) - 1
            t_ann = q + level - 1
            t_top = min(t_window_hi, t_ann)
            t = offset + rational_ceil(t_window_lo - offset)
            while t <= t_top:
                image = sigma_vertex_mode(piece, t, target)
                if not image.is_zero():
                    exponent = e_piece + QQ(-t - 1, k)
                    scalar = expansion.prefactor
                    if substitution_power % k != 0:
                        twist_power = substitution_power * k * exponent
                        if twist_power.denominator != 1:
                            raise ValueError(
                                "root-of-unity substitution needs k even"
                            )
                        scalar = scalar * etas[int(twist_power) % k]
                    column = terms.setdefault((exponent,), {}).setdefault(word, {})
                    for out_word, c in image.terms:
                        prev = column.get(out_word, ZERO)
                        column[out_word] = prev + scalar * c
                t += 1
    field = OperatorField(("x",), terms, window, parity)
    if k % 2 == 0:
        for mono in field.terms:
            assert_on_lattice(mono[0], k)
    return TwistedField(k, field)


def ybar(k: int, u: State, window: Window, *, domain_level=QQ(2)) -> TwistedField:
    """The first-slot twisted field: the parity-twisted field of the
    coordinate-changed state, evaluated at the k-th root of the variable.

    Defined for every k >= 1; it closes into a twisted module structure
    only for k even (the odd case is exercised by the obstruction checker).
    """
    basis = ramond_basis(domain_level)
    return _materialize_twisted(k, u, window, basis, 0)


def yg_tensor_factor(k: int, u: State, j: int, window: Window, *,
                     domain_level=QQ(2)) -> TwistedField:
    """The twisted field of the state placed in tensor slot j+1.

    Obtained from the first-slot field by substituting the k-th root of the
    variable with its multiple by the j-th power of the fixed primitive
    k-th root of unity: the coefficient at exponent e is scaled by that
    root raised to j*k*e.
    """
    require_even_order(k)
    basis = ramond_basis(domain_level)
    return _materialize_twisted(k, u, window, basis, j % k)


# ---------------------------------------------------------------------------
# twisted modes (exact, no window)
# ---------------------------------------------------------------------------


def twisted_mode(k: int, u: State, m, *, substitution_power: int = 0):
    """The mode with index m of a single-slot twisted field, as a map.

    The map is the finite sum over the coordinate-change pieces u(j) of
    their parity-twisted modes with index (1-k)p - j - 1 + k(m+1); it
    shifts the tensor-power grading by p - m - 1.
    """
    require_even_order(k)
    m = assert_on_lattice(QQ(m), k)
    if u.is_zero():
        return lambda state: ZERO_STATE
    p = u.homogeneous_level()
    expansion = apply_delta(_forward_op(k, p), u)
    scalar = expansion.prefactor
    if substitution_power % k != 0:
        power = substitution_power * k * (-m - 1)
        scalar = scalar * eta_powers(k)[int(power) % k]
    plan = []
    for e_piece, piece in expansion.pieces:
        j = (p / k - p - e_piece) * k
        index = (1 - k) * p - j - 1 + k * (m + 1)
        plan.append((piece, index))

    def action(state: State) -> State:
        return combine(
            (sigma_vertex_mode(piece, index, state), ONE) for piece, index in plan
        ).scaled(scalar)

    return action


class _SlotOperator:
    """Mode family of one homogeneous state in one tensor slot."""

    def __init__(self, k: int, u: State, substitution_power: int):
        if u.is_zero():
            raise ValueError("tensor factors must be nonzero homogeneous states")
        self.k = k
        self.weight = u.homogeneous_level()
        self.parity = u.homogeneous_parity()
        p = self.weight
        expansion = apply_delta(_forward_op(k, p), u)
        self._prefactor = expansion.prefactor
        self._pieces = []
        for e_piece, piece in expansion.pieces:
            j = (p / k - p - e_piece) * k
            self._pieces.append((piece, j))
        self._sub = substitution_power % k
        self._etas = eta_powers(k) if self._sub else ()

    def mode(self, m, state: State) -> State:
        k, p = self.k, self.weight
        scalar = self._prefactor
        if self._sub:
            power = self._sub * k * (-m - 1)
            if power.denominator != 1:
                return ZERO_STATE
            scalar = scalar * self._etas[int(power) % k]
        return combine(
            (sigma_vertex_mode(piece, (1 - k) * p - j - 1 + k * (m + 1), state),
             ONE)
            for piece, j in self._pieces
        ).scaled(scalar)


class _OrderedProduct:
    """Normal-ordered product of a slot operator with another operator.

    Creation modes (negative index) of the left factor act on the left;
    annihilation modes (nonnegative index) are moved to the right across
    the rest of the product, picking up the Koszul sign of the two
    parities.
    """

    def __init__(self, left: _SlotOperator, right):
        self.k = left.k
        self.weight = left.weight + right.weight
        self.parity = (left.parity + right.parity) % 2
        self.left = left
        self.right = right

    def mode(self, m, state: State) -> State:
        k = self.k
        level = state.homogeneous_level()
        if level is None:
            return ZERO_STATE
        step = QQ(1, k)
        eps = -ONE if (self.left.parity and self.right.parity) else ONE
        pairs = []
        # annihilation part of the left factor, moved right
        n = ZERO
        n_top = self.left.weight - 1 + level / k
        while n <= n_top:
            inner = self.left.mode(n, state)
            if not inner.is_zero():
                pairs.append((self.right.mode(m - 1 - n, inner), eps))
            n += step
        # creation part of the left factor, kept left
        n_bottom = m - self.right.weight - level / k
        n = -step
        while n >= n_bottom:
            inner = self.right.mode(m - 1 - n, state)
            if not inner.is_zero():
                pairs.append((self.left.mode(n, inner), ONE))
            n -= step
        return combine(pairs)


def tensor_operator(k: int, factors):
    """The normal-ordered mode family of a pure tensor of k homogeneous
    states, nested right-to-left over the slots."""
    require_even_order(k)
    if len(factors) != k:
        raise ValueError(f"expected {k} tensor factors, got {len(factors)}")
    ops = [_SlotOperator(k, u, j) for j, u in enumerate(factors)]
    current = ops[-1]
    for op in reversed(ops[:-1]):
        current = _OrderedProduct(op, current)
    return current


def yg_general(k: int, factors, window: Window, *, domain_level=QQ(2)) -> TwistedField:
    """The twisted field of a pure tensor, materialized over a window.

    Realized as the normal-ordered product of the slot fields; collapses to
    the slot field when all other factors are the vacuum.
    """
    require_even_order(k)
    operator = tensor_operator(k, factors)
    lo, hi = window.bounds_for("x")
    if lo is None or hi is None:
        raise ValueError("twisted fields need a bounded exponent window")
    basis = ramond_basis(domain_level)
    step = QQ(1, k)
    terms = {}
    for word in basis:
        level = word_level(word)
        target = State({word: ONE})
        # exponent e = -m-1 within window; annihilation bound on m
        m_top = min(-1 - lo, operator.weight - 1 + level / k)
        m = -1 - hi
        m = step * rational_ceil(m / step)
        while m <= m_top:
            image = operator.mode(m, target)
            if not image.is_zero():
                exponent = -m - 1
                column = terms.setdefault((exponent,), {}).setdefault(word, {})
                for out_word, c in image.terms:
                    column[out_word] = column.get(out_word, ZERO) + c
            m += step
    field = OperatorField(("x",), terms, window, operator.parity)
    return TwistedField(k, field)


# ---------------------------------------------------------------------------
# the inverse construction
# ---------------------------------------------------------------------------


def _check_branch(k: int, branch: int):
    """Only the principal branch of the k-th root yields a module."""
    if branch % k != 0:
        raise ValueError(
            f"branch {branch % k} of the k-th root does not produce a "
            "parity-twisted module; only the principal branch is admissible"
        )


def u_functor_sigma_mode(k: int, u: State, m, *, branch: int = 0):
    """One recovered parity-twisted mode, built from twisted modes.

    The mode with index m of the recovered field is the finite sum over
    inverse coordinate-change pieces u[j] of their first-slot twisted modes
    with index ((k-1)p - jk - k + m + 1)/k.
    """
    require_even_order(k)
    _check_branch(k, branch)
    m = assert_on_lattice(QQ(m), 2)
    if u.is_zero():
        return lambda state: ZERO_STATE
    p = u.homogeneous_level()
    # the recovered field of a state of parity r is supported on r/2 + Z;
    # at the complementary offsets every mode vanishes identically
    if (m - QQ(u.homogeneous_parity(), 2)).denominator != 1:
        return lambda state: ZERO_STATE
    expansion = apply_delta(_inverse_op(k, p), u)
    plan = []
    for e_piece, piece in expansion.pieces:
        j = p - p / k - e_piece
        index = ((k - 1) * p - j * k - k + m + 1) / k
        plan.append(twisted_mode(k, piece, index))
    prefactor = expansion.prefactor

    def action(state: State) -> State:
        return combine((mode_map(state), ONE) for mode_map in plan).scaled(prefactor)

    return action


def u_functor_sigma_op(k: int, u: State, window: Window, *,
                       domain_level=QQ(2), branch: int = 0) -> OperatorField:
    """The recovered parity-twisted field, materialized over a window.

    Exponents land on the half-integer lattice; the branch of the k-th
    root is structural and anything but the principal branch is rejected.
    """
    require_even_order(k)
    _check_branch(k, branch)
    lo, hi = window.bounds_for("x")
    if lo is None or hi is None:
        raise ValueError("twisted fields need a bounded exponent window")
    p = u.homogeneous_level()
    parity = u.homogeneous_parity()
    offset = QQ(parity, 2)
    basis = ramond_basis(domain_level)
    mode_cache = {}
    terms = {}
    for word in basis:
        level = word_level(word)
        target = State({word: ONE})
        m_top = min(-1 - lo, p + level - 1)
        m = offset + rational_ceil((-1 - hi) - offset)
        while m <= m_top:
            if m not in mode_cache:
                mode_cache[m] = u_functor_sigma_mode(k, u, m, branch=branch)
            image = mode_cache[m](target)
            if not image.is_zero():
                exponent = -m - 1
                column = terms.setdefault((exponent,), {}).setdefault(word, {})
                for out_word, c in image.terms:
                    column[out_word] = column.get(out_word, ZERO) + c
            m += 1
    for mono in terms:
        assert_on_lattice(mono[0], 2)
    return OperatorField(("x",), terms, window, parity)


# ---------------------------------------------------------------------------
# the module view: grading, weight conversion, graded dimension
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwistedModuleView:
    """The Ramond module viewed as a twisted module over the tensor power.

    The underlying space is unchanged; the grade of a basis word of
    Ramond level n is n/k, and the twisted weight operator is 1/k times
    the parity-twisted weight operator plus the constant (k^2-1)c/(24k).
    """

    k: int
    cutoff: int

    def __post_init__(self):
        require_even_order(self.k)
        if self.cutoff < 0:
            raise ValueError(f"cutoff must be >= 0, got {self.cutoff}")

    def basis(self):
        return ramond_basis(QQ(self.cutoff))

    def t_grade(self, word) -> QQ:
        return QQ(word_level(word), self.k)

    def sigma_weight(self, word) -> QQ:
        return ground_weight() + word_level(word)

    def weight_constant(self) -> QQ:
        k = self.k
        return QQ(k * k - 1) * CENTRAL_CHARGE / (24 * k)

    def expected_twisted_weight(self, word) -> QQ:
        return self.sigma_weight(word) / self.k + self.weight_constant()

    def twisted_weight_operator(self):
        """The weight mode of the sum of the conformal vectors of all k
        slots: k times the first-slot mode of the conformal vector, since
        the root-of-unity substitution is trivial at exponent -2."""
        base = twisted_mode(self.k, OMEGA, QQ(1))

        def action(state: State) -> State:
            image = base(state)
            return image.scaled(QQ(self.k))

        return action

    def twisted_weight_eigenvalue(self, word) -> QQ:
        state = State({word: ONE})
        image = self.twisted_weight_operator()(state)
        expected = self.expected_twisted_weight(word)
        if image != state.scaled(expected):
            raise AssertionError(
                f"twisted weight operator is not the expected scalar on "
                f"{format_ramond_word(word)}"
            )
        return expected

    def character_offset(self) -> QQ:
        """Leading exponent of the graded dimension with the standard
        central-charge prefactor of the tensor power."""
        k = self.k
        prefactor = -QQ(k) * CENTRAL_CHARGE / 24
        return prefactor + ground_weight() / k + self.weight_constant()

    def graded_dimension(self) -> QSeries:
        counts = {}
        for word in self.basis():
            counts[int(word_level(word))] = counts.get(int(word_level(word)), 0) + 1
        coeffs = tuple(counts.get(n, 0) for n in range(self.cutoff + 1))
        return QSeries(self.character_offset(), coeffs, QQ(1, self.k))

    def summary_json(self) -> str:
        histogram = {}
        for word in self.basis():
            grade = self.t_grade(word)
            histogram[grade] = histogram.get(grade, 0) + 1
        payload = {
            "k": self.k,
            "cutoff": self.cutoff,
            "grading": [
                {"grade": str(g), "dim": histogram[g]} for g in sorted(histogram)
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def twisted_field_to_csv(tfield: TwistedField, in_basis, out_basis) -> str:
    """CSV rows of the matrices of a twisted field, one row per exponent
    and input word, columns indexed by output words."""
    from .fermion import field_to_csv

    return field_to_csv(tfield.field, in_basis, out_basis,
                        word_formatter=format_ramond_word)


__all__ = [
    "TwistedField",
    "TwistedModuleView",
    "require_even_order",
    "tensor_operator",
    "twisted_field_to_csv",
    "twisted_mode",
    "u_functor_sigma_mode",
    "u_functor_sigma_op",
    "ybar",
    "yg_general",
    "yg_tensor_factor",
]
