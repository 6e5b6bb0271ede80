"""Cyclic-rotation twisted modules over tensor powers of the free fermion.

The forward construction endows the parity-twisted (Ramond) module with an
action of the k-fold tensor power twisted by the k-cycle rotation, for k
even: the twisted field of a first-slot vector is the parity-twisted field
of the coordinate-changed vector evaluated at the k-th root of the
variable, and other slots follow by root-of-unity substitution.  One class,
``SlotField``, holds that field for one state in one slot as its exact
modes.  The inverse construction recovers the parity-twisted action from
the twisted action by the opposite coordinate change, with a structurally
enforced branch choice; one class, ``RecoveredField``, holds the recovered
field of one state.  At order 1 the coordinate change is the identity, so
``SlotField(1, u)`` is the native parity-twisted field of u.

A field is its family of modes, Y(u, x) = sum_m u_m x^{-m-1}: every mode
is an exact map on the Ramond basis, and no field is tabulated over a
window.  Both classes share one mode interface: an int index, a rational
image that is one `fermion.mode_sum` over the field's plan, one scalar per
eta class, the annihilation bound `top` on a state, and `mode`, the image
read within both bounds.  The public forms on a rational index are
`twisted_mode` and `u_functor_sigma_mode`.  Scalars live in Q or in a
cyclotomic field.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache

from .scalars import QQ, ZERO, ONE, eta_powers, rationalized
from .formal import QSeries, assert_on_lattice
from .fermion import (
    CENTRAL_CHARGE,
    OMEGA,
    R,
    State,
    ZERO_STATE,
    _level2,
    mode_sum,
    word_level,
)
from .ramond import ground_weight
from .deltak import INVERSE, apply_delta


def require_even_order(k: int):
    """The cyclic-twist module structure exists only for even tensor order."""
    if k < 2 or k % 2 != 0:
        raise ValueError(
            f"the cyclic-twist construction needs an even tensor order, got k={k}"
        )


# Largest truncation level of the twisted module.  Its basis grows like the
# partitions of the level into distinct parts, and the character check
# applies the twisted L(0) to every word: at the ceiling `verify --k 2` takes
# about 6 s on a 2-core host (3 s of it that check, a quarter more per
# level), `char` and `twist-build` under 0.5 s.
MAX_CUTOFF = 32


def require_cutoff(cutoff: int) -> None:
    """Refuse a module cutoff outside 0..MAX_CUTOFF, before any work."""
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    if cutoff > MAX_CUTOFF:
        raise ValueError(f"cutoff {cutoff} exceeds the ceiling {MAX_CUTOFF}")


# ---------------------------------------------------------------------------
# twisted fields
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def eta_scalars(k: int, base) -> tuple:
    """(base·eta^0, ..., base·eta^{k-1}), each a QQ where rational: the
    scalar table of every field, and of every composed pair, whose
    prefactor is ``base``.  Cached: the fields of one state share it
    across slot powers and checks."""
    return tuple(rationalized(base * eta) for eta in eta_powers(k))


class _ModeField:
    """A field held as its exact modes on an int index M = scale·m: mode M
    is the scalar ``scalars[eta_class(M)]`` times the rational `image`, one
    `fermion.mode_sum` over the plan, and zero where the class is None or
    above the `top` on the state; `mode` reads the image within both.  A
    subclass sets ``k``, ``state`` (the field's vector), ``power`` (its
    slot power mod k), ``scale`` (even), ``weight``, ``parity``,
    ``_offsets``, ``classes`` (one period of the class in M) and
    ``scalars``, and ``field_of(u)`` gives the field of another state of
    the same kind.  ``sector`` is the module the modes act on: the
    parity-twisted one.

    The class table is the field's support: `_on_sector_lattice` marks
    None every M whose plan leaves the sector lattice, so no check reads a
    mode that is zero by construction.
    """

    sector = R

    @cached_property
    def _base(self) -> int:
        return int(self.scale * (self.weight - 1))

    def top(self, state: State) -> int:
        """The largest index whose mode can act on a nonzero homogeneous
        state: a mode M shifts the doubled level by scale·(weight - 1) - M,
        and no state has a negative level."""
        return self._base + _level2(state)

    def eta_class(self, M: int):
        """The exponent j of the scalar ``scalars[j]`` of mode M, or None
        where the mode is zero."""
        return self.classes[M % self.scale]

    def _on_sector_lattice(self, classes) -> tuple:
        """``classes`` with None at every M off the sector lattice.

        In a sector of ``half`` h, a mode of a field of parity r is zero
        unless its doubled index is ≡ r·h (mod 2): `fermion.iterate_mode_word`
        tests this for one-mode words, and the recursion keeps it.  Mode M
        of the field is the plan's modes at the doubled indices offset + M,
        and every offset of a plan has one parity, so M is on the lattice
        for every pair of its plan or for none: it is off where
        offset + M - r·h is odd.  The scale is even, so one period of M
        decides this.  An empty plan (the zero state's) counts as even,
        which keeps the zero state's table.
        """
        parities = {offset % 2 for _, offset in self._offsets} or {0}
        if len(parities) != 1:
            raise AssertionError("the plan's offsets have mixed parities")
        (offset,) = parities
        odd = offset - self.parity * self.sector.half
        return tuple(None if (odd + M) % 2 else j for M, j in enumerate(classes))

    def plan(self, M: int) -> tuple:
        """The (state, doubled sigma-mode index) pairs whose sum is mode M."""
        return tuple((piece, offset + M) for piece, offset in self._offsets)

    def image(self, M: int, state: State) -> State:
        """Mode M without its scalar: the sum of the sigma-modes of the
        plan, its recursion numerators summed in one dict with no `State`
        per pair; a state over Q for a state over Q."""
        return mode_sum(self.plan(M), state, self.sector.half)

    def mode_at(self, M: int, state: State) -> State:
        """Mode M: its scalar times its image, zero off the class lattice."""
        j = self.eta_class(M)
        if j is None:
            return ZERO_STATE
        return self.image(M, state).scaled(self.scalars[j])

    def mode(self, M: int, state: State) -> State:
        """Mode M without its scalar, on a nonzero homogeneous state: zero
        above the top on the state or off the class lattice, else `image`
        (which alone knows neither bound)."""
        if M > self.top(state) or self.eta_class(M) is None:
            return ZERO_STATE
        return self.image(M, state)


class SlotField(_ModeField):
    """The twisted field of one homogeneous state in one tensor slot.

    The first-slot field is the parity-twisted field of the
    coordinate-changed state at the k-th root of the variable: its mode
    with index m is k^{-p} times the sum over the coordinate-change pieces
    (e, u_e) of the parity-twisted mode of u_e with index k(e+m+1) - 1.
    Slot power+1 substitutes the root by its multiple by eta^power, which
    scales the mode with index m by eta^{power*k*(-m-1)}; where that power
    is fractional the mode is zero.

    Its support on the sector lattice depends on the order's parity.  A
    piece (e, u_e) of weight p_e has e = p_e/k - p, so its doubled offset
    2k(e+1) - 2 = 2p_e - 2kp + 2k - 2 is ≡ r(1 - k) (mod 2) for u of
    parity r, as 2p_e and 2p are both ≡ r.  On the Ramond lattice, doubled
    index ≡ r, mode M is nonzero only for M ≡ kr (mod 2): at even k every
    slot field lives on the (1/k)-lattice of m, and at odd k an odd field
    lives on the coset 1/(2k) + (1/k)Z, the obstruction to an odd-order
    module.  The class table holds that support together with the slot
    twist.

    Modes are read on the int index M = 2k m (`twisted_mode` is the public
    form on a rational m), so a piece's doubled sigma-mode index is an int
    offset plus M.  The pieces have rational coefficients, so the image is
    over Q and the scalar is the prefactor k^{-p} times the root of unity,
    the only irrational factor.

    Defined for every k >= 1, where k = 1 gives the parity-twisted field of
    u itself; it closes into a twisted module structure only for k even
    (the odd case is exercised by the obstruction checker).
    """

    def __init__(self, k: int, u: State, power: int = 0):
        try:
            p = u.homogeneous_level()
        except ValueError:
            p = None
        if p is None:
            raise ValueError("a slot field needs a nonzero homogeneous state")
        self.k, self.state = k, u
        self.power = power = power % k
        self.scale = 2 * k
        self.weight = p
        self.parity = u.homogeneous_parity()
        expansion = apply_delta(k, u)
        self.prefactor = expansion.prefactor
        self.pieces = expansion.pieces
        # the doubled sigma-mode index of piece (e, u_e) is 2k(e+1) - 2 + M
        self._offsets = tuple(
            (piece, int(self.scale * (e + 1)) - 2) for e, piece in self.pieces)
        # by M mod 2k: power*k*(-m-1) = -power*M/2 - power*k mod k, on the
        # sector lattice
        self.classes = self._on_sector_lattice(
            None if power * M % 2 else (-power * M // 2) % k
            for M in range(self.scale))
        self.scalars = eta_scalars(k, self.prefactor)

    def field_of(self, u: State) -> "SlotField":
        """The field of u in the same slot."""
        return SlotField(self.k, u, self.power)


# ---------------------------------------------------------------------------
# twisted modes
# ---------------------------------------------------------------------------


def twisted_mode(k: int, u: State, m, *, substitution_power: int = 0):
    """The mode with index m of a single-slot twisted field, as a map.

    The map is ``SlotField.mode_at`` on the index 2k m; it shifts the
    tensor-power grading by p - m - 1.
    """
    require_even_order(k)
    M = 2 * assert_on_lattice(m, k)
    if u.is_zero():
        return lambda state: ZERO_STATE
    field = SlotField(k, u, substitution_power)
    return lambda state: field.mode_at(M, state)


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


class RecoveredField(_ModeField):
    """The parity-twisted field recovered from the twisted module.

    The inverse coordinate change sends a homogeneous state u of weight p
    to k^p times pieces (e, u_e); the recovered mode with index m is that
    prefactor times the sum of the first-slot twisted modes of the u_e with
    index e - 1 + (m+1)/k.  The k^{-p_e} of each piece's mode and the k^p
    combine into one rational factor, folded into the states of the piece's
    plan; so the plan is every coordinate-change piece of every inverse
    piece, and a mode is one `fermion.mode_sum`, a state over Q, read on
    the doubled index N = 2m.  Every offset of that plan is even, so the
    sector lattice rule of `_ModeField` puts the field of a state of
    parity r on r/2 + Z: its class is None at the complementary offset.
    The branch of the k-th root is structural: only the principal one is
    admissible.
    """

    def __init__(self, k: int, u: State, branch: int = 0):
        require_even_order(k)
        _check_branch(k, branch)
        self.k, self.state, self.power = k, u, 0
        self.scale = 2
        # the zero state has no weight or parity; its field is empty
        self.weight = u.homogeneous_level() or ZERO
        self.parity = u.homogeneous_parity() or 0
        self.scalars = (ONE,)
        expansion = apply_delta(k, u, INVERSE)
        plan = []
        for e, piece in expansion.pieces:
            field = SlotField(k, piece)
            # k^p times the piece's k^{-p_e}: the inverse change lowers the
            # weight by whole steps, so this factor is a QQ
            factor = rationalized(expansion.prefactor * field.prefactor)
            # the slot index of piece (e, u_e) is 2k(e-1) + 2 + N
            plan += [(state.scaled(factor), index)
                     for state, index in field.plan(int(2 * k * (e - 1)) + 2)]
        self._offsets = tuple(plan)
        self.classes = self._on_sector_lattice((0, 0))

    def field_of(self, u: State) -> "RecoveredField":
        """The recovered field of u, on the principal branch."""
        return RecoveredField(self.k, u)


def u_functor_sigma_mode(k: int, u: State, m, *, branch: int = 0):
    """The recovered mode with index m, as a map (``RecoveredField.mode_at``
    on the index 2m)."""
    field = RecoveredField(k, u, branch)
    N = assert_on_lattice(m, 2)
    return lambda state: field.mode_at(N, state)


# ---------------------------------------------------------------------------
# the module view: grading, weight conversion, graded dimension
# ---------------------------------------------------------------------------


class TwistedModuleView(namedtuple("TwistedModuleView", "k cutoff")):
    """The Ramond module viewed as a twisted module over the tensor power.

    The underlying space is unchanged; the grade of a basis word of
    Ramond level n is n/k, and the twisted weight operator is 1/k times
    the parity-twisted weight operator plus the constant (k^2-1)c/(24k).
    """

    __slots__ = ()

    def __new__(cls, k: int, cutoff: int):
        require_even_order(k)
        require_cutoff(cutoff)
        return super().__new__(cls, k, cutoff)

    def basis(self):
        return R.basis(QQ(self.cutoff))

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
                f"{R.format_word(word)}"
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


__all__ = [
    "MAX_CUTOFF",
    "RecoveredField",
    "TwistedModuleView",
    "require_cutoff",
    "require_even_order",
    "twisted_mode",
    "u_functor_sigma_mode",
]
