"""The parity-twisted module of the free fermion, with exact twisted fields.

The twisted sector is spanned by words of distinct non-positive *integer*
modes applied to a ground vector; the zero mode squares to 1/2, which makes
the ground space two-dimensional ({ground, psi_0 ground}) and the module
stable under the parity involution.  Twisted vertex operators of descendant
vectors come out of the same residue-extraction recursion as the untwisted
ones (`fermion.iterate_mode_word` with the half-integer lattice shift); in
particular the ground conformal weight 1/16 below is *computed*, never
postulated.
"""

from __future__ import annotations

from functools import lru_cache

from .fermion import OMEGA, VACUUM, R, State, field_mode
from .formal import QSeries
from .scalars import QQ, rational_floor

__all__ = [
    "sigma_vertex_mode",
    "sigma_virasoro",
    "ground_weight",
    "sigma_L0_spectrum",
    # re-exported: the twisted sector, whose words R.basis enumerates,
    # R.check_word encodes and R.format_word prints
    "R",
]


def sigma_vertex_mode(v: State, t, target: State) -> State:
    """Lattice mode t of the twisted field of v, acting on a twisted state.

    The twisted field of v is sum_t v^s_t x^{-t-1}; for v of odd parity the
    nonzero modes sit on t in 1/2 + Z (the generator's mode t is the
    physical mode t + 1/2), for even parity on t in Z.
    """
    return field_mode(v, t, target, R.half)


def sigma_virasoro(n, s: State) -> State:
    """Twisted L(n): lattice mode n+1 of the conformal vector's twisted field."""
    return sigma_vertex_mode(OMEGA, QQ(n) + 1, s)


@lru_cache(maxsize=1)
def ground_weight() -> QQ:
    """The twisted L(0) eigenvalue on the ground space, computed exactly.

    The value (1/16) is produced by the mode recursion applied to the
    conformal vector — it is derived output, not an input constant.
    """
    # the ground vector is the empty word, the vacuum's word read on |R>
    image = sigma_virasoro(0, VACUUM)
    value = image.coefficient(())
    if image != VACUUM.scaled(value):
        raise AssertionError("twisted L(0) is not scalar on the ground vector")
    return value


def sigma_L0_spectrum(cutoff) -> QSeries:
    """Graded dimension of the twisted module up to a weight cutoff.

    Diagonalizes the twisted L(0) on the truncated basis (the recursion shows
    it is already diagonal there) and counts dimensions per eigenvalue.
    """
    cutoff = QQ(cutoff)
    base = ground_weight()
    top = rational_floor(cutoff - base)
    if top < 0:
        return QSeries(base, ())
    counts = [0] * (top + 1)
    for w in R.basis(QQ(top)):
        s = State({w: QQ(1)})
        image = sigma_virasoro(0, s)
        value = image.coefficient(w)
        if image != s.scaled(value):
            raise AssertionError(f"twisted L(0) is not diagonal at word {w}")
        slot = value - base
        if slot.denominator != 1 or slot < 0:
            raise AssertionError(f"eigenvalue {value} is off the expected lattice")
        if slot <= top:
            counts[int(slot)] += 1
    return QSeries(base, tuple(counts))
