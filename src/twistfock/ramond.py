"""The two names of the parity-twisted (Ramond) module that the
benchmark's layer tracer reads.

Every fact of the module lives on `fermion.R`, the `fermion.Sector` on
|R>: the modes of a twisted field (`R.mode`), the twisted Virasoro modes
(`R.virasoro`), the ground weight 1/16, computed by the mode recursion and
never postulated (`R.ground_weight`), and the L(0) spectrum
(`R.spectrum`).  Here `sigma_vertex_mode` is `R.mode`, and `ground_weight`
is `R.ground_weight` behind the package's one cache of it, which
`twist.TwistedModuleView` reads per word.
"""

from functools import lru_cache

from .fermion import R

__all__ = ["sigma_vertex_mode", "ground_weight"]

sigma_vertex_mode = R.mode
ground_weight = lru_cache(maxsize=1)(R.ground_weight)
