"""Exact computer algebra for cyclic-permutation-twisted modules over
tensor powers of the free-fermion vertex operator superalgebra.

The package constructs parity-twisted (Ramond-sector) modules, transports
them across the tensor-power twist via an exponentiated-Virasoro change of
coordinates, and verifies every structural identity coefficient-exactly
inside explicit exponent windows.
"""

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every cache of the package, so that the next call recomputes
    what it reads: the mode recursion and its half-binomials, the
    coordinate change's per-word pieces and expansions and its a_j tables,
    the Ramond ground weight, the generalized binomials and the
    cyclotomic tables."""
    from . import deltak, fermion, ramond, scalars

    for cache in (
        fermion.iterate_mode_word,
        fermion._half_binomial,
        deltak._word_drops,
        deltak._word_expansion,
        deltak.solve_aj,
        ramond.ground_weight,
        scalars.binomial,
        scalars.euler_phi,
        scalars.cyclotomic_poly,
        scalars._reduction_rows,
        scalars.cyc_sqrt_k,
        scalars.eta_powers,
    ):
        cache.cache_clear()
