"""`twistfock.clear_caches` empties every cache of the package.

The caches are found, not listed: every `functools.lru_cache` wrapper
bound in a module of the package, as `bench/tracing.py` finds them.  Each
must hold an entry after the warm-up below and none after the call, so a
cache added later fails this test until `clear_caches` empties it and the
warm-up fills it.
"""

import importlib
import pkgutil

import twistfock
from twistfock import clear_caches
from twistfock.deltak import INVERSE, apply_delta
from twistfock.fermion import OMEGA, PSI, VACUUM
from twistfock.ramond import ground_weight, sigma_vertex_mode
from twistfock.scalars import QQ, eta_powers
from twistfock.twist import SlotField


def package_caches() -> dict:
    """Every lru_cache wrapper bound in the package, by its defining
    module and name."""
    modules = [twistfock] + [
        importlib.import_module(f"twistfock.{info.name}")
        for info in pkgutil.iter_modules(twistfock.__path__)
    ]
    return {
        f"{value.__module__}.{value.__name__}": value
        for module in modules
        for value in vars(module).values()
        if hasattr(value, "cache_info") and hasattr(value, "cache_clear")
    }


def warm_up():
    apply_delta(4, OMEGA)
    apply_delta(2, PSI, INVERSE)  # 2^{1/2}: a cyclotomic prefactor
    sigma_vertex_mode(OMEGA, QQ(0), VACUUM)
    ground_weight()
    eta_powers(4)
    SlotField(4, PSI, 1)


def test_every_package_cache_is_emptied():
    caches = package_caches()
    assert "twistfock.deltak._word_expansion" in caches
    assert "twistfock.fermion.iterate_mode_word" in caches
    assert "twistfock.twist.eta_scalars" in caches
    warm_up()
    assert [name for name, cache in sorted(caches.items())
            if cache.cache_info().currsize == 0] == []
    clear_caches()
    assert [name for name, cache in sorted(caches.items())
            if cache.cache_info().currsize != 0] == []
