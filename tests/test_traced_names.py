"""Every name the benchmark's layer tracer patches still exists.

The tracer (`bench/tracing.py`) wraps library functions and methods by
name; a renamed or deleted one is reported in `Tracer.missing` and its
metrics silently read 0.  This test loads the tracer from its file, without
changing it, installs it on the package, checks that nothing is missing and
uninstalls it again.
"""

import ast
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_name():
    tracing = load_tracing()
    tracer = tracing.Tracer(tracing.package_modules())
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    from twistfock import ramond, verify

    # the native parity-twisted families call the traced function by this
    # name (slot-field modes sum their pieces through fermion.mode_sum)
    assert verify.sigma_vertex_mode is ramond.sigma_vertex_mode


def test_ramond_binds_only_the_names_the_tracer_reads():
    # `ramond` is two names of the Ramond sector `fermion.R`, kept for the
    # tracer: the timed `sigma_vertex_mode` and the cached `ground_weight`.
    # Any other name defined or exported there fails here, and so does the
    # module once the tracer reads neither: then it can be deleted
    from twistfock import ramond
    from twistfock.fermion import R

    tracing = load_tracing()
    timed = {attr for module, attr, _ in tracing.TIMERS if module == "ramond"}
    cached = {name.split(".", 1)[1]
              for name in tracing.lru_caches(tracing.package_modules())
              if name.startswith("ramond.")}
    tree = ast.parse(Path(ramond.__file__).read_text())
    defined = {target.id for node in tree.body if isinstance(node, ast.Assign)
               for target in node.targets} | {
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert timed and cached
    assert defined - {"__all__"} == set(ramond.__all__) == timed | cached
    # each is a sector method, not a second body
    assert ramond.sigma_vertex_mode == R.mode
    assert ramond.ground_weight.__wrapped__ == R.ground_weight


def test_tracer_sees_every_check():
    # a check called through any name but its `verify` binding would read
    # 0 in every bench span; the two runs below call each check at least once
    from twistfock.scalars import QQ
    from twistfock import verify

    tracing = load_tracing()
    tracer = tracing.Tracer(tracing.package_modules())
    tracer.install()
    try:
        # the verify-k2 workload of bench/workloads.py, then odd order
        verify.run_suite(verify.SuiteConfig(
            k=2, radius=QQ(0), domain_level=QQ(1), weight=QQ(1), depth=2))
        # the expanded-product checks read their mode families through
        # the one traced method, or the per-layer count would read 0
        assert tracer.counts["verify.mode_family.calls"] > 0
        before = tracer.counts["formal"]
        verify.run_suite(verify.SuiteConfig(k=3, radius=QQ(1, 2)))
        formal_calls = tracer.counts["formal"] - before
    finally:
        tracer.uninstall()
    # the formal layer's calls per k = 3 suite: the six delta identities,
    # the compare_series call inside each, the cover map's compare_series
    # and the translation derivative's two compare_fields
    assert formal_calls == 6 + 6 + 1 + 2
    unseen = [check for check in tracing.CHECKS
              if tracer.compared[tracing.check_metric(check)] == 0]
    assert unseen == []
