"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import call  # noqa: E402  (also puts src/ on sys.path)


def traced_job(workload: str, seed: int = 0) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace"],
        stdout=subprocess.PIPE, text=True, check=True, env=run.worker_env())
    return json.loads(done.stdout.splitlines()[-1])


def test_tracing_leaves_suite_json_byte_identical():
    modules = tracing.package_modules()
    cli = modules["cli"]
    argv = workloads.VERIFY_ARGV["verify-k2"]
    _, plain = call(cli, argv)
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        _, traced = call(cli, argv)
    finally:
        tracer.uninstall()
    assert tracer.spans and not tracer.missing and tracer.accounted()
    assert traced == plain
    assert plain == (BENCH / "reference" / "verify-k2.json").read_text()


def test_speed_clock_rescales_slow_stretches():
    # one second at full speed, then one at half speed, sampled every 0.1 s
    ref = speed.REFERENCE_S
    clock = speed.SpeedClock()
    clock.starts = [t / 10 for t in range(20)]
    clock.durations = [ref if t < 10 else 2 * ref for t in range(20)]
    assert abs(clock.seconds(0.0, 1.0) - (1 - 10 * ref)) < 1e-12
    assert abs(clock.seconds(1.0, 2.0) - (1 - 20 * ref) / 2) < 1e-12
    assert abs(clock.seconds(0.0, 2.0) - (2 - 30 * ref) * 0.75) < 1e-12
    # a stretch with fewer samples than LOCAL_SAMPLES takes the local speed
    assert clock.seconds(1.51, 1.52) == (1.52 - 1.51) / 2


def test_request_stream_is_deterministic_per_seed():
    first = workloads.session_requests(7)
    assert first == workloads.session_requests(7)
    assert first != workloads.session_requests(8)
    universe = workloads.request_universe()
    assert sorted(first) == sorted(universe * workloads.SESSION_PASSES
                                   + first[3::4])
    assert all(first[i] in first[i - 3:i] for i in range(3, len(first), 4))


def test_request_universe_has_stored_digests():
    digests = json.loads((BENCH / "reference" / "delta-session.json").read_text())
    assert set(digests) == {workloads.request_key(r)
                            for r in workloads.request_universe()}


def test_exact_counters_repeat_between_traced_runs():
    for workload in ("verify-k2", "delta-session"):
        a, b = traced_job(workload), traced_job(workload)
        assert a["failed"] == b["failed"] == 0, a["errors"] + b["errors"]
        for name in tracing.EXACT:
            assert a["layers"][name] == b["layers"][name], (workload, name)
        assert a["layers"]["fermion.iterate.misses"] > 0
        # every lru_cache of the package was emptied before the job
        assert {"fermion.iterate_mode_word", "deltak.solve_aj",
                "ramond.ground_weight", "scalars.cyclotomic_poly",
                "scalars.euler_phi", "scalars.cyc_sqrt_k"} <= set(a["caches"])


def test_benchmark_json_lists_the_runner_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(row) for row in tracing.layer_metrics()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_runner_refuses_a_checkout_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-k2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
