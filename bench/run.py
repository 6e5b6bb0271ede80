"""twistfock benchmark runner.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: verify-k2, verify-k4, verify-k3-obstruction, delta-session (see
README.md); ``--workload all`` runs the four in turn.  The runner times
package start-up, then runs one job at a time, each in a fresh worker
process (so every job starts with cold caches and its peak RSS is its
own), until --seconds have passed.  Times are reference-speed seconds:
wall time rescaled by the machine speed sampled during it (speed.py), so
that the host's slow phases do not show as changes of the program.  It
prints every metric by name with its unit, the wall times, the run
metadata, and as the last line a JSON object with the keys correct,
attempted, failed and metrics.  --trace 1
alternates untraced and traced jobs and reports the per-layer metrics
instead of the end-to-end ones.  The exit code is 0 when every operation was
correct, 1 when one failed, 2 when the checkout has no library to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"

SETUP_PER_JOB = 2
MIN_JOBS = 3
MIN_TRACED_JOBS = 2
WORKER_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("suite_s", "s"),
    ("call_p50_ms", "ms"),
    ("call_p90_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def worker_env() -> dict:
    env = dict(os.environ)
    # fixed string hashing, so dict and set layouts repeat from job to job
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(args, *extra) -> subprocess.CompletedProcess:
    command = [sys.executable, str(WORKER), "--workload", args.workload,
               "--seed", str(args.seed), *extra]
    return subprocess.run(command, cwd=ROOT, env=worker_env(),
                          stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)


def ready_time(args) -> tuple:
    """Time from process start until the package is imported and the
    workload's command line parsed: (reference-speed s, wall s)."""
    start = time.perf_counter()
    done = worker(args, "--ready")
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"worker could not start (exit {done.returncode})")
    return elapsed * json.loads(done.stdout)["speed"], elapsed


def ops_per_job(workload: str) -> int:
    if workload == workloads.SESSION:
        return len(workloads.session_requests(0))
    reference = BENCH / "reference" / f"{workload}.json"
    return len(json.loads(reference.read_text(encoding="utf-8")))


def run_job(args, traced: bool) -> dict:
    try:
        done = worker(args, *(["--trace"] if traced else []))
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode == 0:
            return result
        problem = f"worker exit {done.returncode}"
    except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        problem = f"worker failed: {exc!r}"
    ops = ops_per_job(args.workload)
    return {"job_s": None, "ops": ops, "failed": ops, "errors": [problem]}


def p90(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def end_to_end(setup: list, jobs: list) -> dict:
    """Medians over the run's jobs; the call latencies are pooled over all
    of them (on the verify workloads a call is the whole job)."""
    suite = statistics.median(j["job_s"] for j in jobs)
    latencies = [ms for j in jobs for ms in j["latencies_ms"]]
    return {
        "setup_s": statistics.median(setup),
        "suite_s": suite,
        "call_p50_ms": statistics.median(latencies),
        "call_p90_ms": p90(latencies),
        "requests_per_s": jobs[0]["ops"] / suite,
        "peak_rss_mb": statistics.median(j["rss_mb"] for j in jobs),
    }


def per_layer(plain: list, traced: list, errors: list) -> dict:
    first = traced[0]["layers"]
    values = {}
    for name, unit, _ in tracing.layer_metrics():
        if name == "trace.overhead_s":
            continue
        if unit == "s":
            values[name] = statistics.median(t["layers"][name] for t in traced)
        else:
            values[name] = first[name]
    for name in tracing.EXACT:
        seen = {t["layers"][name] for t in traced}
        if len(seen) > 1:
            errors.append(f"{name} differs between traced jobs: {sorted(seen)}")
    values["trace.overhead_s"] = (
        statistics.median(t["job_s"] for t in traced)
        - statistics.median(j["job_s"] for j in plain))
    return values


def write_spans(args, traced: list) -> Path:
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "columns": ["name", "start", "end", "parent"],
        "jobs": [t["spans"] for t in traced],
    }))
    return path


def run_workload(args) -> int:
    ready_time(args)  # the first start compiles the bytecode
    setup, setup_wall, plain, traced = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        if not args.trace:
            # spread over the run, so one burst of load cannot move them all
            for _ in range(SETUP_PER_JOB):
                seconds, wall = ready_time(args)
                setup.append(seconds)
                setup_wall.append(wall)
        plain.append(run_job(args, traced=False))
        if args.trace:
            traced.append(run_job(args, traced=True))
        enough = len(plain) >= (MIN_TRACED_JOBS if args.trace else MIN_JOBS)
        if enough and time.perf_counter() >= deadline:
            break

    jobs = plain + traced
    attempted = sum(j["ops"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    errors = [e for j in jobs for e in j["errors"]]
    plain = [j for j in plain if j["job_s"] is not None]
    traced = [j for j in traced if j["job_s"] is not None]
    metrics, units = {}, {}
    if args.trace and plain and traced:
        metrics = per_layer(plain, traced, errors)
        units = {name: unit for name, unit, _ in tracing.layer_metrics()}
        missing = sorted({m for t in traced for m in t["missing"]})
        if missing:
            print("not instrumented (reported as 0): " + ", ".join(missing))
        print(f"spans written to {write_spans(args, traced).relative_to(ROOT)}")
    elif plain and not args.trace:
        metrics = end_to_end(setup, plain)
        units = dict(END_TO_END)
    correct = failed == 0 and not errors and bool(metrics)

    for error in errors[:20]:
        print(f"FAIL {error}")
    print(f"jobs: {len(plain)} untraced, {len(traced)} traced completed; "
          f"operations: {attempted} attempted, {failed} failed "
          f"(fail_ratio {failed / attempted if attempted else 0.0})")
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    if plain:
        walls = [j["wall_s"] for j in plain]
        print(f"wall time: job median {statistics.median(walls)} s over "
              f"{len(walls)} jobs (range {min(walls)}-{max(walls)} s)"
              + (f"; setup median {statistics.median(setup_wall)} s over "
                 f"{len(setup_wall)} starts" if setup_wall else ""))
    print("meta " + json.dumps(metadata(args)))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "twistfock" / "__init__.py").is_file():
        print(f"error: no twistfock package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args)
    codes = []
    for name in workloads.WORKLOADS:
        print(f"== {name}")
        codes.append(run_workload(argparse.Namespace(**{**vars(args), "workload": name})))
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
