"""One benchmark sample in a fresh process.

    python3 bench/worker.py --workload NAME [--seed N] [--trace] [--ready]

Runs one job of the workload (a cold ``twistfock verify`` call, or one
delta-apply session) against the library under ``src/`` of the checkout,
judges every output, and prints one JSON line: job time, peak RSS of this
process, operations attempted and failed, per-operation latencies, and
with ``--trace`` the per-layer values and spans.  Times are in
reference-speed seconds (see speed.py); ``wall_s`` is the job's wall time.
``--ready`` stops once the package is imported and the workload's command
line is parsed, and prints the machine's mean speed meanwhile; the runner
times such processes for ``setup_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402  (the bench directory is sys.path[0])
import workloads  # noqa: E402


def first_argv(workload: str, seed: int) -> list:
    if workload == workloads.SESSION:
        return workloads.request_argv(workloads.session_requests(seed)[0])
    return workloads.VERIFY_ARGV[workload]


def call(cli, argv) -> tuple:
    """cli.main(argv) with its standard output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def run_verify(cli, workload: str) -> dict:
    reference = (BENCH / "reference" / f"{workload}.json").read_text(encoding="utf-8")
    expected = json.loads(reference)
    start = time.perf_counter()
    code, text = call(cli, workloads.VERIFY_ARGV[workload])
    end = time.perf_counter()
    errors = []
    try:
        got = json.loads(text)
    except ValueError:
        got = []
        errors.append("output is not JSON")
    failed = sum(
        1 for i in range(max(len(got), len(expected)))
        if i >= len(got) or i >= len(expected) or got[i] != expected[i]
        or not got[i].get("as_expected")
    )
    if failed:
        errors.append(f"{failed} reports differ from reference/{workload}.json")
    elif text != reference:
        failed = 1
        errors.append(f"output is not byte-identical to reference/{workload}.json")
    if code != 0:
        errors.append(f"exit code {code}")
        failed = failed or len(expected)
    return {"span": (start, end), "calls": [(start, end)],
            "ops": len(expected), "failed": failed, "errors": errors}


def judge_response(request, code: int, text: str, digests: dict) -> str | None:
    """Why one delta-apply response is wrong, or None."""
    if code != 0:
        return f"exit code {code}"
    try:
        payload = json.loads(text)
        leading = Fraction(payload["pieces"][0]["exponent"])
    except (ValueError, KeyError, IndexError, TypeError):
        return "response is not a delta-apply JSON payload"
    if leading != workloads.leading_exponent(request):
        return f"leading exponent {leading} != {workloads.leading_exponent(request)}"
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if digests.get(workloads.request_key(request)) != digest:
        return "response differs from reference/delta-session.json"
    return None


def run_session(cli, seed: int) -> dict:
    digests = json.loads((BENCH / "reference" / "delta-session.json").read_text())
    calls, errors = [], []
    start = time.perf_counter()
    for request in workloads.session_requests(seed):
        begin = time.perf_counter()
        code, text = call(cli, workloads.request_argv(request))
        calls.append((begin, time.perf_counter()))
        problem = judge_response(request, code, text, digests)
        if problem:
            errors.append(f"{workloads.request_key(request)}: {problem}")
    end = time.perf_counter()
    return {"span": (start, end), "calls": calls, "ops": len(calls),
            "failed": len(errors), "errors": errors[:10]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--ready", action="store_true")
    args = parser.parse_args(argv)

    clock = speed.SpeedClock()
    clock.start()
    from twistfock import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported {cli.__file__}, not the checkout's src/",
              file=sys.stderr)
        return 2
    cli.build_parser().parse_args(first_argv(args.workload, args.seed))
    if args.ready:
        clock.stop()
        print(json.dumps({"speed": clock.mean_speed()}))
        return 0

    import tracing

    modules = tracing.package_modules()
    caches = tracing.lru_caches(modules)
    for cache in caches.values():
        cache.cache_clear()
    iterate = modules["fermion"].iterate_mode_word
    solve_aj = modules["deltak"].solve_aj
    tracer = tracing.Tracer(modules) if args.trace else None
    if tracer:
        tracer.install()
    try:
        if args.workload == workloads.SESSION:
            result = run_session(cli, args.seed)
        else:
            result = run_verify(cli, args.workload)
    finally:
        clock.stop()
        if tracer:
            tracer.uninstall()
    start, end = result.pop("span")
    result["wall_s"] = end - start
    result["job_s"] = clock.seconds(start, end)
    result["latencies_ms"] = [clock.seconds(b, e) * 1e3
                              for b, e in result.pop("calls")]
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["caches"] = sorted(caches)
    if tracer:
        info = iterate.cache_info()
        layers = tracer.layers({
            "iterate_hits": info.hits,
            "iterate_misses": info.misses,
            "iterate_entries": info.currsize,
            "solve_aj_misses": solve_aj.cache_info().misses,
        })
        # layer times are wall times: rescale them as the job's time was
        scale = result["job_s"] / result["wall_s"]
        units = {name: unit for name, unit, _ in tracing.layer_metrics()}
        result["layers"] = {name: value * scale if units[name] == "s" else value
                            for name, value in layers.items()}
        result["spans"] = tracer.spans
        result["missing"] = tracer.missing
        if not tracer.accounted():
            result["errors"].append("span self times do not add up to the job time")
            result["failed"] = result["failed"] or 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
