"""Regenerate the stored outputs the benchmark judges against.

    python3 bench/make_reference.py

Writes reference/<workload>.json (the suite JSON of each verify workload)
and reference/delta-session.json (the SHA-256 of the response to every
request the session generator can draw).  Run it only when a change is
meant to alter these outputs, and say so in the change.
"""

from __future__ import annotations

import hashlib
import json
import sys

from worker import BENCH, judge_response, call
import workloads
from twistfock import cli


def main() -> int:
    out = BENCH / "reference"
    out.mkdir(exist_ok=True)
    for name, argv in workloads.VERIFY_ARGV.items():
        code, text = call(cli, argv)
        reports = json.loads(text)
        if code != 0 or not all(r["as_expected"] for r in reports):
            print(f"{name}: suite not as expected (exit {code})", file=sys.stderr)
            return 1
        (out / f"{name}.json").write_text(text, encoding="utf-8")
    digests = {}
    for request in workloads.request_universe():
        code, text = call(cli, workloads.request_argv(request))
        key = workloads.request_key(request)
        digests[key] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        problem = judge_response(request, code, text, digests)
        if problem:
            print(f"{key}: {problem}", file=sys.stderr)
            return 1
    (out / "delta-session.json").write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
