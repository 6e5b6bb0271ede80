"""The benchmark's verify reports, byte for byte.

The three command lines below are the verify workloads of the benchmark
(`bench/workloads.py`), written out here so that this test does not depend
on the benchmark's code.  Each report must equal its stored reference in
`bench/reference/<name>.json` exactly, so a change that alters any verdict,
count or rendered coefficient fails here, without running the benchmark.
The files are only read.

The default-window `verify --k 2 --jacobi off` run is pinned by the SHA-256
of its report: it runs the recovered-field and rebuild checks on their full
windows, which the reduced benchmark windows do not reach.
"""

import hashlib
from pathlib import Path

import pytest

from twistfock.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"

VERIFY_ARGV = {
    "verify-k2": [
        "verify", "--k", "2", "--radius", "0", "--domain-level", "1",
        "--weight", "1", "--depth", "2", "--format", "json",
    ],
    "verify-k4": [
        "verify", "--k", "4", "--jacobi", "off", "--radius", "1/4",
        "--domain-level", "1/2", "--weight", "1", "--depth", "2",
        "--format", "json",
    ],
    "verify-k3-obstruction": [
        "verify", "--k", "3", "--expect-obstruction", "--format", "json",
    ],
}

DEFAULT_K2_ARGV = ["verify", "--k", "2", "--jacobi", "off", "--format", "json"]
DEFAULT_K2_SHA256 = (
    "aa568db5710cff8768ebc9a9ba134e409d320fab1ac72ee3962138216b3b1024"
)


@pytest.mark.parametrize("name", sorted(VERIFY_ARGV))
def test_report_matches_reference(capsys, name):
    code = main(VERIFY_ARGV[name])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    expected = (REFERENCE / f"{name}.json").read_text(encoding="utf-8")
    assert captured.out == expected


def test_default_k2_report_matches_pinned_hash(capsys):
    code = main(DEFAULT_K2_ARGV)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    digest = hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
    assert digest == DEFAULT_K2_SHA256
