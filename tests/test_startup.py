"""Start-up cost of the package, and the records that keep it low.

Importing `dataclasses` also imports `inspect`, `ast`, `dis` and `tokenize`,
and every decorated class execs its generated methods when it is created,
so the package defines its records without it: the frozen ones as
`collections.namedtuple` subclasses (or, for `CheckReport`, which the
benchmark's tracer must not mistake for a tuple of reports, a `__slots__`
class in `fermion.State`'s idiom), the mutable `ComparisonResult` as a
plain `__slots__` class.  These tests pin both halves: a fresh interpreter
that imports the command-line front end has neither module loaded, and
each frozen record keeps the dataclass behaviour it replaced (fields,
defaults, field-wise equality and hash, repr, immutability).
"""

import subprocess
import sys

import pytest

from twistfock.deltak import DeltaExpansion, solve_aj
from twistfock.formal import ComparisonResult, QSeries
from twistfock.scalars import QQ
from twistfock.twist import TwistedModuleView
from twistfock.verify import CheckReport, SuiteConfig


def test_cli_import_leaves_dataclasses_and_inspect_out():
    code = (
        "import sys, twistfock.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


FROZEN = [
    (lambda: solve_aj(2, 2), "values"),
    (lambda: DeltaExpansion(2, "forward", QQ(1, 2), QQ(1), ()), "pieces"),
    (lambda: QSeries(QQ(1, 48), (1, 1)), "coeffs"),
    (lambda: TwistedModuleView(2, 3), "cutoff"),
    (lambda: CheckReport("name", 2, "w", 1, ()), "compared"),
    (lambda: SuiteConfig(), "k"),
]


@pytest.mark.parametrize("make, field", FROZEN)
def test_frozen_record_refuses_assignment(make, field):
    record = make()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.extra = 0
    assert getattr(record, field) is before


@pytest.mark.parametrize("make, field", FROZEN)
def test_frozen_record_compares_and_hashes_by_fields(make, field):
    a, b = make(), make()
    assert a == b and hash(a) == hash(b)


def test_check_report_equality_hash_and_repr():
    report = CheckReport("name", 2, "w", 1, (("at", "1", "2"),))
    assert report == CheckReport("name", 2, "w", 1, (("at", "1", "2"),))
    assert report != CheckReport("name", 2, "w", 1, (("at", "1", "2"),), "fail")
    assert hash(report) == hash(CheckReport("name", 2, "w", 1, (("at", "1", "2"),)))
    assert repr(report) == (
        "CheckReport(name='name', k=2, window='w', compared=1, "
        "mismatches=(('at', '1', '2'),), expected_verdict='pass', detail='')"
    )


def test_records_keep_defaults_and_repr():
    assert SuiteConfig() == SuiteConfig(2, 4, QQ(3, 2), QQ(2), QQ(2), 4, True)
    assert SuiteConfig(k=4, jacobi=False).jacobi is False
    assert repr(TwistedModuleView(2, 3)) == "TwistedModuleView(k=2, cutoff=3)"
    series = QSeries(0, [1.0, 2])
    assert (series.offset, series.coeffs, series.step) == (QQ(0), (1, 2), QQ(1))
    with pytest.raises(ValueError, match="step must be positive"):
        QSeries(0, (), 0)


def test_mutable_records():
    result = ComparisonResult("name")
    result.compare("at", 1, 2)
    assert result == ComparisonResult("name", 1, [("at", 1, 2)])
    assert repr(result) == (
        "ComparisonResult(name='name', compared=1, mismatches=[('at', 1, 2)])"
    )
