"""The suite must see a wrong engine: defects planted in the exact core.

Each test plants one defect, runs `run_suite` at one configuration where
the defect is caught, and asserts that some report is not as expected, or
that the run is refused because a check compared nothing.  A defect in a
module-level name is planted by monkeypatching it, with `clear_caches()`
before and after, so no cached value computed with the defect outlives it,
and none computed without it hides it.  A defect inside a function body is
planted as a source mutant: one substitution, which must match exactly
once, in a copy of the package, whose suite runs in a fresh interpreter.
No defect is pinned as missed.

The defects, numbered as in the ROADMAP's table of planted engine defects:

3. the twisted-sector zero mode inserts with coefficient +-1, not doubled
   (`fermion._apply2`);
4. the sign of the recursion's second sum is flipped
   (`fermion.iterate_mode_word`, a source mutant);
5. the twisted correction terms of the recursion are dropped
   (`fermion._half_binomial` gives 0);
6. the exchange sign of two composed fields is always +1 (`verify._pair`);
7. the residue kernel loses its sign (-1)^t (`verify._signed_binomials`);
8. the field product keeps only its bracket i = 0, dropping the C(r/k, i)
   corrections (`verify._field_product_brackets`);
9. the slot scalars take eta^{-j} for eta^j (`twist`'s `eta_powers`);
10. the residue prefactor 2/S of the commutator is halved
    (`verify._commutator_report`, a source mutant).

Five defects of the delta-kernel builder (`formal.merged_delta_kernel` and
`formal.verify_delta_identity`), each a source mutant, must each turn some
`delta-identity-*` report wrong at the default radius, k = 2 and k = 3:

K1. the step of the numerator product uses (E - (i+1)·scale);
K2. the sign-reversed bottom drops its (-1)^e;
K3. DF2 sums only k - 1 of its k shifts;
K4. the expansion sign (±1)^i is ignored;
K5. the rescale to the shared denominator is dropped.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from twistfock import clear_caches, fermion, twist, verify
from twistfock.scalars import ONE, QQ, binomial
from twistfock.verify import SuiteConfig, run_suite

K2 = SuiteConfig(k=2)
K2_OFF = SuiteConfig(k=2, jacobi=False)
K3 = SuiteConfig(k=3)
K4_OFF = SuiteConfig(k=4, jacobi=False)

_apply2 = fermion._apply2
_pair = verify._pair
_field_product_brackets = verify._field_product_brackets
_eta_powers = twist.eta_powers


def undoubled_zero_mode(word: tuple, m2: int) -> tuple:
    pairs = _apply2(word, m2)
    if m2 == 0 and pairs and len(pairs[0][0]) > len(word):
        return tuple((new, c // 2) for new, c in pairs)
    return pairs


PLANTS = {
    "3-zero-mode-not-doubled": (fermion, "_apply2", undoubled_zero_mode),
    "5-twisted-correction-dropped": (
        fermion, "_half_binomial", lambda i: (0, 1)),
    "6-exchange-sign-plus-one": (
        verify, "_pair", lambda left, right: _pair(left, right)._replace(eps=ONE)),
    "7-kernel-sign-dropped": (
        verify, "_signed_binomials",
        lambda e, step, orders: [binomial(QQ(e + step * t, step), t)
                                 for t in orders]),
    "8-product-corrections-dropped": (
        verify, "_field_product_brackets",
        lambda *args: _field_product_brackets(*args)[:1]),
    "9-inverse-root-in-slot-scalars": (
        twist, "eta_powers",
        lambda k: tuple(_eta_powers(k)[-j % k] for j in range(k))),
}


def planted_run(plant: str, config: SuiteConfig) -> list:
    """The suite's reports with one defect planted, or the refusal."""
    module, name, value = PLANTS[plant]
    clear_caches()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, name, value)
            return run_suite(config)
    finally:
        clear_caches()


def config_id(config: SuiteConfig) -> str:
    return f"k{config.k}" + ("" if config.jacobi else "-jacobi-off")


@pytest.mark.parametrize("plant,config", [
    ("3-zero-mode-not-doubled", K3),
    ("5-twisted-correction-dropped", K3),
    ("6-exchange-sign-plus-one", K3),
    ("7-kernel-sign-dropped", K4_OFF),
    ("8-product-corrections-dropped", K2),
    ("9-inverse-root-in-slot-scalars", K4_OFF),
], ids=lambda value: value if isinstance(value, str) else config_id(value))
def test_planted_defect_fails_a_report(plant, config):
    reports = planted_run(plant, config)
    assert any(not report.as_expected for report in reports)


def test_exchange_sign_plus_one_is_refused_at_even_order():
    # with the sign +1 no power up to the search bound kills the (psi, psi)
    # bracket, and the last power's sub-grid is empty: locality compares
    # nothing
    with pytest.raises(ValueError, match="no coefficients compared"):
        planted_run("6-exchange-sign-plus-one", K2_OFF)


@pytest.mark.parametrize("config", [K2, K3, K4_OFF], ids=config_id)
def test_unplanted_suite_is_as_expected(config):
    clear_caches()
    assert all(report.as_expected for report in run_suite(config))


SRC = Path(__file__).resolve().parents[1] / "src"

# (module, the line as it stands, the line with the defect)
MUTANTS = {
    "4-second-sum-sign-flipped": (
        "fermion",
        "sign = -1 if (len(rest) + n) & 1 == 0 else 1",
        "sign = 1 if (len(rest) + n) & 1 == 0 else -1"),
    "10-residue-prefactor-halved": (
        "verify", "prefactor = QQ(2, step)", "prefactor = QQ(1, step)"),
}

KERNEL_MUTANTS = {
    "K1-product-step-off-by-one": (
        "formal", "product *= E - i * scale", "product *= E - (i + 1) * scale"),
    "K2-reversed-bottom-sign-dropped": (
        "formal", "sign = -1 if bottom_sign == -1 and E // scale & 1 else 1",
        "sign = 1"),
    "K3-df2-one-shift-short": (
        "formal", "for p in range(k)])", "for p in range(k - 1)])"),
    "K4-second-sign-ignored": (
        "formal", "weights = [second_sign ** i * rescale[i] for",
        "weights = [rescale[i] for"),
    "K5-shared-denominator-rescale-dropped": (
        "formal", "weights = [second_sign ** i * rescale[i] for",
        "weights = [second_sign ** i for"),
}

# run_suite on the mutated copy at each order, printing each report's name
# and whether it is as expected
RUN_SUITE = """
import json
from twistfock.verify import SuiteConfig, run_suite
print(json.dumps([[[r.name, r.as_expected] for r in run_suite(SuiteConfig(k=k))]
                  for k in {orders}]))
"""


def mutant_run(tmp_path, mutant: str, *orders: int) -> list:
    """Per order k, the (name, as expected) pairs of the suite, run on a
    copy of the package with one source mutant planted."""
    module, line, planted = (MUTANTS | KERNEL_MUTANTS)[mutant]
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    path = copy / "twistfock" / f"{module}.py"
    text = path.read_text()
    assert text.count(line) == 1, (mutant, line)
    path.write_text(text.replace(line, planted))
    done = subprocess.run(
        [sys.executable, "-c", RUN_SUITE.format(orders=orders)], cwd=tmp_path,
        env={"PYTHONPATH": str(copy), "PYTHONDONTWRITEBYTECODE": "1"},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_planted_source_mutant_fails_a_report(tmp_path, mutant):
    [reports] = mutant_run(tmp_path, mutant, 3)
    assert reports
    assert not all(as_expected for _, as_expected in reports)


@pytest.mark.parametrize("mutant", list(KERNEL_MUTANTS))
def test_planted_kernel_defect_fails_a_delta_identity(tmp_path, mutant):
    for k, reports in zip((2, 3), mutant_run(tmp_path, mutant, 2, 3)):
        assert any(not as_expected for name, as_expected in reports
                   if name.startswith("delta-identity-")), k
