"""The suite must see a wrong engine: defects planted in the exact core.

Each test plants one defect by monkeypatching a module-level name, runs
`run_suite` at one configuration where the defect is caught, and asserts
that some report is not as expected, or that the run is refused because a
check compared nothing.  `clear_caches()` runs before and after each plant,
so no cached value computed with the defect outlives it, and none computed
without it hides it.  No defect is pinned as missed.

The defects, numbered as in the ROADMAP's table of planted engine defects:

3. the twisted-sector zero mode inserts with coefficient +-1, not doubled
   (`fermion._apply2`);
5. the twisted correction terms of the recursion are dropped
   (`fermion._half_binomial` gives 0);
6. the exchange sign of two composed fields is always +1 (`verify._pair`);
7. the residue kernel loses its sign (-1)^t (`verify._signed_binomials`);
8. the field product keeps only its bracket i = 0, dropping the C(r/k, i)
   corrections (`verify._field_product_brackets`);
9. the slot scalars take eta^{-j} for eta^j (`twist`'s `eta_powers`).
"""

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
