"""Graded dimensions against closed-form product characters.

Oracle notes.  The parity-twisted module has the character
q^{1/16} 2 prod_{n>=1} (1 + q^n): the zero mode doubles the ground space and
every positive integer mode is a free fermionic creation operator.  The
untwisted module has the character prod_{n>=1} (1 + q^{n-1/2}).  Both
products are expanded here by plain integer polynomial multiplication, so
the oracle shares no code with the mode recursion, the Fock bases or the
graded-dimension routines it is compared against.
"""

import pytest

from twistfock.fermion import NS, R
from twistfock.scalars import QQ
from twistfock.twist import TwistedModuleView

CUTOFF = 7


def product_expansion(leading, exponents, top) -> list:
    """Coefficients of leading * prod_e (1 + t^e), truncated after t^top."""
    poly = [leading] + [0] * top
    for e in exponents:
        for d in range(top, e - 1, -1):
            poly[d] += poly[d - e]
    return poly


def twisted_character(top) -> list:
    """2 prod_{n>=1} (1 + q^n) up to q^top."""
    return product_expansion(2, range(1, top + 1), top)


def untwisted_character(top_half) -> list:
    """prod_{n>=1} (1 + q^{n-1/2}) in powers of q^{1/2}, up to q^{top_half/2}."""
    return product_expansion(1, range(1, top_half + 1, 2), top_half)


def test_oracle_expansions():
    assert twisted_character(7) == [2, 2, 2, 4, 4, 6, 8, 10]
    assert untwisted_character(8) == [1, 1, 0, 1, 1, 1, 1, 1, 2]


def test_sigma_L0_spectrum_matches_product():
    spectrum = R.spectrum(QQ(1, 16) + CUTOFF)
    assert spectrum.offset == QQ(1, 16)
    assert spectrum.step == 1
    assert list(spectrum.coeffs) == twisted_character(CUTOFF)


@pytest.mark.parametrize("k", [2, 4, 6])
def test_twisted_module_graded_dimension_matches_product(k):
    series = TwistedModuleView(k, CUTOFF).graded_dimension()
    assert series.step == QQ(1, k)
    assert list(series.coeffs) == twisted_character(CUTOFF)


def test_untwisted_L0_eigenvalue_counts_match_product():
    top_half = 10  # weights up to 5
    spectrum = NS.spectrum(QQ(top_half, 2))
    assert spectrum.offset == 0
    assert spectrum.step == QQ(1, 2)
    assert list(spectrum.coeffs) == untwisted_character(top_half)
