"""Tests for exact rational and cyclotomic scalar arithmetic."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistfock.scalars import (
    MAX_CONDUCTOR,
    QQ,
    CycScalar,
    binomial,
    complex_embedding,
    cyc_sqrt_k,
    cyclotomic_poly,
    eta_k,
    eta_powers,
    euler_phi,
    integral_split,
    k_to_the,
)

ORDERS = [1, 2, 3, 4, 6]


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


@st.composite
def rationals(draw):
    num = draw(st.integers(min_value=-40, max_value=40))
    den = draw(st.integers(min_value=1, max_value=12))
    return QQ(num, den)


@st.composite
def cyc_scalars(draw, conductor=8):
    degree = euler_phi(conductor)
    coeffs = draw(st.lists(rationals(), min_size=degree, max_size=degree))
    return CycScalar(conductor, coeffs)


# ---------------------------------------------------------------------------
# frozen examples
# ---------------------------------------------------------------------------


class TestExamples:
    def test_root_of_unity_half_turn(self):
        assert CycScalar.root_of_unity(8, 4) == -1

    def test_root_of_unity_quarter_turn_squares_to_minus_one(self):
        assert CycScalar.root_of_unity(8, 2) ** 2 == -1

    def test_sqrt2_power_basis_form(self):
        z8 = CycScalar.root_of_unity(8, 1)
        assert cyc_sqrt_k(2) == z8 + z8**-1

    @pytest.mark.parametrize("k", ORDERS)
    def test_sqrt_squares_to_k(self, k):
        s = cyc_sqrt_k(k)
        assert s * s == k

    @pytest.mark.parametrize("k", ORDERS)
    def test_sqrt_positive_in_real_embedding(self, k):
        assert abs(complex_embedding(cyc_sqrt_k(k)) - math.sqrt(k)) < 1e-9

    def test_conductor_mismatch_raises(self):
        a = CycScalar.root_of_unity(8, 1)
        b = CycScalar.root_of_unity(12, 1)
        with pytest.raises(ValueError, match="conductor mismatch"):
            a * b

    def test_conductor_ceiling(self):
        assert CycScalar(MAX_CONDUCTOR, [1]).coeffs[0] == 1
        with pytest.raises(ValueError, match="exceeds the ceiling"):
            CycScalar(MAX_CONDUCTOR + 1, [1])
        # refused before k is factored, which would take minutes here
        with pytest.raises(ValueError, match="exceeds the ceiling"):
            cyc_sqrt_k(10**18 + 3)

    def test_rational_elements_refuse_another_conductor(self):
        # a rational value does not make an element conductor-free
        a = CycScalar.from_rational(QQ(1, 2), 8)
        b = CycScalar.from_rational(QQ(1, 2), 12)
        for op in (lambda: a + b, lambda: a * b, lambda: a == b):
            with pytest.raises(ValueError, match="conductor mismatch"):
                op()

    def test_half_integer_power_of_k(self):
        assert k_to_the(2, QQ(-1, 2)) * cyc_sqrt_k(2) == 1
        assert k_to_the(4, QQ(3, 2)) == 8
        assert k_to_the(2, 3) == 8

    def test_cyclotomic_poly_degree_eight(self):
        # Phi_8 = t^4 + 1
        assert cyclotomic_poly(8) == (QQ(1), QQ(0), QQ(0), QQ(0), QQ(1))

    def test_binomial_fractional(self):
        assert binomial(QQ(1, 2), 2) == QQ(-1, 8)
        assert binomial(-2, 3) == -4
        assert binomial(QQ(1, 2), 0) == 1


# ---------------------------------------------------------------------------
# eta orthogonality
# ---------------------------------------------------------------------------


class TestEtaOrthogonality:
    @pytest.mark.parametrize("k", ORDERS)
    def test_root_sum_detects_divisibility(self, k):
        """sum_j eta^(j*m) = k exactly when k | m, else 0."""
        eta = eta_k(k)
        for m in range(k * 4 * k):
            total = sum((eta**m) ** j for j in range(k))
            expected = k if m % k == 0 else 0
            assert total == expected

    @pytest.mark.parametrize("k", ORDERS)
    def test_eta_is_primitive(self, k):
        eta = eta_k(k)
        assert eta**k == 1
        for j in range(1, k):
            assert eta**j != 1

    @pytest.mark.parametrize("k", ORDERS)
    def test_eta_powers_are_cached_powers(self, k):
        powers = eta_powers(k)
        assert powers is eta_powers(k)
        assert powers == tuple(eta_k(k) ** i for i in range(k))


# ---------------------------------------------------------------------------
# field axioms (property tests)
# ---------------------------------------------------------------------------


class TestFieldAxioms:
    @given(cyc_scalars(), cyc_scalars(), cyc_scalars())
    def test_distributive(self, a, b, c):
        """a*(b + c) = a*b + a*c."""
        assert a * (b + c) == a * b + a * c

    @given(cyc_scalars(), cyc_scalars())
    def test_commutative(self, a, b):
        """a + b = b + a and a*b = b*a."""
        assert a + b == b + a
        assert a * b == b * a

    @given(cyc_scalars(), cyc_scalars(), cyc_scalars())
    def test_associative_mul(self, a, b, c):
        """(a*b)*c = a*(b*c)."""
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=60)
    @given(st.sampled_from([8, 12, 24]).flatmap(cyc_scalars))
    def test_multiplicative_inverse(self, a):
        """a * a^-1 = 1 for nonzero a, in the fields of k = 2, 3 and 6."""
        if not a.is_zero():
            assert a * a.inverse() == 1

    @given(cyc_scalars())
    def test_additive_inverse(self, a):
        """a + (-a) = 0."""
        assert (a + (-a)).is_zero()

    @given(cyc_scalars(), rationals())
    def test_rational_fast_path_agrees(self, a, q):
        """Scaling by a rational equals multiplying by the embedded rational."""
        assert a * q == a * CycScalar.from_rational(q, a.conductor)

    @given(st.sampled_from([8, 12, 24]).flatmap(
        lambda n: st.tuples(cyc_scalars(n), cyc_scalars(n))))
    def test_integral_product_stays_in_ints(self, pair):
        """The product of two int-coordinate numerators has int
        coordinates, and the value of the product of the validated
        elements."""
        a, b = pair
        (num_a, den_a), (num_b, den_b) = integral_split(a), integral_split(b)
        product = num_a * num_b
        assert all(type(c) is int for c in product.coeffs)
        assert product == a * b * (den_a * den_b)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
