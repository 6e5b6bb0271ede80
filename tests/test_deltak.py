"""Tests for the graded coordinate-change operator and its identities."""

from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from twistfock import deltak
from twistfock.cli import main
from twistfock.scalars import QQ, ZERO, ONE, binomial, cyc_sqrt_k, k_to_the
from twistfock.fermion import (
    OMEGA,
    PSI,
    VACUUM,
    CENTRAL_CHARGE,
    NS,
    State,
    word_level,
    word_parity,
)
from twistfock.deltak import (
    FORWARD,
    INVERSE,
    AjTable,
    MAX_CONJUGATION_DEPTH,
    MAX_TABLE_DEPTH,
    apply_delta,
    check_L_minus1_identities,
    check_conjugation,
    check_f_composition,
    covering_depth,
    round_trip_defect,
    solve_aj,
    _RootPowers,
    _conjugation_lhs,
    _conjugation_rhs,
)


class TestCoefficientTable:
    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_first_coefficient(self, k):
        assert solve_aj(k, 4).a(1) == QQ(1 - k, 2)

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_second_coefficient(self, k):
        assert solve_aj(k, 4).a(2) == QQ(k * k - 1, 12)

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_third_coefficient(self, k):
        assert solve_aj(k, 4).a(3) == -QQ((k + 1) ** 2 * (k - 1), 48)

    def test_third_coefficient_k2_value(self):
        assert solve_aj(2, 3).a(3) == QQ(-3, 16)

    def test_k1_table_vanishes(self):
        assert all(a == 0 for a in solve_aj(1, 6).values)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_depth_independence(self, k):
        shallow = solve_aj(k, 4).values
        deep = solve_aj(k, 9).values
        assert deep[:4] == shallow

    def test_memoized_identity(self):
        assert solve_aj(3, 5) is solve_aj(3, 5)

    def test_rows_and_csv(self, capsys):
        table = solve_aj(2, 3)
        assert table.rows() == [(1, QQ(-1, 2)), (2, QQ(1, 4)), (3, QQ(-3, 16))]
        assert main(["ajcoeffs", "--k", "2", "--depth", "3", "--format", "csv"]) == 0
        assert capsys.readouterr().out == "j,a_j\n1,-1/2\n2,1/4\n3,-3/16\n"

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="positive"):
            solve_aj(0, 3)
        with pytest.raises(ValueError, match=">= 1"):
            solve_aj(2, 0)
        with pytest.raises(ValueError, match="outside"):
            solve_aj(2, 3).a(4)

    def test_table_shape_validation(self):
        with pytest.raises(ValueError, match="does not match"):
            AjTable(2, 3, (ZERO,))

    def test_perturbed_cross_check_is_refused(self, monkeypatch):
        """A wrong entry in the independent expansion exp(+D) x fails the
        solve; the cache is cleared around it, so no table is read back
        from an earlier solve and none is left behind."""
        honest = deltak._exp_derivation_on_x

        def perturbed(values, sign, top):
            out = honest(values, sign, top)
            out[3] += 1
            return out

        monkeypatch.setattr(deltak, "_exp_derivation_on_x", perturbed)
        solve_aj.cache_clear()
        try:
            with pytest.raises(ArithmeticError, match="cross-check at degree 3"):
                solve_aj(2, 4)
        finally:
            solve_aj.cache_clear()


def inverse_cover_values(k: int, degree: int) -> list:
    """The inverse series' coefficients, its int numerators over its one
    denominator read as rationals."""
    den, coeffs = deltak._inverse_cover_series(k, degree)
    return [QQ(c, den) for c in coeffs]


class TestCoverMap:
    def test_k1_cover_map_is_linear(self):
        assert inverse_cover_values(1, 5) == [ZERO, ONE] + [ZERO] * 4

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_inverse_leading_term(self, k):
        assert inverse_cover_values(k, 6)[:2] == [ZERO, ONE]

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_inverse_is_the_binomial_series(self, k):
        # c_m = C(1/k, m) k^m, over the denominator degree!
        den, coeffs = deltak._inverse_cover_series(k, 7)
        assert den == factorial(7)
        assert inverse_cover_values(k, 7) == [ZERO] + [
            binomial(QQ(1, k), m) * k**m for m in range(1, 8)]

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_composition_is_identity(self, k):
        report = check_f_composition(k, 10)
        assert report.passed
        assert report.compared > 0

    @pytest.mark.parametrize("k", [1, 3])
    def test_compares_every_point_of_the_window(self, k):
        # x in [0, 4] and z in [-4, 4], both on the (1/k)-lattice
        assert check_f_composition(k, 4).compared == (4 * k + 1) * (8 * k + 1)

    @pytest.mark.parametrize("k", [2, 3])
    def test_planted_inverse_coefficient_fails_with_a_witness(self, k, monkeypatch):
        exact = deltak._inverse_cover_series

        def planted(k, degree):
            den, coeffs = exact(k, degree)
            coeffs[3] += den // 5  # c_3 + 1/5; den = 6! is a multiple of 5
            return den, coeffs

        monkeypatch.setattr(deltak, "_inverse_cover_series", planted)
        report = check_f_composition(k, 6)
        assert not report.passed
        # t^3 gains k/5 through the linear term k f of (1 + f)^k; t^3 is the
        # monomial x^3 z^(-2/k), where the identity side is zero
        assert report.mismatches[0] == ((QQ(3), QQ(-2, k)), QQ(k, 5), ZERO)


class TestApplyDelta:
    def test_k1_is_identity_on_basis(self):
        for word in NS.basis(QQ(2)):
            u = State({word: ONE})
            expansion = apply_delta(1, u)
            assert expansion.prefactor == ONE
            assert expansion.pieces == ((ZERO, u),)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_vacuum_is_fixed(self, k):
        expansion = apply_delta(k, VACUUM)
        assert expansion.prefactor == ONE
        assert expansion.pieces == ((ZERO, VACUUM),)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_conformal_vector_expansion(self, k):
        # two pieces: the vector itself, and the table's second coefficient
        # times half the central charge on the vacuum, two lattice steps down
        expansion = apply_delta(k, OMEGA)
        assert expansion.prefactor == QQ(1, k * k)
        lead = QQ(2, k) - 2
        assert expansion.pieces[0][0] == lead
        a2 = solve_aj(k, 4).a(2)
        scalar = a2 * CENTRAL_CHARGE / 2
        assert expansion.pieces == (
            (lead, OMEGA), (lead - QQ(2, k), VACUUM.scaled(scalar)))

    def test_generator_expansion_k2(self):
        expansion = apply_delta(2, PSI)
        assert expansion.prefactor == k_to_the(2, QQ(-1, 2))
        assert expansion.prefactor == cyc_sqrt_k(2) / 2
        assert expansion.pieces == ((QQ(-1, 4), PSI),)

    @pytest.mark.parametrize("k", [2, 3])
    def test_leading_exponent_is_weight_law(self, k):
        for word in NS.basis(QQ(2)):
            u = State({word: ONE})
            p = word_level(word)
            expansion = apply_delta(k, u)
            assert expansion.pieces[0][0] == p / k - p
            assert expansion.pieces[0] == (p / k - p, u)

    @pytest.mark.parametrize("k", [2, 4])
    def test_odd_states_live_on_shifted_lattice(self, k):
        for word in NS.basis(QQ(5, 2)):
            if word_parity(word) == 0:
                continue
            expansion = apply_delta(k, State({word: ONE}))
            for e, _ in expansion.pieces:
                assert (e * k - QQ(1, 2)).denominator == 1

    @pytest.mark.parametrize("k", [2, 3])
    def test_parity_and_weight_of_pieces(self, k):
        for word in NS.basis(QQ(2)):
            u = State({word: ONE})
            p = word_level(word)
            expansion = apply_delta(k, u)
            for e, s in expansion.pieces:
                assert s.homogeneous_parity() == word_parity(word)
                j = (p / k - p - e) * k
                assert j.denominator == 1
                assert s.homogeneous_level() == p - j

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_round_trip_on_basis(self, k):
        for word in NS.basis(QQ(3)):
            defect = round_trip_defect(k, State({word: ONE}))
            assert defect.is_zero()

    def test_inverse_exponents_are_integral_shifts(self):
        expansion = apply_delta(2, OMEGA, INVERSE)
        assert expansion.prefactor == QQ(4)
        assert expansion.pieces[0][0] == 2 - QQ(2, 2)
        for e, _ in expansion.pieces:
            assert (expansion.pieces[0][0] - e).denominator == 1

    def test_rejects_mixed_weight_state(self):
        mixed = PSI + OMEGA
        with pytest.raises(ValueError, match="not homogeneous"):
            apply_delta(2, mixed)

    def test_one_depth_rule_for_every_order(self):
        assert [covering_depth(w) for w in (0, QQ(1, 2), 2, QQ(5, 2))] == [1, 1, 2, 3]

    def test_rejects_depth_above_the_ceiling(self):
        # weight 257/2 reads a table of depth ceil(257/2) = ceiling + 1
        heavy = State({(-(2 * MAX_TABLE_DEPTH + 1),): ONE})
        for direction in (FORWARD, INVERSE):
            with pytest.raises(ValueError, match="exceeds the ceiling"):
                apply_delta(2, heavy, direction)
        with pytest.raises(ValueError, match="exceeds the ceiling"):
            solve_aj(2, MAX_TABLE_DEPTH + 1)

    def test_direction_validation(self):
        with pytest.raises(ValueError, match="direction"):
            apply_delta(2, PSI, "sideways")

    def test_zero_state_expansion_is_empty(self):
        from twistfock.fermion import ZERO_STATE

        expansion = apply_delta(2, ZERO_STATE)
        assert expansion.pieces == ()

    def test_order_is_checked_before_the_zero_state(self):
        from twistfock.fermion import ZERO_STATE

        for state in (ZERO_STATE, PSI):
            with pytest.raises(ValueError, match="k must be a positive integer"):
                apply_delta(0, state)

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.sampled_from([1, 2, 3, 4]),
        index=st.integers(min_value=0, max_value=9),
        scale=st.integers(min_value=-5, max_value=5).filter(lambda c: c != 0),
    )
    def test_round_trip_property(self, k, index, scale):
        words = NS.basis(QQ(5, 2))
        word = words[index % len(words)]
        state = State({word: QQ(scale)})
        assert round_trip_defect(k, state).is_zero()


def side_values(k, u, side):
    """A conjugation side's (den, numerators) as key -> scalar, with the
    prefactor k^{-p_u} it leaves out."""
    den, nums = side
    prefactor = k_to_the(k, -u.homogeneous_level())
    return {key: prefactor * QQ(num, den) for key, num in nums.items()}


class TestConjugation:
    def test_k1_is_trivial(self):
        report = check_conjugation(1, PSI, cutoff=QQ(3, 2), depth=3)
        assert report.passed

    @pytest.mark.parametrize("u", [PSI, OMEGA], ids=["generator", "conformal"])
    def test_k2_full_window(self, u):
        report = check_conjugation(2, u, cutoff=QQ(5, 2), depth=4)
        assert report.passed
        assert report.compared > 0

    def test_k2_conformal_on_vacuum(self):
        report = check_conjugation(2, OMEGA, cutoff=ZERO, depth=4)
        assert report.passed
        assert report.compared > 0

    def test_k3_generator(self):
        report = check_conjugation(3, PSI, cutoff=QQ(3, 2), depth=3)
        assert report.passed

    def test_mismatched_inputs_are_detected(self):
        v = State({(-1,): ONE})
        lhs = side_values(2, PSI, _conjugation_lhs(2, PSI, v, 3))
        fwd = apply_delta(2, OMEGA, FORWARD)
        rhs = side_values(2, OMEGA, _conjugation_rhs(2, fwd, v, 3, _RootPowers(2, 8)))
        assert any(
            lhs.get(key, ZERO) != rhs.get(key, ZERO) for key in set(lhs) | set(rhs)
        )

    def test_rejects_zero_state(self):
        from twistfock.fermion import ZERO_STATE

        with pytest.raises(ValueError, match="nonzero"):
            check_conjugation(2, ZERO_STATE)

    def test_rejects_depth_above_the_ceiling(self):
        with pytest.raises(ValueError, match="exceeds the ceiling"):
            check_conjugation(2, PSI, depth=MAX_CONJUGATION_DEPTH + 1)


class TestTranslationIdentities:
    def test_k1_is_trivial(self):
        report = check_L_minus1_identities(1, cutoff=QQ(2))
        assert report.passed
        assert report.compared > 0

    @pytest.mark.parametrize("k", [2, 4])
    def test_even_covers(self, k):
        report = check_L_minus1_identities(k, cutoff=QQ(2))
        assert report.passed
        assert report.compared > 0

    def test_k3_cover(self):
        report = check_L_minus1_identities(3, cutoff=QQ(3, 2))
        assert report.passed
