"""Tests for the cyclic-rotation twisted module layer.

Oracle notes.  Hand-computed matrix entries below follow from the mode
formula for the first-slot field (sigma-mode index k(e+m+1) - 1 on the
coordinate-change piece at exponent e), the root-of-unity substitution for
other slots, and the Clifford relations with square-one-half zero mode.  The
central coefficient (k^2-1)/(48 k^2) is the weight-two coordinate-change
coefficient times half the central charge, scaled by k^-2.
"""

import pytest
from hypothesis import given, settings, strategies as st

from twistfock.scalars import QQ, ONE, ZERO, eta_k
from twistfock.formal import Window, compare_fields
from twistfock.fermion import (
    CENTRAL_CHARGE,
    OMEGA,
    PSI,
    State,
    VACUUM,
    ZERO_STATE,
    word_level,
)
from twistfock.ramond import (
    ground_weight,
    ramond_basis,
    sigma_L0_spectrum,
    sigma_vertex_mode,
    sigma_vertex_op,
)
from twistfock.twist import (
    TwistedModuleView,
    require_even_order,
    tensor_operator,
    twisted_mode,
    u_functor_sigma_mode,
    u_functor_sigma_op,
    ybar,
    yg_general,
    yg_tensor_factor,
)

WINDOW = Window({"x": (QQ(-3), QQ(3))})
KEYS = ramond_basis(QQ(2))
GROUND = ()


def ground_state():
    return State({GROUND: ONE})


def exponents(field):
    return tuple(sorted(mono[0] for mono in field.terms))


class TestYbar:
    def test_vacuum_is_identity(self):
        for k in (2, 3, 4):
            field = ybar(k, VACUUM, WINDOW)
            assert exponents(field) == (QQ(0),)
            for word in KEYS:
                assert field.terms[(QQ(0),)][word] == {word: ONE}

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_omega_central_coefficient(self, k):
        field = ybar(k, OMEGA, WINDOW)
        expected_central = QQ(k * k - 1, 48 * k * k)
        for word in KEYS:
            diag = field.terms[(QQ(-2),)][word][word]
            weight_part = (ground_weight() + word_level(word)) / (k * k)
            assert diag - weight_part == expected_central

    def test_psi_exponent_lattice_even_order(self):
        field = ybar(2, PSI, WINDOW)
        found = exponents(field)
        assert found
        assert all((2 * e).denominator == 1 for e in found)
        assert any(e.denominator == 2 for e in found)

    def test_psi_exponent_lattice_odd_order(self):
        # For odd order the generator field escapes the (1/k) lattice:
        # the shifted lattice is the obstruction witness.
        field = ybar(3, PSI, WINDOW)
        assert any((3 * e).denominator == 2 for e in exponents(field))

    @pytest.mark.parametrize(
        "k,name,j",
        [(k, name, j) for k in (2, 4) for name in ("psi", "omega")
         for j in range(k)],
    )
    def test_matches_exact_mode_map(self, k, name, j):
        # The windowed field (sigma-mode enumeration per piece) and the exact
        # mode map (index formula per mode) are two routes through SlotField:
        # they must agree on every mode of the window, in every slot.
        u = {"psi": PSI, "omega": OMEGA}[name]
        field = yg_tensor_factor(k, u, j, WINDOW)
        for i in range(-4 * k, 2 * k + 1):  # exponents -3 .. 3
            m = QQ(i, k)
            mode = twisted_mode(k, u, m, substitution_power=j)
            for word in KEYS:
                image = mode(State({word: ONE}))
                assert dict(image.terms) == field.column((-m - 1,), word), (m, word)

    def test_requires_bounded_window(self):
        with pytest.raises(ValueError, match="bounded"):
            ybar(2, PSI, Window({"x": (None, QQ(2))}))

    def test_zero_state_gives_empty_field(self):
        field = ybar(2, ZERO_STATE, WINDOW)
        assert exponents(field) == ()

    def test_mode_action_outside_window(self):
        # mode 10 sits at exponent -11, outside the window: unknown, not zero
        field = ybar(2, PSI, WINDOW)
        with pytest.raises(ValueError, match="outside"):
            field.column((QQ(-11),), GROUND)


class TestTensorFactor:
    def test_power_zero_is_first_slot(self):
        base = ybar(2, PSI, WINDOW)
        sub = yg_tensor_factor(2, PSI, 0, WINDOW)
        assert sub.terms == base.terms

    def test_full_turn_returns_original(self):
        base = ybar(2, PSI, WINDOW)
        sub = yg_tensor_factor(2, PSI, 2, WINDOW)
        assert sub.terms == base.terms

    def test_sign_pattern_order_two(self):
        base = ybar(2, PSI, WINDOW)
        sub = yg_tensor_factor(2, PSI, 1, WINDOW)
        for mono, table in base.terms.items():
            e = mono[0]
            flip = -ONE if e.denominator == 2 else ONE
            for word, column in table.items():
                for out_word, value in column.items():
                    assert sub.terms[mono][word][out_word] == flip * value

    @pytest.mark.parametrize("k", [2, 4])
    def test_central_terms_sum_over_slots(self, k):
        total = ZERO
        for j in range(k):
            field = yg_tensor_factor(k, OMEGA, j, WINDOW)
            diag = field.terms[(QQ(-2),)][GROUND][GROUND]
            total += diag - ground_weight() / (k * k)
        assert total == QQ(k * k - 1) * CENTRAL_CHARGE / (24 * k)

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError, match="even"):
            yg_tensor_factor(3, PSI, 1, WINDOW)


class TestTensorProduct:
    def test_all_vacuum_slots_give_identity(self):
        field = yg_general(2, (VACUUM, VACUUM), WINDOW)
        assert exponents(field) == (QQ(0),)
        for word in KEYS:
            assert field.terms[(QQ(0),)][word] == {word: ONE}

    def test_collapse_to_first_slot(self):
        product = yg_general(2, (PSI, VACUUM), WINDOW)
        single = ybar(2, PSI, WINDOW)
        result = compare_fields("collapse1", product, single,
                                WINDOW, 4, KEYS)
        assert result.passed

    def test_collapse_to_second_slot(self):
        product = yg_general(2, (VACUUM, PSI), WINDOW)
        single = yg_tensor_factor(2, PSI, 1, WINDOW)
        result = compare_fields("collapse2", product, single,
                                WINDOW, 4, KEYS)
        assert result.passed

    def test_collapse_order_four(self):
        window = Window({"x": (QQ(-2), QQ(2))})
        product = yg_general(4, (VACUUM, OMEGA, VACUUM, VACUUM), window)
        single = yg_tensor_factor(4, OMEGA, 1, window)
        result = compare_fields("collapse4", product, single,
                                window, 8, KEYS)
        assert result.passed

    def test_generator_pair_hand_values(self):
        # Exact entries on the puncture ground state, computed by hand from
        # the ordered product of the two slot fields at order two.
        field = yg_general(2, (PSI, PSI), WINDOW)
        terms = field.terms
        assert terms[(QQ(-1),)][GROUND] == {GROUND: QQ(-1, 4)}
        assert terms[(QQ(-1, 2),)][GROUND] == {(-2, 0): -ONE}
        assert GROUND not in terms.get((QQ(0),), {})
        assert field.parity == 0

    def test_generator_pair_against_slotwise_oracle(self):
        # Independent oracle: assemble the ordered product directly from
        # parity-twisted modes with explicit index arithmetic.
        prefactor = QQ(1, 2)  # product of the two slot prefactors, squared root-2 halves

        def slot_mode(n, flip, state):
            image = sigma_vertex_mode(PSI, 2 * n + QQ(1, 2), state)
            if flip and (2 * n).denominator == 1 and int(2 * n) % 2:
                return image.scaled(-ONE)
            return image

        field = yg_general(2, (PSI, PSI), WINDOW)
        for word in ramond_basis(QQ(1)):
            level = word_level(word)
            state = State({word: ONE})
            m = QQ(-5, 2)
            while m <= min(QQ(2), 1 + level / 2):
                total = ZERO_STATE
                n = QQ(-1, 2)
                while n >= m - 1 - level / 2 - 2:
                    inner = slot_mode(m - 1 - n, True, state)
                    if not inner.is_zero():
                        total = total + slot_mode(n, False, inner)
                    n -= QQ(1, 2)
                n = QQ(0)
                while n <= level / 2 - QQ(1, 2) + 1:
                    inner = slot_mode(n, False, state)
                    if not inner.is_zero():
                        total = total + slot_mode(m - 1 - n, True, inner).scaled(-ONE)
                    n += QQ(1, 2)
                expected = total.scaled(prefactor)
                actual = field.column((-m - 1,), word)
                assert dict(expected.terms) == actual, (word, m)
                m += QQ(1, 2)

    def test_factor_count_enforced(self):
        with pytest.raises(ValueError, match="factors"):
            yg_general(2, (PSI,), WINDOW)

    def test_zero_factor_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            yg_general(2, (PSI, ZERO_STATE), WINDOW)

    def test_parity_of_product(self):
        assert yg_general(2, (PSI, VACUUM), WINDOW).parity == 1
        assert yg_general(2, (PSI, PSI), WINDOW).parity == 0
        assert tensor_operator(2, (PSI, OMEGA)).parity == 1


class TestTwistedMode:
    def test_vacuum_modes(self):
        identity = twisted_mode(2, VACUUM, QQ(-1))
        zero = twisted_mode(2, VACUUM, QQ(0))
        for word in KEYS:
            state = State({word: ONE})
            assert identity(state) == state
            assert zero(state).is_zero()

    @pytest.mark.parametrize("k", [2, 4])
    def test_weight_mode_eigenvalue(self, k):
        mode = twisted_mode(k, OMEGA, QQ(1))
        expected = ground_weight() / (k * k) + QQ(k * k - 1, 48 * k * k)
        assert mode(ground_state()) == ground_state().scaled(expected)

    @pytest.mark.parametrize("u,p", [(PSI, QQ(1, 2)), (OMEGA, QQ(2))])
    def test_grading_shift(self, u, p):
        k = 2
        for word in KEYS:
            level = word_level(word)
            for numerator in range(-4, 5):
                m = QQ(numerator, k)
                image = twisted_mode(k, u, m)(State({word: ONE}))
                if not image.is_zero():
                    assert image.homogeneous_level() == level + k * (p - m - 1)

    def test_off_lattice_index_rejected(self):
        with pytest.raises(ValueError, match="lattice"):
            twisted_mode(2, PSI, QQ(1, 3))

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError, match="even"):
            twisted_mode(3, PSI, QQ(0))

    @given(numerator=st.integers(min_value=-6, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_substituted_mode_scaling(self, numerator):
        m = QQ(numerator, 2)
        base = twisted_mode(2, PSI, m)
        shifted = twisted_mode(2, PSI, m, substitution_power=1)
        scale = eta_k(2) ** (int(2 * (-m - 1)) % 2)
        for word in ramond_basis(QQ(1)):
            state = State({word: ONE})
            assert shifted(state) == base(state).scaled(scale)


class TestInverseConstruction:
    @pytest.mark.parametrize("u,name", [(VACUUM, "vac"), (PSI, "psi"),
                                        (OMEGA, "omega")])
    def test_recovers_parity_twisted_field(self, u, name):
        recovered = u_functor_sigma_op(2, u, WINDOW)
        reference = sigma_vertex_op(u, WINDOW)
        result = compare_fields(name, recovered, reference, WINDOW, 2, KEYS)
        assert result.passed
        assert result.compared > 50

    def test_recovers_at_order_four(self):
        window = Window({"x": (QQ(-2), QQ(2))})
        recovered = u_functor_sigma_op(4, PSI, window, domain_level=QQ(1))
        reference = sigma_vertex_op(PSI, window, domain_level=QQ(1))
        keys = ramond_basis(QQ(1))
        result = compare_fields("psi4", recovered, reference, window, 2, keys)
        assert result.passed

    @pytest.mark.parametrize("branch", [1, 2, 3, -1])
    def test_branch_violations_rejected(self, branch):
        if branch % 2 == 0:
            u_functor_sigma_op(2, PSI, WINDOW, branch=branch)
        else:
            with pytest.raises(ValueError, match="branch"):
                u_functor_sigma_op(2, PSI, WINDOW, branch=branch)
            with pytest.raises(ValueError, match="branch"):
                u_functor_sigma_mode(2, PSI, QQ(1, 2), branch=branch)

    def test_full_turn_branch_is_principal(self):
        a = u_functor_sigma_op(2, PSI, WINDOW, branch=2)
        b = u_functor_sigma_op(2, PSI, WINDOW)
        assert a.terms == b.terms

    @pytest.mark.parametrize("u", [VACUUM, PSI, OMEGA],
                             ids=["vac", "psi", "omega"])
    @pytest.mark.parametrize("k", [2, 4])
    def test_mode_level_round_trip(self, k, u):
        offset = QQ(u.homogeneous_parity(), 2)
        for numerator in range(-5, 5):
            m = QQ(numerator, 2)
            recovered = u_functor_sigma_mode(k, u, m)
            for word in KEYS:
                state = State({word: ONE})
                if (m - offset).denominator == 1:
                    assert recovered(state) == sigma_vertex_mode(u, m, state)
                else:
                    assert recovered(state) == ZERO_STATE

    def test_zero_state_gives_empty_field(self):
        field = u_functor_sigma_op(2, ZERO_STATE, Window({"x": (QQ(-2), QQ(2))}))
        assert (field.terms, field.parity) == ({}, 0)
        with pytest.raises(ValueError, match="bounded"):
            u_functor_sigma_op(2, ZERO_STATE, Window({"x": (None, QQ(2))}))
        with pytest.raises(ValueError, match="branch"):
            u_functor_sigma_op(2, ZERO_STATE, WINDOW, branch=1)

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError, match="even"):
            u_functor_sigma_op(3, PSI, WINDOW)

    def test_off_lattice_index_rejected(self):
        with pytest.raises(ValueError, match="lattice"):
            u_functor_sigma_mode(2, PSI, QQ(1, 3))


class TestModuleView:
    def test_order_must_be_even(self):
        with pytest.raises(ValueError, match="even"):
            TwistedModuleView(3, 2)
        with pytest.raises(ValueError, match="cutoff"):
            TwistedModuleView(2, -1)

    def test_grading_is_level_over_order(self):
        view = TwistedModuleView(2, 3)
        for word in view.basis():
            assert view.t_grade(word) == QQ(word_level(word), 2)

    @pytest.mark.parametrize("k", [2, 4])
    def test_twisted_weight_eigenvalues(self, k):
        view = TwistedModuleView(k, 3)
        constant = QQ(k * k - 1) * CENTRAL_CHARGE / (24 * k)
        assert view.weight_constant() == constant
        for word in view.basis():
            expected = (ground_weight() + word_level(word)) / k + constant
            assert view.twisted_weight_eigenvalue(word) == expected

    def test_graded_dimension_order_two(self):
        view = TwistedModuleView(2, 3)
        series = view.graded_dimension()
        assert series.offset == QQ(1, 48)
        assert series.step == QQ(1, 2)
        assert series.coeffs == (2, 2, 2, 4)

    def test_character_matches_rescaled_parity_twisted_spectrum(self):
        k = 2
        view = TwistedModuleView(k, 4)
        twisted = view.graded_dimension()
        sigma = sigma_L0_spectrum(QQ(4))
        assert len(sigma.coeffs) >= 4
        for n in range(len(sigma.coeffs)):
            sigma_exponent = -CENTRAL_CHARGE / 24 + sigma.weight(n)
            assert twisted.weight(n) == sigma_exponent / k
            assert twisted.coeffs[n] == sigma.coeffs[n]


class TestExports:
    def test_even_order_guard(self):
        with pytest.raises(ValueError, match="even"):
            require_even_order(1)
        require_even_order(2)
