"""Tests for the cyclic-rotation twisted module layer.

Oracle notes.  Hand-computed matrix entries below follow from the mode
formula for the first-slot field (sigma-mode index k(e+m+1) - 1 on the
coordinate-change piece at exponent e), the root-of-unity substitution for
other slots, and the Clifford relations with square-one-half zero mode.  The
central coefficient (k^2-1)/(48 k^2) is the weight-two coordinate-change
coefficient times half the central charge, scaled by k^-2.  A field is read
through its modes: its x^e coefficient is the mode with index -e-1.
"""

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from twistfock.scalars import QQ, ONE, ZERO, eta_k
from twistfock.formal import compare_fields
from twistfock.fermion import (
    CENTRAL_CHARGE,
    OMEGA,
    PSI,
    R,
    State,
    VACUUM,
    ZERO_STATE,
    word_level,
)
from twistfock.ramond import ground_weight, sigma_vertex_mode
from twistfock.twist import (
    RecoveredField,
    SlotField,
    TwistedModuleView,
    require_even_order,
    twisted_mode,
    u_functor_sigma_mode,
)

from test_core_equivalence import rational_recovered_mode, rational_slot_mode

WINDOW = (-3, 3)
KEYS = R.basis(QQ(2))
GROUND = ()


def ground_state():
    return State({GROUND: ONE})


def grid(den, window=WINDOW):
    """The exponents of the (1/den)-lattice inside a window."""
    lo, hi = window
    return [QQ(n, den) for n in range(lo * den, hi * den + 1)]


def field_table(field, den, window=WINDOW, keys=KEYS):
    """The nonzero x^e coefficients of a field on a window's
    (1/den)-lattice, read from its modes at their rational index:
    {e: {word: {out: scalar}}}."""
    mode = (rational_recovered_mode if isinstance(field, RecoveredField)
            else rational_slot_mode)
    table = {}
    for e in grid(den, window):
        for word in keys:
            image = mode(field, -e - 1, State({word: ONE}))
            if not image.is_zero():
                table.setdefault(e, {})[word] = dict(image.terms)
    return table


def exponents(table):
    return tuple(sorted(table))


def indices(den, window=WINDOW):
    """The int indices den·e of the (1/den)-lattice inside a window."""
    lo, hi = window
    return range(lo * den, hi * den + 1)


def columns(mode, den):
    """The column function of a field of grading denominator den given by
    its modes at their rational index, for `compare_fields`: on the int
    index 2·den·e, with no annihilation bound."""
    scale = 2 * den

    def column(e, word):
        image = mode(QQ(-e - scale, scale), State({word: ONE}))
        return image.den, image.nums

    return column


class TestYbar:
    """The first-slot field, Ybar: the parity-twisted field of the
    coordinate-changed state at the k-th root of the variable."""

    def test_vacuum_is_identity(self):
        for k in (2, 3, 4):
            table = field_table(SlotField(k, VACUUM), 2 * k)
            assert exponents(table) == (QQ(0),)
            for word in KEYS:
                assert table[QQ(0)][word] == {word: ONE}

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_omega_central_coefficient(self, k):
        # the x^-2 coefficient is mode 1
        mode = twisted_mode(k, OMEGA, QQ(1))
        expected_central = QQ(k * k - 1, 48 * k * k)
        for word in KEYS:
            diag = mode(State({word: ONE})).coefficient(word)
            weight_part = (ground_weight() + word_level(word)) / (k * k)
            assert diag - weight_part == expected_central

    def test_psi_exponent_lattice_even_order(self):
        found = exponents(field_table(SlotField(2, PSI), 4))
        assert found
        assert all((2 * e).denominator == 1 for e in found)
        assert any(e.denominator == 2 for e in found)

    def test_psi_exponent_lattice_odd_order(self):
        # For odd order the generator field escapes the (1/k) lattice:
        # the shifted lattice is the obstruction witness.
        found = exponents(field_table(SlotField(3, PSI), 6))
        assert any((3 * e).denominator == 2 for e in found)

    @pytest.mark.parametrize(
        "k,name,j",
        [(k, name, j) for k in (2, 4) for name in ("psi", "omega")
         for j in range(k)],
    )
    def test_matches_exact_mode_map(self, k, name, j):
        # Slot j+1 is slot 1 with the k-th root of x replaced by its
        # multiple by eta^j: mode m is scaled by eta^{j k (-m-1)}, and is
        # zero where that power is fractional.  Checked on every mode of
        # the window's (1/2k)-lattice, against the twisted_mode map too.
        u = {"psi": PSI, "omega": OMEGA}[name]
        first, slot = SlotField(k, u), SlotField(k, u, j)
        eta = eta_k(k)
        for e in grid(2 * k):
            m = -e - 1
            power = j * k * (-m - 1)
            on_lattice = (k * m).denominator == 1
            for word in KEYS:
                state = State({word: ONE})
                image = rational_slot_mode(slot, m, state)
                if power.denominator == 1:
                    expected = rational_slot_mode(first, m, state).scaled(
                        eta ** int(power))
                else:
                    expected = ZERO_STATE
                assert image == expected, (m, word)
                if on_lattice:
                    mode = twisted_mode(k, u, m, substitution_power=j)
                    assert mode(state) == image, (m, word)

    def test_zero_state_gives_empty_field(self):
        for e in grid(2):
            mode = twisted_mode(2, ZERO_STATE, -e - 1)
            for word in KEYS:
                assert mode(State({word: ONE})).is_zero()
        with pytest.raises(ValueError, match="nonzero"):
            SlotField(2, ZERO_STATE)

    def test_mixed_weight_state_is_refused(self):
        with pytest.raises(ValueError, match="nonzero homogeneous state"):
            SlotField(2, PSI + OMEGA)


class TestTensorFactor:
    def test_power_zero_is_first_slot(self):
        base = field_table(SlotField(2, PSI), 4)
        assert field_table(SlotField(2, PSI, 0), 4) == base

    def test_full_turn_returns_original(self):
        base = field_table(SlotField(2, PSI), 4)
        assert field_table(SlotField(2, PSI, 2), 4) == base

    def test_sign_pattern_order_two(self):
        base = field_table(SlotField(2, PSI), 4)
        sub = field_table(SlotField(2, PSI, 1), 4)
        assert base
        assert set(sub) == set(base)
        for e, table in base.items():
            flip = -ONE if e.denominator == 2 else ONE
            for word, column in table.items():
                for out_word, value in column.items():
                    assert sub[e][word][out_word] == flip * value

    @pytest.mark.parametrize("k", [2, 4])
    def test_central_terms_sum_over_slots(self, k):
        total = ZERO
        for j in range(k):
            diag = twisted_mode(k, OMEGA, QQ(1),
                                substitution_power=j)(ground_state())
            total += diag.coefficient(GROUND) - ground_weight() / (k * k)
        assert total == QQ(k * k - 1) * CENTRAL_CHARGE / (24 * k)

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError, match="even"):
            twisted_mode(3, PSI, QQ(0), substitution_power=1)


class TestLattices:
    """The exponent lattices of the fields, read from their modes."""

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("u", [PSI, OMEGA], ids=["psi", "omega"])
    def test_slot_fields_live_on_the_order_lattice(self, k, u):
        # mode m of an even-order slot field is zero off the (1/k)-lattice,
        # in every slot; on it, each field has a nonzero mode
        for j in range(k):
            field = SlotField(k, u, j)
            nonzero = False
            for e in grid(2 * k):
                m = -e - 1
                for word in KEYS:
                    image = rational_slot_mode(field, m, State({word: ONE}))
                    if (k * m).denominator != 1:
                        assert image.is_zero(), (j, m, word)
                    nonzero = nonzero or not image.is_zero()
            assert nonzero, j

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("u", [VACUUM, PSI, OMEGA],
                             ids=["vac", "psi", "omega"])
    def test_recovered_fields_live_on_the_parity_coset(self, k, u):
        field = RecoveredField(k, u)
        offset = QQ(u.homogeneous_parity(), 2)
        table = field_table(field, 2)
        assert table
        assert all((e + 1 + offset).denominator == 1 for e in table)


class TestFieldOf:
    """A field's kernel data: its state, slot power and ``field_of``, the
    field of another state of the same kind, equal to a fresh one."""

    TARGETS = (PSI, OMEGA, VACUUM)

    @staticmethod
    def assert_like(derived, fresh, field):
        assert type(derived) is type(field)
        for name in ("k", "power", "scale"):
            assert getattr(derived, name) == getattr(field, name), name
        # the scalars carry the prefactor of the state's weight
        for name in ("state", "classes", "scalars"):
            assert getattr(derived, name) == getattr(fresh, name), name
        for M in range(-2 * derived.scale, 2 * derived.scale + 1):
            for word in R.basis(QQ(1)):
                state = State({word: ONE})
                assert derived.mode_at(M, state) == fresh.mode_at(M, state), M

    @pytest.mark.parametrize("k", [1, 2, 4, 6])
    @pytest.mark.parametrize("u", [PSI, OMEGA], ids=["psi", "omega"])
    def test_slot_field(self, k, u):
        for p in range(k):
            field = SlotField(k, u, p)
            assert (field.state, field.power) == (u, p)
            assert SlotField(k, u, p - k).power == p
            for v in self.TARGETS:
                derived = field.field_of(v)
                # a slot field's classes depend on its slot and its parity,
                # and agree across parities only at even k
                same = (k % 2 == 0
                        or v.homogeneous_parity() == u.homogeneous_parity())
                assert (derived.classes == field.classes) == same
                self.assert_like(derived, SlotField(k, v, p), field)

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("u", [PSI, OMEGA], ids=["psi", "omega"])
    def test_recovered_field(self, k, u):
        field = RecoveredField(k, u)
        assert (field.state, field.power) == (u, 0)
        for v in self.TARGETS:
            derived = field.field_of(v)
            # the classes are the parity coset of the state
            if v.homogeneous_parity() == u.homogeneous_parity():
                assert derived.classes == field.classes
            self.assert_like(derived, RecoveredField(k, v), field)


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
        for word in R.basis(QQ(1)):
            state = State({word: ONE})
            assert shifted(state) == base(state).scaled(scale)


class TestInverseConstruction:
    @staticmethod
    def native_columns(u):
        return columns(lambda m, s: sigma_vertex_mode(u, m, s), 1)

    @pytest.mark.parametrize("u,name", [(VACUUM, "vac"), (PSI, "psi"),
                                        (OMEGA, "omega")])
    def test_recovers_parity_twisted_field(self, u, name):
        recovered = partial(rational_recovered_mode, RecoveredField(2, u))
        result = compare_fields(name, columns(recovered, 1),
                                self.native_columns(u), indices(2), KEYS,
                                scale=2)
        assert result.passed
        assert result.compared > 50

    def test_recovers_at_order_four(self):
        recovered = partial(rational_recovered_mode, RecoveredField(4, PSI))
        keys = R.basis(QQ(1))
        result = compare_fields("psi4", columns(recovered, 1),
                                self.native_columns(PSI), indices(2, (-2, 2)),
                                keys, scale=2)
        assert result.passed

    @pytest.mark.parametrize("branch", [1, 2, 3, -1])
    def test_branch_violations_rejected(self, branch):
        if branch % 2 == 0:
            RecoveredField(2, PSI, branch=branch)
        else:
            with pytest.raises(ValueError, match="branch"):
                RecoveredField(2, PSI, branch=branch)
            with pytest.raises(ValueError, match="branch"):
                u_functor_sigma_mode(2, PSI, QQ(1, 2), branch=branch)

    def test_full_turn_branch_is_principal(self):
        a = field_table(RecoveredField(2, PSI, branch=2), 2)
        b = field_table(RecoveredField(2, PSI), 2)
        assert a
        assert a == b

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
        field = RecoveredField(2, ZERO_STATE)
        assert field_table(field, 2, (-2, 2)) == {}
        assert field.parity == 0
        with pytest.raises(ValueError, match="branch"):
            RecoveredField(2, ZERO_STATE, branch=1)

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError, match="even"):
            RecoveredField(3, PSI)

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
        sigma = R.spectrum(QQ(4))
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
