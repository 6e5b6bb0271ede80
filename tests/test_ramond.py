"""Tests for the parity-twisted fermion module and its twisted fields."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistfock.fermion import (
    NS,
    OMEGA,
    PSI,
    VACUUM,
    ZERO_STATE,
    R,
    State,
    vertex_mode,
    virasoro,
    word_level,
    word_parity,
)
from twistfock.formal import compare_fields
from twistfock.ramond import ground_weight, sigma_vertex_mode
from twistfock.scalars import QQ, ZERO, binomial, cyc_sqrt_k, rational_floor

from psi_oracle import ramond_mode

H = QQ(1, 2)


def st_ramond_words(max_level=QQ(3)):
    return st.sampled_from(R.basis(max_level))


# ---------------------------------------------------------------------------
# twisted mode algebra
# ---------------------------------------------------------------------------


class TestTwistedModes:
    def test_annihilates_ground(self):
        assert ramond_mode(1, VACUUM).is_zero()

    def test_zero_mode_squares_to_half(self):
        once = ramond_mode(0, VACUUM)
        assert once == State({(0,): QQ(1)})
        assert ramond_mode(0, once) == VACUUM.scaled(H)

    def test_reordering_sign(self):
        lhs = ramond_mode(-1, ramond_mode(-2, VACUUM))
        assert lhs == State({(-4, -2): QQ(-1)})  # doubled: psi(-2)psi(-1)

    @given(st_ramond_words(), st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=60)
    def test_car_on_basis(self, w, m, n):
        """{psi_m, psi_n} = delta_{m+n,0} including the zero mode."""
        s = State({w: QQ(1)})
        anti = ramond_mode(m, ramond_mode(n, s)) + ramond_mode(
            n, ramond_mode(m, s)
        )
        expected = s if m + n == 0 else State({})
        assert anti == expected


# ---------------------------------------------------------------------------
# twisted vertex operators
# ---------------------------------------------------------------------------


class TestTwistedFields:
    def test_vacuum_gives_identity(self):
        for w in R.basis(QQ(2)):
            s = State({w: QQ(1)})
            assert sigma_vertex_mode(VACUUM, QQ(-1), s) == s
            assert sigma_vertex_mode(VACUUM, QQ(0), s).is_zero()
            assert sigma_vertex_mode(VACUUM, QQ(-2), s).is_zero()

    def test_generator_modes_on_half_lattice(self):
        """The generator's twisted field is sum_n psi_n x^{-n-1/2}."""
        for w in R.basis(QQ(2)):
            s = State({w: QQ(1)})
            for n in range(-3, 3):
                t = QQ(n) - H  # lattice index of the physical mode n
                assert sigma_vertex_mode(PSI, t, s) == ramond_mode(n, s)
            for t in range(-3, 3):  # integer exponents carry nothing
                assert sigma_vertex_mode(PSI, QQ(t), s).is_zero()

    def test_ground_weight_is_derived(self):
        assert ground_weight() == QQ(1, 16)

    def test_L0_eigenvalues(self):
        for w in R.basis(QQ(3)):
            s = State({w: QQ(1)})
            assert R.virasoro(0, s) == s.scaled(QQ(1, 16) + word_level(w))

    def test_weight_law(self):
        """Twisted modes shift the level by wt(v) - t - 1."""
        for v_word in NS.basis(QQ(2)):
            v = State({v_word: QQ(1)})
            for u_word in R.basis(QQ(2)):
                u = State({u_word: QQ(1)})
                for n2 in range(-6, 6):
                    t = QQ(n2, 2)
                    image = sigma_vertex_mode(v, t, u)
                    if image.is_zero():
                        continue
                    expected = word_level(u_word) + word_level(v_word) - t - 1
                    assert image.homogeneous_level() == expected

    def test_parity_stability(self):
        """Odd modes flip the parity grading, twisted Virasoro preserves it."""
        for w in R.basis(QQ(2)):
            s = State({w: QQ(1)})
            for n in range(-2, 3):
                moved = ramond_mode(n, s)
                if not moved.is_zero():
                    assert moved.homogeneous_parity() == 1 - word_parity(w)
                kept = R.virasoro(n, s)
                if not kept.is_zero():
                    assert kept.homogeneous_parity() == word_parity(w)

    def test_field_exponent_lattices(self):
        # the x^e coefficient is mode -e-1; scan the half lattice of [-2, 2]
        exponents = [QQ(n, 2) for n in range(-4, 5)]
        words = R.basis(QQ(1))

        def support(v):
            return {
                e for e in exponents for w in words
                if not sigma_vertex_mode(v, -e - 1, State({w: QQ(1)})).is_zero()
            }

        odd = support(PSI)
        assert odd
        for e in odd:
            assert (e - H).denominator == 1
        even = support(OMEGA)
        assert even
        for e in even:
            assert e.denominator == 1

    def test_zero_state_gives_empty_field(self):
        for n in range(-4, 5):
            for w in R.basis(QQ(2)):
                image = sigma_vertex_mode(ZERO_STATE, QQ(n, 2), State({w: QQ(1)}))
                assert image.is_zero()


# ---------------------------------------------------------------------------
# twisted Virasoro algebra
# ---------------------------------------------------------------------------


class TestTwistedVirasoro:
    def test_bracket_with_central_charge(self):
        """[L(m), L(n)] = (m-n)L(m+n) + (c/12)(m^3-m) delta, c = 1/2."""
        c = H
        for m in range(-2, 3):
            for n in range(-2, 3):
                for w in R.basis(QQ(2)):
                    s = State({w: QQ(1)})
                    bracket = R.virasoro(m, R.virasoro(n, s)) - R.virasoro(
                        n, R.virasoro(m, s)
                    )
                    expected = R.virasoro(m + n, s).scaled(m - n)
                    if m + n == 0:
                        expected = expected + s.scaled(c * QQ(m**3 - m, 12))
                    assert bracket == expected

    def test_derivative_field_identity(self):
        """d/dx of the twisted field of v equals the twisted field of L(-1)v."""
        exponents = [QQ(n, 2) for n in range(-6, 7)]
        basis = R.basis(QQ(3, 2))
        for v in (PSI, OMEGA):
            dv = virasoro(-1, v)
            result = compare_fields(
                "twisted-derivative", derivative(sigma_columns(v)),
                sigma_columns(dv), exponents, basis,
            )
            assert result.passed


def sigma_columns(v):
    """The column function of the twisted field of v, for `compare_fields`:
    the column at x^e on a word is mode -e-1 on it."""
    def column(e, w):
        image = sigma_vertex_mode(v, -e - 1, State({w: QQ(1)}))
        return image.den, image.nums

    return column


def derivative(columns):
    """d/dx of a field's column function: the x^e column is e+1 times the
    x^{e+1} one."""

    def column(e, w):
        if e == -1:
            return 1, ()
        den, nums = columns(e + 1, w)
        scale = e + 1
        return den * scale.denominator, [(o, scale.numerator * c) for o, c in nums]

    return column


# ---------------------------------------------------------------------------
# twisted Jacobi identity
# ---------------------------------------------------------------------------


def twisted_borcherds_sides(u, v, w_state, a, m, n):
    """Both sides of the twisted component identity at x0-power a.

    Valid for a in Z, m in |u|/2 + Z, n in |v|/2 + Z; all three sums are
    finite because high modes push below the grading floor.
    """
    lev = w_state.homogeneous_level()
    wu, wv = u.homogeneous_level(), v.homogeneous_level()
    eps = QQ(-1) ** (u.homogeneous_parity() * v.homogeneous_parity())
    sign_a = QQ(-1) ** (a % 2)

    lhs = State({})
    top1 = rational_floor(lev + wv - n - 1)
    for i in range(0, max(top1, -1) + 1):
        inner = sigma_vertex_mode(v, n + i, w_state)
        term = sigma_vertex_mode(u, a + m - i, inner)
        lhs = lhs + term.scaled((QQ(-1) ** i) * binomial(QQ(a), i))
    top2 = rational_floor(lev + wu - m - 1)
    for i in range(0, max(top2, -1) + 1):
        inner = sigma_vertex_mode(u, m + i, w_state)
        term = sigma_vertex_mode(v, a + n - i, inner)
        lhs = lhs - term.scaled(
            eps * sign_a * (QQ(-1) ** i) * binomial(QQ(a), i)
        )

    rhs = State({})
    top3 = rational_floor(wu + wv - a - 1)
    for i in range(0, max(top3, -1) + 1):
        inner = sigma_vertex_mode(vertex_mode(u, QQ(a + i), v), m + n - i, w_state)
        rhs = rhs + inner.scaled(binomial(m, i))
    return lhs, rhs


class TestTwistedJacobi:
    @pytest.mark.parametrize(
        "u, v, m_vals, n_vals",
        [
            (PSI, PSI, (-QQ(3, 2), H, QQ(3, 2)), (-H, H, QQ(3, 2))),
            (PSI, OMEGA, (-QQ(3, 2), H, QQ(3, 2)), (-1, 0, 2)),
            (OMEGA, OMEGA, (-1, 0, 2), (-1, 1, 2)),
        ],
    )
    def test_generator_pairs(self, u, v, m_vals, n_vals):
        for w in R.basis(QQ(4)):
            w_state = State({w: QQ(1)})
            for a in (-2, -1, 0, 1, 2):
                for m in m_vals:
                    for n in n_vals:
                        lhs, rhs = twisted_borcherds_sides(
                            u, v, w_state, a, QQ(m), QQ(n)
                        )
                        assert lhs == rhs

    @given(
        st.sampled_from(NS.basis(QQ(2))),
        st.sampled_from(NS.basis(QQ(2))),
        st_ramond_words(QQ(2)),
        st.integers(-4, 4),
        st.integers(-4, 4),
    )
    @settings(max_examples=50, deadline=None)
    def test_supercommutator(self, uw, vw, ww, m2, n2):
        """u_m v_n - eps v_n u_m = sum_i C(m,i) (u_i v)_{m+n-i} up to weight 2."""
        u, v = State({uw: QQ(1)}), State({vw: QQ(1)})
        w_state = State({ww: QQ(1)})
        m = QQ(m2, 2) if word_parity(uw) else QQ(m2)
        n = QQ(n2, 2) if word_parity(vw) else QQ(n2)
        if word_parity(uw) and m.denominator == 1:
            m = m + H
        if word_parity(vw) and n.denominator == 1:
            n = n + H
        lhs, rhs = twisted_borcherds_sides(u, v, w_state, 0, m, n)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# spectrum and ground-space structure
# ---------------------------------------------------------------------------


class TestSpectrum:
    def test_graded_dimensions(self):
        spectrum = R.spectrum(QQ(1, 16) + 7)
        assert spectrum.offset == QQ(1, 16)
        assert spectrum.step == 1
        assert spectrum.coeffs == (2, 2, 2, 4, 4, 6, 8, 10)

    def test_off_lattice_dimensions_vanish(self):
        # every graded piece sits on 1/16 + Z: weights 1/2 and 17/16 + 1/2
        # carry no dimension, and weight 17/16 carries two
        spectrum = R.spectrum(QQ(1, 16) + 3)
        weights = [spectrum.weight(i) for i in range(len(spectrum.coeffs))]
        assert QQ(1, 2) not in weights
        assert QQ(17, 16) + H not in weights
        assert spectrum.coeffs[weights.index(QQ(1, 16) + 1)] == 2

    def test_ground_space_is_two_dimensional(self):
        assert R.basis(ZERO) == [(), (ZERO,)]

    def test_parity_unstable_generators(self):
        # e+- = ground +- sqrt(2) psi_0 ground are the zero-mode eigenvectors
        # that split the ground space; each mixes the two parities
        root2 = cyc_sqrt_k(2)
        shifted = ramond_mode(0, VACUUM).scaled(root2)
        plus, minus = VACUUM + shifted, VACUUM - shifted
        for vec, sign in ((plus, 1), (minus, -1)):
            image = ramond_mode(0, vec)
            assert image == vec.scaled(root2 * H * sign)
            with pytest.raises(ValueError, match="parity"):
                vec.homogeneous_parity()

    def test_render(self):
        s = State({(-4, 0): QQ(1)})
        assert "psi(-2)psi(0)|R>" in s.render(R)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
