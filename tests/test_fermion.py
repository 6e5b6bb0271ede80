"""Tests for the free-fermion algebra and its vertex operators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistfock.fermion import (
    NS,
    OMEGA,
    PSI,
    VACUUM,
    R,
    State,
    combine,
    vertex_mode,
    virasoro,
    word_level,
    word_parity,
)
from twistfock.formal import compare_fields
from twistfock.scalars import ONE, QQ, binomial

from psi_oracle import fermion_mode

H = QQ(1, 2)


def word(*modes):
    return tuple(QQ(2 * m, 2) for m in modes)


def st_words(max_level=QQ(7, 2)):
    return st.sampled_from(NS.basis(max_level))


# ---------------------------------------------------------------------------
# canonical anticommutation relations
# ---------------------------------------------------------------------------


class TestModeAlgebra:
    def test_annihilates_vacuum(self):
        assert fermion_mode(H, VACUUM).is_zero()

    def test_anticommutator_delta(self):
        created = fermion_mode(-H, VACUUM)
        assert fermion_mode(H, created) == VACUUM

    def test_reordering_sign(self):
        lhs = fermion_mode(-H, fermion_mode(QQ(-3, 2), VACUUM))
        rhs = State({(-3, -1): QQ(-1)})  # doubled: psi(-3/2)psi(-1/2)
        assert lhs == rhs

    def test_pauli_exclusion(self):
        assert fermion_mode(-H, PSI).is_zero()

    @given(st_words(QQ(5, 2)), st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=60)
    def test_car_on_basis(self, w, a2, b2):
        """{psi_m, psi_n} = delta_{m+n,0} on every word."""
        m, n = a2 + H, b2 + H
        s = State({w: QQ(1)})
        anti = fermion_mode(m, fermion_mode(n, s)) + fermion_mode(
            n, fermion_mode(m, s)
        )
        expected = s if m + n == 0 else State({})
        assert anti == expected

    def test_words_are_doubled(self):
        assert NS.check_word((QQ(-3, 2), -H)) == (-3, -1)
        assert R.check_word((QQ(-1), QQ(0))) == (-2, 0)
        assert NS.format_word((-3, -1)) == "psi(-3/2)psi(-1/2)|0>"
        assert R.format_word((-2, 0)) == "psi(-1)psi(0)|R>"
        assert PSI == State({NS.check_word((-H,)): QQ(1)})

    def test_rational_words_are_refused(self):
        # a rational mode is never read as a doubled one, or guessed at,
        # and a word is flat: no entry is a tuple of modes
        for bad in ((-H,), (QQ(-1),), (-0.5,), ((-1,),)):
            with pytest.raises(TypeError, match=r"doubled-int mode; encode "
                               r"modes with NS\.check_word/R\.check_word"):
                State({bad: QQ(1)})

    def test_invalid_words_rejected(self):
        with pytest.raises(ValueError, match="not in Z"):
            NS.check_word((QQ(-1),))
        with pytest.raises(ValueError, match="creation"):
            NS.check_word((H,))
        with pytest.raises(ValueError, match="ascending"):
            NS.check_word((-H, QQ(-3, 2)))

    @pytest.mark.parametrize("modes,message", [
        ((H,), "mode 1/2 is not in Z"),
        ((QQ(-1), QQ(1)), "mode 1 is not a creation mode"),
        ((QQ(0), QQ(-1)), "word (0, -1) is not strictly ascending"),
        ((QQ(-1), QQ(-1)), "word (-1, -1) is not strictly ascending"),
    ])
    def test_invalid_ramond_words_rejected(self, modes, message):
        with pytest.raises(ValueError) as refused:
            R.check_word(modes)
        assert str(refused.value) == message


# ---------------------------------------------------------------------------
# vertex operators from the iterate recursion
# ---------------------------------------------------------------------------


class TestVertexOperators:
    def test_identity_field_of_vacuum(self):
        for w in NS.basis(QQ(5, 2)):
            s = State({w: QQ(1)})
            assert vertex_mode(VACUUM, QQ(-1), s) == s
            assert vertex_mode(VACUUM, QQ(0), s).is_zero()
            assert vertex_mode(VACUUM, QQ(-2), s).is_zero()

    def test_generator_modes_are_fermion_modes(self):
        for w in NS.basis(QQ(2)):
            s = State({w: QQ(1)})
            for t in range(-3, 3):
                assert vertex_mode(PSI, QQ(t), s) == fermion_mode(t + H, s)

    @pytest.mark.parametrize("v_word", [(), (-1,), (-3,), (-3, -1)])
    def test_creation_axiom(self, v_word):
        """Y(v,x) vacuum is regular at x=0 with constant term v."""
        v = State({v_word: QQ(1)})
        assert vertex_mode(v, QQ(-1), VACUUM) == v
        for t in range(0, 4):
            assert vertex_mode(v, QQ(t), VACUUM).is_zero()

    def test_weight_law(self):
        """wt(v_n u) = wt u + wt v - n - 1 on homogeneous inputs."""
        for v_word in NS.basis(QQ(2)):
            v = State({v_word: QQ(1)})
            for u_word in NS.basis(QQ(3, 2)):
                u = State({u_word: QQ(1)})
                for t in range(-4, 4):
                    image = vertex_mode(v, QQ(t), u)
                    if image.is_zero():
                        continue
                    expected = word_level(u_word) + word_level(v_word) - t - 1
                    assert image.homogeneous_level() == expected

    def test_parity_law(self):
        for v_word in NS.basis(QQ(2)):
            v = State({v_word: QQ(1)})
            for u_word in NS.basis(QQ(3, 2)):
                image = vertex_mode(v, QQ(-2), State({u_word: QQ(1)}))
                if image.is_zero():
                    continue
                expected = (word_parity(v_word) + word_parity(u_word)) % 2
                assert image.homogeneous_parity() == expected


# ---------------------------------------------------------------------------
# Virasoro structure
# ---------------------------------------------------------------------------


class TestVirasoro:
    def test_L0_is_weight(self):
        for w in NS.basis(QQ(3)):
            s = State({w: QQ(1)})
            assert virasoro(0, s) == s.scaled(word_level(w))

    def test_L1_on_descendant(self):
        lhs = virasoro(1, State({(-3,): QQ(1)}))
        assert lhs == PSI

    def test_virasoro_matches_bilinear_form(self):
        """L(n) = 1/2 sum_{r in Z+1/2} (r + n/2) psi(n-r) psi(r), n >= 1,
        built from fermion_mode alone: no code shared with the recursion."""

        def bilinear(n, s):
            level = s.homogeneous_level()
            pairs = []
            # psi(n-r) psi(r) vanishes unless n - level <= r <= level
            r = -H - int(level) - n
            while r <= level:
                image = fermion_mode(n - r, fermion_mode(r, s))
                pairs.append((image, (r + QQ(n, 2)) / 2))
                r += 1
            return combine(pairs)

        words = NS.basis(QQ(6))
        assert len(words) == 18
        for w in words:
            s = State({w: QQ(1)})
            for n in range(1, 7):
                assert virasoro(n, s) == bilinear(n, s), (w, n)

    def test_L_annihilates_vacuum(self):
        for n in range(-1, 3):
            assert virasoro(n, VACUUM).is_zero()

    def test_central_term_bracket(self):
        """[L(2), L(-2)] = 4 L(0) + c/2 with c = 1/2."""
        for w in NS.basis(QQ(2)):
            s = State({w: QQ(1)})
            bracket = virasoro(2, virasoro(-2, s)) - virasoro(-2, virasoro(2, s))
            expected = virasoro(0, s).scaled(4) + s.scaled(QQ(1, 4))
            assert bracket == expected

    def test_virasoro_bracket_general(self):
        """[L(m), L(n)] = (m-n) L(m+n) + (c/12)(m^3-m) delta_{m+n,0}."""
        c = H
        for m in range(-2, 3):
            for n in range(-2, 3):
                for w in NS.basis(QQ(3, 2)):
                    s = State({w: QQ(1)})
                    bracket = virasoro(m, virasoro(n, s)) - virasoro(
                        n, virasoro(m, s)
                    )
                    expected = virasoro(m + n, s).scaled(m - n)
                    if m + n == 0:
                        expected = expected + s.scaled(c * QQ(m**3 - m, 12))
                    assert bracket == expected

    def test_L_minus1_derivative_mode_form(self):
        """(L(-1)v)_t = -t v_{t-1} for sample v and targets."""
        for v_word in [(-1,), (-3,), (-3, -1)]:
            v = State({v_word: QQ(1)})
            dv = virasoro(-1, v)
            for w in NS.basis(QQ(3, 2)):
                s = State({w: QQ(1)})
                for t in range(-3, 3):
                    lhs = vertex_mode(dv, QQ(t), s)
                    rhs = vertex_mode(v, QQ(t - 1), s).scaled(-t)
                    assert lhs == rhs


# ---------------------------------------------------------------------------
# Jacobi identity and skew-symmetry
# ---------------------------------------------------------------------------


def borcherds_sides(u, v, w_state, m, n, p):
    """Both sides of the component Jacobi identity at integer (m, n, p)."""
    lhs = State({})
    i = 0
    while True:
        first = vertex_mode(u, m + n - i, vertex_mode(v, p + i, w_state))
        second = vertex_mode(v, n + p - i, vertex_mode(u, m + i, w_state))
        eps = QQ(-1) ** (u.homogeneous_parity() * v.homogeneous_parity())
        sign_n = QQ(-1) ** (n % 2)
        term = (first - second.scaled(eps * sign_n)).scaled(
            (QQ(-1) ** i) * binomial(QQ(n), i)
        )
        lhs = lhs + term
        i += 1
        if i > 24:  # generous cutoff: both inner modes died long before
            break
    rhs = State({})
    for i in range(0, 24):
        inner = vertex_mode(u, n + i, v)
        if inner.is_zero():
            continue
        rhs = rhs + vertex_mode(inner, m + p - i, w_state).scaled(binomial(QQ(m), i))
    return lhs, rhs


class TestJacobi:
    @given(
        st_words(QQ(7, 2)),
        st_words(QQ(7, 2)),
        st_words(QQ(3, 2)),
        st.integers(-2, 2),
        st.integers(-2, 2),
        st.integers(-2, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_component_jacobi(self, uw, vw, ww, m, n, p):
        u, v = State({uw: QQ(1)}), State({vw: QQ(1)})
        w_state = State({ww: QQ(1)})
        lhs, rhs = borcherds_sides(u, v, w_state, m, n, p)
        assert lhs == rhs

    @given(st_words(QQ(5, 2)), st_words(QQ(2)), st.integers(-4, 3))
    @settings(max_examples=40, deadline=None)
    def test_skew_symmetry(self, uw, vw, t):
        """u_t v = eps * sum_j (-1)^{t+j+1} L(-1)^j (v_{t+j} u) / j!"""
        u, v = State({uw: QQ(1)}), State({vw: QQ(1)})
        eps = QQ(-1) ** (word_parity(uw) * word_parity(vw))
        lhs = vertex_mode(u, QQ(t), v)
        rhs = State({})
        for j in range(0, 16):
            inner = vertex_mode(v, QQ(t + j), u)
            if inner.is_zero():
                continue
            for _ in range(j):
                inner = virasoro(-1, inner)
            sign = QQ(-1) ** ((t + j + 1) % 2)
            rhs = rhs + inner.scaled(sign / _factorial(j))
        assert lhs == rhs.scaled(eps)


def _factorial(j):
    out = QQ(1)
    for i in range(2, j + 1):
        out *= i
    return out


# ---------------------------------------------------------------------------
# fields read through their modes
# ---------------------------------------------------------------------------


class TestMaterializedFields:
    def test_derivative_field_identity(self):
        """d/dx Y(v,x) = Y(L(-1)v, x), compared column by column: the
        column at x^e on a word is mode -e-1 on it."""
        exponents = [QQ(n) for n in range(-3, 4)]
        basis = NS.basis(QQ(3, 2))

        def field(v):
            def column(e, w):
                image = vertex_mode(v, -e - 1, State({w: ONE}))
                return image.den, image.nums
            return column

        def derivative(columns):
            def column(e, w):
                if e == -1:
                    return 1, ()
                den, nums = columns(e + 1, w)
                scale = e + 1
                return (den * scale.denominator,
                        [(o, scale.numerator * c) for o, c in nums])
            return column

        for v in (PSI, OMEGA):
            result = compare_fields(
                "derivative-field", derivative(field(v)),
                field(virasoro(-1, v)), exponents, basis,
            )
            assert result.passed


# ---------------------------------------------------------------------------
# basis enumeration
# ---------------------------------------------------------------------------


class TestBasis:
    @pytest.mark.parametrize("basis", [NS.basis, R.basis],
                             ids=["ns_basis", "ramond_basis"])
    @pytest.mark.parametrize("level", [QQ(-1), QQ(-1, 2)])
    def test_empty_below_level_zero(self, basis, level):
        assert basis(level) == []

    def test_level_zero_is_the_ground_word(self):
        assert NS.basis(QQ(0)) == [()]
        assert R.basis(QQ(0)) == [(), (0,)]

    def test_small_levels(self):
        # doubled words: (-3, -1) is psi(-3/2)psi(-1/2), (-2, 0) psi(-1)psi(0)
        assert NS.basis(QQ(2)) == [(), (-1,), (-3,), (-3, -1)]
        assert R.basis(QQ(1)) == [(), (0,), (-2,), (-2, 0)]


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
