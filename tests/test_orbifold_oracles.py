"""Closed forms of the forward construction that share no code with the
coordinate change.

Every other check of `SlotField` reaches the twisted modes through
`deltak.apply_delta`, so a defect in the a_j table or in the index
arithmetic of the slot modes could pass the field checks consistently.  The
cyclic-orbifold literature (Borisov-Halpern-Schweigert, "Systematic
approach to cyclic orbifolds", IJMPA 1998; Barron-Dong-Mason, CMP 2002)
gives the first-slot fields of the generator and of the conformal vector in
terms of the parity-twisted generator alone:

* generator: mode m of the first-slot field of psi, on the (1/k)-lattice,
  is k^{-1/2} psi_{km + k/2} (a physical Ramond mode);
* twisted Virasoro: k times mode n+1 of the first-slot field of omega is
  (1/k) L^R(kn) + delta_{n,0} (k^2 - 1) c / (24k), where L^R is the Ramond
  bilinear in the generator's modes;
* ground energy: sum_j B_2({1/2 + j/k}) / 4 over j = 0..k-1 is the leading
  exponent of the twisted character for even k (Raabe's multiplication
  formula gives 1/(24k)), and for odd k the same offset built on the NS
  module, -kc/24 + h/k + (k^2 - 1)c/(24k) with h = `NS.ground_weight()`,
  which is -1/(48k).

The right sides are built from `psi_oracle.ramond_mode`, which applies one
physical mode to each word without the package's psi action, and from
exact rationals.
"""

import pytest

from twistfock.fermion import (
    CENTRAL_CHARGE, NS, OMEGA, PSI, R, State, combine, word_level,
)
from twistfock.scalars import ONE, QQ, k_to_the
from twistfock.twist import TwistedModuleView, twisted_mode

from psi_oracle import ramond_mode

WORDS = R.basis(QQ(3))


def ramond_virasoro(N: int, s: State) -> State:
    """L^R(N) = 1/2 sum_r (r - N/2) :psi_{N-r} psi_r: + delta_{N,0}/16 on
    a state of homogeneous level, the annihilating mode to the right in
    each normal-ordered pair.  A pair acts only while its annihilator is at
    most the level, so r runs over N - level .. level."""
    level = int(s.homogeneous_level())
    terms = []
    for r in range(N - level - 1, level + 2):
        a = N - r
        c = QQ(2 * r - N, 4)
        if not c:
            continue
        if a > 0:  # :psi_a psi_r: = -psi_r psi_a
            terms.append((ramond_mode(r, ramond_mode(a, s)), -c))
        else:
            terms.append((ramond_mode(a, ramond_mode(r, s)), c))
    if N == 0:
        terms.append((s, QQ(1, 16)))
    return combine(terms)


def test_ramond_bilinear_is_the_weight_operator():
    # L^R(0) is the grading: ground weight 1/16 plus the word's level
    for word in WORDS:
        s = State({word: ONE})
        assert ramond_virasoro(0, s) == s.scaled(QQ(1, 16) + word_level(word))


@pytest.mark.parametrize("k", [2, 4])
def test_generator_slot_modes_are_rescaled_ramond_modes(k):
    scale = k_to_the(k, QQ(-1, 2))
    compared = nonzero = 0
    for n in range(-3 * k, 3 * k + 1):
        m = QQ(n, k)
        mode = twisted_mode(k, PSI, m)
        for word in WORDS:
            s = State({word: ONE})
            expected = ramond_mode(n + QQ(k, 2), s).scaled(scale)
            assert mode(s) == expected, (m, word)
            compared += 1
            nonzero += not expected.is_zero()
    assert compared == (6 * k + 1) * len(WORDS)
    assert nonzero > 0


@pytest.mark.parametrize("k", [2, 4, 6])
def test_twisted_virasoro_is_the_rescaled_ramond_bilinear(k):
    central = QQ(k * k - 1) * CENTRAL_CHARGE / (24 * k)
    for n in range(-3, 4):
        mode = twisted_mode(k, OMEGA, QQ(n + 1))
        for word in WORDS:
            s = State({word: ONE})
            expected = ramond_virasoro(k * n, s).scaled(QQ(1, k))
            if n == 0:
                expected = expected + s.scaled(central)
            assert mode(s).scaled(QQ(k)) == expected, (n, word)


def bernoulli2(x):
    return x * x - x + QQ(1, 6)


@pytest.mark.parametrize("k", range(1, 9))
def test_ground_energy_of_the_cycle(k):
    energy = sum(bernoulli2((QQ(1, 2) + QQ(j, k)) % 1) for j in range(k)) / 4
    if k % 2 == 0:
        assert energy == TwistedModuleView(k, 0).character_offset()
        assert energy == QQ(1, 24 * k)
    else:
        # the character offset on the NS module, whose ground weight the
        # kernel computes: the tensor-power prefactor, the ground weight
        # over k and the conversion constant of the twisted weight operator
        c = CENTRAL_CHARGE
        offset = (-k * c / 24 + NS.ground_weight() / k
                  + QQ(k * k - 1) * c / (24 * k))
        assert energy == offset
        assert energy == QQ(-1, 48 * k)
