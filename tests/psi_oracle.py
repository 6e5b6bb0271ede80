"""The generator's physical modes on states, an oracle that shares no code
with the package's psi action.

`apply_phys_mode` applies one physical mode to a word of `QQ` modes with
`Fraction` coefficients, as the package did before its words were doubled.
`fermion_mode` and `ramond_mode` push a `State` through it word by word,
decoding each doubled word and encoding the result.  From
`twistfock.fermion` this module takes only `State`, so the mode recursion's
own action `fermion._apply2` is never reached
(`tests/test_kernel_equivalence.py` checks the imports).
"""

from twistfock.fermion import State
from twistfock.scalars import HALF, QQ, ZERO


def decode(word2) -> tuple:
    """The QQ word of a doubled word."""
    return tuple(QQ(m2, 2) for m2 in word2)


def encode(word) -> tuple:
    """The doubled word of a QQ word."""
    return tuple(int(2 * m) for m in word)


def apply_phys_mode(word, m, ramond: bool):
    """psi_m applied to one ordered word; returns [(word, rational)].

    Annihilation (m > 0) contracts against a matching creation mode with the
    sign of the anticommutations passed; creation (m < 0) inserts in order,
    vanishing on a repeated mode; the twisted-sector zero mode squares to 1/2.
    """
    m = QQ(m)
    if ramond:
        if m.denominator != 1:
            raise ValueError(f"twisted-sector mode {m} must be an integer")
    elif (2 * m).denominator != 1 or (2 * m).numerator % 2 == 0:
        raise ValueError(f"untwisted-sector mode {m} must be in Z + 1/2")
    if m > 0:
        for i, entry in enumerate(word):
            if entry + m == 0:
                reduced = word[:i] + word[i + 1 :]
                return [(reduced, QQ(-1) ** i)]
        return []
    if m == 0:  # only reachable in the twisted sector
        if word and word[-1] == 0:
            return [(word[:-1], HALF * QQ(-1) ** (len(word) - 1))]
        return [(word + (ZERO,), QQ(-1) ** len(word))]
    if m in word:
        return []
    position = sum(1 for entry in word if entry < m)
    inserted = tuple(sorted(word + (m,)))
    return [(inserted, QQ(-1) ** position)]


def _phys_mode(m, s: State, ramond: bool) -> State:
    out = {}
    for word, coeff in s.terms:
        for new_word, factor in apply_phys_mode(decode(word), m, ramond):
            key = encode(new_word)
            out[key] = out.get(key, ZERO) + coeff * factor
    return State(out)


def fermion_mode(n, s: State) -> State:
    """The generator's physical mode psi_n, n in Z + 1/2, on an untwisted
    state."""
    return _phys_mode(n, s, False)


def ramond_mode(n, s: State) -> State:
    """The generator's integer physical mode psi_n on a twisted state;
    psi_0 squares to 1/2."""
    return _phys_mode(n, s, True)
