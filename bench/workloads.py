"""Workload definitions: the verify configurations and the delta-apply stream.

Everything here is a pure function of its arguments (and the seed), so the
runner, the worker processes and the tests all see the same inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Each verify workload is one ``twistfock verify`` call, judged against the
# suite JSON stored in reference/<name>.json.  The even-order windows are
# shrunk from the command-line defaults so that one cold call takes seconds,
# not a minute, while the same check still dominates:
#   verify-k2  twisted Jacobi (about 3/4 of the time),
#   verify-k4  even supercommutator on the 1/4-lattice (about 2/3),
#   verify-k3-obstruction  the full default k=3 suite (obstruction pair and
#              conjugation), identical to `twistfock verify --k 3`.
VERIFY_ARGV = {
    "verify-k2": [
        "verify", "--k", "2", "--radius", "0", "--domain-level", "1",
        "--weight", "1", "--depth", "2", "--format", "json",
    ],
    "verify-k4": [
        "verify", "--k", "4", "--jacobi", "off", "--radius", "1/4",
        "--domain-level", "1/2", "--weight", "1", "--depth", "2",
        "--format", "json",
    ],
    "verify-k3-obstruction": [
        "verify", "--k", "3", "--expect-obstruction", "--format", "json",
    ],
}

SESSION = "delta-session"
WORKLOADS = tuple(VERIFY_ARGV) + (SESSION,)

# delta-session: orders, largest NS word weight, and passes over the request
# universe per session.  A pass issues every request of the universe once:
# the universe is cut into groups of three neighbouring (so similarly
# costly) requests, the groups come in a seeded order, and each group is
# followed by a repeat of one of its members.  A quarter of the requests are
# repeats, and a session's work is nearly the same for every seed.
SESSION_ORDERS = (2, 3, 4, 6)
SESSION_MAX_WEIGHT = Fraction(5)
SESSION_PASSES = 2


def ns_words(max_weight) -> list:
    """Every nonempty NS mode word of weight <= max_weight.

    A word is a strictly increasing tuple of negative half-odd integers;
    its weight is minus the sum of its modes.  Enumerated here rather than
    taken from the library, so the benchmark's inputs do not depend on the
    code under test.
    """
    max_weight = Fraction(max_weight)
    out = []

    def extend(word, weight, lowest):
        if word:
            out.append(tuple(word))
        mode = lowest
        while mode < 0:
            if weight - mode <= max_weight:
                extend(word + [mode], weight - mode, mode + 1)
            mode += 1

    extend([], Fraction(0), -max_weight - Fraction(1, 2))
    return sorted(out, key=lambda w: (-sum(w), w))


def request_universe() -> list:
    """Every (k, word, inverse) request the session generator can draw."""
    return [
        (k, word, inverse)
        for k in SESSION_ORDERS
        for word in ns_words(SESSION_MAX_WEIGHT)
        for inverse in (False, True)
    ]


def session_requests(seed: int) -> list:
    """The seeded request stream of one session."""
    rng = random.Random(seed)
    universe = request_universe()
    groups = [universe[i:i + 3] for i in range(0, len(universe), 3)]
    stream = []
    for _ in range(SESSION_PASSES):
        rng.shuffle(groups)
        for group in groups:
            group = rng.sample(group, len(group))
            stream += group + [rng.choice(group)]
    return stream


def request_argv(request) -> list:
    """The `twistfock delta-apply` arguments of one request.

    The state uses the ``--state=<word>`` form: a separate ``--state
    -3/2,-1/2`` is taken by argparse for an option.
    """
    k, word, inverse = request
    argv = ["delta-apply", "--k", str(k),
            "--state=" + ",".join(str(m) for m in word)]
    if inverse:
        argv.append("--inverse")
    return argv


def request_key(request) -> str:
    """Stable text key of a request, used by the stored response digests."""
    return " ".join(request_argv(request))


def leading_exponent(request) -> Fraction:
    """Closed form of the leading exponent: p/k - p forward, p - p/k inverse."""
    k, word, inverse = request
    p = -sum(word, Fraction(0))
    return p - p / k if inverse else p / k - p
