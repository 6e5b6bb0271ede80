"""Acceptance gate: fourteen exact, zero-tolerance criteria.

Each test covers one numbered criterion, prints a single
``ACCEPTANCE nn PASS/FAIL`` line, and asserts exact equality — no
tolerances anywhere.  Runtime bounds are asserted where a criterion carries
one.  Oracles: closed-form coefficient formulas, compositional-inverse and
round-trip identities, hand-pinned ground weights and central constants,
expected-failure semantics for the odd-order obstruction, and byte-identical
reruns for determinism.
"""

import time

from twistfock.scalars import QQ, ONE
from twistfock.formal import DeltaIdentity, Window, verify_delta_identity
from twistfock.fermion import NS, OMEGA, PSI, VACUUM, R, State, word_level
from twistfock.ramond import ground_weight
from twistfock.deltak import (
    _exp_derivation_on_x,
    check_conjugation,
    check_f_composition,
    check_L_minus1_identities,
    round_trip_defect,
    solve_aj,
)
from twistfock.twist import (
    RecoveredField,
    TwistedModuleView,
    twisted_mode,
    u_functor_sigma_mode,
)
from twistfock.verify import (
    check_character_correspondence,
    check_cross_slot_commutator,
    check_even_supercommutator,
    check_locality,
    check_odd_obstruction,
    check_twisted_jacobi,
    check_u_round_trip,
    run_suite,
    suite_json,
    suite_table,
)

CUBE2 = Window.cube(("x1", "x2"), QQ(-3, 2), QQ(3, 2))
CUBE3 = Window.cube(("x0", "x1", "x2"), QQ(-3, 2), QQ(3, 2))
LINE = Window({"x": (QQ(-5, 2), QQ(5, 2))})


def _report(number: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {status}: {title}{suffix}")


def test_criterion_01_derivation_coefficients():
    start = time.monotonic()
    problems = []
    for k in (1, 2, 4, 6):
        table = solve_aj(k, 6)
        if table.a(1) != QQ(1 - k, 2):
            problems.append(f"a_1(k={k})={table.a(1)}")
        if table.a(2) != QQ(k * k - 1, 12):
            problems.append(f"a_2(k={k})={table.a(2)}")
        forward = _exp_derivation_on_x(table.values, +1, 7)
        for m in range(8):
            oracle = (
                binomial_times_power(k, m) if m >= 1 else QQ(0)
            )
            if forward[m] != oracle:
                problems.append(f"exp(+D)x(k={k}) degree {m}")
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 1.0
    _report(1, "derivation coefficient table and inverse expansion", ok,
            f"{elapsed:.3f}s")
    assert not problems, problems
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.3f}s (budget 1s)"


def binomial_times_power(k: int, m: int) -> QQ:
    from twistfock.scalars import binomial

    return binomial(QQ(1, k), m) * QQ(k) ** m


def test_criterion_02_cover_map_composition():
    start = time.monotonic()
    problems = []
    for k in (2, 4):
        result = check_f_composition(k, 10)
        if result.compared == 0 or result.mismatches:
            problems.append(f"k={k}: {len(result.mismatches)} mismatches")
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 1.0
    _report(2, "cover map composed with its inverse is the identity", ok,
            f"through x^10, {elapsed:.3f}s")
    assert not problems, problems
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.3f}s (budget 1s)"


def test_criterion_03_coordinate_change_round_trip():
    start = time.monotonic()
    problems = []
    count = 0
    for k in (2, 4):
        for word in NS.basis(QQ(4)):
            defect = round_trip_defect(k, State({word: ONE}))
            count += 1
            if not defect.is_zero():
                problems.append(f"k={k}, word {word}")
    elapsed = time.monotonic() - start
    ok = not problems and count > 0 and elapsed < 10.0
    _report(3, "coordinate change forward-then-inverse is the identity", ok,
            f"{count} states, {elapsed:.3f}s")
    assert count > 0
    assert not problems, problems
    assert elapsed < 10.0, f"criterion 3 took {elapsed:.3f}s (budget 10s)"


def test_criterion_04_conjugation_identity():
    start = time.monotonic()
    problems = []
    for u, label in ((PSI, "psi"), (OMEGA, "omega")):
        result = check_conjugation(2, u, cutoff=QQ(5, 2), depth=4)
        if result.compared == 0 or result.mismatches:
            problems.append(f"{label}: {len(result.mismatches)} mismatches")
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 60.0
    _report(4, "conjugation identity for the coordinate-change operator", ok,
            f"{elapsed:.3f}s")
    assert not problems, problems
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.3f}s (budget 60s)"


def test_criterion_05_translation_generator_identities():
    problems = []
    for k in (2, 4):
        result = check_L_minus1_identities(k, cutoff=QQ(2))
        if result.compared == 0 or result.mismatches:
            problems.append(f"k={k}: {len(result.mismatches)} mismatches")
    ok = not problems
    _report(5, "both translation-generator derivative identities", ok)
    assert not problems, problems


def test_criterion_06_central_coefficient():
    problems = []
    words = R.basis(QQ(2))
    for k in (2, 4, 6):
        expected = QQ(k * k - 1, 48 * k * k)
        # the x^-2 coefficient of the first-slot conformal field is mode 1
        mode = twisted_mode(k, OMEGA, QQ(1))
        for word in words:
            diagonal = mode(State({word: ONE})).coefficient(word)
            weight_part = (ground_weight() + word_level(word)) / (k * k)
            if diagonal - weight_part != expected:
                problems.append(f"k={k}, word {word}")
    ok = not problems
    _report(6, "central coefficient of the twisted conformal field", ok,
            "(k^2-1)/(48k^2) for k in {2,4,6}")
    assert not problems, problems


def test_criterion_07_even_supercommutators_and_cross_slots():
    problems = []
    for u, v, label in (
        (PSI, PSI, "psi,psi"),
        (PSI, OMEGA, "psi,omega"),
        (OMEGA, PSI, "omega,psi"),
        (OMEGA, OMEGA, "omega,omega"),
    ):
        report = check_even_supercommutator(2, u, v, CUBE2, domain_level=QQ(3))
        if not (report.verdict == "pass" and report.compared > 0):
            problems.append(f"supercommutator {label}")
    for slots in ((1, 1), (1, 2), (2, 2)):
        report = check_cross_slot_commutator(
            2, PSI, PSI, slots[0], slots[1], CUBE2, domain_level=QQ(3)
        )
        if not (report.verdict == "pass" and report.compared > 0):
            problems.append(f"slots {slots}")
    ok = not problems
    _report(7, "even-order supercommutators on deep domain, all slot pairs", ok)
    assert not problems, problems


def test_criterion_08_odd_order_obstruction():
    even_form, odd_form = check_odd_obstruction(3, PSI, PSI, CUBE2)
    obstructed = (
        even_form.verdict == "fail"
        and even_form.expected_verdict == "fail"
        and len(even_form.mismatches) >= 1
    )
    corrected = odd_form.verdict == "pass" and odd_form.compared > 0
    ok = obstructed and corrected
    _report(8, "odd-order obstruction fails and shifted form passes", ok,
            f"{len(even_form.mismatches)} witnesses")
    assert obstructed, "the even-order identity did not fail at odd order"
    assert corrected, odd_form.mismatches[:3]


def test_criterion_09_twisted_jacobi_and_locality():
    problems = []
    for u, v, label in (
        (PSI, PSI, "psi,psi"),
        (PSI, OMEGA, "psi,omega"),
        (OMEGA, PSI, "omega,psi"),
        (OMEGA, OMEGA, "omega,omega"),
    ):
        report = check_twisted_jacobi(2, u, v, CUBE3)
        if not (report.verdict == "pass" and report.compared > 0):
            problems.append(f"jacobi {label}: {len(report.mismatches)} bad")
    locality = check_locality(2, PSI, PSI, CUBE2)
    found_power = None
    if locality.verdict == "pass" and locality.detail.startswith(
        "vanishing power N="
    ):
        found_power = int(locality.detail.rsplit("=", 1)[1])
    if found_power is None or found_power > 4:
        problems.append(f"locality: {locality.detail}")
    ok = not problems
    _report(9, "three-variable kernel identity and locality bound", ok,
            f"N={found_power}")
    assert not problems, problems


def test_criterion_10_weight_conversion():
    view = TwistedModuleView(2, 4)
    problems = []
    count = 0
    for word in view.basis():
        eigenvalue = view.twisted_weight_eigenvalue(word)
        sigma = view.sigma_weight(word)
        count += 1
        if eigenvalue != sigma / 2 + QQ(1, 32):
            problems.append(f"word {word}: {eigenvalue}")
    ok = not problems and count > 0
    _report(10, "twisted weight equals half the parity-twisted weight plus 1/32",
            ok, f"{count} eigenvalues")
    assert count > 0
    assert not problems, problems


def test_criterion_11_character_correspondence():
    report = check_character_correspondence(2, 7)
    ok = (
        report.verdict == "pass"
        and report.compared > 0
        and report.detail == "8 graded pieces"
    )
    _report(11, "graded dimension matches the contracted spectrum", ok,
            report.detail)
    assert ok, (report.detail, report.mismatches[:3])


def test_criterion_12_recovery_round_trip_and_branch_guard():
    problems = []
    for u, label in ((VACUUM, "vacuum"), (PSI, "psi"), (OMEGA, "omega")):
        report = check_u_round_trip(2, u, LINE)
        if not (report.verdict == "pass" and report.compared > 0):
            problems.append(f"round trip {label}")
    for violation in (1, 3):
        try:
            u_functor_sigma_mode(2, PSI, QQ(1, 2), branch=violation)
            problems.append(f"mode branch {violation} accepted")
        except ValueError:
            pass
        try:
            RecoveredField(2, PSI, branch=violation)
            problems.append(f"field branch {violation} accepted")
        except ValueError:
            pass
    ok = not problems
    _report(12, "inverse-then-forward round trip; branch violations rejected",
            ok)
    assert not problems, problems


def test_criterion_13_delta_identity_suite():
    start = time.monotonic()
    cube = Window.cube(("x0", "x1", "x2"), QQ(-4), QQ(4))
    problems = []
    runs = 0
    for k in (1, 2, 3):
        for kind in DeltaIdentity:
            shifts = (
                (QQ(0), QQ(1, 2), QQ(-1, 2))
                if kind is DeltaIdentity.DF1
                else (QQ(0),)
            )
            for r in shifts:
                result = verify_delta_identity(kind, k, r, cube)
                runs += 1
                if result.compared == 0 or result.mismatches:
                    problems.append(f"{kind.value} k={k} r={r}")
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 5.0
    _report(13, "delta-function identity suite on radius-4 windows", ok,
            f"{runs} identities, {elapsed:.3f}s")
    assert not problems, problems
    assert elapsed < 5.0, f"criterion 13 took {elapsed:.3f}s (budget 5s)"


def test_criterion_14_determinism():
    first = run_suite()
    second = run_suite()
    json_equal = suite_json(first) == suite_json(second)
    table_equal = suite_table(first) == suite_table(second)
    ok = json_equal and table_equal
    _report(14, "two default suite runs are byte-identical", ok)
    assert json_equal and table_equal
