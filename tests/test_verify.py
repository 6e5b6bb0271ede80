"""Tests for the verification engine and its aggregated suite.

Oracle notes.  The checks in this module each compare two independent
evaluation paths of one algebraic identity (commutator against residue
form, three-variable kernel identity, operator spectrum against rescaled
spectrum), so the primary oracles are: every check passes with a nonzero
comparison count on even order, the odd-order even-form check fails on a
nonzero set of coefficients while its shifted-lattice form passes, and a
window that selects no coefficients can never report a pass.  Report
mechanics (verdict logic, expected verdicts, serialization) are pinned by
hand-built reports.
"""

import json

import pytest

from twistfock.scalars import MAX_CONDUCTOR, ONE, QQ, binomial
from twistfock.fermion import (
    NS,
    OMEGA,
    PSI,
    VACUUM,
    ZERO_STATE,
    R,
    State,
    combine,
    vertex_mode,
    word_level,
)
from twistfock import twist, verify
from twistfock.formal import (
    ComparisonResult,
    Window,
    merged_delta_kernel,
)
from twistfock.twist import MAX_CUTOFF, SlotField
from twistfock.verify import (
    _ModeFamily,
    _iterate_top,
    _jacobi_left,
    _pair,
    _slot_field,
    _smallest_passing,
    _wrap_comparison,
    CheckReport,
    SuiteConfig,
    check_character_correspondence,
    check_cross_slot_commutator,
    check_even_supercommutator,
    check_grading,
    check_limit_axiom,
    check_locality,
    check_odd_obstruction,
    check_recovered_commutator,
    check_t_round_trip,
    check_translation_derivative,
    check_twisted_jacobi,
    check_u_round_trip,
    check_weak_associativity,
    run_suite,
    suite_json,
    suite_passed,
    suite_table,
)

from test_core_equivalence import rational_slot_mode

CUBE2 = Window.cube(("x1", "x2"), QQ(-3, 2), QQ(3, 2))
CUBE3 = Window.cube(("x0", "x1", "x2"), QQ(-3, 2), QQ(3, 2))
ASSOC2 = Window.cube(("x0", "x2"), QQ(-3, 2), QQ(3, 2))
LINE = Window({"x": (QQ(-5, 2), QQ(5, 2))})


@pytest.fixture
def no_checks(monkeypatch):
    """Replace every check function of the suite by a recorder; the list of
    the names called is returned."""
    called = []
    for name in vars(verify):
        if name.startswith("check_") or name in (
                "verify_delta_identity", "round_trip_defect"):
            monkeypatch.setattr(
                verify, name,
                lambda *args, name=name, **kwargs: called.append(name))
    return called


def assert_clean_pass(report):
    assert report.verdict == "pass"
    assert report.expected_verdict == "pass"
    assert report.as_expected
    assert report.compared > 0
    assert report.mismatches == ()


class TestReportMechanics:
    def test_pass_needs_comparisons(self):
        vacuous = CheckReport("empty", 2, "w", 0, ())
        assert vacuous.verdict == "fail"
        assert not vacuous.as_expected

    def test_mismatch_fails(self):
        bad = CheckReport("bad", 2, "w", 3, (("spot", "1", "2"),))
        assert bad.verdict == "fail"
        assert not bad.as_expected

    def test_expected_failure_is_in_order(self):
        bad = CheckReport("bad", 3, "w", 3, (("spot", "1", "2"),), "fail")
        assert bad.verdict == "fail"
        assert bad.as_expected
        ok = CheckReport("ok", 3, "w", 3, (), "fail")
        assert ok.verdict == "pass"
        assert not ok.as_expected

    def test_to_dict_is_json_ready(self):
        report = CheckReport("name", 2, "w", 5, (("spot", "1", "2"),))
        encoded = json.dumps(report.to_dict())
        decoded = json.loads(encoded)
        assert decoded["verdict"] == "fail"
        assert decoded["mismatch_count"] == 1
        assert decoded["compared"] == 5

    def test_wrap_comparison_renders_witnesses(self):
        state = State({R.basis(QQ(1))[-1]: QQ(-1, 2)})
        result = ComparisonResult("name")
        result.compare(("spot", 1), state, ZERO_STATE)
        result.compare("scalar", QQ(1, 3), "text")
        result.compare("same", state, state)
        report = _wrap_comparison(result, 2, "w", detail="d")
        assert report.mismatches == (
            ("('spot', 1)", state.render(R), "0"),
            ("scalar", "1/3", "text"),
        )
        assert (report.name, report.compared, report.detail) == ("name", 3, "d")

    @pytest.mark.parametrize("good", [None, 0, 2])
    def test_smallest_passing_search(self, good):
        calls = []

        def attempt(n):
            calls.append(n)
            result = ComparisonResult("search")
            result.compare(f"n={n}", n == good, True)
            return result

        report = _smallest_passing(attempt, 3, 2, "w", "shift", "n")
        if good is None:
            assert calls == [0, 1, 2, 3]
            assert report.mismatches == (("n=3", "False", "True"),)
            assert report.detail == "no shift up to n=3"
        else:
            assert calls == list(range(good + 1))
            assert_clean_pass(report)
            assert report.detail == f"shift n={good}"

    def test_suite_passed_mixes_expected_verdicts(self):
        reports = [
            CheckReport("a", 2, "w", 1, ()),
            CheckReport("b", 3, "w", 1, (("s", "1", "2"),), "fail"),
        ]
        assert suite_passed(reports)
        reports.append(CheckReport("c", 3, "w", 1, (("s", "1", "2"),)))
        assert not suite_passed(reports)


class TestCommutatorChecks:
    def test_even_supercommutator_pairs(self):
        for u, v in ((PSI, PSI), (PSI, OMEGA), (OMEGA, OMEGA), (OMEGA, VACUUM)):
            assert_clean_pass(check_even_supercommutator(2, u, v, CUBE2))

    def test_even_supercommutator_rejects_odd_order(self):
        with pytest.raises(ValueError):
            check_even_supercommutator(3, PSI, PSI, CUBE2)

    def test_even_supercommutator_rejects_zero_state(self):
        with pytest.raises(ValueError):
            check_even_supercommutator(2, ZERO_STATE, PSI, CUBE2)

    def test_cross_slot_pairs(self):
        for slots in ((1, 2), (2, 2)):
            assert_clean_pass(
                check_cross_slot_commutator(2, PSI, PSI, slots[0], slots[1], CUBE2)
            )
        # (psi, omega) has the non-vacuum product psi, whose field depends
        # on its slot: a product field in the wrong slot fails here
        assert_clean_pass(check_cross_slot_commutator(2, PSI, OMEGA, 1, 2, CUBE2))

    @pytest.mark.parametrize("k,mismatched,compared",
                             [(2, 18, 1014), (4, 42, 3750)])
    def test_cross_slot_kernel_weight_comes_from_the_fields(
            self, k, mismatched, compared):
        # slots (2, 1): the residue kernel is weighted by the root of unity
        # of the left field's power less the right one's; zeroing the left
        # power after construction keeps every mode and drops that weight
        def run(planted):
            left = _slot_field(k, PSI, slot=2)
            if planted:
                left.power = 0
            (report,) = verify._commutator_report(
                k, left, _slot_field(k, PSI, slot=1), CUBE2,
                forms=(("cross-slot", 0, "pass"),),
            )
            return report

        assert_clean_pass(run(False))
        assert run(False).compared == compared
        planted = run(True)
        assert (planted.compared, len(planted.mismatches)) == (compared, mismatched)

    @pytest.mark.parametrize("k,mismatched,compared",
                             [(2, 132, 1014), (4, 724, 3750)])
    def test_cross_slot_product_field_keeps_its_slot(
            self, monkeypatch, k, mismatched, compared):
        # (psi, omega) in slots (1, 2): the product state psi enters the
        # residue through the right field's `field_of`; a product field
        # put back in the first slot fails the check
        assert_clean_pass(check_cross_slot_commutator(k, PSI, OMEGA, 1, 2, CUBE2))
        monkeypatch.setattr(SlotField, "field_of",
                            lambda self, u: SlotField(self.k, u))
        planted = check_cross_slot_commutator(k, PSI, OMEGA, 1, 2, CUBE2)
        assert (planted.compared, len(planted.mismatches)) == (compared, mismatched)

    def test_cross_slot_rejects_bad_slot(self):
        with pytest.raises(ValueError):
            check_cross_slot_commutator(2, PSI, PSI, 0, 1, CUBE2)
        with pytest.raises(ValueError):
            check_cross_slot_commutator(2, PSI, PSI, 1, 3, CUBE2)

    def test_odd_obstruction_fails_then_passes(self):
        even_form, odd_form = check_odd_obstruction(3, PSI, PSI, CUBE2)
        assert even_form.verdict == "fail"
        assert even_form.expected_verdict == "fail"
        assert even_form.as_expected
        assert len(even_form.mismatches) > 0
        assert_clean_pass(odd_form)

    def test_odd_obstruction_even_argument_has_no_shift(self):
        even_form, odd_form = check_odd_obstruction(3, OMEGA, OMEGA, CUBE2)
        assert even_form.expected_verdict == "pass"
        assert_clean_pass(even_form)
        assert_clean_pass(odd_form)

    def test_odd_obstruction_rejects_even_order(self):
        with pytest.raises(ValueError):
            check_odd_obstruction(2, PSI, PSI, CUBE2)

    def test_recovered_commutator_both_builders(self):
        assert_clean_pass(check_recovered_commutator(2, PSI, PSI, CUBE2))
        assert_clean_pass(
            check_recovered_commutator(2, PSI, PSI, CUBE2, use_recovered=False)
        )


class TestTwistedJacobi:
    def test_fermion_pair(self):
        assert_clean_pass(check_twisted_jacobi(2, PSI, PSI, CUBE3))

    def test_conformal_pair(self):
        assert_clean_pass(check_twisted_jacobi(2, OMEGA, OMEGA, CUBE3))

    def test_mixed_pairs(self):
        assert_clean_pass(check_twisted_jacobi(2, PSI, OMEGA, CUBE3))
        assert_clean_pass(check_twisted_jacobi(2, OMEGA, PSI, CUBE3))

    def test_vacuum_collapses_to_delta_identity(self):
        # with the vacuum on the left the kernel sum telescopes to a single
        # delta-function term, so the identity must hold coefficient for
        # coefficient on the same grid as the generic case
        collapsed = check_twisted_jacobi(2, VACUUM, PSI, CUBE3)
        generic = check_twisted_jacobi(2, PSI, PSI, CUBE3)
        assert_clean_pass(collapsed)
        assert collapsed.compared == generic.compared

    def test_vacuum_on_the_right(self):
        assert_clean_pass(check_twisted_jacobi(2, PSI, VACUUM, CUBE3))

    def test_order_four(self):
        window = Window.cube(("x0", "x1", "x2"), QQ(-1), QQ(1))
        assert_clean_pass(check_twisted_jacobi(4, PSI, PSI, window))

    def test_rejects_odd_order(self):
        with pytest.raises(ValueError):
            check_twisted_jacobi(3, PSI, PSI, CUBE3)

    def test_window_without_lattice_points_cannot_pass(self):
        # a nonempty exponent window that misses every lattice point selects
        # zero coefficients, and zero comparisons is a failure, not a pass
        window = Window.cube(("x0", "x1", "x2"), QQ(1, 3), QQ(5, 12))
        report = check_twisted_jacobi(2, PSI, PSI, window)
        assert report.compared == 0
        assert report.verdict == "fail"

    def test_window_restriction_is_consistent(self):
        # shrinking the window can only remove comparison points, never
        # change a verdict on the points that remain
        small = check_twisted_jacobi(
            2, PSI, PSI, Window.cube(("x0", "x1", "x2"), QQ(-1), QQ(1))
        )
        large = check_twisted_jacobi(2, PSI, PSI, CUBE3)
        assert_clean_pass(small)
        assert_clean_pass(large)
        assert small.compared < large.compared


class TestJacobiKernels:
    """The left side of the three-variable identity built a second way.

    Each monomial c x0^p0 x1^p1 x2^p2 (keyed (p0, p1, p2)) of the kernel
    table x0^{-1} delta((x1-x2)/x0) from `formal.merged_delta_kernel`,
    complete on a window with x1 unbounded, contributes c A(p1-e1-1) B(p2-e2-1) w
    to the x0^p0 x1^e1 x2^e2 coefficient; each monomial of
    x0^{-1} delta((x2-x1)/(-x0)) contributes -eps c B(p2-e2-1) A(p1-e1-1) w.
    A and B are the raw slot-field modes, with no annihilation bound, so the
    oracle shares neither the binomial loop nor the truncation of
    `verify._product_terms`; the left side is read as the check reads it,
    a linear form over the composites through `verify._form_value`.
    """

    K = 2
    LEVEL = QQ(1)
    BOUND = QQ(1)
    # the expansion variable reaches i = 8, past every inner mode that acts
    REACH = 8

    @pytest.mark.parametrize(
        "u, v", [(PSI, PSI), (OMEGA, OMEGA)], ids=["psi", "omega"]
    )
    def test_left_side_matches_delta_kernels(self, u, v):
        k, lo, hi = self.K, -self.BOUND, self.BOUND
        left = _ModeFamily(_slot_field(k, u))
        right = _ModeFamily(_slot_field(k, v))
        # a word at the top level of the domain
        top_state = next(State({word: ONE})
                         for word in R.basis(self.LEVEL)
                         if word_level(word) == self.LEVEL)
        for family in (left, right):
            # an inner mode b + i with b = -e - 1 >= -hi - 1 acts only while
            # b + i <= top, i.e. for i <= top + hi + 1; the top is an index
            # on the family's scale, on a word of the top level
            top = QQ(family.top(top_state), family.scale)
            assert top + hi + 1 < self.REACH
        eps = -ONE if (left.parity and right.parity) else ONE
        pair = _pair(left, right)
        # integer exponents: at scale 1 a key is the exponents themselves,
        # and each table is read back as rational coefficients
        tables = [merged_delta_kernel(
            top, second, "x0", Window({"x0": (lo, hi), second: (0, self.REACH)}),
            scale=1, bottom_sign=sign,
        ) for top, second, sign in (("x1", "x2", 1), ("x2", "x1", -1))]
        first, second = ({key: QQ(c, den) for key, c in nums.items()}
                         for den, nums in tables)
        field_a, field_b = SlotField(k, u), SlotField(k, v)
        cache = {}

        def act(field, m, state):
            key = (id(field), m, state)
            if key not in cache:
                cache[key] = rational_slot_mode(field, m, state)
            return cache[key]

        grid0 = [QQ(a) for a in range(int(lo), int(hi) + 1)]
        grid = [QQ(n, k) for n in range(int(lo * k), int(hi * k) + 1)]
        nonzero = 0
        for word in R.basis(self.LEVEL):
            w = State({word: ONE})
            composites = {}
            for alpha in grid0:
                for e1 in grid:
                    for e2 in grid:
                        terms = []
                        for (p0, p1, p2), c in first.items():
                            if p0 == alpha:
                                inner = act(field_b, p2 - e2 - 1, w)
                                terms.append(
                                    (act(field_a, p1 - e1 - 1, inner), c)
                                )
                        for (p0, p1, p2), c in second.items():
                            if p0 == alpha:
                                inner = act(field_a, p1 - e1 - 1, w)
                                terms.append(
                                    (act(field_b, p2 - e2 - 1, inner), -eps * c)
                                )
                        expected = combine(terms)
                        actual = _jacobi_left(
                            pair, int(-alpha - 1), int(2 * k * e1),
                            int(2 * k * e2), w, composites,
                        )
                        assert actual == expected, (alpha, e1, e2, word)
                        nonzero += not expected.is_zero()
        # the comparison is not vacuous: some coefficients are nonzero
        assert nonzero > 0

    @pytest.mark.parametrize("k, radius, level, count", [
        (2, 2, QQ(1), 648), (4, 1, QQ(1, 2), 162),
    ], ids=["k2", "k4"])
    @pytest.mark.parametrize("u, v", [
        (PSI, PSI), (OMEGA, OMEGA), (PSI, OMEGA), (OMEGA, PSI), (VACUUM, PSI),
    ], ids=["psi-psi", "omega-omega", "psi-omega", "omega-psi", "vacuum-psi"])
    def test_left_side_below_x0_zero_is_the_iterate_field(
            self, k, radius, level, count, u, v):
        """At x0^alpha with alpha < 0 only the untwisted class of the right
        side survives, and it is the first-slot field of the iterate: the
        x1^e1 x2^e2 coefficient is
            (1/k) sum_i (-1)^i C(e1 + i, i) (u_{i-alpha-1} v)_{-e1-e2-i-2}
        for i up to the iterate top plus alpha plus one, the mode being that
        of the iterate state's `SlotField`.  So the oracle shares neither
        `_field_product_form` nor `verify._product_terms`."""
        pair = _pair(_ModeFamily(_slot_field(k, u)),
                     _ModeFamily(_slot_field(k, v)))
        top = _iterate_top(u, v)
        step = 2 * k
        grid = range(-step * radius, step * radius + 1, 2)
        iterates = {}

        def iterate_field(t):
            if t not in iterates:
                state = vertex_mode(u, t, v)
                iterates[t] = None if state.is_zero() else SlotField(k, state)
            return iterates[t]

        compared = nonzero = 0
        for word in R.basis(level):
            w = State({word: ONE})
            composites = {}
            for alpha in range(-radius, 0):
                for E1 in grid:
                    for E2 in grid:
                        terms = []
                        for i in range(top + alpha + 2):
                            field = iterate_field(i - alpha - 1)
                            if field is None:
                                continue
                            c = (-1) ** i * binomial(QQ(E1, step) + i, i) / k
                            image = field.mode_at(-E1 - E2 - step * (i + 2), w)
                            terms.append((image, c))
                        expected = combine(terms)
                        actual = _jacobi_left(pair, -alpha - 1, E1, E2, w,
                                              composites)
                        assert actual == expected, (alpha, E1, E2, word)
                        compared += 1
                        nonzero += not expected.is_zero()
        assert compared == count
        # 1_t v = 0 for t >= 0, so the vacuum's left side vanishes below x0^0
        assert (nonzero > 0) == (u != VACUUM)


class TestLocality:
    def test_fermion_pair_has_small_vanishing_power(self):
        report = check_locality(2, PSI, PSI, CUBE2)
        assert_clean_pass(report)
        assert report.detail == "vanishing power N=1"

    def test_conformal_pair(self):
        report = check_locality(2, OMEGA, OMEGA, CUBE2, max_power=4)
        assert_clean_pass(report)
        assert report.detail.startswith("vanishing power N=")

    def test_cross_slot_locality(self):
        report = check_locality(2, PSI, PSI, CUBE2, slot_u=1, slot_v=2)
        assert_clean_pass(report)

    @pytest.mark.parametrize("slots", [(0, 1), (3, 1), (1, 0), (1, 3)])
    def test_rejects_out_of_range_slot(self, slots):
        # slots outside 1..k are refused as the cross-slot check refuses
        # them, not reduced mod k
        window = Window.cube(("x1", "x2"), 0, 0)
        with pytest.raises(ValueError, match="tensor slot must lie in 1..2"):
            check_locality(
                2, PSI, PSI, window, slot_u=slots[0], slot_v=slots[1],
                domain_level=QQ(1),
            )


SMALL2 = Window.cube(("x1", "x2"), QQ(-1, 2), QQ(1, 2))
SMALL3 = Window.cube(("x0", "x1", "x2"), QQ(-1, 2), QQ(1, 2))
SMALL_ASSOC = Window.cube(("x0", "x2"), QQ(-1, 2), QQ(1, 2))

#: the checks that read fields directly, and the ones that cache modes
FIELD_CHECKS = {
    "even-supercommutator": lambda: check_even_supercommutator(
        2, PSI, OMEGA, SMALL2, domain_level=QQ(1)),
    "cross-slot": lambda: check_cross_slot_commutator(
        2, PSI, PSI, 1, 2, SMALL2, domain_level=QQ(1)),
    "locality": lambda: check_locality(2, PSI, PSI, SMALL2, domain_level=QQ(1)),
    "recovered-commutator": lambda: check_recovered_commutator(
        2, PSI, PSI, SMALL2, domain_level=QQ(1)),
    "native-commutator": lambda: check_recovered_commutator(
        2, PSI, PSI, SMALL2, domain_level=QQ(1), use_recovered=False),
}
CACHING_CHECKS = {
    "twisted-jacobi": lambda: check_twisted_jacobi(
        2, PSI, PSI, SMALL3, domain_level=QQ(1)),
    "weak-associativity": lambda: check_weak_associativity(
        2, PSI, PSI, SMALL_ASSOC, domain_level=QQ(1)),
}


class TestSearchBounds:
    """A negative search bound is refused before any field or grid is
    built; the counting patches see the work of a bound of 0."""

    def test_locality_refuses_before_the_grid(self, monkeypatch):
        calls = []
        grid = verify._supercommutator_grid
        monkeypatch.setattr(verify, "_supercommutator_grid",
                            lambda *args: calls.append(1) or grid(*args))
        with pytest.raises(ValueError,
                           match="the search bound N must be >= 0, got -1"):
            check_locality(2, PSI, PSI, SMALL2, max_power=-1, domain_level=QQ(1))
        assert calls == []
        check_locality(2, PSI, PSI, SMALL2, max_power=0, domain_level=QQ(1))
        assert calls

    def test_weak_associativity_refuses_before_the_families(self, monkeypatch):
        calls = []
        family = verify._ModeFamily
        monkeypatch.setattr(verify, "_ModeFamily",
                            lambda field: calls.append(1) or family(field))
        with pytest.raises(ValueError,
                           match="the search bound n must be >= 0, got -1"):
            check_weak_associativity(2, PSI, PSI, SMALL_ASSOC, max_order=-1,
                                     domain_level=QQ(1))
        assert calls == []
        check_weak_associativity(2, PSI, PSI, SMALL_ASSOC, max_order=0,
                                 domain_level=QQ(1))
        assert calls


class TestModeCache:
    """Only the checks built on expanded products cache modes: the
    commutator engine and locality read the fields directly."""

    @pytest.fixture
    def family_calls(self, monkeypatch):
        calls = []
        mode = verify._ModeFamily.mode

        def counted(family, M, state):
            calls.append(M)
            return mode(family, M, state)

        monkeypatch.setattr(verify._ModeFamily, "mode", counted)
        return calls

    @pytest.mark.parametrize("name", sorted(FIELD_CHECKS))
    def test_commutator_checks_never_use_the_cache(self, family_calls, name):
        assert_clean_pass(FIELD_CHECKS[name]())
        assert family_calls == []

    @pytest.mark.parametrize("name", sorted(CACHING_CHECKS))
    def test_expanded_product_checks_use_the_cache(self, family_calls, name):
        assert_clean_pass(CACHING_CHECKS[name]())
        assert family_calls


class TestStructureChecks:
    def test_limit_axiom(self):
        for u in (PSI, OMEGA):
            assert_clean_pass(check_limit_axiom(2, u, LINE))

    def test_limit_axiom_order_four(self):
        assert_clean_pass(check_limit_axiom(4, PSI, LINE))

    def test_translation_derivative_any_order(self):
        # L(-1) kills the vacuum: its translated field is empty, and so is
        # the derivative of its constant field
        for u in (VACUUM, PSI, OMEGA):
            for k in (1, 2, 3):
                assert_clean_pass(check_translation_derivative(k, u, LINE))

    def test_grading(self):
        for u in (PSI, OMEGA):
            assert_clean_pass(check_grading(2, u, LINE))

    def test_grading_reads_the_level_lattice_of_the_sector(self, monkeypatch):
        # on the NS module levels lie in (1/2)Z: with the slot fields read
        # there at k = 3, the images of psi's modes sit at half-integer
        # levels, on the lattice of the field's sector
        monkeypatch.setattr(SlotField, "sector", NS)
        monkeypatch.setattr(verify, "require_even_order", lambda k: None)
        half_levels = 0
        mode_at = SlotField.mode_at

        def counted(self, M, state):
            nonlocal half_levels
            image = mode_at(self, M, state)
            if image.nums:
                half_levels += image.homogeneous_level().denominator == 2
            return image

        monkeypatch.setattr(SlotField, "mode_at", counted)
        for u in (PSI, OMEGA):
            assert_clean_pass(check_grading(3, u, LINE))
        assert half_levels > 0

    @pytest.mark.parametrize("image, lhs, rhs", [
        # the Ramond ground state: level 0, the wrong level for most modes
        (State({(): ONE}), "level 0", "on the nonnegative integers"),
        # the ground state plus a level-1 word: no level at all
        (State({(): ONE, (-2,): ONE}), "(1)*|R> + (1)*psi(-1)|R>",
         "a homogeneous state"),
    ], ids=["wrong-level", "mixed-level"])
    def test_grading_reports_a_planted_image(self, monkeypatch, image, lhs, rhs):
        monkeypatch.setattr(SlotField, "mode_at", lambda self, M, state: image)
        report = check_grading(2, PSI, LINE)
        assert report.verdict == "fail"
        assert 0 < len(report.mismatches) <= report.compared
        for _, got_lhs, got_rhs in report.mismatches:
            assert got_lhs == lhs and got_rhs.endswith(rhs)

    # per (k, state): the (mismatches, compared) of the grading check and
    # of the recovery round trip on LINE, the top one index low
    TOP_LOW = [
        (2, PSI, (42, 66), (6, 90)),
        (2, OMEGA, (64, 66), (2, 114)),
        (4, PSI, (78, 126), (6, 90)),
        (4, OMEGA, (120, 126), (2, 114)),
    ]

    @pytest.mark.parametrize("shift", [-1, 1], ids=["low", "high"])
    def test_a_top_one_index_off_is_reported(self, monkeypatch, shift):
        """The grading check reads a mode's level from the field's top, and
        the recovery round trip compares the bounded recovered field with
        the unbounded native one: a top one index low fails both, one index
        high fails the grading as often and the round trip never."""
        top = twist._ModeField.top
        monkeypatch.setattr(twist._ModeField, "top",
                            lambda self, state: top(self, state) + shift)
        for k, u, grading, (bad, compared) in self.TOP_LOW:
            report = check_grading(k, u, LINE)
            assert (len(report.mismatches), report.compared) == grading
            report = check_u_round_trip(k, u, LINE)
            assert (len(report.mismatches), report.compared) == (
                bad if shift < 0 else 0, compared)

    @pytest.mark.parametrize(
        "use_recovered", [True, False], ids=["recovered", "native"]
    )
    def test_weak_associativity(self, use_recovered):
        report = check_weak_associativity(
            2, PSI, PSI, ASSOC2, use_recovered=use_recovered
        )
        assert_clean_pass(report)
        assert report.detail.startswith("exponent shift n=")


class TestSectors:
    """A field acts on the sector it names, and the checks' domain follows
    it.  At order 1 the coordinate change is the identity, so a slot field
    put in the untwisted sector is Y(u, x) on V itself: its mode M on the
    doubled index is the untwisted mode M/2."""

    FIELDS = [VACUUM, PSI, OMEGA, State({(-5, -1): ONE})]

    @pytest.mark.parametrize("u", FIELDS, ids=["vacuum", "psi", "omega",
                                               "psi52-psi12"])
    def test_the_sector_follows_the_field(self, u):
        field = SlotField(1, u)
        field.sector = NS
        nonzero = 0
        for word in NS.basis(2):
            target = State({word: ONE})
            for M in range(-8, 9):
                image = field.image(M, target)
                assert image == vertex_mode(u, QQ(M, 2), target), (word, M)
                nonzero += not image.is_zero()
        assert nonzero
        texts = [text for _, _, text in verify._domain(field, 1)]
        assert texts == ["|0>", "psi(-1/2)|0>"]


class TestRoundTrips:
    def test_recovery_round_trip(self):
        for u in (VACUUM, PSI, OMEGA):
            assert_clean_pass(check_u_round_trip(2, u, LINE))

    def test_rebuild_round_trip(self):
        assert_clean_pass(check_t_round_trip(2, PSI, LINE))

    def test_round_trips_order_four(self):
        assert_clean_pass(check_u_round_trip(4, PSI, LINE))
        assert_clean_pass(check_t_round_trip(4, PSI, LINE))

    def test_field_witness_names_psi_modes(self, monkeypatch):
        # one injected entry of the native field, in the column of
        # psi(-1)|R> (doubled word (-2,)) at x^-1 (mode 0), where the field
        # is empty, must come out as one witness written in psi modes
        native = verify.sigma_vertex_mode
        column = State({(-2,): ONE})

        def broken(u, t, target):
            image = native(u, t, target)
            if t == 0 and target == column:
                return image + State({(-2,): QQ(7)})
            return image

        monkeypatch.setattr(verify, "sigma_vertex_mode", broken)
        report = check_u_round_trip(2, PSI, LINE, domain_level=QQ(1))
        assert report.mismatches == (
            ("x^-1 @ psi(-1)|R> -> psi(-1)|R>", "0", "7"),
        )


class TestCharacterCorrespondence:
    def test_orders_two_four_six(self):
        for k in (2, 4, 6):
            report = check_character_correspondence(k, 4)
            assert_clean_pass(report)

    def test_rejects_negative_cutoff(self):
        with pytest.raises(ValueError):
            check_character_correspondence(2, -1)

    def test_rejects_odd_order(self):
        with pytest.raises(ValueError):
            check_character_correspondence(3, 4)


class TestSuiteConfig:
    def test_defaults(self):
        cfg = SuiteConfig()
        assert cfg.k == 2
        assert cfg.radius == QQ(3, 2)
        assert cfg.jacobi is True


class TestRunSuite:
    def test_default_suite_is_all_in_order(self):
        reports = run_suite()
        assert suite_passed(reports)
        assert all(r.compared > 0 for r in reports)
        names = [r.name for r in reports]
        assert any(n.startswith("twisted-jacobi") for n in names)
        assert any(n.startswith("character-correspondence") for n in names)

    def test_odd_order_runs_the_obstruction_pair(self):
        reports = run_suite(SuiteConfig(k=3))
        assert suite_passed(reports)
        by_name = {r.name: r for r in reports}
        even_form = next(
            r for n, r in by_name.items() if n.startswith("obstruction-even-form")
        )
        odd_form = next(
            r for n, r in by_name.items() if n.startswith("obstruction-odd-form")
        )
        assert even_form.verdict == "fail" and even_form.as_expected
        assert len(even_form.mismatches) > 0
        assert odd_form.verdict == "pass" and odd_form.as_expected

    def test_trivial_order_suite(self):
        reports = run_suite(SuiteConfig(k=1))
        assert suite_passed(reports)

    def test_empty_window_is_an_error(self):
        with pytest.raises(ValueError, match="no coefficients compared"):
            run_suite(SuiteConfig(radius=QQ(-1)))

    @pytest.mark.parametrize("field, value, reason", [
        ("domain_level", QQ(-1), "domain level -1 selects no basis word"),
        ("domain_level", QQ(-1, 2), "domain level -1/2 selects no basis word"),
        ("weight", QQ(-1), "weight -1 selects no basis state"),
    ])
    def test_negative_bound_is_refused_before_any_check(
            self, no_checks, field, value, reason):
        config = SuiteConfig(k=4, jacobi=False, **{field: value})
        with pytest.raises(ValueError) as raised:
            run_suite(config)
        assert str(raised.value) == f"no coefficients compared: {reason}"
        assert no_checks == []

    @pytest.mark.parametrize("k", [3, 4])
    def test_cutoff_above_the_ceiling_is_refused_before_any_check(
            self, no_checks, k):
        with pytest.raises(ValueError, match="exceeds the ceiling"):
            run_suite(SuiteConfig(k=k, cutoff=MAX_CUTOFF + 1))
        assert no_checks == []

    @pytest.mark.parametrize("depth", [0, -3])
    def test_depth_below_one_is_refused_before_any_check(self, no_checks, depth):
        with pytest.raises(ValueError) as raised:
            run_suite(SuiteConfig(k=3, depth=depth))
        assert str(raised.value) == f"depth must be >= 1, got {depth}"
        assert no_checks == []

    def test_check_comparing_nothing_is_an_error(self, monkeypatch):
        monkeypatch.setattr(verify, "verify_delta_identity",
                            lambda *args: ComparisonResult("planted"))
        with pytest.raises(ValueError) as raised:
            run_suite(SuiteConfig(k=2))
        assert str(raised.value) == "no coefficients compared in check 'planted'"

    def test_order_above_the_conductor_ceiling_is_refused_before_any_check(
            self, no_checks):
        k = MAX_CONDUCTOR // 4 + 1
        with pytest.raises(ValueError, match="exceeds the ceiling"):
            run_suite(SuiteConfig(k=k))
        assert no_checks == []

    def test_suite_json_shape(self):
        reports = run_suite(SuiteConfig(k=3))
        decoded = json.loads(suite_json(reports))
        assert isinstance(decoded, list) and len(decoded) == len(reports)
        for row in decoded:
            assert row["verdict"] in ("pass", "fail")
            assert row["as_expected"] is True
            vacuous = row["compared"] == 0
            clean = row["mismatch_count"] == 0
            assert (row["verdict"] == "pass") == (clean and not vacuous)

    def test_suite_table_mentions_every_check(self):
        reports = run_suite(SuiteConfig(k=3))
        table = suite_table(reports)
        for r in reports:
            assert r.name in table
        assert f"{len(reports)}/{len(reports)} checks as expected" in table
