"""Tests for windows, delta-kernel tables, and the identity suite."""

from fractions import Fraction
from math import factorial, prod

import pytest

from twistfock.formal import (
    ComparisonResult,
    DeltaIdentity,
    Window,
    compare_fields,
    compare_numerators,
    compare_series,
    merged_delta_kernel,
    verify_delta_identity,
)
from twistfock.scalars import QQ, ZERO


def _times(f: dict, kernel: dict) -> dict:
    """The product of a Laurent polynomial f and a kernel table."""
    out = {}
    for fm, fc in f.items():
        for km, kc in kernel.items():
            mono = tuple(a + b for a, b in zip(fm, km))
            out[mono] = out.get(mono, 0) + fc * kc
    return out


def _closed_form(point, shift, lattice_den, second_sign, bottom_sign):
    """The coefficient of top^a second^i bottom^b in the merged kernel,
    read off its defining sum at one point: e = -b - 1 must lie in
    shift + Z/lattice_den, i in Z>=0 and a = e - i."""
    a, i, b = point
    e = -b - 1
    if ((e - shift) * lattice_den).denominator != 1:
        return 0
    if i.denominator != 1 or i < 0 or a != e - i:
        return 0
    i = int(i)
    c = prod((e - j for j in range(i)), start=Fraction(1)) / factorial(i)
    c *= Fraction(second_sign) ** i
    if bottom_sign == -1:
        c *= Fraction(-1) ** int(e)
    return c


def _points(lo, hi, den):
    return [Fraction(n, den) for n in range(int(lo * den), int(hi * den) + 1)]


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------


class TestWindow:
    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="empty window"):
            Window({"x": (1, 0)})


# ---------------------------------------------------------------------------
# delta kernels
# ---------------------------------------------------------------------------


# (top, second, bottom, window, shift, lattice_den, second_sign, bottom_sign);
# the last two are the unbounded-top windows of the Jacobi kernel oracle in
# tests/test_verify.py
KERNEL_CASES = [
    ("x1", "x0", "x2", Window.cube(("x0", "x1", "x2"), -3, 3), QQ(1, 2), 1, -1, 1),
    ("x2", "x0", "x1", Window.cube(("x0", "x1", "x2"), -3, 3), QQ(-1, 2), 1, 1, 1),
    ("x1", "x0", "x2", Window.cube(("x0", "x1", "x2"), -2, 2), ZERO, 3, -1, 1),
    ("x1", "x0", "x2", Window.cube(("x0", "x1", "x2"), QQ(-3, 2), QQ(3, 2)),
     QQ(-1, 3), 2, 1, 1),
    ("x1", "x2", "x0", Window.cube(("x0", "x1", "x2"), -2, 2), ZERO, 1, -1, -1),
    ("x1", "x2", "x0", Window({"x0": (-1, 1), "x2": (0, 8)}), ZERO, 1, -1, 1),
    ("x2", "x1", "x0", Window({"x0": (-1, 1), "x1": (0, 8)}), ZERO, 1, -1, -1),
]


class TestDeltaKernels:
    def test_substitution_property(self):
        """f(x1) * x2^-1 delta(x1/x2) = f(x2) * x2^-1 delta(x1/x2)."""
        # x0 held at exponent 0 leaves x2^-1 delta(x1/x2); the kernel is
        # complete for x2 in [-9, 8], so both products are exact on the
        # inner window.  At scale 1 a key is the exponents themselves
        den, kernel = merged_delta_kernel(
            "x1", "x0", "x2", Window({"x0": (0, 0), "x2": (-9, 8)}), scale=1
        )
        f1 = {(0, 2, 0): 3, (0, -1, 0): 5}
        f2 = {(0, 0, 2): 3, (0, 0, -1): 5}
        inner = Window({"x0": (0, 0), "x1": (-2, 2), "x2": (-2, 2)})
        lhs = _times(f1, kernel)
        assert any(all(inner.contains(v, e) for v, e in zip(("x0", "x1", "x2"), m))
                   for m in lhs)
        assert any(not inner.contains("x1", m[1]) for m in lhs)
        result = compare_series("delta-substitution", (den, lhs),
                                (den, _times(f2, kernel)), inner, 1)
        assert result.passed and result.compared == 25

    def test_merged_kernel_is_delta_at_integer_lattice(self):
        w = Window.cube(("x1", "x0", "x2"), -3, 3)
        den, kernel = merged_delta_kernel("x1", "x0", "x2", w, scale=1)
        # x1^(n-i) x0^i x2^(-n-1) has C(n,i)*(-1)^i, keyed (x0, x1, x2),
        # over den = 1^3 3!
        assert den == 6
        assert kernel[(0, 2, -3)] == den
        assert kernel[(1, 1, -3)] == -2 * den
        assert kernel[(1, 0, -2)] == -den

    @pytest.mark.parametrize("case", KERNEL_CASES, ids=range(len(KERNEL_CASES)))
    def test_table_is_the_closed_form_at_every_point(self, case):
        top, second, bottom, window, shift, lattice_den, s_sign, b_sign = case
        den = 2 * lattice_den * shift.denominator
        kernel_den, nums = merged_delta_kernel(
            top, second, bottom, window, scale=den, shift=shift,
            lattice_den=lattice_den, second_sign=s_sign, bottom_sign=b_sign,
        )
        # the table read back on exponents and values
        table = {tuple(QQ(x, den) for x in key): QQ(c, kernel_den)
                 for key, c in nums.items()}
        blo, bhi = window.bounds_for(bottom)
        slo, shi = window.bounds_for(second)
        tlo, thi = window.bounds_for(top)
        # an unbounded top reaches e - i >= -bhi - 1 - shi at most; look
        # two steps past that on both sides
        tlo = -bhi - 3 - shi if tlo is None else tlo
        thi = -blo + 1 if thi is None else thi
        order = sorted((top, second, bottom))
        points = [
            (a, i, b)
            for a in _points(tlo, thi, den)
            for i in _points(slo, shi, den)
            for b in _points(blo, bhi, den)
        ]
        seen, nonzero = set(), 0
        for point in points:
            named = dict(zip((top, second, bottom), point))
            mono = tuple(named[v] for v in order)
            seen.add(mono)
            expected = _closed_form(point, shift, lattice_den, s_sign, b_sign)
            assert table.get(mono, 0) == expected, point
            nonzero += expected != 0
        assert nonzero == len(table) > 0
        assert set(table) <= seen

    def test_planted_coefficient_is_the_one_witness(self):
        w = Window.cube(("x0", "x1", "x2"), -2, 2)
        den, kernel = merged_delta_kernel(
            "x1", "x0", "x2", w, scale=2, shift=QQ(1, 2))
        key = sorted(kernel)[len(kernel) // 2]
        planted = dict(kernel)
        planted[key] += 1
        result = compare_series("planted", (den, planted), (den, kernel), w, 2)
        assert result.compared == 9**3
        # located at the exponents, the key over the scale
        value = QQ(kernel[key], den)
        assert result.mismatches == [
            (tuple(QQ(x, 2) for x in key), value + QQ(1, den), value)]

    def test_off_scale_lattice_is_refused(self):
        w = Window.cube(("x0", "x1", "x2"), -2, 2)
        with pytest.raises(ValueError, match="not on the"):
            merged_delta_kernel("x1", "x0", "x2", w, scale=2, shift=QQ(1, 3))
        with pytest.raises(ValueError, match="not on the"):
            merged_delta_kernel("x1", "x0", "x2", w, scale=4, lattice_den=3)

    @pytest.mark.parametrize("bounds, message", [
        ({"x0": (0, 3), "x2": (None, 3)}, "denominator variable"),
        ({"x0": (0, None), "x2": (-3, 3)}, "expansion variable"),
    ])
    def test_unbounded_bottom_or_expansion_is_refused(self, bounds, message):
        with pytest.raises(ValueError, match=message):
            merged_delta_kernel("x1", "x0", "x2", Window(bounds), scale=1)


# ---------------------------------------------------------------------------
# the comparison record
# ---------------------------------------------------------------------------


class TestComparisonResult:
    def test_starts_empty(self):
        result = ComparisonResult("name")
        assert (result.name, result.compared, result.mismatches) == ("name", 0, [])
        assert not result.passed
        assert ComparisonResult("other").mismatches is not result.mismatches

    def test_counts_every_call_and_records_differences_in_order(self):
        result = ComparisonResult("name")
        result.compare("b", QQ(1), QQ(2))
        result.compare("a", QQ(3), QQ(3))
        result.compare(("c", 1), ZERO, QQ(1, 2))
        result.compare("d", ZERO, ZERO)
        assert result.compared == 4
        assert result.mismatches == [
            ("b", QQ(1), QQ(2)),
            (("c", 1), ZERO, QQ(1, 2)),
        ]
        assert not result.passed


class TestCompareFields:
    def test_counts_columns_and_union_keys_in_sorted_order(self):
        # two fields on exponents {-1, 0} and keys {a, b}: the x^0 column
        # of b is empty on both sides, and both entries of the x^-1 column
        # of a differ; the left side lists that column's keys unsorted.  A
        # column is numerators over a denominator: the right side's are
        # over 2, so equal values compare equal across denominators
        lhs = {
            (QQ(-1), "a"): (1, (("z", 1), ("y", 3))),
            (QQ(-1), "b"): (1, (("q", 1),)),
            (QQ(0), "a"): (1, (("x", 3),)),
        }
        rhs = {
            (QQ(-1), "a"): (2, (("y", 4), ("z", 10))),
            (QQ(-1), "b"): (2, (("q", 2),)),
            (QQ(0), "a"): (2, (("x", 6),)),
        }
        visited = []

        def formatter(key):
            visited.append(key)
            return key.upper()

        result = compare_fields(
            "fields",
            lambda e, key: lhs.get((e, key), (1, ())),
            lambda e, key: rhs.get((e, key), (1, ())),
            [QQ(-1), QQ(0)],
            ["a", "b"],
            formatter,
        )
        # four columns, and 2 + 1 + 1 + 0 output keys in their unions
        assert result.compared == 4 + 4
        assert result.mismatches == [
            ("x^-1 @ A -> Y", QQ(3), QQ(2)),
            ("x^-1 @ A -> Z", QQ(1), QQ(5)),
        ]
        assert not result.passed
        # keys are formatted only for a mismatch: its column's key, then
        # its output key; the three agreeing columns format nothing
        assert visited == ["a", "y", "a", "z"]

    def test_location_text_reads_the_exponent_on_its_scale(self):
        # one planted entry at the int index -3 on scale 4 is located at
        # x^-3/4; the agreeing columns build no text
        visited = []

        def formatter(key):
            visited.append(key)
            return f"<{key}>"

        def planted(e, key):
            return (1, (("out", 1),)) if (e, key) == (-3, "w") else (1, ())

        result = compare_fields(
            "scaled", planted, lambda e, key: (1, ()), range(-4, 1),
            ["v", "w"], formatter, 4)
        assert result.compared == 10 + 1
        assert result.mismatches == [("x^-3/4 @ <w> -> <out>", QQ(1), ZERO)]
        assert visited == ["w", "out"]


class TestCompareNumerators:
    def test_factor_scales_both_witnesses_and_a_missing_key_is_zero(self):
        result = ComparisonResult("sums")
        compare_numerators(
            result, (2, {"b": 3, "a": 1}), (4, {"a": 2, "c": 1}),
            lambda key: key.upper(), QQ(3),
        )
        # one comparison per key of either map, in sorted order; 1/2 and
        # 2/4 agree across the denominators
        assert result.compared == 3
        assert result.mismatches == [("B", QQ(9, 2), ZERO), ("C", ZERO, QQ(3, 4))]


# ---------------------------------------------------------------------------
# the delta-identity suite
# ---------------------------------------------------------------------------


class TestDeltaIdentities:
    def test_three_term_window_three(self):
        w = Window.cube(("x0", "x1", "x2"), -3, 3)
        result = verify_delta_identity(DeltaIdentity.THREE_TERM, 1, 0, w)
        assert result.passed
        assert result.compared > 0

    def test_df2_k1_trivial(self):
        w = Window.cube(("x0", "x1", "x2"), -3, 3)
        result = verify_delta_identity(DeltaIdentity.DF2, 1, 0, w)
        assert result.passed

    def test_df1_half_shift(self):
        w = Window.cube(("x0", "x1", "x2"), -4, 4)
        result = verify_delta_identity(DeltaIdentity.DF1, 2, QQ(1, 2), w)
        assert result.passed

    @pytest.mark.parametrize("kind", list(DeltaIdentity))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_full_grid_radius_three(self, kind, k):
        w = Window.cube(("x0", "x1", "x2"), -3, 3)
        result = verify_delta_identity(kind, k, QQ(-1, 2), w)
        assert result.passed, result.mismatches[:3]

    def test_comparison_counts_coefficients(self):
        w = Window.cube(("x0", "x1", "x2"), -2, 2)
        result = verify_delta_identity(DeltaIdentity.THREE_TERM, 1, 0, w)
        # k=1 compares on the (1/2)-lattice: 9 points per axis, 3 axes
        assert result.compared == 9**3

    def test_mismatch_reported(self):
        w = Window({"x": (-1, 1)})
        a = {(n,): 1 for n in range(-1, 2)}
        b = {key: 2 * c for key, c in a.items()}
        result = compare_series("scaled", (1, a), (1, b), w, 1)
        assert not result.passed
        assert len(result.mismatches) == 3

    def test_unbounded_comparison_window_is_refused(self):
        a = (1, {(1,): 1})
        with pytest.raises(ValueError, match="must be bounded"):
            compare_series("unbounded", a, a, Window({"t": (0, None)}), 1)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
