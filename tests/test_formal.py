"""Tests for windowed formal series, delta kernels, and the identity suite."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistfock.formal import (
    ComparisonResult,
    DeltaIdentity,
    ScalarSeries,
    Window,
    compare_fields,
    compare_series,
    merged_delta_kernel,
    verify_delta_identity,
)
from twistfock.scalars import QQ, ZERO


def _series_from(table, variables, window=None, **kw):
    return ScalarSeries(tuple(variables), {tuple(map(QQ, m)): QQ(c) for m, c in table.items()}, window, **kw)


def _delta(var, window):
    """Every integer power of var with coefficient 1, known on the window."""
    lo, hi = window.bounds_for(var)
    return _series_from({(n,): 1 for n in range(int(lo), int(hi) + 1)},
                        (var,), window, supp_lo={var: None}, supp_hi={var: None})


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------


class TestWindow:
    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="empty window"):
            Window({"x": (1, 0)})

    def test_intersect(self):
        a = Window({"x": (-2, 3)})
        b = Window({"x": (0, 5)})
        assert a.intersect(b).bounds_for("x") == (QQ(0), QQ(3))


# ---------------------------------------------------------------------------
# delta kernels
# ---------------------------------------------------------------------------


class TestDeltaKernels:
    def test_substitution_property(self):
        """f(x1) * x2^-1 delta(x1/x2) = f(x2) * x2^-1 delta(x1/x2)."""
        w = Window({"x1": (-4, 4), "x2": (-4, 4)})
        kernel = _series_from(
            {(n, -n - 1): 1 for n in range(-8, 9)},
            ("x1", "x2"),
            w,
            supp_lo={"x1": None, "x2": None},
            supp_hi={"x1": None, "x2": None},
        )
        f1 = _series_from({(2, 0): 3, (-1, 0): 5}, ("x1", "x2"))
        f2 = _series_from({(0, 2): 3, (0, -1): 5}, ("x1", "x2"))
        lhs = f1 * kernel
        rhs = f2 * kernel
        inner = Window({"x1": (-2, 2), "x2": (-2, 2)})
        result = compare_series("delta-substitution", lhs, rhs, inner, 1)
        assert result.passed

    def test_merged_kernel_is_delta_at_integer_lattice(self):
        w = Window.cube(("x1", "x0", "x2"), -3, 3)
        kernel = merged_delta_kernel("x1", "x0", "x2", w)
        # coefficient at (n-i, i, -n-1) is C(n,i)*(-1)^i
        assert kernel.get((QQ(2), QQ(0), QQ(-3))) == 1
        assert kernel.get((QQ(1), QQ(1), QQ(-3))) == -2
        assert kernel.get((QQ(0), QQ(1), QQ(-2))) == -1


# ---------------------------------------------------------------------------
# window soundness of products
# ---------------------------------------------------------------------------


@st.composite
def unit_truncations(draw):
    depth = 5
    coeffs = {(QQ(0),): QQ(1)}
    for n in range(1, depth + 1):
        coeffs[(QQ(n),)] = QQ(draw(st.integers(-4, 4)))
    return ScalarSeries(
        ("t",), coeffs, Window({"t": (None, depth)}), {"t": ZERO}, {"t": None}
    )


class TestProductWindows:
    @given(unit_truncations(), unit_truncations(), unit_truncations())
    @settings(max_examples=30)
    def test_associativity_inside_windows(self, a, b, c):
        """(a*b)*c and a*(b*c) agree wherever both windows claim knowledge."""
        left = (a * b) * c
        right = a * (b * c)
        lo = QQ(0)
        hi = min(left.window.bounds_for("t")[1], right.window.bounds_for("t")[1])
        result = compare_series(
            "assoc", left, right, Window({"t": (lo, hi)}), 1
        )
        assert result.passed

    def test_truncation_window_shrinks_soundly(self):
        # multiplying truncations known to order 5 starting at order 1
        # yields knowledge exactly up to order 6
        a = ScalarSeries(
            ("t",),
            {(QQ(n),): QQ(1) for n in range(1, 6)},
            Window({"t": (None, 5)}),
            {"t": QQ(1)},
            {"t": None},
        )
        prod = a * a
        assert prod.window.bounds_for("t")[1] == 6
        assert prod.get((QQ(2),)) == 1
        assert prod.get((QQ(6),)) == 5  # splittings 1+5, 2+4, 3+3, 4+2, 5+1
        with pytest.raises(ValueError, match="outside the window"):
            prod.get((QQ(7),))

    def test_comparison_past_the_truncation_is_refused(self):
        a = ScalarSeries(
            ("t",), {(QQ(1),): QQ(1)}, Window({"t": (None, 5)}),
            {"t": QQ(1)}, {"t": None},
        )
        assert compare_series("inside", a, a, Window({"t": (0, 5)}), 1).compared == 6
        with pytest.raises(ValueError, match="reaches past a truncated series"):
            compare_series("past", a, a, Window({"t": (0, 6)}), 1)

    def test_unbounded_products_rejected(self):
        w = Window.cube(("x",), -3, 3)
        d = _delta("x", w)
        with pytest.raises(ValueError, match="non-composable"):
            d * d


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
        # of b is empty on both sides, and one entry of the x^-1 column of
        # a differs; the left side lists that column's keys unsorted.  A
        # column is numerators over a denominator: the right side's are
        # over 2, so equal values compare equal across denominators
        lhs = {
            (QQ(-1), "a"): (1, (("z", 1), ("y", 2))),
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
        assert result.mismatches == [("x^-1 @ A -> Z", QQ(1), QQ(5))]
        assert not result.passed
        # each compared entry formats its column key, then its output key
        assert visited[1::2] == ["y", "z", "q", "x"]
        assert visited[0::2] == ["a", "a", "b", "a"]


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
        a = _delta("x", w)
        b = a.scaled(2)
        result = compare_series("scaled", a, b, w, 1)
        assert not result.passed
        assert len(result.mismatches) == 3


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
