"""Property-based tests (hypothesis) for the calibration quantile sketch.

The sketch is the mergeable distribution summary every served answer
carries, so its algebra has to be *exact* where the design says exact:

* merge is a bucket-count addition — associative, commutative, and
  insert-order independent (state equality via ``==`` is bitwise on
  bucket dicts);
* quantile estimates obey the DDSketch rank-error contract: within
  ``alpha`` relative error of the true sample at the queried rank;
* :func:`build_sketches` (the vectorised serving-batch constructor) is
  state- and quantile-identical to one-at-a-time ``extend``.

The golden-trace check runs the same contract on seeded Platform 1
load traces — the data the serving layer actually sketches.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calib.sketch import (
    DEFAULT_SKETCH_ALPHA,
    QuantileSketch,
    SketchRows,
    build_sketches,
)

finite = st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False)
positive = st.floats(1e-6, 1e9, allow_nan=False, allow_infinity=False)
alphas = st.sampled_from([0.005, 0.01, 0.05])
levels = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8)

value_lists = st.lists(finite, min_size=1, max_size=60)
positive_lists = st.lists(positive, min_size=1, max_size=60)


def _sketch(values, alpha=DEFAULT_SKETCH_ALPHA):
    return QuantileSketch(alpha).extend(np.asarray(values, dtype=float))


class TestMergeAlgebra:
    @given(value_lists, value_lists)
    def test_merge_commutative(self, xs, ys):
        ab = _sketch(xs).merge(_sketch(ys))
        ba = _sketch(ys).merge(_sketch(xs))
        assert ab == ba

    @given(value_lists, value_lists, value_lists)
    @settings(max_examples=50)
    def test_merge_associative(self, xs, ys, zs):
        left = _sketch(xs).merge(_sketch(ys)).merge(_sketch(zs))
        right = _sketch(xs).merge(_sketch(ys).merge(_sketch(zs)))
        assert left == right

    @given(value_lists, value_lists)
    def test_merge_equals_extend_on_concatenation(self, xs, ys):
        merged = _sketch(xs).merge(_sketch(ys))
        assert merged == _sketch(xs + ys)

    @given(value_lists, st.randoms(use_true_random=False))
    def test_insert_order_independent(self, xs, rnd):
        shuffled = list(xs)
        rnd.shuffle(shuffled)
        assert _sketch(shuffled) == _sketch(xs)

    @given(value_lists, st.integers(1, 5))
    def test_chunked_extend_equals_single_extend(self, xs, k):
        chunked = QuantileSketch(DEFAULT_SKETCH_ALPHA)
        for chunk in np.array_split(np.asarray(xs, dtype=float), k):
            if chunk.size:
                chunked.extend(chunk)
        assert chunked == _sketch(xs)

    @given(value_lists, value_lists)
    def test_merge_conserves_count_min_max(self, xs, ys):
        merged = _sketch(xs).merge(_sketch(ys))
        assert merged.count == len(xs) + len(ys)
        assert merged.min == min(xs + ys)
        assert merged.max == max(xs + ys)

    @given(value_lists)
    def test_serialisation_round_trip(self, xs):
        sk = _sketch(xs)
        assert QuantileSketch.from_dict(sk.to_dict()) == sk


class TestStoreFormat:
    """The JSON format of ``to_dict`` is fixed: sparse ``{index: count}``
    maps per sign, whatever the in-memory bucket store."""

    A = [-2.5, -2.5, -0.75, 0.0, 1e-13, 0.5, 1.0, 40.0]
    B = [-300.0, -0.76, 0.0, 2.0, 40.0, 40.5]

    def test_to_dict_literal(self):
        assert _sketch(self.A).to_dict() == {
            "alpha": 0.01,
            "count": 8,
            "zero": 2,
            "min": -2.5,
            "max": 40.0,
            "pos": {"-34": 1, "0": 1, "185": 1},
            "neg": {"-14": 1, "46": 2},
        }

    def test_merged_to_dict_literal(self):
        merged = _sketch(self.A).merge(_sketch(self.B))
        assert merged.to_dict() == {
            "alpha": 0.01,
            "count": 14,
            "zero": 3,
            "min": -300.0,
            "max": 40.5,
            "pos": {"-34": 1, "0": 1, "35": 1, "185": 2, "186": 1},
            "neg": {"-14": 1, "-13": 1, "46": 2, "286": 1},
        }
        assert QuantileSketch.from_dict(merged.to_dict()) == merged


narrow = st.lists(st.floats(1.0, 10.0), min_size=1, max_size=30)
#: How the second sketch's bucket window sits against the first's.
layouts = st.sampled_from(["disjoint", "nested", "overlapping"])


def _layout(xs, ys, layout):
    if layout == "disjoint":
        return xs, [y * 1e3 for y in ys]
    if layout == "nested":
        return xs + [0.5, 20.0], ys
    return xs, [y * 3.0 for y in ys]


class TestMergeWindows:
    """Merging never writes into a source sketch's buckets, whichever
    way the two bucket windows overlap."""

    @given(narrow, narrow, layouts, st.sampled_from([1.0, -1.0]))
    @settings(max_examples=100)
    def test_merge_leaves_sources_unchanged(self, xs, ys, layout, sign):
        a, b = _layout(xs, ys, layout)
        a, b = [sign * v for v in a], [sign * v for v in b]
        sa, sb = _sketch(a), _sketch(b)
        da, db = sa.to_dict(), sb.to_dict()
        assert QuantileSketch(DEFAULT_SKETCH_ALPHA).merge(sa).merge(sb) == _sketch(a + b)
        assert sa.to_dict() == da and sb.to_dict() == db
        assert QuantileSketch.merged([sb, sa]) == _sketch(a + b)

    @given(narrow, narrow, layouts)
    @settings(max_examples=100)
    def test_batch_rows_merge_without_touching_the_grid(self, xs, ys, layout):
        a, b = _layout(xs, ys, layout)
        rows = build_sketches([np.asarray(a), np.asarray(b)])
        assert isinstance(rows, SketchRows)
        grid = rows.counts.copy()
        assert rows[0].merge(rows[1]) == _sketch(a + b)
        assert rows[1].merge(rows[0]) == _sketch(a + b)
        assert rows[0].extend(np.asarray(b)) == _sketch(a + b)
        assert rows[1].merge(_sketch(a)) == _sketch(a + b)
        assert np.array_equal(rows.counts, grid)
        assert rows[0] == _sketch(a) and rows[1] == _sketch(b)


class TestRankErrorBound:
    @given(positive_lists, alphas, st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_quantile_within_alpha_of_rank_sample(self, xs, alpha, q):
        """DDSketch contract: the estimate is within ``alpha`` relative
        error of the true sample at rank ``floor(q * (n - 1))``."""
        sk = _sketch(xs, alpha)
        exact = float(np.sort(np.asarray(xs, dtype=float))[
            int(math.floor(q * (len(xs) - 1)))
        ])
        got = sk.quantile(q)
        assert abs(got - exact) <= alpha * abs(exact) + 1e-12

    @given(value_lists, st.floats(0.0, 1.0))
    def test_quantile_clamped_to_observed_range(self, xs, q):
        sk = _sketch(xs)
        got = sk.quantile(q)
        assert sk.min <= got <= sk.max

    @given(positive_lists)
    def test_quantile_grid_monotone(self, xs):
        sk = _sketch(xs)
        grid = sk.quantiles(np.linspace(0.0, 1.0, 21))
        assert np.all(np.diff(grid) >= 0.0)

    @given(value_lists, st.floats(-1e9, 1e9, allow_nan=False))
    def test_cdf_bounded_and_edge_exact(self, xs, x):
        sk = _sketch(xs)
        assert 0.0 <= sk.cdf(x) <= 1.0
        assert sk.cdf(sk.max) == 1.0
        assert sk.cdf(math.nextafter(sk.min, -math.inf)) == 0.0


class TestBuildSketchesEquivalence:
    @given(
        st.lists(positive_lists, min_size=1, max_size=5),
        levels,
    )
    @settings(max_examples=100)
    def test_fused_equals_per_array_extend(self, arrays, lv):
        """The vectorised batch constructor is bit-identical to the
        one-at-a-time path — state and quantile grids (ragged sizes)."""
        lv = np.asarray(sorted(lv))
        sketches, qmat = build_sketches(
            [np.asarray(a) for a in arrays], levels=lv
        )
        for a, sk, qrow in zip(arrays, sketches, qmat):
            ref = _sketch(a)
            assert sk == ref
            refq = ref.quantiles(lv)
            assert all(x == y for x, y in zip(qrow, refq))

    @given(st.lists(positive, min_size=1, max_size=40), st.integers(2, 5), levels)
    @settings(max_examples=100)
    def test_fused_equal_size_path(self, xs, k, lv):
        """Same guarantee on the equal-length fast path serving hits."""
        lv = np.asarray(sorted(lv))
        arrays = [np.asarray(xs, dtype=float) * (1.0 + 0.1 * i) for i in range(k)]
        sketches, qmat = build_sketches(arrays, levels=lv)
        for a, sk, qrow in zip(arrays, sketches, qmat):
            ref = _sketch(a)
            assert sk == ref
            refq = ref.quantiles(lv)
            assert all(x == y for x, y in zip(qrow, refq))

    @given(st.lists(value_lists, min_size=1, max_size=4))
    @settings(max_examples=100)
    def test_fused_general_fallback(self, arrays):
        """Zero/negative values route through the general insert and
        still match per-array extend exactly."""
        sketches = build_sketches([np.asarray(a) for a in arrays])
        for a, sk in zip(arrays, sketches):
            assert sk == _sketch(a)

    @given(positive_lists)
    def test_lazy_sketches_merge_like_materialised(self, xs):
        half = max(1, len(xs) // 2)
        a, b = xs[:half], xs[half:] or [1.0]
        (s1, s2), _ = build_sketches(
            [np.asarray(a), np.asarray(b)], levels=np.asarray([0.5])
        )
        assert QuantileSketch(DEFAULT_SKETCH_ALPHA).merge(s1).merge(s2) == _sketch(a + b)

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                build_sketches([np.asarray([1.0, bad])])

    def test_rejects_empty_member(self):
        with pytest.raises(ValueError):
            build_sketches([np.asarray([1.0]), np.asarray([])])


class TestGoldenTraces:
    """The rank-error contract on the data serving actually sketches."""

    @pytest.fixture(scope="class")
    def trace_values(self):
        from repro.workload.platforms import platform1

        plat = platform1(duration=600.0, rng=11)
        return [
            np.asarray(m.availability.window(0.0, 600.0).values, dtype=float)
            for m in plat.machines
        ]

    def test_sketch_vs_exact_on_platform_traces(self, trace_values):
        lv = np.linspace(0.01, 0.99, 25)
        for series in trace_values:
            assert series.size > 10
            sk = QuantileSketch(DEFAULT_SKETCH_ALPHA).extend(series)
            exact = np.sort(series)[
                np.floor(lv * (series.size - 1)).astype(int)
            ]
            got = sk.quantiles(lv)
            assert np.all(
                np.abs(got - exact) <= DEFAULT_SKETCH_ALPHA * np.abs(exact) + 1e-12
            )

    def test_batch_constructor_on_platform_traces(self, trace_values):
        lv = np.linspace(0.05, 0.95, 10)
        sketches, qmat = build_sketches(trace_values, levels=lv)
        for series, sk, qrow in zip(trace_values, sketches, qmat):
            ref = QuantileSketch(DEFAULT_SKETCH_ALPHA).extend(series)
            assert sk == ref
            assert all(x == y for x, y in zip(qrow, ref.quantiles(lv)))
