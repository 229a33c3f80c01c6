"""Tests for repro.util.stats — scratch statistical primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps
from scipy.special import erf as scipy_erf

from repro.util.stats import (
    erf,
    mean_and_std,
    normal_cdf,
    normal_pdf,
    normal_quantile,
    ragged_summary,
    sample_kurtosis,
    sample_skewness,
    weighted_mean_and_std,
)


class TestErf:
    def test_scalar_matches_math(self):
        for x in (-3.0, -0.5, 0.0, 0.7, 2.5):
            assert erf(x) == pytest.approx(math.erf(x), abs=1e-15)

    def test_vector_matches_scipy(self):
        xs = np.linspace(-4, 4, 101)
        np.testing.assert_allclose(erf(xs), scipy_erf(xs), atol=2e-7)

    def test_odd_symmetry(self):
        xs = np.linspace(0, 3, 50)
        np.testing.assert_allclose(erf(-xs), -erf(xs), atol=1e-12)

    def test_limits(self):
        assert erf(10.0) == pytest.approx(1.0)
        assert erf(-10.0) == pytest.approx(-1.0)

    def test_scalar_and_array_paths_agree_exactly(self):
        # Regression: the array path used the A&S 7.1.26 approximation
        # (error up to ~1.5e-7) while scalars used math.erf, making
        # erf(x) != erf([x])[0] and normal_cdf input-shape-dependent.
        for x in (-3.0, -0.5, 0.0, 0.3, 0.7, 1.0, 2.5):
            assert erf(x) == erf(np.array([x]))[0]
            assert erf(np.array([x]))[0] == math.erf(x)

    def test_vector_matches_scipy_to_double_precision(self):
        xs = np.linspace(-4, 4, 101)
        np.testing.assert_allclose(erf(xs), scipy_erf(xs), rtol=1e-13, atol=1e-15)

    def test_shapes_and_types(self):
        assert isinstance(erf(0.5), float)
        assert erf(np.array([0.1, 0.2])).shape == (2,)
        assert erf(np.array([[0.1], [0.2]])).shape == (2, 1)
        assert erf(np.array([0.1, 0.2])).dtype == np.float64

    def test_normal_cdf_shape_independent(self):
        for x in (-2.0, -0.3, 0.0, 0.9, 3.1):
            scalar = normal_cdf(x, 1.0, 2.0)
            array = normal_cdf(np.array([x]), 1.0, 2.0)[0]
            assert scalar == array
            assert scalar == pytest.approx(sps.norm.cdf(x, 1.0, 2.0), abs=1e-15)


class TestNormalPdf:
    def test_matches_scipy(self):
        xs = np.linspace(-5, 5, 41)
        np.testing.assert_allclose(
            normal_pdf(xs, 1.0, 2.0), sps.norm.pdf(xs, 1.0, 2.0), rtol=1e-12
        )

    def test_scalar_output_type(self):
        assert isinstance(normal_pdf(0.0), float)

    def test_peak_at_mean(self):
        assert normal_pdf(3.0, 3.0, 0.5) == pytest.approx(1.0 / (0.5 * math.sqrt(2 * math.pi)))

    def test_zero_std_rejected(self):
        with pytest.raises(ValueError):
            normal_pdf(0.0, 0.0, 0.0)


class TestNormalCdf:
    def test_matches_scipy(self):
        xs = np.linspace(-5, 5, 41)
        np.testing.assert_allclose(
            normal_cdf(xs, -1.0, 1.5), sps.norm.cdf(xs, -1.0, 1.5), atol=2e-7
        )

    def test_median(self):
        assert normal_cdf(2.0, 2.0, 3.0) == pytest.approx(0.5)

    def test_point_mass_step(self):
        assert normal_cdf(0.9, 1.0, 0.0) == 0.0
        assert normal_cdf(1.0, 1.0, 0.0) == 1.0
        assert normal_cdf(1.1, 1.0, 0.0) == 1.0

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            normal_cdf(0.0, 0.0, -1.0)


class TestNormalQuantile:
    def test_matches_scipy(self):
        ps = np.linspace(0.001, 0.999, 97)
        np.testing.assert_allclose(
            normal_quantile(ps, 2.0, 3.0), sps.norm.ppf(ps, 2.0, 3.0), atol=1e-8
        )

    def test_roundtrip_with_cdf(self):
        for p in (0.025, 0.5, 0.8, 0.975):
            x = normal_quantile(p, 1.0, 2.0)
            assert normal_cdf(x, 1.0, 2.0) == pytest.approx(p, abs=1e-7)

    def test_extreme_tails(self):
        assert normal_quantile(1e-10) == pytest.approx(sps.norm.ppf(1e-10), rel=1e-6)

    def test_invalid_probability_rejected(self):
        for p in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                normal_quantile(p)

    def test_scalar_output_type(self):
        assert isinstance(normal_quantile(0.3), float)


def _per_row(arrays, q):
    """The per-row formulas ``ragged_summary`` must reproduce bit for bit."""
    mean = np.array([a.mean() for a in arrays])
    std = np.array([a.std(ddof=1) if a.size >= 2 else 0.0 for a in arrays])
    quantile = np.array([np.quantile(a, q) for a in arrays])
    return mean, std, quantile


def _assert_bit_equal(arrays, q=0.95):
    got = ragged_summary(arrays, q)
    want = _per_row(arrays, q)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


class TestRaggedSummary:
    """Grouped-by-length reductions equal the one-row formulas exactly."""

    @settings(max_examples=200, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 300), min_size=1, max_size=24),
        scale=st.floats(1e-3, 1e3),
        sigma=st.floats(1e-3, 2.0),
        seed=st.integers(0, 2**32 - 1),
        q=st.sampled_from([0.05, 0.5, 0.95]),
    )
    def test_random_lengths(self, lengths, scale, sigma, seed, q):
        rng = np.random.default_rng(seed)
        buf = scale * rng.lognormal(0.0, sigma, size=(len(lengths), max(lengths)))
        # Rows are views of one buffer, as the Monte Carlo chunk loop
        # hands them over.
        _assert_bit_equal([buf[i, :n] for i, n in enumerate(lengths)], q)

    def test_rows_with_one_draw_have_zero_spread(self):
        arrays = [np.array([3.5]), np.array([1.0, 2.0, 4.0]), np.array([-2.0])]
        _assert_bit_equal(arrays)
        mean, std, p95 = ragged_summary(arrays, 0.95)
        assert std[0] == 0.0 and std[2] == 0.0
        assert (mean[0], p95[0]) == (3.5, 3.5)

    def test_every_length_differs(self):
        rng = np.random.default_rng(11)
        arrays = [rng.normal(10.0, 2.0, size=n) for n in (64, 96, 144, 216, 324, 486, 729, 2000)]
        _assert_bit_equal(arrays)

    def test_without_a_level_no_quantile(self):
        mean, std, quantile = ragged_summary([np.arange(4.0), np.arange(3.0)])
        assert quantile is None
        assert mean.tolist() == [1.5, 1.0]


class TestMoments:
    def test_mean_and_std(self):
        m, s = mean_and_std([1.0, 2.0, 3.0, 4.0])
        assert m == pytest.approx(2.5)
        assert s == pytest.approx(np.std([1, 2, 3, 4], ddof=1))

    def test_single_sample_zero_std(self):
        m, s = mean_and_std([7.0])
        assert (m, s) == (7.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_and_std([])

    def test_weighted_mean_and_std(self):
        m, s = weighted_mean_and_std([1.0, 3.0], [1.0, 1.0])
        assert m == pytest.approx(2.0)
        assert s == pytest.approx(1.0)

    def test_weighted_unequal(self):
        m, _ = weighted_mean_and_std([0.0, 10.0], [3.0, 1.0])
        assert m == pytest.approx(2.5)

    def test_weighted_rejects_negative(self):
        with pytest.raises(ValueError):
            weighted_mean_and_std([1.0], [-1.0])

    def test_weighted_rejects_zero_total(self):
        with pytest.raises(ValueError):
            weighted_mean_and_std([1.0, 2.0], [0.0, 0.0])

    def test_weighted_rejects_mismatch(self):
        with pytest.raises(ValueError):
            weighted_mean_and_std([1.0, 2.0], [1.0])

    def test_skewness_symmetric_near_zero(self):
        rng = np.random.default_rng(0)
        data = rng.normal(0, 1, 20_000)
        assert abs(sample_skewness(data)) < 0.05

    def test_skewness_positive_for_right_tail(self):
        rng = np.random.default_rng(1)
        data = rng.lognormal(0, 1, 5_000)
        assert sample_skewness(data) > 1.0

    def test_skewness_matches_scipy(self):
        rng = np.random.default_rng(2)
        data = rng.gamma(2.0, 1.0, 500)
        assert sample_skewness(data) == pytest.approx(
            sps.skew(data, bias=False), rel=1e-10
        )

    def test_kurtosis_normal_near_zero(self):
        rng = np.random.default_rng(3)
        data = rng.normal(0, 1, 50_000)
        assert abs(sample_kurtosis(data)) < 0.1

    def test_kurtosis_constant_zero(self):
        assert sample_kurtosis([2.0] * 10) == 0.0

    def test_skewness_needs_three(self):
        with pytest.raises(ValueError):
            sample_skewness([1.0, 2.0])

    def test_kurtosis_needs_four(self):
        with pytest.raises(ValueError):
            sample_kurtosis([1.0, 2.0, 3.0])
