"""Stage-2 pooling: REML, DerSimonian-Laird, t quantiles, prediction intervals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catemeta import (
    EstimationError,
    InsufficientStudiesError,
    MetaInput,
    StudyCateEstimate,
    dl_theta2,
    pool_cate,
    pool_profiles,
    prediction_interval,
    reml_theta2,
    t_quantile,
)
from catemeta.meta import _profile_log_likelihood, _score, ndtri, reml_theta2_batch


def meta_input(tau, v, profile_id=0):
    return MetaInput(
        profile_id=profile_id,
        estimates=tuple(
            StudyCateEstimate(s + 1, profile_id, float(t), float(vi))
            for s, (t, vi) in enumerate(zip(tau, v))
        ),
    )


def grid_argmax(meta, upper, coarse=1e-3, fine=1e-6):
    """Brute-force grid maximizer of the restricted log likelihood.

    Coarse scan over [0, upper], then a dense scan at the fine step around
    the coarse winner; equivalent to a full fine grid when the coarse scan
    brackets the global maximum.
    """
    tau, v = meta.tau, meta.v
    coarse_grid = np.arange(0.0, upper + coarse, coarse)
    vals = _profile_log_likelihood(coarse_grid, tau, v)
    center = coarse_grid[int(np.argmax(vals))]
    lo = max(center - 2 * coarse, 0.0)
    fine_grid = np.arange(lo, min(center + 2 * coarse, upper) + fine, fine)
    vals = _profile_log_likelihood(fine_grid, tau, v)
    return float(fine_grid[int(np.argmax(vals))])


class TestRestrictedLogLikelihood:
    def test_hand_value_two_equal_studies(self):
        value = _profile_log_likelihood(0.0, [1.0, 1.0], [1.0, 1.0])[0]
        assert value == pytest.approx(-0.5 * math.log(2.0), abs=1e-12)

    def test_decreases_as_theta2_grows_large(self):
        tau, v = [0.0, 1.0, 3.0], [0.5, 1.0, 2.0]
        values = _profile_log_likelihood([10.0, 100.0, 1000.0, 10000.0], tau, v)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_identical_estimates_maximized_at_zero(self):
        tau, v = [2.0, 2.0, 2.0], [0.3, 0.6, 0.9]
        at_zero = _profile_log_likelihood(0.0, tau, v)[0]
        for t2 in (0.01, 0.1, 1.0):
            assert _profile_log_likelihood(t2, tau, v)[0] < at_zero


class TestRemlTheta2:
    def test_identical_estimates_give_zero(self):
        assert reml_theta2(meta_input([3.0, 3.0, 3.0], [0.5, 1.0, 2.0])) == 0.0

    def test_matches_grid_oracle_on_stated_example(self):
        mi = meta_input([0.0, 1.0, 2.0], [0.5, 0.5, 0.5])
        oracle = grid_argmax(mi, upper=20.0)
        assert reml_theta2(mi) == pytest.approx(oracle, abs=1e-4)

    def test_matches_grid_oracle_on_random_instances(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            k = int(rng.integers(3, 13))
            tau = rng.normal(0.0, rng.uniform(0.2, 2.0), size=k)
            v = rng.uniform(0.05, 1.5, size=k)
            mi = meta_input(tau, v)
            upper = 10.0 * float(np.var(tau, ddof=1)) + float(v.max())
            assert reml_theta2(mi) == pytest.approx(
                grid_argmax(mi, upper=upper), abs=1e-4
            ), f"instance {trial}"

    def test_nonnegative_always(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(2, 8))
            mi = meta_input(rng.normal(size=k), rng.uniform(0.1, 2.0, size=k))
            assert reml_theta2(mi) >= 0.0

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(3)
        k, n_prof = 6, 40
        tau = rng.normal(0.0, 1.0, size=(k, n_prof))
        v = rng.uniform(0.05, 1.0, size=(k, n_prof))
        batch = reml_theta2_batch(tau, v)
        for j in range(n_prof):
            assert batch[j] == reml_theta2(meta_input(tau[:, j], v[:, j]))

    def test_solves_the_score_equation(self):
        # Interior maximizers are roots of the REML score to machine precision,
        # which comparing likelihood values alone cannot reach.
        rng = np.random.default_rng(5)
        tau = rng.normal(0.0, 1.5, size=(8, 50))
        v = rng.uniform(0.05, 1.0, size=(8, 50))
        theta2 = reml_theta2_batch(tau, v)
        inside = theta2 > 0.0
        assert inside.sum() > 25
        score, slope = _score(theta2[inside], tau.T[inside], v.T[inside])
        assert np.all(np.abs(score / slope) <= 1e-11 * (1.0 + theta2[inside]))

    def test_batch_shape_validation(self):
        with pytest.raises(ValueError):
            reml_theta2_batch(np.zeros((1, 4)), np.ones((1, 4)))


class TestDlTheta2:
    def test_two_study_hand_example(self):
        assert dl_theta2([0.0, 2.0], [1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)

    def test_three_study_hand_example(self):
        assert dl_theta2([0.0, 1.0, 2.0], [0.5, 0.5, 0.5]) == pytest.approx(0.5, abs=1e-15)

    def test_identical_estimates_clamp_to_zero(self):
        assert dl_theta2([1.3, 1.3, 1.3], [0.4, 0.8, 1.2]) == 0.0

    def test_zero_variance_is_error(self):
        with pytest.raises(EstimationError):
            dl_theta2([0.0, 1.0], [0.0, 1.0])

    def test_needs_two_studies_of_matching_shape(self):
        with pytest.raises(InsufficientStudiesError):
            dl_theta2([1.0], [0.5])
        with pytest.raises(ValueError):
            dl_theta2([0.0, 1.0, 2.0], [0.5, 0.5])


class TestPoolCate:
    def test_hand_example(self):
        pooled = pool_cate(meta_input([0.0, 2.0], [1.0, 1.0]), theta2=1.0)
        assert pooled.tau_pooled == pytest.approx(1.0)
        assert pooled.var_pooled == pytest.approx(1.0)
        assert pooled.weights == (0.5, 0.5)

    def test_dominant_study_takes_over(self):
        pooled = pool_cate(meta_input([5.0, 0.0, 0.0], [1e-8, 1.0, 1.0]), theta2=0.0)
        assert pooled.tau_pooled == pytest.approx(5.0, abs=1e-4)

    def test_huge_theta2_approaches_unweighted_mean(self):
        tau = [0.0, 1.0, 5.0]
        pooled = pool_cate(meta_input(tau, [0.1, 1.0, 3.0]), theta2=1e12)
        assert pooled.tau_pooled == pytest.approx(np.mean(tau), abs=1e-6)

    def test_degenerate_all_zero_variance_equal_estimates(self):
        pooled = pool_cate(meta_input([2.0, 2.0], [0.0, 0.0]), theta2=0.0)
        assert pooled.tau_pooled == 2.0
        assert pooled.var_pooled == 0.0

    def test_degenerate_all_zero_variance_unequal_estimates_is_error(self):
        with pytest.raises(EstimationError):
            pool_cate(meta_input([1.0, 2.0], [0.0, 0.0]), theta2=0.0)

    def test_pooled_estimate_is_convex_combination(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            k = int(rng.integers(2, 9))
            tau = rng.normal(size=k)
            mi = meta_input(tau, rng.uniform(0.1, 2.0, size=k))
            pooled = pool_cate(mi, float(rng.uniform(0.0, 2.0)))
            assert tau.min() - 1e-12 <= pooled.tau_pooled <= tau.max() + 1e-12
            w = np.array(pooled.weights)
            assert (w / w.sum()).sum() == pytest.approx(1.0, abs=1e-12)
            assert pooled.var_pooled == pytest.approx(1.0 / w.sum(), abs=1e-12)


class TestTQuantile:
    def test_cauchy_quartile(self):
        assert t_quantile(1, 0.75) == pytest.approx(1.0, abs=1e-12)

    def test_cauchy_general_closed_form(self):
        for p in (0.6, 0.9, 0.99):
            assert t_quantile(1, p) == pytest.approx(math.tan(math.pi * (p - 0.5)), rel=1e-12)

    def test_known_df2_value(self):
        assert t_quantile(2, 0.975) == pytest.approx(4.3026527, abs=1e-5)

    def test_median_is_zero(self):
        for df in (1, 2, 7, 100):
            assert t_quantile(df, 0.5) == 0.0

    def test_symmetry(self):
        for df in (1, 3, 9):
            for p in (0.6, 0.9, 0.999):
                assert t_quantile(df, 1.0 - p) == pytest.approx(-t_quantile(df, p), rel=1e-12)

    def test_monotone_in_p_and_decreasing_in_df(self):
        assert t_quantile(5, 0.9) < t_quantile(5, 0.95) < t_quantile(5, 0.99)
        assert t_quantile(1, 0.975) > t_quantile(10, 0.975) > t_quantile(200, 0.975)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            t_quantile(0, 0.9)
        with pytest.raises(ValueError):
            t_quantile(3, 0.0)
        with pytest.raises(ValueError):
            t_quantile(3, 1.0)


class TestQuantilesAgainstScipy:
    def test_t_quantile(self):
        # SciPy's value at each tail: sqrt(df (1 - x) / x) with
        # x = betaincinv(df/2, 1/2, 2 tail).  Once t^2 << df, 1 - x keeps
        # only a few digits (7e-11 relative at df = 10^6 and 7e-7 at
        # 2^31 - 1, against 60-digit mpmath), and at df = 1, tail 1e-300,
        # x underflows to 0.  There the reference is SciPy's t quantile
        # stdtrit, within 1e-15 of mpmath at those points.
        from scipy.special import betaincinv, stdtrit

        misses = []
        for df in [*range(1, 201), 10**3, 10**6, 2**31 - 1]:
            for tail in (0.4, 0.1, 0.025, 1e-3, 1e-8, 1e-30, 1e-300):
                x = float(betaincinv(0.5 * df, 0.5, 2.0 * tail))
                if df <= 10**3 and x > 0.0:
                    expected = math.sqrt(df * (1.0 - x) / x)
                else:
                    expected = -float(stdtrit(df, tail))
                got = -t_quantile(df, tail)
                if not abs(got - expected) <= 1e-12 * expected:
                    misses.append((df, tail, got, expected))
        assert not misses

    def test_ndtri(self):
        from scipy.special import ndtri as scipy_ndtri

        rng = np.random.default_rng(2026)
        ps = [*rng.random(2000), *10.0 ** rng.uniform(-300.0, 0.0, 1000),
              1e-300, 1e-20, 0.5 + 1e-17, 0.5 - 1e-17, math.nextafter(0.5, 0.0),
              math.nextafter(0.5, 1.0), 1.0 - 2.0**-53]
        for p in ps:
            expected = float(scipy_ndtri(p))
            assert ndtri(p) == pytest.approx(expected, rel=1e-14, abs=0.0), p

    def test_df_must_be_integral(self):
        with pytest.raises(ValueError, match="integer"):
            t_quantile(2.5, 0.9)
        for df in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                t_quantile(df, 0.9)
        assert t_quantile(8.0, 0.975) == t_quantile(8, 0.975)


class TestPredictionInterval:
    def test_hand_example_k4(self):
        mi = meta_input([1.0, 1.0, 1.0, 1.0], [2.0, 2.0, 2.0, 2.0])
        pooled = pool_cate(mi, theta2=0.0)  # var_pooled = 0.5
        pi = prediction_interval(pooled, alpha=0.05, k_studies=4)
        half = t_quantile(2, 0.975) * math.sqrt(0.5)
        assert pi.center == 1.0
        assert pi.lower == pytest.approx(1.0 - half, abs=1e-10)
        assert pi.upper == pytest.approx(1.0 + half, abs=1e-10)
        assert pi.df == 2 and pi.level == 0.95

    def test_stated_numeric_example(self):
        # center 1, var_pooled 1, theta2 1, K = 4
        half = t_quantile(2, 0.975) * math.sqrt(2.0)
        assert 1.0 - half == pytest.approx(-5.0853, abs=1e-3)
        assert 1.0 + half == pytest.approx(7.0853, abs=1e-3)

    def test_degenerate_interval_is_a_point(self):
        pooled = pool_cate(meta_input([2.0, 2.0, 2.0], [0.0, 0.0, 0.0]), theta2=0.0)
        pi = prediction_interval(pooled, alpha=0.05, k_studies=3)
        assert pi.lower == pi.center == pi.upper == 2.0

    def test_more_studies_narrower_interval(self):
        # t_1 > t_28 and var_pooled shrinks with K at matched per-study variances
        mi3 = meta_input([0.0, 0.5, 1.0], [1.0, 1.0, 1.0])
        mi30 = meta_input([0.0, 0.5, 1.0] * 10, [1.0] * 30)
        w3 = prediction_interval(pool_cate(mi3, 1.0), 0.05, 3).width
        w30 = prediction_interval(pool_cate(mi30, 1.0), 0.05, 30).width
        assert w3 > w30

    def test_halfwidth_monotone_in_theta2(self):
        mi = meta_input([0.0, 1.0, 2.0, 3.0], [0.5] * 4)
        widths = [
            prediction_interval(pool_cate(mi, t2), 0.05, 4).width for t2 in (0.0, 0.5, 2.0)
        ]
        assert widths[0] < widths[1] < widths[2]

    def test_too_few_studies_is_error(self):
        pooled = pool_cate(meta_input([0.0, 1.0], [1.0, 1.0]), theta2=0.5)
        with pytest.raises(InsufficientStudiesError):
            prediction_interval(pooled, 0.05, 2)

    def test_k_must_match_pooled(self):
        pooled = pool_cate(meta_input([0.0, 1.0, 2.0], [1.0] * 3), theta2=0.5)
        with pytest.raises(ValueError):
            prediction_interval(pooled, 0.05, 4)


class TestPoolProfiles:
    def test_views_equal_kernel_columns(self):
        rng = np.random.default_rng(9)
        k, n_prof = 5, 30
        tau = rng.normal(0.0, 1.0, size=(k, n_prof))
        v = rng.uniform(0.05, 1.0, size=(k, n_prof))
        tau[:, 0] = 0.7  # equal estimates: theta2 = 0 without a search
        batch = pool_profiles(tau, v, alpha=0.1)
        for j in range(n_prof):
            mi = meta_input(tau[:, j], v[:, j])
            pooled = pool_cate(mi, reml_theta2(mi))
            pi = prediction_interval(pooled, 0.1, k)
            assert pooled.theta2 == batch.theta2[j]
            assert pooled.tau_pooled == batch.tau_pooled[j]
            assert pooled.var_pooled == batch.var_pooled[j]
            assert pi.lower == batch.tau_pooled[j] - batch.half_width[j]
            assert pi.upper == batch.tau_pooled[j] + batch.half_width[j]
        assert batch.diagnostics["reml_boundary_hits"] == (batch.theta2 == 0.0).sum() >= 1

    def test_degenerate_all_zero_variance_equal_estimates(self):
        batch = pool_profiles(np.full((3, 2), 2.0), np.zeros((3, 2)), alpha=0.05)
        assert batch.theta2.tolist() == [0.0, 0.0]
        assert batch.tau_pooled.tolist() == [2.0, 2.0]
        assert batch.var_pooled.tolist() == [0.0, 0.0]
        assert batch.half_width.tolist() == [0.0, 0.0]

    def test_some_zero_variance_is_error(self):
        tau = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        v = np.array([[0.0, 0.5], [0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(EstimationError):
            pool_profiles(tau, v)

    def test_interval_needs_three_studies(self):
        batch = pool_profiles(np.array([[0.0], [1.0]]), np.ones((2, 1)))
        assert batch.half_width is None
        with pytest.raises(InsufficientStudiesError):
            pool_profiles(np.array([[0.0], [1.0]]), np.ones((2, 1)), alpha=0.05)

    def test_alpha_outside_unit_interval_is_error(self):
        for alpha in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                pool_profiles(np.zeros((3, 1)), np.ones((3, 1)), alpha=alpha)


@st.composite
def stage2_inputs(draw, max_profiles=4):
    k = draw(st.integers(3, 12))
    n_prof = draw(st.integers(1, max_profiles))
    values = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    variances = st.floats(1e-3, 10.0, allow_nan=False, allow_infinity=False)
    tau = draw(st.lists(values, min_size=k * n_prof, max_size=k * n_prof))
    v = draw(st.lists(variances, min_size=k * n_prof, max_size=k * n_prof))
    return np.reshape(tau, (k, n_prof)), np.reshape(v, (k, n_prof))


def theta2_tol(tau, v):
    """Slack for theta2 after a perturbation of the inputs by rounding.

    The theta2 = 0 comparison can flip for a maximizer within about 1e-8 of
    the likelihood's scale from the boundary; elsewhere the kernel is exact
    to about 1e-12.
    """
    return 1e-6 * (v.max(axis=0) + np.ptp(tau, axis=0) ** 2)


class TestStage2Properties:
    @settings(max_examples=200, deadline=None)
    @given(stage2_inputs())
    def test_theta2_nonnegative(self, inputs):
        assert np.all(pool_profiles(*inputs).theta2 >= 0.0)

    @settings(max_examples=200, deadline=None)
    @given(stage2_inputs(), st.floats(-50.0, 50.0))
    def test_shift_moves_center_and_keeps_theta2(self, inputs, c):
        tau, v = inputs
        base = pool_profiles(tau, v)
        moved = pool_profiles(tau + c, v)
        assert np.all(np.abs(moved.theta2 - base.theta2) <= theta2_tol(tau, v))
        scale = 1.0 + abs(c) + np.abs(tau).max(axis=0)
        assert np.all(np.abs(moved.tau_pooled - (base.tau_pooled + c)) <= 1e-6 * scale)

    @settings(max_examples=200, deadline=None)
    @given(stage2_inputs(), st.floats(0.1, 10.0))
    def test_scale_equivariance(self, inputs, s):
        tau, v = inputs
        base = pool_profiles(tau, v)
        scaled = pool_profiles(tau * s, v * s * s)
        assert np.all(np.abs(scaled.theta2 - s * s * base.theta2)
                      <= s * s * theta2_tol(tau, v))

    @settings(max_examples=200, deadline=None)
    @given(stage2_inputs())
    def test_center_within_estimates(self, inputs):
        tau, v = inputs
        center = pool_profiles(tau, v).tau_pooled
        slack = 1e-12 * (1.0 + np.abs(tau).max(axis=0))
        assert np.all(tau.min(axis=0) - slack <= center)
        assert np.all(center <= tau.max(axis=0) + slack)

    @settings(max_examples=200, deadline=None)
    @given(stage2_inputs(), st.floats(0.001, 0.49), st.floats(0.5, 0.999))
    def test_interval_symmetric_and_widens_as_alpha_falls(self, inputs, small, large):
        tau, v = inputs
        narrow = pool_profiles(tau, v, alpha=large)
        wide = pool_profiles(tau, v, alpha=small)
        assert np.all(narrow.half_width >= 0.0)
        assert np.all(wide.half_width > narrow.half_width)
        for j in range(tau.shape[1]):
            pi = prediction_interval(
                pool_cate(meta_input(tau[:, j], v[:, j]), float(wide.theta2[j])),
                small, tau.shape[0],
            )
            assert pi.upper - pi.center == pytest.approx(pi.center - pi.lower, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(stage2_inputs(max_profiles=8))
    def test_batch_column_equals_scalar_exactly(self, inputs):
        tau, v = inputs
        batch = reml_theta2_batch(tau, v)
        for j in range(tau.shape[1]):
            assert batch[j] == reml_theta2(meta_input(tau[:, j], v[:, j]))


class TestMetaInput:
    def test_requires_two_studies(self):
        with pytest.raises(InsufficientStudiesError):
            MetaInput(0, (StudyCateEstimate(1, 0, 1.0, 1.0),))

    def test_rejects_mixed_profiles(self):
        with pytest.raises(ValueError):
            MetaInput(0, (StudyCateEstimate(1, 0, 1.0, 1.0),
                          StudyCateEstimate(2, 9, 1.0, 1.0)))
