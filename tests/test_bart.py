"""BART S-learner: sampler behavior, interval options, determinism."""

import numpy as np
import pytest

from catemeta import (
    BartParams,
    BartPosterior,
    ConfigurationError,
    CovariateProfile,
    TrialDataset,
    bart_cate_normal,
    bart_cate_quantile,
    fit_bart_slearner,
)

FAST = BartParams(n_trees=20, n_burn=100, n_draws=150, seed=7)


def make_dataset(n, outcome_fn, seed, p=3, noise=0.3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    a = rng.integers(0, 2, n)
    y = outcome_fn(x, a) + rng.normal(0.0, noise, n)
    return TrialDataset(1, y, a, x, tuple(f"c{j}" for j in range(p))), rng


def manual_posterior(col0, col1, profile_id=0):
    draws = np.column_stack([np.asarray(col0, dtype=float),
                             np.asarray(col1, dtype=float)])
    return BartPosterior(
        study_id=1,
        draws=draws,
        columns={(profile_id, 0): 0, (profile_id, 1): 1},
        y_min=0.0,
        y_max=1.0,
        params=BartParams(n_trees=1, n_burn=1, n_draws=draws.shape[0], seed=0),
    )


class TestParams:
    def test_counts_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            BartParams(n_draws=0)
        with pytest.raises(ConfigurationError):  # se2 is a sample variance over draws
            BartParams(n_draws=1)

    def test_tree_prior_range(self):
        with pytest.raises(ConfigurationError):
            BartParams(alpha=1.5)


class TestSampler:
    def test_intercept_only_recovers_constant(self):
        ds, rng = make_dataset(300, lambda x, a: np.full(x.shape[0], 5.0), seed=1,
                               noise=0.1)
        profiles = [CovariateProfile(i, rng.normal(size=3)) for i in range(8)]
        post = fit_bart_slearner(ds, profiles, FAST)
        for prof in profiles:
            for arm in (0, 1):
                assert post.column(prof.profile_id, arm).mean() == pytest.approx(5.0, abs=0.1)

    def test_zero_effect_small_cates(self):
        ds, rng = make_dataset(1000, lambda x, a: x[:, 0] + np.sin(x[:, 1]), seed=2)
        profiles = [CovariateProfile(i, rng.normal(size=3)) for i in range(15)]
        post = fit_bart_slearner(
            ds, profiles, BartParams(n_trees=50, n_burn=300, n_draws=400, seed=3)
        )
        taus = [abs(bart_cate_normal(post, p).tau_hat) for p in profiles]
        assert np.mean(taus) <= 0.2

    def test_same_seed_bit_identical(self):
        ds, rng = make_dataset(150, lambda x, a: x[:, 0] + a, seed=4)
        profiles = [CovariateProfile(i, rng.normal(size=3)) for i in range(4)]
        params = BartParams(n_trees=10, n_burn=40, n_draws=50, seed=99)
        p1 = fit_bart_slearner(ds, profiles, params)
        p2 = fit_bart_slearner(ds, profiles, params)
        assert np.array_equal(p1.draws, p2.draws)

    def test_outcome_scaling_is_affine(self):
        ds, rng = make_dataset(200, lambda x, a: 1.0 + x[:, 0] + 2.0 * a, seed=5)
        scaled = TrialDataset(1, 10.0 * ds.y, ds.a, ds.x, ds.covariate_names)
        profiles = [CovariateProfile(i, rng.normal(size=3)) for i in range(5)]
        p1 = fit_bart_slearner(ds, profiles, FAST)
        p10 = fit_bart_slearner(scaled, profiles, FAST)
        for prof in profiles:
            t1 = bart_cate_normal(p1, prof).tau_hat
            t10 = bart_cate_normal(p10, prof).tau_hat
            assert t10 == pytest.approx(10.0 * t1, rel=1e-10)

    def test_requires_at_least_one_profile(self):
        ds, _ = make_dataset(50, lambda x, a: a.astype(float), seed=6)
        with pytest.raises(ConfigurationError):
            fit_bart_slearner(ds, [], FAST)

    def test_posterior_draw_count_and_columns(self):
        ds, rng = make_dataset(80, lambda x, a: a.astype(float), seed=7)
        profiles = [CovariateProfile(i, rng.normal(size=3)) for i in range(3)]
        params = BartParams(n_trees=5, n_burn=20, n_draws=30, seed=1)
        post = fit_bart_slearner(ds, profiles, params)
        assert post.draws.shape == (30, 6)
        for prof in profiles:
            for arm in (0, 1):
                assert (prof.profile_id, arm) in post.columns


class TestNormalOption:
    def test_degenerate_draws(self):
        post = manual_posterior([1.0, 1.0], [3.0, 3.0])
        est = bart_cate_normal(post, CovariateProfile(0, np.zeros(1)))
        assert est.tau_hat == 2.0
        assert est.se2 == 0.0

    def test_hand_arithmetic(self):
        post = manual_posterior([0.0, 2.0], [2.0, 4.0])
        est = bart_cate_normal(post, CovariateProfile(0, np.zeros(1)))
        assert est.tau_hat == 2.0
        assert est.se2 == 4.0  # sample variances 2 + 2, divisor n-1

    def test_se2_equals_sum_of_arm_variances(self):
        rng = np.random.default_rng(8)
        col0, col1 = rng.normal(size=200), rng.normal(2.0, 1.5, size=200)
        post = manual_posterior(col0, col1)
        est = bart_cate_normal(post, CovariateProfile(0, np.zeros(1)))
        assert est.se2 == float(np.var(col1, ddof=1) + np.var(col0, ddof=1))

    def test_unregistered_profile_is_error(self):
        post = manual_posterior([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(KeyError):
            bart_cate_normal(post, CovariateProfile(99, np.zeros(1)))


class TestQuantileOption:
    def test_constant_differences(self):
        post = manual_posterior([0.0] * 4, [1.0] * 4)
        assert bart_cate_quantile(post, CovariateProfile(0, np.zeros(1)), 0.5) == (1.0, 1.0, 1.0)

    def test_linear_interpolation_hand_example(self):
        d = np.arange(101, dtype=float)
        post = manual_posterior(np.zeros(101), d)
        tau, lower, upper = bart_cate_quantile(post, CovariateProfile(0, np.zeros(1)), 0.95)
        assert tau == 50.0
        assert lower == pytest.approx(2.5, abs=1e-12)
        assert upper == pytest.approx(97.5, abs=1e-12)

    def test_bounds_within_draw_range(self):
        rng = np.random.default_rng(9)
        d = rng.normal(size=63)
        post = manual_posterior(np.zeros(63), d)
        for level in (0.5, 0.8, 0.95, 0.99):
            tau, lower, upper = bart_cate_quantile(post, CovariateProfile(0, np.zeros(1)), level)
            assert d.min() <= lower <= upper <= d.max()

    def test_level_must_be_in_unit_interval(self):
        post = manual_posterior([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            bart_cate_quantile(post, CovariateProfile(0, np.zeros(1)), 1.0)
