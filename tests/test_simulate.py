"""Synthetic multi-study generator and the replication harness."""

import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from catemeta import (
    BartParams,
    CatemetaError,
    ConfigurationError,
    DimensionMismatchError,
    EstimationError,
    ForestParams,
    SimConfig,
    draw_study_effects,
    estimate_study,
    fit_bart_slearner,
    fit_causal_forest,
    forest_predict,
    gen_study,
    gen_target_profiles,
    run_experiment,
    true_cate,
)
from catemeta import forest, pool_profiles, simulate
from catemeta.linear import _fit_arrays, design_stack, linear_cates_arrays
from catemeta.meta import ndtri
from catemeta.rng import spawn_seed, substream


def config(**overrides):
    base = dict(k_studies=4, n_per_study=400, cate_setting="linear",
                heterogeneity_level=1, covariate_mode="variable",
                effect_distribution="normal", n_replications=3, master_seed=10)
    base.update(overrides)
    return SimConfig(**base)


class TestConfig:
    def test_enumerations_validated(self):
        with pytest.raises(ConfigurationError):
            config(cate_setting="cubic")
        with pytest.raises(ConfigurationError):
            config(heterogeneity_level=4)
        with pytest.raises(ConfigurationError):
            config(covariate_mode="nope")
        with pytest.raises(ConfigurationError):
            config(effect_distribution="cauchy")

    def test_counts_positive(self):
        with pytest.raises(ConfigurationError):
            config(n_replications=0)

    @pytest.mark.parametrize("field, value", [
        ("k_studies", 3.5), ("n_per_study", 20.5), ("n_replications", 2.0),
        ("master_seed", 1.5), ("heterogeneity_level", 1.0), ("master_seed", True),
    ])
    def test_integer_fields_must_be_integers(self, field, value):
        # These used to construct: master_seed 1.5 ran as seed 1, and a float
        # count failed inside run_experiment with a TypeError.
        with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
            config(**{field: value})
        assert getattr(config(**{field: np.int64(value)}), field) == int(value)


def reference_covariates(means, n, rng):
    """n covariate rows drawn from ``rng`` as the model defines them: numpy's
    Cholesky ``multivariate_normal`` latents, each binary column thresholded
    so that Pr(1) is its mean clamped to [0, 1] (past either end, a constant)."""
    latent = rng.multivariate_normal(means, simulate._COVARIANCE, size=n, method="cholesky")
    x = latent.copy()
    for j in simulate._BINARY_COLUMNS:
        p = min(max(means[j], 0.0), 1.0)
        x[:, j] = latent[:, j] <= means[j] + ndtri(p) if 0.0 < p < 1.0 else p
    return x


def noisy_outcomes(x, a, setting, effects, rng):
    """Outcomes m(X) + A tau(X) plus the model's noise, drawn from ``rng``."""
    noise = rng.normal(0.0, simulate._NOISE_SD, size=x.shape[0])
    return simulate._mean_outcomes(x, a, setting, effects) + noise


class TestTrialCovariates:
    def test_same_mode_centers_age_at_zero(self):
        cfg = config(covariate_mode="same", n_per_study=2000)
        x = gen_study(cfg, 0, 1).x
        assert abs(x[:, 0].mean()) <= 3.0 / np.sqrt(2000)

    def test_variable_mode_age_means_spread(self):
        cfg = config(n_per_study=500)
        means = [gen_study(cfg, 0, s).x[:, 0].mean() for s in range(200)]
        observed_sd = np.std(means, ddof=1)
        # across-study sd of observed age means: sqrt(0.2^2 + 1/n)
        assert 0.16 <= observed_sd <= 0.25

    def test_age_only_variable_fixes_other_means(self):
        cfg = config(covariate_mode="age_only_variable", n_per_study=4000)
        x = gen_study(cfg, 0, 1).x
        assert abs(x[:, 3].mean()) <= 3.0 / np.sqrt(4000)  # weight centered

    def test_binary_columns_are_binary(self):
        cfg = config(n_per_study=300)
        x = gen_study(cfg, 0, 1).x
        assert set(np.unique(x[:, 1])) <= {0.0, 1.0}
        assert set(np.unique(x[:, 2])) <= {0.0, 1.0}

    def test_shape(self):
        x = gen_study(config(), 0, 1).x
        assert x.shape == (400, 5)


class TestCovariateDraw:
    def test_variable_means_have_the_bits_of_numpys_normal(self):
        # The five means are drawn in one call as centers + sds * z, which
        # must be numpy's own rng.normal(centers, sds) bit for bit.
        cfg = config(covariate_mode="variable")
        for seed in range(200):
            got_rng, want_rng = substream(seed, "means"), substream(seed, "means")
            got = simulate._study_means(cfg, got_rng)
            want = want_rng.normal(simulate._MEAN_CENTERS, simulate._MEAN_SDS)
            assert np.array_equal(got, want) and got_rng.random() == want_rng.random(), seed

    def test_equals_numpys_cholesky_draw_bit_for_bit(self):
        # The latent rows are standard normals times the constant Cholesky
        # factor, which is what multivariate_normal(method="cholesky") draws.
        for seed in range(25):
            means = substream(seed, "means").normal(size=5)
            z = substream(seed, "rows").standard_normal((1, 64, 5))
            got = simulate._covariate_stack(means[None], z)[0]
            want = reference_covariates(means, 64, substream(seed, "rows"))
            assert np.array_equal(got, want), seed


class TestTargetProfiles:
    def test_shape_and_determinism(self):
        cfg = config()
        p1 = gen_target_profiles(cfg, substream(6, "t"))
        p2 = gen_target_profiles(cfg, substream(6, "t"))
        assert p1.shape == (100, 5)
        assert not p1.flags.writeable
        assert np.array_equal(p1, p2)

    def test_target_is_older_in_expectation(self):
        cfg = config(n_per_study=100)
        target_ages, trial_ages = [], []
        for r in range(200):
            profs = gen_target_profiles(cfg, substream(7, "t", r))
            target_ages.extend(profs[:, 0])
            trial_ages.extend(gen_study(cfg, r, 1).x[:, 0])
        assert np.mean(target_ages) > np.mean(trial_ages)


class TestTrueCate:
    def test_linear_at_origin(self):
        assert true_cate(np.zeros((1, 5)), "linear", (0.0, 0.0, 0.0))[0] == 2.505

    def test_nonlinear_at_origin(self):
        assert true_cate(np.zeros((1, 5)), "nonlinear", (0.0, 0.0, 0.0))[0] == 2.20

    def test_linear_hand_arithmetic(self):
        x = np.array([[1.0, 0, 0, 0, 0]])
        assert true_cate(x, "linear", (0.0, 0.5, -0.82))[0] == pytest.approx(3.005, abs=1e-12)

    def test_reads_age_of_each_row_only(self):
        x = np.random.default_rng(12).normal(size=(6, 5))
        aged = np.zeros((6, 5))
        aged[:, 0] = x[:, 0]
        for setting in ("linear", "nonlinear"):
            tau = true_cate(x, setting, (9.0, 0.1, -0.2))
            assert np.array_equal(tau, true_cate(aged, setting, (0.0, 0.1, -0.2)))
            assert [true_cate(x[i:i + 1], setting, (0.0, 0.1, -0.2))[0]
                    for i in range(6)] == tau.tolist()


class TestOutcomes:
    def test_noise_variance(self):
        n = 100_000
        x = np.zeros((n, 5))
        a = np.zeros(n, dtype=int)
        y = noisy_outcomes(x, a, "linear", (0.0, 0.0, 0.0), substream(21, "noise"))
        resid = y - (-17.40)
        assert np.var(resid) == pytest.approx(0.0025, rel=0.2)

    def test_main_effect_at_origin(self):
        n = 50_000
        x = np.zeros((n, 5))
        a = np.zeros(n, dtype=int)
        y = noisy_outcomes(x, a, "linear", (0.0, 0.0, 0.0), substream(22, "noise"))
        assert y.mean() == pytest.approx(-17.40, abs=3 * 0.05 / np.sqrt(n))
        y2 = noisy_outcomes(x, a, "nonlinear", (0.0, 0.0, 0.0), substream(23, "noise"))
        assert y2.mean() == pytest.approx(-17.52, abs=3 * 0.05 / np.sqrt(n))

    def test_treated_minus_control_at_matched_covariates(self):
        rng = np.random.default_rng(24)
        n = 20_000
        x = np.tile(rng.normal(size=(1, 5)), (n, 1))
        treated = noisy_outcomes(x, np.ones(n, dtype=int), "linear", (0.3, 0.1, -0.2),
                                 substream(25, "a"))
        control = noisy_outcomes(x, np.zeros(n, dtype=int), "linear", (0.3, 0.1, -0.2),
                                 substream(25, "b"))
        expected = true_cate(x[:1], "linear", (0.3, 0.1, -0.2))[0]
        assert treated.mean() - control.mean() == pytest.approx(expected, abs=0.002)


class TestStudyEffects:
    def test_level_sigmas(self):
        rng = substream(30, "eff")
        draws = np.array([draw_study_effects(1, "normal", rng) for _ in range(10_000)])
        assert np.std(draws[:, 0]) == pytest.approx(1.0, rel=0.1)
        assert np.std(draws[:, 1]) == pytest.approx(0.25, rel=0.1)
        assert np.std(draws[:, 2]) == pytest.approx(0.25, rel=0.1)
        rng = substream(31, "eff")
        draws3 = np.array([draw_study_effects(3, "normal", rng) for _ in range(10_000)])
        assert np.std(draws3[:, 1]) == pytest.approx(1.0, rel=0.1)
        assert np.std(draws3[:, 2]) == pytest.approx(0.5, rel=0.1)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_normal_draw_has_the_bits_of_three_numpy_normals(self, level):
        # One call of three standard normals times the sigmas: the same
        # stream and bits as numpy's loc + scale * z, one normal at a time.
        # A numpy build that contracted that to a fused multiply-add fails
        # here, not in a golden.
        for seed in range(200):
            got_rng, want_rng = substream(seed, "eff"), substream(seed, "eff")
            got = draw_study_effects(level, "normal", got_rng)
            want = tuple(float(want_rng.normal(0.0, sigma))
                         for sigma in simulate._HETEROGENEITY_SIGMAS[level])
            assert np.array_equal(got, want) and got_rng.random() == want_rng.random(), seed

    def test_uniform_mode_bounds_and_mean(self):
        rng = substream(32, "eff")
        draws = np.array([draw_study_effects(2, "uniform", rng) for _ in range(5000)])
        assert draws.min() >= -1.0 and draws.max() <= 1.0
        assert np.abs(draws.mean(axis=0)).max() <= 0.05


class TestHarness:
    def test_study_draws_fresh_target_frozen(self):
        cfg = config()
        ds_r0 = gen_study(cfg, 0, 1)
        ds_r1 = gen_study(cfg, 1, 1)
        assert not np.array_equal(ds_r0.y, ds_r1.y)
        points = gen_target_profiles(cfg, substream(cfg.master_seed, "target-profiles"))
        effects1, effects2 = (
            draw_study_effects(1, "normal", substream(cfg.master_seed, "target-effects"))
            for _ in range(2)
        )
        assert effects1 == effects2
        assert np.array_equal(true_cate(points, "linear", effects1),
                              true_cate(points, "linear", effects2))

    def test_gen_study_is_deterministic(self):
        cfg = config()
        d1 = gen_study(cfg, 2, 3)
        d2 = gen_study(cfg, 2, 3)
        assert np.array_equal(d1.y, d2.y)
        assert np.array_equal(d1.a, d2.a)
        assert np.array_equal(d1.x, d2.x)

    def test_run_experiment_deterministic_and_bounded(self):
        cfg = config(n_replications=4)
        m1 = run_experiment(cfg, "oracle")
        m2 = run_experiment(cfg, "oracle")
        assert np.array_equal(m1.coverage, m2.coverage)
        assert np.array_equal(m1.mean_length, m2.mean_length)
        assert np.array_equal(m1.bias, m2.bias)
        assert np.all((m1.coverage >= 0.0) & (m1.coverage <= 1.0))
        assert np.all(m1.mean_length >= 0.0)
        assert m1.n_effective_replications == 4

    def test_worker_pool_matches_sequential(self):
        # One job of 12 replications against six of 2, each job reusing its
        # own workspace; replications 3 and 7 abort.
        cfg = config(n_replications=12, n_per_study=30)
        seq = run_experiment(cfg, "linear")
        par = run_experiment(cfg, "linear", n_workers=2)
        assert seq.aborted_replications == par.aborted_replications == (3, 7)
        assert seq.abort_reasons == par.abort_reasons
        assert_same_table(par, (seq.coverage, seq.mean_length, seq.bias))

    def test_aborted_replications_are_reported(self):
        # An arm of at most 15 rows gives an honest tree about 3.75 of them,
        # under the leaf minimum of 5.
        cfg = config(n_replications=3, n_per_study=30)
        table = run_experiment(cfg, "forest_honest",
                               forest_params=ForestParams(n_trees=20, bag_size=20))
        assert table.aborted_replications == (0, 1, 2)
        assert len(table.abort_reasons) == 3
        assert all("subsample too small" in reason for reason in table.abort_reasons)
        assert table.n_effective_replications == 0
        assert np.all(np.isnan(table.coverage))

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment(config(), "kitchen_sink")

    @pytest.mark.parametrize("n_workers, says", [
        (0, "n_workers must be >= 1"), (-3, "n_workers must be >= 1"),
        (True, "n_workers must be an integer"), (2.5, "n_workers must be an integer"),
    ], ids=["zero", "negative", "bool", "float"])
    def test_worker_count_checked_before_any_work(self, monkeypatch, n_workers, says):
        # 0, -3 and True used to run one process; 2.5 failed in the pool.
        def no_work(*args, **kwargs):
            raise AssertionError("a replication or a process pool was started")

        monkeypatch.setattr(simulate, "_replication_worker", no_work)
        monkeypatch.setattr(simulate.concurrent.futures, "ProcessPoolExecutor", no_work)
        with pytest.raises(ConfigurationError, match=says):
            run_experiment(config(), n_workers=n_workers)

    @pytest.mark.parametrize("seed, replication, study, column", [
        (2, 32, 5, "sex"),  # studies 5 (sex) and 10 (smoking) are singular
        (0, 30, 8, "treatment:sex"),
    ], ids=["2-32-sex", "0-30-treatment:sex"])
    def test_singular_study_aborts_with_its_reason(self, seed, replication, study, column):
        # A binary covariate whose clamped study mean makes its column
        # constant; the first singular study, in study order, is reported.
        table = run_experiment(SimConfig(master_seed=seed, n_replications=replication + 1))
        assert table.aborted_replications[-1] == replication
        assert table.abort_reasons[-1] == (
            f"study {study}: design matrix is singular: column '{column}' is linearly "
            "dependent on earlier columns")

    def test_bart_method_runs_end_to_end(self):
        cfg = config(n_replications=1, n_per_study=80)
        table = run_experiment(
            cfg, "bart",
            bart_params=BartParams(n_trees=5, n_burn=15, n_draws=20, seed=0),
        )
        assert table.n_effective_replications == 1
        assert np.all(np.isfinite(table.mean_length))
        assert np.all(table.mean_length > 0.0)

    def test_bart_without_params_runs_on_the_defaults(self, monkeypatch):
        # A full default chain takes seconds, so the learner is replaced by
        # a stub that records the settings it is given.
        seen = []

        def stub(dataset, points, params):
            seen.append(params)
            return np.zeros(points.shape[0]), np.ones(points.shape[0]), {}

        monkeypatch.setattr(simulate, "estimate_study", stub)
        table = run_experiment(config(k_studies=3, n_replications=2, n_per_study=40), "bart")
        assert table.n_effective_replications == 2
        assert len(seen) == 6
        assert {replace(params, seed=0) for params in seen} == {BartParams()}
        assert len({params.seed for params in seen}) == 6

    @pytest.mark.slow
    def test_oracle_pipeline_calibration_with_redrawn_target(self):
        # Under exactly-matched generation (true study effects injected with
        # negligible variance) and a fresh target draw each replication, the
        # interval should be close to nominal for every profile.
        cfg = config(k_studies=10, master_seed=77)
        ages = gen_target_profiles(cfg, substream(cfg.master_seed, "target-profiles"))[:10, 0]
        reps = 2000
        covered = np.zeros(len(ages))
        for r in range(reps):
            rng = substream(cfg.master_seed, "calib", r)
            effects = [draw_study_effects(1, "normal", rng) for _ in range(cfg.k_studies + 1)]
            tau = np.array([
                [(2.505 + b) + (0.82 + c) * age for age in ages] for _, b, c in effects[:-1]
            ])
            _, b_new, c_new = effects[-1]
            target = (2.505 + b_new) + (0.82 + c_new) * ages
            pooled = pool_profiles(tau, np.full_like(tau, 1e-6), alpha=0.05)
            lower = pooled.tau_pooled - pooled.half_width
            upper = pooled.tau_pooled + pooled.half_width
            covered += (lower <= target) & (target <= upper)
        coverage = covered / reps
        assert np.all(coverage >= 0.92) and np.all(coverage <= 0.98), coverage


class TestStackedDraw:
    @pytest.mark.parametrize("setting", ["linear", "nonlinear"])
    @pytest.mark.parametrize("mode", ["variable", "same", "age_only_variable"])
    @pytest.mark.parametrize("distribution", ["normal", "uniform"])
    def test_equals_one_study_at_a_time_bit_for_bit(self, setting, mode, distribution):
        cfg = config(k_studies=6, n_per_study=90, cate_setting=setting, covariate_mode=mode,
                     effect_distribution=distribution, heterogeneity_level=3, master_seed=12)
        studies = (1, 2, 3, 4, 5, 6)
        x, a, y = simulate._draw_studies(cfg, simulate._study_states(cfg, (5,), studies)[0])
        assert x.shape == (6, 90, 5) and a.shape == y.shape == (6, 90)
        for i, s in enumerate(studies):
            one = gen_study(cfg, 5, s)
            assert one.study_id == s
            assert np.array_equal(x[i], one.x) and np.array_equal(a[i], one.a)
            assert np.array_equal(y[i], one.y)
            # The same study from the model's formulas, each stream in its
            # documented order: effects, covariates (means, then rows),
            # treatment, noise.
            base = (cfg.master_seed, "rep", 5, "study", s)
            effects = draw_study_effects(3, distribution, substream(*base, "effects"))
            rng = substream(*base, "covariates")
            want_x = reference_covariates(simulate._study_means(cfg, rng), 90, rng)
            want_a = substream(*base, "treatment").integers(0, 2, size=90)
            want_y = noisy_outcomes(want_x, want_a, setting, effects, substream(*base, "noise"))
            assert np.array_equal(x[i], want_x) and np.array_equal(a[i], want_a)
            assert np.array_equal(y[i], want_y)


class TestBlockStreams:
    """A block's streams come from one batch derivation, bit for bit the
    streams that ``substream`` gives each study."""

    def test_block_draws_equal_gen_study(self):
        cfg = config(k_studies=3, n_per_study=50, master_seed=2**40 + 3)
        studies = (1, 2, 3)
        states = simulate._study_states(cfg, range(4), studies)
        assert states.shape == (4, 3, 5, 4)
        for r in range(4):  # replication 0's path has a one-word part of 0
            x, a, y = simulate._draw_studies(cfg, states[r])
            for i, s in enumerate(studies):
                one = gen_study(cfg, r, s)
                assert np.array_equal(x[i], one.x) and np.array_equal(a[i], one.a)
                assert np.array_equal(y[i], one.y)
                base = (cfg.master_seed, "rep", r, "study", s)
                want_a = substream(*base, "treatment").integers(0, 2, size=50)
                assert np.array_equal(a[i], want_a)

    @pytest.mark.parametrize("k, n_reps", [(3, 2), (5, 4)])
    def test_a_run_derives_two_single_streams(self, monkeypatch, k, n_reps):
        # The target profiles' and target effects' streams are the only ones
        # a run derives one at a time, whatever the method, K and replication
        # count; a forest or BART fit is seeded as spawn_seed seeds it.
        calls, seeds = [], []
        for module in (simulate, forest):
            monkeypatch.setattr(module, "substream",
                                lambda *path, one=module.substream: calls.append(path) or one(*path))

        def recording(dataset, points, params):
            seeds.append((dataset.study_id, params.seed))
            return estimate_study(dataset, points, params)

        monkeypatch.setattr(simulate, "estimate_study", recording)
        cfg = config(k_studies=k, n_per_study=100, n_replications=n_reps)
        for method in simulate.STAGE1_METHODS:
            calls.clear()
            seeds.clear()
            run_experiment(cfg, method, forest_params=ForestParams(n_trees=4, bag_size=2),
                           bart_params=BartParams(n_trees=2, n_burn=2, n_draws=2))
            assert calls == [(10, "target-profiles"), (10, "target-effects")], method
            if seeds:
                assert seeds == [(s, spawn_seed(10, "rep", r, "study", s, "stage1"))
                                 for r in range(n_reps) for s in range(1, k + 1)]
        calls.clear()
        fit_causal_forest(gen_study(cfg, 0, 1), ForestParams(n_trees=20, bag_size=4, seed=9))
        assert calls == []


def linear_stage1(cfg, replication, points):
    """``(tau, v)`` (K, P) of one replication's linear Stage 1: its
    :func:`gen_study` draws, stacked, in one kernel call."""
    studies = [gen_study(cfg, replication, s) for s in range(1, cfg.k_studies + 1)]
    x, a, y = (np.stack([getattr(d, name) for d in studies]) for name in ("x", "a", "y"))
    return linear_cates_arrays(x, a, y, points, simulate.COVARIATE_NAMES,
                               [d.study_id for d in studies])


def per_replication_reference(cfg, alpha=0.05, skip=()):
    """``(coverage, mean_length, bias), aborted, reasons`` of the linear
    harness from one Stage-1 stack and one pool_profiles call per
    replication, reduced in replication order; ``skip`` leaves replications out."""
    points = gen_target_profiles(cfg, substream(cfg.master_seed, "target-profiles"))
    effects = draw_study_effects(cfg.heterogeneity_level, cfg.effect_distribution,
                                 substream(cfg.master_seed, "target-effects"))
    truth = true_cate(points, cfg.cate_setting, effects)
    covered, width, bias = (np.zeros(len(points)) for _ in range(3))
    aborted, reasons = [], []
    for r in range(cfg.n_replications):
        if r in skip:
            continue
        try:
            tau, v = linear_stage1(cfg, r, points)
        except CatemetaError as err:
            aborted.append(r)
            reasons.append(str(err))
            continue
        pooled = pool_profiles(tau, v, alpha)
        lower = pooled.tau_pooled - pooled.half_width
        upper = pooled.tau_pooled + pooled.half_width
        covered += (lower <= truth) & (truth <= upper)
        width += upper - lower
        bias += pooled.tau_pooled - truth
    n_eff = cfg.n_replications - len(skip) - len(aborted)
    return (covered / n_eff, width / n_eff, bias / n_eff), aborted, reasons


def assert_same_table(table, want):
    for got, expected in zip((table.coverage, table.mean_length, table.bias), want):
        assert np.array_equal(got, expected)


class TestBlockPooling:
    # 23 replications of 100 profiles run in blocks of 10, 10 and 3.
    # Replications 21 and 22 abort in Stage 1 (a constant smoking column in
    # study 1, then in study 2).
    CFG = config(n_per_study=100, n_replications=23)
    SINGULAR = {21: (1, "smoking"), 22: (2, "treatment:smoking")}

    def test_blocks_equal_one_pool_call_per_replication(self, monkeypatch):
        want, aborted, reasons = per_replication_reference(self.CFG)
        assert aborted == list(self.SINGULAR)
        assert reasons == [f"study {study}: design matrix is singular: column '{column}' is "
                           "linearly dependent on earlier columns"
                           for study, column in self.SINGULAR.values()]
        columns = []

        def recording(tau, v, alpha=None):
            columns.append(tau.shape[1])
            return pool_profiles(tau, v, alpha)

        with monkeypatch.context() as patch:
            patch.setattr(simulate, "pool_profiles", recording)
            tables = [run_experiment(self.CFG, "linear")]
        assert columns == [1000, 1000, 100]
        tables += [run_experiment(self.CFG, "linear", n_workers=n) for n in (2, 3)]
        for table in tables:
            assert table.aborted_replications == tuple(aborted)
            assert table.abort_reasons == tuple(reasons)
            assert table.n_effective_replications == 21
            assert_same_table(table, want)

    def test_stage2_error_aborts_only_its_replication(self, monkeypatch):
        points = gen_target_profiles(self.CFG, substream(self.CFG.master_seed, "target-profiles"))
        fourth, _ = linear_stage1(self.CFG, 4, points)
        calls = []

        def failing(tau, v, alpha=None):
            calls.append(tau.shape[1])
            if any(np.array_equal(tau[:, j:j + 100], fourth) for j in range(0, tau.shape[1], 100)):
                raise EstimationError("replication 4 does not pool")
            return pool_profiles(tau, v, alpha)

        monkeypatch.setattr(simulate, "pool_profiles", failing)
        table = run_experiment(self.CFG, "linear")
        want, aborted, reasons = per_replication_reference(self.CFG, skip=(4,))
        assert table.aborted_replications == (4, *aborted)
        assert table.abort_reasons == ("replication 4 does not pool", *reasons)
        assert table.n_effective_replications == 20
        # The first block's one call fails; its ten replications are then
        # pooled one by one.
        assert calls == [1000] + [100] * 10 + [1000, 100]
        assert_same_table(table, want)

    @pytest.mark.parametrize("blocked, n_reps, n_prof, n_workers, size", [
        (True, 23, 100, 1, 10),    # capped by the pool's 1,024 rows
        (True, 7, 100, 1, 7),      # fewer replications than a full block
        (True, 23, 2000, 1, 1),    # one replication is over 1,024 rows
        (True, 100, 100, 3, 9),    # 12 jobs: 4 per worker
        (True, 500, 100, 8, 10),   # enough replications for full blocks
        (True, 5, 100, 4, 1),
        (False, 100, 100, 1, 1),   # forest and BART: one replication a job
        (False, 500, 100, 8, 1),
    ])
    def test_block_size(self, blocked, n_reps, n_prof, n_workers, size):
        assert simulate._block_size(blocked, n_reps, n_prof, n_workers) == size

    def test_only_linear_and_oracle_replications_share_a_job(self, monkeypatch):
        cfg = config(k_studies=3, n_per_study=100)
        small = ForestParams(n_trees=4, bag_size=2)
        worker, sizes = simulate._replication_worker, {}

        def recording(job):
            sizes.setdefault(method, []).append(len(job[3]))
            return worker(job)

        monkeypatch.setattr(simulate, "_replication_worker", recording)
        for method in simulate.STAGE1_METHODS:
            run_experiment(cfg, method, forest_params=small,
                           bart_params=BartParams(n_trees=2, n_burn=2, n_draws=2))
        assert sizes == {"linear": [3], "oracle": [3], "forest_honest": [1, 1, 1],
                         "forest_adaptive": [1, 1, 1], "bart": [1, 1, 1]}


class TestWorkspace:
    """A linear job allocates the arrays its draws and fits fill once."""

    def test_a_linear_job_hands_every_replication_one_stack(self, monkeypatch):
        # 23 replications run in jobs of 10, 10 and 3; 21 and 22 abort.
        cfg = TestBlockPooling.CFG
        worker, kernel, jobs = simulate._replication_worker, simulate.linear_cates_arrays, []

        def recording_worker(job):
            jobs.append([])
            return worker(job)

        def recording_kernel(x, a, y, *args, stack=None):
            jobs[-1].append((stack, x, a))
            return kernel(x, a, y, *args, stack=stack)

        monkeypatch.setattr(simulate, "_replication_worker", recording_worker)
        monkeypatch.setattr(simulate, "linear_cates_arrays", recording_kernel)
        table = run_experiment(cfg, "linear")
        want, _, _ = per_replication_reference(cfg)
        assert_same_table(table, want)
        assert [len(calls) for calls in jobs] == [10, 10, 3]
        for calls in jobs:
            (stack, x, a), *rest = calls
            assert stack.shape == design_stack(4, 100, 5).shape
            assert all(s is stack and xi is x and ai is a for s, xi, ai in rest)
        assert len({id(calls[0][0]) for calls in jobs}) == 3  # not module-level

    @pytest.mark.parametrize("method", ["oracle", "forest_honest", "forest_adaptive", "bart"])
    def test_other_jobs_get_none(self, monkeypatch, method):
        stage1, works = simulate._stage1, []

        def recording(*args):
            works.append(args[5])
            return stage1(*args)

        monkeypatch.setattr(simulate, "_stage1", recording)
        run_experiment(config(k_studies=3, n_per_study=100), method,
                       forest_params=ForestParams(n_trees=4, bag_size=2),
                       bart_params=BartParams(n_trees=2, n_burn=2, n_draws=2))
        assert works == [None] * 3


FAULTS_PER_REPLICATION = """
import resource
from catemeta import SimConfig, run_experiment
cfg = SimConfig(k_studies=10, n_per_study=500, n_replications=30, master_seed=3)
run_experiment(cfg, "linear")
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_experiment(cfg, "linear")
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / cfg.n_replications)
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the fault count is glibc's: its heap trimming on Linux is what "
                           "the linear workspace avoids")
def test_a_warm_linear_pass_faults_in_few_pages():
    # Each replication used to free its draw and design arrays at the top of
    # the heap, past glibc's trim threshold, so the next one faulted about
    # 265 pages back in; with one workspace a job it takes about 55.
    env = dict(os.environ, PYTHONPATH=str(Path(simulate.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", FAULTS_PER_REPLICATION], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 120


class TestEstimateStudy:
    def test_agrees_with_per_profile_reference(self):
        ds = gen_study(config(n_per_study=300), 0, 1)
        points = gen_target_profiles(config(), substream(40, "t"))[:25]
        forest_params = ForestParams(n_trees=40, bag_size=20, seed=3)
        bart_params = BartParams(n_trees=5, n_burn=20, n_draws=30, seed=4)

        # Linear and BART references: the per-profile loops of the parent code.
        (coef,), (cov,), _ = _fit_arrays(ds.x[None], ds.a[None], ds.y[None], (0, 3),
                                         ds.covariate_names, (ds.study_id,))
        treatment = 1 + ds.n_covariates
        linear_ref = []
        for x in points:
            c = np.zeros(coef.shape[0])
            c[treatment] = 1.0
            c[treatment + 1:] = x[[0, 3]]
            linear_ref.append((c @ coef, c @ cov @ c))
        post = fit_bart_slearner(ds, points, bart_params)
        bart_ref = [
            (f1.mean() - f0.mean(), np.var(f1, ddof=1) + np.var(f0, ddof=1))
            for f1, f0 in ((post.draws[:, 2 * i + 1], post.draws[:, 2 * i])
                           for i in range(len(points)))
        ]
        forest_ref = np.column_stack(
            forest_predict(fit_causal_forest(ds, forest_params), points)[:2])
        cases = {
            "linear": ((0, 3), linear_ref),
            "forest": (forest_params, forest_ref),
            "bart": (bart_params, bart_ref),
        }
        for learner, (params, reference) in cases.items():
            tau, se2, diagnostics = estimate_study(ds, points, params)
            want_tau, want_se2 = np.array(reference).T
            if learner == "forest":
                assert np.array_equal(tau, want_tau) and np.array_equal(se2, want_se2)
                assert 0 <= diagnostics["se2_floor_hits"] <= len(points)
                assert 0.0 <= diagnostics["skipped_tree_frac"] <= 0.5
            else:
                np.testing.assert_allclose(tau, want_tau, rtol=1e-12, atol=0.0)
                np.testing.assert_allclose(se2, want_se2, rtol=1e-12, atol=0.0)
            assert diagnostics["fit_seconds"] >= 0.0
        assert np.all(diagnostics["quantile_lower"] <= diagnostics["quantile_upper"])

    def test_unknown_learner_rejected(self):
        # The params object picks the learner; any other value is refused.
        ds = gen_study(config(n_per_study=50), 0, 1)
        for params in ("oracle", "forest", {}, [0, 3]):
            with pytest.raises(ConfigurationError, match=type(params).__name__):
                estimate_study(ds, np.zeros((1, 5)), params)

    @pytest.mark.parametrize("points", [np.zeros(5), np.zeros((3, 4))], ids=["1-d", "wrong-width"])
    def test_point_shape_checked_before_any_fit(self, monkeypatch, points):
        # The forest used to grow every tree before its predictor refused
        # the points, and each learner worded the error its own way.
        def no_fit(*args):
            raise AssertionError("a learner was fitted before the points were checked")

        monkeypatch.setattr(simulate, "fit_causal_forest", no_fit)
        monkeypatch.setattr(simulate, "fit_bart_slearner", no_fit)
        ds = gen_study(config(n_per_study=100), 0, 1)
        messages = set()
        for params in (None, (0, 3), ForestParams(n_trees=200, seed=3), BartParams(seed=4)):
            with pytest.raises(DimensionMismatchError) as err:
                estimate_study(ds, points, params)
            messages.add(str(err.value))
        assert messages == {f"points have shape {points.shape}, expected (P, 5)"}

    @pytest.mark.parametrize("params", [
        None, (0, 3), ForestParams(n_trees=20, seed=3),
        BartParams(n_trees=2, n_burn=2, n_draws=2, seed=4),
    ], ids=["linear-all", "linear-moderators", "forest", "bart"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_rejected(self, params, bad):
        # One rule for every learner: linear used to return NaN, the forest a
        # finite value, and only BART raised.
        ds = gen_study(config(n_per_study=100), 0, 1)
        points = np.zeros((3, 5))
        points[1, 2] = bad
        with pytest.raises(ValueError, match="points must be finite"):
            estimate_study(ds, points, params)
