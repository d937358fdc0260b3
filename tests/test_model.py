"""Domain types and data validation."""

import re

import numpy as np
import pytest

from catemeta import (
    DimensionMismatchError,
    TrialDataset,
    validate_target_coverage,
    validate_trial,
)
from catemeta.model import check_points


def make_trial(study_id=1, n_treated=10, n_control=10, p=3, seed=0):
    rng = np.random.default_rng(seed)
    n = n_treated + n_control
    a = np.array([1] * n_treated + [0] * n_control)
    return TrialDataset(
        study_id=study_id,
        y=rng.normal(size=n),
        a=a,
        x=rng.normal(size=(n, p)),
        covariate_names=tuple(f"c{j}" for j in range(p)),
    )


class TestTrialDataset:
    def test_arrays_are_read_only(self):
        ds = make_trial()
        with pytest.raises(ValueError):
            ds.y[0] = 99.0
        with pytest.raises(ValueError):
            ds.x[0, 0] = 99.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TrialDataset(1, np.zeros(3), np.zeros(4, dtype=int), np.zeros((3, 2)), ("a", "b"))

    def test_covariate_names_must_match_columns(self):
        with pytest.raises(ValueError):
            TrialDataset(1, np.zeros(3), np.zeros(3, dtype=int), np.zeros((3, 2)), ("a",))

    def test_treatment_must_be_binary(self):
        # 0.5, 256.0 and NaN used to be cast to int8 first and stored as 0
        for value, shown in ((2, "[2]"), (0.5, "[0.5]"), (256.0, "[256.0]"),
                             (np.nan, "[nan]"), (-1, "[-1]")):
            with pytest.raises(ValueError, match=re.escape(f"coded 0/1, found {shown}")):
                TrialDataset(1, np.zeros(3), np.array([value, 1, 0]), np.zeros((3, 1)),
                             ("a",))


class TestValidateTrial:
    def test_clean_dataset_empty_report(self):
        report = validate_trial(make_trial())
        assert report.ok
        assert report.violations == ()
        assert report.propensity == 0.5

    def test_empty_control_arm(self):
        report = validate_trial(make_trial(n_treated=10, n_control=0))
        assert any("arm a=0 has <2 rows" in v for v in report.violations)

    def test_single_treated_row_flagged(self):
        report = validate_trial(make_trial(n_treated=1, n_control=10))
        assert any("arm a=1 has <2 rows" in v for v in report.violations)

    def test_nan_outcome_names_row(self):
        ds = make_trial()
        y = ds.y.copy()
        y[3] = np.nan
        with pytest.raises(ValueError, match=re.escape("row 3: non-finite outcome")):
            TrialDataset(ds.study_id, y, ds.a, ds.x, ds.covariate_names)

    def test_nan_covariate_names_row_and_column(self):
        ds = make_trial()
        x = ds.x.copy()
        x[5, 2] = np.inf
        with pytest.raises(ValueError, match=re.escape("row 5: non-finite covariate 'c2'")):
            TrialDataset(ds.study_id, ds.y, ds.a, x, ds.covariate_names)

    def test_idempotent_and_pure(self):
        ds = make_trial()
        first = validate_trial(ds)
        second = validate_trial(ds)
        assert first == second


class TestValidateTargetCoverage:
    def trials(self):
        rng = np.random.default_rng(5)
        out = []
        for s, (lo, hi) in enumerate([(-1.0, 1.0), (-0.5, 2.0)], start=1):
            x = rng.uniform(lo, hi, size=(20, 2))
            a = np.array([0, 1] * 10)
            out.append(TrialDataset(s, rng.normal(size=20), a, x, ("age", "weight")))
        return out

    def test_profile_equal_to_trial_row_not_flagged(self):
        trials = self.trials()
        outside = validate_target_coverage(trials[0].x[4:5], trials)
        assert outside.shape == (1, 2) and outside.dtype == bool and not outside.any()

    def test_profile_outside_range_flagged_by_name(self):
        trials = self.trials()
        pooled_max = max(t.x[:, 0].max() for t in trials)
        outside = validate_target_coverage(np.array([[pooled_max + 10.0, 0.0]]), trials)
        assert outside.tolist() == [[True, False]]  # ("age", "weight")

    def test_boundary_is_closed(self):
        trials = self.trials()
        pooled_min = min(t.x[:, 1].min() for t in trials)
        outside = validate_target_coverage(np.array([[0.0, pooled_min]]), trials)
        assert not outside.any()

    def test_widening_a_range_never_adds_flags(self):
        trials = self.trials()
        rng = np.random.default_rng(11)
        points = rng.uniform(-2, 3, (40, 2))
        before = validate_target_coverage(points, trials)
        widened = trials + [
            TrialDataset(3, np.zeros(4), np.array([0, 0, 1, 1]),
                         np.array([[-5.0, -5.0], [5.0, 5.0], [0.0, 0.0], [1.0, 1.0]]),
                         ("age", "weight"))
        ]
        after = validate_target_coverage(points, widened)
        assert before.any() and not (after & ~before).any()

    def test_dimension_mismatch_is_hard_error(self):
        trials = self.trials()
        want = "points have shape (1, 3), expected (P, 2)"
        with pytest.raises(DimensionMismatchError, match=re.escape(want)):
            validate_target_coverage(np.zeros((1, 3)), trials)
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match="points must be finite"):
                validate_target_coverage(np.array([[value, 0.0]]), trials)


class TestLearnerUniformity:
    def test_every_stage1_learner_emits_study_cate_estimates(self):
        # One dataset through all three learners: the pooling stage only ever
        # sees one (tau_hat, se2) per profile, in profile order.
        from catemeta import BartParams, ForestParams, estimate_study

        rng = np.random.default_rng(77)
        n = 200
        x = rng.normal(size=(n, 2))
        a = rng.integers(0, 2, n)
        y = x[:, 0] + a * (1.0 + x[:, 1]) + rng.normal(0, 0.3, n)
        ds = TrialDataset(4, y, a, x, ("u", "v"))
        points = rng.normal(size=(3, 2))
        for params in (None, ForestParams(n_trees=20, bag_size=20, seed=1),
                       BartParams(n_trees=5, n_burn=20, n_draws=30, seed=2)):
            tau, se2, _ = estimate_study(ds, points, params)
            assert tau.shape == se2.shape == (3,)
            assert np.isfinite(tau).all()
            assert (se2 >= 0.0).all()


class TestResultTypes:
    def test_profile_rejects_non_finite(self):
        # The profile rule is the Stage-1 points rule.
        with pytest.raises(ValueError):
            check_points(np.array([[1.0, np.nan]]), 2)
