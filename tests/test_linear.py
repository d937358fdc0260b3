"""Interaction least squares: exact recovery, contrasts, failure modes."""

import re

import numpy as np
import pytest

from catemeta import (
    DimensionMismatchError,
    EstimationError,
    InsufficientDataError,
    SingularDesignError,
    TrialDataset,
    fit_interaction_ols,
)
from catemeta.linear import _contrast, linear_cates_stack
from catemeta.rng import substream
from catemeta.simulate import SimConfig, gen_study, gen_target_profiles


def dataset_from(y, a, x, names=None):
    x = np.asarray(x, dtype=float)
    names = names or tuple(f"c{j}" for j in range(x.shape[1]))
    return TrialDataset(1, np.asarray(y, dtype=float), np.asarray(a), x, names)


def test_noiseless_interaction_recovered_exactly():
    rng = np.random.default_rng(0)
    n = 80
    x = rng.normal(size=(n, 3))
    a = rng.integers(0, 2, n)
    y = 2.0 * a + 3.0 * a * x[:, 0]  # x0 is the sole moderator
    fit = fit_interaction_ols(dataset_from(y, a, x), moderators=(0,))
    p = 3
    assert fit.coefficients[p + 1] == pytest.approx(2.0, abs=1e-8)   # treatment
    assert fit.coefficients[p + 2] == pytest.approx(3.0, abs=1e-8)   # interaction
    assert fit.residual_variance == pytest.approx(0.0, abs=1e-8)


def test_saturated_four_row_system_solves_exactly():
    # rows (y, a, x): hand-solved coefficients (0, 1, 2, 1), zero residual
    y = [0.0, 1.0, 2.0, 4.0]
    a = [0, 0, 1, 1]
    x = [[0.0], [1.0], [0.0], [1.0]]
    fit = fit_interaction_ols(dataset_from(y, a, x), moderators=(0,))
    assert fit.coefficients == pytest.approx([0.0, 1.0, 2.0, 1.0], abs=1e-10)
    assert fit.residual_variance == 0.0
    assert np.all(fit.covariance == 0.0)


def test_duplicated_covariate_column_is_singular():
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=(30, 1))
    x = np.hstack([x0, x0])
    a = rng.integers(0, 2, 30)
    y = rng.normal(size=30)
    with pytest.raises(SingularDesignError) as err:
        fit_interaction_ols(dataset_from(y, a, x, ("height", "height_copy")), moderators=())
    assert err.value.column_name == "height_copy"


def test_constant_covariate_is_named_not_the_intercept():
    # A binary covariate whose study mean clamps to 1 is all ones, the same
    # column as the intercept; the covariate is the one that depends on it.
    # A wide age column makes column-pivoted QR pick it first, then name the
    # intercept as the dependent one.
    rng = np.random.default_rng(3)
    x = np.column_stack([10.0 * rng.normal(size=40), np.ones(40)])
    a = rng.integers(0, 2, 40)
    y = rng.normal(size=40)
    with pytest.raises(SingularDesignError) as err:
        fit_interaction_ols(dataset_from(y, a, x, ("age", "sex")))
    assert err.value.column_name == "sex"
    assert "column 'sex' is linearly dependent on earlier columns" in str(err.value)


def test_too_few_rows_is_insufficient_data():
    with pytest.raises(InsufficientDataError):
        fit_interaction_ols(dataset_from([1.0, 2.0, 3.0], [0, 1, 0], [[0.0], [1.0], [2.0]]))


def test_moderators_default_to_all_covariates():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(60, 2))
    a = rng.integers(0, 2, 60)
    y = rng.normal(size=60)
    fit = fit_interaction_ols(dataset_from(y, a, x))
    assert fit.moderator_indices == (0, 1)
    assert fit.coefficients.shape == (2 + 2 + 2,)


class TestModeratorIndices:
    def study(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(60, 4))
        return dataset_from(rng.normal(size=60), rng.integers(0, 2, 60), x)

    @pytest.mark.parametrize("moderators", [(0, 0), (3, 0, 3)])
    def test_repeated_index_is_refused(self, moderators):
        # (0, 0) used to fit (0,), and (3, 0, 3) fitted (0, 3).
        with pytest.raises(ValueError, match="moderator indices must not repeat"):
            linear_cates_stack([self.study()], np.zeros((2, 4)), moderators)

    @pytest.mark.parametrize("moderators", [(1.0,), (0, 2.7), ("1",)])
    def test_non_integer_index_is_refused(self, moderators):
        # A float index used to be truncated: 2.7 fitted column 2.
        with pytest.raises(ValueError, match="moderator indices must be integers"):
            linear_cates_stack([self.study()], np.zeros((2, 4)), moderators)

    @pytest.mark.parametrize("moderators", [(-1,), (4,)])
    def test_index_out_of_range_is_refused(self, moderators):
        with pytest.raises(ValueError, match=re.escape("moderator indices must be in [0, 4)")):
            linear_cates_stack([self.study()], np.zeros((2, 4)), moderators)

    def test_order_and_integer_type_do_not_matter(self):
        # The CLI passes indices in the order the names were given; the
        # columns are always fitted in increasing index order.
        study, points = self.study(), np.random.default_rng(10).normal(size=(5, 4))
        want = linear_cates_stack([study], points, (0, 3))
        for moderators in ((3, 0), (np.int64(3), np.int8(0)), np.array([3, 0])):
            got = linear_cates_stack([study], points, moderators)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestLinearCate:
    def contrast(self, coefficients, covariance, x):
        """(tau_hat, se2) at the one-covariate point ``x`` of a study with the
        given coefficients (intercept, x0, treatment, treatment:x0)."""
        tau, se2 = _contrast(np.array([coefficients], dtype=float),
                             np.array([covariance], dtype=float), (0,), np.array([[x]]))
        return tau[0, 0], se2[0, 0]

    def test_hand_contrast_example(self):
        # beta2 = 2, beta3 = 3, x_mod = 1, identity covariance
        tau, se2 = self.contrast([0.0, 0.0, 2.0, 3.0], np.eye(4), 1.0)
        assert tau == 5.0
        assert se2 == 2.0

    def test_zero_moderator_value_reduces_to_treatment_coefficient(self):
        cov = np.diag([0.1, 0.2, 0.7, 0.9])
        tau, se2 = self.contrast([0.5, 1.0, 2.0, 3.0], cov, 0.0)
        assert tau == 2.0
        assert se2 == 0.7

    def test_zero_covariance_gives_zero_se2(self):
        _, se2 = self.contrast([0.0, 0.0, 2.0, 3.0], np.zeros((4, 4)), 2.0)
        assert se2 == 0.0

    def test_dimension_mismatch(self):
        study = dataset_from([0.0, 1.0, 2.0, 4.0], [0, 0, 1, 1], [[0.0], [1.0], [0.0], [1.0]])
        want = "points have shape (1, 2), expected (P, 1)"
        with pytest.raises(DimensionMismatchError, match=re.escape(want)):
            linear_cates_stack([study], np.array([[1.0, 2.0]]))

    def test_se2_nonnegative_over_random_fits(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, p = 50, 3
            x = rng.normal(size=(n, p))
            a = rng.integers(0, 2, n)
            y = rng.normal(size=n)
            _, se2 = linear_cates_stack([dataset_from(y, a, x)], rng.normal(size=(5, p)))
            assert (se2 >= 0.0).all()


def test_outcome_shift_leaves_cate_unchanged():
    rng = np.random.default_rng(4)
    n, p = 100, 2
    x = rng.normal(size=(n, p))
    a = rng.integers(0, 2, n)
    y = 1.0 + x[:, 0] + a * (0.5 + 0.3 * x[:, 1]) + rng.normal(0, 0.4, n)
    points = rng.normal(size=(10, p))
    (t0,), _ = linear_cates_stack([dataset_from(y, a, x)], points)
    (t1,), _ = linear_cates_stack([dataset_from(y + 17.3, a, x)], points)
    assert t1 == pytest.approx(t0, abs=1e-9)


def test_treatment_label_swap_negates_cate():
    rng = np.random.default_rng(5)
    n, p = 120, 2
    x = rng.normal(size=(n, p))
    a = rng.integers(0, 2, n)
    y = x[:, 0] + a * (1.0 + 0.5 * x[:, 0]) + rng.normal(0, 0.3, n)
    tau, _ = linear_cates_stack([dataset_from(y, a, x), dataset_from(y, 1 - a, x)],
                                rng.normal(size=(10, p)))
    assert tau[1] == pytest.approx(-tau[0], abs=1e-9)


def test_noiseless_generative_model_reproduced_at_profiles():
    rng = np.random.default_rng(6)
    n, p = 200, 4
    x = rng.normal(size=(n, p))
    a = rng.integers(0, 2, n)
    beta2, beta3 = 1.7, np.array([0.4, -0.9, 0.0, 2.2])
    y = 0.3 + x @ np.array([1.0, -1.0, 0.5, 0.0]) + a * (beta2 + x @ beta3)
    points = rng.normal(size=(20, p))
    (tau,), _ = linear_cates_stack([dataset_from(y, a, x)], points)
    assert tau == pytest.approx(beta2 + points @ beta3, abs=1e-8)


def scalar_reference(dataset, moderators, points):
    """One study's fit and CATEs as a per-study loop computes them: the
    stacked kernel must give these bits for every study of the stack."""
    p = dataset.n_covariates
    mods = tuple(range(p)) if moderators is None else moderators
    x, a = dataset.x, dataset.a.astype(np.float64)
    design = np.column_stack([np.ones(dataset.n_rows), x, a[:, None], x[:, mods] * a[:, None]])
    n, q = design.shape
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    coef = vt.T @ ((u.T @ dataset.y) / s)
    resid = dataset.y - design @ coef
    cov = float(resid @ resid) / (n - q) * ((vt.T / s**2) @ vt)
    cov = 0.5 * (cov + cov.T)
    contrast = np.zeros((points.shape[0], q))
    contrast[:, p + 1] = 1.0
    contrast[:, p + 2:] = points[:, mods]
    return contrast @ coef, np.maximum(((contrast @ cov) * contrast).sum(axis=1), 0.0)


class TestStack:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("moderators", [None, (0,), ()], ids=["all", "age", "none"])
    def test_equals_per_study_fits_bit_for_bit(self, seed, moderators):
        cfg = SimConfig(n_per_study=200, master_seed=seed)
        studies = [gen_study(cfg, 0, s) for s in range(1, cfg.k_studies + 1)]
        points = gen_target_profiles(cfg, substream(seed, "target-profiles"))
        tau, se2 = linear_cates_stack(studies, points, moderators)
        for k, study in enumerate(studies):
            want_tau, want_se2 = scalar_reference(study, moderators, points)
            assert np.array_equal(tau[k], want_tau) and np.array_equal(se2[k], want_se2)
            alone_tau, alone_se2 = linear_cates_stack([study], points, moderators)
            assert np.array_equal(tau[k], alone_tau[0]) and np.array_equal(se2[k], alone_se2[0])

    def test_first_failing_study_raises_in_study_order(self):
        rng = np.random.default_rng(8)
        x, a, y = rng.normal(size=(40, 2)), rng.integers(0, 2, 40), rng.normal(size=40)
        sex = np.column_stack([x[:, 0], np.ones(40)])  # the same column as the intercept
        ok = dataset_from(y, a, x, ("age", "sex"))
        singular = dataset_from(y, a, sex, ("age", "sex"))
        huge = dataset_from(1e300 * y, a, x, ("age", "sex"))  # its squared residuals overflow
        points = np.zeros((2, 2))
        for stack, error, says in (([ok, huge, singular], EstimationError, "study 2: "),
                                   ([ok, singular, huge], SingularDesignError, "'sex'")):
            stack = [TrialDataset(s + 1, d.y, d.a, d.x, d.covariate_names)
                     for s, d in enumerate(stack)]
            with pytest.raises(error, match=says) as err:
                linear_cates_stack(stack, points)
            with pytest.raises(error) as alone:
                fit_interaction_ols(stack[1])
            assert str(err.value) == str(alone.value)

    @pytest.mark.parametrize("points", [np.zeros(5), np.zeros((3, 4))], ids=["1-d", "wrong-width"])
    def test_points_checked_before_any_fit(self, points):
        # The design of this study is singular: the shape error comes first.
        study = dataset_from(np.zeros(30), np.zeros(30, dtype=int), np.ones((30, 5)))
        want = f"points have shape {points.shape}, expected (P, 5)"
        with pytest.raises(DimensionMismatchError, match=re.escape(want)):
            linear_cates_stack([study], points)
