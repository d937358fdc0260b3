"""Interaction least squares: exact recovery, contrasts, failure modes."""

import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catemeta import (
    DimensionMismatchError,
    EstimationError,
    InsufficientDataError,
    SingularDesignError,
    TrialDataset,
    simulate,
)
from catemeta.linear import (
    _RANK_RTOL,
    _column_names,
    _contrast,
    _fit_arrays,
    _moderators,
    _rank_and_inverse,
    design_stack,
    linear_cates_arrays,
)
from catemeta.rng import substream
from catemeta.simulate import SimConfig, gen_study, gen_target_profiles, run_experiment


def dataset_from(y, a, x, names=None):
    x = np.asarray(x, dtype=float)
    names = names or tuple(f"c{j}" for j in range(x.shape[1]))
    return TrialDataset(1, np.asarray(y, dtype=float), np.asarray(a), x, names)


def stacked_arrays(studies):
    """``x``, ``a`` and ``y`` of equal-shaped studies, stacked."""
    return (np.stack([getattr(d, name) for d in studies]) for name in ("x", "a", "y"))


def cates(studies, points, moderators=None):
    """``(tau, se2)`` (K, P) of equal-shaped studies from their stacked arrays."""
    x, a, y = stacked_arrays(studies)
    return linear_cates_arrays(x, a, y, points, studies[0].covariate_names,
                               [d.study_id for d in studies], moderators)


def fit(dataset, moderators=None):
    """``(coefficients, covariance, residual variance)`` of one study."""
    mods = _moderators(moderators, dataset.n_covariates)
    (coef,), (cov,), (sigma2,) = _fit_arrays(dataset.x[None], dataset.a[None], dataset.y[None],
                                             mods, dataset.covariate_names, (dataset.study_id,))
    return coef, cov, sigma2


def test_noiseless_interaction_recovered_exactly():
    rng = np.random.default_rng(0)
    n = 80
    x = rng.normal(size=(n, 3))
    a = rng.integers(0, 2, n)
    y = 2.0 * a + 3.0 * a * x[:, 0]  # x0 is the sole moderator
    coef, _, sigma2 = fit(dataset_from(y, a, x), moderators=(0,))
    p = 3
    assert coef[p + 1] == pytest.approx(2.0, abs=1e-8)   # treatment
    assert coef[p + 2] == pytest.approx(3.0, abs=1e-8)   # interaction
    assert sigma2 == pytest.approx(0.0, abs=1e-8)


def test_saturated_four_row_system_solves_exactly():
    # rows (y, a, x): hand-solved coefficients (0, 1, 2, 1), zero residual
    y = [0.0, 1.0, 2.0, 4.0]
    a = [0, 0, 1, 1]
    x = [[0.0], [1.0], [0.0], [1.0]]
    coef, cov, sigma2 = fit(dataset_from(y, a, x), moderators=(0,))
    assert coef == pytest.approx([0.0, 1.0, 2.0, 1.0], abs=1e-10)
    assert sigma2 == 0.0
    assert np.all(cov == 0.0)


def test_duplicated_covariate_column_is_singular():
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=(30, 1))
    x = np.hstack([x0, x0])
    a = rng.integers(0, 2, 30)
    y = rng.normal(size=30)
    with pytest.raises(SingularDesignError) as err:
        cates([dataset_from(y, a, x, ("height", "height_copy"))], np.zeros((1, 2)),
              moderators=())
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
        cates([dataset_from(y, a, x, ("age", "sex"))], np.zeros((1, 2)))
    assert err.value.column_name == "sex"
    assert "column 'sex' is linearly dependent on earlier columns" in str(err.value)


@pytest.mark.parametrize("noise, refused", [(1e-13, True), (1e-7, False)])
def test_near_copy_of_a_column_is_refused_below_the_rank_threshold(noise, refused):
    rng = np.random.default_rng(12)
    x = rng.normal(size=(100, 2))
    x = np.column_stack([x, x[:, 1] + noise * rng.normal(size=100)])
    study = dataset_from(rng.normal(size=100), rng.integers(0, 2, 100), x,
                         ("age", "weight", "weight_kg"))
    if refused:
        with pytest.raises(SingularDesignError) as err:
            cates([study], np.zeros((1, 3)), moderators=())
        assert err.value.column_name == "weight_kg"
    else:
        cates([study], np.zeros((1, 3)), moderators=())


@pytest.mark.parametrize("scale", [1e-13, 1e-11, 1e9, 1e12])
def test_covariate_units_do_not_decide_the_rank(scale):
    # Each of these scales of 'dose' used to be refused as linearly
    # dependent, except 1e9, which moved tau by up to 3.1e-6 relative: the
    # rank test compared singular values across columns of different units.
    rng = np.random.default_rng(5)
    n = 200
    x = rng.normal(size=(n, 3))
    a = rng.integers(0, 2, n)
    y = 1 + a * (2 + x[:, 0]) + 0.1 * rng.normal(size=n)
    points = rng.normal(size=(10, 3))
    names = ("age", "dose", "bmi")
    (want_tau,), (want_se2,) = cates([dataset_from(y, a, x, names)], points)
    unit = np.array([1.0, scale, 1.0])
    (tau,), (se2,) = cates([dataset_from(y, a, x * unit, names)], points * unit)
    np.testing.assert_allclose(tau, want_tau, rtol=1e-13)
    np.testing.assert_allclose(se2, want_se2, rtol=1e-13)


def test_harness_aborts_the_same_replication_for_the_same_reason():
    # Aborts are the benchmark's failed items: a change to the rank test
    # that moves them changes what the harness measures.
    table = run_experiment(SimConfig(k_studies=10, n_per_study=500, n_replications=100,
                                     master_seed=7), "linear")
    assert table.aborted_replications == (25,)
    assert table.abort_reasons == ("study 7: design matrix is singular: column 'sex' is "
                                   "linearly dependent on earlier columns",)


def test_too_few_rows_is_insufficient_data():
    with pytest.raises(InsufficientDataError):
        cates([dataset_from([1.0, 2.0, 3.0], [0, 1, 0], [[0.0], [1.0], [2.0]])],
              np.zeros((1, 1)))


def test_moderators_default_to_all_covariates():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(60, 2))
    a = rng.integers(0, 2, 60)
    y = rng.normal(size=60)
    coef, cov, _ = fit(dataset_from(y, a, x))
    assert _moderators(None, 2) == (0, 1)
    assert coef.shape == (2 + 2 + 2,) and cov.shape == (6, 6)


class TestModeratorIndices:
    def study(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(60, 4))
        return dataset_from(rng.normal(size=60), rng.integers(0, 2, 60), x)

    @pytest.mark.parametrize("moderators", [(0, 0), (3, 0, 3)])
    def test_repeated_index_is_refused(self, moderators):
        # (0, 0) used to fit (0,), and (3, 0, 3) fitted (0, 3).
        with pytest.raises(ValueError, match="moderator indices must not repeat"):
            cates([self.study()], np.zeros((2, 4)), moderators)

    @pytest.mark.parametrize("moderators", [(1.0,), (0, 2.7), ("1",), (True, 3)])
    def test_non_integer_index_is_refused(self, moderators):
        # A float index used to be truncated: 2.7 fitted column 2, and True
        # fitted column 1.
        with pytest.raises(ValueError, match="moderator indices must be integers"):
            cates([self.study()], np.zeros((2, 4)), moderators)

    @pytest.mark.parametrize("moderators", [(-1,), (4,)])
    def test_index_out_of_range_is_refused(self, moderators):
        with pytest.raises(ValueError, match=re.escape("moderator indices must be in [0, 4)")):
            cates([self.study()], np.zeros((2, 4)), moderators)

    def test_order_and_integer_type_do_not_matter(self):
        # The CLI passes indices in the order the names were given; the
        # columns are always fitted in increasing index order.
        study, points = self.study(), np.random.default_rng(10).normal(size=(5, 4))
        want = cates([study], points, (0, 3))
        for moderators in ((3, 0), (np.int64(3), np.int8(0)), np.array([3, 0])):
            got = cates([study], points, moderators)
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
            cates([study], np.array([[1.0, 2.0]]))

    def test_se2_nonnegative_over_random_fits(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, p = 50, 3
            x = rng.normal(size=(n, p))
            a = rng.integers(0, 2, n)
            y = rng.normal(size=n)
            _, se2 = cates([dataset_from(y, a, x)], rng.normal(size=(5, p)))
            assert (se2 >= 0.0).all()


def test_outcome_shift_leaves_cate_unchanged():
    rng = np.random.default_rng(4)
    n, p = 100, 2
    x = rng.normal(size=(n, p))
    a = rng.integers(0, 2, n)
    y = 1.0 + x[:, 0] + a * (0.5 + 0.3 * x[:, 1]) + rng.normal(0, 0.4, n)
    points = rng.normal(size=(10, p))
    (t0,), _ = cates([dataset_from(y, a, x)], points)
    (t1,), _ = cates([dataset_from(y + 17.3, a, x)], points)
    assert t1 == pytest.approx(t0, abs=1e-9)


def test_treatment_label_swap_negates_cate():
    rng = np.random.default_rng(5)
    n, p = 120, 2
    x = rng.normal(size=(n, p))
    a = rng.integers(0, 2, n)
    y = x[:, 0] + a * (1.0 + 0.5 * x[:, 0]) + rng.normal(0, 0.3, n)
    tau, _ = cates([dataset_from(y, a, x), dataset_from(y, 1 - a, x)], rng.normal(size=(10, p)))
    assert tau[1] == pytest.approx(-tau[0], abs=1e-9)


def test_noiseless_generative_model_reproduced_at_profiles():
    rng = np.random.default_rng(6)
    n, p = 200, 4
    x = rng.normal(size=(n, p))
    a = rng.integers(0, 2, n)
    beta2, beta3 = 1.7, np.array([0.4, -0.9, 0.0, 2.2])
    y = 0.3 + x @ np.array([1.0, -1.0, 0.5, 0.0]) + a * (beta2 + x @ beta3)
    points = rng.normal(size=(20, p))
    (tau,), _ = cates([dataset_from(y, a, x)], points)
    assert tau == pytest.approx(beta2 + points @ beta3, abs=1e-8)


def simulated_stack(seed):
    """The 10 studies of replication 0 at 200 rows, and the target profiles."""
    cfg = SimConfig(n_per_study=200, master_seed=seed)
    studies = [gen_study(cfg, 0, s) for s in range(1, cfg.k_studies + 1)]
    return studies, gen_target_profiles(cfg, substream(seed, "target-profiles"))


def design_of(dataset, mods):
    """One study's design: intercept, covariates, treatment, interactions."""
    x, a = dataset.x, dataset.a.astype(np.float64)
    return np.column_stack([np.ones(dataset.n_rows), x, a[:, None], x[:, mods] * a[:, None]])


def scalar_reference(dataset, moderators, points):
    """One study's fit and CATEs as a per-study loop computes them: the
    stacked kernel must give these bits for every study of the stack."""
    p = dataset.n_covariates
    mods = tuple(range(p)) if moderators is None else moderators
    design = design_of(dataset, mods)
    n, q = design.shape
    _, e = np.frexp(np.abs(design).max(axis=0))
    r_aug = np.linalg.qr(np.column_stack([np.ldexp(design, -e), dataset.y]), mode="r")
    r_inv = np.linalg.inv(r_aug[:q, :q])
    coef = np.ldexp(r_inv @ r_aug[:q, q], -e)
    cov = r_aug[q, q] ** 2 / (n - q) * (r_inv @ r_inv.T)
    cov = np.ldexp(0.5 * (cov + cov.T), -np.add.outer(e, e))
    contrast = np.zeros((points.shape[0], q))
    contrast[:, p + 1] = 1.0
    contrast[:, p + 2:] = points[:, mods]
    return contrast @ coef, np.maximum(((contrast @ cov) * contrast).sum(axis=1), 0.0)


class TestKernelRelations:
    """Relations the fit obeys whatever arithmetic computes it."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("moderators", [None, (0,), ()], ids=["all", "age", "none"])
    @pytest.mark.parametrize("kx, ky", [(4, 3), (-7, 5), (0, 9), (12, 0)])
    def test_power_of_two_units_scale_the_cates_exactly(self, kx, ky, moderators, seed):
        # Covariates and points times 2**kx leave the CATEs' bits; outcomes
        # times 2**ky scale tau by exactly 2**ky and se2 by 4**ky.
        studies, points = simulated_stack(seed)
        tau, se2 = cates(studies, points, moderators)
        scaled = [TrialDataset(d.study_id, np.ldexp(d.y, ky), d.a, np.ldexp(d.x, kx),
                               d.covariate_names) for d in studies]
        got_tau, got_se2 = cates(scaled, np.ldexp(points, kx), moderators)
        assert np.array_equal(got_tau, np.ldexp(tau, ky))
        assert np.array_equal(got_se2, np.ldexp(se2, 2 * ky))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("moderators", [None, (0,), ()], ids=["all", "age", "none"])
    def test_fit_agrees_with_lstsq(self, seed, moderators):
        studies, _ = simulated_stack(seed)
        for study in studies:
            coef, cov, sigma2 = fit(study, moderators)
            design = design_of(study, _moderators(moderators, study.n_covariates))
            n, q = design.shape
            want, (rss,), _, _ = np.linalg.lstsq(design, study.y, rcond=None)
            want_cov = rss / (n - q) * np.linalg.inv(design.T @ design)
            assert np.linalg.norm(coef - want) <= 1e-10 * np.linalg.norm(want)
            assert sigma2 == pytest.approx(rss / (n - q), rel=1e-10)
            assert np.linalg.norm(cov - want_cov) <= 1e-10 * np.linalg.norm(want_cov)


class TestStack:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("moderators", [None, (0,), ()], ids=["all", "age", "none"])
    def test_equals_per_study_fits_bit_for_bit(self, seed, moderators):
        studies, points = simulated_stack(seed)
        tau, se2 = cates(studies, points, moderators)
        for k, study in enumerate(studies):
            want_tau, want_se2 = scalar_reference(study, moderators, points)
            assert np.array_equal(tau[k], want_tau) and np.array_equal(se2[k], want_se2)
            alone_tau, alone_se2 = cates([study], points, moderators)
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
                cates(stack, points)
            with pytest.raises(error) as alone:
                cates([stack[1]], points)
            assert str(err.value) == str(alone.value)

    @pytest.mark.parametrize("points", [np.zeros(5), np.zeros((3, 4))], ids=["1-d", "wrong-width"])
    def test_points_checked_before_any_fit(self, points):
        # The design of this study is singular: the shape error comes first.
        study = dataset_from(np.zeros(30), np.zeros(30, dtype=int), np.ones((30, 5)))
        want = f"points have shape {points.shape}, expected (P, 5)"
        with pytest.raises(DimensionMismatchError, match=re.escape(want)):
            cates([study], points)


class TestArrayShapes:
    """The kernel refuses arrays that do not match ``x`` rather than
    broadcasting them."""

    @pytest.fixture
    def arrays(self):
        studies, points = simulated_stack(0)
        x, a, y = stacked_arrays(studies[:2])
        return x, a, y, points, studies[0].covariate_names, (1, 2)

    @pytest.mark.parametrize("arg, bad, says", [
        # y[:1] used to fit both studies on study 1's outcomes.
        ("y", lambda y: y[:1], "y has shape (1, 200), expected (2, 200)"),
        ("y", lambda y: y[:, :150], "y has shape (2, 150), expected (2, 200)"),
        ("a", lambda a: a[:1], "a has shape (1, 200), expected (2, 200)"),
        ("a", lambda a: a[0], "a has shape (200,), expected (2, 200)"),
        ("names", lambda names: names[:4], "names has 4 entries, expected one per covariate"),
        ("study_ids", lambda ids: (1, 2, 3), "study_ids has 3 entries, expected one per study"),
    ], ids=["y-one-study", "y-short-rows", "a-one-study", "a-1-d", "names", "study-ids"])
    def test_mismatch_is_named(self, arrays, arg, bad, says):
        args = dict(zip(("x", "a", "y", "points", "names", "study_ids"), arrays))
        args[arg] = bad(args[arg])
        with pytest.raises(ValueError, match=re.escape(says)):
            linear_cates_arrays(**args)

    def test_x_must_be_a_stack(self, arrays):
        x, a, y, points, names, ids = arrays
        with pytest.raises(ValueError, match=re.escape("x has shape (200, 5), expected (K, n, p)")):
            linear_cates_arrays(x[0], a[0], y[0], points, names, ids[:1])


class TestWorkspace:
    """A caller-given stack changes no bit, whatever it held."""

    @pytest.mark.parametrize("moderators", [None, (0,), ()], ids=["all", "age", "none"])
    def test_a_nan_filled_stack_gives_the_fresh_bits(self, moderators):
        studies, points = simulated_stack(1)
        x, a, y = stacked_arrays(studies)
        names, ids = studies[0].covariate_names, range(1, 11)
        want = linear_cates_arrays(x, a, y, points, names, ids, moderators)
        stack = design_stack(10, 200, 5, moderators)
        stack.fill(np.nan)
        got = linear_cates_arrays(x, a, y, points, names, ids, moderators, stack=stack)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_a_stack_left_by_a_singular_study_gives_the_fresh_bits(self):
        studies, points = simulated_stack(2)
        x, a, y = stacked_arrays(studies)
        names, ids = studies[0].covariate_names, range(1, 11)
        want = linear_cates_arrays(x, a, y, points, names, ids)
        stack = design_stack(10, 200, 5)
        singular = x.copy()
        singular[3, :, 2] = 1.0  # study 4's smoking column is constant
        # The failed fit leaves other covariates and outcomes in the stack.
        with pytest.raises(SingularDesignError, match="'smoking'"):
            linear_cates_arrays(singular, a, 1e3 * y, points, names, ids, stack=stack)
        got = linear_cates_arrays(x, a, y, points, names, ids, stack=stack)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("stack, says", [
        (np.empty((2, 12, 200)), "shape (2, 12, 200)"),
        (np.empty((2, 13, 150)), "shape (2, 13, 150)"),
        (np.empty((2, 13, 200), np.float32), "float32"),
        (np.empty((2, 200, 13)).swapaxes(1, 2), "shape (2, 13, 200)"),
    ], ids=["rows", "columns", "dtype", "layout"])
    def test_a_stack_of_another_shape_or_layout_is_refused(self, stack, says):
        studies, points = simulated_stack(0)
        x, a, y = stacked_arrays(studies[:2])
        with pytest.raises(ValueError, match=re.escape(says)) as err:
            linear_cates_arrays(x, a, y, points, studies[0].covariate_names, (1, 2), stack=stack)
        assert "expected a C-contiguous float64 array of shape (2, 13, 200)" in str(err.value)

    @pytest.mark.parametrize("moderators, q", [(None, 12), ((0, 3), 9), ((), 7)])
    def test_design_stack_has_one_row_per_coefficient_and_one_for_y(self, moderators, q):
        stack = design_stack(3, 40, 5, moderators)
        assert stack.shape == (3, q + 1, 40) and stack.dtype == np.float64
        assert stack.flags.c_contiguous


class TestInputValues:
    """Treatments other than 0/1 and non-finite covariates are refused
    before the QR, naming the study."""

    @pytest.fixture
    def arrays(self):
        rng = np.random.default_rng(13)
        return (rng.normal(size=(2, 50, 3)), rng.integers(0, 2, (2, 50)),
                rng.normal(size=(2, 50)), np.zeros((1, 3)), ("age", "sex", "dose"), (4, 9))

    def test_treatment_codes_other_than_0_and_1_are_named(self, arrays):
        # A 2 used to fit silently, giving a CATE per 2 units of treatment.
        x, a, *rest = arrays
        a = a.astype(float)
        a[1, 3], a[1, 7], a[1, 8] = 2, -1, np.nan
        with pytest.raises(ValueError, match=re.escape(
                "study 9: treatment must be coded 0/1, found [-1.0, 2.0, nan]")):
            linear_cates_arrays(x, a, *rest)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_covariate_is_named_without_a_warning(self, arrays, value):
        # These used to escape as LinAlgError("SVD did not converge"), an inf
        # with a RuntimeWarning too.
        x, *rest = arrays
        x = x.copy()
        x[1, 3, 2] = x[1, 5, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="study 9: non-finite covariate 'age'"):
                linear_cates_arrays(x, *rest)


# Squared Frobenius condition numbers below this are certified full rank.
CERTIFIED = 0.25 / _RANK_RTOL ** 2
# log10 of a condition number: 1e2 to 1e14, dense about the certificate's
# bound (cond_F = 5e9 lies between cond_2 = 5e9 / sqrt(q) and 5e9) and the
# rank rule's (cond_2 = 1e10).
LOG_CONDS = st.one_of(st.floats(2.0, 14.0), st.floats(9.0, 10.1), st.floats(9.999, 10.001))


def conditioned_r(seed, log_cond, q=12):
    """The R factor of U diag(s) V^T, U and V random orthogonal, with
    singular values s from 1 down to 10**-log_cond."""
    rng = np.random.default_rng(seed)
    u, v = (np.linalg.qr(rng.normal(size=(q, q)))[0] for _ in range(2))
    s = np.concatenate([[0.0], np.sort(rng.uniform(0.0, log_cond, q - 2)), [log_cond]])
    return np.linalg.qr((u * 10.0 ** -s) @ v.T, mode="r")


def svd_rule_fails(r):
    s = np.linalg.svd(r, compute_uv=False)
    return s[-1] <= _RANK_RTOL * s[0]


def svd_rule_column(r_aug, columns):
    """The column the SVD rule names for a stack of R factors: in the first
    study whose design R fails it, the first column whose prefix fails."""
    q = len(columns)
    for r in r_aug:
        if svd_rule_fails(r[:q, :q]):
            return next(columns[j] for j in range(q) if svd_rule_fails(r[:j + 1, :j + 1]))
    return None


class TestRankCertificate:
    """||R||_F ||R^-1||_F certifies full rank; the SVD rule stays the
    definition of singular."""

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), log_cond=LOG_CONDS)
    def test_decides_as_the_svd_rule_and_runs_it_only_uncertified(self, seed, log_cond):
        r = conditioned_r(seed, log_cond)
        s = np.linalg.svd(r, compute_uv=False)
        cond_f2 = (s ** 2).sum() * (s ** -2.0).sum()
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            (full_rank,), (r_inv,) = _rank_and_inverse(r[None])
        assert full_rank == (not svd_rule_fails(r))
        assert np.array_equal(r_inv, np.linalg.inv(r if full_rank else np.eye(12)))
        if abs(cond_f2 / CERTIFIED - 1.0) > 1e-6:  # rounding may decide a tie
            assert svd.called == (cond_f2 >= CERTIFIED)

    def test_a_product_at_the_bound_is_not_certified(self):
        r = np.diag([1.0000000000000007, 2.0000000000000014e-10])
        assert (r ** 2).sum() * (np.linalg.inv(r) ** 2).sum() == CERTIFIED
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            (full_rank,), _ = _rank_and_inverse(r[None])
        assert full_rank and svd.call_count == 1

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), log_conds=st.lists(LOG_CONDS, min_size=2, max_size=4))
    def test_mixed_stacks_raise_what_the_svd_rule_raises(self, seed, log_conds):
        # Study i's dose is a near copy of its sex column, 10**-log_conds[i]
        # away; the kernel must name what the SVD rule names on its own R.
        rng = np.random.default_rng(seed)
        k, names = len(log_conds), ("age", "sex", "dose")
        x, a, y = rng.normal(size=(k, 40, 3)), rng.integers(0, 2, (k, 40)), rng.normal(size=(k, 40))
        x[:, :, 2] = x[:, :, 1] + 10.0 ** -np.array(log_conds)[:, None] * rng.normal(size=(k, 40))
        qr, r_aug = np.linalg.qr, []

        def recording_qr(*args, **kwargs):
            r_aug.append(qr(*args, **kwargs))
            return r_aug[-1]

        with mock.patch.object(np.linalg, "qr", recording_qr):
            try:
                linear_cates_arrays(x, a, y, np.zeros((1, 3)), names, range(1, k + 1))
                raised = None
            except SingularDesignError as err:
                raised = err.column_name
        assert raised == svd_rule_column(r_aug[0], _column_names(names, (0, 1, 2)))


@pytest.mark.parametrize("seed", [3, 7])
def test_a_warm_harness_pass_runs_the_svd_only_where_it_aborts(monkeypatch, seed):
    # Seed 3 aborts none of its 30 replications, seed 7 aborts replication 25.
    cfg = SimConfig(k_studies=10, n_per_study=500, n_replications=30, master_seed=seed)
    run_experiment(cfg, "linear")
    kernel, fits = simulate.linear_cates_arrays, []

    def recording_kernel(*args, **kwargs):
        before, aborted = svd.call_count, True
        try:
            result = kernel(*args, **kwargs)
            aborted = False
        finally:
            fits.append((aborted, svd.call_count - before))
        return result

    monkeypatch.setattr(simulate, "linear_cates_arrays", recording_kernel)
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        table = run_experiment(cfg, "linear")
    assert len(fits) == cfg.n_replications
    assert [i for i, (aborted, _) in enumerate(fits) if aborted] == list(table.aborted_replications)
    assert all((calls > 0) == aborted for aborted, calls in fits)
