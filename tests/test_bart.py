"""BART S-learner: sampler behavior, interval options, determinism."""

import math
import re
from functools import lru_cache

import numpy as np
import pytest
from bart_reference import fit_bart_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from catemeta import (
    BartParams,
    BartPosterior,
    ConfigurationError,
    DimensionMismatchError,
    SimConfig,
    TrialDataset,
    bart_cates,
    fit_bart_slearner,
    run_experiment,
)
from catemeta.bart import _ALPHA, _BETA, _CHI2_Q, _NU, _Chain

FAST = BartParams(n_trees=20, n_burn=100, n_draws=150, seed=7)


def make_dataset(n, outcome_fn, seed, p=3, noise=0.3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    a = rng.integers(0, 2, n)
    y = outcome_fn(x, a) + rng.normal(0.0, noise, n)
    return TrialDataset(1, y, a, x, tuple(f"c{j}" for j in range(p))), rng


def manual_posterior(col0, col1):
    draws = np.column_stack([np.asarray(col0, dtype=float),
                             np.asarray(col1, dtype=float)])
    return BartPosterior(
        study_id=1,
        draws=draws,
        params=BartParams(n_trees=1, n_burn=1, n_draws=draws.shape[0], seed=0),
    )


class TestParams:
    def test_counts_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            BartParams(n_draws=0)
        with pytest.raises(ConfigurationError):  # se2 is a sample variance over draws
            BartParams(n_draws=1)

    # n_trees = 10**400 has no float square root: the chain's sigma_mu
    # ended in OverflowError.
    @pytest.mark.parametrize("n_trees", [10**400], ids=["tree-count-past-floats"])
    def test_leaf_variance_must_be_a_finite_positive_float(self, n_trees):
        with pytest.raises(ConfigurationError, match=re.escape(
                f"leaf prior: n_trees = {n_trees} gives a leaf variance 1 / (16 n_trees)")):
            BartParams(n_trees=n_trees)

    @pytest.mark.filterwarnings("error")
    def test_constant_outcome_at_a_huge_leaf_variance_fits_without_warnings(self):
        # sigma2 starts at its floor, 1e-24, and falls to about 2e-27, against
        # a leaf variance of 1/800: s2 / (s2 + c sigma_mu**2) falls to about
        # 1e-26, and slots with no rows must draw no mean.
        ds, rng = make_dataset(200, lambda x, a: np.zeros(len(a)), seed=14, noise=0.0)
        params = BartParams(n_burn=20, n_draws=20)
        tau, se2, _, _ = bart_cates(fit_bart_slearner(ds, rng.normal(size=(2, 3)), params))
        assert np.all(np.abs(tau) < 1e-9) and np.all((0.0 <= se2) & (se2 < 1e-20))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ConfigurationError, match=r"seed must be in \[0, 2\*\*64\)"):
            BartParams(seed=seed)
        assert BartParams(seed=2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize("field, value", [
        ("seed", 2.5), ("n_trees", 5.0), ("n_burn", 10.0), ("n_draws", 20.0), ("n_trees", True),
    ])
    def test_integer_fields_must_be_integers(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
            BartParams(**{field: value})
        assert BartParams(**{field: np.int64(value)})


class TestSigmaPrior:
    def test_lambda_matches_scipy_stats_chi2_bit_for_bit(self):
        # The prior is fixed at nu = 3, q = 0.90.  The constant must be the
        # quantile at 1.0 - 0.90 = 0.09999999999999998: at 0.1 its last digit
        # moves, and so do the draws, yet no golden comparison notices.
        from scipy.stats import chi2

        quantile = float(chi2.ppf(1.0 - 0.90, 3.0))
        assert _CHI2_Q == quantile
        y = np.random.default_rng(3).uniform(-0.5, 0.5, 40)
        sd = float(np.std(y, ddof=1))
        ranks = np.zeros((1, y.shape[0]), dtype=np.intp)
        chain = _Chain(ranks, [0], y, BartParams(n_trees=1), rng=None)
        assert chain.lam == sd * sd * quantile / 3.0


class TestSampler:
    def test_intercept_only_recovers_constant(self):
        ds, rng = make_dataset(300, lambda x, a: np.full(x.shape[0], 5.0), seed=1,
                               noise=0.1)
        post = fit_bart_slearner(ds, rng.normal(size=(8, 3)), FAST)
        for i in range(8):
            for arm in (0, 1):
                assert post.draws[:, 2 * i + arm].mean() == pytest.approx(5.0, abs=0.1)

    def test_zero_effect_small_cates(self):
        ds, rng = make_dataset(1000, lambda x, a: x[:, 0] + np.sin(x[:, 1]), seed=2)
        post = fit_bart_slearner(
            ds, rng.normal(size=(15, 3)), BartParams(n_trees=50, n_burn=300, n_draws=400, seed=3)
        )
        taus = np.abs(bart_cates(post)[0])
        assert np.mean(taus) <= 0.2

    def test_same_seed_bit_identical(self):
        ds, rng = make_dataset(150, lambda x, a: x[:, 0] + a, seed=4)
        points = rng.normal(size=(4, 3))
        params = BartParams(n_trees=10, n_burn=40, n_draws=50, seed=99)
        p1 = fit_bart_slearner(ds, points, params)
        p2 = fit_bart_slearner(ds, points, params)
        assert np.array_equal(p1.draws, p2.draws)

    def test_outcome_scaling_is_affine(self):
        ds, rng = make_dataset(200, lambda x, a: 1.0 + x[:, 0] + 2.0 * a, seed=5)
        scaled = TrialDataset(1, 10.0 * ds.y, ds.a, ds.x, ds.covariate_names)
        points = rng.normal(size=(5, 3))
        p1 = fit_bart_slearner(ds, points, FAST)
        p10 = fit_bart_slearner(scaled, points, FAST)
        t1, t10 = bart_cates(p1)[0], bart_cates(p10)[0]
        assert t10 == pytest.approx(10.0 * t1, rel=1e-10)

    def test_requires_at_least_one_profile(self):
        ds, _ = make_dataset(50, lambda x, a: a.astype(float), seed=6)
        with pytest.raises(ConfigurationError):
            fit_bart_slearner(ds, np.empty((0, 3)), FAST)

    def test_points_must_match_covariates(self):
        ds, _ = make_dataset(50, lambda x, a: a.astype(float), seed=6)
        for bad in (np.zeros((2, 4)), np.zeros(3)):
            want = f"points have shape {bad.shape}, expected (P, 3)"
            with pytest.raises(DimensionMismatchError, match=re.escape(want)):
                fit_bart_slearner(ds, bad, FAST)
        for value in (np.nan, -np.inf):
            with pytest.raises(ValueError, match="points must be finite"):
                fit_bart_slearner(ds, np.array([[0.0, value, 0.0]]), FAST)

    def test_posterior_draw_count_and_columns(self):
        ds, rng = make_dataset(80, lambda x, a: a.astype(float), seed=7)
        points = rng.normal(size=(3, 3))
        params = BartParams(n_trees=5, n_burn=20, n_draws=30, seed=1)
        post = fit_bart_slearner(ds, points, params)
        assert post.draws.shape == (30, 6)
        # Row i owns columns (2i, 2i + 1), and the chain never reads the
        # points: reversing them reverses the column pairs, bit for bit.
        reversed_post = fit_bart_slearner(ds, points[::-1], params)
        pairs = post.draws.reshape(30, 3, 2)
        assert np.array_equal(reversed_post.draws.reshape(30, 3, 2), pairs[:, ::-1])


class TestDrawAllocation:
    """numpy refuses these shapes without allocating anything, on any host."""

    @pytest.mark.parametrize("n_draws", [2**62, 10**19])
    def test_impossible_draw_count_is_a_configuration_error(self, n_draws):
        ds, rng = make_dataset(30, lambda x, a: a.astype(float), seed=12)
        with pytest.raises(ConfigurationError, match=f"^n_draws = {n_draws}: cannot allocate"):
            fit_bart_slearner(ds, rng.normal(size=(2, 3)), BartParams(n_draws=n_draws))

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_harness_run_ends_with_the_error(self, n_workers):
        # Every replication meets it alike; each used to abort with it as
        # its reason, leaving an all-NaN table.
        with pytest.raises(ConfigurationError, match=f"^n_draws = {2**62}: cannot allocate"):
            run_experiment(SimConfig(k_studies=3, n_per_study=40, n_replications=2),
                           "bart", bart_params=BartParams(n_draws=2**62), n_workers=n_workers)


@st.composite
def sampler_cases(draw):
    """A small study (binary, coarse and continuous columns), points and a
    short chain."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(8, 32))
    kinds = draw(st.lists(st.sampled_from(["binary", "coarse", "continuous"]),
                          min_size=1, max_size=3))
    columns = {"binary": lambda m: (rng.random(m) < 0.4).astype(float),
               "coarse": lambda m: rng.integers(0, 4, m).astype(float),
               "continuous": lambda m: rng.normal(size=m)}
    x = np.column_stack([columns[kind](n) for kind in kinds])
    a = rng.permutation(np.arange(n) % 2)
    noise = draw(st.sampled_from([0.1, 1.0]))
    y = 2.0 * x[:, 0] + a * (1.0 + x[:, -1]) + rng.normal(0.0, noise, n)
    n_points = draw(st.integers(1, 3))
    points = np.column_stack([columns[kind](n_points) for kind in kinds])
    params = BartParams(
        n_trees=draw(st.integers(1, 20)), n_burn=draw(st.integers(1, 12)),
        n_draws=draw(st.integers(2, 12)), seed=draw(st.integers(0, 2**64 - 1)))
    dataset = TrialDataset(1, y, a, x, tuple(f"c{j}" for j in range(len(kinds))))
    return dataset, points, params


def assert_matches_oracle(dataset, points, params):
    """``fit_bart_slearner`` and the per-tree oracle agree bit for bit."""
    post = fit_bart_slearner(dataset, points, params)
    want = fit_bart_reference(dataset, points, params)
    assert post.draws.tobytes() == want.draws.tobytes()
    for key in ("proposed", "accepted"):
        assert post.diagnostics[key] == want.diagnostics[key]
    counts, want_counts = post.diagnostics["leaf_counts"], want.diagnostics["leaf_counts"]
    assert counts.dtype == want_counts.dtype and np.array_equal(counts, want_counts)
    return post


class TestOracle:
    """The one-loop sweep against the per-tree sampler it replaced
    (``tests/bart_reference.py``)."""

    @settings(derandomize=True, max_examples=120, deadline=None, database=None)
    @given(sampler_cases())
    def test_matches_the_per_tree_sampler_bit_for_bit(self, case):
        assert_matches_oracle(*case)

    def test_matches_where_trees_outgrow_four_slots(self):
        # Three leaves take five slots, so these trees reallocate their means.
        ds, rng = make_dataset(80, lambda x, a: 3.0 * np.sign(x[:, 0]) + 3.0 * np.sign(x[:, 1]) + a,
                               seed=13, noise=0.1)
        params = BartParams(n_trees=3, n_burn=40, n_draws=20, seed=4)
        post = assert_matches_oracle(ds, rng.normal(size=(3, 3)), params)
        assert post.diagnostics["leaf_counts"].max() >= 3


def batch_means_z(values, want, n_batches=50):
    """z-score of the mean of ``values`` against ``want``, with the Monte Carlo
    error from the means of ``n_batches`` consecutive batches."""
    batches = values[: len(values) // n_batches * n_batches].reshape(n_batches, -1).mean(axis=1)
    return (values.mean() - want) / (batches.std(ddof=1) / math.sqrt(n_batches))


class TestSemiConjugate:
    """One tree that never splits (its root's split prior set to 0) is the
    normal model y_i ~ N(mu, sigma2), mu ~ N(0, sigma_mu^2), sigma2 ~ nu
    lambda / chi2_nu, whose posterior moments one quadrature over sigma2
    gives."""

    @staticmethod
    def exact_moments(y, sm2, lam):
        from scipy.integrate import quad

        n, s, q = y.shape[0], float(y.sum()), float(y @ y)

        def log_post(s2):  # log p(sigma2 | y), up to a constant
            return (-(_NU / 2.0 + 1.0 + n / 2.0) * math.log(s2) - _NU * lam / (2.0 * s2)
                    - 0.5 * math.log1p(n * sm2 / s2)
                    - (q - s * s * sm2 / (s2 + n * sm2)) / (2.0 * s2))

        center = (q - s * s / n + _NU * lam) / (n + _NU)  # near the posterior mode
        peak = log_post(center)

        def moment(g):  # over t = log sigma2, so that d sigma2 = sigma2 dt
            return quad(lambda t: g(math.exp(t)) * math.exp(log_post(math.exp(t)) - peak + t),
                        math.log(center) - 4.0, math.log(center) + 4.0, epsabs=0.0,
                        epsrel=1e-11)[0]

        z = moment(lambda s2: 1.0)
        mean_mu = moment(lambda s2: s * sm2 / (s2 + n * sm2)) / z
        mu2 = moment(lambda s2: s2 * sm2 / (s2 + n * sm2) + (s * sm2 / (s2 + n * sm2)) ** 2) / z
        mean_s2 = moment(lambda s2: s2) / z
        s2_2 = moment(lambda s2: s2 * s2) / z
        return mean_mu, mu2 - mean_mu**2, mean_s2, s2_2 - mean_s2**2

    def test_chain_matches_quadrature(self):
        rng = np.random.default_rng(20261020)
        n = 40
        y = 0.1 + 0.15 * rng.standard_normal(n)
        ranks = np.argsort(np.argsort(rng.normal(size=n)))[None, :]  # one continuous column
        chain = _Chain(ranks, [n - 1], y, BartParams(n_trees=1), np.random.default_rng(8))
        chain.prior = [-math.inf]  # log prior ratio of a split at depth 0: never grow
        burn, keep = 200, 20000
        mu, sigma2 = np.empty(keep), np.empty(keep)
        for it in range(burn + keep):
            chain.sweep()
            if it >= burn:
                mu[it - burn], sigma2[it - burn] = chain.trees[0].mu[0], chain.sigma2
        assert chain.accepted["grow"] == 0 and chain.proposed["grow"] > 0
        mean_mu, var_mu, mean_s2, var_s2 = self.exact_moments(y, chain.sigma_mu**2, chain.lam)
        z = [batch_means_z(mu, mean_mu), batch_means_z((mu - mean_mu) ** 2, var_mu),
             batch_means_z(sigma2, mean_s2), batch_means_z((sigma2 - mean_s2) ** 2, var_s2)]
        assert np.all(np.abs(z) < 4.0), z


def tree_prior_leaf_shares(alpha, beta, max_leaves):
    """P(a tree has L leaves), L = 1..max_leaves, when a node at depth d splits
    with probability alpha * (1 + d)^-beta into two independent subtrees."""

    @lru_cache(maxsize=None)
    def share(depth, leaves):
        p_split = alpha * (1.0 + depth) ** -beta
        if leaves == 1:
            return 1.0 - p_split
        return p_split * sum(share(depth + 1, left) * share(depth + 1, leaves - left)
                             for left in range(1, leaves))

    return np.array([share(0, leaves) for leaves in range(1, max_leaves + 1)])


class TestTreePrior:
    def test_prior_only_chain_matches_branching_process(self):
        # sigma_mu = 1e-14 makes every marginal-likelihood ratio 1 to within
        # ~1e-24, so the chain samples the tree prior alone.
        ds, _ = make_dataset(500, lambda x, a: np.zeros(x.shape[0]), seed=10)
        z = np.column_stack([ds.x, ds.a])
        ranks = np.array([np.unique(column, return_inverse=True)[1] for column in z.T])
        chain = _Chain(ranks, [int(r.max()) for r in ranks], ds.y, BartParams(n_trees=20),
                       np.random.default_rng(5))
        chain.sigma_mu = 1e-14
        leaf_counts = np.empty((1900, 20), dtype=np.int64)
        for it in range(100 + 1900):
            chain.sweep()
            if it >= 100:  # L leaves use 2L - 1 slots
                leaf_counts[it - 100] = [(len(tree.feature) - len(tree.free) + 1) // 2
                                         for tree in chain.trees]
        shares = np.array([np.mean(leaf_counts == leaves) for leaves in range(1, 5)])
        exact = tree_prior_leaf_shares(_ALPHA, _BETA, 4)
        # 38,000 autocorrelated tree draws: 0.02 is several standard errors.
        np.testing.assert_allclose(shares, exact, atol=0.02)


class TestRecovery:
    @staticmethod
    def covariates(rng, n, spread):
        x = rng.normal(0.0, spread, size=(n, 5))
        x[:, 1] = rng.random(n) < 0.6
        x[:, 2] = rng.random(n) < 0.3
        return x

    @pytest.mark.parametrize("data_seed", [1, 2, 3])
    def test_heterogeneous_effect_recovered(self, data_seed):
        rng = np.random.default_rng(data_seed)
        x = self.covariates(rng, 1000, 1.0)
        a = rng.integers(0, 2, 1000)
        y = -17.4 - 2.0 * x[:, 4] + a * (2.5 + 0.8 * x[:, 0]) + rng.normal(0.0, 0.5, 1000)
        ds = TrialDataset(1, y, a, x, tuple(f"c{j}" for j in range(5)))
        px = self.covariates(rng, 20, 0.5)
        post = fit_bart_slearner(ds, px, BartParams(n_burn=100, n_draws=200))
        tau_hat = bart_cates(post)[0]
        tau = 2.5 + 0.8 * px[:, 0]
        assert np.corrcoef(tau_hat, tau)[0, 1] >= 0.85
        assert np.mean(np.abs(tau_hat - tau)) <= 0.3


class TestNormalOption:
    def test_degenerate_draws(self):
        post = manual_posterior([1.0, 1.0], [3.0, 3.0])
        tau, se2, _, _ = bart_cates(post)
        assert tau[0] == 2.0
        assert se2[0] == 0.0

    def test_hand_arithmetic(self):
        post = manual_posterior([0.0, 2.0], [2.0, 4.0])
        tau, se2, _, _ = bart_cates(post)
        assert tau[0] == 2.0
        assert se2[0] == 4.0  # sample variances 2 + 2, divisor n-1

    def test_se2_equals_sum_of_arm_variances(self):
        rng = np.random.default_rng(8)
        col0, col1 = rng.normal(size=200), rng.normal(2.0, 1.5, size=200)
        post = manual_posterior(col0, col1)
        assert bart_cates(post)[1][0] == float(np.var(col1, ddof=1) + np.var(col0, ddof=1))


class TestQuantileOption:
    def test_constant_differences(self):
        post = manual_posterior([0.0] * 4, [1.0] * 4)
        tau, _, lower, upper = bart_cates(post)
        assert (tau[0], lower[0], upper[0]) == (1.0, 1.0, 1.0)

    def test_linear_interpolation_hand_example(self):
        d = np.arange(101, dtype=float)
        post = manual_posterior(np.zeros(101), d)
        (tau,), _, (lower,), (upper,) = bart_cates(post)
        assert tau == 50.0
        assert lower == pytest.approx(2.5, abs=1e-12)
        assert upper == pytest.approx(97.5, abs=1e-12)

    def test_bounds_within_draw_range(self):
        rng = np.random.default_rng(9)
        d = rng.normal(size=63)
        post = manual_posterior(np.zeros(63), d)
        _, _, (lower,), (upper,) = bart_cates(post)
        assert d.min() <= lower <= upper <= d.max()
