"""Synthetic multi-study generator and replication harness.

Generates K trials plus a frozen target sample from a shared covariate
model, with study-level random shifts (a_s, b_s, c_s) producing
heterogeneity in the outcome intercept, the main treatment effect and the
treatment-age interaction.  Each replication redraws the trials; the target
profiles and the target-setting effect draw are frozen for the whole
experiment.  Per-profile coverage, interval length and bias are accumulated
across replications.

Covariates (standardized units): age, sex (binary), smoking (binary),
weight, baseline severity score.  The covariate covariance matrix and the
target-population shifts are shipped constants, documented below.
"""

from __future__ import annotations

import concurrent.futures
import functools
import time
from dataclasses import dataclass, replace

import numpy as np

# bart_cate_normal, fit_interaction_ols, forest_cates, linear_cate, pool_cate,
# prediction_interval and reml_theta2_batch are bound only for perfbench/tracing.py.
from .bart import BartParams, bart_cate_normal, bart_cates, fit_bart_slearner  # noqa: F401
from .errors import CatemetaError, ConfigurationError
from .forest import ForestParams, fit_causal_forest, forest_cates, forest_predict  # noqa: F401
from .linear import fit_interaction_ols, linear_cate, linear_cates_stack  # noqa: F401
from .meta import (  # noqa: F401
    ndtri, pool_cate, pool_profiles, prediction_interval, reml_theta2_batch,
)
from .model import TrialDataset, check_integers, check_points, check_seed
from .rng import spawn_seed, substream

COVARIATE_NAMES = ("age", "sex", "smoking", "weight", "madrs")
_AGE, _SEX, _SMOKING, _WEIGHT, _MADRS = range(5)
_BINARY_COLUMNS = (_SEX, _SMOKING)

# Across-study distribution of covariate means (center, sd).
_MEAN_CENTERS = np.array([0.0, 0.6784, 0.3043, 0.0, 0.0])
_MEAN_SDS = np.array([0.2, 0.1, 0.1, 0.5, 0.3])

# Within-study covariance of the latent covariates: unit variances, mild
# positive dependence, slightly stronger between weight and the sex latent.
_COVARIANCE = np.full((5, 5), 0.1)
np.fill_diagonal(_COVARIANCE, 1.0)
_COVARIANCE[_SEX, _WEIGHT] = _COVARIANCE[_WEIGHT, _SEX] = 0.2
_COVARIANCE.setflags(write=False)

# Target population: older, more female, more smokers, heavier, lower
# baseline severity (standardized shifts; binary shifts are probabilities).
_TARGET_SHIFTS = np.array([0.5, 0.1, 0.1, 0.5, -0.3])

_NOISE_SD = 0.05
_N_TARGET_PROFILES = 100

# Study-effect standard deviations (sigma_a, sigma_b, sigma_c) per level.
_HETEROGENEITY_SIGMAS = {
    1: (1.0, 0.25, 0.25),
    2: (1.0, 0.5, 0.25),
    3: (1.0, 1.0, 0.5),
}

CATE_SETTINGS = ("linear", "nonlinear")
COVARIATE_MODES = ("variable", "same", "age_only_variable")
EFFECT_DISTRIBUTIONS = ("normal", "uniform")
# "oracle" injects each study's true effect with negligible variance; it
# exercises the pooling stage alone and is meant for calibration checks.
STAGE1_METHODS = ("linear", "forest_honest", "forest_adaptive", "bart", "oracle")
_ORACLE_SE2 = 1e-6


@dataclass(frozen=True)
class SimConfig:
    k_studies: int = 10
    n_per_study: int = 500
    cate_setting: str = "linear"
    heterogeneity_level: int = 1
    covariate_mode: str = "variable"
    effect_distribution: str = "normal"
    n_replications: int = 500
    master_seed: int = 0

    def __post_init__(self):
        check_integers(self, "k_studies", "n_per_study", "heterogeneity_level",
                       "n_replications", "master_seed")
        if self.k_studies < 2:
            raise ConfigurationError("k_studies must be >= 2")
        if self.n_per_study < 1 or self.n_replications < 1:
            raise ConfigurationError("sample and replication counts must be positive")
        check_seed(self, "master_seed")
        if self.cate_setting not in CATE_SETTINGS:
            raise ConfigurationError(f"cate_setting must be one of {CATE_SETTINGS}")
        if self.heterogeneity_level not in _HETEROGENEITY_SIGMAS:
            raise ConfigurationError("heterogeneity_level must be 1, 2 or 3")
        if self.covariate_mode not in COVARIATE_MODES:
            raise ConfigurationError(f"covariate_mode must be one of {COVARIATE_MODES}")
        if self.effect_distribution not in EFFECT_DISTRIBUTIONS:
            raise ConfigurationError(
                f"effect_distribution must be one of {EFFECT_DISTRIBUTIONS}"
            )


@dataclass(frozen=True)
class MetricsTable:
    """Per-profile coverage, mean interval length and bias for one method."""

    method: str
    profile_ids: tuple[int, ...]
    coverage: np.ndarray
    mean_length: np.ndarray
    bias: np.ndarray
    n_effective_replications: int
    aborted_replications: tuple[int, ...] = ()
    abort_reasons: tuple[str, ...] = ()  # error message of each aborted replication

    def __post_init__(self):
        for name in ("coverage", "mean_length", "bias"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _draw_binary(latent_col, mean, n):
    """Dichotomize a latent normal column at probability = clamped mean.

    The latent value L ~ N(mean, 1) is mapped through its own CDF, so the
    binary column keeps the latent's rank correlation with the other
    covariates while Pr(1) equals the clamped study mean exactly.
    """
    p = min(max(mean, 0.0), 1.0)
    if p <= 0.0:
        return np.zeros(n)
    if p >= 1.0:
        return np.ones(n)
    return (latent_col <= mean + ndtri(p)).astype(np.float64)


def _study_means(config: SimConfig, rng) -> np.ndarray:
    means = _MEAN_CENTERS.copy()
    if config.covariate_mode == "variable":
        means = rng.normal(_MEAN_CENTERS, _MEAN_SDS)
    elif config.covariate_mode == "age_only_variable":
        means[_AGE] = rng.normal(_MEAN_CENTERS[_AGE], _MEAN_SDS[_AGE])
    return means


@functools.cache
def _factor_t() -> np.ndarray:
    """The transposed Cholesky factor of the covariance: a row of standard
    normals times it is one latent draw, bit for bit what
    ``Generator.multivariate_normal(method="cholesky")`` draws.  Computed once,
    on first use, so that importing the module runs no LAPACK routine (the
    first call pages in about 0.25 MB of library code)."""
    factor = np.linalg.cholesky(_COVARIANCE).T
    factor.setflags(write=False)
    return factor


def _sample_covariates(means, n, rng) -> np.ndarray:
    x = np.dot(rng.standard_normal((n, 5)), _factor_t())
    x += means
    for j in _BINARY_COLUMNS:
        x[:, j] = _draw_binary(x[:, j], means[j], n)
    return x


def gen_trial_covariates(config: SimConfig, rng) -> np.ndarray:
    """Covariate matrix (n, 5) for one study: draw means, then rows."""
    means = _study_means(config, rng)
    return _sample_covariates(means, config.n_per_study, rng)


def gen_target_profiles(config: SimConfig, rng) -> np.ndarray:
    """The frozen target sample: a read-only (100, 5) array of profiles drawn
    from the shifted distribution."""
    means = _MEAN_CENTERS + _TARGET_SHIFTS
    x = _sample_covariates(means, _N_TARGET_PROFILES, rng)
    x.setflags(write=False)
    return x


def true_cate(x: np.ndarray, setting: str, effects: tuple[float, float, float]) -> np.ndarray:
    """True treatment effects at the rows of ``x`` (n, 5), read from its age
    column, for one draw of study shifts (a, b, c); ``a`` does not enter."""
    _, b, c = effects
    age = x[:, _AGE]
    if setting == "linear":
        return (2.505 + b) + (0.82 + c) * age
    return (2.20 + b) * np.exp((0.35 + c) * age)


def draw_study_effects(level: int, distribution: str, rng) -> tuple[float, float, float]:
    """One study's (a_s, b_s, c_s) heterogeneity draw."""
    if distribution == "uniform":
        a, b, c = rng.uniform(-1.0, 1.0, size=3)
    else:
        sa, sb, sc = _HETEROGENEITY_SIGMAS[level]
        a = rng.normal(0.0, sa)
        b = rng.normal(0.0, sb)
        c = rng.normal(0.0, sc)
    return float(a), float(b), float(c)


def gen_outcomes(covariates, treatments, setting: str, effects, rng) -> np.ndarray:
    """Outcomes Y = m(X) + A * tau(X) + noise for one study."""
    a_eff, _, _ = effects
    age = covariates[:, _AGE]
    if setting == "linear":
        main = (
            (-17.40 + a_eff)
            - 0.13 * age
            - 2.05 * covariates[:, _MADRS]
            - 0.11 * covariates[:, _SEX]
        )
    else:
        main = (-17.52 + a_eff) - 0.08 * age
    tau = true_cate(covariates, setting, effects)
    noise = rng.normal(0.0, _NOISE_SD, size=covariates.shape[0])
    return main + treatments * tau + noise


def _study_effects(config: SimConfig, replication: int, study: int):
    """One study's (a, b, c) draw, shared by gen_study and the oracle."""
    rng = substream(config.master_seed, "rep", replication, "study", study, "effects")
    return draw_study_effects(config.heterogeneity_level, config.effect_distribution, rng)


def gen_study(config: SimConfig, replication: int, study: int) -> TrialDataset:
    """Assemble one simulated trial from its derived random streams."""
    base = (config.master_seed, "rep", replication, "study", study)
    effects = _study_effects(config, replication, study)
    x = gen_trial_covariates(config, substream(*base, "covariates"))
    a = substream(*base, "treatment").integers(0, 2, size=config.n_per_study)
    y = gen_outcomes(x, a, config.cate_setting, effects, substream(*base, "noise"))
    return TrialDataset(
        study_id=study, y=y, a=a, x=x, covariate_names=COVARIATE_NAMES
    )


def estimate_study(dataset: TrialDataset, points: np.ndarray, params=None):
    """Stage 1 for one study: ``(tau, se2, diagnostics)`` at the rows of ``points``.

    ``params`` picks the learner: a seeded ForestParams or BartParams, or the
    moderator index tuple of the interaction regression (None for all).  Any
    other value raises ``ConfigurationError``.  Before any fit, ``points``
    that are not (P, p) raise ``DimensionMismatchError`` and a non-finite
    point ``ValueError`` (``model.check_points``).  ``diagnostics`` holds
    ``fit_seconds``, the forest's ``se2_floor_hits``, ``skipped_tree_frac``,
    ``nodes_per_tree`` and ``usable_leaf_frac``, and BART's 95% per-draw
    quantile bounds ``quantile_lower`` and ``quantile_upper``, its
    ``grow_accept_rate``, ``prune_accept_rate`` and ``change_accept_rate``
    (accepted over proposed moves, 0 if none) and the
    ``mean_leaves_per_tree`` of the kept draws.
    """
    start = time.perf_counter()
    points = check_points(points, dataset.n_covariates)
    diagnostics = {}
    if params is None or isinstance(params, tuple):
        (tau,), (se2,) = linear_cates_stack([dataset], points, params)
    elif isinstance(params, ForestParams):
        tau, se2, diagnostics = forest_predict(fit_causal_forest(dataset, params), points)
    elif isinstance(params, BartParams):
        posterior = fit_bart_slearner(dataset, points, params)
        tau, se2, lower, upper = bart_cates(posterior)
        moves = posterior.diagnostics
        diagnostics = {"quantile_lower": lower, "quantile_upper": upper}
        for move, proposed in moves["proposed"].items():
            diagnostics[f"{move}_accept_rate"] = moves["accepted"][move] / max(proposed, 1)
        diagnostics["mean_leaves_per_tree"] = float(moves["leaf_counts"].mean())
    else:
        raise ConfigurationError(f"no stage1 learner takes params of type {type(params).__name__}")
    diagnostics["fit_seconds"] = time.perf_counter() - start
    return tau, se2, diagnostics


def _replication_worker(job):
    """One replication: K fresh studies, Stage 1 fits, pooling, intervals.

    The linear learner fits the K studies as one stack
    (:func:`linear_cates_stack`); the forest and BART fit them one by one.

    With ``oracle`` set, each study's true effects, drawn from the same
    effect stream as gen_study, are injected with negligible variance and no
    data is drawn.  Returns (replication, (lower, center, upper) arrays over
    points, None), or (replication, None, reason) if it aborted.
    """
    config, params, oracle, replication, points, alpha = job
    studies = range(1, config.k_studies + 1)
    shape = (config.k_studies, points.shape[0])
    tau, v = np.empty(shape), np.empty(shape)
    try:
        if oracle:
            for s in studies:
                effects = _study_effects(config, replication, s)
                tau[s - 1] = true_cate(points, config.cate_setting, effects)
            v[:] = _ORACLE_SE2
        elif params is None:  # linear: the K studies fitted as one stack
            tau, v = linear_cates_stack(
                [gen_study(config, replication, s) for s in studies], points)
        else:  # forest and BART params carry a seed
            for s in studies:
                seed = spawn_seed(config.master_seed, "rep", replication, "study", s, "stage1")
                tau[s - 1], v[s - 1], _ = estimate_study(
                    gen_study(config, replication, s), points, replace(params, seed=seed))
        pooled = pool_profiles(tau, v, alpha)
    except CatemetaError as err:
        return replication, None, str(err)
    center, half = pooled.tau_pooled, pooled.half_width
    return replication, (center - half, center, center + half), None


def run_experiment(
    config: SimConfig,
    method: str = "linear",
    forest_params: ForestParams | None = None,
    bart_params: BartParams | None = None,
    alpha: float = 0.05,
    n_workers: int = 1,
) -> MetricsTable:
    """Run all replications for one Stage-1 method and aggregate metrics.

    Coverage is the fraction of effective replications whose interval
    contains the frozen true target CATE; length is the mean interval width;
    bias is the mean of (interval center - true CATE).  A replication whose
    estimation fails is counted as aborted and excluded from all three,
    never silently dropped.  Deterministic given ``config.master_seed``,
    regardless of ``n_workers``.
    """
    if method not in STAGE1_METHODS:
        raise ConfigurationError(f"method must be one of {STAGE1_METHODS}")
    if config.k_studies < 3:
        raise ConfigurationError("prediction intervals need k_studies >= 3")
    if not (0.0 < alpha < 1.0):
        raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
    forest_params = forest_params if forest_params is not None else ForestParams()
    bart_params = bart_params if bart_params is not None else BartParams()
    params = {
        "linear": None,
        "forest_honest": replace(forest_params, honest=True),
        "forest_adaptive": replace(forest_params, honest=False),
        "bart": bart_params,
        "oracle": None,
    }[method]

    points = gen_target_profiles(config, substream(config.master_seed, "target-profiles"))
    # The target setting's own effect draw, frozen for the whole experiment.
    target_effects = draw_study_effects(
        config.heterogeneity_level, config.effect_distribution,
        substream(config.master_seed, "target-effects"),
    )
    true_tau = true_cate(points, config.cate_setting, target_effects)

    n_prof = points.shape[0]
    covered = np.zeros(n_prof)
    width_sum = np.zeros(n_prof)
    bias_sum = np.zeros(n_prof)
    aborted, reasons = [], []

    jobs = [
        (config, params, method == "oracle", r, points, alpha)
        for r in range(config.n_replications)
    ]
    if n_workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(_replication_worker, jobs, chunksize=1))
    else:
        results = [_replication_worker(job) for job in jobs]

    # Deterministic reduction in replication order.
    for replication, payload, reason in sorted(results, key=lambda item: item[0]):
        if payload is None:
            aborted.append(replication)
            reasons.append(reason)
            continue
        lower, center, upper = payload
        covered += (lower <= true_tau) & (true_tau <= upper)
        width_sum += upper - lower
        bias_sum += center - true_tau
    n_eff = config.n_replications - len(aborted)
    divisor = n_eff if n_eff else np.nan  # all NaN when every replication aborted
    return MetricsTable(
        method=method,
        profile_ids=tuple(range(n_prof)),
        coverage=covered / divisor,
        mean_length=width_sum / divisor,
        bias=bias_sum / divisor,
        n_effective_replications=n_eff,
        aborted_replications=tuple(aborted),
        abort_reasons=tuple(reasons),
    )
