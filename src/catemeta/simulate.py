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
from types import SimpleNamespace

import numpy as np

from .bart import BartParams, bart_cates, fit_bart_slearner
from .errors import CatemetaError, ConfigurationError
from .forest import ForestParams, fit_causal_forest, forest_predict
from .linear import design_stack, linear_cates_arrays
# reml_theta2_batch is bound only for perfbench/tracing.py.
from .meta import interval_t, ndtri, pool_profiles, reml_theta2_batch  # noqa: F401
from .model import TrialDataset, check_integers, check_points, check_seed
from .rng import stream, stream_states, substream

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
# Profiles (rows of K studies) that one Stage-2 call of the harness pools.
_POOL_ROWS = 1024
# The streams of one study of a replication, derived together for a block of
# replications: its draw's four, in the order it draws from them, and the
# seed of a forest or BART fit.
_STUDY_STREAMS = ("effects", "covariates", "treatment", "noise", "stage1")
# Jobs per worker a parallel run cuts its blocks of replications into, so a
# worker that draws slow replications does not hold the others up.
_JOBS_PER_WORKER = 4


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


def _binary_cut(mean: float) -> float:
    """The latent threshold of a binary column with study mean ``mean``.

    The latent value L ~ N(mean, 1) is mapped through its own CDF, so the
    binary column, L <= cut, keeps the latent's rank correlation with the
    other covariates while Pr(1) equals the mean clamped to [0, 1] exactly.
    A mean at or past either end gives an infinite cut: a constant column.
    """
    p = min(max(mean, 0.0), 1.0)
    if p <= 0.0:
        return -np.inf
    if p >= 1.0:
        return np.inf
    return mean + ndtri(p)


def _study_means(config: SimConfig, rng) -> np.ndarray:
    """One study's covariate means (5,).  The "variable" draw is
    ``rng.normal(_MEAN_CENTERS, _MEAN_SDS)`` in one call: numpy forms each
    normal as loc + scale * z from one standard normal, so this is the same
    stream and the same bits (``tests/test_simulate.py`` pins them)."""
    if config.covariate_mode == "variable":
        return _MEAN_CENTERS + _MEAN_SDS * rng.standard_normal(5)
    means = _MEAN_CENTERS.copy()
    if config.covariate_mode == "age_only_variable":
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


def _covariate_stack(means: np.ndarray, z: np.ndarray, out=None) -> np.ndarray:
    """Covariates (K, n, 5) of K studies from their means (K, 5) and standard
    normals ``z`` (K, n, 5), written to ``out`` if given.  ``np.matmul``
    multiplies ``z`` by the factor one (n, 5) slice at a time, so a study gets
    the same bits alone as in a stack."""
    x = np.matmul(z, _factor_t(), out=out)
    x += means[:, None, :]
    for j in _BINARY_COLUMNS:
        cuts = np.array([_binary_cut(m) for m in means[:, j]])
        x[..., j] = x[..., j] <= cuts[:, None]
    return x


def gen_target_profiles(config: SimConfig, rng) -> np.ndarray:
    """The frozen target sample: a read-only (100, 5) array of profiles drawn
    from the shifted distribution."""
    means = _MEAN_CENTERS + _TARGET_SHIFTS
    x = _covariate_stack(means[None], rng.standard_normal((1, _N_TARGET_PROFILES, 5)))[0]
    x.setflags(write=False)
    return x


def true_cate(x: np.ndarray, setting: str, effects) -> np.ndarray:
    """True treatment effects at the rows of ``x`` (..., n, 5), read from its
    age column, for one draw of study shifts (a, b, c); ``a`` does not enter.
    The shifts are floats, or arrays that broadcast against ``x[..., 0]``."""
    _, b, c = effects
    age = x[..., _AGE]
    if setting == "linear":
        return (2.505 + b) + (0.82 + c) * age
    return (2.20 + b) * np.exp((0.35 + c) * age)


def draw_study_effects(level: int, distribution: str, rng) -> tuple[float, float, float]:
    """One study's (a_s, b_s, c_s) heterogeneity draw.  The normal one takes
    three standard normals in one call, times the level's sigmas: the
    stream and bits of three ``rng.normal(0.0, sigma)`` calls."""
    if distribution == "uniform":
        return tuple(rng.uniform(-1.0, 1.0, size=3).tolist())
    za, zb, zc = rng.standard_normal(3).tolist()
    sa, sb, sc = _HETEROGENEITY_SIGMAS[level]
    return sa * za, sb * zb, sc * zc


def _mean_outcomes(x, a, setting: str, effects) -> np.ndarray:
    """m(X) + A * tau(X) at the rows of ``x`` (..., n, 5), as in :func:`true_cate`."""
    a_eff = effects[0]
    age = x[..., _AGE]
    if setting == "linear":
        main = (-17.40 + a_eff) - 0.13 * age - 2.05 * x[..., _MADRS] - 0.11 * x[..., _SEX]
    else:
        main = (-17.52 + a_eff) - 0.08 * age
    return main + a * true_cate(x, setting, effects)


def _study_states(config: SimConfig, replications, studies) -> np.ndarray:
    """The stream seeds (B, K, 5, 4) of the given studies of B replications:
    study ``s`` of replication ``r`` has the :data:`_STUDY_STREAMS` of
    ``substream(master_seed, "rep", r, "study", s, label)``, all derived in
    one :func:`rng.stream_states` call."""
    states = stream_states(config.master_seed, ("rep",), replications, ("study",), studies,
                           _STUDY_STREAMS)
    return states[0, :, 0]


def _study_effects(config: SimConfig, state) -> tuple[float, float, float]:
    """One study's (a, b, c) draw from its effects stream, shared by the study
    draw and the oracle."""
    return draw_study_effects(config.heterogeneity_level, config.effect_distribution,
                              stream(state))


def _draw_arrays(k: int, n: int):
    """Uninitialized ``z`` (K, n, 5), ``x`` (K, n, 5), ``a`` (K, n) and
    ``noise`` (K, n) for :func:`_draw_studies` to fill."""
    return np.empty((k, n, 5)), np.empty((k, n, 5)), np.empty((k, n), np.int64), np.empty((k, n))


def _draw_studies(config: SimConfig, states, arrays=None):
    """``x`` (K, n, 5), ``a`` (K, n) and ``y`` (K, n) of K studies of one
    replication, given their stream seeds ``states`` (K, 5, 4) from
    :func:`_study_states`.  The draw fills the :func:`_draw_arrays`
    ``arrays`` if given, so ``x`` and ``a`` are two of them, and new ones
    otherwise.

    Each study draws from its own four streams, in this order: its effects;
    its covariates (the means, then the rows' standard normals); its
    treatment; its noise.  Each ``Generator`` is built when its study is
    drawn.  The arithmetic then runs once on the stack, each step element
    by element or slice by slice, so that a study gets the same bits alone
    as in a stack.
    """
    k, n = len(states), config.n_per_study
    effects, means = np.empty((k, 3)), np.empty((k, 5))
    z, x, a, noise = _draw_arrays(k, n) if arrays is None else arrays
    for i, (effects_state, covariates_state, treatment_state, noise_state, _) in enumerate(states):
        effects[i] = _study_effects(config, effects_state)
        rng = stream(covariates_state)
        means[i] = _study_means(config, rng)
        rng.standard_normal(out=z[i])
        a[i] = stream(treatment_state).integers(0, 2, size=n)
        noise[i] = stream(noise_state).normal(0.0, _NOISE_SD, size=n)
    _covariate_stack(means, z, x)
    y = _mean_outcomes(x, a, config.cate_setting, effects.T[:, :, None])
    y += noise
    return x, a, y


def gen_study(config: SimConfig, replication: int, study: int) -> TrialDataset:
    """One simulated trial: the stacked draw with K = 1."""
    (x,), (a,), (y,) = _draw_studies(config, _study_states(config, (replication,), (study,))[0])
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
        (tau,), (se2,) = linear_cates_arrays(dataset.x[None], dataset.a[None], dataset.y[None],
                                             points, dataset.covariate_names,
                                             (dataset.study_id,), params)
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


# perfbench/tracing.py wraps these retired one-study and one-profile names;
# each is bound to the entry that replaced it, which no code reaches by this
# name, so their spans read 0 calls.  ROADMAP item 1 deletes this block.
fit_interaction_ols = linear_cate = forest_cates = bart_cate_normal = estimate_study
pool_cate = prediction_interval = pool_profiles


def _stage1(config: SimConfig, params, oracle: bool, states, points, work=None):
    """``(tau, v)``, each (K, P): one replication's Stage 1 at ``points``,
    given its studies' stream seeds ``states`` (K, 5, 4).

    The K studies are drawn in one :func:`_draw_studies` call.  The linear
    learner fits them as one stack (:func:`linear_cates_arrays`); ``work``,
    the job's ``(draw arrays, design stack)`` workspace or None, holds the
    arrays the draw and the fit fill.  The forest
    and BART fit them one by one, each seeded from its study's ``stage1``
    stream as ``rng.spawn_seed`` derives a seed.  With ``oracle`` set, each
    study's true effects, drawn from the same effect stream as the study
    draw, are injected with negligible variance and no data is drawn.
    """
    studies = range(1, config.k_studies + 1)
    if oracle:
        tau = np.array([true_cate(points, config.cate_setting, _study_effects(config, state))
                        for state in states[:, 0]])
        return tau, np.full(tau.shape, _ORACLE_SE2)
    arrays, stack = (None, None) if work is None else work
    x, a, y = _draw_studies(config, states, arrays)
    if params is None:
        return linear_cates_arrays(x, a, y, points, COVARIATE_NAMES, studies, stack=stack)
    shape = (config.k_studies, points.shape[0])
    tau, v = np.empty(shape), np.empty(shape)
    for i, s in enumerate(studies):  # forest and BART params carry a seed
        seed = int(stream(states[i, 4]).integers(1 << 63))
        dataset = TrialDataset(study_id=s, y=y[i], a=a[i], x=x[i],
                               covariate_names=COVARIATE_NAMES)
        tau[i], v[i], _ = estimate_study(dataset, points, replace(params, seed=seed))
    return tau, v


def _pool_block(fitted, alpha: float):
    """Stage 2 of the ``(replication, tau, v)`` entries of ``fitted`` in one
    :func:`pool_profiles` call over their side-by-side (K, P) columns, which
    it reads chunk by chunk from that array as it stands.

    A profile pools to the same bits alone as in a batch, so the call gives
    each replication what its own call gives.  If the call raises, each
    replication is pooled alone and aborts with its own reason.
    """
    try:
        pooled = pool_profiles(np.hstack([tau for _, tau, _ in fitted]),
                               np.hstack([v for _, _, v in fitted]), alpha)
    except CatemetaError as err:
        if len(fitted) == 1:
            return [(fitted[0][0], None, str(err))]
        return [result for one in fitted for result in _pool_block([one], alpha)]
    center, half = (arr.reshape(len(fitted), -1) for arr in (pooled.tau_pooled, pooled.half_width))
    return [(r, (c - h, c, c + h), None) for (r, _, _), c, h in zip(fitted, center, half)]


def _block_size(blocked: bool, n_reps: int, n_prof: int, n_workers: int) -> int:
    """Replications per job of :func:`run_experiment`.

    A linear or oracle replication (``blocked``) costs about as much in
    Stage 2 as in Stage 1, so a job pools a block of them in one call over
    at most :data:`_POOL_ROWS` profiles; a parallel run cuts the blocks so
    each worker gets at least :data:`_JOBS_PER_WORKER` of them.  A forest
    or BART replication is nearly all Stage 1, so it is a job of its own,
    the finest balance across workers.
    """
    if not blocked:
        return 1
    per_job = n_reps if n_workers <= 1 else -(-n_reps // (_JOBS_PER_WORKER * n_workers))
    return max(1, min(_POOL_ROWS // n_prof, per_job))


def _replication_worker(job):
    """One job: a block of consecutive replications, each with K fresh studies
    (:func:`_block_size` says how many).

    The streams of every study of the block are derived in one
    :func:`_study_states` call.  Stage 1 then runs replication by
    replication (:func:`_stage1`); a replication whose Stage 1 raises
    aborts with its reason, unless the error is a ``ConfigurationError``,
    which propagates.  A linear job allocates once, as its workspace, the
    arrays its draws and fits fill (:func:`_draw_arrays` and
    ``linear.design_stack``), and each replication refills them: allocated
    anew each replication, arrays this large were handed back to the system
    and faulted in again page by page.  No result depends on what they
    held.  Oracle, forest and BART jobs get no workspace.  The block's
    other replications then share one
    Stage-2 call (:func:`_pool_block`).  Returns, in replication order,
    (replication, (lower, center, upper) arrays over points, None), or
    (replication, None, reason) if it aborted.
    """
    config, params, oracle, replications, points, alpha = job
    k, n = config.k_studies, config.n_per_study
    states = _study_states(config, replications, range(1, k + 1))
    work = None
    if params is None and not oracle:
        work = _draw_arrays(k, n), design_stack(k, n, len(COVARIATE_NAMES))
    aborted, fitted = [], []
    for replication, replication_states in zip(replications, states):
        try:
            fitted.append((replication,
                           *_stage1(config, params, oracle, replication_states, points, work)))
        except ConfigurationError:
            raise  # every replication meets it alike: it ends the run
        except CatemetaError as err:
            aborted.append((replication, None, str(err)))
    pooled = _pool_block(fitted, alpha) if fitted else []
    return sorted(aborted + pooled, key=lambda result: result[0])


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
    never silently dropped.  A ``ConfigurationError`` in any replication,
    such as BART kept draws that numpy cannot allocate, ends the run.
    Deterministic given ``config.master_seed``, regardless of ``n_workers``.
    """
    if method not in STAGE1_METHODS:
        raise ConfigurationError(f"method must be one of {STAGE1_METHODS}")
    if config.k_studies < 3:
        raise ConfigurationError("prediction intervals need k_studies >= 3")
    if not (0.0 < alpha < 1.0):
        raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
    try:
        interval_t(alpha, config.k_studies - 2)
    except ValueError as err:
        raise ConfigurationError(str(err)) from None
    check_integers(SimpleNamespace(n_workers=n_workers), "n_workers")
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
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

    # A job is a block of consecutive replications with one Stage-2 call.
    n_reps = config.n_replications
    size = _block_size(params is None, n_reps, n_prof, n_workers)
    jobs = [
        (config, params, method == "oracle", range(start, min(start + size, n_reps)),
         points, alpha)
        for start in range(0, n_reps, size)
    ]
    if n_workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=n_workers) as pool:
            blocks = list(pool.map(_replication_worker, jobs, chunksize=1))
    else:
        blocks = map(_replication_worker, jobs)  # one block in memory at a time

    # Deterministic reduction in replication order, block by block.
    for block in blocks:
        for replication, payload, reason in block:
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
