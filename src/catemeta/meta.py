"""Random-effects pooling of per-study CATE estimates and prediction intervals.

Stage 2 of the two-stage pipeline.  For each covariate profile, the K
per-study estimates (tau_hat_s, se2_s) are combined under the random-effects
model

    tau_s ~ N(tau, theta2),    tau_hat_s ~ N(tau_s, se2_s),

with the between-study variance theta2 estimated by restricted maximum
likelihood (REML).  The DerSimonian-Laird moment estimator is provided as a
cross-check.  Prediction intervals for the effect in a new setting use a
t critical value with K-2 degrees of freedom, reflecting that both the
pooled mean and theta2 are estimated from the data.

All of Stage 2 is one array kernel over P profiles that share K studies
(:func:`pool_profiles`).  Inside it a profile is a row of K values, so each
sum runs over a contiguous last axis, in the same order whatever P is: the
one-profile views (:func:`reml_theta2`, :func:`pool_cate`,
:func:`prediction_interval`) are bit-identical to the batch.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv

from .errors import EstimationError, InsufficientStudiesError
from .model import PooledCate, PredictionInterval, StudyCateEstimate

_GRID_FRAC = np.linspace(0.0, 1.0, 65)
# Elements of one (profiles, grid, K) likelihood temporary (64 kB); larger
# temporaries raise a run's peak resident memory.
_GRID_CHUNK = 1 << 13
_NEWTON_RTOL = 1e-12
_MAX_STEPS = 200
_BOUND_RTOL = 1e-6


@dataclass(frozen=True)
class MetaInput:
    """Per-study estimates for one covariate profile, ready for pooling."""

    profile_id: int
    estimates: tuple[StudyCateEstimate, ...]

    def __post_init__(self):
        if len(self.estimates) < 2:
            raise InsufficientStudiesError("pooling requires at least 2 studies")
        for est in self.estimates:
            if est.profile_id != self.profile_id:
                raise ValueError(
                    f"estimate for profile {est.profile_id} mixed into "
                    f"input for profile {self.profile_id}"
                )
        object.__setattr__(self, "estimates", tuple(self.estimates))

    @property
    def k_studies(self) -> int:
        return len(self.estimates)

    @property
    def tau(self) -> np.ndarray:
        return np.array([e.tau_hat for e in self.estimates])

    @property
    def v(self) -> np.ndarray:
        return np.array([e.se2 for e in self.estimates])


@dataclass(frozen=True)
class PooledProfiles:
    """Stage 2 for P profiles that share K studies, as (P,) arrays.

    ``half_width`` is None when no interval was asked for.  ``diagnostics``
    counts theta2 = 0 estimates, bound-doubling retries and Newton steps
    replaced by bisection.
    """

    theta2: np.ndarray
    tau_pooled: np.ndarray
    var_pooled: np.ndarray
    half_width: np.ndarray | None
    diagnostics: Counter


def _profile_log_likelihood(theta2, tau, v):
    """Vectorized restricted log likelihood over an array of theta2 values.

    ``tau`` and ``v`` hold the K estimates on their last axis, shape (K,) or
    (P, K); ``theta2`` has shape (T,) or (P, T).  Returns shape (T,) or
    (P, T).  Constant terms that do not involve theta2 are dropped.
    """
    t2 = np.atleast_1d(np.asarray(theta2, dtype=np.float64))
    tau = np.asarray(tau)[..., None, :]
    total = np.asarray(v)[..., None, :] + t2[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        w = 1.0 / total
        sw = w.sum(axis=-1)
        mu = (w * tau).sum(axis=-1) / sw
        out = -0.5 * (
            np.log(total).sum(axis=-1)
            + np.log(sw)
            + (((tau - mu[..., None]) ** 2) * w).sum(axis=-1)
        )
    return np.where(np.isfinite(out), out, -np.inf)


def _score(theta2, tau, v):
    """REML score and its derivative at one theta2 per row.

    With w = 1/(v + theta2) and r = tau - mu(theta2) (Viechtbauer 2005):
        score = (S(w^2 r^2) - S(w) + S(w^2)/S(w)) / 2
        slope = (-2 S(w^3 r^2) + 2 S(w^2 r)^2/S(w) + S(w^2) - 2 S(w^3)/S(w)
                 + (S(w^2)/S(w))^2) / 2,  S summing over studies.
    """
    w = 1.0 / (v + theta2[:, None])
    sw = w.sum(axis=1)
    r = tau - ((w * tau).sum(axis=1) / sw)[:, None]
    w2, w3 = w * w, w * w * w
    ratio = w2.sum(axis=1) / sw
    score = 0.5 * ((w2 * r * r).sum(axis=1) - sw + ratio)
    slope = 0.5 * (-2.0 * (w3 * r * r).sum(axis=1) + 2.0 * (w2 * r).sum(axis=1) ** 2 / sw
                   + w2.sum(axis=1) - 2.0 * w3.sum(axis=1) / sw + ratio * ratio)
    return score, slope


def _solve(tau, v, bound, counts):
    """REML theta2 per row over [0, bound]: grid scan, then safeguarded Newton.

    The likelihood is scanned on 65 equally spaced points, in chunks of rows.
    Newton on the score then runs between the best point's neighbours; each
    step narrows the bracket by the sign of the score, and a step that would
    leave it, or is taken where the likelihood is not concave, is replaced
    by bisection.  A row stops once its step is at most 1e-12 * (1 + theta2).
    theta2 = 0 wins whenever its likelihood is at least the refined point's.
    """
    n_rows, last = len(bound), _GRID_FRAC.size - 1
    grid = bound[:, None] * _GRID_FRAC
    best, f0 = np.empty(n_rows, dtype=np.intp), np.empty(n_rows)
    chunk = max(1, _GRID_CHUNK // (_GRID_FRAC.size * tau.shape[1]))
    for start in range(0, n_rows, chunk):
        part = slice(start, start + chunk)
        vals = _profile_log_likelihood(grid[part], tau[part], v[part])
        best[part], f0[part] = vals.argmax(axis=1), vals[:, 0]
    rows = np.arange(n_rows)
    x = grid[rows, best]
    lo = grid[rows, np.maximum(best - 1, 0)]
    hi = grid[rows, np.minimum(best + 1, last)]
    for _ in range(_MAX_STEPS):
        if rows.size == 0:
            break
        xr = x[rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            score, slope = _score(xr, tau[rows], v[rows])
            step = xr - score / slope
        lor = np.where(score > 0.0, xr, lo[rows])
        hir = np.where(score > 0.0, hi[rows], xr)
        ok = (slope < 0.0) & (lor <= step) & (step <= hir)
        # A bracket collapsed onto the grid's first or last point is not a fallback.
        counts["reml_bisection_fallbacks"] += int(np.count_nonzero(~ok & (lor < hir)))
        new = np.where(ok, step, 0.5 * (lor + hir))
        x[rows], lo[rows], hi[rows] = new, lor, hir
        rows = rows[np.abs(new - xr) > _NEWTON_RTOL * (1.0 + xr)]
    fx = _profile_log_likelihood(x[:, None], tau, v)[:, 0]
    return np.where(f0 >= fx, 0.0, x)


def _reml_rows(tau, v, counts):
    """REML theta2 for each row of (P, K) arrays.

    theta2_max = 10 * var(tau_hat) + max(se2) bounds the search.  A row whose
    maximizer lands on that bound is solved again, once, with the bound
    doubled.  Equal estimates give theta2 = 0 without a search.
    """
    theta2 = np.zeros(len(tau))
    active = np.ptp(tau, axis=1) > 0.0
    if active.any():
        t, s = tau[active], v[active]
        bound = 10.0 * np.var(t, axis=1, ddof=1) + s.max(axis=1)
        x = _solve(t, s, bound, counts)
        hit = bound - x <= _BOUND_RTOL * bound
        if hit.any():
            bound2 = 2.0 * bound[hit]
            x[hit] = _solve(t[hit], s[hit], bound2, counts)
            if np.any(bound2 - x[hit] <= _BOUND_RTOL * bound2):
                raise EstimationError(
                    "REML maximizer exceeded its search bound after one retry"
                )
            counts["reml_bound_retries"] += int(np.count_nonzero(hit))
        theta2[active] = x
    counts["reml_boundary_hits"] += int(np.count_nonzero(theta2 == 0.0))
    return theta2


def _pool_rows(tau, v, theta2):
    """Inverse-variance pooling of each row: (weights, tau_pooled, var_pooled).

    A row with all se2 + theta2 exactly zero and equal estimates pools to
    that estimate with variance 0 and nominal equal weights, since the true
    weights are infinite; any other zero is an error.
    """
    total = v + theta2[:, None]
    zero = total == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        w = 1.0 / total
        sw = w.sum(axis=1)
        tau_pooled = (w * tau).sum(axis=1) / sw
        var_pooled = 1.0 / sw
    degenerate = zero.any(axis=1)
    if degenerate.any():
        if not np.all(zero[degenerate].all(axis=1)
                      & (np.ptp(tau[degenerate], axis=1) == 0.0)):
            raise EstimationError("degenerate variance: some se2 + theta2 are exactly zero")
        w[degenerate] = 1.0 / tau.shape[1]
        tau_pooled[degenerate] = tau[degenerate, 0]
        var_pooled[degenerate] = 0.0
    return w, tau_pooled, var_pooled


def _half_width(var_pooled, theta2, alpha: float, k_studies: int):
    """t_{K-2, 1-alpha/2} * sqrt(var_pooled + theta2)."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    if k_studies < 3:
        raise InsufficientStudiesError(
            f"prediction intervals need K >= 3 studies, got {k_studies}"
        )
    return t_quantile(k_studies - 2, 1.0 - alpha / 2.0) * np.sqrt(var_pooled + theta2)


def _as_rows(tau, v):
    """Validate (K, P) inputs and return them as contiguous (P, K) rows."""
    tau = np.asarray(tau, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if tau.shape != v.shape or tau.ndim != 2 or tau.shape[0] < 2:
        raise ValueError("tau and v must both be (K, n_profiles) with K >= 2")
    return np.ascontiguousarray(tau.T), np.ascontiguousarray(v.T)


def reml_theta2(meta: MetaInput) -> float:
    """REML estimate of the between-study variance for one profile.

    The kernel of :func:`pool_profiles` at one profile: a 65-point grid over
    [0, 10 * var(tau_hat) + max(se2)], then safeguarded Newton on the REML
    score.  theta2 = 0 is always compared explicitly, and a maximizer on the
    upper bound doubles the bound for one more search.
    """
    return float(_reml_rows(meta.tau[None], meta.v[None], Counter())[0])


def reml_theta2_batch(tau: np.ndarray, v: np.ndarray) -> np.ndarray:
    """REML between-study variance for many profiles at once.

    ``tau`` and ``v`` have shape (K, n_profiles); returns one theta2 per
    profile, each bit-identical to :func:`reml_theta2` on its column.
    """
    return _reml_rows(*_as_rows(tau, v), Counter())


def pool_profiles(tau: np.ndarray, v: np.ndarray, alpha: float | None = None
                  ) -> PooledProfiles:
    """Stage 2 for many profiles at once: REML, pooling and intervals.

    ``tau`` and ``v`` have shape (K, n_profiles).  With ``alpha`` given,
    also forms the level 1 - alpha prediction half-width (needs K >= 3).
    """
    tau, v = _as_rows(tau, v)
    counts = Counter(reml_boundary_hits=0, reml_bound_retries=0, reml_bisection_fallbacks=0)
    theta2 = _reml_rows(tau, v, counts)
    _, tau_pooled, var_pooled = _pool_rows(tau, v, theta2)
    half = None if alpha is None else _half_width(var_pooled, theta2, alpha, tau.shape[1])
    return PooledProfiles(theta2, tau_pooled, var_pooled, half, counts)


def dl_theta2(tau: np.ndarray, v: np.ndarray) -> float:
    """DerSimonian-Laird moment estimate of the between-study variance.

    ``tau`` and ``v`` hold the K >= 2 estimates and their variances.  With
    fixed-effect weights w_s = 1/v_s, computes
    max(0, (Q - (K-1)) / (sum(w) - sum(w^2)/sum(w))) where Q is the usual
    heterogeneity statistic.  Requires all v_s > 0 (weights must be finite).
    """
    tau = np.asarray(tau, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if tau.shape != v.shape or tau.ndim != 1:
        raise ValueError("tau and v must both be (K,) arrays")
    if tau.shape[0] < 2:
        raise InsufficientStudiesError("pooling requires at least 2 studies")
    if np.any(v == 0.0):
        raise EstimationError("DerSimonian-Laird requires all se2 > 0")
    w = 1.0 / v
    sw = w.sum()
    mu = float((w * tau).sum() / sw)
    q = float((w * (tau - mu) ** 2).sum())
    denom = float(sw - (w**2).sum() / sw)
    k = tau.shape[0]
    return max(0.0, (q - (k - 1)) / denom)


def pool_cate(meta: MetaInput, theta2: float) -> PooledCate:
    """Inverse-variance weighted pooling at a given between-study variance.

    Weights are w_s = 1/(se2_s + theta2); the pooled variance is 1/sum(w).
    """
    if theta2 < 0.0:
        raise ValueError("theta2 must be >= 0")
    w, tau_pooled, var_pooled = _pool_rows(
        meta.tau[None], meta.v[None], np.array([theta2], dtype=np.float64)
    )
    return PooledCate(
        profile_id=meta.profile_id,
        tau_pooled=float(tau_pooled[0]),
        var_pooled=float(var_pooled[0]),
        theta2=float(theta2),
        k_studies=meta.k_studies,
        weights=tuple(w[0].tolist()),
    )


def t_quantile(df: int, p: float) -> float:
    """Student-t inverse CDF via the inverse regularized incomplete beta.

    For p > 1/2 the quantile solves I_x(df/2, 1/2) = 2(1-p) with
    x = df/(df + t^2); values below 1/2 follow by symmetry.
    """
    if df < 1:
        raise ValueError("df must be >= 1")
    if not (0.0 < p < 1.0):
        raise ValueError("p must be in (0, 1)")
    if p == 0.5:
        return 0.0
    tail = min(p, 1.0 - p)
    x = float(betaincinv(0.5 * df, 0.5, 2.0 * tail))
    t = math.sqrt(df * (1.0 - x) / x)
    return t if p > 0.5 else -t


def prediction_interval(
    pooled: PooledCate, alpha: float, k_studies: int
) -> PredictionInterval:
    """Interval for the treatment effect in a new setting at level 1 - alpha.

    Half-width is t_{K-2, 1-alpha/2} * sqrt(var_pooled + theta2); K - 2
    degrees of freedom account for estimating both the pooled mean and the
    between-study variance, so at least 3 studies are required.
    """
    if k_studies != pooled.k_studies:
        raise ValueError("k_studies does not match the pooled estimate")
    half = float(_half_width(pooled.var_pooled, pooled.theta2, alpha, k_studies))
    return PredictionInterval(
        profile_id=pooled.profile_id,
        center=pooled.tau_pooled,
        lower=pooled.tau_pooled - half,
        upper=pooled.tau_pooled + half,
        level=1.0 - alpha,
        df=k_studies - 2,
    )
