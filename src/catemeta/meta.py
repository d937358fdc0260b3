"""Random-effects pooling of per-study CATE estimates and prediction intervals.

Stage 2 of the two-stage pipeline.  For each covariate profile, the K
per-study estimates (tau_hat_s, se2_s) are combined under the random-effects
model

    tau_s ~ N(tau, theta2),    tau_hat_s ~ N(tau_s, se2_s),

with the between-study variance theta2 estimated by restricted maximum
likelihood (REML).  The DerSimonian-Laird moment estimator is provided as a
cross-check.  Prediction intervals for the effect in a new setting use a
t critical value with K-2 degrees of freedom, reflecting that both the
pooled mean and theta2 are estimated from the data.  The t quantile, and the
normal quantile the simulation harness uses, are computed here with ``math``
alone, so Stage 2 loads no SciPy module.

All of Stage 2 is one array kernel over P profiles that share K studies
(:func:`pool_profiles`).  Inside it a profile is a row of K values, so each
sum runs over a contiguous last axis, in the same order whatever P is: a
profile pools to the same bits alone as in a batch.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, InsufficientStudiesError

# The likelihood scan's points as fractions of the search bound, uniform in
# the cube root: 9 of the 17 lie in the lowest eighth.  The bound,
# 10 * var(tau_hat) + max(se2), is loose by design, so the maximizer and the
# likelihood's bends usually sit low in it.  0 and 1 are exact grid points,
# as the theta2 = 0 comparison and the bound-hit test need.
_GRID_FRAC = np.linspace(0.0, 1.0, 17) ** 3
# Elements of one (profiles, grid, K) likelihood temporary (64 kB); larger
# temporaries raise a run's peak resident memory.
_GRID_CHUNK = 1 << 13
_NEWTON_RTOL = 1e-12
_MAX_STEPS = 200
_BOUND_RTOL = 1e-6

# Wichura (1988), algorithm AS 241 (PPND16): numerator and denominator
# coefficients, in increasing powers, of the normal quantile's rational
# approximations for |p - 1/2| <= 0.425, and in r = sqrt(-log(min(p, 1 - p)))
# for r <= 5 and for r > 5.
_AS241_CENTRAL = (
    (3.3871328727963666080e0, 1.3314166789178437745e+2, 1.9715909503065514427e+3,
     1.3731693765509461125e+4, 4.5921953931549871457e+4, 6.7265770927008700853e+4,
     3.3430575583588128105e+4, 2.5090809287301226727e+3),
    (1.0, 4.2313330701600911252e+1, 6.8718700749205790830e+2, 5.3941960214247511077e+3,
     2.1213794301586595867e+4, 3.9307895800092710610e+4, 2.8729085735721942674e+4,
     5.2264952788528545610e+3),
)
_AS241_NEAR = (
    (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
     3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
     2.27238449892691845833e-2, 7.74545014278341407640e-4),
    (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
     1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
     1.05075007164441684324e-9),
)
_AS241_FAR = (
    (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
     2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
     2.71155556874348757815e-5, 2.01033439929228813265e-7),
    (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
     7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
     2.04426310338993978564e-15),
)
_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


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
    # An se2 near either end of the float range overflows to inf on the way;
    # a likelihood that is not finite reads as -inf.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        total = np.asarray(v)[..., None, :] + t2[..., None]
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

    The likelihood is scanned on 17 points uniform in the cube root of
    theta2 / bound (``_GRID_FRAC``), in chunks of rows.  Newton on the score
    then runs between the best point's neighbours; each step narrows the
    bracket by the sign of the score, and a step that would leave it, or is
    taken where the likelihood is not concave, is replaced by bisection.  A
    row stops once its step is at most 1e-12 * (1 + theta2).
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
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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

    Each row is solved in its own units, tau_hat / 2^e and se2 / 4^e with 2^e
    the least power of two above the range of tau_hat, so that the Newton
    stop and the weights' powers in ``_score`` suit any scale; theta2 is the
    solution times 4^e.  Powers of two scale exactly.

    theta2_max = 10 * var(tau_hat) + max(se2) bounds the search.  A row whose
    maximizer lands on that bound is solved again, once, with the bound
    doubled.  Equal estimates give theta2 = 0 without a search, and a theta2
    that overflows raises ``EstimationError``.
    """
    theta2 = np.zeros(len(tau))
    active = np.ptp(tau, axis=1) > 0.0
    if active.any():
        e = np.frexp(np.ptp(0.5 * tau[active], axis=1))[1] + 1
        with np.errstate(over="ignore", under="ignore"):
            t = np.ldexp(tau[active], -e[:, None])
            # An se2 past the float range in these units weighs nothing.
            s = np.minimum(np.ldexp(v[active], -2 * e[:, None]), np.finfo(np.float64).max)
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
        with np.errstate(over="ignore"):
            theta2[active] = np.ldexp(x, 2 * e)
        if not np.isfinite(theta2).all():
            raise EstimationError("the REML estimate of theta2 overflows")
    counts["reml_boundary_hits"] += int(np.count_nonzero(theta2 == 0.0))
    return theta2


def _pool_rows(tau, v, theta2):
    """Inverse-variance pooling of each row: (weights, tau_pooled, var_pooled).

    A row with all weights infinite (se2 + theta2 zero, or too small for its
    inverse to be a float) and equal estimates pools to that estimate with
    variance 0 and nominal equal weights; any other infinite weight is an
    error.  A row of finite weights whose sum or weighted sum overflows is
    pooled on its weights times 2**-e, e the exponent of its largest weight;
    the scaling is exact and leaves the other rows alone.  If that row still
    overflows, it is an error.
    """
    with np.errstate(divide="ignore", over="ignore"):
        w = 1.0 / (v + theta2[:, None])
    with np.errstate(invalid="ignore", over="ignore"):
        sw = w.sum(axis=1)
        weighted = (w * tau).sum(axis=1)
        tau_pooled = weighted / sw
        var_pooled = 1.0 / sw
    zero = np.isinf(w)
    degenerate = zero.any(axis=1)
    overflow = ~degenerate & ~(np.isfinite(sw) & np.isfinite(weighted))
    if overflow.any():
        e = np.frexp(w[overflow].max(axis=1))[1]
        scaled = np.ldexp(w[overflow], -e[:, None])
        with np.errstate(over="ignore", invalid="ignore"):
            sw = scaled.sum(axis=1)
            tau_pooled[overflow] = (scaled * tau[overflow]).sum(axis=1) / sw
        var_pooled[overflow] = np.ldexp(1.0 / sw, -e)
        if not np.isfinite(tau_pooled[overflow]).all():
            raise EstimationError("the pooled estimate overflows")
    if degenerate.any():
        if not np.all(zero[degenerate].all(axis=1)
                      & (np.ptp(tau[degenerate], axis=1) == 0.0)):
            raise EstimationError("degenerate variance: some 1/(se2 + theta2) are infinite")
        w[degenerate] = 1.0 / tau.shape[1]
        tau_pooled[degenerate] = tau[degenerate, 0]
        var_pooled[degenerate] = 0.0
    return w, tau_pooled, var_pooled


def _half_width(var_pooled, theta2, alpha: float, k_studies: int):
    """t_{K-2, 1-alpha/2} * sqrt(var_pooled + theta2).

    The quantile is taken from the lower tail alpha/2, which keeps its digits
    where 1 - alpha/2 would round (to 1 below alpha of about 1.1e-16)."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    if k_studies < 3:
        raise InsufficientStudiesError(
            f"prediction intervals need K >= 3 studies, got {k_studies}"
        )
    return -t_quantile(k_studies - 2, alpha / 2.0) * np.sqrt(var_pooled + theta2)


def _as_rows(tau, v):
    """Validate (K, P) inputs and return them as contiguous (P, K) rows.

    Every tau_hat must be finite and every se2 >= 0.  An infinite se2 gives
    its study weight 0, but a profile needs at least one finite se2.
    """
    tau = np.asarray(tau, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if tau.shape != v.shape or tau.ndim != 2 or tau.shape[0] < 2:
        raise ValueError("tau and v must both be (K, n_profiles) with K >= 2")
    if not np.isfinite(tau).all():
        raise EstimationError("tau_hat must be finite")
    if not (v >= 0.0).all():  # also false for NaN
        raise EstimationError("se2 must be >= 0 and not NaN")
    if np.isinf(v).all(axis=0).any():
        raise EstimationError("a profile needs at least one finite se2")
    return np.ascontiguousarray(tau.T), np.ascontiguousarray(v.T)


def reml_theta2_batch(tau: np.ndarray, v: np.ndarray) -> np.ndarray:
    """REML between-study variance for many profiles at once.

    ``tau`` and ``v`` have shape (K, n_profiles); returns one theta2 per
    profile, the ``theta2`` of :func:`pool_profiles` bit for bit, without
    the pooling.
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
    heterogeneity statistic.  Needs finite tau_hat and finite se2 > 0.
    """
    tau = np.asarray(tau, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if tau.shape != v.shape or tau.ndim != 1:
        raise ValueError("tau and v must both be (K,) arrays")
    if tau.shape[0] < 2:
        raise InsufficientStudiesError("pooling requires at least 2 studies")
    if not np.isfinite(tau).all():
        raise EstimationError("tau_hat must be finite")
    if not (np.isfinite(v) & (v > 0.0)).all():
        raise EstimationError("se2 must be > 0 and finite")
    w = 1.0 / v
    sw = w.sum()
    mu = float((w * tau).sum() / sw)
    q = float((w * (tau - mu) ** 2).sum())
    denom = float(sw - (w**2).sum() / sw)
    k = tau.shape[0]
    return max(0.0, (q - (k - 1)) / denom)


def _rational(coefficients, x):
    numerator, denominator = coefficients
    top = bottom = 0.0
    for a, b in zip(reversed(numerator), reversed(denominator)):
        top = top * x + a
        bottom = bottom * x + b
    return top / bottom


def ndtri(p: float) -> float:
    """Standard normal quantile: Phi(x) = p for 0 < p < 1.

    AS 241 (Wichura 1988, *Appl. Stat.* 37:477), then one Halley step on
    Phi(x) = erfc(-x / sqrt(2)) / 2.  The step's residual is taken without
    cancellation: as erf(x / sqrt(2)) / 2 - (p - 1/2) for |p - 1/2| <= 0.425,
    and relative to the smaller tail mass min(p, 1 - p) elsewhere.
    """
    if not (0.0 < p < 1.0):
        raise ValueError("p must be in (0, 1)")
    q = p - 0.5
    if abs(q) <= 0.425:
        x = q * _rational(_AS241_CENTRAL, 0.180625 - q * q)
        u = (0.5 * math.erf(x / _SQRT2) - q) * _SQRT_2PI * math.exp(0.5 * x * x)
        return x - u / (1.0 + 0.5 * x * u)
    tail = min(p, 1.0 - p)
    r = math.sqrt(-math.log(tail))
    x = -_rational(_AS241_NEAR, r - 1.6) if r <= 5.0 else -_rational(_AS241_FAR, r - 5.0)
    u = ((0.5 * math.erfc(-x / _SQRT2) / tail - 1.0)
         * _SQRT_2PI * math.exp(0.5 * x * x + math.log(tail)))
    x -= u / (1.0 + 0.5 * x * u)
    return x if q < 0.0 else -x


def _log_t_tail(t: float, df: int) -> tuple[float, float]:
    """log P(T > t) for T ~ t_df, and log cos(theta), where t > 0 and
    tan(theta) = t / sqrt(df).

    With c = cos(theta), s = sin(theta), r = df mod 2, n = df // 2 and
    u_j = prod_{i<j} (2i + 1 + r) / (2i + 2 + r), A&S 26.7.3 (odd df) and
    26.7.4 (even df) give the tail as a finite sum,

        P(T > t) = w (W - s c^r sum_{j<n} u_j c^(2j)),

    with w = 1/2, W = 1 for even df and w = 1/pi, W = pi/2 - theta for odd
    df.  The same series summed to infinity is W / (s c^r), so the tail is
    also the remainder w s c^df sum_{i>=0} u_(n+i) c^(2i), whose terms are all
    positive.  The finite form is used while its subtraction loses at most a
    factor 100; smaller tails are the remainder, with c^df taken in logs, so a
    tail of 1e-300 keeps its digits.  Powers of c are exp(2 j log c): a
    rounded c raised to the j-th power would be off by j ulps.
    """
    tau = t / math.sqrt(df)
    h = math.hypot(1.0, tau)
    c, s = 1.0 / h, tau / h
    log_c = -0.5 * math.log1p(tau * tau) if tau < 1e150 else -math.log(tau)
    odd, n = df % 2, df // 2
    weight, whole = (1.0 / math.pi, math.atan2(c, s)) if odd else (0.5, 1.0)
    head, u = 0.0, 1.0
    for j in range(n):
        head += u * math.exp(2 * j * log_c)
        u *= (2 * j + 1 + odd) / (2 * j + 2 + odd)
    lead = s * c**odd * head
    if lead <= 0.99 * whole:
        return math.log(weight * (whole - lead)), log_c
    rest, j, limit = 0.0, 0, 1e-17 * s * s  # the remaining terms shrink by c^2 = 1 - s^2
    while True:
        term = u * math.exp(2 * j * log_c)
        rest += term
        if term <= limit * rest:
            break
        u *= (2 * (n + j) + 1 + odd) / (2 * (n + j) + 2 + odd)
        j += 1
    return math.log(weight * s * rest) + df * log_c, log_c


def _fisher_t(z: float, df: int) -> float:
    """Fisher's expansion of the t quantile about the normal quantile z, to
    the 1/df^4 term (A&S 26.7.5)."""
    z2 = z * z
    g1 = (z2 + 1.0) * z / 4.0
    g2 = ((5.0 * z2 + 16.0) * z2 + 3.0) * z / 96.0
    g3 = (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) * z / 384.0
    g4 = ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) * z / 92160.0
    return z + (g1 + (g2 + (g3 + g4 / df) / df) / df) / df


def t_quantile(df: int, p: float) -> float:
    """Student-t quantile for an integer number of degrees of freedom.

    With tail = min(p, 1 - p) and z the normal quantile of 1 - tail: one and
    two degrees of freedom have the closed forms cot(pi * tail) and
    (1 - 2 tail) / sqrt(2 tail (1 - tail)).  Above 600 + 160 z^2 degrees of
    freedom Fisher's expansion is used, whose truncation error there is below
    1e-15 relative.  Otherwise Newton's method solves
    log P(T > t) = log(tail) in log t, from the smaller of Fisher's value and
    the bound that the density's power-law envelope gives, but not below z.
    The tail's finite sum then has fewer than 300 + 80 z^2 terms, so the cost
    does not grow with df past the threshold.  Near p = 1/2 the result is
    accurate to about 1e-16 / f(0) absolute rather than relative, where f is
    the t density, as it was with SciPy's ``betaincinv``.
    """
    if df < 1:
        raise ValueError("df must be >= 1")
    if not float(df).is_integer():
        raise ValueError(f"df must be an integer, got {df!r}")
    if not (0.0 < p < 1.0):
        raise ValueError("p must be in (0, 1)")
    if p == 0.5:
        return 0.0
    df, tail = int(df), min(p, 1.0 - p)
    z = -ndtri(tail)
    if df == 1:
        t = 1.0 / math.tan(math.pi * tail)
    elif df == 2:
        t = (1.0 - 2.0 * tail) / math.sqrt(2.0 * tail * (1.0 - tail))
    elif df > 600.0 + 160.0 * z * z:
        # The expansion's first omitted term, measured against 60-digit
        # arithmetic, is about 0.05 / df^5 relative at small z and
        # 8e-5 z^10 / df^5 at large z: below 1e-15 here for every z up to
        # 38.5 (tail 5e-324).
        t = _fisher_t(z, df)
    else:
        # log of the density's constant, and P(T > t) <= exp(log_norm) df^((df-1)/2) t^-df
        log_norm = (math.lgamma(0.5 * (df + 1)) - math.lgamma(0.5 * df)
                    - 0.5 * math.log(df * math.pi))
        log_bound = (log_norm + 0.5 * (df - 1) * math.log(df) - math.log(tail)) / df
        t = max(z, min(math.exp(log_bound), _fisher_t(z, df)))
        target = math.log(tail)
        for _ in range(50):
            log_q, log_c = _log_t_tail(t, df)
            # d log P(T > t) / d log t = -t f(t) / P(T > t), f(t) = exp(log_norm) c^(df+1)
            step = (log_q - target) / math.exp(math.log(t) + log_norm + (df + 1) * log_c - log_q)
            t *= math.exp(step)
            if abs(step) <= 1e-13:
                break
    return t if p > 0.5 else -t
