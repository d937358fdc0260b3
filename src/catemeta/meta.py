"""Random-effects pooling of per-study CATE estimates and prediction intervals.

Stage 2 of the two-stage pipeline.  For each covariate profile, the K
per-study estimates (tau_hat_s, se2_s) are combined under the random-effects
model

    tau_s ~ N(tau, theta2),    tau_hat_s ~ N(tau_s, se2_s),

with the between-study variance theta2 estimated by restricted maximum
likelihood (REML).  The DerSimonian-Laird moment estimator is provided as a
cross-check.  Prediction intervals for the effect in a new setting use a
t critical value with K-2 degrees of freedom, reflecting that both the
pooled mean and theta2 are estimated from the data; a profile with K = 2
has no interval, and its half-width is NaN.  The t quantile, and the
normal quantile the simulation harness uses, are computed here with ``math``
alone, so Stage 2 loads no SciPy module.

All of Stage 2 is one array kernel over P profiles with any mix of K
(:func:`pool_profiles`), and each of its results is a (P,) array.  Inside it
the profiles are sorted by K, largest first, and their values form a (K, P)
array: column j holds profile j's studies in rows 0 to K_j - 1, so row k
holds study k + 1 of the first m[k] profiles.  Every sum over a profile's
studies is a running sum in study order, kept in code
(``acc[:m_k] += row_k[:m_k]``) rather than left to numpy's reductions, whose
order depends on an array's shape and memory layout.  So a profile pools to
the same bits alone as in a batch, whatever the other profiles' K, their
order or the input's memory layout.  Up to K = 7 these are also the bits of
numpy's row sums.
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
# likelihood's bends usually sit low in it: below the bound always, and in
# its lower half for K >= 3 (``_reml_rows``).  0 is an exact grid point, as
# the theta2 = 0 comparison needs.
_GRID_FRAC = np.linspace(0.0, 1.0, 17) ** 3
# Stage 2 runs on chunks of at most this many profiles and (K, P) cells,
# padding included, which bounds its temporaries: 512 x 17 floats (70 kB) in
# the likelihood scan and 8,192 floats (64 kB) elsewhere.  Larger ones raise
# a run's peak resident memory; smaller ones cost time, as each chunk runs its
# own numpy calls.
_CHUNK_PROFILES = 512
_CHUNK_VALUES = 8192
_NEWTON_RTOL = 1e-12
# In a profile's own units the search bound is below 2^1024, the float range,
# and a step stops the search once it is at most 1e-12 > 2^-40.  Bisection
# halves the bracket, so 1,064 halvings end any search; Newton's steps, where
# they are taken, converge faster.  A profile still moving after this many
# steps is an error, not an estimate.
_MAX_STEPS = 1100

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
    """Stage 2 for P profiles, as (P,) arrays in the profiles' input order.

    ``half_width`` is NaN for a profile with K = 2.  ``diagnostics`` counts
    theta2 = 0 estimates and Newton steps replaced by bisection.
    """

    theta2: np.ndarray
    tau_pooled: np.ndarray
    var_pooled: np.ndarray
    half_width: np.ndarray
    diagnostics: Counter


# A layout is (tau, v, m): (K, P) arrays of profiles sorted by K, largest
# first, and m[k] the number of profiles with more than k studies.  Column j
# holds profile j's studies in rows 0 to K_j - 1, so row k holds study k + 1
# of the first m[k] profiles, and m[0] is the number of profiles.  A cell
# below a short column repeats its profile's first study: element-wise work
# and a max or min down a column meet only values the profile has, and no
# sum reads it.


def _fold(values, m):
    """Per-profile sum of a layout's ``values`` (K, P, ...) over its studies,
    in study order: ``acc[:m[k]] += values[k, :m[k]]`` from 0.0.

    That is the running sum study 1 + study 2 + ... that every Stage-2 sum
    over studies uses.  numpy's ``.sum(axis=...)`` is not used: whether it
    sums pairwise or one value at a time depends on the array's shape and
    memory layout, and so would a profile's bits.
    """
    acc = np.zeros(values.shape[1:])
    for row, size in zip(values, m.tolist()):
        part = acc[:size]
        np.add(part, row[:size], out=part)
    return acc


def _take(rows, tau, v, m):
    """The profiles ``rows`` (increasing indices) of a layout, as a layout."""
    if rows.size == m[0]:
        return tau, v, m
    sizes = np.searchsorted(rows, m)  # row k holds the profiles below m[k]
    sizes = sizes[sizes > 0]
    return tau[:sizes.size, rows], v[:sizes.size, rows], sizes


def _profile_log_likelihood(theta2, tau, v, m):
    """Restricted log likelihood of each profile of a layout at each of its
    ``theta2`` values, shape (P, T) like ``theta2``.  Constant terms that do
    not involve theta2 are dropped.

    The sums over studies run row by row, so the temporaries are (P, T).
    """
    log_total, sw, swt, spread = np.zeros((4, *theta2.shape))  # running sums
    studies = [(v[k, :size, None], tau[k, :size, None], size)
               for k, size in enumerate(m.tolist())]
    # An se2 near either end of the float range overflows to inf on the way;
    # a likelihood that is not finite reads as -inf.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for v_k, tau_k, size in studies:
            total = v_k + theta2[:size]
            w = 1.0 / total
            for acc, term in ((log_total, np.log(total)), (sw, w), (swt, w * tau_k)):
                part = acc[:size]
                np.add(part, term, out=part)
        mu = swt / sw
        for v_k, tau_k, size in studies:
            w = 1.0 / (v_k + theta2[:size])
            part = spread[:size]
            np.add(part, ((tau_k - mu[:size]) ** 2) * w, out=part)
        out = -0.5 * (log_total + np.log(sw) + spread)
    return np.where(np.isfinite(out), out, -np.inf)


def _score(theta2, tau, v, m):
    """REML score and its derivative at one theta2 per profile of a layout.

    With w = 1/(v + theta2) and r = tau - mu(theta2) (Viechtbauer 2005):
        score = (S(w^2 r^2) - S(w) + S(w^2)/S(w)) / 2
        slope = (-2 S(w^3 r^2) + 2 S(w^2 r)^2/S(w) + S(w^2) - 2 S(w^3)/S(w)
                 + (S(w^2)/S(w))^2) / 2,  S summing over studies.
    """
    w = 1.0 / (v + theta2)
    sw, swt = _fold(np.stack([w, w * tau], axis=-1), m).T
    r = tau - swt / sw
    terms = np.empty((*w.shape, 5))  # w^2 r^2, w^3 r^2, w^2 r, w^2, w^3, in place
    w2, w3 = np.multiply(w, w, out=terms[..., 3]), terms[..., 4]
    np.multiply(w2, w, out=w3)
    np.multiply(np.multiply(w2, r, out=terms[..., 2]), r, out=terms[..., 0])
    np.multiply(np.multiply(w3, r, out=terms[..., 1]), r, out=terms[..., 1])
    s2r2, s3r2, s2r, s2, s3 = _fold(terms, m).T
    ratio = s2 / sw
    score = 0.5 * (s2r2 - sw + ratio)
    slope = 0.5 * (-2.0 * s3r2 + 2.0 * s2r ** 2 / sw + s2 - 2.0 * s3 / sw + ratio * ratio)
    return score, slope


def _solve(tau, v, m, bound, counts):
    """REML theta2 per profile of a layout over [0, bound]: grid scan, then
    safeguarded Newton.

    The likelihood is scanned on 17 points uniform in the cube root of
    theta2 / bound (``_GRID_FRAC``).  Newton on the score then runs between
    the best point's neighbours; each step narrows the bracket by the sign of
    the score, and a step that would leave it, or is taken where the
    likelihood is not concave, is replaced by bisection.  A profile stops
    once its step is at most 1e-12 * (1 + theta2), and one still moving after
    ``_MAX_STEPS`` steps raises ``EstimationError``.  theta2 = 0 wins
    whenever its likelihood is at least the refined point's.
    """
    n_rows, last = len(bound), _GRID_FRAC.size - 1
    grid = bound[:, None] * _GRID_FRAC
    vals = _profile_log_likelihood(grid, tau, v, m)
    best, f0 = vals.argmax(axis=1), vals[:, 0]
    rows = np.arange(n_rows)
    x = grid[rows, best]
    lo = grid[rows, np.maximum(best - 1, 0)]
    hi = grid[rows, np.minimum(best + 1, last)]
    for _ in range(_MAX_STEPS):
        if rows.size == 0:
            break
        xr = x[rows]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            score, slope = _score(xr, *_take(rows, tau, v, m))
            step = xr - score / slope
        lor = np.where(score > 0.0, xr, lo[rows])
        hir = np.where(score > 0.0, hi[rows], xr)
        ok = (slope < 0.0) & (lor <= step) & (step <= hir)
        # A bracket collapsed onto the grid's first or last point is not a fallback.
        counts["reml_bisection_fallbacks"] += int(np.count_nonzero(~ok & (lor < hir)))
        new = np.where(ok, step, 0.5 * (lor + hir))
        x[rows], lo[rows], hi[rows] = new, lor, hir
        rows = rows[np.abs(new - xr) > _NEWTON_RTOL * (1.0 + xr)]
    if rows.size:
        raise EstimationError(f"the REML search did not converge in {_MAX_STEPS} steps")
    fx = _profile_log_likelihood(x[:, None], tau, v, m)[:, 0]
    return np.where(f0 >= fx, 0.0, x)


def _reml_rows(tau, v, m, k, counts):
    """REML theta2 for each profile of a layout, whose study counts are
    ``k``, and whether its estimates are all equal.

    Each profile is solved in its own units, tau_hat / 2^e and se2 / 4^e with
    2^e the least power of two above the range of tau_hat, so that the Newton
    stop and the weights' powers in ``_score`` suit any scale; theta2 is the
    solution times 4^e.  Powers of two scale exactly.

    B = 10 * var(tau_hat) + max(se2) bounds the search, and the maximizer
    always lies below it, by the REML score of ``_score``.  Write
    S = sum((tau_hat - mean(tau_hat))^2) and d = max(se2) - min(se2).  At
    theta2 = t, with weights w = 1/(se2 + t) and residuals r = tau_hat - mu(t),
    the score is (sum(w^2 r^2) - sum(w) + sum(w^2)/sum(w)) / 2.  Every w lies
    in [a, b], a = 1/(max(se2) + t) and b = 1/(min(se2) + t), and mu(t)
    minimizes sum(w (tau_hat - c)^2) over c, so sum(w^2 r^2) <= b^2 S and
    sum(w) - sum(w^2)/sum(w) >= K a - b.  The score is therefore negative
    wherever b^2 S < K a - b, which with u = t + min(se2) reads
    (K - 1) u^2 - (S + d) u - S d > 0.  So the likelihood falls beyond
    T = max(0, u* - min(se2)), u* that quadratic's positive root; with equal
    se2, T = S / (K - 1) - se2 is the estimate itself.  With c = S / (K - 1),
    B = 10 c + d + min(se2).  At u = 10 c + d the quadratic is
    90 (K-1) c^2 + (18 (K-1) - 10) c d + (K-2) d^2 > 0 for K >= 2, so T < B.
    At u = 5 c + d/2, which is at most B/2 + min(se2), it is
    20 (K-1) c^2 + (3.5 (K-1) - 5) c d + ((K-3)/4) d^2 >= 0 for K >= 3, so
    T <= B/2.  An infinite se2 weighs nothing, and T over the other studies
    bounds the maximizer.

    Equal estimates give theta2 = 0 without a search, and a theta2 that
    overflows raises ``EstimationError``.
    """
    high, low = tau.max(axis=0), tau.min(axis=0)
    theta2 = np.zeros(m[0])
    active = high > low
    if active.any():
        rows = np.flatnonzero(active)
        t, s, sizes = _take(rows, tau, v, m)
        # Halving is exact and monotone: this is the range of tau_hat / 2.
        e = np.frexp(0.5 * high[rows] - 0.5 * low[rows])[1] + 1
        with np.errstate(over="ignore", under="ignore"):
            t = np.ldexp(t, -e)
            # An se2 past the float range in these units weighs nothing.
            s = np.minimum(np.ldexp(s, -2 * e), np.finfo(np.float64).max)
        k = k[rows]
        # np.var(t, ddof=1), its sums taken in study order
        deviation = t - _fold(t, sizes) / k
        variance = _fold(deviation * deviation, sizes) / (k - 1)
        bound = 10.0 * variance + s.max(axis=0)
        x = _solve(t, s, sizes, bound, counts)
        with np.errstate(over="ignore"):
            theta2[rows] = np.ldexp(x, 2 * e)
        if not np.isfinite(theta2).all():
            raise EstimationError("the REML estimate of theta2 overflows")
    counts["reml_boundary_hits"] += int(np.count_nonzero(theta2 == 0.0))
    return theta2, ~active


def _pool_rows(tau, v, m, theta2, equal):
    """Inverse-variance pooling of each profile of a layout at its ``theta2``:
    (tau_pooled, var_pooled).  ``equal`` marks the profiles whose estimates
    are all equal.

    Each profile pools its weights w = 1/(se2 + theta2) times 2^-e, e the
    exponent of its largest weight, so that the largest lies in [0.5, 1):
    tau_pooled = sum(w 2^-e tau_hat) / sum(w 2^-e) and
    var_pooled = 2^-e / sum(w 2^-e).  Powers of two scale exactly, so these
    are the bits of the unscaled sums wherever those neither overflow nor
    underflow; a sum of finite scaled weights lies in [0.5, K) and does
    neither.  A pooled estimate outside the float range is an error.

    A profile with an infinite weight (se2 + theta2 zero, or too small for
    its inverse to be a float) pools to its estimate with variance 0 when its
    estimates are all equal, whatever its other weights: every weighting of
    equal estimates gives that estimate.  An infinite weight on unequal
    estimates is an error.
    """
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        w = 1.0 / (v + theta2)
        # A padding cell repeats its profile's first study, so it is never
        # the largest weight; an infinite one has exponent 0 and stays.
        e = np.frexp(w.max(axis=0))[1]
        np.ldexp(w, -e, out=w)
        sw, weighted = _fold(np.stack([w, w * tau], axis=-1), m).T
        tau_pooled = weighted / sw
        var_pooled = np.ldexp(1.0 / sw, -e)
    degenerate = ~np.isfinite(sw)  # an infinite weight
    if not np.isfinite(tau_pooled[~degenerate]).all():
        raise EstimationError("the pooled estimate overflows")
    if degenerate.any():
        if not equal[degenerate].all():
            raise EstimationError("degenerate variance: some 1/(se2 + theta2) are infinite")
        tau_pooled[degenerate] = tau[0, degenerate]
        var_pooled[degenerate] = 0.0
    return tau_pooled, var_pooled


def _half_width(var_pooled, theta2, alpha: float, k):
    """t_{K-2, 1-alpha/2} * sqrt(var_pooled + theta2), K the number of studies
    of each profile (``k``, one count or one per profile); NaN where K = 2,
    whose t has no degrees of freedom.

    The quantile is worked out once per distinct K by :func:`interval_t`."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    k = np.asarray(k)
    # The profiles of each K, by bincount: np.unique would import numpy.ma,
    # about 18 ms of a process's first call.
    present = np.bincount(k.ravel(), minlength=3)
    factor = np.full(present.size, np.nan)  # t_{K-2, 1-alpha/2} by K
    for n in (np.flatnonzero(present[3:]) + 3).tolist():
        factor[n] = interval_t(alpha, n - 2)
    return factor[k] * np.sqrt(var_pooled + theta2)


def interval_t(alpha: float, df: int) -> float:
    """t_{df, 1-alpha/2}, the factor of a level 1 - alpha interval.

    The quantile is taken from the lower tail alpha/2, which keeps its digits
    where 1 - alpha/2 would round (to 1 below alpha of about 1.1e-16).  An
    alpha whose quantile is not a finite float raises ValueError: alpha/2
    underflows to 0 at alpha = 5e-324, and t_1 overflows below alpha of
    about 3.5e-309."""
    tail = alpha / 2.0
    t = -t_quantile(df, tail) if tail > 0.0 else math.inf
    if not math.isfinite(t):
        raise ValueError(f"alpha = {alpha!r} is too small: the t quantile at "
                         f"1 - alpha/2 with df = {df} is not a finite float")
    return t


def _sorted_profiles(tau, v, k):
    """Validate Stage-2 inputs: ``(tau, v, first, stride, ks, order)``, where
    ``order`` lists the profiles by K, largest first (the order of a layout),
    ``ks`` holds their K in that order, and study s of the profile at
    ``order[j]`` is ``tau[first[j] + stride * s]`` of the flattened ``tau``
    (and of ``v``).

    With ``k`` None, ``tau`` and ``v`` are (K, P) arrays, one column per
    profile, and the stride is P.  Otherwise ``k`` holds each profile's study
    count (>= 2) and ``tau`` and ``v`` its values, profile after profile, and
    the stride is 1.  Every tau_hat must be finite and every se2 >= 0.  An
    infinite se2 gives its study weight 0, but a profile needs at least one
    finite se2.
    """
    tau = np.asarray(tau, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if k is None:
        if tau.shape != v.shape or tau.ndim != 2 or tau.shape[0] < 2:
            raise ValueError("tau and v must both be (K, n_profiles) with K >= 2")
        n_studies, stride = tau.shape
        k, first = np.full(stride, n_studies), np.arange(stride)
        weightless = np.isinf(v).all(axis=0)
    else:
        k = np.asarray(k)
        if k.size == 0:  # an empty list is float64
            k = k.astype(np.intp)
        if (k.ndim != 1 or k.dtype.kind not in "iu" or not (k >= 2).all()
                or tau.shape != v.shape or tau.shape != (k.sum(),)):
            raise ValueError("k must hold integer study counts >= 2, and tau and v "
                             "their sum(k) values, profile after profile")
        k, stride = k.astype(np.intp), 1
        first = np.cumsum(k) - k
        weightless = np.logical_and.reduceat(np.isinf(v), first)
    if not np.isfinite(tau).all():
        raise EstimationError("tau_hat must be finite")
    if not (v >= 0.0).all():  # also false for NaN
        raise EstimationError("se2 must be >= 0 and not NaN")
    if weightless.any():
        raise EstimationError("a profile needs at least one finite se2")
    order = np.argsort(-k, kind="stable")
    return tau.ravel(), v.ravel(), first[order], stride, k[order], order


def _chunks(tau, v, first, stride, ks):
    """The profiles of :func:`_sorted_profiles` in consecutive runs,
    ``(rows, tau, v, m)`` of each: its values gathered from the flattened
    inputs into a layout of its own by one index, ``first + stride * study``,
    whose padding cells point at study 0.  A run of profiles of K studies
    and less holds at most ``_CHUNK_PROFILES`` and ``_CHUNK_VALUES // K`` of
    them (at least one), so its layout has at most ``_CHUNK_VALUES`` cells,
    padding included."""
    start = 0
    while start < ks.size:
        stop = min(ks.size, start + _CHUNK_PROFILES, start + max(1, _CHUNK_VALUES // ks[start]))
        run = ks[start:stop]
        study = np.arange(run[0])[:, None]
        index = first[start:stop] + stride * np.where(study < run, study, 0)
        m = np.count_nonzero(run > study, axis=1)  # profiles with more than s studies
        yield slice(start, stop), tau[index], v[index], m
        start = stop


def _in_input_order(order, values):
    """Per-profile ``values`` of a layout, put back in the input's order."""
    out = np.empty_like(values)
    out[order] = values
    return out


def reml_theta2_batch(tau: np.ndarray, v: np.ndarray) -> np.ndarray:
    """REML between-study variance for many profiles at once.

    ``tau`` and ``v`` have shape (K, n_profiles); returns the ``theta2`` of
    :func:`pool_profiles`, and raises whatever it raises.
    """
    return pool_profiles(tau, v).theta2


def pool_profiles(tau: np.ndarray, v: np.ndarray, alpha: float = 0.05,
                  k: np.ndarray | None = None) -> PooledProfiles:
    """Stage 2 for many profiles at once: REML, pooling and the level
    1 - alpha prediction half-width.

    ``tau`` and ``v`` have shape (K, n_profiles), or, with ``k`` given, hold
    profile j's ``k[j]`` values one profile after another, so one call pools
    profiles with any mix of K.  A profile with K = 2 has a NaN half-width.
    A profile gets the same bits whatever the other profiles are.
    """
    *inputs, ks, order = _sorted_profiles(tau, v, k)
    counts = Counter(reml_boundary_hits=0, reml_bisection_fallbacks=0)
    theta2, tau_pooled, var_pooled = np.empty((3, order.size))
    for rows, *part in _chunks(*inputs, ks):
        theta2[rows], equal = _reml_rows(*part, ks[rows], counts)
        tau_pooled[rows], var_pooled[rows] = _pool_rows(*part, theta2[rows], equal)
    half = _half_width(var_pooled, theta2, alpha, ks)
    return PooledProfiles(*(_in_input_order(order, a)
                            for a in (theta2, tau_pooled, var_pooled, half)), counts)


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
