"""Stage-1 CATE estimation by least squares with treatment-moderator interactions.

Fits, within each study, the regression

    E[Y] = b0 + b1.X + b2*A + b3.(X_mod * A)

where X_mod is the declared subset of moderator covariates.  The CATE at a
profile x* is then b2 + b3 . x*_mod, with variance given by the matching
quadratic form of the coefficient covariance.

One array kernel fits K studies of one shape, given as arrays: covariates
(K, n, p), treatments and outcomes (K, n).  Their designs fill one
(K, n, q) stack by slice assignment, the interaction columns from one
product of the covariates and the treatments; one ``np.linalg.svd`` call
factors it, and ``matmul``, which works matrix by matrix, forms the
coefficients and covariances, so a study gets the same bits alone as in a
stack.  One contrast matrix then gives the (K, P) CATEs.  The simulation
harness calls the kernel on its stacked draws
(:func:`linear_cates_arrays`); :func:`linear_cates_stack` stacks a list of
datasets into it, and a single study is a stack of one.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import EstimationError, InsufficientDataError, SingularDesignError
from .model import check_points

_RANK_RTOL = 1e-10


def _moderators(moderators, p: int) -> tuple[int, ...]:
    """The moderator indices in increasing order; all ``p`` when None.

    Each index is taken with ``operator.index``, so a float such as 1.0 is
    refused rather than truncated, and so is a ``bool``.  A repeated or
    out-of-range index raises ``ValueError``.
    """
    if moderators is None:
        return tuple(range(p))
    try:
        # A bool is taken as None, which operator.index refuses.
        mods = tuple(sorted(operator.index(None if isinstance(m, bool) else m)
                            for m in moderators))
    except TypeError:
        raise ValueError(f"moderator indices must be integers, got {moderators!r}") from None
    if len(set(mods)) != len(mods):
        raise ValueError(f"moderator indices must not repeat, got {moderators!r}")
    if mods and (mods[0] < 0 or mods[-1] >= p):
        raise ValueError(f"moderator indices must be in [0, {p})")
    return mods


def _column_names(names: tuple[str, ...], mods: tuple[int, ...]) -> tuple[str, ...]:
    return ("intercept", *names, "treatment", *(f"treatment:{names[j]}" for j in mods))


def _fit_arrays(x, a, y, mods: tuple[int, ...], names, study_ids):
    """``(coef (K, q), cov (K, q, q), sigma2 (K,))`` of K studies given as
    covariates ``x`` (K, n, p), treatments ``a`` (K, n) and outcomes ``y``
    (K, n), with covariate ``names`` and one id per study.

    n == q gives residual variance 0 and n < q raises.  Checks run study by
    study, in order, so the first singular or non-finite study raises what
    it raises when fitted alone.
    """
    k, n, p = x.shape
    q = 2 + p + len(mods)
    if n < q:
        raise InsufficientDataError(
            f"need at least {q} rows to fit {q} coefficients, got {n}"
        )
    design = np.empty((k, n, q))
    design[:, :, 0] = 1.0
    design[:, :, 1:p + 1] = x
    design[:, :, p + 1] = a
    design[:, :, p + 2:] = x[:, :, list(mods)] * a[:, :, None]
    y = y[:, :, None]
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    v = vt.swapaxes(1, 2)
    # Outcomes near the float range overflow and a singular design divides
    # by zero; the checks below report both.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        coef = v @ ((u.swapaxes(1, 2) @ y) / s[:, :, None])
        resid = y - design @ coef
        sigma2 = (resid.swapaxes(1, 2) @ resid)[:, 0, 0] / (n - q) if n > q else np.zeros(k)
        cov = sigma2[:, None, None] * ((v / s[:, None, :] ** 2) @ vt)
        cov = 0.5 * (cov + cov.swapaxes(1, 2))
    full_rank = (s > _RANK_RTOL * s[:, :1]).sum(axis=1) == q
    finite = np.isfinite(coef).all(axis=(1, 2)) & np.isfinite(cov).all(axis=(1, 2))
    for i in range(k):
        if not full_rank[i]:
            # Name the first column whose prefix fails the same rank test;
            # the whole design fails it, so the search ends at the last column.
            for j in range(q):
                s_j = np.linalg.svd(design[i, :, : j + 1], compute_uv=False)
                if np.count_nonzero(s_j > _RANK_RTOL * s_j[0]) <= j:
                    raise SingularDesignError(_column_names(names, mods)[j])
        if not finite[i]:
            raise EstimationError(
                f"study {study_ids[i]}: the least-squares coefficients or "
                "their covariance are not finite"
            )
    return coef[:, :, 0], cov, sigma2


def _contrast(coef, cov, mods: tuple[int, ...], points):
    """``(tau, se2)``, each (K, P), from the one contrast matrix of ``points``."""
    treatment = coef.shape[1] - len(mods) - 1
    contrast = np.zeros((points.shape[0], coef.shape[1]))
    contrast[:, treatment] = 1.0
    contrast[:, treatment + 1:] = points[:, mods]
    tau = (contrast @ coef[:, :, None])[:, :, 0]
    se2 = ((contrast @ cov) * contrast).sum(axis=2)
    return tau, np.maximum(se2, 0.0)


def linear_cates_arrays(x, a, y, points, names, study_ids, moderators=None):
    """``(tau, se2)``, each (K, P), of K studies given as arrays: covariates
    ``x`` (K, n, p), treatments ``a`` (K, n) and outcomes ``y`` (K, n), with
    covariate ``names`` and one id per study for the error messages.

    ``points`` (P, p) is checked before any fit (see ``model.check_points``).
    The first study, in order, that cannot be fitted raises what it raises
    as a stack of one (see :func:`_fit_arrays`).
    """
    points = check_points(points, x.shape[2])
    mods = _moderators(moderators, x.shape[2])
    coef, cov, _ = _fit_arrays(x, a, y, mods, names, study_ids)
    return _contrast(coef, cov, mods, points)


def linear_cates_stack(datasets, points, moderators=None):
    """:func:`linear_cates_arrays` of K datasets stacked; each must have the
    first's row count and covariate names, or ``ValueError`` names it."""
    first, *rest = datasets
    for d in rest:
        if (d.n_rows, d.covariate_names) != (first.n_rows, first.covariate_names):
            raise ValueError(f"study {d.study_id} has {d.n_rows} rows of {d.covariate_names}, "
                             f"not {first.n_rows} of {first.covariate_names} as the first has")
    x, a, y = (np.stack([getattr(d, name) for d in datasets]) for name in ("x", "a", "y"))
    return linear_cates_arrays(x, a, y, points, first.covariate_names,
                               [d.study_id for d in datasets], moderators)
