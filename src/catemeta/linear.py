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
datasets into it, and :func:`fit_interaction_ols` is the kernel with K = 1.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, InsufficientDataError, SingularDesignError
from .model import TrialDataset, check_points

_RANK_RTOL = 1e-10
_COV_SYMMETRY_TOL = 1e-10
_PSD_TOL = 1e-8


@dataclass(frozen=True)
class LinearCateFit:
    """Fitted interaction regression for one study.

    Coefficient order: intercept, the p main covariate effects, the
    treatment main effect, then one interaction per moderator (in
    ``moderator_indices`` order).  ``moderator_indices`` are 0-based
    covariate column indices.
    """

    study_id: int
    coefficients: np.ndarray
    covariance: np.ndarray
    moderator_indices: tuple[int, ...]
    n_covariates: int
    residual_variance: float
    column_names: tuple[str, ...]

    def __post_init__(self):
        q = 2 + self.n_covariates + len(self.moderator_indices)
        coef = np.asarray(self.coefficients, dtype=np.float64)
        cov = np.asarray(self.covariance, dtype=np.float64)
        if coef.shape != (q,):
            raise ValueError(f"expected {q} coefficients, got {coef.shape}")
        if cov.shape != (q, q):
            raise ValueError("covariance shape must match coefficient count")
        scale = max(1.0, float(np.abs(cov).max()))
        if np.abs(cov - cov.T).max() > _COV_SYMMETRY_TOL * scale:
            raise ValueError("covariance must be symmetric")
        eigvals = np.linalg.eigvalsh(cov)
        if eigvals.min() < -_PSD_TOL * max(np.trace(cov), 1e-300):
            raise ValueError("covariance must be positive semidefinite")
        coef.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "moderator_indices", tuple(self.moderator_indices))

    @property
    def treatment_index(self) -> int:
        return 1 + self.n_covariates


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

    Checks run study by study, in order, so the first singular or
    non-finite study raises what it raises when fitted alone.
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


def fit_interaction_ols(
    dataset: TrialDataset, moderators: tuple[int, ...] | None = None
) -> LinearCateFit:
    """Least-squares fit of the interaction model for one study.

    ``moderators`` are 0-based covariate indices; when omitted, every
    covariate is treated as a moderator.  This is the stacked kernel with
    K = 1.  Singular values below 1e-10 times the largest are rank
    deficiencies, and the first column that depends on the columns before
    it is reported by name.  The saturated case n == q is allowed (residual
    variance 0); n < q raises.  Coefficients or a covariance that overflow
    raise ``EstimationError``.
    """
    mods = _moderators(moderators, dataset.n_covariates)
    coef, cov, sigma2 = _fit_arrays(dataset.x[None], dataset.a[None], dataset.y[None], mods,
                                    dataset.covariate_names, (dataset.study_id,))
    return LinearCateFit(
        study_id=dataset.study_id,
        coefficients=coef[0],
        covariance=cov[0],
        moderator_indices=mods,
        n_covariates=dataset.n_covariates,
        residual_variance=float(sigma2[0]),
        column_names=_column_names(dataset.covariate_names, mods),
    )


def linear_cates_arrays(x, a, y, points, names, study_ids, moderators=None):
    """``(tau, se2)``, each (K, P), of K studies given as arrays: covariates
    ``x`` (K, n, p), treatments ``a`` (K, n) and outcomes ``y`` (K, n), with
    covariate ``names`` and one id per study for the error messages.

    ``points`` (P, p) is checked before any fit (see ``model.check_points``).
    The first study, in order, that cannot be fitted raises what
    :func:`fit_interaction_ols` raises for it.
    """
    points = check_points(points, x.shape[2])
    mods = _moderators(moderators, x.shape[2])
    coef, cov, _ = _fit_arrays(x, a, y, mods, names, study_ids)
    return _contrast(coef, cov, mods, points)


def linear_cates_stack(datasets, points, moderators=None):
    """:func:`linear_cates_arrays` of K datasets with the same row count and
    covariates, stacked."""
    x, a, y = (np.stack([getattr(d, name) for d in datasets]) for name in ("x", "a", "y"))
    return linear_cates_arrays(x, a, y, points, datasets[0].covariate_names,
                               [d.study_id for d in datasets], moderators)
