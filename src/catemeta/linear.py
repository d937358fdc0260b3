"""Stage-1 CATE estimation by least squares with treatment-moderator interactions.

Fits, within a single study, the regression

    E[Y] = b0 + b1.X + b2*A + b3.(X_mod * A)

where X_mod is the declared subset of moderator covariates.  The CATE at a
profile x* is then b2 + b3 . x*_mod, with variance given by the matching
quadratic form of the coefficient covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InsufficientDataError,
    SingularDesignError,
)
from .model import CovariateProfile, StudyCateEstimate, TrialDataset

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


def _design_matrix(dataset: TrialDataset, moderators: tuple[int, ...]):
    x = dataset.x
    a = dataset.a.astype(np.float64)
    cols = [np.ones(dataset.n_rows), x, a[:, None], x[:, moderators] * a[:, None]]
    design = np.column_stack(cols)
    names = (
        ("intercept",)
        + dataset.covariate_names
        + ("treatment",)
        + tuple(f"treatment:{dataset.covariate_names[j]}" for j in moderators)
    )
    return design, names


def fit_interaction_ols(
    dataset: TrialDataset, moderators: tuple[int, ...] | None = None
) -> LinearCateFit:
    """Least-squares fit of the interaction model for one study.

    ``moderators`` are 0-based covariate indices; when omitted, every
    covariate is treated as a moderator.  Solved by SVD; singular values
    below 1e-10 times the largest are rank deficiencies, and the first
    column that depends on the columns before it is reported by name.  The
    saturated case n == q is allowed (residual variance 0); n < q raises.
    """
    p = dataset.n_covariates
    if moderators is None:
        mods = tuple(range(p))
    else:
        mods = tuple(sorted(set(int(m) for m in moderators)))
        if mods and (mods[0] < 0 or mods[-1] >= p):
            raise ValueError(f"moderator indices must be in [0, {p})")
    design, names = _design_matrix(dataset, mods)
    n, q = design.shape
    if n < q:
        raise InsufficientDataError(
            f"need at least {q} rows to fit {q} coefficients, got {n}"
        )
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    rank = int(np.sum(s > _RANK_RTOL * s[0]))
    if rank < q:
        # Name the first column whose prefix fails the same rank test; the
        # whole design fails it, so the search ends at the last column.
        for j in range(q):
            s_j = np.linalg.svd(design[:, : j + 1], compute_uv=False)
            if np.count_nonzero(s_j > _RANK_RTOL * s_j[0]) <= j:
                raise SingularDesignError(names[j])
    coef = vt.T @ ((u.T @ dataset.y) / s)
    resid = dataset.y - design @ coef
    rss = float(resid @ resid)
    sigma2 = rss / (n - q) if n > q else 0.0
    xtx_inv = (vt.T / s**2) @ vt
    cov = sigma2 * xtx_inv
    cov = 0.5 * (cov + cov.T)
    return LinearCateFit(
        study_id=dataset.study_id,
        coefficients=coef,
        covariance=cov,
        moderator_indices=mods,
        n_covariates=p,
        residual_variance=sigma2,
        column_names=names,
    )


def linear_cates(fit: LinearCateFit, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CATE point estimates and variances at the rows of ``points`` (P, p).

    Row i of the contrast matrix C has 1 at the treatment coefficient and
    the moderator values of point i at the interaction coefficients;
    tau_hat = C beta and se2 = diag(C Cov C'), clamped at 0.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != fit.n_covariates:
        raise DimensionMismatchError(
            f"points have shape {points.shape}, fit expects (P, {fit.n_covariates})"
        )
    contrast = np.zeros((points.shape[0], fit.coefficients.shape[0]))
    contrast[:, fit.treatment_index] = 1.0
    contrast[:, fit.treatment_index + 1:] = points[:, fit.moderator_indices]
    tau = contrast @ fit.coefficients
    se2 = ((contrast @ fit.covariance) * contrast).sum(axis=1)
    return tau, np.maximum(se2, 0.0)


def linear_cate(fit: LinearCateFit, profile: CovariateProfile) -> StudyCateEstimate:
    """:func:`linear_cates` at a single profile."""
    tau, se2 = linear_cates(fit, profile.x[None, :])
    return StudyCateEstimate(
        study_id=fit.study_id,
        profile_id=profile.profile_id,
        tau_hat=float(tau[0]),
        se2=float(se2[0]),
    )
