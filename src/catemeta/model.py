"""Domain types for multi-study CATE estimation, pooling and prediction.

All types are immutable after construction: arrays are stored read-only, so
instances can be shared freely across worker processes and threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError

_WEIGHT_TOL = 1e-12
_SYMMETRY_TOL = 1e-10


def _readonly(arr: np.ndarray, dtype=np.float64) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TrialDataset:
    """Individual-level data for one study: outcome, binary treatment, covariates.

    Construction enforces structural consistency (matching shapes, treatment
    coded 0/1).  Statistical preconditions such as both arms being present or
    all values being finite are checked by :func:`validate_trial`, which
    reports violations instead of raising, so that malformed datasets can
    still be inspected.
    """

    study_id: int
    y: np.ndarray
    a: np.ndarray
    x: np.ndarray
    covariate_names: tuple[str, ...]

    def __post_init__(self):
        y = _readonly(self.y)
        a = np.asarray(self.a)
        x = _readonly(self.x)
        if x.ndim != 2:
            raise ValueError("x must be a 2-d array of shape (n, p)")
        n = y.shape[0]
        if a.shape != (n,) or x.shape[0] != n:
            raise ValueError("y, a and x must have the same number of rows")
        if x.shape[1] != len(self.covariate_names):
            raise ValueError("covariate_names length must match x columns")
        # checked before the int8 cast, which would truncate 0.5 or wrap 256 to 0
        bad = (a != 0) & (a != 1)
        if bad.any():
            raise ValueError(
                f"treatment must be coded 0/1, found {np.unique(a[bad]).tolist()}")
        a = _readonly(a, dtype=np.int8)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "covariate_names", tuple(self.covariate_names))

    @property
    def n_rows(self) -> int:
        return self.y.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class CovariateProfile:
    """A single covariate vector for which a treatment effect is predicted."""

    profile_id: int
    x: np.ndarray

    def __post_init__(self):
        x = _readonly(self.x)
        if x.ndim != 1:
            raise ValueError("profile x must be a 1-d vector")
        if not np.all(np.isfinite(x)):
            raise ValueError(f"profile {self.profile_id} has non-finite values")
        object.__setattr__(self, "x", x)

    @property
    def n_covariates(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class StudyCateEstimate:
    """Point estimate and squared standard error of one study's CATE at one profile."""

    study_id: int
    profile_id: int
    tau_hat: float
    se2: float

    def __post_init__(self):
        if not np.isfinite(self.tau_hat):
            raise ValueError("tau_hat must be finite")
        if not (np.isfinite(self.se2) and self.se2 >= 0.0):
            raise ValueError("se2 must be finite and >= 0")


@dataclass(frozen=True)
class PooledCate:
    """Inverse-variance weighted cross-study summary for one profile.

    ``weights`` are the raw weights 1/(se2_s + theta2); ``var_pooled`` equals
    1/sum(weights).  In the fully degenerate case (all variances exactly zero
    with identical estimates) ``var_pooled`` is 0 and nominal equal weights
    are recorded, since the true weights are infinite.
    """

    profile_id: int
    tau_pooled: float
    var_pooled: float
    theta2: float
    k_studies: int
    weights: tuple[float, ...]

    def __post_init__(self):
        if self.k_studies < 2:
            raise ValueError("pooling requires at least 2 studies")
        if len(self.weights) != self.k_studies:
            raise ValueError("one weight per study required")
        w = np.asarray(self.weights, dtype=np.float64)
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be finite and strictly positive")
        if self.theta2 < 0.0 or self.var_pooled < 0.0:
            raise ValueError("variances must be >= 0")
        if self.var_pooled > 0.0:
            total = float(w.sum())
            if abs(self.var_pooled - 1.0 / total) > _WEIGHT_TOL * max(1.0, self.var_pooled):
                raise ValueError("var_pooled must equal 1/sum(weights)")


@dataclass(frozen=True)
class PredictionInterval:
    """t-based interval for the treatment effect in a new, unobserved setting."""

    profile_id: int
    center: float
    lower: float
    upper: float
    level: float
    df: int

    def __post_init__(self):
        if not (0.0 < self.level < 1.0):
            raise ValueError("level must be in (0, 1)")
        if self.df < 1:
            raise ValueError("df must be >= 1")
        if not (self.lower <= self.center <= self.upper):
            raise ValueError("interval must satisfy lower <= center <= upper")
        half_lo = self.center - self.lower
        half_hi = self.upper - self.center
        if abs(half_hi - half_lo) > _SYMMETRY_TOL * max(1.0, half_hi):
            raise ValueError("interval must be symmetric about its center")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_trial: a list of violations plus the arm fraction."""

    study_id: int
    violations: tuple[str, ...]
    n_treated: int
    n_control: int
    propensity: float

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class CoverageFlag:
    """Covariates of one profile that fall outside the pooled trial range."""

    profile_id: int
    out_of_range: tuple[str, ...] = field(default_factory=tuple)

    @property
    def flagged(self) -> bool:
        return bool(self.out_of_range)


_MIN_ARM_ROWS = 2


def validate_trial(dataset: TrialDataset) -> ValidationReport:
    """Check a trial against the preconditions all Stage-1 learners rely on.

    Pure and idempotent: returns a report, never raises. Checks each arm has
    at least two rows (a cheap positivity proxy for randomized data), that
    all outcomes and covariates are finite, and that dimensions agree.
    """
    violations: list[str] = []
    n = dataset.n_rows
    n_treated = int(dataset.a.sum())
    n_control = n - n_treated
    for arm, count in ((0, n_control), (1, n_treated)):
        if count < _MIN_ARM_ROWS:
            violations.append(f"arm a={arm} has <{_MIN_ARM_ROWS} rows ({count})")
    bad_y = np.flatnonzero(~np.isfinite(dataset.y))
    for i in bad_y:
        violations.append(f"row {int(i)}: non-finite outcome")
    bad_rows, bad_cols = np.nonzero(~np.isfinite(dataset.x))
    for i, j in zip(bad_rows, bad_cols):
        name = dataset.covariate_names[int(j)]
        violations.append(f"row {int(i)}: non-finite covariate '{name}'")
    if dataset.x.shape[1] != len(dataset.covariate_names):
        violations.append("covariate dimension mismatch")
    propensity = n_treated / n if n else 0.0
    return ValidationReport(
        study_id=dataset.study_id,
        violations=tuple(violations),
        n_treated=n_treated,
        n_control=n_control,
        propensity=propensity,
    )


def validate_target_coverage(
    profiles: list[CovariateProfile], trials: list[TrialDataset]
) -> list[CoverageFlag]:
    """Flag profiles with any covariate outside the pooled trial range.

    The pooled range for covariate j is [min, max] over all rows of all
    trials (closed interval; a profile exactly at the boundary is not
    flagged).  This is a cheap, conservative box heuristic: flagged profiles
    are still processed downstream but should be marked in reports.
    """
    if not trials:
        raise ValueError("at least one trial is required")
    p = trials[0].n_covariates
    names = trials[0].covariate_names
    for t in trials:
        if t.n_covariates != p:
            raise DimensionMismatchError(
                f"study {t.study_id} has {t.n_covariates} covariates, expected {p}"
            )
    lo = np.full(p, np.inf)
    hi = np.full(p, -np.inf)
    for t in trials:
        lo = np.minimum(lo, np.nanmin(t.x, axis=0))
        hi = np.maximum(hi, np.nanmax(t.x, axis=0))
    flags = []
    for prof in profiles:
        if prof.n_covariates != p:
            raise DimensionMismatchError(
                f"profile {prof.profile_id} has {prof.n_covariates} covariates, expected {p}"
            )
        outside = (prof.x < lo) | (prof.x > hi)
        flags.append(
            CoverageFlag(
                profile_id=prof.profile_id,
                out_of_range=tuple(names[j] for j in np.flatnonzero(outside)),
            )
        )
    return flags
