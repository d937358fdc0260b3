"""Domain types for multi-study CATE estimation, pooling and prediction.

All types are immutable after construction: arrays are stored read-only, so
instances can be shared freely across worker processes and threads.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError

_WEIGHT_TOL = 1e-12
_SYMMETRY_TOL = 1e-10


def _readonly(arr: np.ndarray, dtype=np.float64) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TrialDataset:
    """Individual-level data for one study: outcome, binary treatment, covariates.

    Construction enforces matching shapes, treatment coded 0/1 and finite
    outcomes and covariates, raising ``ValueError`` naming the first bad row.
    Whether both arms have enough rows is checked by :func:`validate_trial`,
    which reports instead of raising, so that such a dataset can still be
    inspected.
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
        if not (np.isfinite(y).all() and np.isfinite(x).all()):
            bad = ~np.isfinite(np.column_stack([y, x]))
            i, j = np.unravel_index(bad.argmax(), bad.shape)
            what = "outcome" if j == 0 else f"covariate '{self.covariate_names[j - 1]}'"
            raise ValueError(f"row {i}: non-finite {what}")
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


def check_integers(params, *names: str) -> None:
    """Raise ``ConfigurationError`` for the first of ``names`` whose value is
    not an integer; numpy integers are, a float such as 2.0 is not."""
    for name in names:
        if not isinstance(getattr(params, name), numbers.Integral):
            raise ConfigurationError(f"{name} must be an integer, got {getattr(params, name)!r}")


def check_seed(params, name: str) -> None:
    """Raise ``ConfigurationError`` unless ``params.<name>`` is in [0, 2**64),
    the range of one stream part (``rng.substream``)."""
    if not 0 <= getattr(params, name) < 1 << 64:
        raise ConfigurationError(f"{name} must be in [0, 2**64)")


def check_points(points, n_covariates: int) -> np.ndarray:
    """``points`` as a float array of shape (P, n_covariates), every value
    finite: the one rule for Stage-1 points, checked before any fit.  Another
    shape raises ``DimensionMismatchError``, a non-finite value ``ValueError``."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != n_covariates:
        raise DimensionMismatchError(
            f"points have shape {points.shape}, expected (P, {n_covariates})")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite")
    return points


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
    """Point estimate and squared standard error of one study's CATE at one profile.

    An infinite ``se2`` is rejected here; ``meta.pool_profiles`` gives it weight 0.
    """

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
    """Check that each arm of a trial has the rows all Stage-1 learners rely on.

    Pure and idempotent: returns a report, never raises.  Each arm needs at
    least two rows (a cheap positivity proxy for randomized data); finite
    values and matching dimensions are already enforced by
    :class:`TrialDataset`.
    """
    n = dataset.n_rows
    n_treated = int(dataset.a.sum())
    n_control = n - n_treated
    return ValidationReport(
        study_id=dataset.study_id,
        violations=tuple(f"arm a={arm} has <{_MIN_ARM_ROWS} rows ({count})"
                         for arm, count in ((0, n_control), (1, n_treated))
                         if count < _MIN_ARM_ROWS),
        n_treated=n_treated,
        n_control=n_control,
        propensity=n_treated / n if n else 0.0,
    )


def validate_target_coverage(
    profile_ids, points: np.ndarray, trials: list[TrialDataset]
) -> list[CoverageFlag]:
    """Flag profiles with any covariate outside the pooled trial range.

    ``points`` holds one row per id in ``profile_ids``, in the trials'
    covariate order; every trial has those covariates.  The pooled range for
    covariate j is [min, max] over all rows of all trials (closed interval; a
    profile exactly at the boundary is not flagged).  This is a cheap,
    conservative box heuristic: flagged profiles are still processed
    downstream but should be marked in reports.  Returns one flag per
    profile, in order.
    """
    if not trials:
        raise ValueError("at least one trial is required")
    names = trials[0].covariate_names
    ids = np.asarray(profile_ids).tolist()
    points = check_points(points, len(names))
    if points.shape[0] != len(ids):
        raise DimensionMismatchError(f"{points.shape[0]} points for {len(ids)} profile ids")
    lo = np.min([t.x.min(axis=0) for t in trials], axis=0)
    hi = np.max([t.x.max(axis=0) for t in trials], axis=0)
    outside = (points < lo) | (points > hi)
    return [CoverageFlag(pid, tuple(names[j] for j in np.flatnonzero(row)))
            for pid, row in zip(ids, outside)]
