"""Domain types and input checks for multi-study CATE estimation.

Stage-1 and Stage-2 results are plain arrays, and so is the target-coverage
check's: one row per profile.  All types are immutable after construction:
arrays are stored read-only, so instances can be shared freely across worker
processes and threads.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError


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
    not an integer; numpy integers are, a float such as 2.0 is not, nor is a
    ``bool``."""
    for name in names:
        value = getattr(params, name)
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ConfigurationError(f"{name} must be an integer, got {value!r}")


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


def validate_target_coverage(points: np.ndarray, trials: list[TrialDataset]) -> np.ndarray:
    """Mark each coordinate of each profile that falls outside the pooled
    trial range: a (P, p) bool array.

    ``points`` holds one row per profile, in the trials' covariate order;
    every trial has those covariates.  The pooled range for covariate j is
    [min, max] over all rows of all trials (closed interval; a profile
    exactly at the boundary is not marked).  This is a cheap, conservative
    box heuristic: marked profiles are still processed downstream but should
    be flagged in reports.
    """
    if not trials:
        raise ValueError("at least one trial is required")
    points = check_points(points, trials[0].n_covariates)
    lo = np.min([t.x.min(axis=0) for t in trials], axis=0)
    hi = np.max([t.x.max(axis=0) for t in trials], axis=0)
    return (points < lo) | (points > hi)
