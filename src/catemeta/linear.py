"""Stage-1 CATE estimation by least squares with treatment-moderator interactions.

Fits, within each study, the regression

    E[Y] = b0 + b1.X + b2*A + b3.(X_mod * A)

where X_mod is the declared subset of moderator covariates.  The CATE at a
profile x* is then b2 + b3 . x*_mod, with variance given by the matching
quadratic form of the coefficient covariance.

One array kernel fits K studies of one shape, given as arrays: covariates
(K, n, p), treatments and outcomes (K, n).  Each study's design, with its
outcomes as a last column, fills one stack by slice assignment, the
interaction columns from one product of the covariates and the treatments;
each design column is scaled by a power of two, so no unit decides the
rank.  One ``np.linalg.qr`` call factors the stack, and ``inv`` and
``matmul``, which work matrix by matrix, form the coefficients and
covariances, so a study gets the same bits alone as in a stack.  The rank
test is a rule on R's singular values, but it reads ||R||_F ||R^-1||_F
first, from the inverse the fit takes anyway, and runs the SVD only for a
stack that bound cannot certify (see :func:`_rank_and_inverse`).  One
contrast matrix then gives the (K, P) CATEs.  :func:`linear_cates_arrays`
is the one entry: the simulation harness calls it on its stacked draws,
handing every replication of a job the one stack that :func:`design_stack`
allocates, and a single study is a stack of one.
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


def design_stack(k: int, n: int, p: int, moderators=None) -> np.ndarray:
    """An uninitialized (K, q + 1, n) array for :func:`linear_cates_arrays`'s
    ``stack``: room for K studies of n rows, p covariates and the given
    moderators (all ``p`` when None), q being the number of coefficients."""
    return np.empty((k, _n_coefficients(p, _moderators(moderators, p)) + 1, n))


def _n_coefficients(p: int, mods: tuple[int, ...]) -> int:
    return 2 + p + len(mods)


def _fit_arrays(x, a, y, mods: tuple[int, ...], names, study_ids, stack=None):
    """``(coef (K, q), cov (K, q, q), sigma2 (K,))`` of K studies given as
    covariates ``x`` (K, n, p), treatments ``a`` (K, n) and outcomes ``y``
    (K, n), with covariate ``names`` and one id per study.

    The scaled [design | y] of the studies is built in ``stack``, a
    C-contiguous float64 (K, q + 1, n) array (see :func:`design_stack`)
    whose every element is written before it is read, or in a new array
    when None; any other ``stack`` raises ``ValueError``.

    The R factor of a study's column-scaled [design | y] holds its whole
    fit (Golub & Van Loan, *Matrix Computations*, 4th ed., 5.3): its top
    left q x q block is the design's R, with the design's singular values;
    the rest of its last column is z = Q^T y, and its corner is the
    residual norm.  The coefficients are R^-1 z and the covariance
    sigma2 R^-1 R^-T; ``ldexp`` then undoes the column scaling exactly.

    The inverse comes first: the rank test reads it, and needs an SVD only
    for a stack it cannot certify (see :func:`_rank_and_inverse`).

    n == q gives residual variance 0 and n < q raises.  A non-finite
    covariate raises ``ValueError`` naming the first study that has one, and
    the covariate, before the QR; the column maxima of the scaling show it.
    The treatments must be coded 0/1 (:func:`linear_cates_arrays` checks
    them).  The other checks run study by study, in order, so the first
    singular or non-finite study raises what it raises when fitted alone.
    """
    k, n, p = x.shape
    q = _n_coefficients(p, mods)
    if n < q:
        raise InsufficientDataError(
            f"need at least {q} rows to fit {q} coefficients, got {n}"
        )
    # Row j of a study is design column j, and row q its outcomes: the
    # transpose hands LAPACK each [design | y] in the column-major layout
    # it factors.
    if stack is None:
        cols = np.empty((k, q + 1, n))
    elif (stack.shape, stack.dtype, stack.flags.c_contiguous) == ((k, q + 1, n), np.float64, True):
        cols = stack
    else:
        raise ValueError(f"stack is a {stack.dtype} array of shape {stack.shape}, expected a "
                         f"C-contiguous float64 array of shape {(k, q + 1, n)}")
    cols[:, 0] = 1.0
    cols[:, 1:p + 1] = x.swapaxes(1, 2)
    cols[:, p + 1] = a
    # An infinite covariate times a zero treatment is NaN; the check below
    # names the covariate.
    with np.errstate(invalid="ignore"):
        np.multiply(cols[:, [1 + j for j in mods]], a[:, None, :], out=cols[:, p + 2:q])
    cols[:, q] = y
    col_max = np.abs(cols[:, :q]).max(axis=2)
    if not np.isfinite(col_max).all():
        # With every covariate finite, so is every design column.
        bad = ~np.isfinite(col_max[:, 1:p + 1])
        i, j = np.unravel_index(bad.argmax(), bad.shape)
        raise ValueError(f"study {study_ids[i]}: non-finite covariate '{names[j]}'")
    # Each design column times the power of two that puts its largest |value|
    # in [0.5, 1), so the rank test does not compare units; an all-zero
    # column keeps exponent 0.  The scaling is exact and is undone exactly.
    _, e = np.frexp(col_max)
    np.ldexp(cols[:, :q], -e[:, :, None], out=cols[:, :q])
    r_aug = np.linalg.qr(cols.swapaxes(1, 2), mode="r")
    full_rank, r_inv = _rank_and_inverse(r_aug[:, :q, :q])
    # Outcomes near the float range overflow; the checks below report it.
    with np.errstate(over="ignore", invalid="ignore"):
        coef = np.ldexp((r_inv @ r_aug[:, :q, q:])[:, :, 0], -e)
        sigma2 = r_aug[:, q, q] ** 2 / (n - q) if n > q else np.zeros(k)
        cov = sigma2[:, None, None] * (r_inv @ r_inv.swapaxes(1, 2))
        cov = np.ldexp(0.5 * (cov + cov.swapaxes(1, 2)), -(e[:, :, None] + e[:, None, :]))
    finite = np.isfinite(coef).all(axis=1) & np.isfinite(cov).all(axis=(1, 2))
    for i in range(k):
        if not full_rank[i]:
            # Name the first column whose prefix fails the same rank test.
            # R's leading (j + 1) x (j + 1) block is the R of the design's
            # first j + 1 columns, and the last block is the whole test, so
            # the search ends by the last column.
            for j in range(q):
                s_j = np.linalg.svd(r_aug[i, : j + 1, : j + 1], compute_uv=False)
                if np.count_nonzero(s_j > _RANK_RTOL * s_j[0]) <= j:
                    raise SingularDesignError(_column_names(names, mods)[j])
        if not finite[i]:
            raise EstimationError(
                f"study {study_ids[i]}: the least-squares coefficients or "
                "their covariance are not finite"
            )
    return coef, cov, sigma2


def _rank_and_inverse(r):
    """``(full_rank (K,), r_inv (K, q, q))`` of K upper triangular R factors:
    whether each passes the rank test, and the inverse of each R, or of the
    identity in place of one that fails.

    The rank test is the SVD rule: R is singular when its least singular
    value is at most ``_RANK_RTOL`` times its largest.  A stack is certified
    full rank without an SVD when ``inv`` succeeds and every study has
    ||R||_F^2 ||R^-1||_F^2 < 1 / (4 _RANK_RTOL^2).  With s_1 >= ... >= s_q
    the singular values of R, ||R||_F^2 = sum s_i^2 >= s_1^2 and
    ||R^-1||_F^2 = sum 1/s_i^2 >= 1/s_q^2 (Golub & Van Loan, *Matrix
    Computations*, 4th ed., 2.3), so the certificate gives
    s_1 / s_q < 1 / (2 _RANK_RTOL), that is s_q > 2 _RANK_RTOL s_1: the SVD
    rule holds with a factor of 2 to spare.  That margin is far above the
    rounding of the norms (about q eps relative), of the computed inverse and
    of the computed singular values (about cond eps <= 5e9 eps, 6e-7
    relative), so a certified study is one the SVD passes.  A stack with an
    exactly singular R (``inv`` raises), a product that is not finite, or one
    that reaches the bound runs the SVD rule on every study.
    """
    q = r.shape[1]
    try:
        r_inv = np.linalg.inv(r)
    except np.linalg.LinAlgError:  # an exactly singular R: the SVD decides
        pass
    else:
        with np.errstate(over="ignore"):
            cond2 = np.einsum("kij,kij->k", r, r) * np.einsum("kij,kij->k", r_inv, r_inv)
        if (cond2 < 0.25 / _RANK_RTOL ** 2).all():
            return np.ones(len(r), dtype=bool), r_inv
    s = np.linalg.svd(r, compute_uv=False)
    full_rank = (s > _RANK_RTOL * s[:, :1]).sum(axis=1) == q
    if not full_rank.all():
        # inv raises on an exactly singular R; such a study raises in the fit.
        r = np.where(full_rank[:, None, None], r, np.eye(q))
    return full_rank, np.linalg.inv(r)


def _contrast(coef, cov, mods: tuple[int, ...], points):
    """``(tau, se2)``, each (K, P), from the one contrast matrix of ``points``."""
    treatment = coef.shape[1] - len(mods) - 1
    contrast = np.zeros((points.shape[0], coef.shape[1]))
    contrast[:, treatment] = 1.0
    contrast[:, treatment + 1:] = points[:, mods]
    tau = (contrast @ coef[:, :, None])[:, :, 0]
    se2 = ((contrast @ cov) * contrast).sum(axis=2)
    return tau, np.maximum(se2, 0.0)


def linear_cates_arrays(x, a, y, points, names, study_ids, moderators=None, stack=None):
    """``(tau, se2)``, each (K, P), of K studies given as arrays: covariates
    ``x`` (K, n, p), treatments ``a`` (K, n) and outcomes ``y`` (K, n), with
    p covariate ``names`` and K study ids for the error messages.

    Before any fit, an ``a``, ``y``, ``names`` or ``study_ids`` that does
    not match ``x`` raises ``ValueError`` naming it (nothing is broadcast),
    as does a treatment other than 0 or 1, naming the first study with one
    and its codes, and a non-finite covariate (see :func:`_fit_arrays`);
    ``points`` (P, p) is checked (see ``model.check_points``).  Then the
    first study, in order, that cannot be fitted raises what it raises as a
    stack of one.  ``stack``, if given, is the :func:`design_stack` array
    the fit is built in, so a caller that fits many stacks of one shape
    allocates it once; the results do not depend on what it held.
    """
    if x.ndim != 3:
        raise ValueError(f"x has shape {x.shape}, expected (K, n, p)")
    k, _, p = x.shape
    for name, arr in (("a", a), ("y", y)):
        if np.shape(arr) != x.shape[:2]:
            raise ValueError(f"{name} has shape {np.shape(arr)}, expected {x.shape[:2]}, "
                             "the (K, n) of x")
    for name, values, want, per in (("names", names, p, "covariate"),
                                    ("study_ids", study_ids, k, "study")):
        if len(values) != want:
            raise ValueError(f"{name} has {len(values)} entries, expected one per {per} "
                             f"of x ({want})")
    if np.count_nonzero(a) != np.count_nonzero(a == 1):
        bad = (a != 0) & (a != 1)
        i = bad.any(axis=1).argmax()
        raise ValueError(f"study {study_ids[i]}: treatment must be coded 0/1, found "
                         f"{np.unique(a[i][bad[i]]).tolist()}")
    points = check_points(points, p)
    mods = _moderators(moderators, p)
    coef, cov, _ = _fit_arrays(x, a, y, mods, names, study_ids, stack)
    return _contrast(coef, cov, mods, points)
