"""Stage-1 CATE estimation with a causal forest of honest or adaptive trees.

Each tree is grown on a random subsample of half the study's rows, drawn
from its bag's half-sample.  In honest mode the subsample is halved: one
half chooses splits, the other estimates leaf effects, and no outcome
contributes to both.  The trees grow level-synchronously, in
batches of at most ``_BATCH_ROWS`` subsample rows (to bound memory), by
:func:`catemeta.grower.grow_trees`: one batched split search per depth,
bit-identical to growing each node on its own.  Each batch pays every
depth's fixed costs once, so the bound lets up to 131 trees at n = 500
(250 subsample rows each) grow in one pass; the 1,000-tree default takes
8.  Each covariate is ranked once per study.  A split threshold is the
midpoint of two consecutive distinct values, or the lower value where
rounding or overflow puts the midpoint outside them.

:func:`forest_predict` routes every tree at once and also reports the
forest's growth statistics (mean nodes per tree, fraction of usable
leaves), which ``estimate`` records in its manifest.

Per-profile variances use a bootstrap-of-little-bags construction: trees
are grouped into bags, all trees of a bag subsample from one shared
half-sample of the data, and the variance of bag means (minus the
within-bag Monte-Carlo component) estimates the sampling variability of
the forest prediction.

Everything is deterministic given (dataset, params, seed): the bag and
tree streams are derived from (seed, bag index) and (seed, tree index),
and a tree does not depend on the trees grown beside it, so tree growth
can be distributed without changing results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigurationError, EstimationError, InsufficientDataError
from .grower import MIN_LEAF, grow_trees, run_stat
from .model import (
    TrialDataset,
    check_integers,
    check_points,
    check_seed,
)
# substream is bound only for perfbench/tracing.py, which wraps it here.
from .rng import stream, stream_states, substream  # noqa: F401

_SE2_FLOOR_FACTOR = 1e-6
_MAX_SKIP_FRACTION = 0.5
# Subsample rows of the trees grown together; bounds the growth's memory.
# Each depth of a pass pays fixed per-call costs, so fewer passes are faster.
# At 2**15 a 100-tree forest at n = 500 (25,000 rows) grows in one pass: its
# fit's tracemalloc peak is 2.44 MB, against 1.51 MB in two passes at 12,500.
_BATCH_ROWS = 1 << 15


@dataclass(frozen=True)
class ForestParams:
    """Tuning parameters for the causal forest.

    ``n_trees`` must be divisible by ``bag_size``, which is at least 2;
    consecutive groups of ``bag_size`` trees form the bags of the variance
    estimator.  The subsample size and the per-arm leaf minimum are fixed:
    see :func:`fit_causal_forest`.
    """

    n_trees: int = 1000
    honest: bool = True
    bag_size: int = 20
    seed: int = 0

    def __post_init__(self):
        check_integers(self, "n_trees", "bag_size", "seed")
        if self.n_trees < 1:
            raise ConfigurationError("n_trees must be >= 1")
        if self.bag_size < 2:
            # One tree per bag has no within-bag variance, so the variance
            # estimator would make no Monte Carlo correction.
            raise ConfigurationError(f"bag_size must be >= 2, got {self.bag_size}")
        if self.n_trees % self.bag_size != 0:
            raise ConfigurationError("n_trees must be divisible by bag_size")
        check_seed(self, "seed")

    @property
    def n_bags(self) -> int:
        return self.n_trees // self.bag_size


@dataclass(frozen=True)
class CausalTree:
    """One grown tree: flat node arrays plus its sample partition record.

    Nodes are numbered in level order from the root (node 0).  ``feature``
    is -1 at leaves.  ``leaf_tau`` is NaN for leaves that may not be used
    for prediction (fewer than ``MIN_LEAF`` estimation rows in an arm).
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_tau: np.ndarray
    leaf_n_treated: np.ndarray
    leaf_n_control: np.ndarray
    split_rows: np.ndarray
    est_rows: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]


@dataclass(frozen=True)
class CausalForestModel:
    """Immutable fitted forest for one study."""

    study_id: int
    trees: tuple[CausalTree, ...]
    params: ForestParams
    n_covariates: int
    outcome_variance: float

    @property
    def se2_floor(self) -> float:
        return _SE2_FLOOR_FACTOR * self.outcome_variance


def fit_causal_forest(dataset: TrialDataset, params: ForestParams) -> CausalForestModel:
    """Grow the forest on one study's data.

    The streams of ``substream(seed, "bag", b)`` and ``substream(seed,
    "tree", t)`` are derived in one :func:`rng.stream_states` call for the
    bags and one for the trees, and each ``Generator`` is built when its
    bag's half-sample or its tree's subsample is drawn.  A tree's subsample
    is ``n // 2`` rows (at least 1) of its bag's ``(n + 1) // 2``.

    Raises ``InsufficientDataError`` when the subsample cannot plausibly
    give a leaf ``MIN_LEAF`` rows of each arm: a failure of the study's
    data, which aborts only its own replication in the simulation harness.
    """
    n = dataset.n_rows
    n_treated = int(dataset.a.sum())
    n_control = n - n_treated
    divisor = 2.0 if params.honest else 1.0
    if 0.5 * min(n_treated, n_control) / divisor < MIN_LEAF:
        raise InsufficientDataError(
            f"study {dataset.study_id}: subsample too small for the per-arm leaf minima: "
            f"{n_treated} treated / {n_control} control rows at fraction 0.5"
        )
    x = dataset.x
    y = dataset.y
    a = dataset.a
    half = (n + 1) // 2
    bag_pools = [
        stream(state).permutation(n)[:half]
        for state in stream_states(params.seed, ("bag",), range(params.n_bags))[0]
    ]
    tree_states = stream_states(params.seed, ("tree",), range(params.n_trees))[0]
    values = []
    ranks = np.empty(x.shape[::-1], dtype=np.int64)
    for j, column in enumerate(x.T):
        v, ranks[j] = np.unique(column, return_inverse=True)
        values.append(v)
    m = max(n // 2, 1)
    batch = max(_BATCH_ROWS // m, 1)
    trees = []
    for first in range(0, params.n_trees, batch):
        samples = []
        for t in range(first, min(first + batch, params.n_trees)):
            pool = bag_pools[t // params.bag_size]
            perm = pool[stream(tree_states[t]).permutation(half)[:m]].astype(np.int32)
            samples.append((perm[: m // 2], perm[m // 2 :]) if params.honest else (perm, perm))
        for nodes, (split_rows, est_rows) in zip(
            grow_trees(x, y, a, values, ranks, samples, params.honest), samples
        ):
            trees.append(CausalTree(*nodes, split_rows=split_rows, est_rows=est_rows))
    # An outcome near the end of the float range overflows the variance, and
    # with it the se2 floor, to inf or NaN; the se2 check downstream names the
    # study.
    with np.errstate(over="ignore", invalid="ignore"):
        outcome_variance = float(np.var(y, ddof=1)) if n > 1 else 0.0
    return CausalForestModel(
        study_id=dataset.study_id,
        trees=tuple(trees),
        params=params,
        n_covariates=dataset.n_covariates,
        outcome_variance=outcome_variance,
    )


def predict_matrix(model: CausalForestModel, points: np.ndarray) -> np.ndarray:
    """Per-tree leaf effects, shape (n_trees, n_points); NaN where skipped.

    Every tree is routed at once, over the trees' node arrays laid end to end.
    """
    points = check_points(points, model.n_covariates)
    feature, threshold, left, right, leaf_tau = (
        np.concatenate([getattr(tree, name) for tree in model.trees])
        for name in ("feature", "threshold", "left", "right", "leaf_tau")
    )
    sizes = np.array([tree.n_nodes for tree in model.trees])
    roots = np.cumsum(sizes) - sizes
    left = left + np.repeat(roots, sizes)
    right = right + np.repeat(roots, sizes)
    idx = np.repeat(roots[:, None], points.shape[0], axis=1)
    cols = np.arange(points.shape[0])
    while True:
        f = feature[idx]
        inner = f >= 0
        if not inner.any():
            return leaf_tau[idx]
        go_left = points[cols, f] <= threshold[idx]
        idx = np.where(inner, np.where(go_left, left[idx], right[idx]), idx)


def _bag_se2(pred: np.ndarray, valid: np.ndarray, params: ForestParams, floor: float):
    """Between-bag variance estimate per profile, clamped at the floor.

    se2 = max(var(bag means) - mean(within-bag var)/bag_size, floor),
    computed over bags that have valid trees.  Called under
    :func:`forest_predict`'s ``np.errstate``: bags without two valid trees
    divide by zero.
    """
    n_profiles = pred.shape[1]
    g = params.bag_size
    bags_pred = pred.reshape(params.n_bags, g, n_profiles)
    bags_valid = valid.reshape(params.n_bags, g, n_profiles)
    counts = bags_valid.sum(axis=1)
    safe = np.where(bags_valid, bags_pred, 0.0)
    means = safe.sum(axis=1) / counts
    sq = (np.where(bags_valid, bags_pred - means[:, None, :], 0.0) ** 2).sum(axis=1)
    within = sq / (counts - 1)

    # Boolean indexing packs each profile's bag terms in bag order, one run
    # per profile.  A profile with under two bag means stays at the floor.
    has_mean, has_within = (counts > 0).T, (counts > 1).T
    n_mean, n_within = has_mean.sum(axis=1), has_within.sum(axis=1)
    rows = np.flatnonzero(n_mean >= 2)
    between = run_stat(means.T[has_mean], (np.cumsum(n_mean) - n_mean)[rows], n_mean[rows],
                       partial(np.var, ddof=1))
    within_sum = run_stat(within.T[has_within], (np.cumsum(n_within) - n_within)[rows],
                          n_within[rows], np.sum)
    se2 = np.full(n_profiles, floor)
    se2[rows] = np.maximum(between - within_sum / np.maximum(n_within[rows], 1) / g, floor)
    return se2


def forest_predict(model: CausalForestModel, points: np.ndarray):
    """``(tau, se2, diagnostics)`` at the rows of ``points`` (P, p).

    A tree is skipped for a point that lands in a leaf with fewer than
    ``MIN_LEAF`` estimation rows in an arm; more than half the trees skipped at
    any point is an estimation error.  ``diagnostics`` holds the count of
    se2 values clamped at the floor, the mean skipped-tree fraction, the
    mean node count per tree and the fraction of leaves usable for
    prediction.
    """
    pred = predict_matrix(model, points)
    valid = np.isfinite(pred)
    n_valid = valid.sum(axis=0)
    skipped = 1.0 - n_valid / pred.shape[0]
    too_many = np.flatnonzero(skipped > _MAX_SKIP_FRACTION)
    if too_many.size:
        raise EstimationError(
            f"study {model.study_id}: more than half the trees were skipped "
            f"at points {too_many.tolist()}"
        )
    floor = max(model.se2_floor, 0.0)
    # Leaf effects near the float range overflow tau and se2 to inf or NaN;
    # the checks downstream name the study.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        tau = np.where(valid, pred, 0.0).sum(axis=0) / n_valid
        se2 = _bag_se2(pred, valid, model.params, floor)
    leaf_tau = np.concatenate([tree.leaf_tau[tree.feature < 0] for tree in model.trees])
    diagnostics = {
        "se2_floor_hits": int((se2 == floor).sum()),
        "skipped_tree_frac": float(skipped.mean()),
        "nodes_per_tree": sum(tree.n_nodes for tree in model.trees) / len(model.trees),
        "usable_leaf_frac": float(np.isfinite(leaf_tau).mean()),
    }
    return tau, se2, diagnostics
