"""Stage-1 CATE estimation with a causal forest of honest or adaptive trees.

Each tree is grown on a random subsample.  Splits maximize the
heterogeneity criterion sum_children n_child * tau_child^2, where tau_child
is the treated-minus-control mean outcome difference in the child.  In
honest mode the subsample is halved: one half chooses splits, the other
estimates leaf effects, and no outcome contributes to both.

Per-profile variances use a bootstrap-of-little-bags construction: trees
are grouped into bags, all trees of a bag subsample from one shared
half-sample of the data, and the variance of bag means (minus the
within-bag Monte-Carlo component) estimates the sampling variability of
the forest prediction.

Everything is deterministic given (dataset, params, seed): bag and tree
streams are derived from (seed, bag index) and (seed, tree index), so tree
growth can be distributed without changing results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError, EstimationError
from .model import CovariateProfile, StudyCateEstimate, TrialDataset
from .rng import substream

_SE2_FLOOR_FACTOR = 1e-6
_MAX_SKIP_FRACTION = 0.5


@dataclass(frozen=True)
class ForestParams:
    """Tuning parameters for the causal forest.

    ``n_trees`` must be divisible by ``bag_size``; consecutive groups of
    ``bag_size`` trees form the bags of the variance estimator.  Each tree
    draws its subsample from its bag's shared half-sample, so an effective
    ``subsample_fraction`` above 0.5 is capped by the half-sample size.
    """

    n_trees: int = 1000
    honest: bool = True
    min_leaf_treated: int = 5
    min_leaf_control: int = 5
    subsample_fraction: float = 0.5
    mtry: int | None = None
    bag_size: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ConfigurationError("n_trees must be >= 1")
        if self.bag_size < 1 or self.n_trees % self.bag_size != 0:
            raise ConfigurationError("n_trees must be divisible by bag_size")
        if self.min_leaf_treated < 2 or self.min_leaf_control < 2:
            raise ConfigurationError("per-arm leaf minima must be >= 2")
        if not (0.0 < self.subsample_fraction <= 1.0):
            raise ConfigurationError("subsample_fraction must be in (0, 1]")
        if self.mtry is not None and self.mtry < 1:
            raise ConfigurationError("mtry must be >= 1")

    @property
    def n_bags(self) -> int:
        return self.n_trees // self.bag_size


@dataclass(frozen=True)
class CausalTree:
    """One grown tree: flat node arrays plus its sample partition record.

    ``feature`` is -1 at leaves.  ``leaf_tau`` is NaN for leaves that may
    not be used for prediction (estimation-arm counts below the minima).
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
    covariate_names: tuple[str, ...] = field(default_factory=tuple)

    @property
    def se2_floor(self) -> float:
        return _SE2_FLOOR_FACTOR * self.outcome_variance


def _best_split(x, y, a, split_rows, est_rows, cand, min_t, min_c, honest):
    """Scan all (covariate, threshold) candidates in one vectorized pass.

    Returns (feature, threshold) or None.  Thresholds are midpoints between
    consecutive distinct sorted values of the split-set.  A split is
    admissible when both children keep at least the per-arm minima in the
    split set and, in honest mode, in the estimation set as well.  Ties on
    the criterion break to the lowest covariate index, then the smallest
    threshold.
    """
    m = split_rows.shape[0]
    if m < 2:
        return None
    xs = x[np.ix_(split_rows, cand)]
    ys = y[split_rows]
    as_ = a[split_rows]

    order = np.argsort(xs, axis=0, kind="stable")
    x_sorted = np.take_along_axis(xs, order, axis=0)
    a_sorted = as_[order]
    y_sorted = ys[order]

    cn1 = np.cumsum(a_sorted, axis=0)
    cn0 = np.cumsum(1 - a_sorted, axis=0)
    cy1 = np.cumsum(y_sorted * a_sorted, axis=0)
    cy0 = np.cumsum(y_sorted * (1 - a_sorted), axis=0)

    n1_left = cn1[:-1]
    n0_left = cn0[:-1]
    n1_right = cn1[-1] - n1_left
    n0_right = cn0[-1] - n0_left

    ok = (
        (x_sorted[:-1] < x_sorted[1:])
        & (n1_left >= min_t)
        & (n0_left >= min_c)
        & (n1_right >= min_t)
        & (n0_right >= min_c)
    )
    if honest:
        if est_rows.shape[0] == 0:
            return None
        xe = x[np.ix_(est_rows, cand)]
        ae = a[est_rows]
        eorder = np.argsort(xe, axis=0, kind="stable")
        xe_sorted = np.take_along_axis(xe, eorder, axis=0)
        ae_sorted = ae[eorder]
        ce1 = np.cumsum(ae_sorted, axis=0)
        ce0 = np.cumsum(1 - ae_sorted, axis=0)
        te1 = int(ce1[-1, 0])
        te0 = int(ce0[-1, 0])
        thresholds = 0.5 * (x_sorted[:-1] + x_sorted[1:])
        for j in range(cand.shape[0]):
            if not ok[:, j].any():
                continue
            pos = np.searchsorted(xe_sorted[:, j], thresholds[:, j], side="right")
            e1 = np.where(pos > 0, ce1[np.maximum(pos - 1, 0), j], 0)
            e0 = np.where(pos > 0, ce0[np.maximum(pos - 1, 0), j], 0)
            ok[:, j] &= (
                (e1 >= min_t)
                & (e0 >= min_c)
                & (te1 - e1 >= min_t)
                & (te0 - e0 >= min_c)
            )
    if not ok.any():
        return None

    with np.errstate(divide="ignore", invalid="ignore"):
        tau_left = cy1[:-1] / n1_left - cy0[:-1] / n0_left
        tau_right = (cy1[-1] - cy1[:-1]) / n1_right - (cy0[-1] - cy0[:-1]) / n0_right
        n_left = np.arange(1, m)[:, None]
        crit = n_left * tau_left**2 + (m - n_left) * tau_right**2
    crit = np.where(ok, crit, -np.inf)

    # Column-major flatten: covariate-index order outranks threshold order.
    flat = crit.T.reshape(-1)
    best = int(np.argmax(flat))
    if flat[best] == -np.inf:
        return None
    j, i = divmod(best, m - 1)
    threshold = 0.5 * (x_sorted[i, j] + x_sorted[i + 1, j])
    return int(cand[j]), float(threshold)


def _grow_tree(x, y, a, pool, params: ForestParams, rng) -> CausalTree:
    n, p = x.shape
    mtry = p if params.mtry is None else min(params.mtry, p)
    m = min(max(int(params.subsample_fraction * n), 1), pool.shape[0])
    perm = pool[rng.permutation(pool.shape[0])[:m]]
    if params.honest:
        split_all = perm[: m // 2]
        est_all = perm[m // 2 :]
    else:
        split_all = perm
        est_all = perm

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    node_split: list[np.ndarray | None] = []
    node_est: list[np.ndarray | None] = []

    def new_node(split_rows, est_rows):
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        node_split.append(split_rows)
        node_est.append(est_rows)
        return len(feature) - 1

    root = new_node(split_all, est_all)
    stack = [root]
    while stack:
        node = stack.pop()
        split_rows = node_split[node]
        est_rows = node_est[node]
        if mtry < p:
            cand = np.sort(rng.choice(p, size=mtry, replace=False))
        else:
            cand = np.arange(p)
        found = _best_split(
            x, y, a, split_rows, est_rows, cand,
            params.min_leaf_treated, params.min_leaf_control, params.honest,
        )
        if found is None:
            continue
        f, thr = found
        go_left = x[split_rows, f] <= thr
        if params.honest:
            est_left = x[est_rows, f] <= thr
            child_l = new_node(split_rows[go_left], est_rows[est_left])
            child_r = new_node(split_rows[~go_left], est_rows[~est_left])
        else:
            child_l = new_node(split_rows[go_left], split_rows[go_left])
            child_r = new_node(split_rows[~go_left], split_rows[~go_left])
        feature[node] = f
        threshold[node] = thr
        left[node] = child_l
        right[node] = child_r
        node_split[node] = None
        node_est[node] = None
        stack.append(child_r)
        stack.append(child_l)

    n_nodes = len(feature)
    leaf_tau = np.full(n_nodes, np.nan)
    leaf_n1 = np.zeros(n_nodes, dtype=np.int32)
    leaf_n0 = np.zeros(n_nodes, dtype=np.int32)
    for node in range(n_nodes):
        if feature[node] >= 0:
            continue
        rows = node_est[node]
        arm = a[rows]
        n1 = int(arm.sum())
        n0 = rows.shape[0] - n1
        leaf_n1[node] = n1
        leaf_n0[node] = n0
        if n1 >= params.min_leaf_treated and n0 >= params.min_leaf_control:
            yr = y[rows]
            leaf_tau[node] = float(yr[arm == 1].mean()) - float(yr[arm == 0].mean())
    return CausalTree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        leaf_tau=leaf_tau,
        leaf_n_treated=leaf_n1,
        leaf_n_control=leaf_n0,
        split_rows=np.asarray(split_all, dtype=np.int32),
        est_rows=np.asarray(est_all, dtype=np.int32),
    )


def fit_causal_forest(dataset: TrialDataset, params: ForestParams) -> CausalForestModel:
    """Grow the forest on one study's data.

    Raises ``ConfigurationError`` when the subsample cannot plausibly
    satisfy the per-arm leaf minima.
    """
    n = dataset.n_rows
    n_treated = int(dataset.a.sum())
    n_control = n - n_treated
    divisor = 2.0 if params.honest else 1.0
    if (
        params.subsample_fraction * n_treated / divisor < params.min_leaf_treated
        or params.subsample_fraction * n_control / divisor < params.min_leaf_control
    ):
        raise ConfigurationError(
            "subsample too small for the per-arm leaf minima: "
            f"{n_treated} treated / {n_control} control rows at fraction "
            f"{params.subsample_fraction}"
        )
    x = dataset.x
    y = dataset.y
    a = dataset.a.astype(np.int64)
    half = (n + 1) // 2
    bag_pools = [
        substream(params.seed, "bag", b).permutation(n)[:half]
        for b in range(params.n_bags)
    ]
    trees = tuple(
        _grow_tree(
            x, y, a, bag_pools[t // params.bag_size], params,
            substream(params.seed, "tree", t),
        )
        for t in range(params.n_trees)
    )
    return CausalForestModel(
        study_id=dataset.study_id,
        trees=trees,
        params=params,
        n_covariates=dataset.n_covariates,
        outcome_variance=float(np.var(y, ddof=1)) if n > 1 else 0.0,
        covariate_names=dataset.covariate_names,
    )


def _route(tree: CausalTree, points: np.ndarray) -> np.ndarray:
    """Leaf node index for each row of ``points``."""
    idx = np.zeros(points.shape[0], dtype=np.int64)
    active = tree.feature[idx] >= 0
    while active.any():
        cur = idx[active]
        f = tree.feature[cur]
        go_left = points[active, f] <= tree.threshold[cur]
        idx[active] = np.where(go_left, tree.left[cur], tree.right[cur])
        active = tree.feature[idx] >= 0
    return idx


def predict_matrix(model: CausalForestModel, points: np.ndarray) -> np.ndarray:
    """Per-tree leaf effects, shape (n_trees, n_points); NaN where skipped."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != model.n_covariates:
        raise DimensionMismatchError(
            f"points must have shape (k, {model.n_covariates})"
        )
    out = np.empty((len(model.trees), points.shape[0]))
    for t, tree in enumerate(model.trees):
        out[t] = tree.leaf_tau[_route(tree, points)]
    return out


def _bag_se2(pred: np.ndarray, valid: np.ndarray, params: ForestParams, floor: float):
    """Between-bag variance estimate per profile, clamped at the floor.

    se2 = max(var(bag means) - mean(within-bag var)/bag_size, floor),
    computed over bags that have valid trees.
    """
    n_profiles = pred.shape[1]
    g = params.bag_size
    bags_pred = pred.reshape(params.n_bags, g, n_profiles)
    bags_valid = valid.reshape(params.n_bags, g, n_profiles)
    counts = bags_valid.sum(axis=1)
    safe = np.where(bags_valid, bags_pred, 0.0)
    sums = safe.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        means = sums / counts
        sq = (np.where(bags_valid, bags_pred - means[:, None, :], 0.0) ** 2).sum(axis=1)
        within = sq / (counts - 1)

    se2 = np.full(n_profiles, floor)
    for j in range(n_profiles):
        mj = means[counts[:, j] > 0, j]
        if mj.shape[0] < 2:
            continue
        between = float(np.var(mj, ddof=1))
        wj = within[counts[:, j] > 1, j]
        within_mean = float(wj.mean()) if wj.shape[0] else 0.0
        se2[j] = max(between - within_mean / g, floor)
    return se2


def forest_predict(model: CausalForestModel, points: np.ndarray):
    """``(tau, se2, diagnostics)`` at the rows of ``points`` (P, p).

    A tree is skipped for a point that lands in a leaf whose estimation-set
    arm counts fall below the minima; more than half the trees skipped at
    any point is an estimation error.  ``diagnostics`` holds the count of
    se2 values clamped at the floor and the mean skipped-tree fraction.
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
    tau = np.where(valid, pred, 0.0).sum(axis=0) / n_valid
    floor = max(model.se2_floor, 0.0)
    se2 = _bag_se2(pred, valid, model.params, floor)
    diagnostics = {
        "se2_floor_hits": int((se2 == floor).sum()),
        "skipped_tree_frac": float(skipped.mean()),
    }
    return tau, se2, diagnostics


def forest_cates(
    model: CausalForestModel, profiles: list[CovariateProfile]
) -> list[StudyCateEstimate]:
    """:func:`forest_predict` at a list of profiles (point i is profile i)."""
    tau, se2, _ = forest_predict(model, np.stack([p.x for p in profiles]))
    return [
        StudyCateEstimate(
            study_id=model.study_id,
            profile_id=p.profile_id,
            tau_hat=t,
            se2=v,
        )
        for p, t, v in zip(profiles, tau.tolist(), se2.tolist())
    ]


def forest_cate(model: CausalForestModel, profile: CovariateProfile) -> StudyCateEstimate:
    """Point estimate and between-bag variance for a single profile."""
    return forest_cates(model, [profile])[0]
