"""The recursive, one-node-at-a-time causal tree grower, kept as a test oracle.

``catemeta.grower`` grows every tree of a forest one depth at a time with
batched array operations.  This module keeps the straightforward recursive
grower: each node sorts its own rows and scans its split candidates, and
children are grown depth-first.  Both sides use the same threshold rule
(``_midpoint``), so the two growers must agree bit for bit;
``tests/test_forest.py`` checks that they do.
"""

import numpy as np

from catemeta.forest import CausalForestModel, CausalTree, ForestParams
from catemeta.rng import substream


def _midpoint(lo, hi):
    """The split threshold between consecutive distinct values ``lo < hi``.

    The midpoint, unless rounding or overflow puts it outside ``[lo, hi)``;
    then ``lo``.
    """
    with np.errstate(over="ignore"):
        mid = 0.5 * (lo + hi)
    return np.where((lo <= mid) & (mid < hi), mid, lo)


def _best_split(x, y, a, split_rows, est_rows, min_t, min_c, honest):
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
    xs = x[split_rows]
    ys = y[split_rows]
    as_ = a[split_rows]

    order = np.argsort(xs, axis=0, kind="stable")
    x_sorted = np.take_along_axis(xs, order, axis=0)
    a_sorted = as_[order]
    y_sorted = ys[order]

    cn1 = np.cumsum(a_sorted, axis=0)
    cn0 = np.cumsum(1 - a_sorted, axis=0)
    with np.errstate(over="ignore"):  # outcomes near the float range
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
        xe = x[est_rows]
        ae = a[est_rows]
        eorder = np.argsort(xe, axis=0, kind="stable")
        xe_sorted = np.take_along_axis(xe, eorder, axis=0)
        ae_sorted = ae[eorder]
        ce1 = np.cumsum(ae_sorted, axis=0)
        ce0 = np.cumsum(1 - ae_sorted, axis=0)
        te1 = int(ce1[-1, 0])
        te0 = int(ce0[-1, 0])
        thresholds = _midpoint(x_sorted[:-1], x_sorted[1:])
        for j in range(x.shape[1]):
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

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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
    threshold = _midpoint(x_sorted[i, j], x_sorted[i + 1, j])
    return int(j), float(threshold)


def _grow_tree(x, y, a, pool, params: ForestParams, rng) -> CausalTree:
    n = x.shape[0]
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
        found = _best_split(
            x, y, a, split_rows, est_rows,
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
            with np.errstate(over="ignore", invalid="ignore"):
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

def fit_reference_forest(dataset, params: ForestParams) -> CausalForestModel:
    """``fit_causal_forest`` with every tree grown by :func:`_grow_tree`.

    The bag pools and the per-tree streams are the ones the package draws,
    so both growers see the same subsamples.
    """
    n = dataset.n_rows
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
    with np.errstate(over="ignore", invalid="ignore"):
        outcome_variance = float(np.var(y, ddof=1)) if n > 1 else 0.0
    return CausalForestModel(
        study_id=dataset.study_id,
        trees=trees,
        params=params,
        n_covariates=dataset.n_covariates,
        outcome_variance=outcome_variance,
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


def reference_predict_matrix(model: CausalForestModel, points: np.ndarray) -> np.ndarray:
    """Per-tree leaf effects, one tree at a time, shape (n_trees, n_points)."""
    out = np.empty((len(model.trees), points.shape[0]))
    for t, tree in enumerate(model.trees):
        out[t] = tree.leaf_tau[_route(tree, points)]
    return out
