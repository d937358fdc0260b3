"""Level-synchronous growth of the causal trees of a forest.

Splits maximize the heterogeneity criterion sum_children n_child *
tau_child^2, where tau_child is the treated-minus-control mean outcome
difference in the child.  The trees given (a batch of a forest) grow one
depth at a time, and each depth is one split search over every open node
of every tree, as in breadth-first boosting with batched nodes.  Each
tree's split rows are sorted by each covariate once, at the root, and a
split partitions them stably, so every node keeps its rows in sorted order
without sorting again.  The search lays the open nodes out as the rows of
padded arrays, one covariate at a time, and takes running sums along each
row.  That is the same arithmetic in the same order as searching each node
on its own, with the same tie-break (lowest covariate index, then smallest
threshold), so a tree does not depend on the trees grown beside it.  In
honest mode a split must also leave the per-arm minima of the node's
estimation rows on both sides; for each node and covariate the thresholds
that do form one interval (:meth:`_Entries.threshold_bounds`).

A split threshold is the midpoint of two consecutive distinct values
``lo < hi``, unless rounding or overflow puts the midpoint outside
``[lo, hi)`` (adjacent doubles, values near the float range); it is then
``lo``.  Either way ``x <= threshold`` separates the two values.

With ``mtry`` below the number of covariates, each node draws its
candidate covariates from a stream keyed by its tree and its heap index
(root 1, children 2h and 2h + 1), so the draw does not depend on the order
in which nodes are grown.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .rng import substream

if TYPE_CHECKING:
    from .forest import ForestParams

# Cells of one padded split-search array; bounds the search's memory.
_SEARCH_CELLS = 4096


def _midpoint(lo, hi):
    """The split threshold between consecutive distinct values ``lo < hi``.

    The midpoint, unless rounding or overflow puts it outside ``[lo, hi)``;
    then ``lo``.
    """
    with np.errstate(over="ignore"):
        mid = 0.5 * (lo + hi)
    return np.where((lo <= mid) & (mid < hi), mid, lo)


def node_candidates(seed: int, tree: int, heap: int, p: int, mtry: int) -> np.ndarray:
    """The covariates a node may split on when ``mtry < p``, ascending.

    ``heap`` is the node's heap index (root 1, children 2h and 2h + 1); it
    is passed in 64-bit words, so paths of any depth get distinct streams.
    """
    words = [heap >> s & (1 << 64) - 1 for s in range(0, heap.bit_length(), 64)]
    rng = substream(seed, "tree", tree, "node", *words)
    return np.sort(rng.choice(p, size=mtry, replace=False))


class _Entries:
    """One row set (split or estimation rows) of every tree in a batch.

    Entry ``e`` is row ``rows[e]`` of tree ``tree[e]``; entries run tree by
    tree and, within a tree, in subsample draw order.  The open nodes are
    the segments ``0 .. S-1``, each in its tree's order; ``seg_len`` and
    ``seg_treated`` count their entries and treated entries.  ``seg[e]`` is
    the segment holding entry ``e`` (-1 once its node has closed) and
    ``node[e]`` its node id, which ends as the entry's leaf.  After
    :meth:`sort_by`, ``order[j]`` lists the entries of the open nodes
    segment by segment, each segment sorted by covariate ``j`` with ties
    in entry order.
    """

    def __init__(self, row_sets, a):
        sizes = [rows.shape[0] for rows in row_sets]
        self.rows = np.concatenate(row_sets)
        self.arm = a[self.rows]
        self.node = np.repeat(np.arange(len(row_sets)), sizes)
        self.seg = self.node.copy()
        self.seg_len = np.array(sizes)
        self.seg_treated = np.bincount(self.seg[self.arm == 1], minlength=len(sizes))
        self.order = []

    def sort_by(self, ranks, n_values):
        """Order the entries by each covariate, once; splits keep the order."""
        # (tree, rank, entry) keys are distinct, so any sort orders them stably.
        n = self.rows.shape[0]
        self.order = [
            np.argsort((self.seg * n_values[j] + ranks[j][self.rows]) * n + np.arange(n))
            for j in range(len(n_values))
        ]

    @property
    def seg_start(self) -> np.ndarray:
        return np.cumsum(self.seg_len) - self.seg_len

    def split(self, x, seg_split, feature, threshold, first_child):
        """Move each split segment's entries into its two children.

        ``seg_split[s]`` is segment ``s``'s index ``k`` among the split
        segments, or -1 if it closes.  Split ``k`` sends ``x <= threshold[k]``
        on ``feature[k]`` to segment ``2k`` (node ``first_child + 2k``) and
        the rest to segment ``2k + 1``.  Each child keeps its entries in
        their order within the parent.
        """
        n_split = feature.shape[0]
        k = np.append(seg_split, -1)[self.seg]
        live = np.flatnonzero(k >= 0)
        k = k[live]
        go_right = np.zeros(self.seg.shape[0], dtype=np.int8)
        go_right[live] = x[self.rows[live], feature[k]] > threshold[k]
        child = np.full(self.seg.shape[0], -1)
        child[live] = 2 * k + go_right[live]
        kept = np.flatnonzero(np.repeat(seg_split >= 0, self.seg_len))
        self.seg = child
        self.node[live] = first_child + child[live]
        sizes = np.bincount(child[live], minlength=2 * n_split)
        self.seg_len = sizes
        self.seg_treated = np.bincount(child[live][self.arm[live] == 1], minlength=2 * n_split)

        # Children are laid out left, right, left, right, ...  At kept
        # position k in parent q, a left entry moves to k minus the right
        # entries before it plus the right children of parents before q; a
        # right entry to the left children of parents up to q plus the
        # right entries before it.
        parent = np.repeat(np.arange(n_split), sizes[0::2] + sizes[1::2])
        to_left = np.arange(kept.shape[0]) + (np.cumsum(sizes[1::2]) - sizes[1::2])[parent]
        to_right = np.cumsum(sizes[0::2])[parent] - to_left
        for j, order in enumerate(self.order):
            order = order[kept]
            right = go_right[order]
            shift = np.cumsum(right)
            shift -= right
            pos = to_left - shift
            shift *= 2
            shift += to_right
            shift *= right
            pos += shift
            self.order[j] = np.empty_like(order)
            self.order[j][pos] = order

    def threshold_bounds(self, sel, ranks, n_values, min_t, min_c):
        """Per covariate ``j``, ranks ``(low, high)`` for each segment in ``sel``.

        ``ranks[j]`` ranks the study's rows by covariate ``j``, which has
        ``n_values[j]`` distinct values.  A threshold ``t`` leaves at least
        the per-arm minima of the segment's entries on both sides exactly
        when ``values[low] <= t < values[high]``: ``low`` is the larger rank
        of the ``min_t``-th treated and the ``min_c``-th control entry from
        below, ``high`` the smaller of the same from above.  Each segment
        must hold twice the minima of each arm.
        """
        live = self.seg >= 0
        seg, rows, arm = self.seg[live], self.rows[live], self.arm[live]
        # Sorted by (segment, rank), every covariate has the same segment
        # blocks, so the targets below are the same for all of them.
        t_before = (np.cumsum(self.seg_treated) - self.seg_treated)[sel]
        c_before = self.seg_start[sel] - t_before
        targets = (t_before + min_t, c_before + min_c,
                   t_before + self.seg_treated[sel] - min_t + 1,
                   c_before + self.seg_len[sel] - self.seg_treated[sel] - min_c + 1)
        counts = np.arange(1, seg.shape[0] + 1)
        bounds = []
        for rank, n in zip(ranks, n_values):
            # Ties do not change the counts, so any order within a rank will do.
            keys = np.sort((seg * n + rank[rows]) * 2 + arm)
            treated = np.cumsum(keys & 1)
            at = [np.searchsorted(cum, target) for cum, target in
                  zip((treated, counts - treated) * 2, targets)]
            t_low, c_low, t_high, c_high = ((keys[i] >> 1) % n for i in at)
            bounds.append((np.maximum(t_low, c_low), np.minimum(t_high, c_high)))
        return bounds


def _search_groups(lens):
    """Segments to search together, longest first, each group's padded
    array within ``_SEARCH_CELLS`` cells (one segment may exceed it)."""
    by_len = np.argsort(-lens, kind="stable")
    start = 0
    while start < by_len.shape[0]:
        stop = start + max(_SEARCH_CELLS // lens[by_len[start]], 1)
        yield by_len[start:stop]
        start = stop


def _best_splits(split, sel, y1, y0, values, ranks, bounds, cand, params: ForestParams):
    """Search segments ``sel`` of ``split`` for their best admissible split.

    Returns ``(found, feature, threshold)`` per segment.  A split is
    admissible when both children keep at least the per-arm minima in the
    split set and, in honest mode, in the estimation set as well: there
    ``bounds[j]`` holds the estimation set's threshold bounds for
    covariate ``j`` (see :meth:`_Entries.threshold_bounds`), else it is
    None.  ``y1`` and ``y0`` are each split entry's outcome times its
    treatment and control indicator.  ``cand`` (segments x covariates, or
    None for all) masks the covariates a node may use.  Ties on the
    criterion break to the lowest covariate index, then the smallest
    threshold.

    Segment ``r`` is row ``r`` of a padded array; positions past its end
    hold other segments' entries, and their running treated count
    leaves no treated rows to the right, so the minima reject them.
    """
    min_t, min_c = params.min_leaf_treated, params.min_leaf_control
    lens = split.seg_len[sel]
    width = lens.max()
    at = split.seg_start[sel][:, None] + np.arange(width)
    rows = np.arange(sel.shape[0])
    last = lens - 1
    n_left = np.arange(1.0, width)
    n_right = lens[:, None] - n_left
    treated = split.seg_treated[sel][:, None]
    p = len(values)
    best = np.full((sel.shape[0], p), -np.inf)
    best_threshold = np.empty((sel.shape[0], p))
    for j in range(p):
        ent = np.take(split.order[j], at, mode="clip")
        rank = ranks[j][split.rows[ent]]
        n1_left = np.cumsum(split.arm[ent], axis=1, dtype=np.float64)[:, :-1]
        n0_left = n_left - n1_left
        n1_right = treated - n1_left
        n0_right = n_right - n1_right
        ok = (
            (rank[:, :-1] < rank[:, 1:])
            & (n1_left >= min_t)
            & (n0_left >= min_c)
            & (n1_right >= min_t)
            & (n0_right >= min_c)
        )
        if cand is not None:
            ok &= cand[:, j, None]
        thr = _midpoint(values[j][rank[:, :-1]], values[j][rank[:, 1:]])
        if bounds is not None:
            low, high = bounds[j]
            ok &= (values[j][low][:, None] <= thr) & (thr < values[j][high][:, None])
        cy1 = np.cumsum(y1[ent], axis=1)
        cy0 = np.cumsum(y0[ent], axis=1)
        # crit = n_left * tau_left**2 + n_right * tau_right**2, in place.
        with np.errstate(divide="ignore", invalid="ignore"):
            crit = cy1[:, :-1] / n1_left
            crit -= cy0[:, :-1] / n0_left
            crit *= crit
            crit *= n_left
            tau_right = cy1[rows, last][:, None] - cy1[:, :-1]
            tau_right /= n1_right
            tau_right -= (cy0[rows, last][:, None] - cy0[:, :-1]) / n0_right
            tau_right *= tau_right
            tau_right *= n_right
            crit += tau_right
        crit = np.where(ok, crit, -np.inf)
        i = crit.argmax(axis=1)
        best[:, j] = crit[rows, i]
        best_threshold[:, j] = thr[rows, i]
    feature = best.argmax(axis=1)
    return best[rows, feature] != -np.inf, feature, best_threshold[rows, feature]


def _run_means(values, starts, lengths):
    """Mean of ``values[start:start + length]`` per run.

    Runs of equal length are summed as the rows of one array, which numpy
    sums exactly as it sums each run on its own.
    """
    out = np.empty(starts.shape[0])
    for length in np.unique(lengths):
        runs = np.flatnonzero(lengths == length)
        out[runs] = values[starts[runs, None] + np.arange(length)].sum(axis=1) / length
    return out


def grow_trees(x, y, a, values, ranks, samples, first_tree, params: ForestParams):
    """Grow one tree per ``(split_rows, est_rows)`` sample, one depth at a time.

    ``values[j]`` holds the distinct values of covariate ``j`` in ascending
    order and ``ranks[j]`` each row's index into them; ``first_tree`` is
    the forest index of the first sample's tree.  Returns, per tree, its
    node arrays ``(feature, threshold, left, right, leaf_tau,
    leaf_n_treated, leaf_n_control)``, nodes numbered in level order.
    """
    p = x.shape[1]
    mtry = p if params.mtry is None else min(params.mtry, p)
    min_t, min_c = params.min_leaf_treated, params.min_leaf_control
    n_values = [v.shape[0] for v in values]
    split = _Entries([s for s, _ in samples], a)
    split.sort_by(ranks, n_values)
    est = _Entries([e for _, e in samples], a) if params.honest else split
    y1 = y[split.rows] * split.arm
    y0 = y[split.rows] * (1 - split.arm)

    n_trees = len(samples)
    seg_node = np.arange(n_trees)
    node_tree = [np.arange(n_trees)]
    seg_heap = [1] * n_trees
    n_nodes = n_trees
    parents, features, thresholds = [], [], []
    while p and seg_node.shape[0]:
        # Only a node with enough rows of each arm for two children is searched.
        can_split = np.ones(seg_node.shape[0], dtype=bool)
        for entries in (split, est):
            can_split &= (entries.seg_treated >= 2 * min_t) & (
                entries.seg_len - entries.seg_treated >= 2 * min_c
            )
        sel = np.flatnonzero(can_split)
        if sel.shape[0] == 0:
            break
        cand = None
        if mtry < p:
            cand = np.zeros((sel.shape[0], p), dtype=bool)
            for r, s in enumerate(sel):
                tree = first_tree + int(node_tree[-1][s])
                cand[r, node_candidates(params.seed, tree, seg_heap[s], p, mtry)] = True
        bounds = None
        if params.honest:
            bounds = est.threshold_bounds(sel, ranks, n_values, min_t, min_c)
        found = np.empty(sel.shape[0], dtype=bool)
        feature = np.empty(sel.shape[0], dtype=np.intp)
        threshold = np.empty(sel.shape[0])
        for group in _search_groups(split.seg_len[sel]):
            found[group], feature[group], threshold[group] = _best_splits(
                split, sel[group], y1, y0, values, ranks,
                None if bounds is None else [(low[group], high[group]) for low, high in bounds],
                None if cand is None else cand[group], params,
            )
        sel = sel[found]
        if sel.shape[0] == 0:
            break
        seg_split = np.full(seg_node.shape[0], -1)
        seg_split[sel] = np.arange(sel.shape[0])
        feature, threshold = feature[found], threshold[found]
        split.split(x, seg_split, feature, threshold, n_nodes)
        if params.honest:
            est.split(x, seg_split, feature, threshold, n_nodes)
        parents.append(seg_node[sel])
        features.append(feature)
        thresholds.append(threshold)
        node_tree.append(np.repeat(node_tree[-1][sel], 2))
        if mtry < p:
            seg_heap = [h for s in sel for h in (2 * seg_heap[s], 2 * seg_heap[s] + 1)]
        seg_node = n_nodes + np.arange(2 * sel.shape[0])
        n_nodes += 2 * sel.shape[0]

    node_tree = np.concatenate(node_tree)
    node_feature = np.full(n_nodes, -1, dtype=np.int32)
    node_threshold = np.full(n_nodes, np.nan)
    node_left = np.full(n_nodes, -1, dtype=np.int64)
    if parents:
        parents = np.concatenate(parents)
        node_feature[parents] = np.concatenate(features)
        node_threshold[parents] = np.concatenate(thresholds)
        # Children are created in pairs, in parent order.
        node_left[parents] = n_trees + 2 * np.arange(parents.shape[0])

    # Leaf effects from each leaf's estimation rows, summed in draw order.
    group = 2 * est.node + est.arm
    n_est = group.shape[0]
    order = np.argsort(group * n_est + np.arange(n_est))
    counts = np.bincount(group, minlength=2 * n_nodes)
    starts = np.cumsum(counts) - counts
    n0, n1 = counts[0::2], counts[1::2]
    usable = np.flatnonzero((node_feature < 0) & (n1 >= min_t) & (n0 >= min_c))
    leaf_tau = np.full(n_nodes, np.nan)
    y_sorted = y[est.rows[order]]
    leaf_tau[usable] = (
        _run_means(y_sorted, starts[2 * usable + 1], n1[usable])
        - _run_means(y_sorted, starts[2 * usable], n0[usable])
    )

    # Renumber each tree's nodes from 0; ids already run in level order.
    by_tree = np.argsort(node_tree, kind="stable")
    tree_size = np.bincount(node_tree, minlength=n_trees)
    tree_start = np.cumsum(tree_size) - tree_size
    local = np.empty(n_nodes, dtype=np.int32)
    local[by_tree] = np.arange(n_nodes) - tree_start[node_tree[by_tree]]
    inner = node_left >= 0
    left = np.where(inner, local[node_left], -1).astype(np.int32)
    right = np.where(inner, local[node_left + 1], -1).astype(np.int32)
    columns = [
        column[by_tree] for column in (node_feature, node_threshold, left, right, leaf_tau,
                                       n1.astype(np.int32), n0.astype(np.int32))
    ]
    return [
        tuple(column[tree_start[t]:tree_start[t] + tree_size[t]] for column in columns)
        for t in range(n_trees)
    ]
