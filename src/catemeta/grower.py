"""Level-synchronous growth of the causal trees of a forest.

Splits maximize the heterogeneity criterion sum_children n_child *
tau_child^2, where tau_child is the treated-minus-control mean outcome
difference in the child, and each child must keep ``MIN_LEAF`` = 5 split
rows of each arm.  The trees given (a batch of a forest) grow one
depth at a time, and each depth is one split search over every open node
of every tree, as in breadth-first boosting with batched nodes.  Only the
entries of the nodes being searched go on to the next depth
(:class:`_Entries`).  The searched nodes' split rows are sorted by each
covariate with more than two values, node by node, with ties in draw
order.  The search lays the nodes out as the rows of padded arrays, one
covariate at a time, and takes running sums along each row.  A two-valued
covariate has one candidate threshold per node, so it is neither sorted
nor padded: per-node counts and outcome sums over its lower value and over
all rows, taken with ``np.bincount`` in (node, value, row) order, score
that one split (:func:`_count_splits`).  A constant covariate is never
searched.  That is the same arithmetic in the same order as searching each
node on its own, with the same tie-break (lowest covariate index, then
smallest threshold), so a tree does not depend on the trees grown beside
it.  Outcomes near the float range can make a criterion NaN (inf - inf);
``argmax`` then picks the first NaN in that same order, as the one-node
grower of the tests does.  In honest mode a split must also leave
``MIN_LEAF`` estimation rows of each arm on both sides; for each node and
covariate the thresholds that do form one interval
(:meth:`_Entries.threshold_bounds`).

A split threshold is the midpoint of two consecutive distinct values
``lo < hi``, unless rounding or overflow puts the midpoint outside
``[lo, hi)`` (adjacent doubles, values near the float range); it is then
``lo``.  Either way ``x <= threshold`` separates the two values.
"""

from __future__ import annotations

import numpy as np

# Rows of each arm that a usable leaf needs, among its split rows and, in
# honest mode, its estimation rows.
MIN_LEAF = 5
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


class _Entries:
    """One row set (split or estimation rows) of every tree in a batch.

    Every entry belongs to an open node, one still being searched: the open
    nodes are the segments ``0 .. S-1``, each in its tree's order, and
    :meth:`keep` is the one place that closes segments and drops their
    entries.  Entry ``e`` is row ``rows[e]`` of segment ``seg[e]``; entries
    run tree by tree and, within a tree, in subsample draw order.
    ``seg_len`` and ``seg_treated`` count each segment's entries and treated
    entries.  Dropped entries end in the leaves they were in, so ``node``
    and ``all_rows`` keep every entry the row set started with: starting
    entry ``i`` is row ``all_rows[i]`` in node ``node[i]``, and ``index[e]``
    is entry ``e``'s starting position ``i``.
    """

    def __init__(self, row_sets, a):
        sizes = [rows.shape[0] for rows in row_sets]
        self.all_rows = self.rows = np.concatenate(row_sets)
        self.arm = a[self.rows]
        self.index = np.arange(self.rows.shape[0])
        self.node = np.repeat(np.arange(len(row_sets)), sizes)
        self.seg = self.node.copy()
        self.seg_len = np.array(sizes)
        self.seg_treated = np.bincount(self.seg, weights=self.arm, minlength=len(sizes))

    def keep(self, kept):
        """Close the segments where ``kept`` is False and drop their entries.

        The other entries keep their order, and their segments are
        renumbered ``0 .. S-1`` in order.
        """
        ent, segs = np.flatnonzero(kept[self.seg]), np.flatnonzero(kept)
        self.rows, self.arm, self.index = self.rows[ent], self.arm[ent], self.index[ent]
        self.seg = (np.cumsum(kept) - 1)[self.seg[ent]]
        self.seg_len, self.seg_treated = self.seg_len[segs], self.seg_treated[segs]

    def sort_by(self, ranks, n_values):
        """Per covariate ``j``, the entries sorted by it within each segment.

        The entries come segment by segment, each segment sorted by
        covariate ``j`` with ties in entry order.  Only covariates with more
        than two values are sorted; the others get None, as
        :func:`_count_splits` searches a two-valued covariate and a constant
        one is never searched.
        """
        # (segment, rank, entry) keys are distinct, so any sort orders them
        # stably.  They fit in int64 for studies of up to about 5e6 rows.
        n = self.rows.shape[0]
        ent = np.arange(n)
        return [np.argsort((self.seg * n_values[j] + ranks[j][self.rows]) * n + ent)
                if n_values[j] > 2 else None for j in range(len(n_values))]

    def split(self, x, found, feature, threshold, first_child):
        """Close the segments where ``found`` is False and split the others.

        Split ``k``, the ``k``-th segment where ``found`` holds, sends
        ``x <= threshold[k]`` on ``feature[k]`` to segment ``2k`` (node
        ``first_child + 2k``) and the rest to segment ``2k + 1``.
        """
        self.keep(found)
        n_seg = 2 * feature.shape[0]
        k = self.seg
        self.seg = 2 * k + (x[self.rows, feature[k]] > threshold[k])
        self.node[self.index] = first_child + self.seg
        self.seg_len = np.bincount(self.seg, minlength=n_seg)
        self.seg_treated = np.bincount(self.seg, weights=self.arm, minlength=n_seg)

    def threshold_bounds(self, ranks, n_values):
        """Per covariate ``j``, ranks ``(low, high)`` for each segment.

        ``ranks[j]`` ranks the study's rows by covariate ``j``, which has
        ``n_values[j]`` distinct values.  A threshold ``t`` leaves at least
        ``MIN_LEAF`` of each arm of the segment's entries on both sides
        exactly when ``values[low] <= t < values[high]``: ``low`` is the
        larger rank of the ``MIN_LEAF``-th treated and the ``MIN_LEAF``-th
        control entry from below, ``high`` the smaller of the same from
        above.  Each segment must hold twice the minimum of each arm.  A
        constant covariate gets None.  For a two-valued one, ``low`` is 0
        exactly when the rank-0 entries hold the minimum of both arms, and
        ``high`` is 1 exactly when the rank-1 entries do.
        """
        seg, rows, arm = self.seg, self.rows, self.arm
        n_seg = self.seg_len.shape[0]
        # Sorted by (segment, rank), every covariate has the same segment
        # blocks, so the targets below are the same for all of them.
        t_before = np.cumsum(self.seg_treated) - self.seg_treated
        c_before = np.cumsum(self.seg_len) - self.seg_len - t_before
        targets = (t_before + MIN_LEAF, c_before + MIN_LEAF,
                   t_before + self.seg_treated - MIN_LEAF + 1,
                   c_before + self.seg_len - self.seg_treated - MIN_LEAF + 1)
        counts = np.arange(1, seg.shape[0] + 1)
        bounds = []
        for rank, n in zip(ranks, n_values):
            if n == 1:
                bounds.append(None)
                continue
            if n == 2:
                # cells[s, r, arm]: segment s's entries of rank r in that arm.
                cells = np.bincount((seg * 2 + rank[rows]) * 2 + arm,
                                    minlength=4 * n_seg).reshape(n_seg, 2, 2)
                holds = cells.min(axis=2) >= MIN_LEAF
                bounds.append((np.where(holds[:, 0], 0, 1), np.where(holds[:, 1], 1, 0)))
                continue
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


def _criterion(n_left, n_right, n1_left, treated, left1, left0, total1, total0):
    """``(ok, crit)`` of candidate splits from their left and total sums.

    ``crit = n_left * tau_left**2 + n_right * tau_right**2``, computed in
    place; ``left1`` and ``left0`` sum the outcomes of the left child's
    treated and control entries, and ``total1`` and ``total0`` those of the
    whole segment.  ``ok`` holds where both children keep ``MIN_LEAF`` rows
    of each arm.
    """
    n0_left = n_left - n1_left
    n1_right = treated - n1_left
    n0_right = n_right - n1_right
    ok = (
        (n1_left >= MIN_LEAF)
        & (n0_left >= MIN_LEAF)
        & (n1_right >= MIN_LEAF)
        & (n0_right >= MIN_LEAF)
    )
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        crit = left1 / n1_left
        crit -= left0 / n0_left
        crit *= crit
        crit *= n_left
        tau_right = total1 - left1
        tau_right /= n1_right
        tau_right -= (total0 - left0) / n0_right
        tau_right *= tau_right
        tau_right *= n_right
        crit += tau_right
    return ok, crit


def _best_splits(split, order, starts, group, y1, y0, values, ranks, bounds):
    """Search segments ``group`` of ``split`` for their best admissible split.

    ``order`` is :meth:`_Entries.sort_by` of ``split``, and segment ``s``
    starts at ``starts[s]`` in it.  Returns ``(best, threshold)``: per
    segment of the group and covariate, the best criterion and its
    threshold, or -inf where no split is admissible.  Covariates that
    ``sort_by`` left unsorted stay at -inf (see :func:`_count_splits`).  A
    split is admissible when both children keep ``MIN_LEAF`` rows of each
    arm in the split set and, in honest mode, in the estimation set as well:
    there ``bounds[j]`` holds the estimation set's threshold bounds for
    covariate ``j`` (see :meth:`_Entries.threshold_bounds`), else
    ``bounds`` is None.
    ``y1`` and ``y0`` are each split entry's outcome times its treatment and
    control indicator.  Ties on the criterion break to the smallest
    threshold.

    Segment ``r`` is row ``r`` of a padded array; positions past its end
    hold other segments' entries, and their running treated count
    leaves no treated rows to the right, so the minimum rejects them.
    """
    starts = starts[group]
    lens = split.seg_len[group]
    width = lens.max()
    at = starts[:, None] + np.arange(width)
    rows = np.arange(group.shape[0])
    last = lens - 1
    n_left = np.arange(1.0, width)
    n_right = lens[:, None] - n_left
    treated = split.seg_treated[group][:, None]
    p = len(values)
    best = np.full((group.shape[0], p), -np.inf)
    best_threshold = np.empty((group.shape[0], p))
    for j in range(p):
        if order[j] is None:
            continue
        ent = np.take(order[j], at, mode="clip")
        rank = ranks[j][split.rows[ent]]
        n1_left = np.cumsum(split.arm[ent], axis=1, dtype=np.float64)[:, :-1]
        cy1 = np.cumsum(y1[ent], axis=1)
        cy0 = np.cumsum(y0[ent], axis=1)
        ok, crit = _criterion(n_left, n_right, n1_left, treated, cy1[:, :-1], cy0[:, :-1],
                              cy1[rows, last][:, None], cy0[rows, last][:, None])
        ok &= rank[:, :-1] < rank[:, 1:]
        thr = _midpoint(values[j][rank[:, :-1]], values[j][rank[:, 1:]])
        if bounds is not None:
            low, high = bounds[j][0][group], bounds[j][1][group]
            ok &= (values[j][low][:, None] <= thr) & (thr < values[j][high][:, None])
        crit = np.where(ok, crit, -np.inf)
        i = crit.argmax(axis=1)
        best[:, j] = crit[rows, i]
        best_threshold[:, j] = thr[rows, i]
    return best, best_threshold


def _count_splits(split, y, values, ranks, bounds, best, best_threshold):
    """Score the one split of each two-valued covariate in every segment.

    Writes the criterion, or -inf where the split is not admissible, into
    ``best[:, j]`` and its threshold into ``best_threshold[:, j]``, beside
    :func:`_best_splits`' results.  The entries are taken rank-0 first, each
    rank in entry order, so one weighted ``np.bincount`` per segment and arm
    sums the outcomes left of the split and another carries on to the
    segment's total.  These are the padded scan's running sums at its one
    admissible position, less the zero terms of the other arm, which can
    change only the sign of a zero that the criterion squares away.
    """
    two_valued = [j for j, v in enumerate(values) if v.shape[0] == 2]
    if not two_valued:
        return
    rows = split.rows
    key = split.seg * 2 + split.arm
    y_ent = y[rows]
    n_bins = 2 * split.seg_len.shape[0]
    for j in two_valued:
        rank = ranks[j][rows]
        lower = np.flatnonzero(rank == 0)
        # Index gathers: a random boolean mask gathers several times slower.
        by_rank = np.concatenate([lower, np.flatnonzero(rank)])
        k, w = key[by_rank], y_ent[by_rank]
        m = lower.shape[0]
        counts = np.bincount(k[:m], minlength=n_bins).reshape(-1, 2).astype(np.float64)
        left = np.bincount(k[:m], weights=w[:m], minlength=n_bins).reshape(-1, 2)
        total = np.bincount(k, weights=w, minlength=n_bins).reshape(-1, 2)
        n_left = counts[:, 0] + counts[:, 1]
        ok, crit = _criterion(n_left, split.seg_len - n_left, counts[:, 1], split.seg_treated,
                              left[:, 1], left[:, 0], total[:, 1], total[:, 0])
        thr = _midpoint(values[j][0], values[j][1])
        if bounds is not None:
            low, high = bounds[j]
            ok &= (values[j][low] <= thr) & (thr < values[j][high])
        best[:, j] = np.where(ok, crit, -np.inf)
        best_threshold[:, j] = thr


def run_stat(values, starts, lengths, stat):
    """``stat`` of ``values[start:start + length]`` per run.

    ``stat`` is a numpy reduction such as ``np.mean``, called with
    ``axis=1``.  Runs of equal length are reduced as the rows of one array,
    which numpy reduces exactly as it reduces each run on its own.
    """
    out = np.empty(starts.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):  # values near the float range
        for length in np.unique(lengths):
            runs = np.flatnonzero(lengths == length)
            out[runs] = stat(values[starts[runs, None] + np.arange(length)], axis=1)
    return out


def grow_trees(x, y, a, values, ranks, samples, honest):
    """Grow one tree per ``(split_rows, est_rows)`` sample, one depth at a time.

    ``honest`` trees choose their splits on the split rows and estimate
    their leaves on the estimation rows; other trees use the split rows for
    both.  ``values[j]`` holds the distinct values of covariate ``j`` in
    ascending order and ``ranks[j]`` each row's index into them.  Returns, per tree,
    its node arrays ``(feature, threshold, left, right, leaf_tau,
    leaf_n_treated, leaf_n_control)``, nodes numbered in level order.
    """
    p = x.shape[1]
    n_values = [v.shape[0] for v in values]
    split = _Entries([s for s, _ in samples], a)
    est = _Entries([e for _, e in samples], a) if honest else split
    row_sets = (split, est) if honest else (split,)

    n_trees = len(samples)
    seg_node = np.arange(n_trees)
    node_tree = [np.arange(n_trees)]
    n_nodes = n_trees
    parents, features, thresholds = [], [], []
    while p and seg_node.shape[0]:
        # Only a node with enough rows of each arm for two children is searched.
        can_split = np.ones(seg_node.shape[0], dtype=bool)
        for entries in row_sets:
            can_split &= (entries.seg_treated >= 2 * MIN_LEAF) & (
                entries.seg_len - entries.seg_treated >= 2 * MIN_LEAF
            )
        if not can_split.any():
            break
        for entries in row_sets:
            entries.keep(can_split)
        seg_node = seg_node[can_split]
        bounds = est.threshold_bounds(ranks, n_values) if honest else None
        best = np.full((seg_node.shape[0], p), -np.inf)
        best_threshold = np.empty((seg_node.shape[0], p))
        order = split.sort_by(ranks, n_values)
        y1 = y[split.rows] * split.arm
        y0 = y[split.rows] * (1 - split.arm)
        starts = np.cumsum(split.seg_len) - split.seg_len
        with np.errstate(over="ignore"):  # running outcome sums near the float range
            for group in _search_groups(split.seg_len):
                best[group], best_threshold[group] = _best_splits(
                    split, order, starts, group, y1, y0, values, ranks, bounds)
        _count_splits(split, y, values, ranks, bounds, best, best_threshold)
        # Ties on the criterion break to the lowest covariate index.
        feature = best.argmax(axis=1)
        at = np.arange(seg_node.shape[0])
        found = best[at, feature] != -np.inf
        if not found.any():
            break
        feature, threshold = feature[found], best_threshold[at, feature][found]
        for entries in row_sets:
            entries.split(x, found, feature, threshold, n_nodes)
        parents.append(seg_node[found])
        features.append(feature)
        thresholds.append(threshold)
        node_tree.append(np.repeat(node_tree[-1][can_split][found], 2))
        seg_node = n_nodes + np.arange(2 * feature.shape[0])
        n_nodes += 2 * feature.shape[0]

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
    group = 2 * est.node + a[est.all_rows]
    n_est = group.shape[0]
    order = np.argsort(group * n_est + np.arange(n_est))
    counts = np.bincount(group, minlength=2 * n_nodes)
    starts = np.cumsum(counts) - counts
    n0, n1 = counts[0::2], counts[1::2]
    usable = np.flatnonzero((node_feature < 0) & (n1 >= MIN_LEAF) & (n0 >= MIN_LEAF))
    leaf_tau = np.full(n_nodes, np.nan)
    y_sorted = y[est.all_rows[order]]
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN leaf, skipped by predictions
        leaf_tau[usable] = (
            run_stat(y_sorted, starts[2 * usable + 1], n1[usable], np.mean)
            - run_stat(y_sorted, starts[2 * usable], n0[usable], np.mean)
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
