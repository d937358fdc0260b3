"""The per-tree BART sampler, kept as a test oracle.

``catemeta.bart._Chain.sweep`` updates every tree of a sweep in one loop
body, with the sweep's constants and the per-depth prior terms held in
locals.  This module keeps the sampler it replaced: one ``update_tree``
call per tree, the move as a method, and every marginal-likelihood and
prior term through its own method call.  Both do the same float
operations in the same order on the same streams, so the two must agree
bit for bit; ``tests/test_bart.py`` checks that they do.
"""

import math

import numpy as np

from catemeta.bart import BartParams, BartPosterior
from catemeta.errors import ConfigurationError, EstimationError
from catemeta.model import TrialDataset, check_points
from catemeta.rng import substream

_MOVE_GROW = 0.5
_MOVE_PRUNE = 0.4
# change probability is the remainder, 0.1
_MOVES = ("grow", "prune", "change")
_NU = 3.0  # degrees of freedom of the sigma prior
_CHI2_Q = 0.5843743741551833  # chi2.ppf(1.0 - 0.90, 3.0): Pr(sigma < sd) = 0.90


class _Tree:
    """One tree as flat per-slot lists; pruned slots are reused.  ``feature`` is
    -1 at a leaf; ``[lo, hi)`` is the range of cut indexes a node's box allows
    per column, and ``avail`` lists the columns where it is non-empty (a leaf
    with any is growable).  ``leaf_of`` maps the data rows, then the points,
    to leaf slots; ``count`` and ``mu`` are indexed by slot."""

    def __init__(self, n_rows, n_points, n_cuts):
        self.feature, self.left, self.right, self.parent, self.depth = [-1], [-1], [-1], [-1], [0]
        self.lo, self.hi = [[0] * len(n_cuts)], [list(n_cuts)]
        self.avail = [[f for f, k in enumerate(n_cuts) if k > 0]]
        self.growable = [0] if self.avail[0] else []
        self.prunable, self.free = [], []
        self.leaf_of = np.zeros(n_points, dtype=np.intp)
        self.count = np.array([n_rows, 0, 0, 0])
        self.mu = np.zeros(4)

    def _slot(self):
        if self.free:
            return self.free.pop()
        for column in (self.feature, self.left, self.right, self.parent, self.depth,
                       self.lo, self.hi, self.avail):
            column.append(-1)
        slot = len(self.feature) - 1
        if slot == self.mu.shape[0]:  # the caller redraws every mean
            self.mu = np.zeros(2 * slot)
        return slot

    def set_rule(self, node, f, c):
        """Split ``node`` at (f, c), giving it two fresh leaf children."""
        if self.feature[node] < 0:  # grow
            self.growable.remove(node)
            self.prunable.append(node)
            if self.parent[node] in self.prunable:
                self.prunable.remove(self.parent[node])
            self.left[node], self.right[node] = self._slot(), self._slot()
        else:  # change: the children are leaves
            self.growable = [i for i in self.growable
                             if i != self.left[node] and i != self.right[node]]
        self.feature[node] = f
        for child, lo_f, hi_f in ((self.left[node], self.lo[node][f], c),
                                  (self.right[node], c + 1, self.hi[node][f])):
            self.feature[child], self.left[child], self.right[child] = -1, -1, -1
            self.parent[child], self.depth[child] = node, self.depth[node] + 1
            self.lo[child], self.hi[child] = list(self.lo[node]), list(self.hi[node])
            self.lo[child][f], self.hi[child][f] = lo_f, hi_f
            self.avail[child] = [g for g in self.avail[node] if g != f or lo_f < hi_f]
            if self.avail[child]:
                self.growable.append(child)

    def prune(self, node):
        """Turn ``node``, whose children are leaves, back into a leaf."""
        for child in (self.left[node], self.right[node]):
            if self.avail[child]:
                self.growable.remove(child)
            self.free.append(child)
        self.feature[node], self.left[node], self.right[node] = -1, -1, -1
        self.prunable.remove(node)
        self.growable.append(node)
        parent = self.parent[node]
        if parent >= 0 and (self.feature[self.left[parent]]
                            == self.feature[self.right[parent]] == -1):
            self.prunable.append(parent)


class _Chain:
    """Backfitting sampler state for one study.  ``resid`` is y minus the sum
    of trees on the data rows, then minus the sum of trees at the points."""

    def __init__(self, ranks, n_cuts, y_scaled, params, rng):
        n = y_scaled.shape[0]
        self.n, self.ranks, self.params, self.rng = n, ranks, params, rng
        self.sigma_mu = 0.5 / (params.k * math.sqrt(params.n_trees))
        sd = float(np.std(y_scaled, ddof=1)) if n > 1 else 1.0
        sd = max(sd, 1e-12)
        # lambda places the 0.90 quantile of the sigma prior at the sample sd
        self.lam = sd * sd * _CHI2_Q / _NU
        self.sigma2 = sd * sd
        self.trees = [_Tree(n, ranks.shape[1], n_cuts) for _ in range(params.n_trees)]
        self.resid = np.concatenate([y_scaled, np.zeros(ranks.shape[1] - n)])
        self.proposed = dict.fromkeys(_MOVES, 0)
        self.accepted = dict.fromkeys(_MOVES, 0)

    def _log_prior_ratio(self, depth):
        """Log prior ratio of splitting a leaf at ``depth``, less the rule's
        prior probability, which cancels against the proposal's."""
        ps, ps_child = (self.params.alpha * (1.0 + d) ** -self.params.beta
                        for d in (depth, depth + 1))
        return math.log(ps) + 2.0 * math.log1p(-ps_child) - math.log1p(-ps)

    def _log_marginal(self, rows_sum, count):
        """A leaf's log marginal likelihood, less the terms that cancel in
        every ratio: the row sum of squares and count * log(2 pi sigma2)."""
        return self._lm_const[count] + self._lm_coef[count] * rows_sum * rows_sum

    def _split(self, tree, node, in_node, n_all, s_all, log_rest, u, r):
        """Propose a rule for ``node`` (rows ``in_node``); accept it at log
        ratio ``log_rest`` plus the children's marginals unless a child is empty."""
        avail = tree.avail[node]
        f = avail[int(u[2] * len(avail))]
        lo, hi = tree.lo[node][f], tree.hi[node][f]
        c = lo + int(u[3] * (hi - lo))
        right = in_node & (self.ranks[f] > c)
        n_r = int(np.count_nonzero(right[: self.n]))
        if n_r == 0 or n_r == n_all:
            return False
        s_r = float(r @ right[: self.n])
        log_ratio = (log_rest + self._log_marginal(s_all - s_r, n_all - n_r)
                     + self._log_marginal(s_r, n_r))
        if math.log1p(-u[4]) >= log_ratio:
            return False
        tree.set_rule(node, f, c)
        tree.leaf_of[in_node] = tree.left[node]
        tree.leaf_of[right] = tree.right[node]
        return True

    def _grow(self, tree, leaf, u, counts, sums, r):
        n_all, s_all = counts[leaf], sums[leaf]
        n_prunable = len(tree.prunable) + 1 - (tree.parent[leaf] in tree.prunable)
        log_rest = (self._log_prior_ratio(tree.depth[leaf]) - self._log_marginal(s_all, n_all)
                    + math.log(_MOVE_PRUNE / _MOVE_GROW * len(tree.growable) / n_prunable))
        return self._split(tree, leaf, tree.leaf_of == leaf, n_all, s_all, log_rest, u, r)

    def _prune(self, tree, node, u, counts, sums, r):
        left, right = tree.left[node], tree.right[node]
        n_l, n_r, s_l, s_r = counts[left], counts[right], sums[left], sums[right]
        n_growable = len(tree.growable) + 1 - bool(tree.avail[left]) - bool(tree.avail[right])
        log_ratio = (
            self._log_marginal(s_l + s_r, n_l + n_r) - self._log_marginal(s_l, n_l)
            - self._log_marginal(s_r, n_r) - self._log_prior_ratio(tree.depth[node])
            + math.log(_MOVE_GROW / _MOVE_PRUNE * len(tree.prunable) / n_growable)
        )
        if math.log1p(-u[4]) >= log_ratio:
            return False
        tree.prune(node)
        leaf_of = tree.leaf_of
        leaf_of[(leaf_of == left) | (leaf_of == right)] = node
        return True

    def _change(self, tree, node, u, counts, sums, r):
        left, right = tree.left[node], tree.right[node]
        n_l, n_r, s_l, s_r = counts[left], counts[right], sums[left], sums[right]
        log_rest = -self._log_marginal(s_l, n_l) - self._log_marginal(s_r, n_r)
        in_node = (tree.leaf_of == left) | (tree.leaf_of == right)
        return self._split(tree, node, in_node, n_l + n_r, s_l + s_r, log_rest, u, r)

    def update_tree(self, tree, u):
        """One move, then fresh leaf means.  ``u`` holds five uniforms: move,
        node, the rule's column and cut, and acceptance."""
        n, resid, leaf_of = self.n, self.resid, tree.leaf_of
        resid += tree.mu[leaf_of]
        r = resid[:n]
        sums = np.bincount(leaf_of[:n], weights=r, minlength=tree.mu.shape[0])
        if u[0] < _MOVE_GROW:
            move, nodes, step = "grow", tree.growable, self._grow
        elif u[0] < _MOVE_GROW + _MOVE_PRUNE:
            move, nodes, step = "prune", tree.prunable, self._prune
        else:
            move, nodes, step = "change", tree.prunable, self._change
        self.proposed[move] += bool(nodes)
        if nodes and step(tree, nodes[int(u[1] * len(nodes))], u, tree.count.tolist(),
                          sums.tolist(), r):
            self.accepted[move] += 1
            size = tree.mu.shape[0]
            tree.count = np.bincount(leaf_of[:n], minlength=size)
            sums = np.bincount(leaf_of[:n], weights=r, minlength=size)
        noise = self.rng.standard_normal(sums.shape[0])
        tree.mu = sums * self._shrink[tree.count] + self._post_sd[tree.count] * noise
        resid -= tree.mu[leaf_of]

    def sweep(self):
        """Update every tree once, then the error variance."""
        # A leaf of c rows: mu has posterior mean shrink[c] * sum, sd post_sd[c].
        s2, sm2 = self.sigma2, self.sigma_mu**2
        denom = s2 + np.arange(self.n + 1) * sm2
        self._shrink = sm2 / denom
        self._post_sd = np.sqrt(s2 * self._shrink)
        self._lm_const = (0.5 * np.log(s2 / denom)).tolist()
        self._lm_coef = (self._shrink / (2.0 * s2)).tolist()
        for tree, u in zip(self.trees, self.rng.random((len(self.trees), 5)).tolist()):
            self.update_tree(tree, u)
        err = self.resid[: self.n]
        shape = _NU + self.n
        scale = _NU * self.lam + float(err @ err)
        self.sigma2 = scale / float(self.rng.chisquare(shape))


def fit_bart_reference(
    dataset: TrialDataset,
    points: np.ndarray,
    params: BartParams,
) -> BartPosterior:
    """Sample the sum-of-trees posterior and record draws at every point/arm.

    The model input is (x, a): covariates plus the treatment indicator as an
    extra column.  For each row x* of ``points`` (P, p) both counterfactual
    inputs (x*, 0) and (x*, 1) are registered, and the posterior function
    draws at those inputs are stored in outcome units: row i's arms are draw
    columns 2i and 2i + 1.  Deterministic given ``params.seed``.  The points
    are checked by ``model.check_points``.
    """
    p = dataset.n_covariates
    points = check_points(points, p)
    if not points.size:
        raise ConfigurationError("at least one point must be registered")
    y = dataset.y
    y_min, y_max = float(y.min()), float(y.max())
    y_range = (y_max - y_min) or 1.0
    if math.isinf(y_range):
        raise EstimationError(f"study {dataset.study_id}: the outcome range overflows")
    y_scaled = (y - y_min) / y_range - 0.5

    z = np.column_stack([dataset.x, dataset.a.astype(np.float64)])
    eval_points = np.repeat(np.column_stack([points, np.zeros(len(points))]), 2, axis=0)
    eval_points[1::2, p] = 1.0

    # Cut c of column j is its c-th smallest distinct value, and a value's
    # rank counts the distinct values below it: v <= cut c iff rank <= c.
    stacked = np.vstack([z, eval_points])
    ranks = np.empty((z.shape[1], stacked.shape[0]), dtype=np.intp)
    n_cuts = []
    for j in range(z.shape[1]):
        values = np.unique(z[:, j])
        n_cuts.append(values.shape[0] - 1)
        ranks[j] = np.searchsorted(values, stacked[:, j], "left")

    chain = _Chain(ranks, n_cuts, y_scaled, params, substream(params.seed, "bart-chain"))
    n = y.shape[0]
    draws = np.empty((params.n_draws, eval_points.shape[0]))
    leaf_counts = np.empty((params.n_draws, params.n_trees), dtype=np.int64)
    for it in range(params.n_burn + params.n_draws):
        chain.sweep()
        if it >= params.n_burn:
            draws[it - params.n_burn] = (0.5 - chain.resid[n:]) * y_range + y_min
            leaf_counts[it - params.n_burn] = [  # L leaves use 2L - 1 slots
                (len(tree.feature) - len(tree.free) + 1) // 2 for tree in chain.trees]
    draws.setflags(write=False)
    return BartPosterior(
        study_id=dataset.study_id,
        draws=draws,
        params=params,
        diagnostics={"proposed": chain.proposed, "accepted": chain.accepted,
                     "leaf_counts": leaf_counts},
    )
