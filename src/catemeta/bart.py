"""Stage-1 CATE estimation with a Bayesian additive regression trees S-learner.

One sum-of-trees model is fit over z = (covariates, treatment) by
backfitting MCMC with grow/prune/change proposals and conjugate updates for
leaf means and the error variance (Chipman, George & McCulloch 2010, *Ann.
Appl. Stat.*).  Outcomes are rescaled to [-0.5, 0.5] before sampling (the
usual convention that makes the default priors reasonable) and de-scaled
on output.

The error variance has the scaled inverse-chi-square prior nu * lambda /
chi2_nu with nu = 3, and lambda places the q = 0.90 quantile of sigma at the
sample sd of the scaled outcome: lambda = sd^2 * chi2_{3}^{-1}(0.10) / 3.
These are the defaults of Chipman, George & McCulloch, fixed here; the
chi-square quantile is the constant ``_CHI2_Q``, the value that
``scipy.stats.chi2.ppf(1.0 - 0.90, 3.0)`` returns (1.0 - 0.90 is
0.09999999999999998, not 0.1), so no SciPy module is loaded.

The cutpoints of a column of z are all its distinct values but the largest
(``numcut`` at its maximum in the BART R package), found once per study.
Data rows and evaluation points carry a rank per column, so "z <= cut c
goes left" is "rank <= c" for both.  A rule is a column drawn uniformly
among those where the node's box allows a cut, then a cut drawn uniformly
in that range; it reads no data.  A grow or change that would leave a child
with no data rows is rejected: the chain targets the prior restricted to
non-empty leaves.  Each tree maps the data rows, then the evaluation
points, to leaves in one index vector; leaf statistics come from
``np.bincount``.

The CATE at a profile is obtained by differencing the posterior function at
treatment 1 and treatment 0.  Two interval constructions are supported:
a normal approximation that adds the two arm variances (the conservative
default) and empirical quantiles of the per-draw differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, EstimationError
from .model import TrialDataset, check_integers, check_points, check_seed
from .rng import substream

_MOVE_GROW = 0.5
_MOVE_PRUNE = 0.4
# change probability is the remainder, 0.1
_MOVES = ("grow", "prune", "change")
_NU = 3.0  # degrees of freedom of the sigma prior
_CHI2_Q = 0.5843743741551833  # chi2.ppf(1.0 - 0.90, 3.0): Pr(sigma < sd) = 0.90


@dataclass(frozen=True)
class BartParams:
    n_trees: int = 50
    n_burn: int = 500
    n_draws: int = 1000
    alpha: float = 0.95
    beta: float = 2.0
    k: float = 2.0
    seed: int = 0

    def __post_init__(self):
        check_integers(self, "n_trees", "n_burn", "n_draws", "seed")
        if min(self.n_trees, self.n_burn) < 1 or self.n_draws < 2:
            # se2 is a sample variance across draws, so it needs two of them.
            raise ConfigurationError("tree and burn counts must be >= 1, draws >= 2")
        if not (0.0 < self.alpha < 1.0) or not (0.0 < self.beta < math.inf):
            raise ConfigurationError("tree prior requires alpha in (0,1) and a finite beta > 0")
        if not (0.0 < self.k < math.inf):
            raise ConfigurationError("leaf prior requires a finite k > 0")
        try:  # the leaf prior's variance, as the chain computes it
            leaf_var = (0.5 / (float(self.k) * math.sqrt(self.n_trees))) ** 2
        except OverflowError:
            leaf_var = math.inf
        if not (0.0 < leaf_var < math.inf):
            raise ConfigurationError(
                f"leaf prior: k = {self.k} with n_trees = {self.n_trees} gives a leaf variance "
                "(0.5 / (k sqrt(n_trees)))**2 that is not a finite positive float")
        check_seed(self, "seed")


@dataclass(frozen=True)
class BartPosterior:
    """Posterior function draws at the evaluation points.

    ``draws`` has one row per kept MCMC iteration and, for the i-th point,
    columns 2i (treatment 0) and 2i + 1 (treatment 1), already de-scaled to
    outcome units.  ``diagnostics`` holds the ``proposed`` and ``accepted``
    counts of each move kind and the ``(n_draws, n_trees)`` ``leaf_counts``
    of the kept draws.
    """

    study_id: int
    draws: np.ndarray
    params: BartParams
    diagnostics: dict = field(default_factory=dict)


def _log_split_prior(alpha, beta, depth):
    """Log prior ratio of splitting a leaf at ``depth``, less the rule's
    prior probability, which cancels against the proposal's.  Where the
    split probability underflows to 0 the ratio is -inf: no grow there is
    accepted, so no node there is ever pruned."""
    ps, ps_child = (alpha * (1.0 + d) ** -beta for d in (depth, depth + 1))
    if ps == 0.0:
        return -math.inf
    return math.log(ps) + 2.0 * math.log1p(-ps_child) - math.log1p(-ps)


class _Tree:
    """One tree as flat per-slot lists; pruned slots are reused.  ``feature`` is
    -1 at a leaf; ``[lo, hi)`` is the range of cut indexes a node's box allows
    per column, and ``avail`` lists the columns where it is non-empty (a leaf
    with any is growable).  ``leaf_of`` maps the data rows, then the points,
    to leaf slots, and ``rows`` is its data-row part.  ``mu`` and ``count``,
    each slot's data rows (also as the list ``counts``, which the caller keeps
    up to date), are indexed by slot."""

    __slots__ = ("feature", "left", "right", "parent", "depth", "lo", "hi", "avail", "growable",
                 "prunable", "free", "leaf_of", "rows", "counts", "count", "mu")

    def __init__(self, n_rows, n_points, n_cuts):
        self.feature, self.left, self.right, self.parent, self.depth = [-1], [-1], [-1], [-1], [0]
        self.lo, self.hi = [[0] * len(n_cuts)], [list(n_cuts)]
        self.avail = [[f for f, k in enumerate(n_cuts) if k > 0]]
        self.growable = [0] if self.avail[0] else []
        self.prunable, self.free = [], []
        self.leaf_of = np.zeros(n_points, dtype=np.intp)
        self.rows = self.leaf_of[:n_rows]
        self.counts = [n_rows, 0, 0, 0]
        self.count = np.array(self.counts)
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
            self.counts += [0] * slot
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
    of trees on the data rows, then minus the sum of trees at the points.
    ``leaves`` holds each tree's leaf count, and ``prior`` the log split prior
    ratio of each depth reached so far."""

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
        self.leaves = [1] * params.n_trees
        self.prior = []
        self.resid = np.concatenate([y_scaled, np.zeros(ranks.shape[1] - n)])
        self.proposed = dict.fromkeys(_MOVES, 0)
        self.accepted = dict.fromkeys(_MOVES, 0)

    def sweep(self):
        """Update every tree once, then the error variance.

        A tree update adds the tree back into the residual, sums the residual
        over its leaves, makes one move, draws fresh leaf means and takes the
        tree out of the residual again.  The move reads five uniforms: move,
        node, the rule's column and cut, and acceptance.  A grow or change
        proposes a rule for ``node`` (rows ``in_node``) at log ratio
        ``log_rest`` plus the children's marginals, unless a child is empty.
        """
        n, ranks, resid, params = self.n, self.ranks, self.resid, self.params
        r = resid[:n]
        # A leaf of c rows with residual sum s: mu has posterior mean
        # shrink[c] * s and sd post_sd[c], and the log marginal likelihood
        # lm_const[c] + lm_coef[c] * s * s, less the terms that cancel in every
        # ratio: the row sum of squares and c * log(2 pi sigma2).
        s2, sm2 = self.sigma2, self.sigma_mu**2
        denom = s2 + np.arange(n + 1) * sm2
        shrink = sm2 / denom
        post_sd = np.sqrt(s2 * shrink)
        lm_const = (0.5 * np.log(s2 / denom)).tolist()
        lm_coef = (shrink / (2.0 * s2)).tolist()
        grow_odds, prune_odds = _MOVE_PRUNE / _MOVE_GROW, _MOVE_GROW / _MOVE_PRUNE
        prior, leaves, proposed, accepted = self.prior, self.leaves, self.proposed, self.accepted
        bincount, count_nonzero, normal = np.bincount, np.count_nonzero, self.rng.standard_normal
        log, log1p = math.log, math.log1p
        uniforms = self.rng.random((len(self.trees), 5)).tolist()
        for t, (tree, (u_move, u_node, u_col, u_cut, u_accept)) in enumerate(
                zip(self.trees, uniforms)):
            leaf_of, rows, counts = tree.leaf_of, tree.rows, tree.counts
            resid += tree.mu[leaf_of]
            sums = bincount(rows, r, tree.mu.shape[0])
            move, moved = None, False
            if u_move < _MOVE_GROW:
                nodes = tree.growable
                if nodes:
                    move = "grow"
                    node = nodes[int(u_node * len(nodes))]
                    n_all, s_all = counts[node], sums.tolist()[node]
                    depth, prunable = tree.depth[node], tree.prunable
                    if depth == len(prior):
                        prior.append(_log_split_prior(params.alpha, params.beta, depth))
                    log_rest = (prior[depth] - (lm_const[n_all] + lm_coef[n_all] * s_all * s_all)
                                + log(grow_odds * len(nodes)
                                      / (len(prunable) + 1 - (tree.parent[node] in prunable))))
                    in_node = leaf_of == node
            else:
                nodes = tree.prunable
                if nodes:
                    node = nodes[int(u_node * len(nodes))]
                    left, right = tree.left[node], tree.right[node]
                    sum_list = sums.tolist()
                    n_l, n_r = counts[left], counts[right]
                    s_l, s_r = sum_list[left], sum_list[right]
                    n_all, s_all = n_l + n_r, s_l + s_r
                    if u_move < _MOVE_GROW + _MOVE_PRUNE:
                        proposed["prune"] += 1
                        n_growable = (len(tree.growable) + 1
                                      - bool(tree.avail[left]) - bool(tree.avail[right]))
                        log_ratio = ((lm_const[n_all] + lm_coef[n_all] * s_all * s_all)
                                     - (lm_const[n_l] + lm_coef[n_l] * s_l * s_l)
                                     - (lm_const[n_r] + lm_coef[n_r] * s_r * s_r)
                                     - prior[tree.depth[node]]
                                     + log(prune_odds * len(nodes) / n_growable))
                        if log1p(-u_accept) < log_ratio:
                            tree.prune(node)
                            leaf_of[(leaf_of == left) | (leaf_of == right)] = node
                            counts[node], counts[left], counts[right] = n_all, 0, 0
                            accepted["prune"] += 1
                            leaves[t] -= 1
                            moved = True
                    else:
                        move = "change"
                        log_rest = (-(lm_const[n_l] + lm_coef[n_l] * s_l * s_l)
                                    - (lm_const[n_r] + lm_coef[n_r] * s_r * s_r))
                        in_node = (leaf_of == left) | (leaf_of == right)
            if move is not None:
                proposed[move] += 1
                avail = tree.avail[node]
                f = avail[int(u_col * len(avail))]
                lo = tree.lo[node][f]
                c = lo + int(u_cut * (tree.hi[node][f] - lo))
                goes_right = in_node & (ranks[f] > c)
                n_r = int(count_nonzero(goes_right[:n]))
                if 0 < n_r < n_all:
                    s_r = float(r @ goes_right[:n])
                    n_l, s_l = n_all - n_r, s_all - s_r
                    log_ratio = (log_rest + (lm_const[n_l] + lm_coef[n_l] * s_l * s_l)
                                 + (lm_const[n_r] + lm_coef[n_r] * s_r * s_r))
                    if log1p(-u_accept) < log_ratio:
                        tree.set_rule(node, f, c)
                        left, right = tree.left[node], tree.right[node]
                        leaf_of[in_node] = left
                        leaf_of[goes_right] = right
                        counts[node], counts[left], counts[right] = 0, n_l, n_r
                        accepted[move] += 1
                        if move == "grow":
                            leaves[t] += 1
                        moved = True
            if moved:
                tree.count = np.array(counts)
                sums = bincount(rows, r, tree.mu.shape[0])  # a grow may have reallocated mu
            count = tree.count
            mu = sums * shrink[count]
            mu += post_sd[count] * normal(sums.shape[0])
            tree.mu = mu
            resid -= mu[leaf_of]
        err = self.resid[: self.n]
        shape = _NU + self.n
        scale = _NU * self.lam + float(err @ err)
        self.sigma2 = scale / float(self.rng.chisquare(shape))


def fit_bart_slearner(
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

    n = y.shape[0]
    # Allocated before the chain, so that a draw count numpy refuses stops here.
    try:
        draws = np.empty((params.n_draws, eval_points.shape[0]))
        leaf_counts = np.empty((params.n_draws, params.n_trees), dtype=np.int64)
    except (ValueError, MemoryError) as err:
        raise ConfigurationError(
            f"n_draws = {params.n_draws}: cannot allocate the kept draws "
            f"({eval_points.shape[0]} values and {params.n_trees} leaf counts each): {err}"
        ) from None
    chain = _Chain(ranks, n_cuts, y_scaled, params, substream(params.seed, "bart-chain"))
    for it in range(params.n_burn + params.n_draws):
        chain.sweep()
        if it >= params.n_burn:
            draws[it - params.n_burn] = (0.5 - chain.resid[n:]) * y_range + y_min
            leaf_counts[it - params.n_burn] = chain.leaves
    draws.setflags(write=False)
    return BartPosterior(
        study_id=dataset.study_id,
        draws=draws,
        params=params,
        diagnostics={"proposed": chain.proposed, "accepted": chain.accepted,
                     "leaf_counts": leaf_counts},
    )


def bart_cates(posterior: BartPosterior, level: float = 0.95):
    """CATE arrays over the evaluation points, in row order.

    Returns ``(tau, se2, lower, upper)``.  tau_hat is the difference of the
    posterior-mean outcomes under the two arms; se2 is the sum of the two
    arms' sample variances across draws, treating the arms as uncorrelated
    (the conservative choice).  lower and upper are the ((1-level)/2,
    1-(1-level)/2) quantiles of the per-draw differences f(x,1) - f(x,0),
    with linear interpolation between order statistics.
    """
    if not (0.0 < level < 1.0):
        raise ValueError("level must be in (0, 1)")
    # One contiguous row per point: each row reduces exactly like a 1-d column.
    f1 = np.ascontiguousarray(posterior.draws[:, 1::2].T)
    f0 = np.ascontiguousarray(posterior.draws[:, 0::2].T)
    tail = (1.0 - level) / 2.0
    # Draws near the end of the float range overflow these to inf or NaN; the
    # checks downstream name the study.
    with np.errstate(over="ignore", invalid="ignore"):
        tau = f1.mean(axis=1) - f0.mean(axis=1)
        se2 = np.var(f1, axis=1, ddof=1) + np.var(f0, axis=1, ddof=1)
        lower, upper = np.quantile(f1 - f0, [tail, 1.0 - tail], axis=1, method="linear")
    return tau, se2, lower, upper
