"""Stage-1 CATE estimation with a Bayesian additive regression trees S-learner.

A single sum-of-trees model is fit over the inputs (covariates, treatment)
by backfitting MCMC with grow/prune/change proposals and conjugate updates
for leaf means and the error variance.  Outcomes are rescaled to
[-0.5, 0.5] before sampling (the usual convention that makes the default
priors reasonable) and de-scaled on output.

The CATE at a profile is obtained by differencing the posterior function at
treatment 1 and treatment 0.  Two interval constructions are supported:
a normal approximation that adds the two arm variances (the conservative
default) and empirical quantiles of the per-draw differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.stats import chi2

from .errors import ConfigurationError, DimensionMismatchError
from .model import CovariateProfile, StudyCateEstimate, TrialDataset
from .rng import substream

_MOVE_GROW = 0.5
_MOVE_PRUNE = 0.4
# change probability is the remainder, 0.1


@dataclass(frozen=True)
class BartParams:
    n_trees: int = 50
    n_burn: int = 500
    n_draws: int = 1000
    alpha: float = 0.95
    beta: float = 2.0
    k: float = 2.0
    nu: float = 3.0
    q: float = 0.90
    seed: int = 0

    def __post_init__(self):
        if min(self.n_trees, self.n_burn) < 1 or self.n_draws < 2:
            # se2 is a sample variance across draws, so it needs two of them.
            raise ConfigurationError("tree and burn counts must be >= 1, draws >= 2")
        if not (0.0 < self.alpha < 1.0) or self.beta <= 0.0:
            raise ConfigurationError("tree prior requires alpha in (0,1), beta > 0")
        if self.k <= 0.0 or self.nu <= 0.0 or not (0.0 < self.q < 1.0):
            raise ConfigurationError("invalid leaf or variance prior settings")


@dataclass(frozen=True)
class BartPosterior:
    """Posterior function draws at the registered (profile, arm) points.

    ``draws`` has one row per kept MCMC iteration and one column per
    evaluation point, already de-scaled to outcome units.
    """

    study_id: int
    draws: np.ndarray
    columns: dict
    y_min: float
    y_max: float
    params: BartParams

    def column(self, profile_id: int, arm: int) -> np.ndarray:
        key = (profile_id, arm)
        if key not in self.columns:
            raise KeyError(f"profile {profile_id} arm {arm} was not registered at fit time")
        return self.draws[:, self.columns[key]]


class _Node:
    __slots__ = ("feature", "value", "left", "right", "rows", "mu", "depth")

    def __init__(self, rows, depth):
        self.feature = -1
        self.value = 0.0
        self.left = None
        self.right = None
        self.rows = rows
        self.mu = 0.0
        self.depth = depth

    @property
    def is_leaf(self):
        return self.left is None


def _leaves(node):
    if node.is_leaf:
        return [node]
    return _leaves(node.left) + _leaves(node.right)


def _prunable(node):
    """Internal nodes whose both children are leaves."""
    if node.is_leaf:
        return []
    if node.left.is_leaf and node.right.is_leaf:
        return [node]
    return _prunable(node.left) + _prunable(node.right)


class _Chain:
    """Backfitting sampler state for one study."""

    def __init__(self, z, y_scaled, params, rng):
        self.z = z
        self.y = y_scaled
        self.params = params
        self.rng = rng
        n = y_scaled.shape[0]
        self.n = n
        self.sigma_mu = 0.5 / (params.k * math.sqrt(params.n_trees))
        sd = float(np.std(y_scaled, ddof=1)) if n > 1 else 1.0
        sd = max(sd, 1e-12)
        # lambda places the q-quantile of the sigma prior at the sample sd
        self.lam = sd * sd * float(chi2.ppf(1.0 - params.q, params.nu)) / params.nu
        self.sigma2 = sd * sd
        all_rows = np.arange(n)
        self.roots = [_Node(all_rows, 0) for _ in range(params.n_trees)]
        self.fits = np.zeros((params.n_trees, n))
        self.total_fit = np.zeros(n)

    def _p_split(self, depth):
        return self.params.alpha * (1.0 + depth) ** (-self.params.beta)

    def _log_marginal(self, rows_sum, rows_sq, count):
        s2 = self.sigma2
        sm2 = self.sigma_mu**2
        denom = s2 + count * sm2
        return (
            -0.5 * count * math.log(2.0 * math.pi * s2)
            + 0.5 * math.log(s2 / denom)
            - rows_sq / (2.0 * s2)
            + (sm2 * rows_sum * rows_sum) / (2.0 * s2 * denom)
        )

    def _node_marginal(self, resid, rows):
        r = resid[rows]
        return self._log_marginal(float(r.sum()), float((r * r).sum()), rows.shape[0])

    def _propose_rule(self, rows):
        """Draw (feature, value) from the splitting prior at a node.

        Feature uniform over covariates with >= 2 distinct values in the
        node; value uniform over that feature's distinct values excluding
        the maximum (rule: z <= value goes left). Returns None if the node
        cannot be split.
        """
        zr = self.z[rows]
        spread = zr.max(axis=0) > zr.min(axis=0)
        avail = np.flatnonzero(spread)
        if avail.shape[0] == 0:
            return None
        f = int(avail[self.rng.integers(avail.shape[0])])
        values = np.unique(zr[:, f])
        v = float(values[self.rng.integers(values.shape[0] - 1)])
        return f, v

    def _grow(self, root, resid):
        leaves = [lf for lf in _leaves(root) if lf.rows.shape[0] >= 2]
        if not leaves:
            return
        leaf = leaves[int(self.rng.integers(len(leaves)))]
        rule = self._propose_rule(leaf.rows)
        if rule is None:
            return
        f, v = rule
        go_left = self.z[leaf.rows, f] <= v
        rows_l = leaf.rows[go_left]
        rows_r = leaf.rows[~go_left]
        d = leaf.depth
        log_like = (
            self._node_marginal(resid, rows_l)
            + self._node_marginal(resid, rows_r)
            - self._node_marginal(resid, leaf.rows)
        )
        ps, ps_child = self._p_split(d), self._p_split(d + 1)
        log_prior = (
            math.log(ps) + 2.0 * math.log(1.0 - ps_child) - math.log(1.0 - ps)
        )
        # transition: grow chosen among growable leaves, reverse prune among
        # prunable nodes of the proposed tree; growing the leaf makes it
        # prunable but may strip that status from its parent
        parent_was_prunable = (leaf is not root) and _sibling_is_leaf(root, leaf)
        n_prunable_after = len(_prunable(root)) + 1 - (1 if parent_was_prunable else 0)
        log_trans = (
            math.log(_MOVE_PRUNE / _MOVE_GROW)
            + math.log(len(leaves))
            - math.log(max(n_prunable_after, 1))
        )
        if math.log(self.rng.random()) < log_like + log_prior + log_trans:
            leaf.feature = f
            leaf.value = v
            leaf.left = _Node(rows_l, d + 1)
            leaf.right = _Node(rows_r, d + 1)

    def _prune(self, root, resid):
        nodes = _prunable(root)
        if not nodes:
            return
        node = nodes[int(self.rng.integers(len(nodes)))]
        rows_l, rows_r = node.left.rows, node.right.rows
        log_like = (
            self._node_marginal(resid, node.rows)
            - self._node_marginal(resid, rows_l)
            - self._node_marginal(resid, rows_r)
        )
        d = node.depth
        ps, ps_child = self._p_split(d), self._p_split(d + 1)
        log_prior = -(
            math.log(ps) + 2.0 * math.log(1.0 - ps_child) - math.log(1.0 - ps)
        )
        n_growable_after = len(
            [lf for lf in _leaves(root) if lf.rows.shape[0] >= 2]
        ) - sum(1 for lf in (node.left, node.right) if lf.rows.shape[0] >= 2) + 1
        log_trans = (
            math.log(_MOVE_GROW / _MOVE_PRUNE)
            + math.log(len(nodes))
            - math.log(max(n_growable_after, 1))
        )
        if math.log(self.rng.random()) < log_like + log_prior + log_trans:
            node.left = None
            node.right = None
            node.feature = -1

    def _change(self, root, resid):
        nodes = _prunable(root)
        if not nodes:
            return
        node = nodes[int(self.rng.integers(len(nodes)))]
        rule = self._propose_rule(node.rows)
        if rule is None:
            return
        f, v = rule
        go_left = self.z[node.rows, f] <= v
        rows_l = node.rows[go_left]
        rows_r = node.rows[~go_left]
        log_like = (
            self._node_marginal(resid, rows_l)
            + self._node_marginal(resid, rows_r)
            - self._node_marginal(resid, node.left.rows)
            - self._node_marginal(resid, node.right.rows)
        )
        if math.log(self.rng.random()) < log_like:
            node.feature = f
            node.value = v
            node.left.rows = rows_l
            node.right.rows = rows_r

    def _draw_leaf_means(self, root, resid):
        for leaf in _leaves(root):
            rows = leaf.rows
            count = rows.shape[0]
            prec = count / self.sigma2 + 1.0 / self.sigma_mu**2
            var = 1.0 / prec
            mean = var * float(resid[rows].sum()) / self.sigma2
            leaf.mu = mean + math.sqrt(var) * float(self.rng.standard_normal())

    def _tree_fit(self, root):
        out = np.empty(self.n)
        for leaf in _leaves(root):
            out[leaf.rows] = leaf.mu
        return out

    def update_tree(self, j):
        resid = self.y - (self.total_fit - self.fits[j])
        root = self.roots[j]
        u = self.rng.random()
        if u < _MOVE_GROW:
            self._grow(root, resid)
        elif u < _MOVE_GROW + _MOVE_PRUNE:
            self._prune(root, resid)
        else:
            self._change(root, resid)
        self._draw_leaf_means(root, resid)
        new_fit = self._tree_fit(root)
        self.total_fit += new_fit - self.fits[j]
        self.fits[j] = new_fit

    def update_sigma2(self):
        err = self.y - self.total_fit
        shape = self.params.nu + self.n
        scale = self.params.nu * self.lam + float(err @ err)
        self.sigma2 = scale / float(self.rng.chisquare(shape))

    def eval_points(self, points):
        out = np.zeros(points.shape[0])
        for root in self.roots:
            out += _route_eval(root, points)
        return out


def _sibling_is_leaf(root, target):
    """Whether the sibling of ``target`` is currently a leaf."""
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        if node.left is target:
            return node.right.is_leaf
        if node.right is target:
            return node.left.is_leaf
        stack.append(node.left)
        stack.append(node.right)
    return False


def _route_eval(root, points):
    out = np.empty(points.shape[0])
    stack = [(root, np.arange(points.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.shape[0] == 0:
            continue
        if node.is_leaf:
            out[idx] = node.mu
            continue
        go_left = points[idx, node.feature] <= node.value
        stack.append((node.left, idx[go_left]))
        stack.append((node.right, idx[~go_left]))
    return out


def fit_bart_slearner(
    dataset: TrialDataset,
    profiles: list[CovariateProfile],
    params: BartParams,
) -> BartPosterior:
    """Sample the sum-of-trees posterior and record draws at every profile/arm.

    The model input is (x, a): covariates plus the treatment indicator as an
    extra column.  For each profile both counterfactual inputs (x*, 0) and
    (x*, 1) are registered, and the posterior function draws at those points
    are stored in outcome units: the i-th profile's arms are draw columns 2i
    and 2i + 1.  Deterministic given ``params.seed``.
    """
    if not profiles:
        raise ConfigurationError("at least one profile must be registered")
    p = dataset.n_covariates
    for prof in profiles:
        if prof.n_covariates != p:
            raise DimensionMismatchError(
                f"profile {prof.profile_id} has {prof.n_covariates} covariates, expected {p}"
            )
    y = dataset.y
    y_min = float(y.min())
    y_max = float(y.max())
    y_range = y_max - y_min
    if y_range == 0.0:
        y_range = 1.0
    y_scaled = (y - y_min) / y_range - 0.5

    z = np.column_stack([dataset.x, dataset.a.astype(np.float64)])
    eval_points = np.repeat([np.append(prof.x, 0.0) for prof in profiles], 2, axis=0)
    eval_points[1::2, p] = 1.0
    columns = {(prof.profile_id, arm): 2 * i + arm
               for i, prof in enumerate(profiles) for arm in (0, 1)}

    rng = substream(params.seed, "bart-chain")
    chain = _Chain(z, y_scaled, params, rng)
    draws = np.empty((params.n_draws, eval_points.shape[0]))
    for it in range(params.n_burn + params.n_draws):
        for j in range(params.n_trees):
            chain.update_tree(j)
        chain.update_sigma2()
        if it >= params.n_burn:
            f_scaled = chain.eval_points(eval_points)
            draws[it - params.n_burn] = (f_scaled + 0.5) * y_range + y_min
    draws.setflags(write=False)
    return BartPosterior(
        study_id=dataset.study_id,
        draws=draws,
        columns=columns,
        y_min=y_min,
        y_max=y_max,
        params=params,
    )


def bart_cates(posterior: BartPosterior, level: float = 0.95):
    """CATE arrays over the registered profiles, in registration order.

    Returns ``(tau, se2, lower, upper)``.  tau_hat is the difference of the
    posterior-mean outcomes under the two arms; se2 is the sum of the two
    arms' sample variances across draws, treating the arms as uncorrelated
    (the conservative choice).  lower and upper are the ((1-level)/2,
    1-(1-level)/2) quantiles of the per-draw differences f(x,1) - f(x,0),
    with linear interpolation between order statistics.
    """
    if not (0.0 < level < 1.0):
        raise ValueError("level must be in (0, 1)")
    # One contiguous row per profile: each row reduces exactly like a 1-d column.
    f1 = np.ascontiguousarray(posterior.draws[:, 1::2].T)
    f0 = np.ascontiguousarray(posterior.draws[:, 0::2].T)
    tau = f1.mean(axis=1) - f0.mean(axis=1)
    se2 = np.var(f1, axis=1, ddof=1) + np.var(f0, axis=1, ddof=1)
    tail = (1.0 - level) / 2.0
    lower, upper = np.quantile(f1 - f0, [tail, 1.0 - tail], axis=1, method="linear")
    return tau, se2, lower, upper


def _at_profile(posterior: BartPosterior, profile: CovariateProfile, level: float):
    """:func:`bart_cates` over one profile's two draw columns, as floats."""
    arms = np.column_stack([posterior.column(profile.profile_id, arm) for arm in (0, 1)])
    return [float(v[0]) for v in bart_cates(replace(posterior, draws=arms), level)]


def bart_cate_normal(posterior: BartPosterior, profile: CovariateProfile) -> StudyCateEstimate:
    """:func:`bart_cates` tau_hat and se2 (normal approximation) at one profile."""
    tau, se2, _, _ = _at_profile(posterior, profile, 0.95)
    return StudyCateEstimate(
        study_id=posterior.study_id,
        profile_id=profile.profile_id,
        tau_hat=tau,
        se2=se2,
    )


def bart_cate_quantile(
    posterior: BartPosterior, profile: CovariateProfile, level: float
) -> tuple[float, float, float]:
    """:func:`bart_cates` (tau_hat, lower, upper) at one profile and level."""
    tau, _, lower, upper = _at_profile(posterior, profile, level)
    return tau, lower, upper
