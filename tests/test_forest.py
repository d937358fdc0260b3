"""Causal forest: recovery, honesty, determinism, the bag variance estimator,
the threshold rule, exact ragged-run reductions, agreement with the
recursive grower, and the count search of two-valued covariates against the
padded scan."""

import math
import os
import re
import signal
import statistics
import subprocess
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from forest_reference import fit_reference_forest, reference_predict_matrix
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import catemeta
from catemeta import (
    CausalForestModel,
    CausalTree,
    ConfigurationError,
    DimensionMismatchError,
    EstimationError,
    ForestParams,
    InsufficientDataError,
    TrialDataset,
    fit_causal_forest,
    forest,
    forest_predict,
    grower,
)
from catemeta.forest import predict_matrix
from catemeta.grower import run_stat


def make_dataset(n, tau_fn, seed, p=5, noise=0.1, main_fn=None):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    a = rng.integers(0, 2, n)
    main = main_fn(x) if main_fn else x[:, 0]
    y = main + a * tau_fn(x) + rng.normal(0.0, noise, n)
    return TrialDataset(1, y, a, x, tuple(f"c{j}" for j in range(p)))


def random_profiles(k, p, seed):
    return np.random.default_rng(seed).normal(size=(k, p))


def single_leaf_tree(tau, n1=5, n0=5):
    return CausalTree(
        feature=np.array([-1], dtype=np.int32),
        threshold=np.array([np.nan]),
        left=np.array([-1], dtype=np.int32),
        right=np.array([-1], dtype=np.int32),
        leaf_tau=np.array([tau]),
        leaf_n_treated=np.array([n1], dtype=np.int32),
        leaf_n_control=np.array([n0], dtype=np.int32),
        split_rows=np.arange(0, dtype=np.int32),
        est_rows=np.arange(0, dtype=np.int32),
    )


def manual_model(leaf_taus, bag_size=20, outcome_variance=1.0):
    params = ForestParams(n_trees=len(leaf_taus), bag_size=bag_size, seed=0)
    return CausalForestModel(
        study_id=1,
        trees=tuple(single_leaf_tree(t) for t in leaf_taus),
        params=params,
        n_covariates=2,
        outcome_variance=outcome_variance,
    )


class TestForestParams:
    def test_bag_divisibility_enforced(self):
        with pytest.raises(ConfigurationError):
            ForestParams(n_trees=50, bag_size=20)

    @pytest.mark.parametrize("bag_size", [1, 0, -2])
    def test_bag_needs_two_trees(self, bag_size):
        # bag_size=1 used to construct: its bags have no within-bag variance,
        # so the variance estimator silently made no Monte Carlo correction.
        with pytest.raises(ConfigurationError, match=f"bag_size must be >= 2, got {bag_size}"):
            ForestParams(n_trees=10, bag_size=bag_size)
        assert ForestParams(n_trees=10, bag_size=2).n_bags == 5

    def test_tree_count_bounded(self):
        # 10**12 used to construct, and a fit grew its per-tree stream list
        # until the host ran out of memory.
        with pytest.raises(ConfigurationError, match=re.escape(
                "n_trees = 1000000000000 is above the bound 2**24 = 16777216")):
            ForestParams(n_trees=10**12)
        assert ForestParams(n_trees=2**24, bag_size=2).n_bags == 2**23

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        # Such a seed used to construct and fail later in the stream encoder.
        with pytest.raises(ConfigurationError, match=r"seed must be in \[0, 2\*\*64\)"):
            ForestParams(seed=seed)
        assert ForestParams(seed=2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize("field, value", [
        ("seed", 2.5), ("n_trees", 40.0), ("bag_size", 20.0), ("seed", True),
    ])
    def test_integer_fields_must_be_integers(self, field, value):
        # ForestParams(seed=2.5) used to construct and grow the seed-2 forest.
        with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
            ForestParams(**{"n_trees": 40, field: value})
        assert ForestParams(**{"n_trees": 40, field: np.int64(value)})


class TestGrowth:
    def test_determinism_bit_exact(self):
        ds = make_dataset(400, lambda x: 1.0 + x[:, 1], seed=0, noise=0.5)
        params = ForestParams(n_trees=40, bag_size=20, seed=123)
        m1 = fit_causal_forest(ds, params)
        m2 = fit_causal_forest(ds, params)
        profiles = random_profiles(10, 5, seed=1)
        tau1, se2_1, _ = forest_predict(m1, profiles)
        tau2, se2_2, _ = forest_predict(m2, profiles)
        assert tau1.tolist() == tau2.tolist()
        assert se2_1.tolist() == se2_2.tolist()
        for t1, t2 in zip(m1.trees, m2.trees):
            assert np.array_equal(t1.feature, t2.feature)
            assert np.array_equal(t1.threshold, t2.threshold, equal_nan=True)

    def test_honest_partitions_are_disjoint(self):
        ds = make_dataset(500, lambda x: np.ones(x.shape[0]), seed=2, noise=0.5)
        model = fit_causal_forest(ds, ForestParams(n_trees=40, bag_size=20, seed=5))
        for tree in model.trees:
            assert np.intersect1d(tree.split_rows, tree.est_rows).size == 0

    def test_adaptive_mode_shares_rows(self):
        ds = make_dataset(300, lambda x: np.ones(x.shape[0]), seed=3, noise=0.5)
        model = fit_causal_forest(
            ds, ForestParams(n_trees=20, bag_size=20, honest=False, seed=5)
        )
        for tree in model.trees:
            assert np.array_equal(tree.split_rows, tree.est_rows)

    def test_usable_leaves_respect_arm_minima(self):
        ds = make_dataset(600, lambda x: x[:, 0], seed=4, noise=0.5)
        model = fit_causal_forest(ds, ForestParams(n_trees=40, bag_size=20, seed=6))
        for tree in model.trees:
            leaves = tree.feature < 0
            usable = leaves & np.isfinite(tree.leaf_tau)
            enough = (tree.leaf_n_treated >= grower.MIN_LEAF) & (
                tree.leaf_n_control >= grower.MIN_LEAF)
            assert np.array_equal(usable, leaves & enough)

    def test_criterion_ties_break_to_lowest_covariate_index(self):
        # Duplicated covariate columns produce bitwise-equal split criteria;
        # the winner must be the lower column index.
        rng = np.random.default_rng(55)
        n = 200
        x0 = rng.normal(size=(n, 1))
        x = np.hstack([x0, x0, rng.normal(size=(n, 1))])
        a = rng.integers(0, 2, n)
        y = a * (1.0 + 2.0 * x[:, 0]) + rng.normal(0, 0.2, n)
        ds = TrialDataset(1, y, a, x, ("first", "copy", "other"))
        model = fit_causal_forest(ds, ForestParams(n_trees=20, bag_size=20, seed=8))
        split_features = np.concatenate(
            [t.feature[t.feature >= 0] for t in model.trees]
        )
        assert split_features.size > 0
        assert not np.any(split_features == 1)  # the copy never wins a tie

    def test_no_covariates_gives_one_leaf_trees(self):
        rng = np.random.default_rng(12)
        a = rng.integers(0, 2, 200)
        ds = TrialDataset(1, 2.0 * a + rng.normal(size=200), a, np.empty((200, 0)), ())
        model = fit_causal_forest(ds, ForestParams(n_trees=20, bag_size=20, seed=3))
        assert all(tree.n_nodes == 1 for tree in model.trees)
        tau, _, _ = forest.forest_predict(model, np.empty((2, 0)))
        assert tau[0] == tau[1] and abs(tau[0] - 2.0) < 0.5

    def test_infeasible_minima_rejected_up_front(self):
        # At most 15 rows in one arm give an honest tree about 3.75 of them.
        ds = make_dataset(30, lambda x: np.ones(x.shape[0]), seed=7)
        with pytest.raises(InsufficientDataError):
            fit_causal_forest(ds, ForestParams(n_trees=20, bag_size=20))

    @pytest.mark.parametrize("arm", ["treated", "control"])
    @pytest.mark.parametrize("n_small, refused", [(15, True), (20, False)])
    def test_honest_subsample_needs_each_arms_leaf_minimum(self, arm, n_small, refused):
        # An honest tree estimates on half of its subsample, so an arm of n
        # rows gives it about 0.5 * n / 2 of them: 3.75 at n = 15, under the
        # minimum of 5, and exactly 5 at n = 20.  The other arm has plenty.
        rng = np.random.default_rng(40)
        n = 100 + n_small
        a = np.r_[np.ones(100, dtype=int), np.zeros(n_small, dtype=int)]
        counts = f"100 treated / {n_small} control rows"
        if arm == "treated":
            a, counts = 1 - a, f"{n_small} treated / 100 control rows"
        ds = TrialDataset(1, rng.normal(size=n), a, rng.normal(size=(n, 2)), ("u", "v"))
        params = ForestParams(n_trees=4, bag_size=2, seed=1)
        if refused:
            with pytest.raises(InsufficientDataError, match=re.escape(counts)):
                fit_causal_forest(ds, params)
        else:
            assert len(fit_causal_forest(ds, params).trees) == 4


class TestRecovery:
    def test_constant_effect(self):
        ds = make_dataset(2000, lambda x: np.full(x.shape[0], 2.0), seed=10)
        model = fit_causal_forest(ds, ForestParams(n_trees=100, bag_size=20, seed=11))
        taus, _, _ = forest_predict(model, random_profiles(50, 5, 12))
        assert np.abs(taus - 2.0).mean() <= 0.25

    def test_zero_effect(self):
        ds = make_dataset(2000, lambda x: np.zeros(x.shape[0]), seed=13, noise=1.0)
        model = fit_causal_forest(ds, ForestParams(n_trees=100, bag_size=20, seed=14))
        taus, _, _ = forest_predict(model, random_profiles(50, 5, 15))
        assert np.abs(taus).mean() <= 0.15

    def test_step_moderator_recovered(self):
        ds = make_dataset(4000, lambda x: 3.0 * (x[:, 0] > 0), seed=16, noise=0.5)
        model = fit_causal_forest(ds, ForestParams(n_trees=100, bag_size=20, seed=17))
        rng = np.random.default_rng(18)
        below = np.column_stack([np.full(10, -1.0), rng.normal(size=(10, 4))])
        above = np.column_stack([np.full(10, 1.0), rng.normal(size=(10, 4))])
        t_below = np.mean(forest_predict(model, below)[0])
        t_above = np.mean(forest_predict(model, above)[0])
        assert t_above - t_below >= 2.0


class TestVarianceEstimator:
    def test_identical_trees_clamp_to_floor(self):
        model = manual_model([2.0] * 40, outcome_variance=1.0)
        tau, se2, _ = forest_predict(model, np.zeros((1, 2)))
        assert tau[0] == 2.0
        assert se2[0] == model.se2_floor == 1e-6

    def test_two_bags_hand_example(self):
        model = manual_model([1.0] * 20 + [3.0] * 20)
        tau, se2, _ = forest_predict(model, np.zeros((1, 2)))
        assert tau[0] == 2.0
        assert se2[0] == 2.0  # var({1, 3}, ddof=1), within-bag variance zero

    def test_matches_a_direct_per_bag_computation(self):
        # Four bags of four trees at three profiles, NaN where a tree is
        # skipped.  se2 = max(var(bag means) - mean(within-bag var) / 4, floor),
        # over the bags with a valid tree, a within-bag variance needing two;
        # a profile with under two bag means stays at the floor.
        nan = np.nan
        pred = np.array([
            [1.0, 0.5, 1.0], [1.4, nan, 2.0], [nan, nan, 3.0], [nan, nan, 4.0],
            [2.0, 1.5, nan], [2.6, 1.9, nan], [2.3, 1.7, nan], [nan, 1.6, nan],
            [3.1, 2.8, nan], [3.5, 2.2, nan], [2.9, nan, nan], [3.3, 2.5, nan],
            [nan, 4.0, nan], [nan, 4.4, nan], [nan, 4.1, nan], [nan, 3.8, nan],
        ])
        floor = 1e-6
        with np.errstate(divide="ignore", invalid="ignore"):
            se2 = forest._bag_se2(pred, np.isfinite(pred), ForestParams(n_trees=16, bag_size=4),
                                  floor)
        for j in range(3):
            bags = [[v for v in pred[b:b + 4, j] if not math.isnan(v)] for b in range(0, 16, 4)]
            means = [statistics.fmean(bag) for bag in bags if bag]
            within = [statistics.variance(bag) for bag in bags if len(bag) > 1]
            want = floor
            if len(means) > 1:
                want = max(statistics.variance(means) - statistics.fmean(within) / 4, floor)
            assert se2[j] == pytest.approx(want, rel=1e-12), j
        assert se2[0] > 0.5 and se2[1] > 0.5 and se2[2] == floor

    def test_se2_never_below_floor(self):
        ds = make_dataset(600, lambda x: x[:, 0], seed=20, noise=0.5)
        model = fit_causal_forest(ds, ForestParams(n_trees=40, bag_size=20, seed=21))
        _, se2, _ = forest_predict(model, random_profiles(20, 5, 22))
        assert (se2 >= model.se2_floor).all() and model.se2_floor > 0.0

    def test_calibration_against_fresh_data_refits(self):
        # Monte-Carlo oracle at reduced scale: the bag estimator should sit
        # within a factor of 3 of the refit variance of tau_hat.
        profiles = random_profiles(10, 3, seed=30)
        params = ForestParams(n_trees=100, bag_size=20, seed=0)
        taus, se2s = [], []
        for r in range(40):
            ds = make_dataset(600, lambda x: np.full(x.shape[0], 2.0),
                              seed=1000 + r, p=3, noise=1.0)
            tau, se2, _ = forest_predict(fit_causal_forest(ds, replace(params, seed=r)), profiles)
            taus.append(tau)
            se2s.append(se2)
        mc_var = np.array(taus).var(axis=0, ddof=1)
        mean_se2 = np.array(se2s).mean(axis=0)
        ratio = mean_se2 / mc_var
        assert np.all(ratio >= 1.0 / 3.0) and np.all(ratio <= 3.0), ratio


class TestPredictionEdgeCases:
    def test_majority_skipped_is_error(self):
        usable = [single_leaf_tree(1.0)] * 9
        skipped = [single_leaf_tree(np.nan, n1=0, n0=5)] * 11
        params = ForestParams(n_trees=20, bag_size=20, seed=0)
        model = CausalForestModel(1, tuple(usable + skipped), params, 2, 1.0)
        with pytest.raises(EstimationError):
            forest_predict(model, np.zeros((1, 2)))

    def test_minority_skipped_is_tolerated(self):
        trees = [single_leaf_tree(1.0)] * 15 + [single_leaf_tree(np.nan, n1=0)] * 5
        params = ForestParams(n_trees=20, bag_size=20, seed=0)
        model = CausalForestModel(1, tuple(trees), params, 2, 1.0)
        tau, _, _ = forest_predict(model, np.zeros((1, 2)))
        assert tau[0] == 1.0

    def test_dimension_mismatch(self):
        model = manual_model([1.0] * 20)
        for bad in (np.zeros((1, 7)), np.zeros(2)):
            want = f"points have shape {bad.shape}, expected (P, 2)"
            with pytest.raises(DimensionMismatchError, match=re.escape(want)):
                forest_predict(model, bad)
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match="points must be finite"):
                forest_predict(model, np.array([[0.0, value]]))


class TestInvariances:
    def fit_pair(self, transform, seed=40):
        rng = np.random.default_rng(seed)
        n = 400
        x = rng.normal(size=(n, 3))
        a = rng.integers(0, 2, n)
        y = x[:, 0] + a * (1.0 + x[:, 1]) + rng.normal(0, 0.5, n)
        base = TrialDataset(1, y, a, x, ("u", "v", "w"))
        other = transform(y, a, x)
        params = ForestParams(n_trees=60, bag_size=20, seed=41)
        return (
            fit_causal_forest(base, params),
            fit_causal_forest(other, params),
            random_profiles(20, 3, seed=42),
        )

    def test_outcome_shift_invariance(self):
        # Splits are chosen by a shift-invariant criterion; predictions agree
        # to floating-point accumulation error.
        m0, m1, profiles = self.fit_pair(
            lambda y, a, x: TrialDataset(1, y + 1000.0, a, x, ("u", "v", "w"))
        )
        t0, _, _ = forest_predict(m0, profiles)
        t1, _, _ = forest_predict(m1, profiles)
        assert np.allclose(t0, t1, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("honest", [True, False], ids=["honest", "adaptive"])
    def test_constant_column_only_shifts_feature_indices(self, honest):
        # A constant covariate is never searched, so inserting one at index 0
        # leaves every tree as it was, with each split on the next index.
        rng = np.random.default_rng(43)
        n = 400
        x = np.column_stack([rng.normal(size=n), rng.integers(0, 2, n).astype(float),
                             rng.normal(size=n)])
        a = rng.integers(0, 2, n)
        y = x[:, 0] + a * (1.0 + x[:, 1] + x[:, 2]) + rng.normal(0, 0.5, n)
        params = ForestParams(n_trees=40, bag_size=20, honest=honest, seed=44)
        base = fit_causal_forest(TrialDataset(1, y, a, x, ("u", "v", "w")), params)
        wider = fit_causal_forest(
            TrialDataset(1, y, a, np.column_stack([np.full(n, 3.0), x]), ("k", "u", "v", "w")),
            params)
        for tree, other in zip(base.trees, wider.trees, strict=True):
            shifted = np.where(tree.feature >= 0, tree.feature + 1, -1).astype(np.int32)
            assert other.feature.tobytes() == shifted.tobytes()
            for name in ("threshold", "left", "right", "leaf_tau", "leaf_n_treated",
                         "leaf_n_control", "split_rows", "est_rows"):
                assert getattr(other, name).tobytes() == getattr(tree, name).tobytes()
        assert any((tree.feature == 1).any() for tree in base.trees)

    def test_treatment_label_antisymmetry_bit_exact(self):
        m0, m1, profiles = self.fit_pair(
            lambda y, a, x: TrialDataset(1, y, 1 - a, x, ("u", "v", "w"))
        )
        tau0, se2_0, _ = forest_predict(m0, profiles)
        tau1, se2_1, _ = forest_predict(m1, profiles)
        assert tau1.tolist() == (-tau0).tolist()
        assert se2_1.tolist() == se2_0.tolist()


class TestCountSearch:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scores_and_bounds_equal_the_padded_scan_bit_for_bit(self, seed):
        # The trees hardly depend on the last bits of the criterion, so the
        # recursive oracle cannot tell a change in summation order; this
        # compares the scores themselves on many roots.
        rng = np.random.default_rng(seed)
        n = 600
        # Each two-valued column is rare on one side, so some roots miss the
        # minima there.
        x = np.column_stack([(rng.random(n) < 0.15).astype(float),
                             np.where(rng.random(n) < 0.15, -2.5, 4.0),
                             rng.normal(size=n)])
        a = rng.integers(0, 2, n)
        y = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, n)
        values, ranks = zip(*(np.unique(column, return_inverse=True) for column in x.T))
        split = grower._Entries([rng.permutation(n)[:m] for m in rng.integers(20, 300, 40)], a)
        # As grow_trees does, search only segments with twice the minima.
        can_split = (split.seg_treated >= 10) & (split.seg_len - split.seg_treated >= 10)
        split.keep(can_split & (rng.random(40) < 0.8))
        y1, y0 = y[split.rows] * split.arm, y[split.rows] * (1 - split.arm)
        # Sorted as if every column had more values, the padded scan takes all.
        padded_n_values = [3] * x.shape[1]
        lens = split.seg_len
        want, want_threshold = grower._best_splits(
            split, split.sort_by(ranks, padded_n_values), np.cumsum(lens) - lens,
            np.arange(lens.shape[0]), y1, y0, values, ranks, None)
        got = np.full_like(want, -np.inf)
        got_threshold = np.empty_like(want_threshold)
        grower._count_splits(split, y, values, ranks, None, got, got_threshold)
        assert np.isfinite(got[:, :2]).sum() > 20
        assert got[:, :2].tobytes() == want[:, :2].tobytes()
        finite = np.isfinite(got[:, :2])
        assert got_threshold[:, :2][finite].tobytes() == want_threshold[:, :2][finite].tobytes()
        assert (got[:, 2] == -np.inf).all()

        bounds = split.threshold_bounds(ranks, [v.shape[0] for v in values])
        general = split.threshold_bounds(ranks, padded_n_values)
        for j in (0, 1):
            for got_rank, want_rank in zip(bounds[j], general[j]):
                assert np.array_equal(got_rank, want_rank)
        low, high = np.concatenate(bounds[:2], axis=1)
        assert set(low) == set(high) == {0, 1}


EPS = float(np.finfo(float).eps)
TWO_VALUE_CASES = {
    "adjacent-doubles": (1.0 + EPS, 1.0 + 2.0 * EPS),
    "overflow": (1.0e308, 1.7e308),
    "negative-overflow": (-1.7e308, -1.0e308),
}


def heap_labels(tree):
    """Heap index of every node (root 1, children 2h and 2h + 1)."""
    heap = np.zeros(tree.n_nodes, dtype=object)
    heap[0] = 1
    for node in range(tree.n_nodes):  # level order: parents before children
        if tree.feature[node] >= 0:
            heap[tree.left[node]] = 2 * heap[node]
            heap[tree.right[node]] = 2 * heap[node] + 1
    return heap


def canonical(tree):
    """A tree's nodes keyed by heap index, with every float as its bits."""
    nodes = {}
    for node, h in enumerate(heap_labels(tree)):
        nodes[h] = (
            int(tree.feature[node]),
            np.float64(tree.threshold[node]).tobytes(),
            np.float64(tree.leaf_tau[node]).tobytes(),
            int(tree.leaf_n_treated[node]),
            int(tree.leaf_n_control[node]),
        )
    return nodes


def leaf_of_rows(tree, x, rows):
    """Heap index of the leaf each of ``rows`` is routed to."""
    heap = heap_labels(tree)
    out = []
    for row in rows:
        node = 0
        while tree.feature[node] >= 0:
            go_left = x[row, tree.feature[node]] <= tree.threshold[node]
            node = tree.left[node] if go_left else tree.right[node]
        out.append(heap[node])
    return out


@st.composite
def forest_cases(draw):
    """Small datasets with continuous, binary, two-valued, constant, tied and
    duplicated columns.  Each arm has at least the rows the forest asks of it
    up front (20 for honest trees, 10 for adaptive ones), so no draw is
    refused."""
    seed = draw(st.integers(0, 2**32 - 1))
    honest = draw(st.booleans())
    min_arm = (4 if honest else 2) * grower.MIN_LEAF
    n = draw(st.integers(max(30, 2 * min_arm), 160))
    kinds = draw(st.lists(st.sampled_from(["normal", "binary", "two_valued", "constant",
                                           "tied", "copy"]),
                          min_size=1, max_size=4))
    rng = np.random.default_rng(seed)
    columns = []
    for kind in kinds:
        if kind == "normal":
            columns.append(rng.normal(size=n))
        elif kind == "binary":
            columns.append(rng.integers(0, 2, n).astype(float))
        elif kind == "two_valued":
            lo, hi = draw(st.sampled_from([(-2.5, 4.0), *TWO_VALUE_CASES.values()]))
            columns.append(np.where(rng.random(n) < draw(st.sampled_from([0.1, 0.5])), lo, hi))
        elif kind == "constant":
            columns.append(np.full(n, rng.normal()))
        elif kind == "tied":
            columns.append(np.round(rng.normal(size=n), 1))
        else:
            columns.append(columns[-1].copy() if columns else rng.normal(size=n))
    x = np.column_stack(columns)
    # A fair coin per row, with the treated count clipped so that each arm
    # keeps min_arm rows.
    n_treated = min(max(int(rng.binomial(n, 0.5)), min_arm), n - min_arm)
    a = rng.permutation(np.arange(n) < n_treated).astype(np.int64)
    y = x[:, 0] + a * (1.0 + 2.0 * (x[:, -1] > 0)) + rng.normal(0.0, 0.5, n)
    bag_size = draw(st.integers(2, 4))
    params = ForestParams(
        n_trees=bag_size * draw(st.integers(1, 3)),
        bag_size=bag_size,
        honest=honest,
        seed=draw(st.integers(0, 1000)),
    )
    names = tuple(f"c{j}" for j in range(x.shape[1]))
    return TrialDataset(1, y, a, x, names), params


class TestAgainstRecursiveGrower:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(forest_cases(), st.booleans())
    def test_trees_and_predictions_bit_identical(self, case, one_by_one):
        # one_by_one grows each tree alone and searches each node alone.
        dataset, params = case
        with pytest.MonkeyPatch.context() as mp:
            if one_by_one:
                mp.setattr(forest, "_BATCH_ROWS", 1)
                mp.setattr(grower, "_SEARCH_CELLS", 1)
            try:
                model = fit_causal_forest(dataset, params)
            except InsufficientDataError:
                assume(False)
        reference = fit_reference_forest(dataset, params)
        for tree, ref in zip(model.trees, reference.trees, strict=True):
            assert np.array_equal(tree.split_rows, ref.split_rows)
            assert np.array_equal(tree.est_rows, ref.est_rows)
            assert canonical(tree) == canonical(ref)
            splits = {(f, thr) for f, thr, _, _, _ in canonical(tree).values() if f >= 0}
            assert splits == {(f, thr) for f, thr, _, _, _ in canonical(ref).values() if f >= 0}
            for rows in (tree.split_rows, tree.est_rows):
                assert leaf_of_rows(tree, dataset.x, rows) == leaf_of_rows(ref, dataset.x, rows)
        points = np.vstack([dataset.x[:10], np.random.default_rng(0).normal(size=(5, dataset.n_covariates))])
        got = predict_matrix(model, points)
        assert got.tobytes() == reference_predict_matrix(reference, points).tobytes()
        assert got.tobytes() == predict_matrix(reference, points).tobytes()


def two_value_trial(lo, hi, n=400, seed=0):
    """One covariate taking two values; the effect is 0 at ``lo`` and 5 at ``hi``."""
    rng = np.random.default_rng(seed)
    upper = rng.permutation(n) < n // 2
    a = rng.integers(0, 2, n)
    y = 5.0 * a * upper + rng.normal(0.0, 0.5, n)
    return TrialDataset(1, y, a, np.where(upper, hi, lo)[:, None], ("c0",))


def run_cli_with_timeout(args, timeout):
    """Exit code of ``catemeta.cli`` run in a fresh process group, killed on timeout."""
    src = str(Path(catemeta.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.Popen([sys.executable, "-m", "catemeta.cli", *map(str, args)],
                            env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        pytest.fail(f"catemeta {args[0]} did not finish within {timeout} s")


class TestThresholdRule:
    @pytest.mark.parametrize("lo,hi", TWO_VALUE_CASES.values(), ids=TWO_VALUE_CASES.keys())
    def test_threshold_separates_the_two_values(self, lo, hi):
        # The midpoint of these pairs rounds or overflows out of [lo, hi);
        # the threshold falls back to lo, and both effects are recovered.
        ds = two_value_trial(lo, hi)
        model = fit_causal_forest(ds, ForestParams(n_trees=20, bag_size=20, seed=1))
        for tree in model.trees:
            assert tree.feature[0] == 0
            assert lo <= tree.threshold[0] < hi
        tau, _, _ = forest_predict(model, np.array([[lo], [hi]]))
        assert abs(tau[0]) < 0.5 and abs(tau[1] - 5.0) < 0.5

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("honest", ["true", "false"])
    def test_adjacent_doubles_cli_fit_terminates_and_splits(self, tmp_path, honest, threads):
        # Adaptive mode used to split every row into one child and never return.
        lo, hi = TWO_VALUE_CASES["adjacent-doubles"]
        lines = ["study_id,y,a,c0"]
        for sid, seed in ((1, 3), (2, 4)):
            ds = two_value_trial(lo, hi, seed=seed)
            lines += [f"{sid},{y!r},{a},{x!r}"
                      for y, a, x in zip(ds.y.tolist(), ds.a.tolist(), ds.x[:, 0].tolist())]
        (tmp_path / "trials.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "profiles.csv").write_text(f"profile_id,c0\n0,{lo!r}\n1,{hi!r}\n")
        out = tmp_path / "out"
        code = run_cli_with_timeout(
            ["estimate", "--trials", tmp_path / "trials.csv", "--profiles",
             tmp_path / "profiles.csv", "--stage1", "forest", "--honest", honest,
             "--trees", 20, "--bag-size", 10, "--threads", threads, "--out-dir", out],
            timeout=120)
        assert code == 0
        rows = (out / "aggregates.csv").read_text().splitlines()[1:]
        tau = {(int(r.split(",")[0]), int(r.split(",")[1])): float(r.split(",")[2]) for r in rows}
        for sid in (1, 2):
            assert abs(tau[0, sid]) < 0.5 and abs(tau[1, sid] - 5.0) < 0.5


class TestRunStat:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.lists(st.integers(2, 40), min_size=1, max_size=30), st.integers(0, 2**32 - 1))
    def test_each_run_reduced_as_on_its_own(self, lengths, seed):
        # The leaf means and the bag variance terms rely on this exactness.
        rng = np.random.default_rng(seed)
        lengths = np.array(lengths)
        values = rng.normal(size=lengths.sum()) * 10.0 ** rng.integers(-8, 9, lengths.sum())
        shuffle = rng.permutation(lengths.shape[0])
        starts, lengths = (np.cumsum(lengths) - lengths)[shuffle], lengths[shuffle]
        for stat, alone in ((np.mean, lambda v: v.mean()),
                            (partial(np.var, ddof=1), lambda v: np.var(v, ddof=1))):
            got = run_stat(values, starts, lengths, stat)
            want = [alone(values[s:s + n]) for s, n in zip(starts, lengths)]
            assert got.tobytes() == np.array(want).tobytes()
