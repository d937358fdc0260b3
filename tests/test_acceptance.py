"""Acceptance suite.

Each test evaluates one release criterion at its stated tolerance and prints
a single pass/fail line (visible with ``pytest -s`` or on failure).  The
heavier simulation criteria reuse one frozen experiment seed; everything
here is deterministic.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from catemeta import (
    BartParams,
    ForestParams,
    SimConfig,
    TrialDataset,
    bart_cates,
    dl_theta2,
    estimate_study,
    fit_bart_slearner,
    fit_causal_forest,
    forest_predict,
    pool_profiles,
    run_experiment,
    t_quantile,
)
from catemeta.cli import main as cli_main
from catemeta.meta import _profile_log_likelihood

EXPERIMENT_SEED = 3  # frozen: the target-setting effect draw is typical


def report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def test_criterion_01_hierarchy_calibration():
    # Two-level generation with known within-study variances on a fixed grid
    # spanning [0.1, 1] and theta2 = 1; the pipeline interval (REML + t_{K-2})
    # must cover the effect of a new setting at close to the nominal rate.
    rng = np.random.default_rng(20260808)
    k, reps = 10, 5000
    v = np.linspace(0.1, 1.0, k)
    sd = np.sqrt(v)
    start = time.perf_counter()
    tau_hat, tau_new = np.empty((k, reps)), np.empty(reps)
    for r in range(reps):
        tau_s = rng.normal(0.0, 1.0, k)
        tau_hat[:, r] = rng.normal(tau_s, sd)
        tau_new[r] = rng.normal(0.0, 1.0)
    pooled = pool_profiles(tau_hat, np.repeat(v[:, None], reps, axis=1), alpha=0.05)
    lower = pooled.tau_pooled - pooled.half_width
    upper = pooled.tau_pooled + pooled.half_width
    elapsed = time.perf_counter() - start
    coverage = float(np.mean((lower <= tau_new) & (tau_new <= upper)))
    ok = 0.935 <= coverage <= 0.965 and elapsed < 60.0
    report(
        "criterion 1 (hierarchy calibration)",
        ok,
        f"coverage={coverage:.4f} target=[0.935, 0.965], {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_02_desk_scale_coverage():
    config = SimConfig(
        k_studies=10, n_per_study=500, cate_setting="linear",
        heterogeneity_level=1, n_replications=100, master_seed=EXPERIMENT_SEED,
    )
    start = time.perf_counter()
    medians = {}
    for method, params in (
        ("linear", None),
        ("forest_honest", ForestParams(n_trees=100, bag_size=20)),
    ):
        table = run_experiment(config, method, forest_params=params)
        medians[method] = float(np.median(table.coverage))
    elapsed = time.perf_counter() - start
    ok = all(m >= 0.90 for m in medians.values()) and elapsed < 1800.0
    report(
        "criterion 2 (desk-scale coverage, linear + honest forest)",
        ok,
        f"median coverage linear={medians['linear']:.3f} "
        f"forest={medians['forest_honest']:.3f} (>=0.90), {elapsed/60:.1f} min",
    )


def test_criterion_03_length_increases_with_heterogeneity():
    details = []
    ok = True
    for setting in ("linear", "nonlinear"):
        lengths = {}
        for level in (1, 3):
            config = SimConfig(
                k_studies=10, n_per_study=500, cate_setting=setting,
                heterogeneity_level=level, n_replications=50,
                master_seed=EXPERIMENT_SEED,
            )
            lengths[level] = float(run_experiment(config, "linear").mean_length.mean())
        ok = ok and lengths[3] > lengths[1]
        details.append(f"{setting}: L1={lengths[1]:.2f} < L3={lengths[3]:.2f}")
    report("criterion 3 (interval length grows with heterogeneity)", ok, "; ".join(details))


def loglik(grid, tau, v):
    """Restricted log likelihood of one profile's K estimates at each grid point."""
    column = np.ones(len(tau), dtype=np.intp)  # row sizes of a (K, 1) layout
    return _profile_log_likelihood(grid[None], np.asarray(tau, dtype=np.float64)[:, None],
                                   np.asarray(v, dtype=np.float64)[:, None], column)[0]


def grid_argmax(tau, v, upper, coarse=1e-3, fine=1e-6):
    """Brute-force grid maximizer: coarse scan, then a 1e-6 scan at the peak."""
    coarse_grid = np.arange(0.0, upper + coarse, coarse)
    vals = loglik(coarse_grid, tau, v)
    center = coarse_grid[int(np.argmax(vals))]
    lo = max(center - 2 * coarse, 0.0)
    fine_grid = np.arange(lo, min(center + 2 * coarse, upper) + fine, fine)
    vals = loglik(fine_grid, tau, v)
    return float(fine_grid[int(np.argmax(vals))])


def test_criterion_04_reml_matches_grid_oracle():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(3, 13))
        tau = rng.normal(0.0, rng.uniform(0.3, 2.0), size=k)
        v = rng.uniform(0.05, 1.5, size=k)
        estimate = float(pool_profiles(tau[:, None], v[:, None]).theta2[0])
        upper = 10.0 * float(np.var(tau, ddof=1)) + float(v.max())
        oracle = grid_argmax(tau, v, upper)
        worst = max(worst, abs(estimate - oracle))
    ok = worst <= 1e-4
    report("criterion 4 (REML vs grid oracle, 100 instances)", ok,
           f"max |reml - grid| = {worst:.2e} (<= 1e-4)")


def test_criterion_05_dl_exact_values():
    three = dl_theta2(np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.5, 0.5]))
    two = dl_theta2(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
    ok = three == pytest.approx(0.5, abs=1e-15) and two == pytest.approx(1.0, abs=1e-15)
    report("criterion 5 (DerSimonian-Laird exact values)", ok,
           f"tau2(0,1,2)={three} (0.5); tau2(0,2)={two} (1.0)")


def t_quantile_quadrature_oracle(df, p):
    """Invert the t CDF computed by adaptive quadrature of the density."""
    log_norm = math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0) - 0.5 * math.log(df * math.pi)

    def density(u):
        return math.exp(log_norm - ((df + 1) / 2.0) * math.log1p(u * u / df))

    def cdf(x):
        mass, _ = quad(density, 0.0, x, epsabs=1e-13, epsrel=1e-12, limit=400)
        return 0.5 + mass

    tail = max(p, 1.0 - p)
    hi = 1.0
    while cdf(hi) < tail:
        hi *= 2.0
    root = brentq(lambda x: cdf(x) - tail, 0.0, hi, xtol=1e-11, rtol=8.9e-16)
    return root if p >= 0.5 else -root


def test_criterion_06_t_quantile_accuracy():
    worst = 0.0
    for df in (1, 2, 5, 28):
        for p in (0.6, 0.9, 0.975, 0.995):
            worst = max(worst, abs(t_quantile(df, p) - t_quantile_quadrature_oracle(df, p)))
    anchor = abs(t_quantile(2, 0.975) - 4.3026527)
    ok = worst <= 1e-8 and anchor <= 1e-5
    report("criterion 6 (t quantile vs quadrature oracle)", ok,
           f"max |err| = {worst:.2e} (<= 1e-8); |t(2,.975) - 4.3026527| = {anchor:.2e}")


def test_criterion_07_stage1_linear_exactness():
    rng = np.random.default_rng(707)
    n, p = 300, 4
    x = rng.normal(size=(n, p))
    a = rng.integers(0, 2, n)
    beta2 = 1.3
    beta3 = np.array([0.7, -0.4, 0.0, 1.9])
    y = 2.0 + x @ np.array([0.5, 1.0, -1.0, 0.2]) + a * (beta2 + x @ beta3)
    points = rng.normal(size=(20, p))
    tau, _, _ = estimate_study(TrialDataset(1, y, a, x, tuple(f"c{j}" for j in range(p))), points)
    worst = float(np.abs(tau - (beta2 + points @ beta3)).max())
    ok = worst <= 1e-8
    report("criterion 7 (noiseless interaction model recovered)", ok,
           f"max |tau_hat - tau| = {worst:.2e} (<= 1e-8) at 20 profiles")


def test_criterion_08_forest_sanity():
    rng = np.random.default_rng(808)
    points = rng.normal(size=(50, 5))

    def dgp(n, tau_fn, seed, noise):
        g = np.random.default_rng(seed)
        x = g.normal(size=(n, 5))
        a = g.integers(0, 2, n)
        y = x[:, 0] + a * tau_fn(x) + g.normal(0, noise, n)
        return TrialDataset(1, y, a, x, tuple(f"c{j}" for j in range(5)))

    const = dgp(2000, lambda x: np.full(x.shape[0], 2.0), seed=1, noise=0.1)
    model = fit_causal_forest(const, ForestParams(n_trees=100, bag_size=20, seed=2))
    const_err = float(np.abs(forest_predict(model, points)[0] - 2.0).mean())

    null = dgp(2000, lambda x: np.zeros(x.shape[0]), seed=3, noise=1.0)
    null_model = fit_causal_forest(null, ForestParams(n_trees=100, bag_size=20, seed=4))
    null_err = float(np.abs(forest_predict(null_model, points)[0]).mean())

    honest_ok = True
    for tree in model.trees + null_model.trees:
        if np.intersect1d(tree.split_rows, tree.est_rows).size:
            honest_ok = False
        leaves = tree.feature < 0
        usable = leaves & np.isfinite(tree.leaf_tau)
        if not (np.all(tree.leaf_n_treated[usable] >= 5)
                and np.all(tree.leaf_n_control[usable] >= 5)):
            honest_ok = False

    small = dgp(400, lambda x: 1.0 + x[:, 1], seed=5, noise=0.5)
    params = ForestParams(n_trees=60, bag_size=20, seed=6)
    base = fit_causal_forest(small, params)
    shifted = fit_causal_forest(
        TrialDataset(1, small.y + 1000.0, small.a, small.x, small.covariate_names), params
    )
    swapped = fit_causal_forest(
        TrialDataset(1, small.y, 1 - small.a, small.x, small.covariate_names), params
    )
    few = points[:20]
    t_base = forest_predict(base, few)[0]
    t_shift = forest_predict(shifted, few)[0]
    t_swap = forest_predict(swapped, few)[0]
    shift_dev = float(np.abs(t_base - t_shift).max())
    shift_ok = shift_dev <= 1e-9
    antisym_ok = np.array_equal(t_swap, -t_base)

    ok = const_err <= 0.25 and null_err <= 0.15 and honest_ok and shift_ok and antisym_ok
    report(
        "criterion 8 (forest sanity)",
        ok,
        f"|tau-2| mean={const_err:.3f} (<=0.25); |tau0| mean={null_err:.3f} (<=0.15); "
        f"honesty={honest_ok}; shift dev={shift_dev:.1e}; antisymmetry exact={antisym_ok}",
    )


def test_criterion_09_bart_sanity():
    rng = np.random.default_rng(909)
    x = rng.normal(size=(1000, 3))
    a = rng.integers(0, 2, 1000)
    y = x[:, 0] + np.sin(x[:, 1]) + rng.normal(0, 0.3, 1000)
    ds = TrialDataset(1, y, a, x, ("c0", "c1", "c2"))
    points = rng.normal(size=(20, 3))
    post = fit_bart_slearner(
        ds, points, BartParams(n_trees=50, n_burn=300, n_draws=400, seed=10)
    )
    taus, se2, _, _ = bart_cates(post)
    mean_abs = float(np.mean(np.abs(taus)))

    f1 = post.draws[:, 1]
    f0 = post.draws[:, 0]
    identity_ok = se2[0] == float(np.var(f1, ddof=1) + np.var(f0, ddof=1))

    small_params = BartParams(n_trees=10, n_burn=30, n_draws=40, seed=11)
    small_points = points[:3]
    d1 = fit_bart_slearner(ds, small_points, small_params).draws
    d2 = fit_bart_slearner(ds, small_points, small_params).draws
    deterministic = np.array_equal(d1, d2)

    ok = mean_abs <= 0.2 and identity_ok and deterministic
    report(
        "criterion 9 (BART sanity)",
        ok,
        f"zero-effect mean|tau|={mean_abs:.3f} (<=0.2); se2 identity={identity_ok}; "
        f"bit-exact determinism={deterministic}",
    )


def test_criterion_10_uniform_effect_robustness():
    config = SimConfig(
        k_studies=10, n_per_study=500, cate_setting="linear",
        heterogeneity_level=1, effect_distribution="uniform",
        n_replications=100, master_seed=EXPERIMENT_SEED,
    )
    table = run_experiment(config, "linear")
    median = float(np.median(table.coverage))
    ok = median >= 0.88
    report("criterion 10 (uniform study effects)", ok,
           f"median coverage = {median:.3f} (>= 0.88)")


GOLDEN_DIR = "tests/golden"


def _run_cli(args):
    assert cli_main([str(a) for a in args]) == 0


def test_criterion_11_golden_files(tmp_path):
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden"
    runs = []
    for tag in ("r1", "r2"):
        pred_dir = tmp_path / f"pred_{tag}"
        sim_dir = tmp_path / f"sim_{tag}"
        _run_cli(["predict", "--aggregates", golden / "aggregates_input.csv",
                  "--svg", "--out-dir", pred_dir])
        _run_cli(["simulate", "--config", golden / "experiment.cfg",
                  "--out-dir", sim_dir])
        runs.append({
            "predictions.csv": (pred_dir / "predictions.csv").read_bytes(),
            "predictions.svg": (pred_dir / "predictions.svg").read_bytes(),
            "metrics.csv": (sim_dir / "metrics.csv").read_bytes(),
            "coverage.svg": (sim_dir / "coverage.svg").read_bytes(),
        })
    repeat_ok = runs[0] == runs[1]
    mismatched = [
        name for name, body in runs[0].items()
        if body != (golden / name).read_bytes()
    ]
    ok = repeat_ok and not mismatched
    report(
        "criterion 11 (golden artifacts)",
        ok,
        f"rerun identical={repeat_ok}; golden mismatches={mismatched or 'none'}",
    )


def test_criterion_11_compare_intervals_golden(tmp_path):
    # compare-intervals on the golden aggregates and predictions, two
    # profiles; it runs nothing in parallel, so it takes no --threads.
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden"
    _run_cli(["compare-intervals", "--aggregates", golden / "aggregates_input.csv",
              "--predictions", golden / "predictions.csv", "--profile", "0,3",
              "--out-dir", tmp_path])
    same = (tmp_path / "compare_intervals.svg").read_bytes() == (
        golden / "compare_intervals.svg").read_bytes()
    report("criterion 11 (compare-intervals golden figure)", same,
           f"bytes {'equal' if same else 'differ from'} the golden")


@pytest.mark.parametrize("honest,golden_name", [
    ("true", "forest_aggregates.csv"),
    ("false", "forest_aggregates_adaptive.csv"),
], ids=["honest", "adaptive"])
def test_criterion_11_forest_golden_aggregates(tmp_path, honest, golden_name):
    # estimate --stage1 forest on 4 studies x 300 rows (age, binary smoker,
    # weight rounded to two decimals, so values tie) and 30 profiles; the
    # aggregates must keep their bytes at every worker count.
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden"
    mismatched = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        _run_cli(["estimate", "--trials", golden / "forest_trials.csv",
                  "--profiles", golden / "forest_profiles.csv", "--stage1", "forest",
                  "--honest", honest, "--trees", 100, "--seed", 5,
                  "--threads", threads, "--out-dir", out])
        if (out / "aggregates.csv").read_bytes() != (golden / golden_name).read_bytes():
            mismatched.append(threads)
    report(
        f"criterion 11 (forest golden aggregates, honest={honest})",
        not mismatched,
        f"golden mismatches at threads={mismatched or 'none'}",
    )


def test_criterion_11_bart_golden_aggregates(tmp_path):
    # estimate --stage1 bart with quantile intervals on the forest golden
    # inputs; the aggregates and the per-study quantile intervals must keep
    # their bytes at every worker count.
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden"
    expected = {
        "aggregates.csv": golden / "bart_aggregates.csv",
        "study_quantile_intervals.csv": golden / "bart_quantile_intervals.csv",
    }
    mismatched = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        _run_cli(["estimate", "--trials", golden / "forest_trials.csv",
                  "--profiles", golden / "forest_profiles.csv", "--stage1", "bart",
                  "--interval", "quantile", "--trees", 10, "--burn", 10,
                  "--draws", 20, "--seed", 5, "--threads", threads, "--out-dir", out])
        mismatched += [(threads, name) for name, path in expected.items()
                       if (out / name).read_bytes() != path.read_bytes()]
    report(
        "criterion 11 (BART golden aggregates and quantile intervals)",
        not mismatched,
        f"golden mismatches (threads, file)={mismatched or 'none'}",
    )
