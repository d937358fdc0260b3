"""Command-line behavior: schemas, exit codes, determinism of artifacts."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from catemeta import SimConfig, cli, run_experiment
from catemeta.cli import main
from catemeta.forest import ForestParams, fit_causal_forest
from catemeta.io import (
    read_aggregates_csv,
    read_predictions_csv,
    read_trials_csv,
    write_metrics_csv,
)
from catemeta.rng import spawn_seed
from test_acceptance import grid_argmax

GOLDEN = Path(__file__).parent / "golden"


def write_inputs(tmp_path, n_studies=4, n_rows=50, n_profiles=6, seed=5):
    rng = np.random.default_rng(seed)
    lines = ["study_id,y,a,age,sex"]
    for s in range(1, n_studies + 1):
        for _ in range(n_rows):
            age = rng.normal()
            sex = float(rng.integers(0, 2))
            a = int(rng.integers(0, 2))
            y = 1.0 + 0.5 * age + a * (2.0 + 0.8 * age) + rng.normal(0, 0.3)
            lines.append(f"{s},{y!r},{a},{age!r},{sex!r}")
    trials = tmp_path / "trials.csv"
    trials.write_text("\n".join(lines) + "\n")
    lines = ["profile_id,age,sex"]
    for i in range(n_profiles):
        lines.append(f"{i},{rng.normal()!r},{float(rng.integers(0, 2))!r}")
    profiles = tmp_path / "profiles.csv"
    profiles.write_text("\n".join(lines) + "\n")
    return trials, profiles


def run(args):
    return main([str(a) for a in args])


def one_error_line(err):
    """The ``error:`` line that ends the stderr text ``err`` of a failed run;
    fails on a traceback, or on any other ``error:`` line."""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert [line for line in lines if line.startswith("error:")] == lines[-1:], err
    return lines[-1]


def golden_with_cell(tmp_path, name, line, column, value):
    """A copy of golden file ``name`` with one cell replaced."""
    return golden_with_cells(tmp_path, name, {(line, column): value})


def golden_with_cells(tmp_path, name, cells):
    """A copy of golden file ``name`` with the cells ``{(line, column): value}``
    replaced."""
    lines = (GOLDEN / name).read_text().splitlines()
    for (line, column), value in cells.items():
        fields = lines[line].split(",")
        fields[column] = value
        lines[line] = ",".join(fields)
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestEstimate:
    def test_linear_aggregate_cardinality(self, tmp_path):
        trials, profiles = write_inputs(tmp_path)
        out = tmp_path / "out"
        code = run(["estimate", "--trials", trials, "--profiles", profiles,
                    "--stage1", "linear", "--out-dir", out])
        assert code == 0
        body = (out / "aggregates.csv").read_text().splitlines()
        assert body[0] == "profile_id,study_id,tau_hat,se2"
        assert len(body) - 1 == 4 * 6  # studies x profiles
        assert (out / "manifest.json").exists()

    def test_rerun_same_seed_byte_identical(self, tmp_path):
        trials, profiles = write_inputs(tmp_path, n_rows=120)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            code = run(["estimate", "--trials", trials, "--profiles", profiles,
                        "--stage1", "forest", "--trees", 40, "--seed", 7,
                        "--out-dir", out])
            assert code == 0
        assert (out1 / "aggregates.csv").read_bytes() == (out2 / "aggregates.csv").read_bytes()
        manifest = json.loads((out1 / "manifest.json").read_text())
        studies = manifest["diagnostics"]["stage1"]
        assert [d["study_id"] for d in studies] == [1, 2, 3, 4]
        for diag, dataset in zip(studies, read_trials_csv([str(trials)])):
            assert set(diag) == {"study_id", "fit_seconds", "se2_floor_hits",
                                 "skipped_tree_frac", "nodes_per_tree", "usable_leaf_frac"}
            assert diag["fit_seconds"] >= 0.0
            assert 0 <= diag["se2_floor_hits"] <= 6
            assert 0.0 <= diag["skipped_tree_frac"] <= 0.5
            # The growth statistics of the study's forest, refitted here.
            model = fit_causal_forest(dataset, ForestParams(
                n_trees=40, seed=spawn_seed(7, "study", dataset.study_id)))
            leaves = np.concatenate([t.leaf_tau[t.feature < 0] for t in model.trees])
            nodes = sum(t.n_nodes for t in model.trees) / 40
            assert nodes > 1.0
            assert diag["nodes_per_tree"] == round(nodes, 6)
            assert diag["usable_leaf_frac"] == round(float(np.isfinite(leaves).mean()), 6)
        assert set(manifest["timings_seconds"]) == {"read", "validate", "fit", "write"}

    def test_bart_move_diagnostics_identical_across_reruns_and_threads(self, tmp_path):
        trials, profiles = write_inputs(tmp_path, n_studies=3, n_rows=60, n_profiles=3)
        fields = ("grow_accept_rate", "prune_accept_rate", "change_accept_rate",
                  "mean_leaves_per_tree")
        runs = []
        for name, threads in (("r1", 1), ("r2", 1), ("r3", 2)):
            out = tmp_path / name
            code = run(["estimate", "--trials", trials, "--profiles", profiles,
                        "--stage1", "bart", "--trees", 8, "--burn", 20, "--draws", 30,
                        "--interval", "quantile", "--seed", 4, "--threads", threads,
                        "--out-dir", out])
            assert code == 0
            studies = json.loads((out / "manifest.json").read_text())["diagnostics"]["stage1"]
            runs.append(([{k: d[k] for k in fields} for d in studies],
                         [(out / f).read_bytes() for f in
                          ("aggregates.csv", "study_quantile_intervals.csv")]))
        assert runs[0] == runs[1] == runs[2]
        for diag in runs[0][0]:
            for field in fields[:3]:
                assert 0.0 <= diag[field] <= 1.0
            assert diag["mean_leaves_per_tree"] >= 1.0

    def test_worker_pool_matches_single_thread(self, tmp_path):
        trials, profiles = write_inputs(tmp_path, n_rows=120)
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        for out, threads in ((out1, 1), (out2, 2)):
            code = run(["estimate", "--trials", trials, "--profiles", profiles,
                        "--stage1", "forest", "--trees", 40, "--seed", 3,
                        "--threads", threads, "--out-dir", out])
            assert code == 0
        assert (out1 / "aggregates.csv").read_bytes() == (out2 / "aggregates.csv").read_bytes()

    @pytest.mark.parametrize("text,message", [
        ("study_id,y,age\n1,1.0,0.5\n", "'a'"),
        ("study_id,y,a,age\n", "no trial rows"),
    ], ids=["no-a-column", "no-rows"])
    def test_missing_a_column_exits_2(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        _, profiles = write_inputs(tmp_path)
        code = run(["estimate", "--trials", bad, "--profiles", profiles,
                    "--stage1", "linear", "--out-dir", tmp_path / "x"])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_validation_failure_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "one_arm.csv"
        rows = ["study_id,y,a,age"] + [f"1,{i}.0,1,0.{i}" for i in range(10)]
        bad.write_text("\n".join(rows) + "\n")
        profiles = tmp_path / "p.csv"
        profiles.write_text("profile_id,age\n0,0.5\n")
        code = run(["estimate", "--trials", bad, "--profiles", profiles,
                    "--stage1", "linear", "--out-dir", tmp_path / "x"])
        assert code == 2
        assert "arm a=0" in capsys.readouterr().err

    def test_first_failing_study_ends_the_run(self, tmp_path, capsys):
        # Each failing study used to print an error line of its own.
        trials = tmp_path / "one_arm.csv"
        rows = [f"{s},{i}.0,{s - 1},0.{i}" for s in (1, 2) for i in range(10)]
        trials.write_text("study_id,y,a,age\n" + "\n".join(rows) + "\n")
        profiles = tmp_path / "p.csv"
        profiles.write_text("profile_id,age\n0,0.5\n")
        code = run(["estimate", "--trials", trials, "--profiles", profiles,
                    "--stage1", "linear", "--out-dir", tmp_path / "x"])
        assert code == 2
        assert one_error_line(capsys.readouterr().err) == (
            "error: study 1: arm a=1 has <2 rows (0)")

    @pytest.mark.parametrize("column,value,shown", [
        (1, "nan", "column 'y': not finite: nan"),
        (5, "-inf", "column 'weight': not finite: -inf"),
        (3, "1e400", "column 'age': not finite: inf"),
    ], ids=["nan-outcome", "inf-covariate", "overflowing-covariate"])
    def test_non_finite_trial_value_exits_2(self, tmp_path, capsys, column, value, shown):
        # Each bad row used to get an error line of its own, naming the row by
        # its 0-based index within its study rather than by its file line.
        lines = (GOLDEN / "forest_trials.csv").read_text().splitlines()
        for at in (9, 49, 50):  # file lines 10, 50 and 51
            fields = lines[at].split(",")
            fields[column] = value
            lines[at] = ",".join(fields)
        trials = tmp_path / "trials.csv"
        trials.write_text("\n".join(lines) + "\n")
        code = run(["estimate", "--trials", trials, "--profiles", GOLDEN / "forest_profiles.csv",
                    "--stage1", "linear", "--out-dir", tmp_path / "x"])
        assert code == 2
        assert one_error_line(capsys.readouterr().err) == f"error: {trials}:10: {shown}"

    def test_repeated_trials_path_exits_2(self, tmp_path, capsys):
        # The file used to be read twice: each study doubled and its se2 halved.
        trials, profiles = write_inputs(tmp_path)
        again = f"{tmp_path}/./{trials.name}"
        out = tmp_path / "x"
        code = run(["estimate", "--trials", trials, again, "--profiles", profiles,
                    "--stage1", "linear", "--out-dir", out])
        assert code == 2
        assert one_error_line(capsys.readouterr().err) == (
            f"error: {again}: trial file given more than once")
        assert not (out / "aggregates.csv").exists()

    def test_out_of_range_profile_warns_but_succeeds(self, tmp_path, capsys):
        trials, _ = write_inputs(tmp_path)
        profiles = tmp_path / "far.csv"
        profiles.write_text("profile_id,age,sex\n0,99.0,0.0\n")
        code = run(["estimate", "--trials", trials, "--profiles", profiles,
                    "--stage1", "linear", "--out-dir", tmp_path / "x"])
        assert code == 0
        assert "outside pooled trial range" in capsys.readouterr().err

    def test_bart_quantile_sidecar(self, tmp_path):
        trials, profiles = write_inputs(tmp_path, n_studies=2, n_rows=40, n_profiles=2)
        out = tmp_path / "out"
        code = run(["estimate", "--trials", trials, "--profiles", profiles,
                    "--stage1", "bart", "--trees", 5, "--burn", 10, "--draws", 20,
                    "--interval", "quantile", "--out-dir", out])
        assert code == 0
        lines = (out / "study_quantile_intervals.csv").read_text().splitlines()
        assert lines[0] == "profile_id,study_id,tau_hat,lower,upper"
        assert len(lines) - 1 == 2 * 2

    @pytest.mark.parametrize("last_row,message", [
        ("0,-0.5,0.0", "duplicate profile_id 0"),
        ("2,nan,0.0", "column 'age': not finite: nan"),
        ("2,0.5,-inf", "column 'sex': not finite: -inf"),
    ], ids=["duplicate", "nan-covariate", "inf-covariate"])
    def test_duplicate_profile_id_exits_2(self, tmp_path, capsys, last_row, message):
        trials, _ = write_inputs(tmp_path)
        profiles = tmp_path / "dup.csv"
        profiles.write_text(f"profile_id,age,sex\n0,0.5,1.0\n1,0.1,0.0\n{last_row}\n")
        code = run(["estimate", "--trials", trials, "--profiles", profiles,
                    "--stage1", "bart", "--trees", 5, "--burn", 10, "--draws", 20,
                    "--out-dir", tmp_path / "x"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {profiles}:4: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("header,rows", [
        ("profile_id,sex,age", "0,1.0,0.5\n1,0.0,0.1\n"),
        ("profile_id,foo,bar", "0,0.5,1.0\n1,0.1,0.0\n"),
        ("profile_id,age", "0,0.5\n1,0.1\n"),
        ("profile_id,foo,bar", "1,x,0.0\n"),
    ], ids=["reordered", "renamed", "missing", "renamed-bad-value"])
    def test_profile_columns_must_match_trials_by_name(self, tmp_path, capsys, header, rows):
        # Columns used to be paired with the trials' by position alone.
        trials, _ = write_inputs(tmp_path)
        profiles = tmp_path / "cols.csv"
        profiles.write_text(f"{header}\n{rows}")
        code = run(["estimate", "--trials", trials, "--profiles", profiles,
                    "--stage1", "linear", "--out-dir", tmp_path / "x"])
        assert code == 2
        err = capsys.readouterr().err
        names = tuple(header.split(",")[1:])
        assert err == (f"error: {profiles}:1: covariate columns {names} "
                       "do not match ('age', 'sex')\n")

    @pytest.mark.parametrize("learner_args", [
        ["bart", "--trees", 5, "--burn", 10, "--draws", 1],
        ["bart", "--trees", 0, "--burn", 10, "--draws", 20],
        ["forest", "--trees", 0],
    ], ids=["bart-draws-1", "bart-trees-0", "forest-trees-0"])
    def test_bart_single_draw_exits_3(self, tmp_path, capsys, learner_args):
        trials, profiles = write_inputs(tmp_path)
        out = tmp_path / "x"
        code = run(["estimate", "--trials", trials, "--profiles", profiles,
                    "--stage1", *learner_args, "--out-dir", out])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("draws", [2**62, 10**19])
    def test_bart_draws_numpy_cannot_allocate_exits_3(self, tmp_path, capsys, draws):
        # numpy refuses both shapes without allocating; they used to end in a
        # ValueError traceback from np.empty after the chain was built.
        trials, profiles = write_inputs(tmp_path)
        out = tmp_path / "x"
        code = run(["estimate", "--trials", trials, "--profiles", profiles, "--stage1", "bart",
                    "--trees", 5, "--burn", 10, "--draws", draws, "--out-dir", out])
        assert code == 3
        assert one_error_line(capsys.readouterr().err).startswith(
            f"error: n_draws = {draws}: cannot allocate the kept draws")
        assert not (out / "manifest.json").exists()

    def test_forest_bag_of_one_tree_exits_3(self, tmp_path, capsys):
        # --bag-size 1 used to run: a bag of one tree has no within-bag
        # variance, so the forest's se2 had no Monte Carlo correction.
        trials, profiles = write_inputs(tmp_path)
        out = tmp_path / "x"
        code = run(["estimate", "--trials", trials, "--profiles", profiles,
                    "--stage1", "forest", "--trees", 4, "--bag-size", 1, "--out-dir", out])
        assert code == 3
        assert one_error_line(capsys.readouterr().err) == "error: bag_size must be >= 2, got 1"
        assert not out.exists()

    def test_forest_subsample_too_small_for_a_study_exits_1(self, tmp_path, capsys):
        # A study's own arm counts decide it, so it is a data error, not a
        # config error: about 15 rows an arm give an honest tree 3.75 of
        # each, under the leaf minimum of 5.
        trials, profiles = write_inputs(tmp_path, n_rows=30)
        out = tmp_path / "x"
        code = run(["estimate", "--trials", trials, "--profiles", profiles,
                    "--stage1", "forest", "--trees", 4, "--bag-size", 2, "--out-dir", out])
        assert code == 1
        assert one_error_line(capsys.readouterr().err).startswith(
            "error: subsample too small for the per-arm leaf minima: ")
        assert not (out / "manifest.json").exists()

    def test_invalid_stage1_estimate_exits_1(self, tmp_path, capsys, monkeypatch):
        import catemeta.cli as cli

        def nan_at_second_profile(dataset, points, params):
            tau = np.zeros(len(points))
            tau[1] = np.nan
            return tau, np.ones(len(points)), {}

        monkeypatch.setattr(cli, "estimate_study", nan_at_second_profile)
        trials, profiles = write_inputs(tmp_path)
        out = tmp_path / "x"
        code = run(["estimate", "--trials", trials, "--profiles", profiles,
                    "--stage1", "linear", "--out-dir", out])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1] == "error: study 1, profile 1: tau_hat must be finite"
        assert not (out / "aggregates.csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_outcome_linear_exits_1(self, tmp_path, capsys):
        # The squared residuals overflow and the covariance turns NaN; this
        # used to end in a LinAlgError traceback from the PSD check.
        trials = golden_with_cell(tmp_path, "forest_trials.csv", 1, 1, "1e308")
        out = tmp_path / "x"
        code = run(["estimate", "--trials", trials, "--profiles", GOLDEN / "forest_profiles.csv",
                    "--stage1", "linear", "--out-dir", out])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "Warning" not in err
        assert err.strip().splitlines()[-1] == (
            "error: study 3: the least-squares coefficients or their covariance are not finite")
        assert not (out / "aggregates.csv").exists()

    def _overflowing_outcome_exits_1(self, tmp_path, capsys, learner):
        # The outcome variance (the forest's se2 floor) or the draws' variance
        # (BART's se2) overflows to inf; this used to print a numpy
        # RuntimeWarning before the error line.
        trials = golden_with_cell(tmp_path, "forest_trials.csv", 1, 1, "1e308")
        out = tmp_path / "x"
        code = run(["estimate", "--trials", trials, "--profiles", GOLDEN / "forest_profiles.csv",
                    "--stage1", *learner, "--out-dir", out])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "Warning" not in err
        assert err.strip().splitlines()[-1] == (
            "error: study 3, profile 2: se2 must be finite and >= 0")
        assert not (out / "aggregates.csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_outcome_forest_exits_1(self, tmp_path, capsys):
        self._overflowing_outcome_exits_1(tmp_path, capsys, ["forest", "--trees", 20])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_outcome_bart_exits_1(self, tmp_path, capsys):
        self._overflowing_outcome_exits_1(
            tmp_path, capsys, ["bart", "--trees", 5, "--burn", 10, "--draws", 20])

    @pytest.mark.filterwarnings("error")
    def test_huge_study_outcomes_forest_prints_one_error_line(self, tmp_path, capsys):
        # Study 3's outcomes times 1e306 overflow the split criterion and the
        # bag variance; this used to print three numpy RuntimeWarnings first.
        rows = [line.split(",") for line in
                (GOLDEN / "forest_trials.csv").read_text().splitlines()]
        trials = golden_with_cells(tmp_path, "forest_trials.csv", {
            (i, 1): repr(float(row[1]) * 1e306) for i, row in enumerate(rows) if row[0] == "3"})
        code = run(["estimate", "--trials", trials, "--profiles", GOLDEN / "forest_profiles.csv",
                    "--stage1", "forest", "--trees", 20, "--out-dir", tmp_path / "x"])
        assert code == 1
        err = capsys.readouterr().err
        assert "Warning" not in err
        assert one_error_line(err) == "error: study 3, profile 2: se2 must be finite and >= 0"

    @pytest.mark.filterwarnings("error")
    def test_overflowing_outcome_range_bart_exits_1(self, tmp_path, capsys):
        # BART rescales the outcomes by their range, which overflows here; this
        # used to print numpy RuntimeWarnings and sample on NaN outcomes.
        trials = golden_with_cells(tmp_path, "forest_trials.csv",
                                   {(1, 1): "1.5e308", (2, 1): "-1.5e308"})
        code = run(["estimate", "--trials", trials, "--profiles", GOLDEN / "forest_profiles.csv",
                    "--stage1", "bart", "--trees", 5, "--burn", 10, "--draws", 20,
                    "--out-dir", tmp_path / "x"])
        assert code == 1
        err = capsys.readouterr().err
        assert "Warning" not in err
        assert one_error_line(err) == "error: study 3: the outcome range overflows"

    def test_bad_honest_value_exits_2(self, tmp_path):
        trials, profiles = write_inputs(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(["estimate", "--trials", trials, "--profiles", profiles,
                 "--stage1", "forest", "--honest", "maybe",
                 "--out-dir", tmp_path / "x"])
        assert exc.value.code == 2

    def test_unknown_moderator_exits_2(self, tmp_path):
        trials, profiles = write_inputs(tmp_path)
        code = run(["estimate", "--trials", trials, "--profiles", profiles,
                    "--stage1", "linear", "--moderators", "bmi",
                    "--out-dir", tmp_path / "x"])
        assert code == 2

    @pytest.mark.parametrize("moderators", ["age,age", "age, sex,age"])
    def test_repeated_moderator_exits_2(self, tmp_path, capsys, moderators):
        # age,age used to fit what age fits, with a byte-identical aggregates.csv.
        trials, profiles = write_inputs(tmp_path)
        code = run(["estimate", "--trials", trials, "--profiles", profiles,
                    "--stage1", "linear", "--moderators", moderators,
                    "--out-dir", tmp_path / "x"])
        assert code == 2
        err = capsys.readouterr().err
        assert one_error_line(err) == "error: repeated moderator covariate 'age'"
        assert not (tmp_path / "x" / "aggregates.csv").exists()


class TestPredict:
    def aggregates(self, tmp_path, k=4):
        trials, profiles = write_inputs(tmp_path, n_studies=k)
        out = tmp_path / "est"
        assert run(["estimate", "--trials", trials, "--profiles", profiles,
                    "--stage1", "linear", "--out-dir", out]) == 0
        return out / "aggregates.csv"

    def test_predict_writes_intervals_and_svg(self, tmp_path):
        agg = self.aggregates(tmp_path)
        out = tmp_path / "pred"
        code = run(["predict", "--aggregates", agg, "--svg", "--out-dir", out])
        assert code == 0
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "profile_id,tau_pooled,theta2,lower,upper,df,flag_nonoverlap"
        assert len(lines) - 1 == 6
        svg = (out / "predictions.svg").read_text()
        assert svg.count('class="interval"') == 6

    def test_two_study_profiles_get_empty_interval(self, tmp_path, capsys):
        agg = tmp_path / "agg.csv"
        agg.write_text(
            "profile_id,study_id,tau_hat,se2\n"
            "0,1,1.0,0.5\n0,2,2.0,0.5\n"
        )
        out = tmp_path / "pred"
        assert run(["predict", "--aggregates", agg, "--out-dir", out]) == 0
        assert "no prediction interval" in capsys.readouterr().err
        line = (out / "predictions.csv").read_text().splitlines()[1]
        assert line.endswith(",,,")

    def test_profiles_of_every_k_pool_in_one_call(self, tmp_path, monkeypatch):
        # Profiles with K = 2, 3, 5 and 9 used to take one pool_profiles call per K.
        rng = np.random.default_rng(30)
        lines, profiles = ["profile_id,study_id,tau_hat,se2"], {}
        for pid, k in enumerate([5, 2, 9, 3, 5, 9, 2, 3]):
            tau, se2 = rng.normal(0.0, 1.0, k), rng.uniform(0.05, 0.5, k)
            profiles[pid] = tau, se2
            lines += [f"{pid},{s + 1},{t!r},{v!r}"
                      for s, (t, v) in enumerate(zip(tau.tolist(), se2.tolist()))]
        agg = tmp_path / "agg.csv"
        agg.write_text("\n".join(lines) + "\n")
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return cli_pool_profiles(*args, **kwargs)

        cli_pool_profiles = cli.pool_profiles
        monkeypatch.setattr(cli, "pool_profiles", counted)
        assert run(["predict", "--aggregates", agg, "--out-dir", tmp_path / "pred"]) == 0
        assert len(calls) == 1
        pid, center, theta2, lower, upper, k = read_predictions_csv(
            tmp_path / "pred" / "predictions.csv")
        for j, (tau, se2) in profiles.items():  # each profile's bits alone
            alone = cli_pool_profiles(tau[:, None], se2[:, None])
            assert (center[j], theta2[j], k[j]) == (alone.tau_pooled[0], alone.theta2[0], len(tau))
            if len(tau) > 2:
                assert lower[j] == alone.tau_pooled[0] - alone.half_width[0]
                assert upper[j] == alone.tau_pooled[0] + alone.half_width[0]
            else:
                assert np.isnan(lower[j]) and np.isnan(upper[j])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("se2", ["1e308", "5e-324"])
    def test_extreme_se2_predicts_without_warnings(self, tmp_path, capsys, se2):
        # The likelihood scan overflows to inf on the way; that used to print
        # numpy RuntimeWarnings on a run that exits 0.
        agg = golden_with_cell(tmp_path, "aggregates_input.csv", 1, 3, se2)
        out = tmp_path / "pred"
        assert run(["predict", "--aggregates", agg, "--out-dir", out]) == 0
        assert "Warning" not in capsys.readouterr().err
        pid, tau_pooled, theta2, lower, upper, k = read_predictions_csv(out / "predictions.csv")
        assert np.isfinite(tau_pooled).all() and np.isfinite(theta2).all()
        assert np.isfinite(lower[k >= 3]).all() and np.isfinite(upper[k >= 3]).all()
        apid, _, tau, v = read_aggregates_csv(agg)
        tau, v = tau[apid == 0], v[apid == 0]
        # The search bound of criterion 4, without the extreme study's se2.
        bound = 10.0 * float(np.var(tau, ddof=1)) + float(v[1:].max())
        assert abs(theta2[pid == 0][0] - grid_argmax(tau, v, bound)) <= 1e-4

    @pytest.mark.filterwarnings("error")
    def test_overflowing_spread_exits_1(self, tmp_path, capsys):
        # theta2 is about 1e400, past the float range; this used to print
        # two numpy RuntimeWarnings.
        agg = tmp_path / "agg.csv"
        agg.write_text("profile_id,study_id,tau_hat,se2\n"
                       "0,1,1e200,0.5\n0,2,-1e200,0.5\n0,3,0,0.5\n")
        out = tmp_path / "x"
        assert run(["predict", "--aggregates", agg, "--out-dir", out]) == 1
        assert capsys.readouterr().err == "error: the REML estimate of theta2 overflows\n"
        assert not (out / "predictions.csv").exists()

    def test_a_weightless_study_leaves_theta2(self, tmp_path):
        # The fourth study carries no information, but its se2 inflates the
        # search bound; bisection from the grid's best point, near 1e96,
        # used to stop after 200 halvings and write theta2 = 1.5e36.
        agg = tmp_path / "agg.csv"
        agg.write_text("profile_id,study_id,tau_hat,se2\n"
                       "0,1,0,1e-6\n0,2,1,1e-6\n0,3,2,1e-6\n0,4,3,1e100\n")
        out = tmp_path / "x"
        assert run(["predict", "--aggregates", agg, "--out-dir", out]) == 0
        assert (out / "predictions.csv").read_text().splitlines()[1] == (
            "0,1.0,0.999999,-3.968273560397029,5.968273560397029,2,crosses_zero")

    def test_equal_estimates_with_some_zero_se2_are_a_point(self, tmp_path, capsys):
        # Every weighting of equal estimates gives that estimate, and a zero
        # se2 a variance of 0; this used to exit 1 ("degenerate variance").
        agg = tmp_path / "agg.csv"
        agg.write_text("profile_id,study_id,tau_hat,se2\n"
                       "0,1,0.3,0\n0,2,0.3,0.1\n0,3,0.3,0.2\n")
        out = tmp_path / "x"
        assert run(["predict", "--aggregates", agg, "--out-dir", out]) == 0
        assert capsys.readouterr().err == ""
        assert (out / "predictions.csv").read_text().splitlines()[1] == (
            "0,0.3,0.0,0.3,0.3,1,positive")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tau, se2, row", [
        ("1.0", "1e-308", "0,1.0,0.0,1.0,1.0,1,positive"),
        ("1e300", "1e-10", "0,1e+300,0.0,1e+300,1e+300,1,positive"),
    ], ids=["weight-sum", "weighted-sum"])
    def test_overflowing_weight_sums_pool(self, tmp_path, tau, se2, row):
        # The sums of the weights 1/se2 (1e308 each), or of the weighted
        # estimates (1e310 each), overflow; these used to write tau_pooled
        # nan with an empty interval, or inf, and a numpy RuntimeWarning.
        agg = tmp_path / "agg.csv"
        agg.write_text("profile_id,study_id,tau_hat,se2\n"
                       + "".join(f"0,{s},{tau},{se2}\n" for s in (1, 2, 3)))
        out = tmp_path / "x"
        assert run(["predict", "--aggregates", agg, "--out-dir", out]) == 0
        assert (out / "predictions.csv").read_text().splitlines()[1] == row
        assert run(["compare-intervals", "--aggregates", agg, "--predictions",
                    out / "predictions.csv", "--profile", "0", "--out-dir", out]) == 0

    @pytest.mark.filterwarnings("error")
    def test_overflowing_pooled_estimate_exits_1(self, tmp_path, capsys):
        agg = tmp_path / "agg.csv"
        agg.write_text("profile_id,study_id,tau_hat,se2\n"
                       + "".join(f"0,{s},1.7e308,1e-300\n" for s in (1, 2, 3)))
        out = tmp_path / "x"
        assert run(["predict", "--aggregates", agg, "--out-dir", out]) == 1
        assert capsys.readouterr().err == "error: the pooled estimate overflows\n"
        assert not (out / "predictions.csv").exists()

    def test_single_study_profile_exits_2(self, tmp_path):
        agg = tmp_path / "agg.csv"
        agg.write_text("profile_id,study_id,tau_hat,se2\n0,1,1.0,0.5\n")
        assert run(["predict", "--aggregates", agg, "--out-dir", tmp_path / "x"]) == 2

    def test_sign_flags_present(self, tmp_path):
        agg = tmp_path / "agg.csv"
        rows = ["profile_id,study_id,tau_hat,se2"]
        for s in (1, 2, 3, 4):
            rows.append(f"0,{s},{5.0 + 0.01 * s},0.01")   # clearly positive
            rows.append(f"1,{s},{0.1 * (-1) ** s},0.5")   # straddles zero
        agg.write_text("\n".join(rows) + "\n")
        out = tmp_path / "pred"
        assert run(["predict", "--aggregates", agg, "--out-dir", out]) == 0
        body = (out / "predictions.csv").read_text()
        assert ",positive" in body
        assert ",crosses_zero" in body


    @pytest.mark.parametrize("row", [
        "0,2,nan,0.5", "0,2,inf,0.5", "0,2,-inf,0.5",
        "0,2,1.5,-0.5", "0,2,1.5,nan", "0,2,1.5,inf",
        "0,9223372036854775808,1.5,0.5",
    ], ids=["nan-0.5", "inf-0.5", "-inf-0.5", "1.5--0.5", "1.5-nan", "1.5-inf",
            "study-beyond-int64"])
    def test_bad_aggregate_value_exits_2(self, tmp_path, capsys, row):
        agg = tmp_path / "agg.csv"
        agg.write_text(
            "profile_id,study_id,tau_hat,se2\n"
            f"0,1,1.0,0.5\n{row}\n0,3,2.0,0.5\n"
        )
        assert run(["predict", "--aggregates", agg, "--out-dir", tmp_path / "x"]) == 2
        err = capsys.readouterr().err
        assert f"{agg}:3:" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    def test_duplicate_profile_study_row_exits_2(self, tmp_path, capsys):
        agg = tmp_path / "agg.csv"
        agg.write_text(
            "profile_id,study_id,tau_hat,se2\n"
            "0,1,1.0,0.5\n0,2,1.5,0.5\n0,3,2.0,0.5\n0,2,1.5,0.5\n"
        )
        assert run(["predict", "--aggregates", agg, "--out-dir", tmp_path / "x"]) == 2
        assert f"{agg}:5: duplicate row for profile 0, study 2" in capsys.readouterr().err

    @pytest.mark.parametrize("value,message", [
        ("x", "column 'tau_hat': not a number: 'x'"), ("nan", "tau_hat must be finite"),
    ], ids=["not-a-number", "not-finite"])
    def test_error_after_multiline_quoted_field_names_its_line(self, tmp_path, capsys,
                                                                value, message):
        # Rows used to be numbered by record, which put this row on line 4.
        agg = tmp_path / "agg.csv"
        agg.write_text('profile_id,study_id,tau_hat,se2\n1,1,"0.5\n",0.1\n'
                       f"1,2,0.7,0.1\n2,1,{value},0.1\n")
        assert run(["predict", "--aggregates", agg, "--out-dir", tmp_path / "x"]) == 2
        assert capsys.readouterr().err == f"error: {agg}:5: {message}\n"

    @pytest.mark.parametrize("body", ["", "\n\n"], ids=["header-only", "blank-lines"])
    def test_header_only_aggregates_exit_2(self, tmp_path, capsys, body):
        agg = tmp_path / "agg.csv"
        agg.write_text("profile_id,study_id,tau_hat,se2\n" + body)
        out = tmp_path / "x"
        assert run(["predict", "--aggregates", agg, "--svg", "--out-dir", out]) == 2
        assert capsys.readouterr().err == f"error: {agg}: no aggregate rows\n"
        assert not (out / "predictions.csv").exists()

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("alpha", ["1.5", "0", "1", "-0.1", "nan"])
    def test_alpha_outside_unit_interval_exits_3(self, tmp_path, capsys, k, alpha):
        agg = tmp_path / "agg.csv"
        agg.write_text("profile_id,study_id,tau_hat,se2\n"
                       + "".join(f"0,{s},{s},0.5\n" for s in range(1, k + 1)))
        out = tmp_path / "x"
        assert run(["predict", "--aggregates", agg, "--alpha", alpha,
                    "--out-dir", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: --alpha must be in (0, 1)")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["1e-20", "1e-300"])
    def test_tiny_alpha_gives_finite_intervals(self, tmp_path, capsys, alpha):
        # 1 - alpha/2 rounds to 1 here; the half-width takes the t quantile
        # from the lower tail alpha/2 instead, which used to end in a traceback.
        agg = GOLDEN / "aggregates_input.csv"
        widths = []
        for level in ("0.05", alpha):
            out = tmp_path / level
            assert run(["predict", "--aggregates", agg, "--alpha", level,
                        "--out-dir", out]) == 0
            _, center, _, lower, upper, k = read_predictions_csv(out / "predictions.csv")
            assert (k == 4).all() and np.isfinite(lower).all() and np.isfinite(upper).all()
            assert (lower < center).all() and (center < upper).all()
            widths.append(upper - lower)
        assert capsys.readouterr().err == ""
        # t_2 at upper tail u is (1 - 2u) / sqrt(2u (1 - u))
        t2 = [(1.0 - 2.0 * u) / math.sqrt(2.0 * u * (1.0 - u)) for u in (0.025, float(alpha) / 2)]
        np.testing.assert_allclose(widths[1] / widths[0], t2[1] / t2[0], rtol=1e-12)

    @pytest.mark.parametrize("alpha", ["5e-324", "1e-310", "1e-300"])
    def test_alpha_needs_a_finite_t_quantile(self, tmp_path, capsys, alpha):
        # At K = 3, 5e-324 used to end in a "p must be in (0, 1)" traceback,
        # and 1e-310 in -inf,inf bounds that compare-intervals refuses.
        agg = tmp_path / "agg.csv"
        agg.write_text("profile_id,study_id,tau_hat,se2\n"
                       + "".join(f"{p},{s},{p + s},0.5\n" for p in (0, 1) for s in (1, 2, 3)))
        out = tmp_path / "x"
        code = run(["predict", "--aggregates", agg, "--alpha", alpha, "--out-dir", out])
        err = capsys.readouterr().err
        if alpha == "1e-300":
            assert (code, err) == (0, "")
            _, center, _, lower, upper, _ = read_predictions_csv(out / "predictions.csv")
            assert np.isfinite(lower).all() and np.isfinite(upper).all()
            assert (lower < center).all() and (center < upper).all()
            return
        assert code == 3
        assert err == (f"error: --alpha: alpha = {float(alpha)!r} is too small: the t quantile "
                       "at 1 - alpha/2 with df = 1 is not a finite float\n")
        assert not (out / "predictions.csv").exists() and not (out / "manifest.json").exists()

    def test_key_ordered_aggregates_are_not_sorted_again(self, tmp_path):
        # estimate writes rows in (profile, study) order; sorting them again
        # cost cli-predict about 4% of its time.  Rows in any other order are
        # sorted, and give the same arrays and the same predictions.
        agg = GOLDEN / "aggregates_input.csv"
        header, *rows = agg.read_text().splitlines()
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("\n".join([header, *rows[::-1]]) + "\n")

        def refuse(*args, **kwargs):
            raise AssertionError("np.lexsort called on rows in key order")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np, "lexsort", refuse)
            in_order = read_aggregates_csv(str(agg))
            assert run(["predict", "--aggregates", agg, "--out-dir", tmp_path / "a"]) == 0
        assert all(column.flags.c_contiguous for column in in_order)
        again = read_aggregates_csv(str(shuffled))
        assert [c.tolist() for c in again] == [c.tolist() for c in in_order]
        assert run(["predict", "--aggregates", shuffled, "--out-dir", tmp_path / "b"]) == 0
        assert ((tmp_path / "a" / "predictions.csv").read_bytes()
                == (tmp_path / "b" / "predictions.csv").read_bytes())

    def test_manifest_records_reml_diagnostics(self, tmp_path):
        agg = tmp_path / "agg.csv"
        rows = ["profile_id,study_id,tau_hat,se2"]
        for s in (1, 2, 3, 4):
            rows.append(f"0,{s},2.0,0.5")                  # equal estimates
            rows.append(f"1,{s},{1.0 + 1e-3 * s},0.8")     # theta2 = 0 boundary
            rows.append(f"2,{s},{float(s * s)},0.1")       # theta2 > 0
        rows += ["3,1,0.0,0.5", "3,2,3.0,0.5"]             # K = 2, theta2 > 0
        agg.write_text("\n".join(rows) + "\n")
        out = tmp_path / "pred"
        assert run(["predict", "--aggregates", agg, "--out-dir", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["diagnostics"] == {
            "reml_boundary_hits": 2,
            "reml_bisection_fallbacks": 0,
        }
        theta2 = [float(line.split(",")[2])
                  for line in (out / "predictions.csv").read_text().splitlines()[1:]]
        assert [t == 0.0 for t in theta2] == [True, True, False, False]


class TestCompareIntervals:
    def test_renders_k_plus_one_segments(self, tmp_path):
        trials, profiles = write_inputs(tmp_path)
        est, pred = tmp_path / "est", tmp_path / "pred"
        run(["estimate", "--trials", trials, "--profiles", profiles,
             "--stage1", "linear", "--out-dir", est])
        run(["predict", "--aggregates", est / "aggregates.csv", "--out-dir", pred])
        out = tmp_path / "cmp"
        code = run(["compare-intervals", "--aggregates", est / "aggregates.csv",
                    "--predictions", pred / "predictions.csv",
                    "--profile", "2", "--out-dir", out])
        assert code == 0
        svg = (out / "compare_intervals.svg").read_text()
        assert svg.count('class="study-ci"') == 4
        assert svg.count('class="target-pi"') == 1

    def test_unknown_profile_exits_2(self, tmp_path):
        trials, profiles = write_inputs(tmp_path)
        est, pred = tmp_path / "est", tmp_path / "pred"
        run(["estimate", "--trials", trials, "--profiles", profiles,
             "--stage1", "linear", "--out-dir", est])
        run(["predict", "--aggregates", est / "aggregates.csv", "--out-dir", pred])
        code = run(["compare-intervals", "--aggregates", est / "aggregates.csv",
                    "--predictions", pred / "predictions.csv",
                    "--profile", "42", "--out-dir", tmp_path / "x"])
        assert code == 2

    @pytest.mark.parametrize("profile", ["abc", "", ",", "1,x"])
    def test_bad_profile_flag_exits_2(self, tmp_path, capsys, profile):
        with pytest.raises(SystemExit) as exc:
            run(["compare-intervals", "--aggregates", tmp_path / "agg.csv",
                 "--predictions", tmp_path / "pred.csv", "--profile", profile,
                 "--out-dir", tmp_path / "x"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "integer profile ids" in err and "Traceback" not in err

    def test_repeated_profile_flag_exits_2(self, tmp_path, capsys):
        # This used to draw profile 0 twice.
        with pytest.raises(SystemExit) as exc:
            run(["compare-intervals", "--aggregates", tmp_path / "agg.csv",
                 "--predictions", tmp_path / "pred.csv", "--profile", "0,1,0",
                 "--out-dir", tmp_path / "x"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert err.strip().splitlines()[-1].endswith(
            "argument --profile: repeated profile id 0 in '0,1,0'")

    @pytest.mark.parametrize("row,line", [
        ("0,0.5,0.1,-1.0,2.0,2,crosses_zero", 8),
        ("0,nan,0.1,-1.0,2.0,2,crosses_zero", 2),
        ("0,0.5,0.1,2.0,-1.0,2,crosses_zero", 2),
        ("0,0.5,-0.1,-1.0,2.0,2,crosses_zero", 2),
        ("0,0.5,inf,-1.0,2.0,2,crosses_zero", 2),
        ("0,0.5,0.1,,2.0,2,crosses_zero", 2),
        ("0,0.5,0.1,-1.0,2.0,,crosses_zero", 2),
        ("0,0.5,0.1,-inf,2.0,2,crosses_zero", 2),
        ("0,0.5,0.1,-1.0,nan,2,crosses_zero", 2),
        ("0,3.0,0.1,-1.0,2.0,2,crosses_zero", 2),
        ("0,0.5,0.1,-1.0,2.0,0,crosses_zero", 2),
        ("0,0.5,0.1,-1.0,2.0,2,positive", 2),
    ], ids=["repeated-profile", "tau-nan", "lower-above-upper", "theta2-negative",
            "theta2-inf", "lower-only-empty", "df-only-empty", "lower-inf", "upper-nan",
            "tau-outside-interval", "df-zero", "wrong-flag"])
    def test_bad_predictions_exit_2(self, tmp_path, capsys, row, line):
        # The golden predictions with profile 0's row (line 2) replaced, or, for a
        # repeated profile, with a second row for profile 0 appended as line 8.
        golden = Path(__file__).parent / "golden"
        lines = (golden / "predictions.csv").read_text().splitlines()
        lines = lines + [row] if line == 8 else lines[:1] + [row] + lines[2:]
        pred = tmp_path / "pred.csv"
        pred.write_text("\n".join(lines) + "\n")
        code = run(["compare-intervals", "--aggregates", golden / "aggregates_input.csv",
                    "--predictions", pred, "--profile", "0,3", "--out-dir", tmp_path / "x"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pred}:{line}: ") and len(err.splitlines()) == 1


class TestSimulate:
    CONFIG = (
        "k_studies = 4\nn_per_study = 80\nheterogeneity_level = 1\n"
        "n_replications = 2\nmaster_seed = 11\nmethods = linear, oracle\n"
    )

    def test_metrics_cardinality_and_boxes(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG)
        out = tmp_path / "sim"
        assert run(["simulate", "--config", cfg, "--out-dir", out]) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == ("profile_id,method,coverage,mean_length,bias,"
                            "n_effective_replications")
        assert len(lines) - 1 == 100 * 2
        assert (out / "coverage.svg").read_text().count('class="box"') == 2

    def test_rerun_identical(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        run(["simulate", "--config", cfg, "--out-dir", out1])
        run(["simulate", "--config", cfg, "--out-dir", out2])
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        assert (out1 / "coverage.svg").read_bytes() == (out2 / "coverage.svg").read_bytes()

    def test_bad_config_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("k_studeys = 4\n")
        assert run(["simulate", "--config", cfg, "--out-dir", tmp_path / "x"]) == 3
        assert "k_studeys" in capsys.readouterr().err

    @pytest.mark.parametrize("methods, message", [
        ("linear, linear", "repeated method 'linear'"), ("", "no method given"),
    ], ids=["repeated", "empty"])
    def test_repeated_or_no_methods_exit_3(self, tmp_path, capsys, methods, message):
        # Both used to exit 0: a repeated method wrote every (profile_id,
        # method) row twice, no method a header-only metrics.csv.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"k_studies = 4\nn_replications = 1\nmethods = {methods}\n")
        out = tmp_path / "x"
        assert run(["simulate", "--config", cfg, "--out-dir", out]) == 3
        assert capsys.readouterr().err == f"error: {cfg}:3: key 'methods': {message}\n"
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("seed", ["18446744073709551619", "-1"])
    def test_master_seed_outside_64_bits_exits_3(self, tmp_path, capsys, seed):
        # 2**64 + 3 used to write the metrics.csv of master_seed = 3.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG.replace("master_seed = 11", f"master_seed = {seed}"))
        out = tmp_path / "x"
        assert run(["simulate", "--config", cfg, "--out-dir", out]) == 3
        assert capsys.readouterr().err == "error: master_seed must be in [0, 2**64)\n"
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("alpha", ["1.5", "0", "1", "-0.1", "nan"])
    def test_alpha_outside_unit_interval_exits_3(self, tmp_path, capsys, alpha):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"k_studies = 4\nn_replications = 1\nmethods = oracle\nalpha = {alpha}\n")
        assert run(["simulate", "--config", cfg, "--out-dir", tmp_path / "x"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: alpha must be in (0, 1)")
        assert len(err.strip().splitlines()) == 1

    def test_tiny_alpha_gives_finite_lengths(self, tmp_path, capsys):
        # 1 - alpha/2 rounds to 1 at alpha = 1e-20; this used to end in a
        # "p must be in (0, 1)" traceback.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG + "alpha = 1e-20\n")
        out = tmp_path / "sim"
        assert run(["simulate", "--config", cfg, "--out-dir", out]) == 0
        assert "Traceback" not in capsys.readouterr().err
        rows = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()[1:]]
        lengths = np.array([float(row[3]) for row in rows])
        assert len(rows) == 200 and np.isfinite(lengths).all() and (lengths > 1e6).all()

    @pytest.mark.parametrize("alpha", ["5e-324", "1e-310"])
    def test_alpha_without_a_finite_t_quantile_exits_3(self, tmp_path, capsys, alpha):
        # With k_studies = 3 (df = 1), 5e-324 used to end in a traceback and
        # 1e-310 to write mean_length = inf in every row.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"k_studies = 3\nn_replications = 1\nmethods = oracle\nalpha = {alpha}\n")
        out = tmp_path / "x"
        assert run(["simulate", "--config", cfg, "--out-dir", out]) == 3
        assert capsys.readouterr().err == (
            f"error: alpha = {float(alpha)!r} is too small: the t quantile at 1 - alpha/2 "
            "with df = 1 is not a finite float\n")
        assert not (out / "metrics.csv").exists()

    def test_manifest_notes_abort_reasons(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TestManifest.ABORTING)
        out = tmp_path / "sim"
        assert run(["simulate", "--config", cfg, "--out-dir", out]) == 0
        notes = json.loads((out / "manifest.json").read_text())["notes"]
        assert len(notes) == 1
        assert notes[0].startswith("forest_honest: aborted replications 0: subsample too small")
        assert "; 1: subsample too small" in notes[0] and "; 2:" not in notes[0]
        assert (out / "coverage.svg").read_text().count('class="box"') == 1

    @pytest.mark.parametrize("methods", ["linear", "linear, oracle"])
    def test_method_without_an_effective_replication_exits_1(self, tmp_path, capsys, methods):
        # 8 rows cannot fit the linear model's 12 coefficients, so every
        # replication aborts.  This used to exit 0 with an all-NaN metrics.csv.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("k_studies = 3\nn_per_study = 8\nn_replications = 2\n"
                       f"methods = {methods}\nmaster_seed = 1\n")
        out = tmp_path / "sim"
        assert run(["simulate", "--config", cfg, "--out-dir", out]) == 1
        assert capsys.readouterr().err == (
            "error: linear: all 2 replications aborted; the first: "
            "need at least 12 rows to fit 12 coefficients, got 8\n")
        assert not (out / "metrics.csv").exists() and not (out / "coverage.svg").exists()

    def test_some_replications_aborted_keep_exit_0_and_the_tables_bytes(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("k_studies = 4\nn_per_study = 30\nn_replications = 12\n"
                       "master_seed = 10\nmethods = linear\n")
        out = tmp_path / "sim"
        assert run(["simulate", "--config", cfg, "--out-dir", out]) == 0
        table = run_experiment(
            SimConfig(k_studies=4, n_per_study=30, n_replications=12, master_seed=10), "linear")
        assert table.aborted_replications == (3, 7)
        write_metrics_csv(tmp_path / "library.csv", [table])
        assert (out / "metrics.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()

    def test_config_error_in_every_replication_ends_the_run_with_exit_3(self, tmp_path, capsys):
        # BART kept draws that numpy cannot allocate fail every replication
        # alike.  This used to warn of two aborted replications, write an
        # all-NaN metrics.csv and exit 0.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("k_studies = 3\nn_per_study = 40\nn_replications = 2\n"
                       "methods = bart\nbart_draws = 4611686018427387904\n")
        out = tmp_path / "sim"
        assert run(["simulate", "--config", cfg, "--out-dir", out]) == 3
        assert one_error_line(capsys.readouterr().err).startswith(
            "error: n_draws = 4611686018427387904: cannot allocate the kept draws")
        assert not (out / "metrics.csv").exists() and not (out / "manifest.json").exists()

    def test_missing_config_exits_2(self, tmp_path):
        assert run(["simulate", "--config", tmp_path / "nope.cfg",
                    "--out-dir", tmp_path / "x"]) == 2


class TestTextDecoding:
    """Every input file is strict UTF-8 less a leading byte-order mark; a bad
    byte used to end in a UnicodeDecodeError traceback."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_bad_byte_in_aggregates_exits_2(self, tmp_path, capsys, newline):
        agg = tmp_path / "agg.csv"
        rows = ["profile_id,study_id,tau_hat,se2", "0,1,1.0,0.5", "0,2,1.5,0.5", "0,3,2.0,0.5"]
        agg.write_bytes(newline.join(rows).encode().replace(b"1.5", b"1.5\xff") + b"\n")
        out = tmp_path / "x"
        assert run(["predict", "--aggregates", agg, "--out-dir", out]) == 2
        assert capsys.readouterr().err == f"error: {agg}:3: not UTF-8: byte 0xff\n"
        assert not (out / "predictions.csv").exists()

    def test_bad_byte_in_trials_exits_2(self, tmp_path, capsys):
        lines = (GOLDEN / "forest_trials.csv").read_bytes().split(b"\n")
        lines[4] = lines[4].replace(b",", b",\xff", 1)
        trials = tmp_path / "trials.csv"
        trials.write_bytes(b"\n".join(lines))
        out = tmp_path / "x"
        assert run(["estimate", "--trials", trials, "--profiles", GOLDEN / "forest_profiles.csv",
                    "--stage1", "forest", "--trees", 20, "--out-dir", out]) == 2
        assert capsys.readouterr().err == f"error: {trials}:5: not UTF-8: byte 0xff\n"

    def test_latin1_comment_in_config_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes((GOLDEN / "experiment.cfg").read_bytes() + "# café\n".encode("latin-1"))
        n_lines = (GOLDEN / "experiment.cfg").read_text().count("\n")
        assert run(["simulate", "--config", cfg, "--out-dir", tmp_path / "x"]) == 3
        assert capsys.readouterr().err == f"error: {cfg}:{n_lines + 1}: not UTF-8: byte 0xe9\n"

    def test_config_with_byte_order_mark_reads_as_the_plain_file(self, tmp_path, capsys):
        # The first key used to keep the mark: "unknown key '\ufeffk_studies'".
        metrics = []
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_bytes(prefix + (GOLDEN / "experiment.cfg").read_bytes())
            out = tmp_path / name
            assert run(["simulate", "--config", cfg, "--out-dir", out]) == 0
            metrics.append((out / "metrics.csv").read_bytes())
        assert metrics[0] == metrics[1]
        assert capsys.readouterr().err == ""


class TestExitCodeMapping:
    @pytest.mark.parametrize("threads", ["0", "-1", "x"])
    @pytest.mark.parametrize("command", [
        ["estimate", "--trials", "t.csv", "--profiles", "p.csv", "--stage1", "bart"],
        ["simulate", "--config", "exp.cfg"],
    ], ids=["estimate", "simulate"])
    def test_threads_below_one_exits_2(self, tmp_path, capsys, command, threads):
        with pytest.raises(SystemExit) as exc:
            run(command + ["--threads", threads, "--out-dir", tmp_path / "x"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert f"--threads: expected an integer >= 1, got '{threads}'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_compare_intervals_takes_no_threads(self, tmp_path, capsys):
        # It runs nothing in parallel; it used to accept --threads and ignore it.
        with pytest.raises(SystemExit) as exc:
            run(["compare-intervals", "--aggregates", "agg.csv", "--predictions", "pred.csv",
                 "--profile", "0", "--threads", "2", "--out-dir", tmp_path / "x"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "unrecognized arguments: --threads 2" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
    @pytest.mark.parametrize("command", [
        ["estimate", "--trials", "t.csv", "--profiles", "p.csv", "--stage1", "forest"],
        ["predict", "--aggregates", "agg.csv"],
    ], ids=["estimate", "predict"])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, capsys, command, seed):
        # These seeds used to be masked to 64 bits: 2**64 wrote the bytes of
        # seed 0, and -1 those of 2**64 - 1.
        with pytest.raises(SystemExit) as exc:
            run(command + ["--seed", seed, "--out-dir", tmp_path / "x"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert f"--seed: expected an integer in [0, 2**64), got '{seed}'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    ESTIMATE = ["estimate", "--trials", GOLDEN / "forest_trials.csv",
                "--profiles", GOLDEN / "forest_profiles.csv"]

    @pytest.mark.parametrize("command, flag, value", [
        (ESTIMATE + ["--stage1", "forest", "--trees", "20"], "--trees", "2_0"),
        (ESTIMATE + ["--stage1", "forest", "--trees", "20"], "--bag-size", "\u0662\u0660"),
        (ESTIMATE + ["--stage1", "forest", "--trees", "20"], "--threads", "\u0661"),
        (ESTIMATE + ["--stage1", "forest", "--trees", "20"], "--seed", "1_0"),
        (ESTIMATE + ["--stage1", "bart", "--trees", "5"], "--burn", "1_0"),
        (ESTIMATE + ["--stage1", "bart", "--trees", "5"], "--draws", "\u0663\u0660"),
        (["predict", "--aggregates", GOLDEN / "aggregates_input.csv"], "--alpha", "0.0_5"),
        (["compare-intervals", "--aggregates", GOLDEN / "aggregates_input.csv",
          "--predictions", GOLDEN / "predictions.csv"], "--profile", "0_1"),
    ], ids=["trees", "bag-size", "threads", "seed", "burn", "draws", "alpha", "profile"])
    def test_number_flags_take_the_readers_numbers(self, tmp_path, capsys, command, flag,
                                                    value):
        # A number flag follows the readers' rule: ASCII, no "_".  Python's
        # int and float read these texts, so --trees 2_0 --bag-size (Arabic-Indic
        # 20) --threads (Arabic-Indic 1) grew 20 trees, --alpha 0.0_5 pooled at
        # 0.05 and --profile 0_1 drew profile 1, each with exit 0.
        with pytest.raises(SystemExit) as exc:
            run(command + [flag, value, "--out-dir", tmp_path / "x"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert f"argument {flag}: expected " in err and f"got {value!r}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_simulate_takes_no_seed(self, tmp_path, capsys):
        # --seed used to be parsed and ignored: the bytes were those of a run
        # without it, and the manifest recorded master_seed.
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--config", GOLDEN / "experiment.cfg", "--seed", "5",
                 "--out-dir", tmp_path / "x"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert "unrecognized arguments: --seed 5" in err
        assert not (tmp_path / "x").exists()

    def test_runtime_estimation_failure_exits_1(self, tmp_path, monkeypatch):
        from catemeta import EstimationError
        import catemeta.cli as cli

        def boom(path):
            raise EstimationError("synthetic failure")

        monkeypatch.setattr(cli, "read_aggregates_csv", boom)
        agg = tmp_path / "agg.csv"
        agg.write_text("profile_id,study_id,tau_hat,se2\n0,1,1.0,0.5\n0,2,2.0,0.5\n")
        assert run(["predict", "--aggregates", agg, "--out-dir", tmp_path / "x"]) == 1


class TestManifest:
    # Replications 0 and 1 abort, 2 and 3 do not.
    ABORTING = ("k_studies = 3\nn_per_study = 48\nn_replications = 4\nmaster_seed = 1\n"
                "methods = forest_honest\nforest_trees = 20\n")

    def warning_run(self, tmp_path, command):
        if command == "estimate":
            trials, _ = write_inputs(tmp_path)
            profiles = tmp_path / "far.csv"
            profiles.write_text("profile_id,age,sex\n0,99.0,0.0\n1,0.0,9.0\n")
            return ["estimate", "--trials", trials, "--profiles", profiles, "--stage1", "linear"]
        if command == "predict":
            agg = tmp_path / "agg.csv"
            agg.write_text("profile_id,study_id,tau_hat,se2\n0,1,1.0,0.5\n0,2,2.0,0.5\n"
                           "1,1,1.0,0.5\n1,2,2.0,0.5\n1,3,0.0,0.5\n2,1,3.0,0.5\n2,2,2.0,0.5\n")
            return ["predict", "--aggregates", agg]
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.ABORTING)
        return ["simulate", "--config", cfg]

    @pytest.mark.parametrize("command, n_notes", [
        ("estimate", 2), ("predict", 2), ("simulate", 1),
    ])
    def test_every_warning_is_a_manifest_note(self, tmp_path, capsys, command, n_notes):
        # predict's K = 2 warnings used to reach stderr only, and simulate's
        # aborted replications the manifest only.
        out = tmp_path / "out"
        assert run(self.warning_run(tmp_path, command) + ["--out-dir", out]) == 0
        notes = json.loads((out / "manifest.json").read_text())["notes"]
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert len(notes) == n_notes
        assert warnings == [f"warning: {note}" for note in notes]

    def test_file_digest_is_taken_in_chunks(self, tmp_path, monkeypatch):
        path = tmp_path / "input.bin"
        path.write_bytes(bytes(range(256)) * 3)
        monkeypatch.setattr(cli, "_HASH_CHUNK", 100)
        assert cli._sha256_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("command, artifacts", [
        (["estimate", "--trials", GOLDEN / "forest_trials.csv",
          "--profiles", GOLDEN / "forest_profiles.csv", "--stage1", "bart", "--trees", 5,
          "--burn", 5, "--draws", 5, "--interval", "quantile"],
         ["aggregates.csv", "study_quantile_intervals.csv"]),
        (["predict", "--aggregates", GOLDEN / "aggregates_input.csv", "--svg"],
         ["predictions.csv", "predictions.svg"]),
        (["compare-intervals", "--aggregates", GOLDEN / "aggregates_input.csv",
          "--predictions", GOLDEN / "predictions.csv", "--profile", "0"],
         ["compare_intervals.svg"]),
        (["simulate", "--config", GOLDEN / "experiment.cfg"], ["metrics.csv", "coverage.svg"]),
    ], ids=["estimate", "predict", "compare-intervals", "simulate"])
    def test_artifacts_are_hashed_in_write_order(self, tmp_path, command, artifacts):
        out = tmp_path / "out"
        assert run(command + ["--out-dir", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == {"digest", "version", "subcommand", "inputs", "options", "seed",
                                 "timings_seconds", "peak_rss_mb", "artifacts", "notes",
                                 "diagnostics"}
        assert manifest["peak_rss_mb"] > 0
        assert manifest["artifacts"] == [
            {"path": name, "sha256": hashlib.sha256((out / name).read_bytes()).hexdigest()}
            for name in artifacts
        ]
        assert sorted(path.name for path in out.iterdir()) == sorted(artifacts + ["manifest.json"])

    def test_a_failed_run_leaves_no_manifest(self, tmp_path, capsys):
        # A manifest lists only files beside it whose bytes match its digests.
        # This rerun writes predictions.csv, then fails on the SVG; it used to
        # leave the first run's manifest, with alpha 0.05 and the old digest.
        out = tmp_path / "out"
        command = ["predict", "--aggregates", GOLDEN / "aggregates_input.csv", "--svg",
                   "--out-dir", out]
        assert run(command) == 0
        (out / "predictions.svg").unlink()
        (out / "predictions.svg").mkdir()
        capsys.readouterr()
        assert run(command + ["--alpha", "0.2"]) == 2
        assert one_error_line(capsys.readouterr().err).startswith("error: ")
        assert sorted(path.name for path in out.iterdir()) == ["predictions.csv",
                                                               "predictions.svg"]

    def test_a_failed_manifest_write_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        def refuse(source, target):
            raise OSError("replace refused")

        monkeypatch.setattr(cli.os, "replace", refuse)
        out = tmp_path / "out"
        assert run(["predict", "--aggregates", GOLDEN / "aggregates_input.csv",
                    "--out-dir", out]) == 2
        assert one_error_line(capsys.readouterr().err) == "error: replace refused"
        assert [path.name for path in out.iterdir()] == ["predictions.csv"]
