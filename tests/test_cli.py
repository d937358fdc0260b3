"""Command-line behavior: schemas, exit codes, determinism of artifacts."""

import json

import numpy as np
import pytest

from catemeta.cli import main


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
        for diag in studies:
            assert set(diag) == {"study_id", "fit_seconds", "se2_floor_hits",
                                 "skipped_tree_frac"}
            assert diag["fit_seconds"] >= 0.0
            assert 0 <= diag["se2_floor_hits"] <= 6
            assert 0.0 <= diag["skipped_tree_frac"] <= 0.5
        assert set(manifest["timings_seconds"]) == {"read", "validate", "fit", "write"}

    def test_worker_pool_matches_single_thread(self, tmp_path):
        trials, profiles = write_inputs(tmp_path, n_rows=120)
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        for out, threads in ((out1, 1), (out2, 2)):
            code = run(["estimate", "--trials", trials, "--profiles", profiles,
                        "--stage1", "forest", "--trees", 40, "--seed", 3,
                        "--threads", threads, "--out-dir", out])
            assert code == 0
        assert (out1 / "aggregates.csv").read_bytes() == (out2 / "aggregates.csv").read_bytes()

    def test_missing_a_column_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("study_id,y,age\n1,1.0,0.5\n")
        _, profiles = write_inputs(tmp_path)
        code = run(["estimate", "--trials", bad, "--profiles", profiles,
                    "--stage1", "linear", "--out-dir", tmp_path / "x"])
        assert code == 2
        assert "'a'" in capsys.readouterr().err

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

    def test_duplicate_profile_id_exits_2(self, tmp_path, capsys):
        trials, _ = write_inputs(tmp_path)
        profiles = tmp_path / "dup.csv"
        profiles.write_text("profile_id,age,sex\n0,0.5,1.0\n1,0.1,0.0\n0,-0.5,0.0\n")
        code = run(["estimate", "--trials", trials, "--profiles", profiles,
                    "--stage1", "bart", "--trees", 5, "--burn", 10, "--draws", 20,
                    "--out-dir", tmp_path / "x"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {profiles}:4: duplicate profile_id 0" in err
        assert "Traceback" not in err

    def test_bart_single_draw_exits_3(self, tmp_path, capsys):
        trials, profiles = write_inputs(tmp_path)
        out = tmp_path / "x"
        code = run(["estimate", "--trials", trials, "--profiles", profiles,
                    "--stage1", "bart", "--trees", 5, "--burn", 10, "--draws", 1,
                    "--out-dir", out])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert not out.exists()

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


    @pytest.mark.parametrize("tau_hat,se2", [
        ("nan", "0.5"), ("inf", "0.5"), ("-inf", "0.5"),
        ("1.5", "-0.5"), ("1.5", "nan"), ("1.5", "inf"),
    ])
    def test_bad_aggregate_value_exits_2(self, tmp_path, capsys, tau_hat, se2):
        agg = tmp_path / "agg.csv"
        agg.write_text(
            "profile_id,study_id,tau_hat,se2\n"
            f"0,1,1.0,0.5\n0,2,{tau_hat},{se2}\n0,3,2.0,0.5\n"
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
            "reml_bound_retries": 0,
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

    @pytest.mark.parametrize("alpha", ["1.5", "0", "1", "-0.1", "nan"])
    def test_alpha_outside_unit_interval_exits_3(self, tmp_path, capsys, alpha):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"k_studies = 4\nn_replications = 1\nmethods = oracle\nalpha = {alpha}\n")
        assert run(["simulate", "--config", cfg, "--out-dir", tmp_path / "x"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: alpha must be in (0, 1)")
        assert len(err.strip().splitlines()) == 1

    def test_manifest_notes_abort_reasons(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("k_studies = 3\nn_per_study = 20\nn_replications = 2\n"
                       "methods = forest_honest\nforest_trees = 20\n")
        out = tmp_path / "sim"
        assert run(["simulate", "--config", cfg, "--out-dir", out]) == 0
        notes = json.loads((out / "manifest.json").read_text())["notes"]
        assert len(notes) == 1
        assert notes[0].startswith("forest_honest: aborted replications 0: subsample too small")
        assert "; 1: subsample too small" in notes[0]
        assert (out / "coverage.svg").read_text().count('class="box"') == 0

    def test_missing_config_exits_2(self, tmp_path):
        assert run(["simulate", "--config", tmp_path / "nope.cfg",
                    "--out-dir", tmp_path / "x"]) == 2


class TestExitCodeMapping:
    def test_runtime_estimation_failure_exits_1(self, tmp_path, monkeypatch):
        from catemeta import EstimationError
        import catemeta.cli as cli

        def boom(path):
            raise EstimationError("synthetic failure")

        monkeypatch.setattr(cli, "read_aggregates_csv", boom)
        agg = tmp_path / "agg.csv"
        agg.write_text("profile_id,study_id,tau_hat,se2\n0,1,1.0,0.5\n0,2,2.0,0.5\n")
        assert run(["predict", "--aggregates", agg, "--out-dir", tmp_path / "x"]) == 1
