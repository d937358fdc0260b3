"""Tests of the benchmark itself, on small inputs.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from catemeta import cli, simulate  # noqa: E402
from catemeta.forest import ForestParams  # noqa: E402
from catemeta.simulate import MetricsTable  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def small(name, tmp_path, seed=5):
    """The named workload, shrunk so that one pass takes well under a second."""
    if name == "sim-linear":
        return workloads.SimWorkload(seed, "linear", replications=3)
    if name == "sim-forest":
        return workloads.SimWorkload(seed, "forest_honest", replications=1,
                                     forest_params=ForestParams(n_trees=10, bag_size=5))
    if name == "cli-predict":
        return workloads.PredictWorkload(tmp_path, seed, n_profiles=60)
    return workloads.BartWorkload(tmp_path, seed, n_rows=80, n_profiles=3,
                                  trees=5, burn=3, draws=4)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tracing_leaves_outputs_byte_identical(name, tmp_path):
    workload = small(name, tmp_path)
    workload.setup()
    plain = workload.check(workload.run_pass())
    originals = (cli.main, simulate.gen_study, cli.reml_theta2)
    tracer = tracing.Tracer()
    with tracer:
        traced = workload.check(tracer.pass_span(workload.run_pass))
    assert (cli.main, simulate.gen_study, cli.reml_theta2) == originals
    assert not plain.problems and not traced.problems
    assert traced.digest == plain.digest
    assert len(tracer.spans) > 1


@pytest.mark.parametrize("trace", (False, True))
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result, _ = run.measure(small(name, tmp_path), seconds=0.0, trace=trace)
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["correct"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


def swap_bounds(path: Path) -> None:
    """Swap lower and upper in the first row that has an interval."""
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines[1:], 1) if line.split(",")[3])
    fields = lines[i].split(",")
    fields[3], fields[4] = fields[4], fields[3]
    lines[i] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def test_missing_bart_row_fails_every_study(tmp_path):
    workload = small("cli-bart", tmp_path)
    workload.setup()
    result = workload.run_pass()
    path = workload.out / "aggregates.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    outcome = workload.check(result)
    assert outcome.failed == workload.n_studies and outcome.problems


@pytest.mark.parametrize("trace", (False, True))
def test_corrupted_output_counts_in_failed_frac(trace, tmp_path, monkeypatch):
    workload = small("cli-predict", tmp_path)
    clean_pass = workload.run_pass

    def corrupting_pass():
        result = clean_pass()
        swap_bounds(workload.out / "predictions.csv")
        return result

    monkeypatch.setattr(workload, "run_pass", corrupting_pass)
    result, _ = run.measure(workload, seconds=0.0, trace=trace)
    assert not result["correct"]
    assert result["failed"] * 60 == result["attempted"]
    if trace:
        assert result["metrics"]["failed_frac"]["value"] == pytest.approx(1 / 60)


def test_output_differing_between_passes_fails_the_pass(tmp_path, monkeypatch):
    workload = small("cli-predict", tmp_path)
    clean_pass = workload.run_pass
    passes = []

    def drifting_pass():
        result = clean_pass()
        passes.append(1)
        if len(passes) > 1:
            (workload.out / "predictions.svg").write_text("<svg/>")
        return result

    monkeypatch.setattr(workload, "run_pass", drifting_pass)
    result, _ = run.measure(workload, seconds=0.0, trace=False)
    assert not result["correct"]
    assert result["failed"] == 60 * (len(passes) - 1)


def test_aborted_replications_are_failed_items_not_wrong_outputs():
    workload = small("sim-linear", None)
    table = MetricsTable(method="linear", profile_ids=(0, 1), coverage=[1.0, 0.5],
                         mean_length=[1.0, 1.0], bias=[0.0, 0.1],
                         n_effective_replications=2, aborted_replications=(1,))
    outcome = workload.check(table)
    assert outcome.failed == 1 and not outcome.problems
    broken = MetricsTable(method="linear", profile_ids=(0,), coverage=[np.nan],
                          mean_length=[1.0], bias=[0.0], n_effective_replications=3)
    assert workload.check(broken).failed == 3


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "sim-linear",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_pass_count_depends_only_on_seconds_and_workload(tmp_path):
    workload = workloads.make("cli-bart", 1, tmp_path)
    assert workload.pass_s == workloads.PASS_S["cli-bart"]
    workload.pass_s = 2.6
    assert run.rounds(workload, 22.0, trace=False) == 8
    assert run.rounds(workload, 22.0, trace=True) == 4
    assert run.rounds(workload, 0.0, trace=False) == run.MIN_PASSES
    assert run.rounds(workload, 0.0, trace=True) == 1


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
def test_pinned_run_and_its_children_share_one_cpu():
    code = ("import os, subprocess, sys; sys.path.insert(0, 'perfbench'); import run; "
            "run.pin_to_one_cpu(); print(len(os.sched_getaffinity(0))); "
            "subprocess.run([sys.executable, '-c', "
            "'import os; print(len(os.sched_getaffinity(0)))'])")
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE.parent,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.split() == ["1", "1"]


def test_setup_probe_times_a_fresh_process():
    seconds = run.probe_setup("cli-bart", 1)
    assert 0.0 < seconds < 120.0


def test_host_clock_stops_its_reference_process():
    with run.HostClock() as clock:
        _, wall, scale = clock.time(lambda: time.sleep(0.01))
        server = clock._server
    assert server.poll() is not None
    assert len(clock.references) == 2 * run.REFERENCE_SAMPLES
    assert all(r > 0.0 for r in clock.references)
    assert wall >= 0.01
    assert scale == pytest.approx(run.REFERENCE_NOMINAL_S / statistics.fmean(clock.references))


def test_self_times_take_off_the_wrapper_cost():
    tracer = tracing.Tracer(calibrate=False)
    tracer.cost = (1.0, 0.5)
    tracer.spans = [["pass", 0.0, 10.0, -1], ["cli.main", 1.0, 9.0, 0],
                    ["io.read", 2.0, 3.0, 1], ["io.read", 4.0, 6.0, 1]]
    assert tracer.self_times() == [1.0, 2.5, 0.5, 1.5]
    outside, inside = tracing.wrapper_cost(calls=200, repeats=2)
    assert 0.0 < outside + inside < 1e-3
