"""Benchmark of catemeta: four workloads, end-to-end metrics, traced layer metrics.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload sim-linear --seed 1 --seconds 24 --trace 0

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics, the
tracing overhead and the failed fraction.  ``--workload all`` runs every
workload both ways, each in its own process, and prints every metric with
its unit.  Everything runs in one process per workload with one worker.

A run measures set-up ``SETUP_REPEATS`` times, each in a fresh child process
that imports catemeta, makes the inputs from the seed, writes the input files
and warms up.  It then sets up once itself and runs a fixed number of timed
passes of the workload: ``--seconds`` over the workload's nominal pass time
(``workloads.PASS_S``), so that the same seed and ``--seconds`` always give
the same passes and the same attempted and failed counts, whatever the
host's speed.  It checks every pass's outputs and compares each pass's
output bytes with the first.  ``setup_s`` and ``wall_s`` are medians of the
normalised set-up and pass times.

Times are host-speed normalised.  On a shared 2-vCPU host the same code runs
about 1.5x slower in some stretches than in others; a stretch lasts from a
fraction of a second to a few seconds, and the mix drifts over minutes, which
no median of raw wall times can hide.  So before and after every timed call
the run times a fixed reference task ``REFERENCE_SAMPLES`` times, in a child
process of its own (``reference.py``) so that the program's heap, imports and
interpreter state cannot change it.  The call's time is scaled by
``REFERENCE_NOMINAL_S`` over the mean of those reference timings: the seconds
it would take on a host where the reference takes ``REFERENCE_NOMINAL_S``.
Raw times are printed beside them.  The run and every process it starts stay
on one CPU: the CPUs of such a host change speed independently of each
other, so only on the program's own CPU does the reference task measure the
speed the program saw.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

_import_start = time.perf_counter()
try:
    import workloads
except ImportError as err:
    sys.exit(f"perfbench: cannot import catemeta from {ROOT / 'src'}: {err}")
IMPORT_S = time.perf_counter() - _import_start

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402

SETUP_REPEATS = 3
MIN_PASSES = 2
REFERENCE_SAMPLES = 3
# Duration of reference_task on the 2-vCPU Xeon host the baseline was taken
# on; it only sets the scale of the normalised times.
REFERENCE_NOMINAL_S = 0.05
WORK_DIR = ROOT / ".perfbench_work"
END_TO_END_UNITS = {"wall_s": "s", "items_per_s": "items/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, unit in (("_s", "s"), ("_us", "us"), ("_frac", "ratio"),
                         (".bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def pin_to_one_cpu() -> None:
    """Keep this process, and every process it starts, on a single CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_record() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_before": list(os.getloadavg()),
    }


class HostClock:
    """Host speed, sampled by timing the reference task after every timed call.

    The reference task runs in a child process (``reference.py``) that lives
    as long as the clock; use the clock as a context manager.
    """

    def __init__(self):
        self.references: list[float] = []
        self._server = None

    def __enter__(self):
        self._server = subprocess.Popen(
            [sys.executable, str(HERE / "reference.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.sample()
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        self._server.stdin.close()
        try:
            self._server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._server.kill()
            self._server.wait()
        self._server.stdout.close()
        return False

    def sample(self) -> None:
        """Time the reference task ``REFERENCE_SAMPLES`` times and keep the timings."""
        for _ in range(REFERENCE_SAMPLES):
            self._server.stdin.write("\n")
            self._server.stdin.flush()
            line = self._server.stdout.readline()
            if not line:
                raise RuntimeError("the reference task process ended")
            self.references.append(float(line))

    def time(self, run):
        """Return ``(run(), wall seconds, scale)``.

        A time measured during the call, times ``scale``, is that time on a
        host where the reference task takes ``REFERENCE_NOMINAL_S``; the
        host's speed is the mean of the samples just before and just after.
        """
        before = self.references[-REFERENCE_SAMPLES:]
        start = time.perf_counter()
        result = run()
        wall = time.perf_counter() - start
        self.sample()
        around = before + self.references[-REFERENCE_SAMPLES:]
        return result, wall, REFERENCE_NOMINAL_S / statistics.fmean(around)


def probe_setup(name: str, seed: int) -> float:
    """Set-up seconds of a fresh process: import catemeta, then ``setup()``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.splitlines()[-1])


def _timed(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def rounds(workload, seconds: float, trace: bool) -> int:
    """Rounds that fill ``seconds`` at the workload's nominal pass time.

    The count depends only on the workload and ``seconds``, never on the
    host's speed, so two runs of one seed attempt the same items.
    """
    passes = max(MIN_PASSES, int(seconds / workload.pass_s))
    return max(1, passes // 2) if trace else passes


def measure(workload, seconds: float, trace: bool, probe=None):
    """Set up, run timed passes, check them; return (result dict, notes).

    ``probe()`` returns the raw seconds of one set-up; by default it times
    ``workload.setup()`` in this process, which leaves out the import.
    """
    if probe is None:
        def probe():
            return _timed(workload.setup)
    tracer = tracing.Tracer()
    raw = {False: [], True: []}  # seconds of untraced and traced passes
    walls = {False: [], True: []}  # the same, normalised
    outcomes = []  # (traced, Outcome)
    with HostClock() as clock:
        setups = []  # (raw, normalised) seconds
        for _ in range(SETUP_REPEATS):
            setup_s, _, scale = clock.time(probe)
            setups.append((setup_s, setup_s * scale))
        clock.time(workload.setup)
        # A round is one pass, or an untraced and a traced pass.
        for _ in range(rounds(workload, seconds, trace)):
            for traced in (False, True) if trace else (False,):
                if traced:
                    with tracer:
                        result, wall, scale = clock.time(
                            lambda: tracer.pass_span(workload.run_pass))
                else:
                    result, wall, scale = clock.time(workload.run_pass)
                outcome = workload.check(result)
                if outcomes and outcome.digest != outcomes[0][1].digest:
                    outcome.fail("output bytes differ from the first pass")
                raw[traced].append(wall)
                walls[traced].append(wall * scale)
                outcomes.append((traced, outcome))

    attempted = sum(o.items for _, o in outcomes)
    failed = sum(o.failed for _, o in outcomes)
    problems = [p for _, o in outcomes for p in o.problems]
    refs = clock.references
    notes = [
        f"raw wall median {statistics.median(raw[False]):.4f} s over {len(raw[False])} "
        f"untraced passes (min {min(raw[False]):.4f}, max {max(raw[False]):.4f}); raw "
        f"setup {', '.join(f'{r:.4f}' for r, _ in setups)} s; reference task median "
        f"{statistics.median(refs):.4f} s over {len(refs)} samples (min {min(refs):.4f}, "
        f"max {max(refs):.4f}); {failed} of {attempted} items failed"
    ]
    if trace:
        traced_phases = [o.phases for t, o in outcomes if t]
        if all(traced_phases) and traced_phases:
            problems += tracer.phase_mismatches(traced_phases)
        metrics = tracer.layer_metrics(len(walls[True]))
        for phase in tracing.CLI_PHASES:
            values = [p.get(phase, 0.0) for p in traced_phases if p]
            metrics[f"cli.phase.{phase}_s"] = statistics.fmean(values) if values else 0.0
        coverage = [o.median_coverage for _, o in outcomes if o.median_coverage is not None]
        metrics["simulate.coverage_median_frac"] = statistics.median(coverage) if coverage else 0.0
        metrics["trace.overhead_frac"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        )
        metrics["failed_frac"] = failed / attempted
        units = {name: layer_unit(name) for name in metrics}
        if coverage:
            notes.append(f"median coverage {metrics['simulate.coverage_median_frac']:.3f} "
                         f"(criterion 2 bar {workloads.COVERAGE_BAR})")
    else:
        ok_items = attempted - failed
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "items_per_s": ok_items / sum(walls[False]),
            "setup_s": statistics.median(n for _, n in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    notes += [f"check failed: {p}" for p in problems[:10]]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, notes


def run_one(args) -> int:
    pin_to_one_cpu()
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(repr(IMPORT_S + _timed(workload.setup)))
            return 0
        record = run_record()
        record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace)
        result, notes = measure(workload, args.seconds, bool(args.trace),
                                lambda: probe_setup(args.workload, args.seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["loadavg_after"] = list(os.getloadavg())
    print("record " + json.dumps(record, sort_keys=True))
    for note in notes:
        print(note)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload untraced and traced, each in a child process, as one table."""
    rows, status = [], 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(f"[{name} trace={trace}] {line}")
            if proc.returncode != 0 or not lines:
                print(f"[{name} trace={trace}] failed: {proc.stderr.strip()}")
                status = 1
                continue
            result = json.loads(lines[-1])
            status |= 0 if result["correct"] else 1
            if trace == 0:
                frac = result["failed"] / result["attempted"]
                result["metrics"]["failed_frac"] = {"value": frac, "unit": "ratio"}
            for metric, m in result["metrics"].items():
                if trace == 0 or (m["value"] and metric != "failed_frac"):
                    rows.append((name, trace, metric, m["value"], m["unit"]))
    print("per-layer metrics that read 0 (layers a workload does not run) are left out")
    print(f"{'workload':<12} {'trace':>5}  {'metric':<32} {'value':>14}  unit")
    for name, trace, metric, value, unit in rows:
        print(f"{name:<12} {trace:>5}  {metric:<32} {value:>14.6g}  {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the seconds taken since start-up, exit")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
