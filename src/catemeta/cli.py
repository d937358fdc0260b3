"""Command-line orchestration: estimate, predict, simulate, compare-intervals.

Every run writes its artifacts into --out-dir together with a manifest.json
recording a content digest of the inputs and options, per-phase timings,
the process's peak resident memory, the SHA-256 of each artifact and each
warning printed; ``_Manifest`` keeps that record.  SVG artifacts embed the
manifest digest as a comment; CSV schemas are fixed, so CSV artifacts are
linked to the digest through the manifest's artifact registry instead.

Exit codes: 0 success, 1 runtime estimation failure, 2 input/schema error,
3 config error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import hashlib
import json
import os
import sys
import time
from collections import Counter
from dataclasses import replace
from itertools import repeat
from pathlib import Path

try:
    import resource
except ImportError:  # Windows
    resource = None

import numpy as np

from . import __version__
# fit_bart_slearner and fit_causal_forest are bound only for perfbench/tracing.py.
from .bart import BartParams, fit_bart_slearner  # noqa: F401
from .config import parse_sim_config
from .errors import (
    CatemetaError,
    ConfigurationError,
    EstimationError,
    InputFormatError,
)
from .forest import ForestParams, fit_causal_forest  # noqa: F401
from .io import (
    _plain_number,
    first_invalid_estimate,
    read_aggregates_csv,
    read_predictions_csv,
    read_profiles_csv,
    read_trials_csv,
    write_aggregates_csv,
    write_metrics_csv,
    write_predictions_csv,
)
from .meta import pool_profiles
from .model import validate_target_coverage, validate_trial
from .rng import spawn_seed
from .simulate import estimate_study, run_experiment
from .svg import compare_intervals_svg, coverage_boxplot_svg, prediction_intervals_svg

# perfbench/tracing.py wraps these retired one-study and one-profile names;
# each is bound to the entry that replaced it, which no code reaches by this
# name, so their spans read 0 calls.  ROADMAP item 1 deletes this block.
fit_interaction_ols = linear_cate = forest_cates = estimate_study
bart_cate_normal = bart_cate_quantile = estimate_study
reml_theta2 = pool_cate = prediction_interval = pool_profiles

_STUDY_CI_Z = 1.96


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Bytes of a file hashed at a time.
_HASH_CHUNK = 1 << 20


def _sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_HASH_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def _peak_rss_mb() -> float | None:
    """The process's peak resident set size so far in MB (2**20 bytes); None
    where the platform does not report it.  ``ru_maxrss`` is in KiB on Linux
    and in bytes on macOS."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(peak / (2**20 if sys.platform == "darwin" else 2**10), 3)


class _Manifest:
    """The record of one run, and its only writer.

    Creating it creates ``out_dir``.  ``digest`` hashes (version, command,
    options, input contents, seed); SVG artifacts embed it.  ``phase(name)``
    times a block into ``timings_seconds``; ``artifact(name)`` returns
    ``out_dir / name`` and registers it; ``warn(note)`` prints ``warning:
    <note>`` to stderr and keeps the note.  ``write()`` hashes the artifacts in
    the order they were registered, records the peak resident memory beside
    the timings (neither is in the digest), writes manifest.json and returns
    the exit code 0.

    A manifest lists only files beside it whose bytes match its digests.  So
    the first ``artifact()`` call removes the ``manifest.json`` of an earlier
    run before any file it lists can change, and ``write()`` writes a
    temporary file and renames it into place: a run that fails leaves none.
    """

    def __init__(self, subcommand: str, out_dir: str, input_paths: list[str], options: dict,
                 seed: int):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.subcommand = subcommand
        self.input_paths = list(input_paths)
        self.options = dict(options)
        self.seed = seed
        self.timings: dict[str, float] = {}
        self.artifacts: list[Path] = []
        self.notes: list[str] = []
        self.diagnostics: Counter[str] = Counter()
        payload = json.dumps(
            {
                "version": __version__,
                "subcommand": subcommand,
                "inputs": sorted(_sha256_file(p) for p in input_paths),
                "options": options,
                "seed": seed,
            },
            sort_keys=True,
        )
        self.digest = _sha256_bytes(payload.encode("utf-8"))

    @contextlib.contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        yield
        self.timings[name] = time.perf_counter() - start

    def artifact(self, name: str) -> Path:
        if not self.artifacts:
            (self.out_dir / "manifest.json").unlink(missing_ok=True)
        path = self.out_dir / name
        self.artifacts.append(path)
        return path

    def warn(self, note: str):
        print(f"warning: {note}", file=sys.stderr)
        self.notes.append(note)

    def write(self) -> int:
        body = {
            "digest": self.digest,
            "version": __version__,
            "subcommand": self.subcommand,
            "inputs": self.input_paths,
            "options": self.options,
            "seed": self.seed,
            "timings_seconds": {k: round(v, 6) for k, v in self.timings.items()},
            "peak_rss_mb": _peak_rss_mb(),
            "artifacts": [{"path": p.name, "sha256": _sha256_file(p)} for p in self.artifacts],
            "notes": self.notes,
            "diagnostics": self.diagnostics,
        }
        partial = self.out_dir / f".manifest.json.{os.getpid()}.tmp"
        try:
            partial.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n",
                               encoding="utf-8")
            os.replace(partial, self.out_dir / "manifest.json")
        finally:
            partial.unlink(missing_ok=True)
        return 0


def _check_two_bags(params: ForestParams, trees: str, bag_size: str):
    """Refuse a forest of one variance bag: its se2 is a variance over bag
    means, so one bag would put every se2 at the floor."""
    if params.n_bags < 2:
        raise ConfigurationError(
            f"{trees} ({params.n_trees}) is below twice {bag_size} ({params.bag_size}): "
            "a forest of one variance bag puts every se2 at its floor")


def cmd_estimate(args) -> int:
    if args.stage1 == "linear":
        stage1_options = {"moderators": args.moderators}
        params = None
    elif args.stage1 == "forest":
        stage1_options = {
            "honest": args.honest,
            "trees": ForestParams.n_trees if args.trees is None else args.trees,
            "bag_size": args.bag_size,
        }
        params = ForestParams(n_trees=stage1_options["trees"], honest=args.honest,
                              bag_size=args.bag_size)
        _check_two_bags(params, "--trees", "--bag-size")
    else:
        stage1_options = {
            "trees": BartParams.n_trees if args.trees is None else args.trees, "burn": args.burn,
            "draws": args.draws, "interval": args.interval,
        }
        params = BartParams(n_trees=stage1_options["trees"], n_burn=args.burn,
                            n_draws=args.draws)
    manifest = _Manifest("estimate", args.out_dir, list(args.trials) + [args.profiles],
                         {"stage1": args.stage1, **stage1_options}, args.seed)
    with manifest.phase("read"):
        trials = read_trials_csv(list(args.trials))
        profile_ids, points = read_profiles_csv(args.profiles, trials[0].covariate_names)
    with manifest.phase("validate"):
        for dataset in trials:
            report = validate_trial(dataset)
            print(
                f"study {dataset.study_id}: n={dataset.n_rows} "
                f"propensity={report.propensity:.3f}",
                file=sys.stderr,
            )
            if not report.ok:
                raise InputFormatError(
                    f"study {dataset.study_id}: " + "; ".join(report.violations))
        outside = validate_target_coverage(points, trials)
        for i in np.flatnonzero(outside.any(axis=1)).tolist():
            manifest.warn(f"profile {profile_ids[i]} outside pooled trial range on: "
                          + ",".join(np.array(trials[0].covariate_names)[outside[i]]))

    if params is None:  # linear: the moderators name the trials' covariates
        params = _resolve_moderators(args.moderators, trials[0].covariate_names)
    with manifest.phase("fit"):
        # A study's seed is keyed by its id, read as 64-bit unsigned so that
        # a negative id has one too (the seed path takes [0, 2**64)).
        study_params = [
            replace(params, seed=spawn_seed(args.seed, "study", ds.study_id % (1 << 64)))
            if hasattr(params, "seed") else params  # the moderator tuple has no seed
            for ds in trials
        ]
        fit_args = (trials, repeat(points), study_params)
        if args.threads > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=args.threads) as pool:
                fitted = list(pool.map(estimate_study, *fit_args))
        else:
            fitted = list(map(estimate_study, *fit_args))
    taus, se2s, diagnostics = zip(*fitted)
    tau, se2 = np.concatenate(taus), np.concatenate(se2s)
    pids = np.tile(profile_ids, len(trials))
    sids = np.repeat([ds.study_id for ds in trials], len(profile_ids))
    invalid = first_invalid_estimate(tau, se2)
    if invalid is not None:
        i, reason = invalid
        raise EstimationError(f"study {sids[i]}, profile {pids[i]}: {reason}")
    with manifest.phase("write"):
        manifest.diagnostics["stage1"] = [
            {"study_id": ds.study_id, **{k: round(v, 6) for k, v in diag.items()
                                         if not isinstance(v, np.ndarray)}}
            for ds, diag in zip(trials, diagnostics)
        ]
        write_aggregates_csv(manifest.artifact("aggregates.csv"), pids, sids,
                             tau_hat=tau, se2=se2)
        if stage1_options.get("interval") == "quantile":
            write_aggregates_csv(
                manifest.artifact("study_quantile_intervals.csv"), pids, sids, tau_hat=tau,
                lower=np.concatenate([d["quantile_lower"] for d in diagnostics]),
                upper=np.concatenate([d["quantile_upper"] for d in diagnostics]),
            )
    return manifest.write()


def _resolve_moderators(raw: str, names: tuple[str, ...]):
    if raw == "all":
        return None
    indices = []
    for token in raw.split(","):
        token = token.strip()
        if token not in names:
            raise InputFormatError(f"unknown moderator covariate '{token}'")
        if names.index(token) in indices:
            raise InputFormatError(f"repeated moderator covariate '{token}'")
        indices.append(names.index(token))
    return tuple(indices)


def cmd_predict(args) -> int:
    if not (0.0 < args.alpha < 1.0):
        raise ConfigurationError(f"--alpha must be in (0, 1), got {args.alpha}")
    manifest = _Manifest("predict", args.out_dir, [args.aggregates],
                         {"alpha": args.alpha, "svg": bool(args.svg)}, args.seed)
    with manifest.phase("read"):
        pid, _, tau, se2 = read_aggregates_csv(args.aggregates)
    with manifest.phase("pool"):
        # The rows are sorted by profile, so each profile's studies are one run.
        ends = np.append(np.flatnonzero(pid[1:] != pid[:-1]) + 1, pid.size)
        pids, ks = pid[ends - 1], np.diff(ends, prepend=0)
        if (ks == 1).any():
            raise InputFormatError(
                f"profile {pids[ks == 1][0]} has only 1 study estimate; pooling needs >= 2",
                args.aggregates,
            )
        for p in pids[ks == 2].tolist():
            manifest.warn(f"profile {p}: K=2 studies, no prediction interval (df would be 0)")
        try:
            pooled = pool_profiles(tau, se2, args.alpha, k=ks)
        except ValueError as err:  # the reader checked the rows: only alpha is left
            raise ConfigurationError(f"--alpha: {err}") from None
        manifest.diagnostics.update(pooled.diagnostics)
        center, theta2 = pooled.tau_pooled, pooled.theta2
        # K = 2 keeps NaN bounds: no interval
        lower, upper = center - pooled.half_width, center + pooled.half_width
    with manifest.phase("write"):
        write_predictions_csv(manifest.artifact("predictions.csv"),
                              pids, center, theta2, lower, upper, ks)
        if args.svg:
            manifest.artifact("predictions.svg").write_text(
                prediction_intervals_svg(pids, center, lower, upper, manifest.digest),
                encoding="utf-8",
            )
    return manifest.write()


def cmd_compare_intervals(args) -> int:
    manifest = _Manifest("compare-intervals", args.out_dir, [args.aggregates, args.predictions],
                         {"profiles": args.profile}, args.seed)
    with manifest.phase("read"):
        pid, sid, tau, se2 = read_aggregates_csv(args.aggregates)
        pred_pid, center, _, lower, upper, pred_k = read_predictions_csv(args.predictions)
    per_profile = []
    for wanted in args.profile:
        in_profile = pid == wanted
        row = np.searchsorted(pred_pid, wanted)
        if not in_profile.any() or row == pred_pid.size or pred_pid[row] != wanted:
            raise InputFormatError(f"unknown profile id {wanted}")
        n_studies = int(np.count_nonzero(in_profile))
        if n_studies != pred_k[row]:
            raise InputFormatError(f"profile {wanted} has {n_studies} studies, but its "
                                   f"prediction was pooled from K = {pred_k[row]}",
                                   args.aggregates)
        if np.isnan(lower[row]):
            raise InputFormatError(f"profile {wanted} has no prediction interval")
        studies = [
            (s, t - _STUDY_CI_Z * v**0.5, t, t + _STUDY_CI_Z * v**0.5)
            for s, t, v in zip(*(col[in_profile].tolist() for col in (sid, tau, se2)))
        ]
        per_profile.append((wanted, studies, tuple(float(v[row]) for v in (lower, center, upper))))
    with manifest.phase("write"):
        manifest.artifact("compare_intervals.svg").write_text(
            compare_intervals_svg(per_profile, manifest.digest), encoding="utf-8")
    return manifest.write()


def cmd_simulate(args) -> int:
    config, options = parse_sim_config(args.config)
    forest_params = ForestParams(n_trees=options.forest_trees, bag_size=options.forest_bag_size)
    if any(method.startswith("forest") for method in options.methods):
        _check_two_bags(forest_params, "forest_trees", "forest_bag_size")
    manifest = _Manifest("simulate", args.out_dir, [args.config], {}, config.master_seed)
    bart_params = BartParams(
        n_trees=options.bart_trees, n_burn=options.bart_burn, n_draws=options.bart_draws
    )
    with manifest.phase("run"):
        tables = [
            run_experiment(
                config, method,
                forest_params=forest_params, bart_params=bart_params,
                alpha=options.alpha, n_workers=args.threads,
            )
            for method in options.methods
        ]
    for table in tables:
        if not table.n_effective_replications:
            raise EstimationError(
                f"{table.method}: all {len(table.aborted_replications)} replications aborted; "
                f"the first: {table.abort_reasons[0]}")
    for table in tables:
        if table.aborted_replications:
            manifest.warn(f"{table.method}: aborted replications " + "; ".join(
                f"{r}: {reason}"
                for r, reason in zip(table.aborted_replications, table.abort_reasons)
            ))
    with manifest.phase("write"):
        write_metrics_csv(manifest.artifact("metrics.csv"), tables)
        manifest.artifact("coverage.svg").write_text(
            coverage_boxplot_svg(tables, manifest.digest), encoding="utf-8")
    return manifest.write()


def _number(kind, expected: str, valid=lambda number: True):
    """An argparse type: a ``kind`` (int or float) written as the file readers
    take numbers (``io._plain_number``) for which ``valid`` holds.  Any other
    text makes argparse exit 2, saying what was expected."""
    def parse(value: str):
        number = _plain_number(value, kind)
        if number is None or not valid(number):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {value!r}")
        return number
    return parse


_parse_int = _number(int, "an integer")
_parse_float = _number(float, "a number")
_parse_threads = _number(int, "an integer >= 1", lambda n: n >= 1)
_parse_seed = _number(int, "an integer in [0, 2**64)", lambda n: 0 <= n < 1 << 64)


def _parse_profile_ids(value: str) -> list[int]:
    try:
        ids = [_parse_int(tok) for tok in value.split(",") if tok.strip()]
    except argparse.ArgumentTypeError:
        ids = []
    if not ids:
        raise argparse.ArgumentTypeError(f"expected integer profile ids, got {value!r}")
    for i, pid in enumerate(ids):
        if pid in ids[:i]:
            raise argparse.ArgumentTypeError(f"repeated profile id {pid} in {value!r}")
    return ids


def _parse_bool(value: str) -> bool:
    if value == "true":
        return True
    if value == "false":
        return False
    raise argparse.ArgumentTypeError(f"expected 'true' or 'false', got {value!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catemeta",
        description="Two-stage meta-analysis of conditional average treatment "
                    "effects with prediction intervals for a target setting.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=True, threads=True):
        if seed:  # simulate's only seed is its config's master_seed
            p.add_argument("--seed", type=_parse_seed, default=0, help="master seed")
        if threads:  # compare-intervals runs nothing in parallel
            p.add_argument("--threads", type=_parse_threads, default=1, help="worker processes")
        p.add_argument("--out-dir", default=".", help="output directory")

    p_est = sub.add_parser("estimate", help="fit Stage-1 models, write aggregates")
    p_est.add_argument("--trials", nargs="+", required=True, help="trial CSV file(s)")
    p_est.add_argument("--profiles", required=True, help="target profile CSV")
    p_est.add_argument("--stage1", choices=("linear", "forest", "bart"), required=True)
    p_est.add_argument("--moderators", default="all",
                       help="comma-separated covariate names, or 'all' (linear)")
    p_est.add_argument("--honest", type=_parse_bool, default=True,
                       help="true|false (forest)")
    p_est.add_argument("--trees", type=_parse_int, default=None,
                       help=f"tree count (forest default {ForestParams.n_trees}, "
                            f"bart default {BartParams.n_trees})")
    p_est.add_argument("--bag-size", type=_parse_int, default=ForestParams.bag_size,
                       help="trees per variance bag (at least 2, dividing --trees)")
    p_est.add_argument("--burn", type=_parse_int, default=BartParams.n_burn,
                       help="bart burn-in draws")
    p_est.add_argument("--draws", type=_parse_int, default=BartParams.n_draws,
                       help="bart kept draws")
    p_est.add_argument("--interval", choices=("normal", "quantile"), default="normal",
                       help="bart interval construction")
    add_common(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_pred = sub.add_parser("predict", help="pool aggregates, write prediction intervals")
    p_pred.add_argument("--aggregates", required=True, help="aggregate CSV from estimate")
    p_pred.add_argument("--alpha", type=_parse_float, default=0.05)
    p_pred.add_argument("--svg", action="store_true", help="also write predictions.svg")
    add_common(p_pred)
    p_pred.set_defaults(func=cmd_predict)

    p_cmp = sub.add_parser("compare-intervals",
                           help="study confidence intervals beside the target interval")
    p_cmp.add_argument("--aggregates", required=True)
    p_cmp.add_argument("--predictions", required=True)
    p_cmp.add_argument("--profile", type=_parse_profile_ids, required=True,
                       help="comma-separated profile ids")
    add_common(p_cmp, threads=False)
    p_cmp.set_defaults(func=cmd_compare_intervals)

    p_sim = sub.add_parser("simulate", help="run the replication experiment")
    p_sim.add_argument("--config", required=True, help="flat key = value experiment file")
    add_common(p_sim, seed=False)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputFormatError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ConfigurationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except CatemetaError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:  # a legal run larger than this host's memory
        print("error: out of memory" + (f": {err}" if str(err) else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
