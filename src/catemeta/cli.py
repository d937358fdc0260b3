"""Command-line orchestration: estimate, predict, simulate, compare-intervals.

Every run writes its artifacts into --out-dir together with a manifest.json
recording a content digest of the inputs and options, per-phase timings and
the SHA-256 of each artifact.  SVG artifacts embed the manifest digest as a
comment; CSV schemas are fixed, so CSV artifacts are linked to the digest
through the manifest's artifact registry instead.

Exit codes: 0 success, 1 runtime estimation failure, 2 input/schema error,
3 config error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .bart import BartParams, bart_cate_normal, bart_cate_quantile, fit_bart_slearner
from .errors import (
    CatemetaError,
    ConfigurationError,
    InputFormatError,
    InsufficientStudiesError,
)
from .forest import ForestParams, fit_causal_forest, forest_cates
from .io import (
    PredictionRow,
    parse_sim_config,
    read_aggregates_csv,
    read_predictions_csv,
    read_profiles_csv,
    read_trials_csv,
    write_aggregates_csv,
    write_metrics_csv,
    write_predictions_csv,
)
from .linear import fit_interaction_ols, linear_cate
# pool_cate, prediction_interval and reml_theta2 are bound only for perfbench/tracing.py.
from .meta import pool_cate, pool_profiles, prediction_interval, reml_theta2  # noqa: F401
from .model import validate_target_coverage, validate_trial
from .rng import spawn_seed
from .simulate import run_experiment
from .svg import compare_intervals_svg, coverage_boxplot_svg, prediction_intervals_svg

_STUDY_CI_Z = 1.96


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sha256_file(path: str) -> str:
    return _sha256_bytes(Path(path).read_bytes())


class _Manifest:
    """Run provenance: digest of (version, command, options, input contents)."""

    def __init__(self, subcommand: str, input_paths: list[str], options: dict, seed: int):
        self.subcommand = subcommand
        self.input_paths = list(input_paths)
        self.options = dict(options)
        self.seed = seed
        self.timings: dict[str, float] = {}
        self.artifacts: list[dict] = []
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

    def add_artifact(self, path: Path):
        self.artifacts.append({"path": path.name, "sha256": _sha256_file(str(path))})

    def write(self, out_dir: Path):
        body = {
            "digest": self.digest,
            "version": __version__,
            "subcommand": self.subcommand,
            "inputs": self.input_paths,
            "options": self.options,
            "seed": self.seed,
            "timings_seconds": {k: round(v, 6) for k, v in self.timings.items()},
            "artifacts": self.artifacts,
            "notes": self.notes,
            "diagnostics": self.diagnostics,
        }
        (out_dir / "manifest.json").write_text(
            json.dumps(body, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


class _Phase:
    def __init__(self, manifest: _Manifest, name: str):
        self.manifest = manifest
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.manifest.timings[self.name] = time.perf_counter() - self.start
        return False


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fit_study_worker(job):
    """Stage-1 fit for one study; top-level so worker pools can pickle it."""
    dataset, profiles, stage1, opts, seed = job
    if stage1 == "linear":
        fit = fit_interaction_ols(dataset, opts["moderators"])
        return dataset.study_id, [linear_cate(fit, p) for p in profiles], []
    if stage1 == "forest":
        params = ForestParams(
            n_trees=opts["trees"],
            honest=opts["honest"],
            bag_size=opts["bag_size"],
            seed=seed,
        )
        model = fit_causal_forest(dataset, params)
        return dataset.study_id, forest_cates(model, profiles), []
    params = BartParams(
        n_trees=opts["trees"], n_burn=opts["burn"], n_draws=opts["draws"], seed=seed
    )
    posterior = fit_bart_slearner(dataset, profiles, params)
    estimates = [bart_cate_normal(posterior, p) for p in profiles]
    quantile_rows = []
    if opts["interval"] == "quantile":
        for p in profiles:
            tau, lower, upper = bart_cate_quantile(posterior, p, 0.95)
            quantile_rows.append((p.profile_id, dataset.study_id, tau, lower, upper))
    return dataset.study_id, estimates, quantile_rows


def cmd_estimate(args) -> int:
    out = _out_dir(args)
    if args.stage1 == "linear":
        stage1_options = {"moderators": args.moderators}
    elif args.stage1 == "forest":
        stage1_options = {
            "honest": args.honest, "trees": args.trees or 1000,
            "bag_size": args.bag_size,
        }
    else:
        stage1_options = {
            "trees": args.trees or 50, "burn": args.burn, "draws": args.draws,
            "interval": args.interval,
        }
    manifest = _Manifest(
        "estimate",
        list(args.trials) + [args.profiles],
        {"stage1": args.stage1, **stage1_options},
        args.seed,
    )
    with _Phase(manifest, "read"):
        trials = read_trials_csv(list(args.trials))
        profiles = read_profiles_csv(args.profiles)
        if not profiles:
            raise InputFormatError("no target profiles", args.profiles)
        if trials and profiles[0].n_covariates != trials[0].n_covariates:
            raise InputFormatError(
                f"profiles have {profiles[0].n_covariates} covariates but trials "
                f"have {trials[0].n_covariates}", args.profiles
            )
    with _Phase(manifest, "validate"):
        problems = []
        for dataset in trials:
            report = validate_trial(dataset)
            for violation in report.violations:
                problems.append(f"study {dataset.study_id}: {violation}")
            print(
                f"study {dataset.study_id}: n={dataset.n_rows} "
                f"propensity={report.propensity:.3f}",
                file=sys.stderr,
            )
        if problems:
            for problem in problems:
                print(f"error: {problem}", file=sys.stderr)
            return 2
        for flag in validate_target_coverage(profiles, trials):
            if flag.flagged:
                names = ",".join(flag.out_of_range)
                note = f"profile {flag.profile_id} outside pooled trial range on: {names}"
                manifest.notes.append(note)
                print(f"warning: {note}", file=sys.stderr)

    opts = dict(stage1_options)
    if args.stage1 == "linear":
        opts["moderators"] = _resolve_moderators(args.moderators, trials[0].covariate_names)
    with _Phase(manifest, "fit"):
        jobs = [
            (ds, profiles, args.stage1, opts, spawn_seed(args.seed, "study", ds.study_id))
            for ds in trials
        ]
        if args.threads > 1:
            with ProcessPoolExecutor(max_workers=args.threads) as pool:
                fitted = list(pool.map(_fit_study_worker, jobs))
        else:
            fitted = [_fit_study_worker(job) for job in jobs]
    with _Phase(manifest, "write"):
        estimates = [e for _, ests, _ in sorted(fitted) for e in ests]
        agg_path = out / "aggregates.csv"
        write_aggregates_csv(str(agg_path), estimates)
        manifest.add_artifact(agg_path)
        quantile_rows = [row for _, _, rows in sorted(fitted) for row in rows]
        if quantile_rows:
            q_path = out / "study_quantile_intervals.csv"
            with open(q_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("profile_id,study_id,tau_hat,lower,upper\n")
                for pid, sid, tau, lower, upper in sorted(quantile_rows):
                    fh.write(f"{pid},{sid},{tau!r},{lower!r},{upper!r}\n")
            manifest.add_artifact(q_path)
    manifest.write(out)
    return 0


def _resolve_moderators(raw: str, names: tuple[str, ...]):
    if raw == "all":
        return None
    indices = []
    for token in raw.split(","):
        token = token.strip()
        if token not in names:
            raise InputFormatError(f"unknown moderator covariate '{token}'")
        indices.append(names.index(token))
    return tuple(indices)


def cmd_predict(args) -> int:
    if not (0.0 < args.alpha < 1.0):
        raise ConfigurationError(f"--alpha must be in (0, 1), got {args.alpha}")
    out = _out_dir(args)
    manifest = _Manifest("predict", [args.aggregates],
                         {"alpha": args.alpha, "svg": bool(args.svg)}, args.seed)
    with _Phase(manifest, "read"):
        grouped = read_aggregates_csv(args.aggregates)
    rows = []
    with _Phase(manifest, "pool"):
        by_k: dict[int, list[int]] = {}
        for pid in sorted(grouped):
            k = len(grouped[pid])
            if k < 2:
                raise InputFormatError(
                    f"profile {pid} has only {k} study estimate(s); pooling needs >= 2",
                    args.aggregates,
                )
            if k == 2:
                print(
                    f"warning: profile {pid}: K=2 studies, no prediction interval "
                    "(df would be 0)", file=sys.stderr,
                )
            by_k.setdefault(k, []).append(pid)
        for k, pids in sorted(by_k.items()):
            tau = np.array([[e.tau_hat for e in grouped[pid]] for pid in pids]).T
            v = np.array([[e.se2 for e in grouped[pid]] for pid in pids]).T
            pooled = pool_profiles(tau, v, args.alpha if k > 2 else None)
            manifest.diagnostics.update(pooled.diagnostics)
            centers = pooled.tau_pooled.tolist()
            theta2 = pooled.theta2.tolist()
            if pooled.half_width is None:
                rows += [PredictionRow(pid, c, t2, None, None, None)
                         for pid, c, t2 in zip(pids, centers, theta2)]
                continue
            lower = (pooled.tau_pooled - pooled.half_width).tolist()
            upper = (pooled.tau_pooled + pooled.half_width).tolist()
            rows += [PredictionRow(pid, c, t2, lo, hi, k - 2)
                     for pid, c, t2, lo, hi in zip(pids, centers, theta2, lower, upper)]
    with _Phase(manifest, "write"):
        csv_path = out / "predictions.csv"
        write_predictions_csv(str(csv_path), rows)
        manifest.add_artifact(csv_path)
        if args.svg:
            svg_path = out / "predictions.svg"
            svg_path.write_text(prediction_intervals_svg(rows, manifest.digest),
                                encoding="utf-8")
            manifest.add_artifact(svg_path)
    manifest.write(out)
    return 0


def cmd_compare_intervals(args) -> int:
    out = _out_dir(args)
    wanted = [int(tok) for tok in args.profile.split(",") if tok.strip()]
    manifest = _Manifest("compare-intervals", [args.aggregates, args.predictions],
                         {"profiles": wanted}, args.seed)
    with _Phase(manifest, "read"):
        grouped = read_aggregates_csv(args.aggregates)
        predictions = {row.profile_id: row for row in read_predictions_csv(args.predictions)}
    per_profile = []
    for pid in wanted:
        if pid not in grouped or pid not in predictions:
            raise InputFormatError(f"unknown profile id {pid}")
        row = predictions[pid]
        if row.lower is None:
            raise InputFormatError(f"profile {pid} has no prediction interval")
        studies = [
            (e.study_id,
             e.tau_hat - _STUDY_CI_Z * e.se2**0.5,
             e.tau_hat,
             e.tau_hat + _STUDY_CI_Z * e.se2**0.5)
            for e in grouped[pid]
        ]
        per_profile.append((pid, studies, (row.lower, row.tau_pooled, row.upper)))
    with _Phase(manifest, "write"):
        svg_path = out / "compare_intervals.svg"
        svg_path.write_text(compare_intervals_svg(per_profile, manifest.digest),
                            encoding="utf-8")
        manifest.add_artifact(svg_path)
    manifest.write(out)
    return 0


def cmd_simulate(args) -> int:
    out = _out_dir(args)
    config, options = parse_sim_config(args.config)
    manifest = _Manifest("simulate", [args.config], {}, config.master_seed)
    tables = []
    with _Phase(manifest, "run"):
        for method in options.methods:
            forest_params = ForestParams(
                n_trees=options.forest_trees,
                bag_size=options.forest_bag_size,
                honest=(method == "forest_honest"),
            )
            bart_params = BartParams(
                n_trees=options.bart_trees,
                n_burn=options.bart_burn,
                n_draws=options.bart_draws,
            )
            tables.append(
                run_experiment(
                    config, method,
                    forest_params=forest_params, bart_params=bart_params,
                    alpha=options.alpha, n_workers=args.threads,
                )
            )
    with _Phase(manifest, "write"):
        metrics_path = out / "metrics.csv"
        write_metrics_csv(str(metrics_path), tables)
        manifest.add_artifact(metrics_path)
        svg_path = out / "coverage.svg"
        svg_path.write_text(coverage_boxplot_svg(tables, manifest.digest),
                            encoding="utf-8")
        manifest.add_artifact(svg_path)
        for table in tables:
            if table.aborted_replications:
                manifest.notes.append(
                    f"{table.method}: aborted replications "
                    f"{list(table.aborted_replications)}"
                )
    manifest.write(out)
    return 0


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

    def add_common(p):
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--threads", type=int, default=1, help="worker processes")
        p.add_argument("--out-dir", default=".", help="output directory")

    p_est = sub.add_parser("estimate", help="fit Stage-1 models, write aggregates")
    p_est.add_argument("--trials", nargs="+", required=True, help="trial CSV file(s)")
    p_est.add_argument("--profiles", required=True, help="target profile CSV")
    p_est.add_argument("--stage1", choices=("linear", "forest", "bart"), required=True)
    p_est.add_argument("--moderators", default="all",
                       help="comma-separated covariate names, or 'all' (linear)")
    p_est.add_argument("--honest", type=_parse_bool, default=True,
                       help="true|false (forest)")
    p_est.add_argument("--trees", type=int, default=None,
                       help="tree count (forest default 1000, bart default 50)")
    p_est.add_argument("--bag-size", type=int, default=20, help="trees per variance bag")
    p_est.add_argument("--burn", type=int, default=500, help="bart burn-in draws")
    p_est.add_argument("--draws", type=int, default=1000, help="bart kept draws")
    p_est.add_argument("--interval", choices=("normal", "quantile"), default="normal",
                       help="bart interval construction")
    add_common(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_pred = sub.add_parser("predict", help="pool aggregates, write prediction intervals")
    p_pred.add_argument("--aggregates", required=True, help="aggregate CSV from estimate")
    p_pred.add_argument("--alpha", type=float, default=0.05)
    p_pred.add_argument("--svg", action="store_true", help="also write predictions.svg")
    add_common(p_pred)
    p_pred.set_defaults(func=cmd_predict)

    p_cmp = sub.add_parser("compare-intervals",
                           help="study confidence intervals beside the target interval")
    p_cmp.add_argument("--aggregates", required=True)
    p_cmp.add_argument("--predictions", required=True)
    p_cmp.add_argument("--profile", required=True, help="comma-separated profile ids")
    add_common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare_intervals)

    p_sim = sub.add_parser("simulate", help="run the replication experiment")
    p_sim.add_argument("--config", required=True, help="flat key = value experiment file")
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ConfigurationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except InsufficientStudiesError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except CatemetaError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
