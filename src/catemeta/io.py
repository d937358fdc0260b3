"""CSV schemas and config-file parsing.

All files are UTF-8 with ``.`` decimal separators and LF line endings.
Floats are emitted with ``repr``, the shortest round-tripping form, so
parsing our own output and re-emitting it is byte-identical.

Schemas:
  trials       study_id,y,a,<covariate_1>,...,<covariate_p>
  profiles     profile_id,<covariate_1>,...,<covariate_p>
  aggregates   profile_id,study_id,tau_hat,se2
  predictions  profile_id,tau_pooled,theta2,lower,upper,df,flag_nonoverlap
  metrics      profile_id,method,coverage,mean_length,bias,n_effective_replications
  config       flat ``key = value`` lines; blank lines and ``#`` comments ignored
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigurationError, InputFormatError
from .model import CovariateProfile, StudyCateEstimate, TrialDataset
from .simulate import STAGE1_METHODS, SimConfig

AGGREGATE_HEADER = ("profile_id", "study_id", "tau_hat", "se2")
PREDICTION_HEADER = (
    "profile_id", "tau_pooled", "theta2", "lower", "upper", "df", "flag_nonoverlap",
)
METRICS_HEADER = (
    "profile_id", "method", "coverage", "mean_length", "bias",
    "n_effective_replications",
)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _parse_float(text: str, path: str, line: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise InputFormatError(f"column '{column}': not a number: {text!r}", path, line)


def _parse_int(text: str, path: str, line: int, column: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputFormatError(f"column '{column}': not an integer: {text!r}", path, line)


def _read_rows(path: str, expected_prefix: tuple[str, ...], min_extra: int = 0):
    """Read a CSV, check the fixed header prefix, yield (line, row) pairs."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputFormatError("empty file", path, 1)
        for pos, name in enumerate(expected_prefix):
            if pos >= len(header) or header[pos] != name:
                raise InputFormatError(
                    f"expected column {pos + 1} to be '{name}', "
                    f"got {header[pos] if pos < len(header) else 'nothing'}",
                    path, 1,
                )
        if len(header) < len(expected_prefix) + min_extra:
            raise InputFormatError(
                f"expected at least {min_extra} column(s) after {expected_prefix}",
                path, 1,
            )
        rows = []
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise InputFormatError(
                    f"expected {len(header)} fields, got {len(row)}", path, line
                )
            rows.append((line, row))
        return header, rows


def read_trials_csv(paths: list[str]) -> list[TrialDataset]:
    """Read one or more trial files and group rows into per-study datasets.

    All files must agree on the covariate columns.  Studies are returned
    sorted by study_id.
    """
    if not paths:
        raise InputFormatError("no trial files given")
    cov_names: tuple[str, ...] | None = None
    by_study: dict[int, list[tuple[float, int, list[float]]]] = {}
    for path in paths:
        header, rows = _read_rows(path, ("study_id", "y", "a"), min_extra=1)
        names = tuple(header[3:])
        if cov_names is None:
            cov_names = names
        elif names != cov_names:
            raise InputFormatError(
                f"covariate columns {names} do not match {cov_names}", path, 1
            )
        for line, row in rows:
            study = _parse_int(row[0], path, line, "study_id")
            y = _parse_float(row[1], path, line, "y")
            a = _parse_int(row[2], path, line, "a")
            if a not in (0, 1):
                raise InputFormatError(f"column 'a': must be 0 or 1, got {a}", path, line)
            x = [_parse_float(row[3 + j], path, line, names[j]) for j in range(len(names))]
            by_study.setdefault(study, []).append((y, a, x))
    datasets = []
    for study in sorted(by_study):
        rows = by_study[study]
        datasets.append(
            TrialDataset(
                study_id=study,
                y=np.array([r[0] for r in rows]),
                a=np.array([r[1] for r in rows]),
                x=np.array([r[2] for r in rows]),
                covariate_names=cov_names,
            )
        )
    return datasets


def read_profiles_csv(path: str) -> list[CovariateProfile]:
    header, rows = _read_rows(path, ("profile_id",), min_extra=1)
    names = tuple(header[1:])
    profiles = []
    seen = set()
    for line, row in rows:
        pid = _parse_int(row[0], path, line, "profile_id")
        if pid in seen:
            raise InputFormatError(f"duplicate profile_id {pid}", path, line)
        seen.add(pid)
        x = [_parse_float(row[1 + j], path, line, names[j]) for j in range(len(names))]
        profiles.append(CovariateProfile(profile_id=pid, x=np.array(x)))
    return profiles


def write_aggregates_csv(path: str, estimates: list[StudyCateEstimate]) -> None:
    ordered = sorted(estimates, key=lambda e: (e.profile_id, e.study_id))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(AGGREGATE_HEADER) + "\n")
        for e in ordered:
            fh.write(f"{e.profile_id},{e.study_id},{_fmt(e.tau_hat)},{_fmt(e.se2)}\n")


def read_aggregates_csv(path: str) -> dict[int, list[StudyCateEstimate]]:
    """Aggregates grouped by profile_id (each list sorted by study_id)."""
    _, rows = _read_rows(path, AGGREGATE_HEADER)
    grouped: dict[int, list[StudyCateEstimate]] = {}
    for line, row in rows:
        try:
            est = StudyCateEstimate(
                profile_id=_parse_int(row[0], path, line, "profile_id"),
                study_id=_parse_int(row[1], path, line, "study_id"),
                tau_hat=_parse_float(row[2], path, line, "tau_hat"),
                se2=_parse_float(row[3], path, line, "se2"),
            )
        except ValueError as err:  # non-finite tau_hat; negative or non-finite se2
            raise InputFormatError(str(err), path, line)
        grouped.setdefault(est.profile_id, []).append(est)
    for pid, ests in grouped.items():
        ests.sort(key=lambda e: e.study_id)
        for first, second in zip(ests, ests[1:]):
            if first.study_id == second.study_id:
                key = (pid, first.study_id)
                line = [n for n, row in rows if (int(row[0]), int(row[1])) == key][1]
                raise InputFormatError(
                    f"duplicate row for profile {pid}, study {first.study_id}", path, line
                )
    return grouped


def interval_flag(lower: float, upper: float) -> str:
    if lower > 0.0:
        return "positive"
    if upper < 0.0:
        return "negative"
    return "crosses_zero"


@dataclass(frozen=True)
class PredictionRow:
    """One output row of the predict command; interval fields are None at K=2."""

    profile_id: int
    tau_pooled: float
    theta2: float
    lower: float | None
    upper: float | None
    df: int | None

    @property
    def flag(self) -> str:
        if self.lower is None:
            return ""
        return interval_flag(self.lower, self.upper)


def write_predictions_csv(path: str, rows: list[PredictionRow]) -> None:
    ordered = sorted(rows, key=lambda r: r.profile_id)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(PREDICTION_HEADER) + "\n")
        for r in ordered:
            interval = (
                f"{_fmt(r.lower)},{_fmt(r.upper)},{r.df}" if r.lower is not None else ",,"
            )
            fh.write(
                f"{r.profile_id},{_fmt(r.tau_pooled)},{_fmt(r.theta2)},"
                f"{interval},{r.flag}\n"
            )


def read_predictions_csv(path: str) -> list[PredictionRow]:
    _, rows = _read_rows(path, PREDICTION_HEADER)
    out = []
    for line, row in rows:
        has_interval = row[3] != ""
        out.append(
            PredictionRow(
                profile_id=_parse_int(row[0], path, line, "profile_id"),
                tau_pooled=_parse_float(row[1], path, line, "tau_pooled"),
                theta2=_parse_float(row[2], path, line, "theta2"),
                lower=_parse_float(row[3], path, line, "lower") if has_interval else None,
                upper=_parse_float(row[4], path, line, "upper") if has_interval else None,
                df=_parse_int(row[5], path, line, "df") if has_interval else None,
            )
        )
    return out


def write_metrics_csv(path: str, tables: list) -> None:
    """Write MetricsTable objects, one row per (profile, method)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(METRICS_HEADER) + "\n")
        for table in tables:
            for i, pid in enumerate(table.profile_ids):
                fh.write(
                    f"{pid},{table.method},{_fmt(table.coverage[i])},"
                    f"{_fmt(table.mean_length[i])},{_fmt(table.bias[i])},"
                    f"{table.n_effective_replications}\n"
                )


@dataclass(frozen=True)
class SimulateOptions:
    """Experiment-file settings beyond the generative model itself."""

    methods: tuple[str, ...] = ("linear",)
    forest_trees: int = 100
    forest_bag_size: int = 20
    bart_trees: int = 50
    bart_burn: int = 500
    bart_draws: int = 1000
    alpha: float = 0.05


_SIM_CONFIG_FIELDS = {f.name: f.type for f in fields(SimConfig)}
_OPTION_KEYS = {
    "methods", "forest_trees", "forest_bag_size",
    "bart_trees", "bart_burn", "bart_draws", "alpha",
}
_INT_KEYS = {
    "k_studies", "n_per_study", "heterogeneity_level", "n_replications",
    "master_seed", "forest_trees", "forest_bag_size",
    "bart_trees", "bart_burn", "bart_draws",
}


def parse_sim_config(path: str) -> tuple[SimConfig, SimulateOptions]:
    """Parse a flat ``key = value`` experiment file."""
    raw: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ConfigurationError(
                    f"{path}:{line_no}: expected 'key = value', got {text!r}"
                )
            key, _, value = text.partition("=")
            key = key.strip()
            if key not in _SIM_CONFIG_FIELDS and key not in _OPTION_KEYS:
                raise ConfigurationError(f"{path}:{line_no}: unknown key '{key}'")
            if key in raw:
                raise ConfigurationError(f"{path}:{line_no}: duplicate key '{key}'")
            raw[key] = value.strip()

    def convert(key: str, value: str):
        try:
            if key in _INT_KEYS:
                return int(value)
            if key == "alpha":
                return float(value)
            if key == "methods":
                methods = tuple(m.strip() for m in value.split(",") if m.strip())
                for m in methods:
                    if m not in STAGE1_METHODS:
                        raise ConfigurationError(
                            f"{path}: key 'methods': unknown method '{m}'"
                        )
                return methods
            return value
        except ValueError:
            raise ConfigurationError(f"{path}: key '{key}': bad value {value!r}")

    config_kwargs = {}
    option_kwargs = {}
    for key, value in raw.items():
        parsed = convert(key, value)
        if key in _SIM_CONFIG_FIELDS:
            config_kwargs[key] = parsed
        else:
            option_kwargs[key] = parsed
    return SimConfig(**config_kwargs), SimulateOptions(**option_kwargs)
