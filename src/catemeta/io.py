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
from .model import CovariateProfile, TrialDataset
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
        value = int(text)
    except ValueError:
        raise InputFormatError(f"column '{column}': not an integer: {text!r}", path, line)
    if not -2**63 <= value < 2**63:
        raise InputFormatError(f"column '{column}': out of range: {text!r}", path, line)
    return value


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


def _read_columns(path: str, expected_prefix: tuple[str, ...], kinds: tuple[type, ...],
                  min_extra: int = 0):
    """Read a CSV as (header, line numbers, one array per column).

    ``kinds`` holds ``int`` or ``float`` for each prefix column; the rest are
    floats.  Values are parsed one by one only to name the line of a bad one.
    """
    header, rows = _read_rows(path, expected_prefix, min_extra)
    lines = [line for line, _ in rows]
    columns = []
    all_texts = list(zip(*(row for _, row in rows))) or [()] * len(header)
    for name, kind, texts in zip(header, kinds + (float,) * len(header), all_texts):
        try:
            columns.append(np.array(list(map(kind, texts)), dtype=kind))  # int64 or float64
        except (ValueError, OverflowError):
            for line, text in zip(lines, texts):
                (_parse_int if kind is int else _parse_float)(text, path, line, name)
            raise
    return header, lines, columns


def first_invalid_estimate(tau_hat: np.ndarray, se2: np.ndarray) -> tuple[int, str] | None:
    """Index and reason of the first pair with a non-finite tau_hat or a non-finite
    or negative se2; None if every pair is a valid estimate."""
    bad_tau = ~np.isfinite(tau_hat)
    bad = bad_tau | ~(np.isfinite(se2) & (se2 >= 0.0))
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    return i, "tau_hat must be finite" if bad_tau[i] else "se2 must be finite and >= 0"


def read_trials_csv(paths: list[str]) -> list[TrialDataset]:
    """Read one or more trial files and group rows into per-study datasets.

    All files must agree on the covariate columns.  Studies are returned
    sorted by study_id; rows keep their file order within a study.
    """
    if not paths:
        raise InputFormatError("no trial files given")
    cov_names: tuple[str, ...] | None = None
    parts = []
    for path in paths:
        header, lines, columns = _read_columns(
            path, ("study_id", "y", "a"), (int, float, int), min_extra=1
        )
        names = tuple(header[3:])
        if cov_names is None:
            cov_names = names
        elif names != cov_names:
            raise InputFormatError(
                f"covariate columns {names} do not match {cov_names}", path, 1
            )
        a = columns[2]
        bad = np.flatnonzero((a != 0) & (a != 1))
        if bad.size:
            i = bad[0]
            raise InputFormatError(f"column 'a': must be 0 or 1, got {a[i]}", path, lines[i])
        parts.append((*columns[:3], np.column_stack(columns[3:])))
    study, y, a, x = (np.concatenate(column) for column in zip(*parts))
    if not study.size:
        raise InputFormatError("no trial rows", ", ".join(paths))
    order = np.argsort(study, kind="stable")
    ids, starts = np.unique(study[order], return_index=True)
    return [
        TrialDataset(study_id=sid, y=y[rows], a=a[rows], x=x[rows], covariate_names=cov_names)
        for sid, rows in zip(ids.tolist(), np.split(order, starts[1:]))
    ]


def read_profiles_csv(path: str, covariate_names: tuple[str, ...]) -> list[CovariateProfile]:
    """Target profiles in file order; the covariate columns must be
    ``covariate_names`` in that order, ids unique and covariates finite."""
    header, lines, columns = _read_columns(path, ("profile_id",), (int,), min_extra=1)
    names = tuple(header[1:])
    if names != tuple(covariate_names):
        raise InputFormatError(
            f"covariate columns {names} do not match {tuple(covariate_names)}", path, 1
        )
    pid = columns[0]
    if not pid.size:
        raise InputFormatError("no target profiles", path)
    _, first, group = np.unique(pid, return_index=True, return_inverse=True)
    repeats = np.flatnonzero(first[group] != np.arange(pid.size))
    if repeats.size:
        i = repeats[0]
        raise InputFormatError(f"duplicate profile_id {pid[i]}", path, lines[i])
    x = np.column_stack(columns[1:])
    rows, cols = np.nonzero(~np.isfinite(x))
    if rows.size:
        i, j = rows[0], cols[0]
        raise InputFormatError(
            f"column '{header[1 + j]}': not finite: {float(x[i, j])}", path, lines[i]
        )
    return [CovariateProfile(profile_id=p, x=row) for p, row in zip(pid.tolist(), x)]


def write_aggregates_csv(path: str, profile_id, study_id, **values) -> None:
    """Write a profile x study table sorted by (profile_id, study_id); the keyword
    arguments name its value columns in order (``tau_hat``, ``se2`` for aggregates)."""
    order = np.lexsort((study_id, profile_id))
    columns = [np.asarray(c)[order].tolist() for c in (profile_id, study_id, *values.values())]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(("profile_id", "study_id", *values)) + "\n")
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in zip(*columns))


def read_aggregates_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Aggregates as ``(profile_id, study_id, tau_hat, se2)`` arrays sorted by
    profile_id, then study_id; each (profile, study) pair is one valid estimate."""
    _, lines, columns = _read_columns(path, AGGREGATE_HEADER, (int, int, float, float))
    invalid = first_invalid_estimate(columns[2], columns[3])
    if invalid is not None:
        raise InputFormatError(invalid[1], path, lines[invalid[0]])
    order = np.lexsort((columns[1], columns[0]))
    pid, sid, tau, se2 = (column[order] for column in columns)
    repeats = np.flatnonzero((pid[1:] == pid[:-1]) & (sid[1:] == sid[:-1]))
    if repeats.size:
        i = repeats[0] + 1
        raise InputFormatError(
            f"duplicate row for profile {pid[i]}, study {sid[i]}", path, lines[order[i]]
        )
    return pid, sid, tau, se2


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
