"""CSV schemas and config-file parsing.

All files are UTF-8 with ``.`` decimal separators, written with LF line
endings; the CSV readers also accept a byte-order mark and CRLF.
Every table is read by ``_read_columns``: it checks the whole header before
any value, then returns one array per column.  A bad header, field count or
value, or a row that breaks a reader's rules, raises one ``InputFormatError``
naming ``file:line``.  Every table is written by ``_write_table``: integers
as integers, floats with ``repr`` (the shortest round-tripping form), strings
as they are and ``None`` as an empty field, so parsing our own output and
writing it again is byte-identical.

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
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


# Field text of a value, by the kind of its column's dtype; other kinds go through _fmt.
_FORMATS = {"f": repr, "i": str, "U": str}


def _write_table(path: str, header: tuple[str, ...], columns) -> None:
    """Write equal-length columns under ``header``, one row per index; ``None``
    is an empty field."""
    texts = [list(map(_FORMATS.get(c.dtype.kind, _fmt), c.tolist()))
             for c in map(np.asarray, columns)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*texts))


def _plain(text: str) -> bool:
    return text.isascii() and "_" not in text


def _parse_column(texts, kind: type, name: str, path: str, lines: list[int]) -> np.ndarray:
    """Field texts as an int64, float64 or str array.  A number may not hold
    ``_`` or a non-ASCII character, which Python's ``int`` and ``float`` would
    read (``1_0`` as 10).  Values are parsed one by one only to name the line
    of a bad one."""
    what = "an integer" if kind is int else "a number"
    if kind is not str and not _plain("".join(texts)):
        line, text = next((line, text) for line, text in zip(lines, texts) if not _plain(text))
        raise InputFormatError(f"column '{name}': not {what}: {text!r}", path, line)
    try:
        return np.array(list(map(kind, texts)), dtype=kind)
    except (ValueError, OverflowError):
        for line, text in zip(lines, texts):
            try:
                np.array(kind(text), dtype=kind)
            except ValueError:
                raise InputFormatError(f"column '{name}': not {what}: {text!r}", path, line)
            except OverflowError:
                raise InputFormatError(f"column '{name}': out of range: {text!r}", path, line)
        raise


def _read_columns(path: str, fixed: tuple[str, ...], kinds: tuple[type, ...],
                  covariates: tuple[str, ...] | None = ()):
    """Read a CSV as (header, line numbers, one array per column).

    The header must be ``fixed`` followed by the float columns ``covariates``,
    or by at least one float column of any name when ``covariates`` is None.
    It is checked before any value is parsed.  ``kinds`` holds ``int``,
    ``float`` or ``str`` for each fixed column.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise InputFormatError("empty file", path, 1)
        for pos, name in enumerate(fixed):
            if pos >= len(header) or header[pos] != name:
                raise InputFormatError(
                    f"expected column {pos + 1} to be '{name}', "
                    f"got {header[pos] if pos < len(header) else 'nothing'}",
                    path, 1,
                )
        names = tuple(header[len(fixed):])
        if covariates is None and not names:
            raise InputFormatError(f"expected at least one covariate column after {fixed}",
                                   path, 1)
        if covariates is not None and names != covariates:
            raise InputFormatError(
                f"covariate columns {names} do not match {covariates}" if covariates
                else f"unexpected column(s) {names} after {fixed}", path, 1,
            )
        lines, rows = [], []
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise InputFormatError(
                    f"expected {len(header)} fields, got {len(row)}", path, line
                )
            lines.append(line)
            rows.append(row)
    all_texts = list(zip(*rows)) or [()] * len(header)
    columns = [
        _parse_column(texts, kind, name, path, lines)
        for name, kind, texts in zip(header, kinds + (float,) * len(names), all_texts)
    ]
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
            path, ("study_id", "y", "a"), (int, float, int), cov_names
        )
        cov_names = tuple(header[3:])
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
    header, lines, columns = _read_columns(path, ("profile_id",), (int,), tuple(covariate_names))
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
    _write_table(path, ("profile_id", "study_id", *values),
                 [np.asarray(c)[order] for c in (profile_id, study_id, *values.values())])


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


def _flags(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """flag_nonoverlap of each interval; empty where the bounds are NaN (K = 2)."""
    return np.select([np.isnan(lower), lower > 0.0, upper < 0.0],
                     ["", "positive", "negative"], "crosses_zero")


def write_predictions_csv(path: str, profile_id, tau_pooled, theta2, lower, upper, k) -> None:
    """Write one row per profile, sorted by profile_id, with df = k - 2.  ``lower``
    and ``upper`` are NaN where K = 2; those rows leave lower, upper, df and the
    flag empty."""
    order = np.argsort(profile_id, kind="stable")
    pid, tau, theta2, lower, upper, k = (
        np.asarray(c)[order] for c in (profile_id, tau_pooled, theta2, lower, upper, k)
    )
    given = ~np.isnan(lower)
    _write_table(path, PREDICTION_HEADER, (
        pid, tau, theta2, np.where(given, lower, None), np.where(given, upper, None),
        np.where(given, k - 2, None), _flags(lower, upper),
    ))


def read_predictions_csv(path: str):
    """Predictions as the ``(profile_id, tau_pooled, theta2, lower, upper, k)``
    arrays that write_predictions_csv takes, sorted by profile_id.  Empty lower,
    upper and df fields mean K = 2: the bounds read as NaN and k as 2."""
    _, lines, (pid, tau, theta2, lower, upper, df, flag) = _read_columns(
        path, PREDICTION_HEADER, (int, float, float, str, str, str, str)
    )
    given = lower != ""
    partly = ((upper != "") != given) | ((df != "") != given)
    if partly.any():
        raise InputFormatError("lower, upper and df must be all given or all empty (K = 2)",
                               path, lines[np.argmax(partly)])
    lower, upper = (_parse_column(np.where(given, text, "nan").tolist(), float, name, path, lines)
                    for text, name in ((lower, "lower"), (upper, "upper")))
    k = _parse_column(np.where(given, df, "0").tolist(), int, "df", path, lines) + 2
    for bad, message in (
        (~np.isfinite(tau), "tau_pooled must be finite"),
        (~(np.isfinite(theta2) & (theta2 >= 0.0)), "theta2 must be finite and >= 0"),
        (given & ~(np.isfinite(lower) & np.isfinite(upper)), "lower and upper must be finite"),
        (given & ~((lower <= tau) & (tau <= upper)), "expected lower <= tau_pooled <= upper"),
        (given & (k < 3), "df must be >= 1"),
        (flag != _flags(lower, upper), "flag_nonoverlap does not match lower and upper"),
    ):
        if bad.any():
            raise InputFormatError(message, path, lines[np.argmax(bad)])
    order = np.argsort(pid, kind="stable")
    sorted_pid = pid[order]
    repeats = np.flatnonzero(sorted_pid[1:] == sorted_pid[:-1])
    if repeats.size:
        i = order[repeats[0] + 1]
        raise InputFormatError(f"duplicate profile_id {pid[i]}", path, lines[i])
    return tuple(column[order] for column in (pid, tau, theta2, lower, upper, k))


def write_metrics_csv(path: str, tables: list) -> None:
    """Write MetricsTable objects, one row per (profile, method)."""
    parts = [
        (t.profile_ids, [t.method] * len(t.profile_ids), t.coverage, t.mean_length, t.bias,
         [t.n_effective_replications] * len(t.profile_ids))
        for t in tables
    ]
    _write_table(path, METRICS_HEADER, [np.concatenate(column) for column in zip(*parts)])


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


_SIM_CONFIG_FIELDS = {f.name for f in fields(SimConfig)}
_OPTION_KEYS = {f.name for f in fields(SimulateOptions)}
# Annotations are strings: both modules postpone their evaluation.
_INT_KEYS = {f.name for f in fields(SimConfig) + fields(SimulateOptions) if f.type == "int"}


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
