"""CSV schemas and config-file parsing.

All files are UTF-8 with ``.`` decimal separators, written with LF line
endings.  A leading byte-order mark is dropped, and a byte that does not
decode as strict UTF-8 is an error naming its file and line (``_decode``).
The readers accept CRLF and lone CR endings too.
Every table is read by ``_read_columns`` from the file's bytes: it decodes
only the header, checks it before any value, then parses an ASCII body with
one ``np.loadtxt`` call into one array per column.  The row scan,
``_scan_columns``, is the rule: it decides whether an input is bad and names
the line of a bad row, and it runs, on the decoded body, only where
``loadtxt`` fails or cannot be trusted.  A bad header, field count or value,
or a row that breaks a reader's rules, raises one ``InputFormatError`` naming
``file:line``, the line on which the row starts; a line number is worked out
only for an error.  Every table is written by ``_write_table``, a thousand
rows at a time: integers as integers, floats with ``repr`` (the shortest
round-tripping form), strings as they are and ``None`` as an empty field, so
parsing our own output and writing it again is byte-identical.

Schemas:
  trials       study_id,y,a,<covariate_1>,...,<covariate_p>
  profiles     profile_id,<covariate_1>,...,<covariate_p>
  aggregates   profile_id,study_id,tau_hat,se2
  predictions  profile_id,tau_pooled,theta2,lower,upper,df,flag_nonoverlap
  metrics      profile_id,method,coverage,mean_length,bias,n_effective_replications
  config       flat ``key = value`` lines; blank lines and ``#`` comments ignored
"""

from __future__ import annotations

import codecs
import csv
import os
from dataclasses import dataclass, fields
from functools import partial
from io import BytesIO, StringIO
from itertools import islice

import numpy as np

from .bart import BartParams
from .errors import ConfigurationError, InputFormatError
from .forest import ForestParams
from .model import TrialDataset
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


# Rows formatted and written at a time, which bounds the strings held.
_WRITE_ROWS = 1024


def _write_table(path: str, header: tuple[str, ...], columns) -> None:
    """Write equal-length columns under ``header``, one row per index; ``None``
    is an empty field."""
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]), _WRITE_ROWS):
            texts = [list(map(_FORMATS.get(c.dtype.kind, _fmt), c[lo:lo + _WRITE_ROWS].tolist()))
                     for c in columns]
            fh.writelines(",".join(row) + "\n" for row in zip(*texts))


def _plain(text: str) -> bool:
    return text.isascii() and "_" not in text


def _parse_column(texts, kind: type, name: str, path: str, line) -> np.ndarray:
    """Field texts as an int64, float64 or str array; ``line(i)`` is the line of
    text ``i``.  A number may not hold ``_`` or a non-ASCII character, which
    Python's ``int`` and ``float`` would read (``1_0`` as 10).  Values are
    parsed one by one only to name the line of a bad one."""
    what = "an integer" if kind is int else "a number"
    if kind is not str and not _plain("".join(texts)):
        i, text = next((i, text) for i, text in enumerate(texts) if not _plain(text))
        raise InputFormatError(f"column '{name}': not {what}: {text!r}", path, line(i))
    try:
        return np.array(list(map(kind, texts)), dtype=kind)
    except (ValueError, OverflowError):
        for i, text in enumerate(texts):
            try:
                np.array(kind(text), dtype=kind)
            except ValueError:
                raise InputFormatError(f"column '{name}': not {what}: {text!r}", path, line(i))
            except OverflowError:
                raise InputFormatError(f"column '{name}': out of range: {text!r}", path, line(i))
        raise


def _records(body, line: int):
    """(line, fields) of each non-blank row of a CSV body, UTF-8 bytes whose
    first line is ``line``.  A row's line is the one it starts on: a quoted
    field may span lines."""
    reader = csv.reader(StringIO(str(body, "utf-8"), newline=""))
    start = line
    for row in reader:
        if row:
            yield start, row
        start = line + reader.line_num


def _row_line(body, line: int, index: int) -> int:
    """Line on which row ``index`` of a CSV body whose first line is ``line`` starts."""
    return next(islice(_records(body, line), index, None))[0]


def _scan_columns(body, line: int, header: list[str], kinds, path: str) -> list[np.ndarray]:
    """The columns of a CSV body whose first line is ``line``, parsed row by
    row: the rule that decides whether a table is valid, and the one that
    names the line of a bad one."""
    rows = []
    for at, row in _records(body, line):
        if len(row) != len(header):
            raise InputFormatError(f"expected {len(header)} fields, got {len(row)}", path, at)
        rows.append(row)
    all_texts = list(zip(*rows)) or [()] * len(header)
    row_line = partial(_row_line, body, line)
    return [_parse_column(texts, kind, name, path, row_line)
            for name, kind, texts in zip(header, kinds, all_texts)]


_DTYPES = {int: "i8", float: "f8", str: "O"}


def _decode(data: bytes, path: str, error=InputFormatError, line: int = 1,
            final: bool = True) -> str:
    """``data``, the bytes of ``path`` from line ``line`` on, as strict UTF-8,
    less a character cut off at the end unless ``final``.  A byte that does
    not decode raises ``error`` (``InputFormatError`` or
    ``ConfigurationError``) naming the file and the line of the byte."""
    try:
        return codecs.utf_8_decode(data, "strict", final)[0]
    except UnicodeDecodeError as exc:
        before = data[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        line += before.count(b"\n")
        message = f"not UTF-8: byte 0x{data[exc.start]:02x}"
        if error is InputFormatError:
            raise InputFormatError(message, path, line) from None
        raise error(f"{path}:{line}: {message}") from None


# Bytes decoded to find a header, doubled while it runs past them.
_HEADER_PREFIX = 1 << 16


def _split_header(data: bytes, path: str):
    """``(header, line, body)`` of a CSV file's bytes: the header's fields
    (None if the file is empty), the line on which the body starts, and the
    body's offset.  A leading byte-order mark is skipped.  The reader takes
    one line at a time, as a quoted field may span lines, so ``fh.tell()``
    ends the header's last line; while that ends the decoded prefix too, the
    header (or a CR's LF) may run on, and the prefix is doubled."""
    start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    size = _HEADER_PREFIX
    while True:
        final = start + size >= len(data)
        text = _decode(data[start:start + size], path, final=final)
        fh = StringIO(text, newline="")
        reader = csv.reader(fh)
        header = next(reader, None)
        end = fh.tell()
        if final or end < len(text):
            return header, reader.line_num + 1, start + len(text[:end].encode("utf-8"))
        size *= 2


def _read_columns(path: str, fixed: tuple[str, ...], kinds: tuple[type, ...],
                  covariates: tuple[str, ...] | None = ()):
    """Read a CSV as (header, one array per column, ``line``), where ``line(i)``
    is the line on which data row ``i`` starts.

    The header must be ``fixed`` followed by the float columns ``covariates``,
    or by at least one float column of any name when ``covariates`` is None.
    It is checked before any value, once the file is known to be UTF-8.
    ``kinds`` holds ``int``, ``float`` or ``str`` for each fixed column.

    An ASCII body with a row in it (a byte other than CR and LF) is parsed
    by one ``np.loadtxt`` call over the file's bytes (on no row it warns).
    Where that fails, and on any other body, ``_scan_columns`` parses the
    decoded body: it raises the error that names the bad line or returns the
    same columns.  ``loadtxt`` must accept no body that the row scan
    rejects: it strips Unicode whitespace such as a no-break space around a
    number, hence the ASCII gate, and ``comments=None`` keeps a ``#`` in a
    field.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    header, first, body = _split_header(data, path)
    rest = memoryview(data)[body:]
    ascii_body = np.frombuffer(rest, np.uint8).max(initial=0) < 0x80
    if not ascii_body:
        _decode(data[body:], path, line=first)
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
    kinds = kinds + (float,) * len(names)
    line = partial(_row_line, rest, first)
    if ascii_body and len(rest) > data.count(b"\n", body) + data.count(b"\r", body):
        dtype = [(f"f{i}", _DTYPES[kind]) for i, kind in enumerate(kinds)]
        fh = BytesIO(data)
        fh.seek(body)
        try:
            table = np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"',
                               comments=None, ndmin=1, encoding="ascii")
        except ValueError:
            pass
        else:
            return header, [table[name].astype(str) if kind is str else table[name]
                            for (name, _), kind in zip(dtype, kinds)], line
    return header, _scan_columns(rest, first, header, kinds, path), line


def _reject_nonfinite(header, columns, path: str, line) -> None:
    """Raise for the first non-finite value in the float columns of a table,
    taking the rows in file order and each row's cells from left to right."""
    names, floats = zip(*((name, c) for name, c in zip(header, columns) if c.dtype.kind == "f"))
    rows, cols = np.nonzero(~np.isfinite(np.column_stack(floats)))
    if rows.size:
        i, j = rows[0], cols[0]
        raise InputFormatError(f"column '{names[j]}': not finite: {float(floats[j][i])}",
                               path, line(i))


def _first_repeat(*keys: np.ndarray) -> tuple[int | None, np.ndarray]:
    """``(i, order)``: the index of the first row, in file order, whose keys
    (equal-length columns) all equal those of an earlier row, None if no row
    repeats one, and the stable order that sorts the rows by the keys, the
    first key most significant."""
    order = np.lexsort(keys[::-1])  # stable: equal keys keep their file order
    same = np.logical_and.reduce([k[order][1:] == k[order][:-1] for k in keys])
    return (int(order[1:][same].min()) if same.any() else None), order


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

    All files must agree on the covariate columns, and no file may be given
    twice.  Outcomes and covariates must be finite.  Studies are returned
    sorted by study_id; rows keep their file order within a study.
    """
    if not paths:
        raise InputFormatError("no trial files given")
    cov_names: tuple[str, ...] | None = None
    parts = []
    for n, path in enumerate(paths):
        if any(os.path.samefile(path, earlier) for earlier in paths[:n]):
            raise InputFormatError("trial file given more than once", path)
        header, columns, line = _read_columns(
            path, ("study_id", "y", "a"), (int, float, int), cov_names
        )
        cov_names = tuple(header[3:])
        a = columns[2]
        bad = np.flatnonzero((a != 0) & (a != 1))
        if bad.size:
            i = bad[0]
            raise InputFormatError(f"column 'a': must be 0 or 1, got {a[i]}", path, line(i))
        _reject_nonfinite(header, columns, path, line)
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


def read_profiles_csv(path: str, covariate_names: tuple[str, ...]
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Target profiles in file order as ``(profile_id, points)``, one row of
    ``points`` per id; the covariate columns must be ``covariate_names`` in
    that order, ids unique and covariates finite."""
    header, columns, line = _read_columns(path, ("profile_id",), (int,), tuple(covariate_names))
    pid = columns[0]
    if not pid.size:
        raise InputFormatError("no target profiles", path)
    i, _ = _first_repeat(pid)
    if i is not None:
        raise InputFormatError(f"duplicate profile_id {pid[i]}", path, line(i))
    _reject_nonfinite(header, columns, path, line)
    return pid, np.column_stack(columns[1:])


def write_aggregates_csv(path: str, profile_id, study_id, **values) -> None:
    """Write a profile x study table sorted by (profile_id, study_id); the keyword
    arguments name its value columns in order (``tau_hat``, ``se2`` for aggregates)."""
    order = np.lexsort((study_id, profile_id))
    _write_table(path, ("profile_id", "study_id", *values),
                 [np.asarray(c)[order] for c in (profile_id, study_id, *values.values())])


def read_aggregates_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Aggregates as ``(profile_id, study_id, tau_hat, se2)`` arrays sorted by
    profile_id, then study_id; each (profile, study) pair is one valid estimate."""
    _, columns, line = _read_columns(path, AGGREGATE_HEADER, (int, int, float, float))
    if not columns[0].size:
        raise InputFormatError("no aggregate rows", path)
    invalid = first_invalid_estimate(columns[2], columns[3])
    if invalid is not None:
        raise InputFormatError(invalid[1], path, line(invalid[0]))
    i, order = _first_repeat(columns[0], columns[1])
    if i is not None:
        raise InputFormatError(
            f"duplicate row for profile {columns[0][i]}, study {columns[1][i]}", path, line(i)
        )
    return tuple(column[order] for column in columns)


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
    _, (pid, tau, theta2, lower, upper, df, flag), line = _read_columns(
        path, PREDICTION_HEADER, (int, float, float, str, str, str, str)
    )
    given = lower != ""
    partly = ((upper != "") != given) | ((df != "") != given)
    if partly.any():
        raise InputFormatError("lower, upper and df must be all given or all empty (K = 2)",
                               path, line(np.argmax(partly)))
    lower, upper = (_parse_column(np.where(given, text, "nan").tolist(), float, name, path, line)
                    for text, name in ((lower, "lower"), (upper, "upper")))
    k = _parse_column(np.where(given, df, "0").tolist(), int, "df", path, line) + 2
    for bad, message in (
        (~np.isfinite(tau), "tau_pooled must be finite"),
        (~(np.isfinite(theta2) & (theta2 >= 0.0)), "theta2 must be finite and >= 0"),
        (given & ~(np.isfinite(lower) & np.isfinite(upper)), "lower and upper must be finite"),
        (given & ~((lower <= tau) & (tau <= upper)), "expected lower <= tau_pooled <= upper"),
        (given & (k < 3), "df must be >= 1"),
        (flag != _flags(lower, upper), "flag_nonoverlap does not match lower and upper"),
    ):
        if bad.any():
            raise InputFormatError(message, path, line(np.argmax(bad)))
    i, order = _first_repeat(pid)
    if i is not None:
        raise InputFormatError(f"duplicate profile_id {pid[i]}", path, line(i))
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
    forest_trees: int = 100  # the harness's own: it grows K forests per replication
    forest_bag_size: int = ForestParams.bag_size
    bart_trees: int = BartParams.n_trees
    bart_burn: int = BartParams.n_burn
    bart_draws: int = BartParams.n_draws
    alpha: float = 0.05


_SIM_CONFIG_FIELDS = {f.name for f in fields(SimConfig)}
_OPTION_KEYS = {f.name for f in fields(SimulateOptions)}
# Annotations are strings: both modules postpone their evaluation.
_INT_KEYS = {f.name for f in fields(SimConfig) + fields(SimulateOptions) if f.type == "int"}


def parse_sim_config(path: str) -> tuple[SimConfig, SimulateOptions]:
    """Parse a flat ``key = value`` experiment file.  A number may not hold
    ``_`` or a non-ASCII character, as in the CSV readers."""
    raw: dict[str, tuple[int, str]] = {}
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    with StringIO(_decode(data, path, ConfigurationError)) as fh:
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
            raw[key] = line_no, value.strip()

    def convert(key: str, line_no: int, value: str):
        where = f"{path}:{line_no}: key '{key}'"
        if key in _INT_KEYS or key == "alpha":
            kind = int if key in _INT_KEYS else float
            try:
                if _plain(value):
                    return kind(value)
            except ValueError:
                pass
            raise ConfigurationError(f"{where}: bad value {value!r}")
        if key == "methods":
            methods = tuple(m.strip() for m in value.split(",") if m.strip())
            if not methods:
                raise ConfigurationError(f"{where}: no method given")
            for i, m in enumerate(methods):
                if m not in STAGE1_METHODS:
                    raise ConfigurationError(f"{where}: unknown method '{m}'")
                if m in methods[:i]:
                    raise ConfigurationError(f"{where}: repeated method '{m}'")
            return methods
        return value

    config_kwargs = {}
    option_kwargs = {}
    for key, (line_no, value) in raw.items():
        parsed = convert(key, line_no, value)
        if key in _SIM_CONFIG_FIELDS:
            config_kwargs[key] = parsed
        else:
            option_kwargs[key] = parsed
    return SimConfig(**config_kwargs), SimulateOptions(**option_kwargs)
