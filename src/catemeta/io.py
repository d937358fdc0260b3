"""CSV schemas: reading and writing the tables the commands take and make.

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
only for an error.  The aggregates and predictions readers return rows
sorted by their keys, and a duplicate key is an error naming the line of
the first row that repeats an earlier one (``_first_repeat``).  Rows already
strictly in key order, as the writers leave them, are not sorted again; any
other row order gives the same arrays.  Every table is written by
``_write_table``, a thousand rows at a time: integers as integers, floats
with ``repr`` (the shortest round-tripping form) and strings as they are,
so parsing our own output and writing it again is byte-identical.  A cell
the caller marks blank is an empty field: a K = 2 prediction's lower, upper
and df (its flag is the empty string).

Schemas:
  trials       study_id,y,a,<covariate_1>,...,<covariate_p>
  profiles     profile_id,<covariate_1>,...,<covariate_p>
  aggregates   profile_id,study_id,tau_hat,se2
  predictions  profile_id,tau_pooled,theta2,lower,upper,df,flag_nonoverlap
  metrics      profile_id,method,coverage,mean_length,bias,n_effective_replications

The ``simulate`` experiment file is parsed by :mod:`catemeta.config`.
"""

from __future__ import annotations

import codecs
import csv
import os
import re
from functools import partial
from io import BytesIO, StringIO
from itertools import islice

import numpy as np

from .errors import InputFormatError
from .model import TrialDataset

AGGREGATE_HEADER = ("profile_id", "study_id", "tau_hat", "se2")
PREDICTION_HEADER = (
    "profile_id", "tau_pooled", "theta2", "lower", "upper", "df", "flag_nonoverlap",
)
METRICS_HEADER = (
    "profile_id", "method", "coverage", "mean_length", "bias",
    "n_effective_replications",
)


# Field text of a value, by the kind of its column's dtype.
_FORMATS = {"f": repr, "i": str, "U": str}


# Rows formatted and written at a time, which bounds the strings held.
_WRITE_ROWS = 1024


def _write_table(path: str, header: tuple[str, ...], columns, blank=None) -> None:
    """Write equal-length columns under ``header``, one row per index.  A cell
    is an empty field where ``blank``, a (rows, columns) boolean array, is
    True."""
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]), _WRITE_ROWS):
            texts = [list(map(_FORMATS[c.dtype.kind], c[lo:lo + _WRITE_ROWS].tolist()))
                     for c in columns]
            if blank is not None:
                rows, cols = np.nonzero(blank[lo:lo + _WRITE_ROWS])
                for i, j in zip(rows.tolist(), cols.tolist()):
                    texts[j][i] = ""
            fh.writelines(",".join(row) + "\n" for row in zip(*texts))


def _plain(text: str) -> bool:
    return text.isascii() and "_" not in text


def _plain_number(text: str, kind: type):
    """``kind(text)``, ``kind`` int or float, where ``text`` is a number as the
    readers take it (ASCII, no ``_``); None for any other text."""
    try:
        return kind(text) if _plain(text) else None
    except ValueError:
        return None


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


# Bytes of a text field as loadtxt parses it.  A longer field would be cut,
# so a table with a field this long is read by the row scan.  The longest
# float that repr writes has 24 characters.
_TEXT_BYTES = 25
_DTYPES = {int: "i8", float: "f8", str: f"S{_TEXT_BYTES}"}
# A byte of a row: a body without one holds only line ends.
_ROW_BYTE = re.compile(rb"[^\r\n]")


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
    ``kinds`` holds ``int``, ``float`` or ``str`` for each fixed column.  A
    ``str`` column is bytes (numpy ``S``) when ``loadtxt`` parsed it and
    ``str`` when the row scan did.

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
    if ascii_body and _ROW_BYTE.search(data, body):
        dtype = [(f"f{i}", _DTYPES[kind]) for i, kind in enumerate(kinds)]
        fh = BytesIO(data)
        fh.seek(body)
        try:
            table = np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"',
                               comments=None, ndmin=1, encoding="ascii")
        except ValueError:
            pass
        else:
            columns = [table[name] for name, _ in dtype]
            if not any(kind is str and np.strings.str_len(c).max(initial=0) >= _TEXT_BYTES
                       for c, kind in zip(columns, kinds)):
                return header, columns, line
    return header, _scan_columns(rest, first, header, kinds, path), line


def _reject_nonfinite(header, columns, path: str, line) -> None:
    """Raise for the first non-finite value in the float columns of a table,
    taking the rows in file order and each row's cells from left to right.
    The columns are checked one at a time, which bounds the masks held."""
    first = None
    for name, column in zip(header, columns):
        if column.dtype.kind == "f" and not np.isfinite(column).all():
            i = int(np.argmin(np.isfinite(column)))
            if first is None or i < first[0]:
                first = i, name, float(column[i])
    if first is not None:
        i, name, value = first
        raise InputFormatError(f"column '{name}': not finite: {value}", path, line(i))


def _first_repeat(*keys: np.ndarray):
    """``(i, order, ordered)`` of equal-length key columns: the index of the
    first row, in file order, whose keys all equal those of an earlier row
    (None if no row repeats one), the stable order that sorts the rows by
    the keys, the first key most significant, and the keys in that order,
    each C-contiguous.  Keys already strictly increasing, as the writers
    leave them, are not sorted: their order is ``slice(None)``."""
    keys = [np.ascontiguousarray(k) for k in keys]
    increasing = keys[-1][1:] > keys[-1][:-1]
    for k in keys[-2::-1]:
        increasing = (k[1:] > k[:-1]) | ((k[1:] == k[:-1]) & increasing)
    if increasing.all():
        return None, slice(None), keys
    order = np.lexsort(keys[::-1])  # stable: equal keys keep their file order
    ordered = [k[order] for k in keys]
    same = np.logical_and.reduce([k[1:] == k[:-1] for k in ordered])
    return (int(order[1:][same].min()) if same.any() else None), order, ordered


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
    files = []
    for n, path in enumerate(paths):
        if any(os.path.samefile(path, earlier) for earlier in paths[:n]):
            raise InputFormatError("trial file given more than once", path)
        cov_names, columns = _trial_columns(path, cov_names)
        files.append(columns)
    study = np.concatenate([columns[0] for columns in files])
    if not study.size:
        raise InputFormatError("no trial rows", ", ".join(paths))
    order = np.argsort(study, kind="stable")
    ids, starts = np.unique(study[order], return_index=True)
    bounds = np.cumsum([0] + [columns[0].size for columns in files])
    datasets = []
    for sid, rows in zip(ids.tolist(), np.split(order, starts[1:])):
        # Each column is gathered once, straight from its file's table.
        y, a, x = np.empty(rows.size), np.empty(rows.size, np.int64), np.empty(
            (rows.size, len(cov_names)))
        cut = np.searchsorted(rows, bounds)  # rows[cut[f]:cut[f + 1]] are in file f
        for f, columns in enumerate(files):
            part = slice(cut[f], cut[f + 1])
            local = rows[part] - bounds[f]
            y[part], a[part] = columns[1][local], columns[2][local]
            for j, column in enumerate(columns[3:]):
                x[part, j] = column[local]
        datasets.append(TrialDataset(study_id=sid, y=y, a=a, x=x, covariate_names=cov_names))
    return datasets


def _trial_columns(path: str, cov_names: tuple[str, ...] | None):
    """The covariate names and checked columns of one trials file.  The file's
    bytes, kept to name an error's line, are let go on return."""
    header, columns, line = _read_columns(
        path, ("study_id", "y", "a"), (int, float, int), cov_names
    )
    a = columns[2]
    bad = np.flatnonzero((a != 0) & (a != 1))
    if bad.size:
        i = bad[0]
        raise InputFormatError(f"column 'a': must be 0 or 1, got {a[i]}", path, line(i))
    _reject_nonfinite(header, columns, path, line)
    return tuple(header[3:]), columns


def read_profiles_csv(path: str, covariate_names: tuple[str, ...]
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Target profiles in file order as ``(profile_id, points)``, one row of
    ``points`` per id; the covariate columns must be ``covariate_names`` in
    that order, ids unique and covariates finite."""
    header, columns, line = _read_columns(path, ("profile_id",), (int,), tuple(covariate_names))
    pid = columns[0]
    if not pid.size:
        raise InputFormatError("no target profiles", path)
    i, _, _ = _first_repeat(pid)
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
    """Aggregates as ``(profile_id, study_id, tau_hat, se2)`` C-contiguous
    arrays sorted by profile_id, then study_id; each (profile, study) pair is
    one valid estimate.  Rows already in that order are not sorted again."""
    _, columns, line = _read_columns(path, AGGREGATE_HEADER, (int, int, float, float))
    if not columns[0].size:
        raise InputFormatError("no aggregate rows", path)
    invalid = first_invalid_estimate(columns[2], columns[3])
    if invalid is not None:
        raise InputFormatError(invalid[1], path, line(invalid[0]))
    i, order, (pid, sid) = _first_repeat(columns[0], columns[1])
    if i is not None:
        raise InputFormatError(
            f"duplicate row for profile {columns[0][i]}, study {columns[1][i]}", path, line(i)
        )
    return pid, sid, *(np.ascontiguousarray(column[order]) for column in columns[2:])


def _parse_given(texts: np.ndarray, given: np.ndarray, kind: type, name: str, path: str,
                 line) -> np.ndarray:
    """The ``given`` fields of a text column as ``kind`` numbers, NaN (float)
    or 0 (int) elsewhere.  They are cast as one array; numpy's cast reads a
    field as Python's ``int`` and ``float`` do, once no field holds ``_`` or a
    non-ASCII character.  Where the cast fails, ``_parse_column`` reads the
    fields one by one and names the line of the bad one."""
    if texts.dtype.kind == "S":  # read by loadtxt, so ASCII
        plain = not (np.strings.find(texts, b"_") >= 0).any()
    else:
        plain = _plain("".join(texts.tolist()))
    if plain:
        out = np.full(texts.shape, np.nan) if kind is float else np.zeros(texts.shape, np.int64)
        try:
            np.copyto(out, texts, casting="unsafe", where=given)
            return out
        except (ValueError, OverflowError):
            pass
    blank = "nan" if kind is float else "0"
    fields = [text.decode() if isinstance(text, bytes) else text for text in texts.tolist()]
    return _parse_column([text if ok else blank for text, ok in zip(fields, given.tolist())],
                         kind, name, path, line)


_FLAGS = np.array(["", "positive", "negative", "crosses_zero"])
# The prediction columns a K = 2 row leaves empty; its flag is _FLAGS[0].
_BLANK_AT_K2 = np.array([name in ("lower", "upper", "df") for name in PREDICTION_HEADER])


def _flags(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Index into ``_FLAGS`` of each interval's flag_nonoverlap; the empty flag
    where the bounds are NaN (K = 2)."""
    return np.select([np.isnan(lower), lower > 0.0, upper < 0.0], [0, 1, 2], 3)


def write_predictions_csv(path: str, profile_id, tau_pooled, theta2, lower, upper, k) -> None:
    """Write one row per profile, sorted by profile_id, with df = k - 2.  ``lower``
    and ``upper`` are NaN where K = 2; those rows leave lower, upper, df and the
    flag empty."""
    order = np.argsort(profile_id, kind="stable")
    pid, tau, theta2, lower, upper, k = (
        np.asarray(c)[order] for c in (profile_id, tau_pooled, theta2, lower, upper, k)
    )
    _write_table(path, PREDICTION_HEADER,
                 (pid, tau, theta2, lower, upper, k - 2, _FLAGS[_flags(lower, upper)]),
                 blank=np.isnan(lower)[:, None] & _BLANK_AT_K2)


def read_predictions_csv(path: str):
    """Predictions as the ``(profile_id, tau_pooled, theta2, lower, upper, k)``
    arrays that write_predictions_csv takes, sorted by profile_id.  Empty lower,
    upper and df fields mean K = 2: the bounds read as NaN and k as 2."""
    _, (pid, tau, theta2, lower, upper, df, flag), line = _read_columns(
        path, PREDICTION_HEADER, (int, float, float, str, str, str, str)
    )
    given = lower != lower.dtype.type()  # b"" or ""
    partly = ((upper != upper.dtype.type()) != given) | ((df != df.dtype.type()) != given)
    if partly.any():
        raise InputFormatError("lower, upper and df must be all given or all empty (K = 2)",
                               path, line(np.argmax(partly)))
    lower, upper = (_parse_given(text, given, float, name, path, line)
                    for text, name in ((lower, "lower"), (upper, "upper")))
    k = _parse_given(df, given, int, "df", path, line) + 2
    for bad, message in (
        (~np.isfinite(tau), "tau_pooled must be finite"),
        (~(np.isfinite(theta2) & (theta2 >= 0.0)), "theta2 must be finite and >= 0"),
        (given & ~(np.isfinite(lower) & np.isfinite(upper)), "lower and upper must be finite"),
        (given & ~((lower <= tau) & (tau <= upper)), "expected lower <= tau_pooled <= upper"),
        (given & (k < 3), "df must be >= 1"),
        (flag != _FLAGS.astype(flag.dtype.kind)[_flags(lower, upper)],  # S or U, as read
         "flag_nonoverlap does not match lower and upper"),
    ):
        if bad.any():
            raise InputFormatError(message, path, line(np.argmax(bad)))
    i, order, (ordered,) = _first_repeat(pid)
    if i is not None:
        raise InputFormatError(f"duplicate profile_id {pid[i]}", path, line(i))
    del line  # lets go of the file's bytes, kept only to name an error's line
    return ordered, *(np.ascontiguousarray(column[order])
                      for column in (tau, theta2, lower, upper, k))


def write_metrics_csv(path: str, tables: list) -> None:
    """Write MetricsTable objects, one row per (profile, method)."""
    parts = [
        (t.profile_ids, [t.method] * len(t.profile_ids), t.coverage, t.mean_length, t.bias,
         [t.n_effective_replications] * len(t.profile_ids))
        for t in tables
    ]
    _write_table(path, METRICS_HEADER, [np.concatenate(column) for column in zip(*parts)])
