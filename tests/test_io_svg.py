"""CSV schemas, config parsing, and deterministic SVG emission."""

import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catemeta import ConfigurationError, InputFormatError, MetricsTable, pool_profiles
from catemeta.io import (
    PREDICTION_HEADER,
    parse_sim_config,
    read_aggregates_csv,
    read_predictions_csv,
    read_profiles_csv,
    read_trials_csv,
    write_aggregates_csv,
    write_predictions_csv,
)
from catemeta.svg import compare_intervals_svg, coverage_boxplot_svg, prediction_intervals_svg

TRIAL_CSV = """study_id,y,a,age,weight
1,1.5,0,0.1,-0.2
2,1.0,1,0.2,0.1
1,2.5,1,0.3,0.4
2,2.0,0,0.0,0.3
1,0.5,0,-0.1,0.0
"""


class TestTrialsCsv:
    def test_reads_and_groups_by_study(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text(TRIAL_CSV)
        trials = read_trials_csv([str(path)])
        assert [t.study_id for t in trials] == [1, 2]
        assert trials[0].n_rows == 3
        assert trials[0].covariate_names == ("age", "weight")
        assert trials[0].y.tolist() == [1.5, 2.5, 0.5]  # file order within a study
        assert trials[0].x[1].tolist() == [0.3, 0.4]
        assert trials[1].y[0] == 1.0

    def test_missing_a_column_names_it(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("study_id,y,age\n1,1.0,0.3\n")
        with pytest.raises(InputFormatError, match="'a'"):
            read_trials_csv([str(path)])

    def test_bad_number_has_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("study_id,y,a,age\n1,1.0,0,0.1\n1,oops,1,0.2\n")
        with pytest.raises(InputFormatError, match="bad.csv:3"):
            read_trials_csv([str(path)])

    def test_nonbinary_treatment_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("study_id,y,a,age\n1,1.0,2,0.1\n")
        with pytest.raises(InputFormatError, match="0 or 1"):
            read_trials_csv([str(path)])

    def test_requires_at_least_one_covariate(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("study_id,y,a\n1,1.0,0\n")
        with pytest.raises(InputFormatError):
            read_trials_csv([str(path)])

    def test_mismatched_files_rejected(self, tmp_path):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        p1.write_text("study_id,y,a,age\n1,1.0,0,0.1\n")
        p2.write_text("study_id,y,a,weight\n2,1.0,0,0.1\n")
        with pytest.raises(InputFormatError, match="do not match"):
            read_trials_csv([str(p1), str(p2)])
        p2.write_text("study_id,y,a,weight\n2,1.0,0,x\n")  # header checked first
        with pytest.raises(InputFormatError, match="b.csv:1: covariate columns"):
            read_trials_csv([str(p1), str(p2)])


class TestProfilesCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "profiles.csv"
        path.write_text("profile_id,age,weight\n0,0.5,-1.25\n3,1.5,0.0\n")
        profile_id, points = read_profiles_csv(str(path), ("age", "weight"))
        assert profile_id.tolist() == [0, 3]
        assert points[1, 0] == 1.5


class TestAggregatesCsv:
    def test_write_then_read_is_identity(self, tmp_path):
        path = tmp_path / "agg.csv"
        write_aggregates_csv(str(path), [0, 0, 1], [2, 1, 1],
                             tau_hat=[1.23456789e-3, -2.0, 0.1], se2=[0.5, 0.25, 1e-9])
        pid, sid, tau, se2 = read_aggregates_csv(str(path))
        assert pid.tolist() == [0, 0, 1]
        assert sid.tolist() == [1, 2, 1]  # sorted by study within profile
        assert tau[1] == 1.23456789e-3
        assert se2[2] == 1e-9

    def test_reemitting_parsed_output_is_byte_identical(self, tmp_path):
        sid, pid = np.repeat([1, 2, 3], 2), np.tile([0, 1], 3)
        first = tmp_path / "a.csv"
        write_aggregates_csv(str(first), pid, sid, tau_hat=0.1 * sid + pid / 3.0, se2=0.01 * sid)
        golden = Path(__file__).parent / "golden" / "aggregates_input.csv"
        for source in (first, golden):
            pid, sid, tau, se2 = read_aggregates_csv(str(source))
            second = tmp_path / "b.csv"
            write_aggregates_csv(str(second), pid, sid, tau_hat=tau, se2=se2)
            assert second.read_bytes() == source.read_bytes()


class TestFirstRepeat:
    @pytest.mark.parametrize("read,text,message", [
        (read_aggregates_csv,
         "profile_id,study_id,tau_hat,se2\n0,1,1.0,0.5\n1,1,1.0,0.5\n1,1,1.0,0.5\n0,1,1.0,0.5\n",
         "duplicate row for profile 1, study 1"),
        (read_predictions_csv,
         ",".join(PREDICTION_HEADER) + "\n"
         + "".join(f"{p},1.0,0.5,-1.0,3.0,2,crosses_zero\n" for p in (5, 1, 5, 1)),
         "duplicate profile_id 5"),
    ], ids=["aggregates", "predictions"])
    def test_names_the_first_row_that_repeats_an_earlier_one(self, tmp_path, read, text,
                                                             message):
        # The first repeat in sorted order used to be named: line 5 here.
        path = tmp_path / "in.csv"
        path.write_text(text)
        with pytest.raises(InputFormatError, match=f"in.csv:4: {message}$"):
            read(str(path))


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_AGGREGATES = GOLDEN / "aggregates_input.csv"


def wrap_fields(text, wrap):
    """``text`` with every field below the header passed through ``wrap``."""
    header, *rows = text.splitlines()
    return "\n".join([header] + [",".join(map(wrap, row.split(","))) for row in rows]) + "\n"


ACCEPTED_FORMS = {
    "bom": lambda text: "\ufeff" + text,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "trailing-blank-lines": lambda text: text + "\n\n",
    "quoted-fields": lambda text: wrap_fields(text, lambda field: f'"{field}"'),
    "surrounding-spaces": lambda text: wrap_fields(text, lambda field: f" {field} "),
    "lone-cr": lambda text: text.replace("\n", "\r"),
}


class TestLenientForms:
    @pytest.mark.parametrize("form", ACCEPTED_FORMS.values(), ids=ACCEPTED_FORMS.keys())
    def test_accepted_forms_read_as_the_plain_file(self, tmp_path, form):
        path = tmp_path / "agg.csv"
        path.write_bytes(form(GOLDEN_AGGREGATES.read_text()).encode("utf-8"))
        pid, sid, tau, se2 = read_aggregates_csv(str(path))
        out = tmp_path / "out.csv"
        write_aggregates_csv(str(out), pid, sid, tau_hat=tau, se2=se2)
        assert out.read_bytes() == GOLDEN_AGGREGATES.read_bytes()

    @pytest.mark.parametrize("field,value", [
        (0, "1_0"), (1, "2_0"), (2, "1_000.5"), (3, "0.5e1_0"),
        (0, "\uff11"), (2, "\u0661.5"), (3, "0.5\u00a0"),
    ], ids=["pid-underscore", "sid-underscore", "tau-underscore", "se2-underscore",
            "pid-fullwidth-digit", "tau-arabic-digit", "se2-nbsp"])
    def test_underscores_and_non_ascii_rejected(self, tmp_path, field, value):
        # Python's int and float read these; 1_0 used to become profile 10.
        lines = GOLDEN_AGGREGATES.read_text().splitlines()
        fields = lines[3].split(",")
        fields[field] = value
        lines[3] = ",".join(fields)
        path = tmp_path / "agg.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match=f"agg.csv:4: column '[a-z_0-9]+': not an? "):
            read_aggregates_csv(str(path))

    def test_hash_starts_no_comment(self, tmp_path):
        path = tmp_path / "agg.csv"
        path.write_text("profile_id,study_id,tau_hat,se2\n0,1,0.5,0.1#\n0,2,0.5,0.1\n")
        with pytest.raises(InputFormatError, match="agg.csv:2: column 'se2': not a number"):
            read_aggregates_csv(str(path))


def read_trials(path):
    return read_trials_csv([path])


READERS = {
    "aggregates_input.csv": read_aggregates_csv,
    "forest_trials.csv": read_trials,
    "forest_profiles.csv": lambda path: read_profiles_csv(path, ("age", "smoker", "weight")),
    "predictions.csv": read_predictions_csv,
}
CELLS = ["", "nan", "-nan", "inf", "Infinity", "-0", "+1", "007", "1.", ".5", "1e308",
         "5e-324", "1e400", "9223372036854775808", "x", '" 1"', '"1"', "1_0", "0x10", "1d3",
         '0"5', "\xa01.5", "0.5\xa0", "\u20031", "1\u3000"]


@st.composite
def mutated_golden(draw):
    """A golden input file's name and its text with up to two cells replaced, up
    to two blank or whitespace-only lines added, maybe one field quoted around a
    newline, and the line endings and byte-order mark changed."""
    name = draw(st.sampled_from(sorted(READERS)))
    header, *body = (GOLDEN / name).read_text().splitlines()
    rows = [line.split(",") for line in body]
    cell = st.tuples(st.integers(0, len(rows) - 1), st.integers(0, len(rows[0]) - 1))
    for (i, j), value in draw(st.lists(st.tuples(cell, st.sampled_from(CELLS)), max_size=2)):
        rows[i][j] = value
    if draw(st.booleans()):
        i, j = draw(cell)
        rows[i][j] = f'"{rows[i][j]}\n"'
    lines = [",".join(row) for row in rows]
    for at, blank in draw(st.lists(st.tuples(st.integers(0, len(lines)),
                                             st.sampled_from(["", " ", "\t"])), max_size=2)):
        lines.insert(at, blank)
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return name, draw(st.sampled_from(["", "\ufeff"])) + ending.join([header, *lines]) + ending


def read_outcome(read, path):
    """The error message, or the dtype, shape and bytes of every array returned;
    a warning fails the test."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = read(path)
    except InputFormatError as err:
        return str(err)
    arrays = result if isinstance(result, tuple) else [
        value for item in result for value in vars(item).values()]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in map(np.asarray, arrays)]


def row_scan_only(*args, **kwargs):
    raise ValueError("loadtxt disabled")


@pytest.fixture(scope="class")
def mutated_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


AGGREGATES = GOLDEN_AGGREGATES.read_text()
AGGREGATE_LINE, AGGREGATE_ROWS = AGGREGATES.split("\n", 1)
# One quoted field over a line break, 80 kB of UTF-8: the header runs past the
# first bytes decoded to find it, and their end cuts a two-byte character.
LONG_NAME = '"x' + "\u00e9" * 40_000 + '\n"'
# A header whose CR is the last of those bytes and whose LF is the first after them.
CUT_CRLF = "study_id,y,a," + "c" * (2**16 - 14) + "\r\n"
# name: (reader, file bytes, the message less the file name; None for columns)
BYTE_CASES = {
    "utf8-bom": (read_aggregates_csv, b"\xef\xbb\xbf" + AGGREGATES.encode(), None),
    "crlf": (read_aggregates_csv, AGGREGATES.replace("\n", "\r\n").encode(), None),
    "lone-cr": (read_aggregates_csv, AGGREGATES.replace("\n", "\r").encode(), None),
    "non-ascii-header-ascii-body": (
        read_trials, "study_id,y,a,\u00e2ge\n1,1.0,0,0.5\n2,2.0,1,-0.5\n".encode(), None),
    "long-quoted-header": (
        read_trials, f"study_id,y,a,{LONG_NAME}\n1,1.0,0,0.5\n2,2.0,1,-0.5\n".encode(), None),
    "long-quoted-header-bad-row": (
        read_trials, f"study_id,y,a,{LONG_NAME}\n1,1.0,0,0.5\n2,x,1,-0.5\n".encode(),
        ":4: column 'y': not a number: 'x'"),
    "crlf-split-after-header-prefix": (
        read_trials, f"{CUT_CRLF}1,1.0,0,0.5\r\n2,x,1,-0.5\r\n".encode(),
        ":3: column 'y': not a number: 'x'"),
    "blank-lines-only": (read_aggregates_csv, f"{AGGREGATE_LINE}\n\n\r\n\r".encode(),
                         ": no aggregate rows"),
    "nul-byte": (read_aggregates_csv, f"{AGGREGATE_LINE}\n0,1,0.5,0.1\x00\n".encode(),
                 ":2: column 'se2': not a number: '0.1\\x00'"),
    "header-only": (read_aggregates_csv, f"{AGGREGATE_LINE}\n".encode(), ": no aggregate rows"),
    "empty": (read_aggregates_csv, b"", ":1: empty file"),
    "bad-byte-in-header": (read_aggregates_csv,
                           AGGREGATE_LINE.encode() + b"\xc3\n" + AGGREGATE_ROWS.encode(),
                           ":1: not UTF-8: byte 0xc3"),
    "bad-byte-before-bad-header": (
        read_aggregates_csv, b"profile_id,study,tau_hat,se2\n0,1,0.5,0.1\n0,2,\xff,0.1\n",
        ":3: not UTF-8: byte 0xff"),
    "bad-byte-far-in-body": (
        read_aggregates_csv, (AGGREGATES + AGGREGATE_ROWS * 200).encode() + b"0,1,\xe9,1\n",
        f":{AGGREGATES.count(chr(10)) * 201 - 199}: not UTF-8: byte 0xe9"),
}


class TestReaderMatchesRowScan:
    @pytest.mark.slow
    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(case=mutated_golden())
    def test_same_message_or_bit_identical_arrays(self, mutated_dir, case):
        name, text = case
        path = mutated_dir / name
        path.write_bytes(text.encode("utf-8"))
        read = READERS[name]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np, "loadtxt", row_scan_only)
            scanned = read_outcome(read, str(path))
        assert read_outcome(read, str(path)) == scanned

    @pytest.mark.parametrize("case", BYTE_CASES.values(), ids=BYTE_CASES.keys())
    def test_byte_forms(self, tmp_path, case):
        read, data, message = case
        path = tmp_path / "in.csv"
        path.write_bytes(data)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np, "loadtxt", row_scan_only)
            scanned = read_outcome(read, str(path))
        outcome = read_outcome(read, str(path))
        assert outcome == scanned
        if message is None:
            assert isinstance(outcome, list)
        else:
            assert outcome == f"{path}{message}"


def traced_peak(call, *args, **kwargs) -> int:
    """Peak bytes allocated, as tracemalloc counts them, while ``call`` runs."""
    tracemalloc.start()
    try:
        call(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """Reading or writing a 32,000-row aggregates table (1.5 MB) allocates less
    than three times the file at its peak.  When the reader decoded the whole
    file and wrapped the text in a ``StringIO`` twice (four bytes a character
    each), it peaked at 6.0 times the file; when the writer formatted every
    cell before writing, at 7.4 times."""

    @pytest.fixture(scope="class")
    def table(self, tmp_path_factory):
        rng = np.random.default_rng(0)
        columns = (np.repeat(np.arange(2_000), 16), np.tile(np.arange(16), 2_000),
                   rng.normal(size=32_000), rng.gamma(2.0, 0.05, size=32_000))
        path = tmp_path_factory.mktemp("bounded") / "agg.csv"
        write_aggregates_csv(str(path), *columns[:2], tau_hat=columns[2], se2=columns[3])
        return path, columns

    def test_read(self, table):
        path, columns = table
        assert traced_peak(read_aggregates_csv, str(path)) < 3 * path.stat().st_size
        assert all(np.array_equal(a, b) for a, b in zip(read_aggregates_csv(str(path)), columns))

    def test_write(self, table, tmp_path):
        path, (pid, sid, tau, se2) = table
        out = tmp_path / "agg.csv"
        peak = traced_peak(write_aggregates_csv, str(out), pid, sid, tau_hat=tau, se2=se2)
        assert peak < 3 * out.stat().st_size
        assert out.read_bytes() == path.read_bytes()


def prediction_columns():
    """(profile_id, tau_pooled, theta2, lower, upper, k); profile 2 has K = 2."""
    return (np.array([0, 1, 2]), np.array([1.0, 2.0, -1.0]), np.array([0.5, 0.1, 0.0]),
            np.array([-1.0, 0.5, np.nan]), np.array([3.0, 3.5, np.nan]), np.array([10, 10, 2]))


def interval_columns(n):
    """n profiles with intervals center +/- 1 around centers 0, 1, ..., n - 1."""
    center = np.arange(n, dtype=float)
    return np.arange(n), center, center - 1.0, center + 1.0


class TestPredictionsCsv:
    def test_flags(self, tmp_path):
        pid, tau, theta2, lower, upper, k = prediction_columns()
        path = tmp_path / "pred.csv"
        write_predictions_csv(str(path), np.append(pid, 3), np.append(tau, -1.0),
                              np.append(theta2, 0.2), np.append(lower, -3.0),
                              np.append(upper, -0.5), np.append(k, 10))
        flags = [line.split(",")[-1] for line in path.read_text().splitlines()[1:]]
        assert flags == ["crosses_zero", "positive", "", "negative"]

    def test_roundtrip_including_empty_interval(self, tmp_path):
        path = tmp_path / "pred.csv"
        write_predictions_csv(str(path), *prediction_columns())
        assert path.read_text().splitlines()[3] == "2,-1.0,0.0,,,,"
        parsed = read_predictions_csv(str(path))
        _, _, _, lower, upper, k = parsed
        assert np.isnan(lower[2]) and np.isnan(upper[2]) and k[2] == 2
        assert lower[0] == -1.0 and k[0] == 10
        second = tmp_path / "again.csv"
        write_predictions_csv(str(second), *parsed)
        assert path.read_bytes() == second.read_bytes()

    def test_rows_sorted_by_profile_id(self, tmp_path):
        sorted_path, shuffled_path = tmp_path / "sorted.csv", tmp_path / "shuffled.csv"
        columns = prediction_columns()
        write_predictions_csv(str(sorted_path), *columns)
        write_predictions_csv(str(shuffled_path), *(c[[2, 0, 1]] for c in columns))
        assert shuffled_path.read_bytes() == sorted_path.read_bytes()
        lines = sorted_path.read_text().splitlines()
        shuffled_path.write_text("\n".join(lines[:1] + lines[3:0:-1]) + "\n")
        assert read_predictions_csv(str(shuffled_path))[0].tolist() == [0, 1, 2]


class TestSimConfigFile:
    def test_parse_with_defaults_and_comments(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# experiment\nk_studies = 4\nn_per_study = 100\n\n"
            "methods = linear, forest_honest\nmaster_seed = 9\n"
        )
        cfg, options = parse_sim_config(str(path))
        assert cfg.k_studies == 4
        assert cfg.n_per_study == 100
        assert cfg.master_seed == 9
        assert cfg.cate_setting == "linear"  # default
        assert options.methods == ("linear", "forest_honest")
        assert options.alpha == 0.05

    def test_readme_example_parses(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
        assert len(blocks) == 1
        path = tmp_path / "exp.cfg"
        path.write_text(blocks[0], encoding="utf-8")
        cfg, options = parse_sim_config(str(path))
        assert (cfg.k_studies, cfg.cate_setting, cfg.master_seed) == (10, "linear", 3)
        assert cfg.effect_distribution == "normal"
        assert options.methods == ("linear", "forest_honest")
        assert options.alpha == 0.05

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("k_studeys = 4\n")
        with pytest.raises(ConfigurationError, match="k_studeys"):
            parse_sim_config(str(path))

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("k_studies = 4\nk_studies = 5\n")
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_sim_config(str(path))

    def test_bad_value_names_key(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("n_replications = soon\n")
        with pytest.raises(ConfigurationError, match="n_replications"):
            parse_sim_config(str(path))

    @pytest.mark.parametrize("line", [
        "k_studies = 1_0", "forest_trees = \u0662\u0660", "alpha = 0.0_5", "n_replications = soon",
    ], ids=["underscore-int", "arabic-indic-digits", "underscore-float", "word"])
    def test_bad_number_named_with_its_line(self, tmp_path, line):
        # Python's int and float read 1_0 as 10 and Arabic-Indic digits as
        # digits; the CSV readers reject both, and so does the config reader.
        path = tmp_path / "exp.cfg"
        path.write_text(f"# experiment\nmaster_seed = 1\n{line}\n", encoding="utf-8")
        key = line.partition("=")[0].strip()
        with pytest.raises(ConfigurationError, match=rf"exp\.cfg:3: key '{key}': bad value"):
            parse_sim_config(str(path))

    def test_unknown_method_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("methods = linear, quantum\n")
        with pytest.raises(ConfigurationError, match="quantum"):
            parse_sim_config(str(path))


class TestSvg:
    def test_prediction_intervals_segment_count(self):
        svg = prediction_intervals_svg(*interval_columns(7))
        assert svg.count('class="interval"') == 7
        assert svg.count('class="zero-line"') == 1
        assert svg.startswith("<?xml")

    def test_prediction_intervals_deterministic(self):
        columns = interval_columns(5)
        assert prediction_intervals_svg(*columns) == prediction_intervals_svg(*columns)
        # Ordered by the point estimate, not by the order of the input.
        shuffled = [c[[3, 0, 4, 1, 2]] for c in columns]
        assert prediction_intervals_svg(*shuffled) == prediction_intervals_svg(*columns)

    def test_digest_comment_embedded(self):
        svg = prediction_intervals_svg(*interval_columns(1), digest="abc123")
        assert "<!-- manifest:abc123 -->" in svg

    def test_compare_intervals_segments(self):
        studies = [(s, s - 1.0, float(s), s + 1.0) for s in (1, 2, 3)]
        per_profile = [(0, studies, (-0.5, 1.5, 3.5)), (4, studies, (0.0, 2.0, 4.0))]
        svg = compare_intervals_svg(per_profile)
        assert svg.count('class="study-ci"') == 6
        assert svg.count('class="target-pi"') == 2

    def test_prediction_interval_spans_study_midpoints(self):
        # Study intervals 1 +/- 1, 2 +/- 1, 3 +/- 1: the pooled prediction
        # interval at K = 3 (t_1 quantile) must span all three midpoints.
        se2 = (1.0 / 1.96) ** 2
        pooled = pool_profiles(np.array([[1.0], [2.0], [3.0]]), np.full((3, 1), se2), 0.05)
        center, half = float(pooled.tau_pooled[0]), float(pooled.half_width[0])
        lower, upper = center - half, center + half
        assert lower < 1.0 and upper > 3.0
        studies = [(s, s - 1.0, float(s), s + 1.0) for s in (1, 2, 3)]
        svg = compare_intervals_svg([(0, studies, (lower, center, upper))])
        assert svg.count('class="study-ci"') == 3
        assert svg.count('class="target-pi"') == 1

    def test_boxplot_one_box_per_method(self):
        rng = np.random.default_rng(0)
        tables = [
            MetricsTable(method=m, profile_ids=tuple(range(50)),
                         coverage=rng.uniform(0.85, 1.0, 50),
                         mean_length=rng.uniform(1, 2, 50),
                         bias=rng.normal(0, 0.1, 50),
                         n_effective_replications=100)
            for m in ("linear", "forest_honest")
        ]
        svg = coverage_boxplot_svg(tables)
        assert svg.count('class="box"') == 2
        assert "linear" in svg and "forest_honest" in svg
