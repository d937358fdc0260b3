"""CSV schemas, config parsing, and deterministic SVG emission."""

import re
from pathlib import Path

import numpy as np
import pytest

from catemeta import ConfigurationError, InputFormatError, MetricsTable, StudyCateEstimate
from catemeta.io import (
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
        profiles = read_profiles_csv(str(path), ("age", "weight"))
        assert [p.profile_id for p in profiles] == [0, 3]
        assert profiles[1].x[0] == 1.5


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


GOLDEN_AGGREGATES = Path(__file__).parent / "golden" / "aggregates_input.csv"


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
        from catemeta import MetaInput, pool_cate, prediction_interval, reml_theta2

        se2 = (1.0 / 1.96) ** 2
        mi = MetaInput(0, tuple(
            StudyCateEstimate(s, 0, float(s), se2) for s in (1, 2, 3)
        ))
        pi = prediction_interval(pool_cate(mi, reml_theta2(mi)), 0.05, 3)
        assert pi.lower < 1.0 and pi.upper > 3.0
        studies = [(s, s - 1.0, float(s), s + 1.0) for s in (1, 2, 3)]
        svg = compare_intervals_svg([(0, studies, (pi.lower, pi.center, pi.upper))])
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
