"""Relations that hold bit for bit from input to output, through the CLI.

Goldens pin bytes, but a deliberate change to the numerics regenerates them;
a relation says whether the new bytes still agree with each other.  Each
test runs ``cli.main`` in-process on the golden inputs, changes the input in
a way the output must not see, or must see only as an exact power-of-two
scaling, and compares the output files' bytes or numbers.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catemeta.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(args):
    assert main([str(a) for a in args]) == 0


def golden_rows_in(tmp_path, name, order):
    """A copy of golden file ``name`` with its data rows in ``order``, a
    permutation of their indices."""
    header, *rows = (GOLDEN / name).read_text().splitlines()
    path = tmp_path / f"shuffled_{name}"
    path.write_text("\n".join([header, *(rows[i] for i in order)]) + "\n")
    return path


def n_rows(name):
    return len((GOLDEN / name).read_text().splitlines()) - 1


STAGE1 = pytest.mark.parametrize("stage1", [
    ["linear"],
    ["forest", "--trees", 200],
    ["bart", "--trees", 20, "--burn", 50, "--draws", 50],
], ids=["linear", "forest", "bart"])
COVARIATES = ("age", "smoker", "weight")
# Every scaled outcome, covariate and se2 of the golden inputs stays a
# normal float.
POWERS = st.integers(-300, 300)


def golden_scaled_in(directory, name, columns, k):
    """A copy of golden file ``name`` with ``columns`` times 2**k, each cell
    written as the repr of its exact product."""
    header, *rows = (GOLDEN / name).read_text().splitlines()
    scaled = [header.split(",").index(c) for c in columns]
    lines = [header]
    for row in rows:
        cells = row.split(",")
        for j in scaled:
            cells[j] = repr(float(np.ldexp(float(cells[j]), k)))
        lines.append(",".join(cells))
    path = Path(directory) / f"scaled_{name}"
    path.write_text("\n".join(lines) + "\n")
    return path


def aggregates(directory, stage1, trials=GOLDEN / "forest_trials.csv",
               profiles=GOLDEN / "forest_profiles.csv"):
    """The bytes of ``aggregates.csv`` from ``estimate`` at seed 7."""
    out = Path(directory) / "out"
    run(["estimate", "--trials", trials, "--profiles", profiles, "--stage1", *stage1,
         "--seed", 7, "--out-dir", out])
    return (out / "aggregates.csv").read_bytes()


def estimates(table):
    """``(tau_hat, se2)`` columns of an ``aggregates.csv`` table's bytes."""
    rows = [line.split(",") for line in table.decode().splitlines()[1:]]
    return (np.array([float(row[c]) for row in rows]) for c in (2, 3))


@pytest.fixture(scope="module")
def unscaled(tmp_path_factory):
    """The ``aggregates.csv`` bytes of the golden inputs, one run per learner."""
    tables = {}

    def table(stage1):
        key = tuple(stage1)
        if key not in tables:
            tables[key] = aggregates(tmp_path_factory.mktemp("unscaled"), stage1)
        return tables[key]
    return table


@STAGE1
@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(k=POWERS)
def test_outcomes_times_a_power_of_two_scale_the_estimates_exactly(unscaled, stage1, k):
    want_tau, want_se2 = estimates(unscaled(stage1))
    with tempfile.TemporaryDirectory() as directory:
        trials = golden_scaled_in(directory, "forest_trials.csv", ["y"], k)
        tau, se2 = estimates(aggregates(directory, stage1, trials))
    assert np.array_equal(tau, np.ldexp(want_tau, k))
    assert np.array_equal(se2, np.ldexp(want_se2, 2 * k))


def predictions(directory, aggregates_csv):
    """``predict``'s ``predictions.csv`` from the aggregates at a path: the
    columns tau_pooled, theta2, lower and upper as floats, and df and
    flag_nonoverlap as text."""
    out = Path(directory) / "predicted"
    run(["predict", "--aggregates", aggregates_csv, "--out-dir", out])
    rows = [line.split(",") for line in (out / "predictions.csv").read_text().splitlines()[1:]]
    return ({name: np.array([float(row[c]) for row in rows])
             for c, name in enumerate(("tau_pooled", "theta2", "lower", "upper"), start=1)},
            [row[5:] for row in rows])


@STAGE1
@settings(derandomize=True, max_examples=2, deadline=None, database=None)
@given(k=POWERS)
# At k = 300 every learner's largest theta2 is past 1e154, so its square,
# and the square of its weight, leave the float range.
@example(k=300)
@example(k=-300)
def test_outcomes_times_a_power_of_two_scale_the_predictions_exactly(unscaled, stage1, k):
    with tempfile.TemporaryDirectory() as directory:
        aggregates_csv = Path(directory) / "aggregates.csv"
        aggregates_csv.write_bytes(unscaled(stage1))
        want, want_text = predictions(directory, aggregates_csv)
        trials = golden_scaled_in(directory, "forest_trials.csv", ["y"], k)
        aggregates(directory, stage1, trials)
        got, got_text = predictions(directory, Path(directory) / "out" / "aggregates.csv")
    if k == 300:
        assert got["theta2"].max() > 1e154
    assert got_text == want_text  # df and the flag
    for name, power in (("tau_pooled", k), ("lower", k), ("upper", k), ("theta2", 2 * k)):
        assert np.array_equal(got[name], np.ldexp(want[name], power)), name


@STAGE1
@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(k=POWERS)
def test_covariates_times_a_power_of_two_leave_the_aggregates(unscaled, stage1, k):
    with tempfile.TemporaryDirectory() as directory:
        trials = golden_scaled_in(directory, "forest_trials.csv", COVARIATES, k)
        profiles = golden_scaled_in(directory, "forest_profiles.csv", COVARIATES, k)
        assert aggregates(directory, stage1, trials, profiles) == unscaled(stage1)


@STAGE1
def test_profile_row_order_leaves_the_aggregates(tmp_path, stage1):
    reversed_profiles = golden_rows_in(tmp_path, "forest_profiles.csv",
                                       reversed(range(n_rows("forest_profiles.csv"))))
    tables = []
    for profiles in (GOLDEN / "forest_profiles.csv", reversed_profiles):
        out = tmp_path / profiles.stem
        run(["estimate", "--trials", GOLDEN / "forest_trials.csv", "--profiles", profiles,
             "--stage1", *stage1, "--seed", 7, "--out-dir", out])
        tables.append((out / "aggregates.csv").read_bytes())
    assert tables[0] == tables[1]


def golden_trials():
    """The golden trials' header and its rows, the rows of each study in
    file order by id."""
    header, *rows = (GOLDEN / "forest_trials.csv").read_text().splitlines()
    studies = {}
    for row in rows:
        studies.setdefault(int(row.split(",", 1)[0]), []).append(row)
    return header, rows, dict(sorted(studies.items()))


@STAGE1
@settings(derandomize=True, max_examples=3, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       cuts=st.lists(st.integers(1, n_rows("forest_trials.csv") - 1), max_size=2, unique=True))
def test_trial_rows_across_studies_and_files_leave_the_aggregates(unscaled, stage1, seed, cuts):
    # The trial rows in a random order that keeps each study's rows in
    # their own order, cut into one to three files.  A study's rows are a
    # sample in that order (the forest draws its subsamples by position),
    # so only the order across studies and files may change.
    header, _, studies = golden_trials()
    owners = np.random.default_rng(seed).permutation(
        np.repeat(list(studies), [len(rows) for rows in studies.values()]))
    nexts = {sid: iter(rows) for sid, rows in studies.items()}
    shuffled = [next(nexts[sid]) for sid in owners.tolist()]
    with tempfile.TemporaryDirectory() as directory:
        trials = []
        for f, (start, stop) in enumerate(zip([0, *sorted(cuts)], [*sorted(cuts), len(shuffled)])):
            trials.append(Path(directory) / f"trials_{f}.csv")
            trials[-1].write_text("\n".join([header, *shuffled[start:stop]]) + "\n")
        out = Path(directory) / "out"
        run(["estimate", "--trials", *trials, "--profiles", GOLDEN / "forest_profiles.csv",
             "--stage1", *stage1, "--seed", 7, "--out-dir", out])
        assert (out / "aggregates.csv").read_bytes() == unscaled(stage1)


@st.composite
def relabellings(draw):
    """New ids for the golden trials' studies, in the old ids' order, that
    keep one drawn study's id: any 64-bit ids below it before it and above
    it after it."""
    ids = list(golden_trials()[2])
    kept = draw(st.integers(0, len(ids) - 1))
    below = draw(st.lists(st.integers(-2**63, ids[kept] - 1), min_size=kept, max_size=kept,
                          unique=True))
    above = draw(st.lists(st.integers(ids[kept] + 1, 2**63 - 1), min_size=len(ids) - 1 - kept,
                          max_size=len(ids) - 1 - kept, unique=True))
    return dict(zip(ids, [*sorted(below), ids[kept], *sorted(above)]))


@STAGE1
@settings(derandomize=True, max_examples=3, deadline=None, database=None)
@given(relabel=relabellings())
# A negative id used to stop the forest and BART with a traceback: the seed
# path of a study took its id, and a path takes integers in [0, 2**64).
@example(relabel={1: -2**63, 2: -1, 3: 3, 4: 2**63 - 1})
def test_relabelled_study_ids_leave_the_other_columns(unscaled, stage1, relabel):
    # The linear learner never reads an id, so every row keeps its bytes
    # but the study_id cell.  The forest and BART seed each study from its
    # id, so only the rows of a study that keeps its id keep their bytes.
    header, rows, _ = golden_trials()
    want = [line.split(",") for line in unscaled(stage1).decode().splitlines()]
    with tempfile.TemporaryDirectory() as directory:
        trials = Path(directory) / "relabelled.csv"
        trials.write_text("\n".join([header, *(f"{relabel[int(sid)]},{rest}" for sid, rest in
                                               (row.split(",", 1) for row in rows))]) + "\n")
        got = [line.split(",") for line in aggregates(directory, stage1, trials).decode()
               .splitlines()]
    assert got[0] == want[0] and len(got) == len(want)
    for new, old in zip(got[1:], want[1:]):
        assert new[1] == str(relabel[int(old[1])])
        if stage1 == ["linear"] or new[1] == old[1]:
            assert new[:1] + new[2:] == old[:1] + old[2:]


def generated_aggregates(rng, n_profiles):
    """Aggregate rows in key order: each profile has K from 2 to 30 studies;
    every tenth has equal estimates and every tenth, from the second, has
    estimates so close that theta2 is 0."""
    rows = []
    for pid in range(n_profiles):
        k = int(rng.integers(2, 31))
        mu, se2 = rng.normal(), rng.uniform(0.01, 0.3, k)
        if pid % 10 == 0:
            tau = np.full(k, mu)
        elif pid % 10 == 1:
            se2 = rng.uniform(0.5, 1.0, k)
            tau = mu + 1e-3 * rng.standard_normal(k)
        else:
            tau = mu + np.sqrt(rng.uniform(0.01, 0.5) + se2) * rng.standard_normal(k)
        studies = np.sort(rng.choice(np.arange(1, 41), size=k, replace=False))
        rows += [f"{pid},{s},{t!r},{v!r}" for s, t, v in zip(studies.tolist(), tau.tolist(),
                                                               se2.tolist())]
    return rows


def test_aggregate_row_order_leaves_the_predictions(tmp_path):
    order = np.random.default_rng(31).permutation(n_rows("aggregates_input.csv"))
    tables = []
    for aggregates in (GOLDEN / "aggregates_input.csv",
                       golden_rows_in(tmp_path, "aggregates_input.csv", order)):
        out = tmp_path / aggregates.stem
        run(["predict", "--aggregates", aggregates, "--out-dir", out])
        tables.append((out / "predictions.csv").read_bytes())
    assert tables[0] == tables[1]
    # 700 profiles span several Stage-2 chunks (at most 512 profiles each).
    rng = np.random.default_rng(32)
    rows = generated_aggregates(rng, 700)
    tables = []
    for name, arranged in (("in_order", rows), ("shuffled", [rows[i] for i in
                                                             rng.permutation(len(rows))])):
        aggregates = tmp_path / f"{name}.csv"
        aggregates.write_text("\n".join(["profile_id,study_id,tau_hat,se2", *arranged]) + "\n")
        run(["predict", "--aggregates", aggregates, "--out-dir", tmp_path / name])
        tables.append((tmp_path / name / "predictions.csv").read_bytes())
    assert tables[0] == tables[1]
    predictions = [line.split(",") for line in tables[0].decode().splitlines()[1:]]
    assert len(predictions) == 700
    assert any(row[3] == "" for row in predictions)  # K = 2
    assert any(row[2] == "0.0" for row in predictions)
