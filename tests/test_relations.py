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
from hypothesis import given, settings
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


def test_aggregate_row_order_leaves_the_predictions(tmp_path):
    order = np.random.default_rng(31).permutation(n_rows("aggregates_input.csv"))
    tables = []
    for aggregates in (GOLDEN / "aggregates_input.csv",
                       golden_rows_in(tmp_path, "aggregates_input.csv", order)):
        out = tmp_path / aggregates.stem
        run(["predict", "--aggregates", aggregates, "--out-dir", out])
        tables.append((out / "predictions.csv").read_bytes())
    assert tables[0] == tables[1]
