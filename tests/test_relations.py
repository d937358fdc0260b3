"""Relations that hold bit for bit from input to output, through the CLI.

Goldens pin bytes, but a deliberate change to the numerics regenerates them;
a relation says whether the new bytes still agree with each other.  Each
test runs ``cli.main`` in-process on the golden inputs, changes the input in
a way the output must not see, and compares the output files' bytes.
"""

from pathlib import Path

import numpy as np
import pytest

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


@pytest.mark.parametrize("stage1", [
    ["linear"],
    ["forest", "--trees", 200],
    ["bart", "--trees", 20, "--burn", 50, "--draws", 50],
], ids=["linear", "forest", "bart"])
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
