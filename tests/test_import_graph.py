"""Import graph: only BART loads SciPy, and then only ``scipy.special``.

Every command and replication that runs no BART chain loads numpy and no
``scipy`` module at all: the t and normal quantiles are catemeta's own, and
``scipy.special`` (about 0.36 s of a 0.61 s ``import catemeta.cli``) is
imported inside ``bart._chi2_quantile``.  A BART fit may load
``scipy.special`` but never ``scipy.stats`` (about 0.8 s and 40 MB in every
process, scipy 1.17.1 on a 2-vCPU host) or ``scipy.linalg`` (about 0.07 s
and 5 MB).  A module that pulls one of them in again would undo the
cold-start budget without any test output changing, so each check runs in a
fresh process and compares module sets, not times.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

WITHOUT_BART = """
import sys
import tempfile

import numpy as np

from catemeta import (ForestParams, SimConfig, SingularDesignError, TrialDataset,
                      fit_interaction_ols, run_experiment)
from catemeta.cli import main
from catemeta.simulate import gen_study

golden = sys.argv[1]
trials = ["--trials", f"{golden}/forest_trials.csv", "--profiles", f"{golden}/forest_profiles.csv"]
with tempfile.TemporaryDirectory() as out:
    for args in (
        ["predict", "--aggregates", f"{golden}/aggregates_input.csv", "--svg"],
        ["estimate", *trials, "--stage1", "linear"],
        ["estimate", *trials, "--stage1", "forest", "--trees", "4", "--bag-size", "2"],
        ["compare-intervals", "--aggregates", f"{golden}/aggregates_input.csv",
         "--predictions", f"{golden}/predictions.csv", "--profile", "0,3"],
    ):
        if main([*args, "--out-dir", f"{out}/{args[0]}{len(args)}"]) != 0:
            sys.exit(f"exit status != 0: {args}")

config = SimConfig(k_studies=3, n_per_study=120, n_replications=1, master_seed=1)
for method in ("linear", "forest_honest", "forest_adaptive", "oracle"):
    run_experiment(config, method, forest_params=ForestParams(n_trees=4, bag_size=2))
data = gen_study(config, 0, 1)
twin = TrialDataset(1, data.y, data.a, np.column_stack([data.x[:, :1]] * 2), ("u", "u_copy"))
try:
    fit_interaction_ols(twin)
    sys.exit("the design with a duplicated column was not singular")
except SingularDesignError:
    pass
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
if loaded:
    print("loaded:", ", ".join(loaded))
    sys.exit(1)
"""

WITH_BART = """
import sys

from catemeta import BartParams, SimConfig, fit_bart_slearner, run_experiment
from catemeta.simulate import gen_study

config = SimConfig(k_studies=3, n_per_study=120, n_replications=1, master_seed=1)
run_experiment(config, "bart", bart_params=BartParams(n_trees=3, n_burn=2, n_draws=4))
data = gen_study(config, 0, 1)
fit_bart_slearner(data, data.x[:1], BartParams(n_trees=2, n_burn=2, n_draws=2))
loaded = sorted(m for m in sys.modules
                if ".".join(m.split(".")[:2]) in ("scipy.stats", "scipy.linalg"))
if loaded:
    print("loaded:", ", ".join(loaded))
    sys.exit(1)
if "scipy.special" not in sys.modules:
    sys.exit("the BART sigma prior did not load scipy.special")
"""


def _run(script: str):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script, str(GOLDEN)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


def test_no_scipy_module_without_bart():
    _run(WITHOUT_BART)


def test_scipy_stats_never_imported():
    _run(WITH_BART)
