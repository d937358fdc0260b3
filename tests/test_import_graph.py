"""Import graph: catemeta loads numpy and scipy.special, never scipy.stats or
scipy.linalg.

Importing ``scipy.stats`` takes about 0.8 s and 40 MB in every process (scipy
1.17.1 on a 2-vCPU host), and ``scipy.linalg`` about 0.07 s and 5 MB, so a
module that pulls one in again would undo the cold-start budget without any
test output changing.  The check compares module sets, not times.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys

import numpy as np

import catemeta
import catemeta.cli
import catemeta.simulate
from catemeta import (BartParams, ForestParams, SimConfig, SingularDesignError, TrialDataset,
                      fit_bart_slearner, fit_interaction_ols, run_experiment)
from catemeta.simulate import STAGE1_METHODS, gen_study

config = SimConfig(k_studies=3, n_per_study=120, n_replications=1, master_seed=1)
for method in STAGE1_METHODS:
    run_experiment(config, method, forest_params=ForestParams(n_trees=4, bag_size=2),
                   bart_params=BartParams(n_trees=3, n_burn=2, n_draws=4))
data = gen_study(config, 0, 1)
fit_bart_slearner(data, data.x[:1], BartParams(n_trees=2, n_burn=2, n_draws=2))
twin = TrialDataset(1, data.y, data.a, np.column_stack([data.x[:, :1]] * 2), ("u", "u_copy"))
try:
    fit_interaction_ols(twin)
    sys.exit("the design with a duplicated column was not singular")
except SingularDesignError:
    pass
loaded = sorted(m for m in sys.modules
                if ".".join(m.split(".")[:2]) in ("scipy.stats", "scipy.linalg"))
if loaded:
    print("loaded:", ", ".join(loaded))
    sys.exit(1)
"""


def test_scipy_stats_never_imported():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
