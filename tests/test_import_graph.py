"""Import graph: catemeta runs on numpy alone, and one process needs no pool.

No command or replication loads any ``scipy`` module: the t and normal
quantiles are catemeta's own, and the BART sigma prior is fixed at nu = 3,
q = 0.90, so its chi-square quantile is a constant.  At scipy 1.17.1 on a
2-vCPU host, ``scipy.special`` took about 0.36 s of a 0.61 s
``import catemeta.cli``, and ``scipy.stats`` about 0.8 s and 40 MB.  A module
that pulls SciPy in again would undo that cold-start budget without any
test output changing, so one fresh process runs every command, first those
that run no BART chain and then the BART ones, and the tests compare the
module sets it reports after each half, not times.

Likewise, only ``--threads > 1`` starts a process pool, and
``concurrent.futures.process`` loads ``multiprocessing``, ``pickle``,
``socket`` and about 25 more modules: 15-22 ms of every start-up on a 2-vCPU
host.  No command in the first half runs a pool, so none of them is loaded
there.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

EVERY_COMMAND = """
import json
import pathlib
import sys
import tempfile

import numpy as np

from catemeta import (BartParams, ForestParams, SimConfig, SingularDesignError,
                      fit_bart_slearner, run_experiment)
from catemeta.cli import main
from catemeta.linear import linear_cates_arrays
from catemeta.simulate import gen_study


def modules(package):
    return sorted(m for m in sys.modules if m.split(".")[0] == package)


def run(commands, out):
    for args in commands:
        if main([*args, "--out-dir", f"{out}/{args[0]}{len(args)}"]) != 0:
            sys.exit(f"exit status != 0: {args}")


golden = sys.argv[1]
trials = ["--trials", f"{golden}/forest_trials.csv", "--profiles", f"{golden}/forest_profiles.csv"]
config = SimConfig(k_studies=3, n_per_study=120, n_replications=1, master_seed=1)
data = gen_study(config, 0, 1)
with tempfile.TemporaryDirectory() as out:
    run((
        ["predict", "--aggregates", f"{golden}/aggregates_input.csv", "--svg"],
        ["estimate", *trials, "--stage1", "linear"],
        ["estimate", *trials, "--stage1", "forest", "--trees", "4", "--bag-size", "2"],
        ["compare-intervals", "--aggregates", f"{golden}/aggregates_input.csv",
         "--predictions", f"{golden}/predictions.csv", "--profile", "0,3"],
    ), out)
    for method in ("linear", "forest_honest", "forest_adaptive", "oracle"):
        run_experiment(config, method, forest_params=ForestParams(n_trees=4, bag_size=2))
    twin = np.column_stack([data.x[:, :1]] * 2)
    try:
        linear_cates_arrays(twin[None], data.a[None], data.y[None], np.zeros((1, 2)),
                            ("u", "u_copy"), (1,))
        sys.exit("the design with a duplicated column was not singular")
    except SingularDesignError:
        pass
    without_bart = modules("scipy")
    pool_modules = modules("multiprocessing")

    cfg = pathlib.Path(out, "exp.cfg")
    cfg.write_text("k_studies = 3\\nn_per_study = 60\\nn_replications = 1\\n"
                   "methods = linear, bart\\nbart_trees = 3\\nbart_burn = 2\\n"
                   "bart_draws = 4\\n")
    run((
        ["estimate", *trials, "--stage1", "bart", "--trees", "3", "--burn", "2",
         "--draws", "4", "--interval", "quantile"],
        ["simulate", "--config", str(cfg)],
    ), out)
    BartParams()  # the defaults, which run_experiment builds when given none
    run_experiment(config, "bart", bart_params=BartParams(n_trees=3, n_burn=2, n_draws=4))
    fit_bart_slearner(data, data.x[:1], BartParams(n_trees=2, n_burn=2, n_draws=2))
print(json.dumps({"without_bart": without_bart, "pool_modules": pool_modules,
                  "every_command": modules("scipy")}))
"""


@pytest.fixture(scope="module")
def loaded():
    """The ``scipy`` modules loaded after the non-BART half and after every command,
    and the ``multiprocessing`` modules loaded after the non-BART half."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", EVERY_COMMAND, str(GOLDEN)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_no_scipy_module_without_bart(loaded):
    assert loaded["without_bart"] == []


def test_scipy_stats_never_imported(loaded):
    heavy = [m for m in loaded["every_command"]
             if ".".join(m.split(".")[:2]) in ("scipy.stats", "scipy.linalg")]
    assert heavy == []


def test_no_scipy_module_loaded(loaded):
    assert loaded["every_command"] == []


def test_no_multiprocessing_module_without_a_pool(loaded):
    assert loaded["pool_modules"] == []


def test_linear_harness_loads_no_numpy_ma():
    # np.unique loads numpy.ma on its first call, about 18 ms of a process;
    # Stage 2 counts its distinct K with np.bincount instead, so a linear
    # replication, which sorts nothing else, loads it nowhere.
    code = ("import sys\n"
            "from catemeta import SimConfig, run_experiment\n"
            "run_experiment(SimConfig(k_studies=3, n_per_study=120, n_replications=2,"
            " master_seed=1), 'linear')\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
