"""The benchmark's bindings into catemeta still resolve.

``perfbench/tracing.py`` wraps catemeta functions by module and attribute
name, and ``perfbench/workloads.py`` imports names such as
``catemeta.meta.reml_theta2_batch``.  Deleting or renaming one of them breaks
``--trace 1`` runs or the workloads' import, and no other test would notice.
Entering a ``Tracer`` looks every target up and leaving it restores them;
nothing is run and no process is started.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves_and_is_restored():
    sys.path.insert(0, str(PERFBENCH))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))
    targets = [(importlib.import_module(module), attr) for module, attr, _, _ in tracing.TARGETS]
    originals = [getattr(module, attr) for module, attr in targets]
    with tracing.Tracer(calibrate=False):
        assert all(getattr(module, attr) is not original
                   for (module, attr), original in zip(targets, originals))
    assert [getattr(module, attr) for module, attr in targets] == originals


def test_workload_imports_resolve():
    from catemeta import cli, simulate  # noqa: F401
    from catemeta.forest import ForestParams  # noqa: F401
    from catemeta.meta import reml_theta2_batch  # noqa: F401
    from catemeta.simulate import COVARIATE_NAMES, SimConfig  # noqa: F401
