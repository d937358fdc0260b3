"""No module under ``src/`` or ``tests/`` imports a name it never uses.

An imported name is used when the module loads it anywhere (an ``ast.Name``,
which is also the root of every attribute chain) or lists it in its
``__all__``.  An import whose line, or whose name's line, carries
``# noqa: F401`` is exempt: such a name is bound for a caller outside the
module.  Under ``src/`` that caller can only be the benchmark's tracer, so an
exempt name a module never uses must be one that ``TARGETS`` in
``perfbench/tracing.py`` wraps in that module; the list is read, not run.
``from __future__`` imports bind no name.  This needs only ``ast``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOQA = re.compile(r"#\s*noqa:[^#]*\bF401\b")


def imported_names(source: str) -> list[tuple[int, str, bool, bool]]:
    """(line, name, exempt, used) of each name that ``source`` imports."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    names = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            exempt = any(_NOQA.search(lines[i - 1]) for i in (node.lineno, alias.lineno))
            name = alias.asname or alias.name.split(".")[0]
            names.append((alias.lineno, name, exempt, name in used))
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that ``source`` never uses."""
    return [(line, name) for line, name, exempt, used in imported_names(source)
            if not (exempt or used)]


def traced_attributes(source: str) -> set[tuple[str, str]]:
    """(module, attribute) of each entry of ``TARGETS`` in ``source``."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)):
            return {(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts}
    raise AssertionError("no TARGETS assignment")


def untraced_exempt_imports(module: str, source: str, traced) -> list[tuple[int, str]]:
    """(line, name) of each exempt import of ``module`` that it never uses
    and that no ``traced`` (module, attribute) pair names."""
    return [(line, name) for line, name, exempt, used in imported_names(source)
            if exempt and not used and (module, name) not in traced]


def test_no_module_imports_a_name_it_never_uses():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_check_finds_an_orphaned_import_and_honours_the_exemptions():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from dataclasses import dataclass, field, replace\n"
        "from json import dumps  # noqa: F401\n"
        "from json import (  # noqa: F401\n"
        "    loads,\n"
        ")\n"
        "from math import (\n"
        "    pi,\n"
        "    tau,  # noqa: F401\n"
        "    e,\n"
        ")\n"
        "import numpy as np\n"
        "__all__ = ['field']\n"
        "x = dataclass, os.path.join, np.zeros, e\n"
    )
    assert unused_imports(source) == [(3, "replace"), (9, "pi")]


def test_every_exempt_src_import_is_used_or_traced():
    traced = traced_attributes((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    found = []
    for path in sorted(ROOT.glob("src/**/*.py")):
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        found += [f"{path.relative_to(ROOT)}:{line}: {name}" for line, name in
                  untraced_exempt_imports(module, path.read_text(encoding="utf-8"), traced)]
    assert not found, "bound for no caller (unused and not traced):\n" + "\n".join(found)


def test_check_finds_an_exempt_import_that_nothing_traces():
    tracing = (
        "import os\n"
        "TARGETS = (\n"
        "    ('pkg.mod', 'fit', 'mod.fit', None),\n"
        "    ('pkg.other', 'stale', 'other.stale', os.getcwd),\n"
        ")\n"
    )
    source = (
        "from .kernel import fit, stale, run  # noqa: F401\n"
        "from .io import (  # noqa: F401\n"
        "    read,\n"
        ")\n"
        "x = run\n"
    )
    traced = traced_attributes(tracing)
    assert traced == {("pkg.mod", "fit"), ("pkg.other", "stale")}
    assert untraced_exempt_imports("pkg.mod", source, traced) == [(1, "stale"), (3, "read")]
