"""No module under ``src/`` or ``tests/`` imports a name it never uses.

An imported name is used when the module loads it anywhere (an ``ast.Name``,
which is also the root of every attribute chain) or lists it in its
``__all__``.  An import whose line, or whose name's line, carries
``# noqa: F401`` is exempt: such a name is bound for a caller outside the
module.  ``from __future__`` imports bind no name.  This needs only ``ast``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOQA = re.compile(r"#\s*noqa:[^#]*\bF401\b")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if any(_NOQA.search(lines[i - 1]) for i in (node.lineno, alias.lineno)):
                continue
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append((alias.lineno, name))
    return unused


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
