"""Import layering of ``src/repro``, pinned over the ``ast`` imports.

A package imports only packages on lower rows; ``analysis``,
``workloads``, ``baselines``, ``cli.py`` and ``api.py`` sit on top of
the system and nothing below imports them.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

LAYERS = (("obs",), ("crypto",), ("core",), ("graph", "pubsub"),
          ("monitor",), ("wallet",), ("net",), ("discovery", "service"),
          ("disco",), ("analysis", "workloads", "baselines", "cli", "api"))
RANK = {name: rank for rank, row in enumerate(LAYERS) for name in row}
TOP = len(LAYERS) - 1

# Exceptions: none.  A new upward import fails the test.
ALLOWED = set()


def _imported_packages(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:       # relative imports stay inside their own package
            continue
        for parts in (name.split(".") for name in names):
            if parts[0] == "repro" and len(parts) > 1:
                yield parts[1]


def test_packages_import_only_lower_layers():
    upward = set()
    for path in SRC.glob("*/**/*.py"):    # cli.py and api.py are on top
        rel = path.relative_to(SRC)
        package = rel.parts[0]
        if RANK[package] == TOP:
            continue
        for target in _imported_packages(ast.parse(path.read_text())):
            if target != package and RANK[target] >= RANK[package]:
                upward.add((rel.as_posix(), target))
    assert upward == ALLOWED
