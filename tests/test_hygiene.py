"""Source hygiene: no module in ``repro`` imports a name it never uses.

An unused import is dead weight a reader has to rule out.  Checked
with :mod:`ast` (no linter is a dependency): every module-level
``import``/``from … import`` binding must be referenced somewhere in
its module.  Package ``__init__`` files, ``__future__`` imports and
names listed in ``__all__`` are re-exports by design and are skipped.
"""

import ast
import os

import pytest

SRC_ROOT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src", "repro")


def _modules():
    for dirpath, _, files in os.walk(SRC_ROOT):
        for name in sorted(files):
            if name.endswith(".py") and name != "__init__.py":
                path = os.path.join(dirpath, name)
                yield os.path.relpath(path, SRC_ROOT)


def unused_imports(source: str):
    """Module-level imported names never referenced in ``source``."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


def test_detector_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "import xml.dom\n"
              "from typing import List, Optional\n"
              "from a import b as c\n"
              "__all__ = ['sys']\n"
              "def f(x: List[int]) -> None:\n"
              "    xml.dom.parse(x)\n")
    assert unused_imports(source) == [(2, "os"), (4, "Optional"),
                                      (5, "c")]


@pytest.mark.parametrize("module", sorted(_modules()))
def test_no_unused_imports(module):
    with open(os.path.join(SRC_ROOT, module), encoding="utf-8") as fh:
        unused = unused_imports(fh.read())
    assert not unused, f"{module}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)
