"""Every imported name is read somewhere in its module.

An ``ast`` scan of the package, the tests and the demos: a name bound by
``import`` or ``from ... import`` that the module never loads is dead
weight.  Names listed in a module's ``__all__`` count as read, since
re-exporting them is their use; ``from __future__`` imports are
directives, not names.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for folder in ("src/queryspell", "tests", "demos")
               for path in (ROOT / folder).glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported: list[str] = []
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_what_it_should():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\nimport json.decoder\n"
              "from typing import Any, List\n"
              "__all__ = ['List']\n"
              "def f(x: Any):\n    return json.decoder\n")
    assert unused_imports(source) == ["os", "osp"]
