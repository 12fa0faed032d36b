"""Every name a module under src/adess imports is used there: read as a name,
or listed in the module's `__all__` for re-export.  Every private name a
module defines at its top level is read somewhere under src/adess, so no
helper is left that only tests reach."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "adess"


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                # `import a.b` binds `a`
                imported[(alias.asname or alias.name).split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detector_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as j\n"
              "from typing import Dict, List\nfrom x import y\n"
              "__all__ = ['y']\n"
              "def f(a: Dict) -> None:\n    return os.path.join(a)\n")
    assert unused_imports(source) == [(3, "j"), (4, "List")]


def test_no_unused_imports_under_src():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: bad for name, bad in found.items() if bad} == {}


def unread_privates(sources: dict) -> list:
    """(module, name) of each top-level `def _x`, `class _X` or `_X = ...`
    in `sources` (module -> source) that no module reads as a name or an
    attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, ast.AnnAssign) else
                       [])
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append(node.name)
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(pair for pair in defined if pair[1] not in read)


def test_detector_flags_only_unread_private_names():
    sources = {"a": ("_LIMIT = 3\n_unused: int = 0\n__version__ = '1'\n"
                     "def _helper(x):\n    return x < _LIMIT\n"
                     "class _Kind:\n    pass\n"),
               "b": "import a\n\ndef f(x):\n    return a._helper(x)\n",
               "c": "from a import _Kind\n"}
    assert unread_privates(sources) == [("a", "_Kind"), ("a", "_unused")]


def test_every_private_name_under_src_is_read_there():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_privates(sources) == []
