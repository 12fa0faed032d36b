"""Every name a module under src/adess imports is used there: read as a name,
or listed in the module's `__all__` for re-export.  Every private name a
module defines at its top level is read somewhere under src/adess, so no
helper is left that only tests reach.  The modules form layers: each imports
only modules before it in `LAYERS`.  A float sum is a left fold, so outputs
keep their bits on every CPython: the builtin `sum()`, compensated from 3.12,
adds only ints or Fractions, in the functions of `EXACT_SUMS`."""

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


#: src/adess's modules, each importing only modules before it
LAYERS = ("errors", "chain", "forkchoice", "mining", "economics", "netsim",
          "cli")


def package_imports(source: str) -> set:
    """The sibling modules a module imports, by `from . import x` or
    `from .x import y`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module.split(".")[0]] if node.module else
                         (alias.name for alias in node.names))
    return found


def test_detector_finds_only_sibling_imports():
    source = ("from __future__ import annotations\nimport json\n"
              "from . import economics\nfrom .errors import number\n"
              "from adess.chain import Block\n")
    assert package_imports(source) == {"economics", "errors"}


def test_each_module_imports_only_the_layers_before_it():
    assert {path.stem for path in SRC.glob("*.py")} == {*LAYERS, "__init__"}
    found = {name: package_imports((SRC / f"{name}.py").read_text())
             for name in LAYERS}
    assert found == {name: found[name] & set(LAYERS[:i])
                     for i, name in enumerate(LAYERS)}


#: the functions whose builtin `sum()` adds only ints or Fractions: exact,
#: and so the same on every CPython
EXACT_SUMS = {"cli._suite_proposition1", "economics.expected_attack_hashrate"}


def builtin_sums(sources: dict) -> list:
    """(function, line) of each call of the builtin `sum()` in `sources`
    (module -> source), the function named by its dotted path in the
    module."""
    found = []

    def visit(node, where: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Call) and isinstance(
                    child.func, ast.Name) and child.func.id == "sum":
                found.append((where, child.lineno))
            visit(child, where)

    for module, source in sources.items():
        visit(ast.parse(source), module)
    return sorted(found)


def test_detector_finds_builtin_sums_by_function():
    source = ("total = sum([1, 2])\n"
              "class A:\n    def f(self, xs):\n"
              "        return [sum(x) for x in xs]\n"
              "def g(xs):\n    def h():\n        return xs.sum()\n"
              "    return math.fsum(xs) + sum(xs, 0.0)\n")
    assert builtin_sums({"m": source}) == [("m", 1), ("m.A.f", 4),
                                            ("m.g", 8)]


def test_float_sums_under_src_are_left_folds():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert [(where, line) for where, line in builtin_sums(sources)
            if where not in EXACT_SUMS] == []
