"""Every name defined in ``src/`` is reached by a command, a check or an export.

The guard reads the modules of ``src/pairspec`` as syntax trees and imports
none of them.  A top-level function, class or constant is reached when its
name appears as a ``Name`` or an ``Attribute`` somewhere in ``src/`` outside
its own definition; a method or property is reached when its name appears as
an ``Attribute`` there.  Dunder methods are called by the language, not by
name, and are left out.  A name no ``src/`` code reaches may stay only if it
is a click command of ``cli.py``, a name ``pairspec/__init__.py`` exports,
or a name the traced benchmark wraps (``SPANS`` of
``perfbench/layertrace.py``).  Run as a script, it prints the names the
guard keeps only because the benchmark traces them:

    python tests/test_reachability.py
"""

from __future__ import annotations

import ast
import importlib.util
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pairspec"
PERFBENCH = ROOT / "perfbench"


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(PACKAGE.glob("*.py"))}


def _names(node: ast.AST, attributes_only: bool = False) -> Counter:
    """Every name read as a ``Name`` or an ``Attribute`` under ``node``."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.Name) and not attributes_only:
            out[sub.id] += 1
    return out


def _definitions(tree: ast.Module):
    """(qualified name, bare name, node, is member) for each definition that
    the guard checks; a constant's node is its assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node, False
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, target.id, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name, item, True


def _is_click_command(node: ast.AST) -> bool:
    return isinstance(node, ast.FunctionDef) and any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group") for d in node.decorator_list)


def _exports(tree: ast.Module) -> set[str]:
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def traced_names() -> set[tuple[str, str]]:
    """(module, name) for every function ``perfbench/layertrace.py`` wraps."""
    sys.path.insert(0, str(PERFBENCH))                 # for its ``from checks import``
    try:
        spec = importlib.util.spec_from_file_location("layertrace", PERFBENCH / "layertrace.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return {(layer, name) for layer, spans in module.SPANS.items()
            for names in spans.values() for name in names}


def unreached(trees: dict[str, ast.Module]) -> list[tuple[str, str, str]]:
    """(module, qualified name, bare name) of every definition outside
    ``__init__.py`` that no other ``src/`` code names."""
    names = Counter()
    attributes = Counter()
    for tree in trees.values():
        names += _names(tree)
        attributes += _names(tree, attributes_only=True)
    out = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for qualname, name, node, member in _definitions(tree):
            seen = attributes if member else names
            reached = seen[name] > _names(node, attributes_only=member)[name]
            if not reached and not (module == "cli" and _is_click_command(node)):
                out.append((module, qualname, name))
    return out


def test_every_src_name_is_reached():
    trees = _trees()
    exports = _exports(trees["__init__"])
    traced = traced_names()
    dead = [f"{module}.{qualname}" for module, qualname, name in unreached(trees)
            if name not in exports and (module, name) not in traced]
    assert not dead, f"no command, check or export reaches: {', '.join(dead)}"


def test_guard_sees_a_planted_name():
    tree = ast.parse("def used():\n    return 1\n\n\ndef unused():\n    return used()\n\n\n"
                     "class K:\n    def m(self):\n        return self.m()\n\n\n"
                     "LIMIT = 3\n")
    found = [q for _, q, _ in unreached({"__init__": ast.parse(""), "m": tree})]
    assert found == ["unused", "K", "K.m", "LIMIT"]


if __name__ == "__main__":
    trees = _trees()
    exports = _exports(trees["__init__"])
    traced = traced_names()
    for module, qualname, name in unreached(trees):
        if (module, name) in traced:
            print(f"{module}.{qualname}" + (" (exported)" if name in exports else ""))
