"""Every name defined in ``src/`` is reached by a command, a check or an export.

The guard reads the modules of ``src/pairspec`` as syntax trees and imports
none of them.  A top-level function, class or constant is reached when some
``src/`` code outside its own definition reads it: as a ``Name`` load that
no enclosing function, lambda or comprehension binds itself, or as an
attribute of a package-module alias such as ``_kernels.first_row``.  So a
``str.join`` call or a local ``meet`` does not reach ``congruences.join`` or
``congruences.meet``.  A method or property is reached when its name
appears as an ``Attribute`` there.  Dunder methods are called by the
language, not by name, and are left out.  A name no ``src/`` code reaches
may stay only if it is a click command of ``cli.py``, a name
``pairspec/__init__.py`` exports, a name the traced benchmark wraps
(``SPANS`` of ``perfbench/layertrace.py``), or a name a ``perfbench/*.py``
file reads from the package.  Run as a script, it prints the names the
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
# a function, lambda or comprehension: the scopes whose own bindings shadow a top-level name
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp, ast.SetComp,
          ast.DictComp, ast.GeneratorExp)


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(PACKAGE.glob("*.py"))}


def _module_aliases(tree: ast.Module, package: str = "") -> dict[str, str]:
    """Alias -> module for each package module ``tree`` imports whole:
    ``from . import x`` inside the package, ``from pairspec import x``
    outside it (``package`` given)."""
    return {alias.asname or alias.name: alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module == package if package else node.level and node.module is None)
            for alias in node.names}


def _bound(scope: ast.AST) -> set[str]:
    """The names a scope binds itself: its parameters, and each name it
    stores, defines or imports outside its nested scopes."""
    out = set()
    if not isinstance(scope, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
        todo = list(ast.iter_child_nodes(scope))
    else:
        a = scope.args
        out |= {x.arg for x in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if x}
        todo = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.alias):
            out.add((node.asname or node.name).split(".")[0])
        if not isinstance(node, SCOPES):
            todo += ast.iter_child_nodes(node)
    return out


def _uses(node: ast.AST, aliases: dict[str, str]) -> Counter:
    """Every top-level name read under ``node``: a ``Name`` load that no
    enclosing scope under ``node`` binds, or an attribute of an alias in
    ``aliases``."""
    out = Counter()
    todo = [(node, frozenset())]
    while todo:
        sub, bound = todo.pop()
        if isinstance(sub, SCOPES):
            bound = bound | _bound(sub)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id not in bound:
            out[sub.id] += 1
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and sub.value.id in aliases):
            out[sub.attr] += 1
        todo += [(child, bound) for child in ast.iter_child_nodes(sub)]
    return out


def _attributes(node: ast.AST) -> Counter:
    """Every name read as an ``Attribute`` under ``node``."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


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


def perfbench_reads() -> set[tuple[str, str]]:
    """(module, name) for every package name a ``perfbench/*.py`` file
    imports from a package module or reads as an attribute of one."""
    out = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = _module_aliases(tree, "pairspec")
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pairspec."):
                out |= {(node.module.split(".")[1], alias.name) for alias in node.names}
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                out.add((aliases[node.value.id], node.attr))
    return out


def unreached(trees: dict[str, ast.Module]) -> list[tuple[str, str, str]]:
    """(module, qualified name, bare name) of every definition outside
    ``__init__.py`` that no other ``src/`` code reads."""
    aliases = {module: _module_aliases(tree) for module, tree in trees.items()}
    names = Counter()
    attributes = Counter()
    for module, tree in trees.items():
        names += _uses(tree, aliases[module])
        attributes += _attributes(tree)
    out = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for qualname, name, node, member in _definitions(tree):
            own = _attributes(node) if member else _uses(node, aliases[module])
            reached = (attributes if member else names)[name] > own[name]
            if not reached and not (module == "cli" and _is_click_command(node)):
                out.append((module, qualname, name))
    return out


def test_every_src_name_is_reached():
    trees = _trees()
    exports = _exports(trees["__init__"])
    kept = traced_names() | perfbench_reads()
    dead = [f"{module}.{qualname}" for module, qualname, name in unreached(trees)
            if name not in exports and (module, name) not in kept]
    assert not dead, f"no command, check or export reaches: {', '.join(dead)}"


_PLANTED = """
from . import k


def used():
    return k.first_row()


def unused():
    return used()


def join():
    return 2


def meet(x):
    return x


def caller():
    meet = ",".join("ab")
    return [meet for meet in meet] + (lambda join: join)(meet)


class K:
    def m(self):
        return self.m()


LIMIT = 3
"""


def test_guard_sees_a_planted_name():
    """A recursive call, a ``str.join`` call, a local, a comprehension
    variable and a lambda parameter named like a top-level function reach
    nothing; an attribute of a module alias reaches that module's name."""
    trees = {"__init__": ast.parse(""), "m": ast.parse(_PLANTED),
             "k": ast.parse("def first_row():\n    return 0\n\n\ndef unread():\n    return 1\n")}
    found = [f"{module}.{q}" for module, q, _ in unreached(trees)]
    assert found == ["m.unused", "m.join", "m.meet", "m.caller", "m.K", "m.K.m", "m.LIMIT",
                     "k.unread"]


if __name__ == "__main__":
    trees = _trees()
    exports = _exports(trees["__init__"])
    traced = traced_names()
    for module, qualname, name in unreached(trees):
        if (module, name) in traced:
            print(f"{module}.{qualname}" + (" (exported)" if name in exports else ""))
