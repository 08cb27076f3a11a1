"""Every top-level name in ``src/wgkit`` is reached from code that runs.

An AST scan.  A top-level statement of a module is live when it defines no
name (a guard such as ``if __name__ == "__main__"``), defines a dunder or an
exempt name, or defines a name that a live statement reads: loads it,
directly or through an import, or lists it in ``__all__``.  A top-level name
(a def, a class or an assignment) that no live statement reads fails the
test, so a function that only calls itself, or that only such a function
calls, fails too.  The exempt names come from two lists read from files: the
names ``tests/test_acceptance.py`` imports from ``wgkit``, and the ``wgkit``
names the benchmark scripts ``bench/*.py`` import, read as module attributes
or give as ``("module", "name")`` pairs.  Reads are resolved by
scope (``symtable``): a local variable that shares a top-level name does not
read it.  A name that only other tests read belongs in ``tests/oracles.py``.
"""

from __future__ import annotations

import ast
import symtable
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wgkit"


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _defined(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    else:
        targets = [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]


def _imports(tree: ast.Module) -> tuple[dict[str, tuple[str, str]], dict[str, str]]:
    """(names, modules): local name -> (module, name) of ``from .m import name``; alias -> m of ``from . import m``."""
    names, modules = {}, {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
            for alias in stmt.names:
                if stmt.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names[alias.asname or alias.name] = (stmt.module, alias.name)
    return names, modules


def _global_reads(table: symtable.SymbolTable) -> set[str]:
    """The module-level names that code in ``table`` or its nested scopes reads; locals do not count."""
    module = table.get_type() == "module"
    names = {s.get_name() for s in table.get_symbols() if s.is_referenced() and (module or s.is_global())}
    for child in table.get_children():
        names |= _global_reads(child)
    return names


def _loaded(stmt: ast.stmt) -> tuple[set[str], set[tuple[str, str]]]:
    """(names, attributes) the statement reads: module-level names, ``__all__`` entries, and (base, attr) pairs."""
    names = _global_reads(symtable.symtable(ast.unparse(stmt), "<statement>", "exec"))
    attrs = {
        (node.value.id, node.attr)
        for node in ast.walk(stmt)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    }
    if "__all__" in _defined(stmt):
        names.update(node.value for node in ast.walk(stmt.value) if isinstance(node, ast.Constant))
    return names, attrs


def unread_names(trees: dict[str, ast.Module], exempt=frozenset()) -> list[str]:
    """``module.name`` of every top-level name of ``trees`` that no live statement reads.

    A statement is live when it defines no name, defines a dunder or a
    (module, name) of ``exempt``, or defines a name that a live statement reads.
    """
    imports = {module: _imports(tree) for module, tree in trees.items()}

    def resolve(key):
        while key[0] in imports and key[1] in imports[key[0]][0]:
            key = imports[key[0]][0][key[1]]  # a re-export: follow it to the definition
        return key

    stmts = []  # (defined keys, read keys) per top-level statement
    for module, tree in trees.items():
        names, modules = imports[module]
        for stmt in tree.body:
            loads, attrs = _loaded(stmt)
            reads = {resolve(names.get(name, (module, name))) for name in loads}
            reads |= {resolve((modules[base], attr)) for base, attr in attrs if base in modules}
            stmts.append(({(module, name) for name in _defined(stmt)}, reads))
    exempt = {resolve(key) for key in exempt}
    roots = [
        (keys, reads) for keys, reads in stmts if not keys or keys & exempt or any(n.startswith("__") for _, n in keys)
    ]
    live = set().union(*(keys for keys, _ in roots))
    pending = [reads for _, reads in roots]
    while pending:
        new = pending.pop() - live
        live |= new
        pending += [reads for keys, reads in stmts if keys & new]
    return sorted(f"{module}.{name}" for keys, _ in stmts for module, name in keys - live if not name.startswith("__"))


def _module(dotted: str | None) -> str | None:
    """The module key of a dotted ``wgkit`` module name ("__init__" for the package), else None."""
    parts = (dotted or "").split(".")
    if parts[0] != "wgkit":
        return None
    return parts[1] if len(parts) > 1 else "__init__"


def _acceptance_imports() -> set[tuple[str, str]]:
    """(module, name) of every name ``tests/test_acceptance.py`` imports from ``wgkit``."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return {
        (_module(node.module), alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and _module(node.module)
        for alias in node.names
    }


def _bench_mentions() -> set[tuple[str, str]]:
    """(module, name) of every name of a ``wgkit`` module that ``bench/*.py`` mentions.

    A name imported from ``wgkit``, an attribute of a ``wgkit`` module, or a
    name that a pair ``("module", "name")`` gives with its module: the tracer
    reaches functions through such pairs.  A string ``"module.name"`` does not
    count: the benchmark's metric names have that form, and a metric named
    after a function would keep alive a function that nothing calls.
    """
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    out = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and _module(node.module):
                out.update((_module(node.module), alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute):
                base = node.value.id if isinstance(node.value, ast.Name) else getattr(node.value, "attr", None)
                if base in modules:
                    out.add((base, node.attr))
            elif isinstance(node, ast.Tuple) and len(node.elts) == 2:
                module, name = (getattr(elt, "value", None) for elt in node.elts)
                if module in modules and isinstance(name, str):
                    out.add((module, name))
    return out


def test_every_top_level_name_in_src_has_a_reader():
    unread = unread_names(_trees(), _acceptance_imports() | _bench_mentions())
    assert unread == [], f"read by no code in src: {unread}; move test-only names to tests/oracles.py"


def test_a_benchmark_metric_name_exempts_nothing():
    # the tracer reports a metric "sieveconsts.primes"; it calls no function of that name
    assert ("sieveconsts", "primes") not in _bench_mentions()


def test_the_scan_finds_an_unread_definition():
    # the scan's own cases: a def read only by itself, one read only by that
    # def, and one whose name only a local variable shares, are unread; one
    # read through an import, one as a module attribute and one exported in
    # __all__ are read
    trees = {
        "a": ast.parse(
            "def used(): pass\ndef alone(n): return helper(alone(n - 1))\ndef helper(x): return x\n"
            "def shadowed(): pass\ndef f(shadowed): return shadowed\nX = f(1)\n"
        ),
        "b": ast.parse("from .a import used\nfrom . import a\ny = used() + a.X\n"),
        "__init__": ast.parse("from .b import y\n__all__ = ['y']\n"),
    }
    assert unread_names(trees) == ["a.alone", "a.helper", "a.shadowed"]
    assert unread_names(trees, exempt={("a", "alone")}) == ["a.shadowed"]
