"""Every top-level definition in src/qgeom serves a report path.

The roots are the files that users and the benchmark run: the CLI
(`cli.py`), the package `__init__.py`, `scripts/`, `perfbench/*.py` and the
acceptance suite.  From them, references are followed module by module
through `ast`: a bare name resolves to a top-level definition of its own
module or to the definition it was imported from, and `module.attr`
resolves through module aliases.  A class counts as one node (its methods
come with it), and an assignment reaches what its value names.  Strings
are not references, so a function named only in a lookup table is not
reached.  Every top-level def, class and assigned constant outside
`cli.py` must be reached; a definition that only unit tests call belongs
in those tests.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qgeom"
ROOT_FILES = (
    [PACKAGE / "cli.py", PACKAGE / "__init__.py", ROOT / "tests" / "test_acceptance.py"]
    + sorted((ROOT / "scripts").glob("*.py"))
    + sorted((ROOT / "perfbench").glob("*.py"))
)


def _imports(tree):
    """name -> ("package",), ("module", m) or ("symbol", m, attr) for every
    qgeom import in tree; a relative import is one from the package."""
    table = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] != "qgeom":
                    continue
                if a.asname and len(parts) == 2:
                    table[a.asname] = ("module", parts[1])
                else:
                    table[a.asname or "qgeom"] = ("package",)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = [] if node.module is None else node.module.split(".")
            elif node.module and node.module.split(".")[0] == "qgeom":
                base = node.module.split(".")[1:]
            else:
                continue
            for a in node.names:
                local = a.asname or a.name
                if base:
                    table[local] = ("symbol", base[0], a.name)
                else:
                    table[local] = ("module", a.name)
    return table


def _definitions(tree):
    """Top-level name -> node for defs, classes and assigned constants."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                        defs[n.id] = node
    return defs


def _module_of(expr, imports):
    """The qgeom module an expression names (`core`, `qgeom.core`), or None."""
    if isinstance(expr, ast.Name):
        entry = imports.get(expr.id)
        return entry[1] if entry and entry[0] == "module" else None
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        entry = imports.get(expr.value.id)
        return expr.attr if entry and entry[0] == "package" else None
    return None


def _references(node, module, imports, defs):
    """(module, name) pairs that the code under node refers to."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            target = _module_of(n.value, imports)
            if target is not None:
                out.add((target, n.attr))
        elif isinstance(n, ast.Name):
            if module is not None and n.id in defs:
                out.add((module, n.id))
            elif n.id in imports and imports[n.id][0] == "symbol":
                out.add(imports[n.id][1:])
    return out


def _reachability():
    """(defined, reached): sets of (module, name) over src/qgeom outside cli.py."""
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    imports = {m: _imports(t) for m, t in trees.items()}
    defs = {m: _definitions(t) for m, t in trees.items()}

    def resolve(module, name, seen=()):
        """Follow re-exports (`from .core import x` used as `entangle.x`)."""
        if name in defs.get(module, {}):
            return (module, name)
        entry = imports.get(module, {}).get(name)
        if entry and entry[0] == "symbol" and (module, name) not in seen:
            return resolve(entry[1], entry[2], seen + ((module, name),))
        return None

    frontier = set()
    for path in ROOT_FILES:
        tree = ast.parse(path.read_text())
        module = path.stem if path.parent == PACKAGE else None
        frontier |= _references(tree, module, _imports(tree), defs.get(module, {}))
    # top-level statements other than definitions run on import
    for m, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                     ast.Assign, ast.AnnAssign, ast.Import, ast.ImportFrom)):
                frontier |= _references(node, m, imports[m], defs[m])

    reached = set()
    while frontier:
        sym = resolve(*frontier.pop())
        if sym is None or sym in reached:
            continue
        reached.add(sym)
        m, name = sym
        node = defs[m][name]
        body = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else node
        if body is not None:
            frontier |= _references(body, m, imports[m], defs[m])
    defined = {(m, name) for m, d in defs.items() if m not in ("cli", "__init__") for name in d}
    return defined, reached


def test_every_library_definition_is_reached_from_a_report_path():
    defined, reached = _reachability()
    assert ("numrange", "jnr_approximate") in reached  # the walk sees the CLI's calls
    unreached = sorted(f"{m}.{name}" for m, name in defined - reached)
    assert not unreached, f"reached only from unit tests or nowhere: {unreached}"
