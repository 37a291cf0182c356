"""The census (ROADMAP item 11), at two grains.

* Subsystems: every package or module directly under ``src/repro`` is
  imported by a benchmark, an example, or another ``repro`` package.  A
  subsystem only its own tests reach runs in no row, experiment or
  example, and leaves ``src/``.  Re-exports in ``repro/__init__.py`` and
  imports from ``tests/`` do not count.
* Definitions: every public module-level ``def``/``class`` is named
  somewhere outside its own body, tests included."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "repro"


def _subsystems() -> set[str]:
    return ({p.parent.name for p in PKG.glob("*/__init__.py")}
            | {p.stem for p in PKG.glob("*.py")} - {"__init__"})


def _imported(path: Path) -> set[str]:
    """The ``repro`` subsystems that ``path`` imports anywhere in its
    body (``repro`` uses absolute imports only)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            modules = [a.name.split(".") for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module.split(".") + [a.name] for a in node.names]
        else:
            continue
        found |= {m[1] for m in modules if len(m) > 1 and m[0] == "repro"}
    return found


def test_every_subsystem_is_reached_outside_its_own_tests():
    reached = set()
    for top in ("bench", "benchmarks", "examples"):
        for path in (ROOT / top).rglob("*.py"):
            reached |= _imported(path)
    for path in PKG.rglob("*.py"):
        if path == PKG / "__init__.py":
            continue
        own = path.relative_to(PKG).parts[0].removesuffix(".py")
        reached |= _imported(path) - {own}
    orphans = sorted(_subsystems() - reached)
    assert not orphans, (
        f"repro subsystems no benchmark, example or other repro package "
        f"imports: {', '.join(orphans)} — ROADMAP item 11(a): give each "
        f"an E-row or delete it from src/")


def _public_defs(path: Path) -> list[str]:
    """The public module-level ``def``/``class`` names of ``path``."""
    tree = ast.parse(path.read_text(), str(path))
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")]


def _references(path: Path) -> set[str]:
    """The names ``path`` references: every ``Name``, ``Attribute`` and
    import alias, except that a module-level ``def``/``class`` body does
    not reference its own name.  Strings (``__all__``) never count."""
    found = set()
    for stmt in ast.parse(path.read_text(), str(path)).body:
        own = (stmt.name if isinstance(stmt, (ast.FunctionDef,
                                              ast.AsyncFunctionDef,
                                              ast.ClassDef)) else None)
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
        found |= names - {own}
    return found


def test_every_public_definition_is_referenced():
    """Every public module-level function or class under ``src/repro``
    is named somewhere outside its own body — in ``src/``, ``bench/``,
    ``benchmarks/``, ``examples/`` or ``tests/``.  A definition nothing
    names is dead code (ROADMAP item 11)."""
    referenced = set()
    for top in ("src", "bench", "benchmarks", "examples", "tests"):
        for path in (ROOT / top).rglob("*.py"):
            referenced |= _references(path)
    unreferenced = sorted(
        f"{path.relative_to(PKG)}:{name}"
        for path in PKG.rglob("*.py")
        for name in _public_defs(path) if name not in referenced)
    assert not unreferenced, (
        f"public definitions nothing references: {', '.join(unreferenced)}")
