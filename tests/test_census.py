"""The census (ROADMAP item 11), at two grains.

* Subsystems: every package or module directly under ``src/repro`` is
  imported by a benchmark, an example, or another ``repro`` package.  A
  subsystem only its own tests reach runs in no row, experiment or
  example, and leaves ``src/``.  Re-exports in ``repro/__init__.py`` and
  imports from ``tests/`` do not count.
* Definitions: every public module-level ``def``/``class`` and every
  public method of a module-level class is named in ``src/``,
  ``bench/``, ``benchmarks/`` or ``examples/`` outside its own body.
  Tests, ``__all__`` lists and package ``__init__`` re-exports do not
  count.
* Classes: every public module-level class is *used* there outside its
  own body — called, subclassed, an attribute read, or passed as a
  value.  Being the class argument of ``isinstance``/``issubclass``,
  an annotation, an import or an ``__all__`` entry is no use: a class
  only its own dispatch names is never constructed.

:data:`KEEP` names the few definitions that stay anyway."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "repro"
TOPS = ("src", "bench", "benchmarks", "examples")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Definitions nothing outside ``tests/`` names that stay: each models a
#: paper passage its own or its module's docstring quotes, or is the
#: reference check a property test holds the code to.
KEEP = {
    "dad/axis.py:AxisDistribution.validate_partition": "reference check",
    "linearize/linearization.py:Linearization.validate_partition":
        "reference check",
    "mxn/api.py:MxNComponent.connect_with_spec":
        "§4.1: connections initiated \"by a third party controller\"",
    "dca/framework.py:DCAApplication":
        "§4.3: Go ports \"are called at startup time\", concurrently",
    "dca/framework.py:DCAApplication.add_component":
        "§4.3: declares one component of a DCAApplication",
    "dca/stubgen.py:generate_stubs":
        "§4.3: the stub generator \"adds an extra argument to all port "
        "methods, of type MPI_Comm\"",
    "mct/integrals.py:paired_integrals":
        "§4.5: \"paired integrals and averages for use in conservation of "
        "global flux integrals\"",
    "linearize/structures.py:TreeLinearization":
        "§2.2.1: linearization matches structures \"from multidimensional "
        "arrays to trees or graphs\"",
    "highlevel.py:redistribute":
        "§6: \"user-friendly simplifications ... for the most common "
        "operations\"",
    "pipeline/filters.py:TemporalBlendFilter":
        "§1: component filters \"for spatial and temporal interpolation\"",
    "pubsub/endpoints.py:Subscriber.leave":
        "§5: XChangemxn's \"dynamic arrivals and departures of components\"",
    "dca/engine.py:DCAParallelArg":
        "§4.3: the user defines the data distribution layout using "
        "\"displacement and count arrays\"",
}


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


def _members(tree: ast.Module):
    """``(qualified name, node)`` of every module-level ``def``/``class``
    and every method of a module-level class, private ones included."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, DEFS[:2]):
                        yield f"{node.name}.{sub.name}", sub


def _public_defs() -> dict[str, tuple[str, ast.AST]]:
    """``{"module.py:qualified name": (name, node)}`` of every public
    definition under ``src/repro`` the census covers."""
    found = {}
    for path in PKG.rglob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        for qual, node in _members(tree):
            name = qual.rpartition(".")[2]
            if not name.startswith("_"):
                found[f"{path.relative_to(PKG)}:{qual}"] = name, node
    return found


def _references(path: Path, refs: dict[str, list[set]]) -> None:
    """Add every name ``path`` references to ``refs``: name -> the
    definitions enclosing each occurrence.  A ``Name``, an ``Attribute``,
    an import alias (not in a package ``__init__``) and a string that is
    an identifier (``hasattr(cls, "invoke")``) count; ``__all__`` does
    not."""
    tree = ast.parse(path.read_text(), str(path))
    reexports = path.name == "__init__.py"
    members = {id(node) for _, node in _members(tree)}

    def walk(node: ast.AST, owners: frozenset) -> None:
        if id(node) in members:
            owners = owners | {id(node)}
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = [] if reexports else node.name.split(".")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names = [node.value]
        else:
            names = []
        for name in names:
            refs.setdefault(name, []).append(owners)
        for child in ast.iter_child_nodes(node):
            walk(child, owners)

    walk(tree, frozenset())


def _unreferenced() -> list[str]:
    """The public definitions nothing outside ``tests/`` names outside
    their own body."""
    refs: dict[str, list] = {}
    for top in TOPS:
        for path in (ROOT / top).rglob("*.py"):
            _references(path, refs)
    return sorted(
        key for key, (name, node) in _public_defs().items()
        if not any(id(node) not in owners for owners in refs.get(name, ())))


def test_every_public_definition_is_referenced():
    """Every public module-level function or class, and every public
    method of one, is named outside its own body by ``src/``,
    ``bench/``, ``benchmarks/`` or ``examples/`` — or is on
    :data:`KEEP`.  A definition only tests reach is dead code
    (ROADMAP item 11)."""
    flagged = [key for key in _unreferenced() if key not in KEEP]
    assert not flagged, (
        f"public definitions only tests reach: {', '.join(flagged)} — "
        f"delete them, or keep one on KEEP with the paper passage its "
        f"docstring quotes")


def _class_uses(path: Path, uses: dict[str, list]) -> None:
    """Add every class use ``path`` makes to ``uses``: name -> the
    definitions enclosing each one.  A loaded ``Name`` or ``Attribute``
    is a use — a call, a base, an attribute read, a value passed on —
    unless it sits in an annotation, the class argument of
    ``isinstance``/``issubclass`` or ``__all__``; imports and strings
    never are."""
    tree = ast.parse(path.read_text(), str(path))
    members = {id(node) for _, node in _members(tree)}
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            skip.add(id(node.annotation))
        elif isinstance(node, DEFS[:2]) and node.returns is not None:
            skip.add(id(node.returns))
        elif isinstance(node, ast.AnnAssign):
            skip.add(id(node.annotation))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("isinstance", "issubclass")
              and len(node.args) == 2):
            skip.add(id(node.args[1]))
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            skip.add(id(node))

    def walk(node: ast.AST, owners: frozenset) -> None:
        if id(node) in skip:
            return
        if id(node) in members:
            owners = owners | {id(node)}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses.setdefault(node.id, []).append(owners)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            uses.setdefault(node.attr, []).append(owners)
        for child in ast.iter_child_nodes(node):
            walk(child, owners)

    walk(tree, frozenset())


def _unused_classes() -> list[str]:
    """The public module-level classes nothing outside ``tests/`` uses
    outside their own body."""
    uses: dict[str, list] = {}
    for top in TOPS:
        for path in (ROOT / top).rglob("*.py"):
            _class_uses(path, uses)
    return sorted(
        key for key, (name, node) in _public_defs().items()
        if isinstance(node, ast.ClassDef)
        and not any(id(node) not in owners for owners in uses.get(name, ())))


def test_every_public_class_is_used():
    """Every public module-level class is constructed, subclassed, read
    or passed on by ``src/``, ``bench/``, ``benchmarks/`` or
    ``examples/`` — or is on :data:`KEEP`.  A class that only an
    ``isinstance`` test names is never made outside ``tests/``
    (ROADMAP item 11)."""
    flagged = [key for key in _unused_classes() if key not in KEEP]
    assert not flagged, (
        f"public classes nothing outside tests/ uses: "
        f"{', '.join(flagged)} — delete them, or keep one on KEEP with "
        f"the paper passage its docstring quotes")


def test_keep_list_names_only_flagged_definitions():
    """A :data:`KEEP` entry must exist and be flagged by a rule: once
    something outside ``tests/`` uses it, or it is gone, its entry goes
    too."""
    assert len(KEEP) <= 12
    stale = sorted(set(KEEP) - set(_unreferenced()) - set(_unused_classes()))
    assert not stale, f"KEEP entries the census no longer flags: {stale}"
