"""Every definition in `src/creaselab` is reached from a command, a benchmark hook or a named later user.

An AST pass over the package: the nodes are top-level functions, classes,
module constants and `Class.method`s; a node's edges are every `Name` and
`Attribute` it reads, matched to nodes by bare name.  A class reads only
its bases, decorators and class-level statements; a reached class reaches
its dunder methods, and any other method is reached by a read of its name.  The roots are
`cli.main`, every `LAYERS` name of `perfbench/tracer.py` (its install looks
each one up), the names `perfbench/child.py` reads, and LATER_USERS.
Matching by bare name over-approximates reachability, so the pass never
flags code that a command runs; what it flags nothing but tests can reach,
and it belongs in those tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "creaselab"
PERFBENCH = ROOT / "perfbench"
# the fill-in creases of the paper's applications use these two (ROADMAP item 3)
LATER_USERS = {"equivalence_angle", "graph_slice_parallel_spinor"}


def _reads(tree) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _bound_names(target) -> list[str]:
    """The names an assignment target binds: one name, or each name of a tuple or list it unpacks into."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, ast.Starred):
        return _bound_names(target.value)
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for elt in target.elts for name in _bound_names(elt)]
    return []  # an attribute or subscript binds no module name


def _module_definitions(stem: str, source: str) -> dict[str, tuple[str, set[str]]]:
    """Qualified name -> (bare name, names read) for every definition in one module's source."""
    defs = {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.FunctionDef):
            defs[f"{stem}.{stmt.name}"] = (stmt.name, _reads(stmt))
        elif isinstance(stmt, ast.ClassDef):
            # the methods are nodes of their own, so the class reads only what lies outside them
            outside = [s for s in stmt.body if not isinstance(s, ast.FunctionDef)]
            parts = stmt.bases + stmt.keywords + stmt.decorator_list + outside
            defs[f"{stem}.{stmt.name}"] = (stmt.name, set().union(*map(_reads, parts)))
            for item in stmt.body:
                if isinstance(item, ast.FunctionDef):
                    defs[f"{stem}.{stmt.name}.{item.name}"] = (item.name, _reads(item))
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for name in (name for target in targets for name in _bound_names(target)):
                defs[f"{stem}.{name}"] = (name, _reads(stmt))
    return defs


def _definitions() -> dict[str, tuple[str, set[str]]]:
    """Qualified name -> (bare name, names read) for every definition in the package."""
    defs = {}
    for path in sorted(SRC.glob("*.py")):
        defs.update(_module_definitions(path.stem, path.read_text(encoding="utf-8")))
    return defs


def _roots() -> set[str]:
    tracer = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    layers = next(
        ast.literal_eval(stmt.value)
        for stmt in tracer.body
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in stmt.targets)
    )
    child = _reads(ast.parse((PERFBENCH / "child.py").read_text(encoding="utf-8")))
    return {"main"} | {fn for fns in layers.values() for fn in fns} | child | LATER_USERS


def unreached() -> list[str]:
    defs = _definitions()
    by_bare: dict[str, list[str]] = {}
    for qual, (bare, _) in defs.items():
        by_bare.setdefault(bare, []).append(qual)
    seen: set[str] = set()
    todo = [qual for name in _roots() for qual in by_bare.get(name, [])]
    while todo:
        qual = todo.pop()
        if qual in seen:
            continue
        seen.add(qual)
        todo += [q for name in defs[qual][1] for q in by_bare.get(name, [])]
        todo += [q for q in defs if q.startswith(qual + ".__")]  # a reached class reaches its dunder methods
    return sorted(set(defs) - seen)


def test_every_src_definition_is_reached_from_a_command():
    left = unreached()
    print("unreached definitions:", left)
    assert left == []


def test_unpacking_assignments_define_each_name():
    defs = _module_definitions("m", "A, B = f()\n[C, *D] = g()\nE.attr = h()\nF: int = 1\n")
    assert set(defs) == {"m.A", "m.B", "m.C", "m.D", "m.F"}
    assert defs["m.A"][0] == "A" and "f" in defs["m.A"][1] and "f" in defs["m.B"][1]
    assert "g" in defs["m.D"][1]
