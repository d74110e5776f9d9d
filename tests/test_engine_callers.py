"""Engine code is code that a pipeline runs.

Every function, class and method defined in ``src/nodal_idn`` (apart from
``oracles.py``, the test oracles, and ``__init__.py``, the re-exports) must
be referenced somewhere other than its own definition: elsewhere in the
package, in ``scripts/``, or among the span targets of
``perfbench/spans.py``.  A name that only tests use belongs in ``tests/``,
as ``tests/engine_checks.py`` and ``tests/annulus_fredholm.py`` do.
Dunder methods are called by the language and are not checked.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nodal_idn"
NOT_ENGINE = {"oracles.py", "__init__.py"}

# Kept without a stage caller, as module:qualified name.
ALLOWED = {
    # The Nystrom/Fredholm layer for general curves has had no stage caller
    # since the circle domains are solved by FFT.  It stays all the same:
    # acceptance criteria 01-03 reproduce the paper's general-curve
    # Dirichlet results with it, and a non-circular domain would be a new
    # workload.
    "greens.py:NystromSystem", "greens.py:NystromSystem.build",
    "greens.py:layer_potential_T", "greens.py:trace_T_plus",
    "greens.py:trace_T_minus", "greens.py:solve_dirichlet_fredholm",
    "greens.py:PrincipalGreen",
    # The paper's G function on its own; criterion (a) reads G off the same
    # pencil power sums as the fibers, in one kernel call per line.
    "characterize.py:compute_G",
}


def _definitions(body, prefix=""):
    """(qualified name, node) of every function, class and method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in body:
        if isinstance(node, kinds):
            yield prefix + node.name, node
            yield from _definitions(node.body, f"{prefix}{node.name}.")


def _references(node, enclosing=()):
    """Names and attributes used under ``node``, each kept unless one of
    the definitions around the use, ``enclosing`` included, has its name:
    a definition's reference to itself is not a caller."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    if isinstance(node, kinds):
        enclosing = enclosing + (node.name,)
    found = set()
    if isinstance(node, ast.Name):
        found.add(node.id)
    elif isinstance(node, ast.Attribute):
        found.add(node.attr)
    found -= set(enclosing)
    for child in ast.iter_child_nodes(node):
        found |= _references(child, enclosing)
    return found


def _span_targets():
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            return {const.value for const in ast.walk(node.value)
                    if isinstance(const, ast.Constant)
                    and isinstance(const.value, str)}
    raise AssertionError("perfbench/spans.py defines no TARGETS")


def _engine_trees():
    return {path.name: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))
            if path.name not in NOT_ENGINE}


def uncalled_engine_names() -> list[str]:
    trees = _engine_trees()
    outside = _span_targets()
    for path in sorted((ROOT / "scripts").glob("*.py")):
        outside |= _references(ast.parse(path.read_text()))
    inside = set().union(*map(_references, trees.values()))
    missing = []
    for module, tree in trees.items():
        for qualified, node in _definitions(tree.body):
            name = node.name
            if (name.startswith("__") and name.endswith("__")
                    or f"{module}:{qualified}" in ALLOWED
                    or name in outside or name in inside):
                continue
            missing.append(f"{module}:{node.lineno} {qualified}")
    return missing


def test_every_engine_name_has_a_caller():
    assert uncalled_engine_names() == []


def test_allowlist_names_are_defined():
    defined = {f"{module}:{qualified}"
               for module, tree in _engine_trees().items()
               for qualified, _ in _definitions(tree.body)}
    assert ALLOWED <= defined
