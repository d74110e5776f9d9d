"""Engine code is code that a pipeline runs, with options that some caller sets.

Every function, class and method defined in ``src/nodal_idn`` (apart from
``__init__.py``, the re-exports) must be referenced somewhere other than
its own definition: elsewhere in the package, in ``scripts/``, or among
the span targets of ``perfbench/spans.py``.  A method counts as referenced
only as an attribute (``x.name``), since a bare name of the same spelling
is some other variable.  A name that only tests use belongs in ``tests/``,
as ``tests/engine_checks.py``, ``tests/nystrom.py`` and the scenarios and
oracles of ``tests/reference/`` do.  Dunder methods are called by the
language and are not checked.

Every defaulted parameter of those functions and methods must be passed,
by keyword or by position, at some call of that name in ``src/``,
``scripts/`` or ``perfbench/``: a default that no call overrides is a
constant, and one that only tests override is a constant that the tests
should monkeypatch.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nodal_idn"
NOT_ENGINE = {"__init__.py"}
CALLERS = ("src", "scripts", "perfbench")


def _definitions(body, prefix="", in_class=False):
    """(qualified name, node, whether it is a method) of every function,
    class and method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in body:
        if isinstance(node, kinds):
            yield prefix + node.name, node, in_class
            yield from _definitions(node.body, f"{prefix}{node.name}.",
                                    isinstance(node, ast.ClassDef))


def _references(node, enclosing=()):
    """Names used under ``node``, and attributes as ``.name``, each kept
    unless one of the definitions around the use, ``enclosing`` included,
    has its name: a definition's reference to itself is not a caller."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    if isinstance(node, kinds):
        enclosing = enclosing + (node.name,)
    found = set()
    if isinstance(node, ast.Name):
        found.add(node.id)
    elif isinstance(node, ast.Attribute):
        found.add("." + node.attr)
    found -= set(enclosing) | {"." + name for name in enclosing}
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
    # the tracer sets each target as an attribute of its module or class
    used = {"." + name for name in _span_targets()}
    for path in sorted((ROOT / "scripts").glob("*.py")):
        used |= _references(ast.parse(path.read_text()))
    used = used.union(*map(_references, trees.values()))
    missing = []
    for module, tree in trees.items():
        for qualified, node, method in _definitions(tree.body):
            name = node.name
            if (name.startswith("__") and name.endswith("__")
                    or "." + name in used or not method and name in used):
                continue
            missing.append(f"{module}:{node.lineno} {qualified}")
    return missing


def test_every_engine_name_has_a_caller():
    assert uncalled_engine_names() == []


def _constructors(trees) -> dict:
    """Class name -> the names whose calls run its ``__init__``: its own
    and those of the engine classes derived from it."""
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}
    names = {cls: {cls} for cls in bases}
    for cls in bases:
        ancestors = list(bases[cls])
        while ancestors:
            parent = ancestors.pop()
            if parent in names:
                names[parent].add(cls)
                ancestors.extend(bases[parent])
    return names


def _defaulted(body, constructors, cls=None):
    """(qualified name, call names, parameter, position) of every defaulted
    parameter; the position counts the arguments a call writes, so it skips
    ``self`` and ``cls`` and is None for a keyword-only parameter."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _defaulted(node.body, constructors, node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualified = f"{cls}.{node.name}" if cls else node.name
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            params = node.args.posonlyargs + node.args.args
            if cls is not None and not static:
                params = params[1:]
            calls = (constructors.get(cls, {cls}) if node.name == "__init__"
                     else {node.name})
            first = len(params) - len(node.args.defaults)
            for pos, arg in enumerate(params[first:], first):
                yield qualified, calls, arg.arg, pos
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    yield qualified, calls, arg.arg, None


def _passed_arguments(folders) -> dict:
    """Call name -> the keywords and positions its calls in ``folders``
    pass.  A name bound by ``from ... import name as alias`` is called as
    ``alias``.  Positions after a ``*args`` and keywords in a ``**kwargs``
    are not known, so they count for nothing."""
    passed: dict = {}
    for folder in folders:
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text())
            aliases = {alias.asname: alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom)
                       for alias in node.names if alias.asname}
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (aliases.get(func.id, func.id)
                        if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else None)
                if name is None:
                    continue
                known = passed.setdefault(name, set())
                known.update(k.arg for k in node.keywords if k.arg is not None)
                for pos, arg in enumerate(node.args):
                    if isinstance(arg, ast.Starred):
                        break
                    known.add(pos)
    return passed


def unset_engine_options() -> list[str]:
    trees = _engine_trees()
    constructors = _constructors(trees)
    passed = _passed_arguments(CALLERS)
    missing = []
    for module, tree in trees.items():
        for qualified, calls, param, pos in _defaulted(tree.body, constructors):
            if not any(param in passed.get(name, ()) or pos in passed.get(name, ())
                       for name in calls):
                missing.append(f"{module}:{qualified}({param})")
    return missing


def test_every_engine_option_is_set():
    assert unset_engine_options() == []
