"""Everything ``talbot`` exports, and every defaulted parameter, has a caller
in the package or the benchmark, and every constant a reader.

The scan walks the syntax trees of ``src/talbot/*.py`` (without
``__init__.py``) and ``perfbench/*.py``.  Imports and re-exports are not
uses, and neither are the tests.  It checks five things:

* every exported name appears as a ``Name`` or an ``Attribute`` outside its
  own definition;
* every module-level function and class of the package, private ones
  included, is read as its own module's: by bare name in that module, and
  elsewhere through a ``from`` import of it from that module (or from a
  module that re-imports it) or as an attribute of that imported module;
* every public method (or property) of an exported class appears as a
  ``Name`` or an ``Attribute`` outside its own definition;
* every defaulted parameter of a function or method of the package, private
  ones included, is set by some call of that name: by keyword, by position,
  or through ``*`` or ``**``.  A call that only forwards its caller's own
  defaulted parameter, one that no call sets either, does not count;
* every module-level UPPER_CASE constant of the package, private ones
  included, is read as its own module's, as functions are; its own
  assignment is not a read, and neither is a read of a constant of the same
  name in another module.
"""
import ast
import functools
import re
import types
from pathlib import Path

import talbot

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "talbot"

#: Exported names allowed without a caller, each with the reason.
KEEP = {
    "dirichlet_approx": "ROADMAP item 2 (oblique major arcs)",
}

#: Public methods of exported classes allowed without a caller, with the reason.
KEEP_METHODS = {
    "StepFunction.fourier_coefficient": "the oracle of coefficients_array",
}

#: Defaulted parameters allowed with no call that sets them, with the reason.
KEEP_PARAMETERS = {
    "main(argv)": "the console-script entry point reads sys.argv; tests pass argv",
}

#: Module-level constants ("module.NAME") allowed with no reader, with the reason.
KEEP_CONSTANTS: dict[str, str] = {}


def _sources() -> list[Path]:
    package = sorted(PACKAGE.glob("*.py"))
    return [p for p in package if p.name != "__init__.py"] + sorted((ROOT / "perfbench").glob("*.py"))


@functools.lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names() -> set[str]:
    """Names loaded (not stored) as a Name or Attribute outside a def or
    class of that name."""
    used: set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        loaded = isinstance(getattr(node, "ctx", None), ast.Load)
        if isinstance(node, ast.Name) and loaded and node.id not in enclosing:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and loaded and node.attr not in enclosing:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in _sources():
        visit(_tree(path), frozenset())
    return used


def _exported() -> set[str]:
    return {name for name in talbot.__all__
            if not isinstance(getattr(talbot, name), types.ModuleType)}


def _definitions() -> list[tuple[str, ast.FunctionDef, bool, bool]]:
    """(qualified name, def, bound method?, public?) for every function and
    method of the package; public are exported functions and the public
    methods of exported classes."""
    exported = _exported()
    out = []
    for path in _sources():
        if path.parent.name != "talbot":
            continue
        for node in _tree(path).body:
            if isinstance(node, ast.FunctionDef):
                out.append((node.name, node, False, node.name in exported))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    bound = not any(getattr(d, "id", None) == "staticmethod"
                                    for d in item.decorator_list)
                    public = node.name in exported and not item.name.startswith("_")
                    out.append((f"{node.name}.{item.name}", item, bound, public))
    return out


def _constants() -> set[tuple[str, str]]:
    """(module, UPPER_CASE name) for every module-level constant of the
    package."""
    out = set()
    for path in _sources():
        if path.parent != PACKAGE:
            continue
        for node in _tree(path).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):  # e.g. acceptance.CRITERIA
                targets = [node.target]
            else:
                continue
            out.update((path.stem, target.id) for target in targets
                       if isinstance(target, ast.Name)
                       and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id))
    return out


def _module_level() -> set[tuple[str, str]]:
    """(module, name) for every module-level function and class of the
    package."""
    return {(path.stem, node.name) for path in _sources() if path.parent == PACKAGE
            for node in _tree(path).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def _package_source(node: ast.ImportFrom) -> str | None:
    """The package module a ``from`` import reads ("__init__" for the
    package itself), or None for an import from outside the package."""
    if node.level:  # relative imports appear only inside the package
        return node.module or "__init__"
    head, _, rest = (node.module or "").partition(".")
    return (rest or "__init__") if head == "talbot" else None


@functools.lru_cache(maxsize=None)
def _imports(path: Path) -> tuple[dict[str, tuple[str, str]], dict[str, str]]:
    """What a source imports from the package: local name -> (module,
    name) for names, and local name -> module for modules."""
    names: dict[str, tuple[str, str]] = {}
    modules: dict[str, str] = {}
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            modules.update({a.asname or a.name: "__init__" for a in node.names
                            if a.name == "talbot"})
        elif isinstance(node, ast.ImportFrom) and (source := _package_source(node)):
            for alias in node.names:
                local = alias.asname or alias.name
                if source == "__init__" and (PACKAGE / f"{alias.name}.py").is_file():
                    modules[local] = alias.name
                else:
                    names[local] = (source, alias.name)
    return names, modules


def _origin(module: str, name: str) -> tuple[str, str]:
    """(defining module, name) of a name read from ``module``, following
    re-imports such as ``__init__``'s."""
    names, _ = _imports(PACKAGE / f"{module}.py")
    return _origin(*names[name]) if name in names else (module, name)


def _reads() -> set[tuple[str, str]]:
    """(module, name) for every package name loaded outside a def or class
    of that name: by bare name in its own module, elsewhere through a
    ``from`` import of it or as an attribute of its imported module."""
    reads: set[tuple[str, str]] = set()

    def visit(node: ast.AST, enclosing: frozenset, own: str | None,
              names: dict, modules: dict) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(getattr(node, "ctx", None), ast.Load):
            if isinstance(node, ast.Name) and node.id not in enclosing:
                if node.id in names:
                    reads.add(_origin(*names[node.id]))
                elif own:
                    reads.add((own, node.id))
            elif (isinstance(node, ast.Attribute) and node.attr not in enclosing
                  and isinstance(node.value, ast.Name) and node.value.id in modules):
                reads.add(_origin(modules[node.value.id], node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing, own, names, modules)

    for path in _sources():
        own = path.stem if path.parent == PACKAGE else None
        visit(_tree(path), frozenset(), own, *_imports(path))
    return reads


def _dotted(pairs) -> list[str]:
    return sorted(f"{module}.{name}" for module, name in pairs)


def _public_methods() -> dict[str, str]:
    """Qualified name -> method name, for the public methods."""
    return {qual: fn.name for qual, fn, _, public in _definitions() if public and "." in qual}


def _defaulted(fn: ast.FunctionDef, bound: bool) -> dict[str, int | None]:
    """Defaulted parameter -> its index among a call's positional arguments
    (None for keyword-only ones)."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out: dict[str, int | None] = {a.arg: i - int(bound)
                                  for i, a in enumerate(positional) if i >= first}
    out.update({a.arg: None for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None})
    return out


def _calls() -> dict[str, list[tuple[ast.Call, ast.AST | None]]]:
    """Calls by called name, each with its innermost enclosing function."""
    calls: dict[str, list[tuple[ast.Call, ast.AST | None]]] = {}

    def visit(node: ast.AST, enclosing: ast.AST | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            enclosing = node
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name:
                calls.setdefault(name, []).append((node, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in _sources():
        visit(_tree(path), None)
    return calls


def _passed(call: ast.Call, name: str, index: int | None) -> list[ast.expr]:
    """What a call passes to one parameter; a ``*`` or ``**`` may pass it."""
    passed = [kw.value for kw in call.keywords if kw.arg in (name, None)]
    if index is not None:
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred) or i == index:
                passed.append(arg)
                break
    return passed


def _unset_parameters() -> set[str]:
    """Defaulted parameters no call sets, as 'qualified.name(param)'.

    A least fixed point: a parameter is set once some call passes it a
    value that is not the caller's own defaulted parameter still unset."""
    defs = _definitions()
    params = {id(fn): _defaulted(fn, bound) for _, fn, bound, _ in defs}
    calls = _calls()
    live: set[tuple[int, str]] = set()

    def sets(value: ast.expr, enclosing: ast.AST | None) -> bool:
        forwarded = isinstance(value, ast.Name) and value.id in params.get(id(enclosing), {})
        return not forwarded or (id(enclosing), value.id) in live

    changed = True
    while changed:
        changed = False
        for _, fn, _, _ in defs:
            for name, index in params[id(fn)].items():
                if (id(fn), name) not in live and any(
                        sets(value, enclosing) for call, enclosing in calls.get(fn.name, ())
                        for value in _passed(call, name, index)):
                    live.add((id(fn), name))
                    changed = True
    return {f"{qual}({name})" for qual, fn, _, _ in defs
            for name in params[id(fn)] if (id(fn), name) not in live}


def test_every_export_has_a_caller():
    dead = _exported() - _used_names() - set(KEEP)
    assert not dead, f"exported but never used by the package or perfbench: {sorted(dead)}"


def test_every_module_level_function_and_class_has_a_caller():
    dead = {(module, name) for module, name in _module_level() - _reads() if name not in KEEP}
    assert not dead, ("module-level functions and classes never used by the package or "
                      f"perfbench: {_dotted(dead)}")


def test_keep_list_is_current():
    # an entry leaves the list once its planned caller lands
    assert set(KEEP) <= _exported()
    assert not set(KEEP) & _used_names()


def test_every_public_method_has_a_caller():
    used = _used_names()
    dead = {qual for qual, name in _public_methods().items() if name not in used} - set(KEEP_METHODS)
    assert not dead, f"public methods never used by the package or perfbench: {sorted(dead)}"


def test_every_defaulted_parameter_is_set():
    unset = _unset_parameters() - set(KEEP_PARAMETERS)
    assert not unset, ("defaulted parameters that no call in the package or perfbench "
                       f"sets: {sorted(unset)}")


def test_method_and_parameter_keep_lists_are_current():
    methods = _public_methods()
    assert set(KEEP_METHODS) <= set(methods)
    assert not {methods[qual] for qual in KEEP_METHODS} & _used_names()
    assert set(KEEP_PARAMETERS) <= _unset_parameters()


def test_every_constant_is_read():
    constants = _constants()
    # the scan sees the Horner rotation's threshold and coefficient tables
    assert {("nonlinear", "ROTATION_TAYLOR_MAX"), ("nonlinear", "_COS"),
            ("nonlinear", "_SIN")} <= constants
    unread = set(_dotted(constants - _reads())) - set(KEEP_CONSTANTS)
    assert not unread, ("constants that no code in the package or perfbench reads: "
                        f"{sorted(unread)}")


def test_constant_keep_list_is_current():
    assert set(KEEP_CONSTANTS) <= set(_dotted(_constants()))
    assert not set(KEEP_CONSTANTS) & set(_dotted(_reads()))
