"""Source checks over ``src/anchoragg``: no module imports a name it never
uses, no module-level private function, class or assigned name goes
unreferenced, every public name of the package is read by the package or
shown in the README, every public method of a public class is read by the
package or the bench or named in the README, every settable field of a
public dataclass is named outside its module, and every ``ParamsMixin``
estimator is a dataclass.
Uses only the standard library's ``ast``."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "anchoragg"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(tree: ast.Module, attributes: bool = False) -> set[str]:
    """Every name the module reads, and with ``attributes`` every attribute
    name it reads, plus the names it exports through ``__all__``. A name
    that is only assigned is not read."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif attributes and isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(n.value for n in ast.walk(node.value)
                        if isinstance(n, ast.Constant) and isinstance(n.value, str))
    return used


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    tree = _tree(path)
    unused = sorted(set(_imported_names(tree)) - _used_names(tree))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _defined_names(statement: ast.stmt):
    """The names a module-level statement defines: a function's or class's
    name, or every name an assignment binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield statement.name
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) \
            else [statement.target]
        for target in targets:
            yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_no_unreferenced_private_function():
    trees = {path.name: _tree(path) for path in MODULES}
    referenced = set()
    for tree in trees.values():
        referenced |= _used_names(tree, attributes=True)
        referenced |= set(_imported_names(tree))
    private = [f"{name}: {defined}" for name, tree in trees.items()
               for node in tree.body for defined in _defined_names(node)
               if defined.startswith("_") and not defined.startswith("__")
               and defined not in referenced]
    assert not private, f"module-level private names nothing reads: {private}"


def _read_names(tree: ast.Module):
    """Every name the module loads, as a name or an attribute, and every
    name it imports from a module of the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.ImportFrom) and node.level:
            yield from (alias.name for alias in node.names)


def _exported() -> dict[str, tuple[str, ...]]:
    """``__init__._SUBMODULE_NAMES``: submodule -> its public names."""
    init = _tree(PACKAGE / "__init__.py")
    return next(ast.literal_eval(node.value) for node in init.body
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "_SUBMODULE_NAMES"
                        for t in node.targets))


def test_every_export_is_read():
    exported = _exported()
    read = {name for path in MODULES if path.name != "__init__.py"
            for name in _read_names(_tree(path))}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unread = sorted(name for names in exported.values() for name in names
                    if name not in read and not re.search(rf"\b{name}\b", readme))
    assert not unread, f"public names nothing in the package or README reads: {unread}"


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def _named(tree: ast.Module) -> set[str]:
    """Every keyword argument, attribute and string constant in the module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_config_field_is_named_outside_its_module():
    """A field with a default that nothing outside its module names is a
    setting no caller sets: a constant."""
    others = [*MODULES, *sorted((ROOT / "bench").rglob("*.py")),
              *sorted((ROOT / "tests").glob("*.py"))]
    named = {path: _named(_tree(path)) for path in others}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unnamed = []
    for module, names in _exported().items():
        path = PACKAGE / f"{module}.py"
        for node in _tree(path).body:
            if not (isinstance(node, ast.ClassDef) and node.name in names
                    and _is_dataclass(node)):
                continue
            for field in node.body:
                if not (isinstance(field, ast.AnnAssign) and field.value is not None):
                    continue
                name = field.target.id
                if not (any(name in seen for other, seen in named.items()
                            if other != path)
                        or re.search(rf"\b{name}\b", readme)):
                    unnamed.append(f"{node.name}.{name}")
    assert not unnamed, f"settable fields nothing outside their module names: {unnamed}"


def test_params_mixin_estimators_are_dataclasses():
    """``ParamsMixin`` reads an estimator's parameters from its dataclass
    fields, and the dataclass repr prints them."""
    plain = [f"{path.name}: {node.name}" for path in MODULES
             for node in ast.walk(_tree(path))
             if isinstance(node, ast.ClassDef)
             and any(isinstance(b, ast.Name) and b.id == "ParamsMixin" for b in node.bases)
             and not _is_dataclass(node)]
    assert not plain, f"ParamsMixin classes that are not dataclasses: {plain}"


def test_every_public_method_is_read():
    """A public method of a public class that nothing in the package or the
    bench reads as an attribute, and that the README does not name in
    backticks, is surface only the tests use."""
    sources = [*MODULES, *sorted((ROOT / "bench").rglob("*.py"))]
    read = {node.attr for path in sources for node in ast.walk(_tree(path))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    quoted = " ".join(re.findall(r"`([^`]*)`",
                                 (ROOT / "README.md").read_text(encoding="utf-8")))
    unread = [f"{path.name}: {cls.name}.{method.name}" for path in MODULES
              for cls in _tree(path).body
              if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
              for method in cls.body
              if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not method.name.startswith("_") and method.name not in read
              and not re.search(rf"\b{method.name}\b", quoted)]
    assert not unread, f"public methods nothing outside the tests reads: {unread}"
