"""Static guards on the package's modules.

* Every global name a module reads is bound once it is imported.  A name used
  inside a function but never imported only fails when that function runs, so
  a missing import can hide behind the cases that reach it.  This walks each
  module's symbol tables (stdlib `symtable`, no linter needed) and checks
  every referenced global against the imported module's namespace and
  builtins.
* Every name a module lists in `__all__` is bound: a stale entry would
  otherwise be skipped without a word by readers that look names up with a
  default, such as the benchmark's tracer.
* No public function takes a family tag beside a parameter point: the point
  names its family.
* Derived data is kept on a point in one place: `_memo` and
  `object.__setattr__` appear in the package's code only inside
  `families.ParamPoint`.
* A family is named only where it is declared: a string constant equal to a
  family tag appears only in the registries and literal transcriptions
  (`families`, `burchnall`, `toda`).  Elsewhere a family list is read off
  those declarations.
"""

import ast
import builtins
import importlib
import inspect
import pkgutil
import symtable

import pytest

import askeykit
from askeykit.families import FAMILIES

MODULES = ["askeykit"] + sorted(
    f"askeykit.{info.name}" for info in pkgutil.iter_modules(askeykit.__path__)
)


def _tables(table):
    yield table
    for child in table.get_children():
        yield from _tables(child)


def _unbound_globals(module):
    with open(module.__file__, encoding="utf-8") as fh:
        source = fh.read()
    top = symtable.symtable(source, module.__file__, "exec")
    unbound = set()
    for table in _tables(top):
        at_module_level = table.get_type() == "module"
        for sym in table.get_symbols():
            name = sym.get_name()
            if not sym.is_referenced() or not (at_module_level or sym.is_global()):
                continue
            if not hasattr(module, name) and not hasattr(builtins, name):
                unbound.add(name)
    return sorted(unbound)


@pytest.mark.parametrize("name", MODULES)
def test_referenced_globals_are_bound(name):
    module = importlib.import_module(name)
    assert _unbound_globals(module) == []


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_bound(name):
    module = importlib.import_module(name)
    assert [public for public in getattr(module, "__all__", ()) if not hasattr(module, public)] == []


@pytest.mark.parametrize("name", MODULES)
def test_a_point_is_not_given_its_family_twice(name):
    module = importlib.import_module(name)
    doubled = []
    for public in getattr(module, "__all__", ()):
        fn = getattr(module, public)
        if inspect.isfunction(fn):
            params = inspect.signature(fn).parameters
            if "point" in params and ({"tag", "family"} & set(params)):
                doubled.append(public)
    assert doubled == []


def _memo_uses(tree) -> list:
    """Nodes naming `_memo` or calling `object.__setattr__`."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr == "_memo" or (
                node.attr == "__setattr__" and isinstance(node.value, ast.Name) and node.value.id == "object"
            ):
                uses.append(node)
        elif isinstance(node, ast.Name) and node.id == "_memo":
            uses.append(node)
    return uses


@pytest.mark.parametrize("name", MODULES)
def test_point_memo_is_private_to_the_point(name):
    module = importlib.import_module(name)
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "ParamPoint":
            inside.update(map(id, ast.walk(node)))
    stray = [(n.lineno, ast.unparse(n)) for n in _memo_uses(tree) if id(n) not in inside]
    assert stray == []


TAG_MODULES = {"askeykit.families", "askeykit.burchnall", "askeykit.toda"}


@pytest.mark.parametrize("name", sorted(set(MODULES) - TAG_MODULES))
def test_family_tags_are_named_only_where_declared(name):
    module = importlib.import_module(name)
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    named = [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in FAMILIES
    ]
    assert named == []
