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
* A carrier is named only in `ops`, where it is declared: no other module
  holds a string constant equal to a carrier's name, so none branches on
  one; and each Leibniz variant's operator acts on its family's carrier
  object itself.
* Every module-level private function or class is named somewhere in the
  package, so a helper left behind by a refactor does not linger unseen.
* The literal transcriptions stay independent of the generic engine: no
  expansion's k-th term, nor any module-level function it reaches, names a
  raising chain, an operator or a normalization, since their agreement with
  the engine is the test.
"""

import ast
import builtins
import importlib
import inspect
import pkgutil
import symtable
from random import Random

import pytest

import askeykit
from askeykit import ops
from askeykit.burchnall import EXPANSIONS
from askeykit.families import FAMILIES
from askeykit.sampling import sample_point
from askeykit.toda import MODIFIED_EXPANSIONS

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


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"askeykit.ops"}))
def test_carriers_are_named_only_in_ops(name):
    module = importlib.import_module(name)
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    carriers = {str(c) for c in (ops.POLY, ops.EVEN, ops.LAURENT)}
    named = [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in carriers
    ]
    assert named == []


def test_each_variant_acts_on_its_family_carrier():
    rng = Random(26)
    for tag, spec in FAMILIES.items():
        point = sample_point(tag, rng)
        assert [v.name for v in spec.variants if v.op_spec(point).carrier is not spec.carrier] == [], tag


def test_every_private_function_has_a_caller():
    # a module-level private def or class is reached only through its name, so
    # one that no module names (as a Name, an Attribute or an import) is dead
    defined, named = [], set()
    for name in MODULES:
        module = importlib.import_module(name)
        with open(module.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        defined += [
            (name, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.update({node.name, node.asname})
    assert [entry for entry in defined if entry[1] not in named] == []


ENGINE_NAMES = {
    "raise_chain", "apply_chain", "operational_terms", "operational_sum", "_pieces",
    "raising_operator", "op_spec", "weight_step", "ladder", "normalization",
}


def _names_reached(fn) -> set:
    """Every Name and Attribute named in fn and in the module-level functions
    of its module that it reaches by name."""
    with open(inspect.getsourcefile(fn), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    todo, seen, names = [fn.__name__], {fn.__name__}, set()
    while todo:
        for node in ast.walk(defs[todo.pop()]):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        reached = {n for n in names if n in defs} - seen
        seen |= reached
        todo += reached
    return names


def test_literal_transcriptions_never_reach_the_engine():
    reached = {
        e.id: sorted(_names_reached(e.term) & ENGINE_NAMES)
        for e in [*EXPANSIONS.values(), *MODIFIED_EXPANSIONS.values()]
    }
    assert {ident: names for ident, names in reached.items() if names} == {}
