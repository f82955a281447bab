"""Layering: each module imports only the layers below it.

The order is the one the package docstring gives, bottom up.  Imports are
read from the sources with ast, so a layer that reaches upwards fails here
even where the import would happen to resolve.
"""
from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import pytest

import gonalslope
from gonalslope.bounds import ScenarioSpec
from gonalslope.chow import Record

PACKAGE = Path(gonalslope.__file__).resolve().parent
LAYERS = ("ratcalc", "chow", "chern", "grr", "slope", "bounds", "verify", "cli")
#: names a layer may import from the package root itself
ROOT_NAMES = {"cli": {"__version__"}}


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _relative_imports(module: str) -> dict[str, set[str]]:
    """Imported package module (or '' for the package root) -> names imported from it."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(_tree(module)):
        if not isinstance(node, ast.ImportFrom) or not node.level:
            continue
        names = {alias.name for alias in node.names}
        if node.module:
            found.setdefault(node.module, set()).update(names)
        else:  # `from . import x`: x is a module, or a name of the package root
            for name in names:
                if name in LAYERS:
                    found.setdefault(name, set())
                else:
                    found.setdefault("", set()).add(name)
    return found


def test_every_module_is_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert modules - {"__init__", "__main__"} == set(LAYERS)


def test_package_docstring_names_the_layers_in_order():
    positions = [re.search(rf"\b{layer}\s+\(", gonalslope.__doc__).start()
                 for layer in LAYERS]
    assert positions == sorted(positions)


@pytest.mark.parametrize("module", LAYERS)
def test_module_imports_only_lower_layers(module):
    below = set(LAYERS[:LAYERS.index(module)])
    imports = _relative_imports(module)
    assert set(imports) - {""} <= below
    assert imports.get("", set()) <= ROOT_NAMES.get(module, set())


def test_the_c2_substitution_calls_slope():
    """bounds substitutes a c2 bound through the slope layer's functions."""
    from_slope = _relative_imports("bounds")["slope"]
    helper = next(node for node in _tree("bounds").body
                  if isinstance(node, ast.FunctionDef) and node.name == "_substituted")
    called = {node.func.id for node in ast.walk(helper)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert {"trigonal_blowup_parts", "fourgonal_blowup_parts"} <= called & from_slope


def _imported_names(tree: ast.Module) -> set[str]:
    """The names a module's imports bind, anywhere in it; __future__ imports bind none."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", sorted({*LAYERS, "__main__"}))
def test_module_uses_every_name_it_imports(module):
    """An import a deletion leaves behind fails here."""
    tree = _tree(module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert _imported_names(tree) - used == set()


def test_package_root_imports_exactly_its_all():
    assert _imported_names(_tree("__init__")) == set(gonalslope.__all__)


#: (module, function) where a RatFunc type test picks a storage or result
#: representation; whether a value is a number is ratcalc.concrete's to say
RATFUNC_TYPE_TESTS = {("chow", "NumClass.__init__"), ("chow", "NumClass.__rmul__")}


def _names_ratfunc(node: ast.expr) -> bool:
    """node is the name RatFunc, or a tuple or set that holds it."""
    if isinstance(node, (ast.Tuple, ast.Set)):
        return any(map(_names_ratfunc, node.elts))
    return isinstance(node, ast.Name) and node.id == "RatFunc"


def _is_ratfunc_type_test(node: ast.AST) -> bool:
    """node is an isinstance or issubclass call, or a comparison, that names RatFunc."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("isinstance", "issubclass"):
        return any(map(_names_ratfunc, node.args[1:]))
    return isinstance(node, ast.Compare) \
        and any(isinstance(op, (ast.Is, ast.IsNot, ast.In, ast.NotIn, ast.Eq, ast.NotEq))
                for op in node.ops) \
        and any(map(_names_ratfunc, [node.left, *node.comparators]))


def _scopes(module: str, hit) -> set[tuple[str, str]]:
    """(module, qualified name of the function around it) for each node hit accepts."""
    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if hit(node):
            yield module, scope
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)
    return set(visit(_tree(module), ""))


def test_only_ratcalc_tells_a_number_from_a_function_of_g():
    """Outside ratcalc a RatFunc type test only picks a representation; equality
    also shows that the search finds the two that do."""
    found = set().union(*(_scopes(module, _is_ratfunc_type_test) for module in LAYERS[1:]))
    assert found == RATFUNC_TYPE_TESTS


#: (module, function) that reads a genus floor: the one gate, and verify's draw ranges
GENUS_FLOOR_READS = {("bounds", "genus_notes"), ("verify", "check_blownup_c1_roundtrip"),
                     ("verify", "check_exceptional_solve"),
                     ("verify", "check_base_genus_independence")}


def _reads_genus_floor(node: ast.AST) -> bool:
    """node is GENUS_FLOOR[...] or x.GENUS_FLOOR[...]."""
    return isinstance(node, ast.Subscript) and "GENUS_FLOOR" in (
        getattr(node.value, "id", None), getattr(node.value, "attr", None))


def test_only_genus_notes_reads_the_floor():
    """The floor is the one rule --allow-out-of-range relaxes, stated in one gate."""
    found = set().union(*(_scopes(module, _reads_genus_floor) for module in LAYERS))
    assert found == GENUS_FLOOR_READS


def test_genus_problem_has_no_floor_parameter():
    """genus_problem states the rules no flag relaxes; the floor is genus_notes'."""
    assert list(inspect.signature(ScenarioSpec.genus_problem).parameters) == ["self", "g"]


def _calls_self_fill(node: ast.AST) -> bool:
    """node is a call of self._fill."""
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
        and node.func.attr == "_fill" and getattr(node.func.value, "id", None) == "self"


def test_a_record_defines_init_only_to_check_its_values():
    """Record.__init__ stores the values of a record that checks nothing.  An __init__
    a Record subclass defines stores them with self._fill and does more; one whose
    body, docstring aside, is the _fill call alone is refused.  Only chow names _key."""
    records = {cls.__name__ for cls in Record.__subclasses__()}
    checking, refused = set(), []
    for module in LAYERS:
        tree = _tree(module)
        names = {getattr(node, field, None) for node in ast.walk(tree) for field in ("attr", "id")}
        assert module == "chow" or "_key" not in names, module
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and cls.name in records):
                continue
            for init in (f for f in cls.body if getattr(f, "name", None) == "__init__"):
                body = init.body[1:] if ast.get_docstring(init) else init.body
                fills = [any(map(_calls_self_fill, ast.walk(stmt))) for stmt in body]
                if any(fills) and not all(fills):
                    checking.add(cls.name)
                else:
                    refused.append(cls.name)
    assert refused == []
    assert {scope.partition(".")[0] for module in LAYERS
            for _, scope in _scopes(module, _calls_self_fill)} == checking


def _is_seed_offset(node: ast.expr) -> bool:
    """node is _SEED + k, k an int literal."""
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) \
        and getattr(node.left, "id", None) == "_SEED" \
        and type(getattr(node.right, "value", None)) is int


def test_verify_builds_every_generator_from_its_own_seed():
    """In verify every generator is _Rng(_SEED + k) inside a check, k a literal
    no other check uses, and no call goes to the random module: one sampler,
    and one table of independent seeds."""
    tree = _tree("verify")
    on_random = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and (getattr(node.func, "id", None) == "Random"
                      or getattr(getattr(node.func, "value", None), "id", None) == "random")]
    assert on_random == []
    owner: dict[int, str] = {}
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_Rng":
                assert isinstance(top, ast.FunctionDef) and not node.keywords \
                    and len(node.args) == 1 and _is_seed_offset(node.args[0]), ast.unparse(node)
                assert owner.setdefault(node.args[0].right.value, top.name) == top.name, \
                    f"{top.name} reuses the seed of {owner[node.args[0].right.value]}"
    assert owner, "verify builds no _Rng"


@pytest.mark.parametrize("module", sorted({*LAYERS, "__init__", "__main__"}))
def test_bool_is_the_only_zero_test(module):
    """RatFunc.__bool__ says whether a value is zero; no is_zero spells it twice."""
    names = {getattr(node, field, None) for node in ast.walk(_tree(module))
             for field in ("attr", "name", "id")}
    assert "is_zero" not in names


def _compares_with_zero(node: ast.AST) -> bool:
    """node is a == or != comparison with the int literal 0 on either side."""
    return isinstance(node, ast.Compare) \
        and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) \
        and any(isinstance(side, ast.Constant) and type(side.value) is int and side.value == 0
                for side in [node.left, *node.comparators])


def test_zero_is_tested_by_truth_outside_ratcalc():
    """Outside ratcalc a value is zero when it is falsy (`not x`); an `x == 0` or
    `x != 0` states the zero test a second time.  ratcalc works on the int
    coefficients themselves."""
    found = set().union(*(_scopes(module, _compares_with_zero)
                          for module in sorted({*LAYERS[1:], "__init__", "__main__"})))
    assert found == set()


def _raises_zero_chi(node: ast.AST) -> bool:
    """node is `raise ZeroChiError(...)`, through a module attribute or not."""
    exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
    if isinstance(exc, ast.Call):
        exc = exc.func
    return "ZeroChiError" in (getattr(exc, "id", None), getattr(exc, "attr", None))


def test_only_ratio_raises_zero_chi():
    """slope._ratio forms every slope and is the one place chi_f = 0 is refused."""
    found = set().union(*(_scopes(module, _raises_zero_chi) for module in LAYERS))
    assert found == {("slope", "_ratio")}


def _renders(node: ast.AST) -> bool:
    """node compares the output format (fmt, an args.format or a format name), or
    imports csv or json."""
    if isinstance(node, ast.Compare):
        return any(isinstance(op, ast.Name) and op.id == "fmt"
                   or isinstance(op, ast.Attribute) and op.attr == "format"
                   or isinstance(op, ast.Constant) and op.value in ("table", "csv", "jsonl")
                   for op in [node.left, *node.comparators])
    if isinstance(node, ast.Import):
        return any(alias.name in ("csv", "json") for alias in node.names)
    return isinstance(node, ast.ImportFrom) and node.module in ("csv", "json")


def test_one_writer_renders_every_format():
    """cli._emit states every output rule; no subcommand branches on --format."""
    assert _scopes("cli", _renders) == {("cli", "_emit")}
