"""The space contract of every op in the table of ``ops``, the table's
coverage of the public API, and that API's one list per module.

All conditional arguments of an op must live on one measure space.
Each argument in turn is built on another space, the same atom count
with other weights and one atom fewer, while the others stay; the op
must raise ``SpaceMismatchError``.  An op with one conditional argument
has no second space to compare, so only its locality is tested.
A per-atom precondition raises through ``errors._require`` alone, every
threshold is a name of ``tolerances``, and the CLI converts no result to
lists: ``io`` writes each one.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import stratalg
from ops import OPS, take
from stratalg import MeasureSpace, SpaceMismatchError

# the modules whose public names the package re-exports, in its order
REEXPORTED = (stratalg.core, stratalg.errors, stratalg.linalg, stratalg.sets, stratalg.functions,
              stratalg.sequences)

RESULT = "a result record: the op that returns it has an entry"
RAW = "takes no conditional data"

# public names no entry calls, with the reason
EXEMPT = {
    "MeasureSpace": RAW,
    "MeasurableSet": "a conditional type built from a space and a raw mask",
    "CondScalar": "a conditional type built from a space and raw values",
    "CondInteger": "a conditional type built from a space and raw values",
    "StratifiedBasis": "built from raw labels and picks; rank_partition, which returns it, "
                       "has an entry",
    "CondLinearMap": "built from raw matrices; extend_linear, which returns it, has an entry",
    "ConvexSetRep": "its families are checked by core._stack; hull, which builds it, has an entry",
    "Grid": RAW,
    "ext_add": RAW,
    "ext_mul": RAW,
    "largest_set_where": "its predicate is a raw array or a callable on atom indices, and its "
                         "one conditional argument, the region, has no second space to compare",
    "default_dual_grid": "reads every atom by design: its width is the steepest slope over "
                         "all atoms",
    "SeparationResult": RESULT,
    "SubdifferentialRep": RESULT,
    "ArgminResult": RESULT,
    "InfConvResult": RESULT,
    "InfConvChecks": RESULT,
    "FenchelMoreauReport": RESULT,
    "BWResult": RESULT,
    "CauchyResult": RESULT,
    "__version__": RAW,
}


def test_the_package_exports_each_modules_list():
    names = [name for module in REEXPORTED for name in module.__all__] + ["__version__"]
    assert stratalg.__all__ == names
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("module", REEXPORTED, ids=lambda m: m.__name__)
def test_every_public_function_or_class_a_module_defines_is_in_its_list(module):
    defined = {name for name, obj in vars(module).items()
               if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert defined == set(module.__all__)


def test_every_public_name_has_an_entry_or_an_exemption():
    called = {name for op in OPS.values() for name in op.call.__code__.co_names}
    errors = {name for name in stratalg.__all__
              if isinstance(getattr(stratalg, name), type)
              and issubclass(getattr(stratalg, name), Exception)}
    public = set(stratalg.__all__) - errors
    assert public - called - EXEMPT.keys() == set()
    assert called & EXEMPT.keys() == set()
    assert EXEMPT.keys() <= public


def test_only_errors_require_builds_a_precondition_error():
    # _require names every atom that fails a check, so no call site can
    # name fewer; each site is (module, top-level definition, line)
    sites = sorted((path.name, getattr(top, "name", None), node.lineno)
                   for path in Path(stratalg.__file__).parent.glob("*.py")
                   for top in ast.parse(path.read_text()).body
                   for node in ast.walk(top)
                   if isinstance(node, ast.Call)
                   and getattr(node.func, "id", getattr(node.func, "attr", None))
                   == "PreconditionError")
    assert [site[:2] for site in sites] == [("errors.py", "_require")], sites


def test_every_threshold_is_a_named_entry_of_the_tolerance_table():
    # a threshold states its decision and scale once, in tolerances.py, so
    # no other module writes a float literal in (0, 1), and every name in
    # the table is read somewhere in the package; each site is (module, line, value)
    trees = {path.name: ast.parse(path.read_text())
             for path in Path(stratalg.__file__).parent.glob("*.py")}
    table = trees.pop("tolerances.py")
    bare = sorted((name, node.lineno, node.value) for name, tree in trees.items()
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and type(node.value) is float
                  and 0 < abs(node.value) < 1)
    assert not bare, bare
    names = {target.id for node in table.body if isinstance(node, ast.Assign)
             for target in node.targets}
    read = {node.id for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert names - read == set()


def test_cli_leaves_the_document_layout_to_io():
    # emit_document writes every library object in the layout its reader
    # reads, so no handler converts one to lists; each site is (line, call)
    path = Path(stratalg.__file__).parent / "cli.py"
    sites = [(node.lineno, ast.unparse(node))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "tolist"]
    assert not sites, sites


@pytest.mark.parametrize("op", OPS)
def test_each_argument_on_another_space_raises(op):
    entry = OPS[op]
    data = entry.draw(np.random.default_rng(entry.seed), entry.K)
    args = entry.build(MeasureSpace(data["w"]), data)
    others = {
        "other weights": entry.build(MeasureSpace(2.0 * data["w"]), data),
        "one atom fewer": entry.build(MeasureSpace(data["w"][1:]), take(data, slice(1, None))),
    }
    missed = []
    for where, alien in others.items():
        for i in range(len(args) if len(args) > 1 else 0):
            try:
                entry.call(*args[:i], alien[i], *args[i + 1:])
            except SpaceMismatchError:
                continue
            missed.append((where, i))
    assert not missed, op
