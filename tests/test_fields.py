"""One field rule: every kernel refuses inputs with no common field alike.

The rule lives in ``exact.field_of`` and ``exact.join_fields``; point sets
and shapes carry its tag and the kernels join tags.  The table below runs
each kernel on the same two inputs, a float beside a SqrtExt and sqrt(2)
beside sqrt(3), and asserts the error class and the message.
"""

import ast
import inspect
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import larg_lab
from larg_lab.anchoring import GoodEnumeration, good_enumeration, validate_good_enumeration
from larg_lab.exact import SqrtExt
from larg_lab.geometry import (
    GeometryError,
    PolygonShape,
    Vec2,
    box_shape,
    distance,
    rational_hexagon,
    regular_hexagon,
)
from larg_lab.grids import GridError, generate_grid
from larg_lab.larg import in_range_pairs, sample_larg
from larg_lab.pointsets import PointSet, PointSetError, Window
from larg_lab.stepiso import (
    PointMap,
    StepIsoError,
    box_product_point_map,
    canonical_interleaving,
    is_isometry,
    is_step_isometry,
)

F = Fraction
R2, R3 = SqrtExt(0, 1, 2), SqrtExt(0, 1, 3)
WINDOW = Window(F(-4), F(-4), F(4), F(4))
POINTS = (Vec2(R2, F(0)), Vec2(R2 + F(1, 3), F(1, 2)), Vec2(F(1, 2), R2 - 1))
SQRT2_SET = PointSet(POINTS, WINDOW, 0, "rational")
RATIONAL_SET = PointSet((Vec2(F(0), F(0)), Vec2(F(1, 2), F(0)), Vec2(F(0), F(1, 3))), WINDOW, 0, "rational")
G = canonical_interleaving()

# each input pairs a shape with the points over sqrt(2): the regular hexagon
# has float generators, and its exact twin generators over sqrt(3)
SHAPES = {
    "float-sqrt": regular_hexagon(),
    "sqrt2-sqrt3": PolygonShape([Vec2(1, 0), Vec2(F(1, 2), R3 / 2), Vec2(F(-1, 2), R3 / 2)]),
}
BOXES = {"float-sqrt": box_shape(Vec2(1.0, 0.0), Vec2(0, 1)), "sqrt2-sqrt3": box_shape(Vec2(1, 0), Vec2(0, R3))}
# a second value of the other field beside the points over sqrt(2)
OTHER = {"float-sqrt": 0.5, "sqrt2-sqrt3": R3}
MESSAGES = {
    "float-sqrt": "a float and a SqrtExt have no common field",
    "sqrt2-sqrt3": "radicands [2, 3] have no common field",
}



def _mixed_images(kind) -> PointMap:
    return PointMap(RATIONAL_SET, POINTS[:2] + (Vec2(OTHER[kind], F(0)),))


KERNELS = {
    "PointSet": (PointSetError, lambda k: PointSet(POINTS + (Vec2(OTHER[k], F(0)),), WINDOW, 0)),
    "PolygonShape": (GeometryError, lambda k: PolygonShape([Vec2(1, 0), Vec2(0, OTHER[k]), Vec2(R2, 1)])),
    "distance": (GeometryError, lambda k: distance(SHAPES[k], POINTS[0], POINTS[1])),
    "in_range_pairs": (GeometryError, lambda k: in_range_pairs(SQRT2_SET, SHAPES[k], 1)),
    "sample_larg": (GeometryError, lambda k: sample_larg(SQRT2_SET, SHAPES[k], 1, 0.5, edge_seed=1)),
    "good_enumeration": (GeometryError, lambda k: good_enumeration(SQRT2_SET, SHAPES[k])),
    "validate_good_enumeration": (
        GeometryError,
        lambda k: validate_good_enumeration(GoodEnumeration(SQRT2_SET, SHAPES[k], (0, 1, 2), (None,) * 3, ())),
    ),
    "is_step_isometry": (GeometryError, lambda k: is_step_isometry(PointMap(SQRT2_SET, POINTS), SHAPES[k])),
    "is_isometry": (GeometryError, lambda k: is_isometry(PointMap(SQRT2_SET, POINTS), SHAPES[k])),
    # the images alone have no common field, under a rational shape
    "is_step_isometry images": (GeometryError, lambda k: is_step_isometry(_mixed_images(k), rational_hexagon())),
    "is_isometry images": (GeometryError, lambda k: is_isometry(_mixed_images(k), rational_hexagon())),
    "box_product_point_map": (StepIsoError, lambda k: box_product_point_map(SQRT2_SET, BOXES[k], G, G)),
    "generate_grid": (GridError, lambda k: generate_grid(POINTS[:2], SHAPES[k].generators, 1, 1)),
}


@pytest.mark.parametrize("kind", sorted(MESSAGES))
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_every_kernel_refuses_inputs_with_no_common_field(kernel, kind):
    error, call = KERNELS[kernel]
    with pytest.raises(error, match=f"^{re.escape(MESSAGES[kind])}$"):
        call(kind)


def test_images_do_not_join_the_domain():
    # an exact domain with float images, or images over another radicand,
    # is a step-isometry input: each side's distances are computed apart
    square = box_shape(Vec2(1, 0), Vec2(0, 1))
    floats = tuple(Vec2(float(v.x), float(v.y)) for v in RATIONAL_SET.points)
    assert is_step_isometry(PointMap(RATIONAL_SET, floats), square).ok
    # sqrt(2) -> sqrt(3): pair (0, 2) is at distance sqrt(2) - 1/2 < 1 in
    # the domain and sqrt(3) - 1/2 > 1 among the images
    swapped = (Vec2(R3, F(0)), Vec2(R3 + F(1, 3), F(1, 2)), Vec2(F(1, 2), R3 - 1))
    verdict = is_step_isometry(PointMap(SQRT2_SET, swapped), square)
    assert (verdict.ok, verdict.witness, verdict.left, verdict.right) == (False, (0, 2), 0, 1)


def test_only_exact_names_sqrtext():
    # the field rule stays in one place: no other module names the type
    # (docstrings and comments may)
    src = Path(__file__).resolve().parents[1] / "src" / "larg_lab"
    modules = sorted(src.glob("*.py"))
    assert any(p.name == "exact.py" for p in modules)
    for path in modules:
        if path.name == "exact.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(a.asname or a.name for a in node.names)
                names.update(a.name.rsplit(".", 1)[-1] for a in node.names)
        assert "SqrtExt" not in names, f"{path.name} names SqrtExt"


def _folded_numbers(tree):
    """(node, value) for each expression in tree built only of int and float
    literals and arithmetic operators, folded to its value: each literal, and
    each such expression around it, so 1 + 2.0**-40 yields 2.0**-40 too."""
    parts = (ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop)
    number = lambda n: isinstance(n, parts) or (isinstance(n, ast.Constant) and type(n.value) in (int, float))
    for node in ast.walk(tree):
        if isinstance(node, ast.expr) and all(map(number, ast.walk(node))):
            yield node, eval(compile(ast.Expression(node), "<folded>", "eval"))


def test_numeric_policy_stays_in_one_place():
    # exact owns the one float tolerance and close; larg owns the filter
    # guard and the float distance tables.  No module restates a tolerance:
    # a float below 1e-6 outside exact, a literal or a pure-number expression
    # such as 2.0**-48 folded to its value, lies in one of two named margins,
    # and the tolerance is read only where the policy is applied
    src = Path(__file__).resolve().parents[1] / "src" / "larg_lab"
    margins = {("stepiso.py", "_ISO_GUARD"), ("stepiso.py", "_CERT_SLACK")}
    readers = {
        ("larg.py", "_guard"),
        ("pointsets.py", "is_idf"),
        ("anchoring.py", "_face_table"),
        ("experiments.py", "_point_lookup"),
        ("stepiso.py", "_pair_scan"),
        ("stepiso.py", "is_isometry"),
    }
    owners = {
        "close": "exact.py",
        "_guard": "larg.py",
        "_block_gaps": "larg.py",
        "_distances": "larg.py",
        "_face_table": "anchoring.py",
    }
    defined = {}

    def visit(node, path, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defined.setdefault(node.name, []).append(path.name)
            func = node.name
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            assert name not in ("_BOUNDARY_GUARD", "_REL_TOL"), f"{path.name}:{node.lineno} names {name}"
            if name == "FLOAT_INTEGER_GUARD" and path.name != "exact.py":
                assert (path.name, func) in readers, f"{path.name}:{node.lineno} reads the tolerance in {func}"
        for child in ast.iter_child_nodes(node):
            visit(child, path, func)

    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visit(tree, path, None)
        if path.name == "exact.py":
            continue
        named = {
            id(part)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and (path.name, t.id) in margins for t in node.targets)
            for part in ast.walk(node.value)
        }
        for node, value in _folded_numbers(tree):
            if isinstance(value, float) and 0 < abs(value) < 1e-6:
                assert id(node) in named, f"{path.name}:{node.lineno} binds the float {value!r}"
    for name, owner in owners.items():
        assert defined.get(name) == [owner], f"{name} is defined in {defined.get(name)}"


def test_no_module_imports_a_name_it_never_reads():
    # an import whose name is never read is dead code; names a module lists
    # in __all__, and the package's re-exports, are read by its importers
    src = Path(__file__).resolve().parents[1] / "src" / "larg_lab"
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for a in node.names:
                    if a.name != "*":
                        imported[a.asname or a.name.split(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported.update(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read | exported]
    assert not unused, f"imported names never read: {unused}"


# public names no program file reads, each kept for the reason given
UNCALLED_BY_DESIGN = {
    "load_graph": "reads back the graph files the CLI writes with graph_lines",
    "rows_from_csv": "reads back the decay CSV that rows_to_csv writes",
    "pointmap_to_json": "writes the map files that pointmap_from_json reads",
    "shape_to_json": "writes the shape files that shape_from_json reads",
}


def names_read_outside_unit_tests() -> set:
    """Every name and attribute the package, a demo, the benchmark or the
    acceptance tests read."""
    root = Path(__file__).resolve().parents[1]
    files = [*root.glob("src/larg_lab/*.py"), *root.glob("demos/*.py"), *root.glob("perfbench/*.py")]
    read = set()
    for path in files + [root / "tests" / "test_acceptance.py"]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_public_name_has_a_caller():
    # a name in larg_lab.__all__ is read (as a name or an attribute) by the
    # package, a demo, the benchmark or the acceptance tests; a name that only
    # unit tests read is surface that does not pay for itself
    read = names_read_outside_unit_tests()
    public = set(larg_lab.__all__)
    assert sorted(public - read - set(UNCALLED_BY_DESIGN)) == []
    # the allowlist shrinks as soon as one of its names gains a reader
    assert sorted(n for n in UNCALLED_BY_DESIGN if n in read or n not in public) == []


def test_every_public_method_has_a_caller():
    # the same rule one level down: each public method, classmethod,
    # staticmethod and property a class of larg_lab.__all__ defines is read
    # as an attribute outside the unit tests
    read = names_read_outside_unit_tests()
    methods = (classmethod, staticmethod, property)
    unread = [
        f"{name}.{attr}"
        for name in larg_lab.__all__
        if isinstance(cls := getattr(larg_lab, name), type)
        for attr, value in vars(cls).items()
        if not attr.startswith("_") and (isinstance(value, methods) or inspect.isfunction(value)) and attr not in read
    ]
    assert unread == []


# numpy functions and modules that call BLAS
BLAS_NAMES = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot", "linalg"}


def test_no_module_calls_blas():
    # the package loads OpenBLAS with one thread (larg_lab/__init__.py), which
    # is free only while no layer multiplies matrices: no @, and no numpy
    # function or module of BLAS_NAMES.  Vec2.dot is a method of the package's
    # own vectors; an attribute dot is flagged only on the numpy module
    src = Path(__file__).resolve().parents[1] / "src" / "larg_lab"
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        numpy_names = {"numpy"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                numpy_names.update(a.asname or a.name for a in node.names if a.name == "numpy")
                paths = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                paths = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            parts = [p.split(".") for p in paths]
            found += [f"{path.name}:{node.lineno} imports {'.'.join(p)}" for p in parts if p[0] == "numpy" and BLAS_NAMES & set(p)]
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno} multiplies with @")
            elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
                on_numpy = isinstance(node.value, ast.Name) and node.value.id in numpy_names
                if node.attr != "dot" or on_numpy:
                    found.append(f"{path.name}:{node.lineno} reads .{node.attr}")
    assert not found, f"BLAS calls in src/: {found}"


_TASKS = """
import os, larg_lab
print(len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in Linux /proc")
def test_import_loads_openblas_with_one_thread():
    # a fresh interpreter: importing the package leaves one thread and the
    # environment as it was
    src = os.path.dirname(os.path.dirname(larg_lab.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}

    def tasks_and_variable(**extra):
        done = subprocess.run(
            [sys.executable, "-c", _TASKS], env={**env, "PYTHONPATH": src, **extra}, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.split()

    assert tasks_and_variable() == ["1", "None"]
    # a value the caller set is kept (its thread count depends on the host)
    assert tasks_and_variable(OPENBLAS_NUM_THREADS="2")[1] == "2"
