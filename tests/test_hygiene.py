"""Static hygiene of the library sources, using only the stdlib `ast` module.

Fails on a module-level import that the module never uses, on a
module-level private function that its own module never references, on an
import inside a function, on `specialize` importing the engine's factor
routines (its direct series must stay independent of them), and on
`sectors` or `validate` naming the LP's `nonneg_combination` outside
`cone_contains` (their support search is an exact linear solve; the LP
stays as the tests' independent oracle), and on any module but `multipoly`
naming `groebner_basis` or `normal_form` outside `_ring_table` (a ring is
reduced once per (model, fixed support), into one table of monomial normal
forms; ideal membership is linear algebra on the staircase basis), on any
module reading a `.forms` attribute outside `rings.class_of` (the one reader
of that table: class products, divisor classes and the engine's per-degree
factors all go through it), and on the engine's `hyper_factor` (or its
helpers `_gamma_series` and `_times_linear_series`) naming `linear_z_factor`
or `invert_linear_z_factor` (the engine multiplies each coordinate group out
in closed form, while the direct series keep the per-factor products, so the
two sides of a cross-check compute factors by different algorithms), or
naming `mul` or `class_from_character` (it multiplies integer polynomials
and reduces once, through `class_of`), and on a `rings` parameter in
`series` or `specialize` or a `rings` field on `GradedSeries` (ring memos
live in `rings`: `build_ring` per sector and `_ring_table` per fixed
support), and on an `lcm(...)` call reading `.denominator` anywhere but
`lattice.common_denominator` (how a rational vector becomes integer
numerators over one denominator is decided in one place).  The package
`__init__` is exempt from the unused-import check: it exists to re-export.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "glsmkit"
MODULES = sorted(SRC.glob("*.py"))


def _parsed():
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        yield path.name, tree, used


def test_no_unused_module_imports():
    unused = []
    for name, tree, used in _parsed():
        if name == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert not unused, unused


def test_no_unreferenced_private_functions():
    dead = [
        f"{name}: {node.name}"
        for name, tree, used in _parsed()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert not dead, dead


def test_no_function_local_imports():
    local = [
        f"{name}:{inner.lineno}"
        for name, tree, _used in _parsed()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert not local, local


def test_specialize_does_not_import_engine_factors():
    tree = ast.parse((SRC / "specialize.py").read_text(encoding="utf-8"))
    imported = {
        alias.name.split(".")[-1]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not imported & {"hyper_factor", "exp_factor"}, imported


HYPER_FACTOR = {"hyper_factor", "_gamma_series", "_times_linear_series"}


def _named_in_hyper_factor(targets):
    tree = ast.parse((SRC / "series.py").read_text(encoding="utf-8"))
    return {
        f"{node.name}: {getattr(inner, 'id', getattr(inner, 'attr', None))}"
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in HYPER_FACTOR
        for inner in ast.walk(node)
        if getattr(inner, "id", getattr(inner, "attr", None)) in targets
    }


def test_hyper_factor_does_not_use_per_factor_products():
    named = _named_in_hyper_factor({"linear_z_factor", "invert_linear_z_factor"})
    assert not named, named


def test_hyper_factor_reduces_once_without_ring_products():
    named = _named_in_hyper_factor({"mul", "class_from_character"})
    assert not named, named


def _named_outside(name, target, functions):
    """Lines of module `name` that name `target` outside the given functions."""
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    allowed = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in functions
        for inner in ast.walk(node)
    }
    return [
        f"{name}:{node.lineno}"
        for node in ast.walk(tree)
        if getattr(node, "id", getattr(node, "attr", None)) == target and id(node) not in allowed
    ]


def test_lp_cone_membership_only_inside_cone_contains():
    stray = []
    for name in ("sectors.py", "validate.py"):
        stray += _named_outside(name, "nonneg_combination", {"cone_contains"})
    assert not stray, stray


def test_groebner_reduction_only_while_building_rings():
    stray = []
    for path in MODULES:
        if path.name != "multipoly.py":
            stray += _named_outside(path.name, "groebner_basis", {"_ring_table"})
            stray += _named_outside(path.name, "normal_form", {"_ring_table"})
    assert not stray, stray


def test_ring_table_read_only_by_class_of():
    stray = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reader = {
            id(inner)
            for node in tree.body
            if path.name == "rings.py" and isinstance(node, ast.FunctionDef) and node.name == "class_of"
            for inner in ast.walk(node)
        }
        stray += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "forms" and id(node) not in reader
        ]
    assert not stray, stray


def test_one_ring_memo():
    stray = []
    for name in ("series.py", "specialize.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.arg) and node.arg == "rings":
                stray.append(f"{name}:{node.lineno}")
            if isinstance(node, ast.ClassDef) and node.name == "GradedSeries":
                stray += [
                    f"{name}:{item.lineno}"
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and getattr(item.target, "id", None) == "rings"
                ]
    assert not stray, stray


def test_denominators_cleared_only_by_common_denominator():
    stray = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        helper = {
            id(inner)
            for node in tree.body
            if path.name == "lattice.py" and isinstance(node, ast.FunctionDef) and node.name == "common_denominator"
            for inner in ast.walk(node)
        }
        stray += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "lcm"
            and id(node) not in helper
            and any(isinstance(inner, ast.Attribute) and inner.attr == "denominator" for inner in ast.walk(node))
        ]
    assert not stray, stray
