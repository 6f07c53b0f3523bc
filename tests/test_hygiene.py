"""Static hygiene of the library sources, using only the stdlib `ast` module.

Fails on a module-level import that the module never uses, on a
module-level private function that its own module never references, on a
module-level function that no library module loads (as a name or an
attribute) outside the function's own body, where a name in `cli.FAMILIES`
counts as loaded (`cli.COMMANDS` loads each command), except the functions
that `perfbench/tracer.py` binds by name and no library path calls (that list
must equal the tracer's `TARGETS` without a library caller, so it shrinks as
they are deleted), on an import inside a function, on `specialize` importing
the engine's factor routines (its direct series must stay independent of
them), and on any module but `rationallp` naming the LP's
`nonneg_combination` (the support search is an exact linear solve; the LP
stays as the tests' independent oracle), and on any module but `multipoly`
naming `groebner_basis` or `normal_form` outside `_ring_table` (a ring is
reduced once per (model, fixed support), into one table of monomial normal
forms; ideal membership is linear algebra on the staircase basis), on any
module reading a `.forms` attribute outside `rings.class_of` (the one reader
of that table: class products, divisor classes and the engine's per-degree
factors all go through it), and on the engine's `hyper_factor` (or its
helpers `_gamma_series`, `_extend_prefix` and `_times_linear_series`) naming `linear_z_factor`
or `invert_linear_z_factor` (the engine multiplies each coordinate group out
in closed form, while the direct series keep the per-factor products, so the
two sides of a cross-check compute factors by different algorithms), or
naming `mul` or `class_from_character` (it multiplies integer polynomials
and reduces once, through `class_of`), on `_gamma_series` or
`_extend_prefix` naming `Fraction` or `InternalError` (every prefix-table
entry is integer numerators over one integer denominator, and an inverted
factor's scalar part is never zero), and on a `rings` parameter in
`series` or `specialize` or a `rings` field on `GradedSeries`, or on an
`lru_cache` in `rings` anywhere but on `_ring_table` (the ring layer has one
memo, one table per (model, fixed support); `build_ring` labels a table with
its sector), on the direct series or their insertion exponential naming
`times_characters` (the degree-factor product of the comparisons stays on
the comparison side), on `ci_ambient_series` or `hybrid_direct_series`
not naming both `linear_z_factor` and `invert_linear_z_factor`, or naming
`hyper_factor`, `_gamma_series`, `_times_linear_series` or `exp_factor`
(their runs of prefix products still take one literal factor per
product), and on an `lcm(...)` call reading `.denominator`
anywhere but `lattice.common_denominator` (how a rational vector becomes integer
numerators over one denominator is decided in one place), on any module
naming `invariants_trivial` but its definition, `validate.glsm_hypothesis`
and the package re-export (the series' hypothesis is decided once per
model), on `specialize` constructing a `GLSMModel` outside `fjrw_build`
and `ci_build` or naming `t_exponents` outside `_insertion_exponential`, and
on `series` or `specialize` constructing a `GradedSeries` anywhere but
`series.empty_series` (the hybrid model is a phase of the sections model,
the engine, the reader and the direct series start from one empty series,
and the direct series share one insertion exponential), on `series_compare`
naming `theta_degree` (both truncation regions are cut by
`GradedSeries.restrict`), on `z_partial` naming `_assemble`,
`big_i_function`, `glsm_i_function`, `effective_degrees`, `sector_rings` or
`hyper_factor` (the derivative acts on the terms of the series it is given,
not on a recomputation), on a function in `sectors` that defines a nested
function or calls itself (the Stanley-Reisner sets are formed by one loop,
Berge's update, not by a recursive search), and on any module but `model`
defining a class whose name ends in `InternalError` (one internal-error
type, exit code 3), and on a parameter of any function or lambda that its body never reads,
except `self`, `cls` and names that start with `_` (a value the caller
passes is used, or it is not asked for), on any module importing click
or a `pyproject.toml` that declares a runtime dependency (the package is
standard library only; its CLI parses argv against one table), and on
`cli.py` naming `stdout`, printing without a `file=` keyword, or calling
`open`, `write`, `write_text` or `write_bytes` anywhere but `_emit` (the one
writer of artifacts, which keeps no captured stdout of an in-process call
alive), and on a module that does not parse under the Python 3.10 grammar
(the oldest Python the package supports).  Three rules read a test module:
the GKZ recurrence oracle and the Γ-table oracle in `tests/test_series.py`
name none of the engine's factor routines, and the fixed-point Hilbert
function oracle in `tests/test_rings.py` names no `multipoly` function and
reads no attribute of a ring but `ring.staircase`, so they stay independent
of the code they check.  The package `__init__` is exempt from the unused-import
check: it exists to re-export.
"""

import ast
import re
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


# Bound by name in perfbench/tracer.py, whose `install` fails on a missing
# attribute, and called by no library path: they are deleted once the tracer
# stops naming them, and this list shrinks with them.
TRACED_WITHOUT_CALLER = {
    ("lattice", "rational_rank"),
    ("lattice", "solve_rational_system"),
    ("rationallp", "nonneg_combination"),
    ("rings", "divides_ideal"),
    ("sectors", "sr_generators"),
}


def _assigned(tree, name):
    """The value assigned to module-level `name`."""
    return next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]
    )


def _loaded_outside_own_body():
    """(module, function) for every module-level function, mapped to whether the library loads its name elsewhere."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    loads = {}  # name -> ids of the Name and Attribute nodes that load it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                loads.setdefault(getattr(node, "id", getattr(node, "attr", None)), set()).add(id(node))
    named = {node.value for node in ast.walk(_assigned(trees["cli"], "FAMILIES")) if isinstance(node, ast.Constant)}
    out = {}
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            own = {id(inner) for inner in ast.walk(node)}
            out[(module, node.name)] = node.name in named or bool(loads.get(node.name, set()) - own)
    return out


def _tracer_targets():
    """(module, attribute) of every plain function in perfbench/tracer.py's TARGETS, read without importing it."""
    tree = ast.parse((SRC.parent.parent / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    pairs = {(entry.elts[0].value, entry.elts[1].value) for entry in _assigned(tree, "TARGETS").elts}
    return {(module, attr) for module, attr in pairs if "." not in attr}


def test_every_module_function_has_a_library_caller():
    loaded = _loaded_outside_own_body()
    uncalled = {key for key, used in loaded.items() if not used}
    assert uncalled == TRACED_WITHOUT_CALLER
    traced = {key for key in _tracer_targets() if key in loaded and not loaded[key]}
    assert traced == TRACED_WITHOUT_CALLER


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


HYPER_FACTOR = {"hyper_factor", "_gamma_series", "_extend_prefix", "_times_linear_series"}


def _named_in_functions(path, functions, targets):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        f"{node.name}: {getattr(inner, 'id', getattr(inner, 'attr', None))}"
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in functions
        for inner in ast.walk(node)
        if getattr(inner, "id", getattr(inner, "attr", None)) in targets
    }


def _named_in_hyper_factor(targets):
    return _named_in_functions(SRC / "series.py", HYPER_FACTOR, targets)


def test_hyper_factor_does_not_use_per_factor_products():
    named = _named_in_hyper_factor({"linear_z_factor", "invert_linear_z_factor"})
    assert not named, named


def test_hyper_factor_reduces_once_without_ring_products():
    named = _named_in_hyper_factor({"mul", "class_from_character"})
    assert not named, named


def test_gamma_tables_are_integer_only():
    named = _named_in_functions(SRC / "series.py", {"_gamma_series", "_extend_prefix"}, {"Fraction", "InternalError"})
    assert not named, named


def test_gkz_oracle_does_not_use_engine_factors():
    oracle = {"_gkz_relations", "_times_gkz_factors", "test_gkz_recurrence", "test_gkz_recurrence_on_the_corpus"}
    path = Path(__file__).resolve().parent / "test_series.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert oracle <= defined, oracle - defined
    named = _named_in_functions(path, oracle, HYPER_FACTOR | {"exp_factor", "invert_linear_z_factor"})
    assert not named, named


def test_gamma_table_oracle_does_not_use_engine_factors():
    path = Path(__file__).resolve().parent / "test_series.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert "_truncated_gamma_product" in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    named = _named_in_functions(path, {"_truncated_gamma_product"}, HYPER_FACTOR | {"invert_linear_z_factor"})
    assert not named, named


def test_fixed_point_oracle_does_not_use_groebner():
    oracle = {
        "_fixed_point_hilbert",
        "_check_fixed_point_hilbert",
        "test_fixed_point_hilbert_on_the_corpus",
        "test_fixed_point_hilbert_on_random_models",
    }
    path = Path(__file__).resolve().parent / "test_rings.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert oracle <= {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    multipoly = ast.parse((SRC / "multipoly.py").read_text(encoding="utf-8"))
    named = _named_in_functions(path, oracle, {node.name for node in multipoly.body if isinstance(node, ast.FunctionDef)})
    read = {
        f"{node.name}: ring.{inner.attr}"
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in oracle
        for inner in ast.walk(node)
        if isinstance(inner, ast.Attribute) and getattr(inner.value, "id", None) == "ring" and inner.attr != "staircase"
    }
    assert not named and not read, named | read


def _found_outside(name, functions, hit):
    """Lines of module `name` holding a node that `hit` accepts, outside the given functions."""
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    allowed = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in functions
        for inner in ast.walk(node)
    }
    return [f"{name}:{node.lineno}" for node in ast.walk(tree) if hit(node) and id(node) not in allowed]


def _named_outside(name, target, functions):
    """Lines of module `name` that name `target` outside the given functions."""
    return _found_outside(name, functions, lambda node: getattr(node, "id", getattr(node, "attr", None)) == target)


def _calls_outside(name, target, functions):
    """Lines of module `name` that call `target` outside the given functions."""
    return _found_outside(
        name, functions, lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", None) == target
    )


def test_lp_cone_membership_named_only_by_rationallp():
    stray = []
    for path in MODULES:
        if path.name != "rationallp.py":
            stray += _named_outside(path.name, "nonneg_combination", set())
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


def test_one_lru_cache_in_rings_on_ring_table():
    tree = ast.parse((SRC / "rings.py").read_text(encoding="utf-8"))
    memoised = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        for deco in node.decorator_list
        if "lru_cache" in {getattr(inner, "id", getattr(inner, "attr", None)) for inner in ast.walk(deco)}
    ]
    named = sum(getattr(node, "id", getattr(node, "attr", None)) == "lru_cache" for node in ast.walk(tree))
    assert memoised == ["_ring_table"], memoised
    assert named == 1, named  # the decorator; a wrapping call such as lru_cache()(build_ring) would name it again


def test_direct_series_do_not_use_the_comparison_product():
    direct = {"fjrw_direct_series", "hybrid_direct_series", "ci_ambient_series", "_insertion_exponential"}
    tree = ast.parse((SRC / "specialize.py").read_text(encoding="utf-8"))
    assert direct <= {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    named = _named_in_functions(SRC / "specialize.py", direct, {"times_characters"})
    assert not named, named


def test_direct_series_keep_their_per_factor_products():
    # the runs still multiply one literal factor at a time, and read none of the engine's closed forms
    path = SRC / "specialize.py"
    for name in ("ci_ambient_series", "hybrid_direct_series"):
        named = _named_in_functions(path, {name}, {"linear_z_factor", "invert_linear_z_factor"})
        assert named == {f"{name}: linear_z_factor", f"{name}: invert_linear_z_factor"}, named
    engine = {"hyper_factor", "_gamma_series", "_times_linear_series", "exp_factor"}
    named = _named_in_functions(path, {"ci_ambient_series", "hybrid_direct_series"}, engine)
    assert not named, named


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


def test_hypothesis_lp_named_only_by_glsm_hypothesis():
    stray = []
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        stray += _named_outside(path.name, "invariants_trivial", {"glsm_hypothesis"})
        tree = ast.parse(path.read_text(encoding="utf-8"))
        stray += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and any(alias.name == "invariants_trivial" for alias in node.names)
        ]
    assert not stray, stray


def test_direct_series_share_one_model_one_skeleton_one_exponential():
    stray = _calls_outside("specialize.py", "GLSMModel", {"fjrw_build", "ci_build"})
    stray += _calls_outside("specialize.py", "GradedSeries", set())
    stray += _calls_outside("series.py", "GradedSeries", {"empty_series"})
    stray += _named_outside("specialize.py", "t_exponents", {"_insertion_exponential"})
    assert not stray, stray


def test_z_partial_acts_on_the_series_it_is_given():
    engine = {"_assemble", "big_i_function", "glsm_i_function", "effective_degrees", "sector_rings", "hyper_factor"}
    named = _named_in_functions(SRC / "series.py", {"z_partial"}, engine)
    assert not named, named


def test_series_compare_cuts_regions_only_through_restrict():
    named = _named_in_functions(SRC / "series.py", {"series_compare"}, {"theta_degree"})
    assert not named, named


def test_stanley_reisner_search_is_one_loop():
    tree = ast.parse((SRC / "sectors.py").read_text(encoding="utf-8"))
    stray = [
        f"sectors.py:{inner.lineno} {node.name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if inner is not node and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
        or isinstance(inner, ast.Call) and getattr(inner.func, "id", None) == node.name
    ]
    assert not stray, stray


def test_one_internal_error_type():
    stray = [
        f"{path.name}: {node.name}"
        for path in MODULES
        if path.name != "model.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and node.name.endswith("InternalError")
    ]
    assert not stray, stray


def test_every_parameter_is_read():
    stray = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                inner.id
                for stmt in body
                for inner in ast.walk(stmt)
                if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load)
            }
            stray += [
                f"{path.name}:{node.lineno} {getattr(node, 'name', 'lambda')}({p})"
                for p in params
                if p not in read and p not in ("self", "cls") and not p.startswith("_")
            ]
    assert not stray, stray


def _writes_stdout_or_a_file(node):
    """A node that names stdout, writes a file, or prints without a file= keyword."""
    if getattr(node, "id", getattr(node, "attr", None)) == "stdout":
        return True
    if not isinstance(node, ast.Call):
        return False
    called = getattr(node.func, "id", getattr(node.func, "attr", None))
    if called == "print":
        return not any(keyword.arg == "file" for keyword in node.keywords)
    return called in {"open", "write", "write_text", "write_bytes"}


def test_artifacts_written_only_by_emit():
    stray = _found_outside("cli.py", {"_emit"}, _writes_stdout_or_a_file)
    assert not stray, stray


def test_standard_library_only():
    imported = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "click" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "click"
    ]
    assert not imported, imported
    pyproject = (SRC.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.findall(r"^dependencies\s*=\s*\[([^\]]*)\]", pyproject, re.MULTILINE)
    assert declared == [""], declared


def test_sources_parse_under_the_python_3_10_grammar():
    """Best effort: `feature_version` rejects syntax newer than 3.10, such as
    `except*` and PEP 695 generics, but not a stdlib name added after 3.10."""
    newer = []
    for path in MODULES:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=path.name, feature_version=(3, 10))
        except SyntaxError as e:
            newer.append(f"{path.name}:{e.lineno} {e.msg}")
    assert not newer, newer
