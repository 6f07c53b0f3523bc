"""Alias-aware call tracer for glsmkit, installed from outside the library.

glsmkit modules import each other's functions by name (``series`` binds
``build_ring``, ``rings`` binds ``normal_form``), so wrapping one module
attribute would miss most calls.  ``Tracer.install`` rebinds *every*
attribute of every loaded ``glsmkit.*`` module that is a traced function,
wraps the hot methods on their classes, and ``restore`` puts every original
object back.

Each call opens a frame on one stack.  Layer-boundary calls are kept as
spans ``(id, name, parent id, start, end, self)``; hot leaves, called tens of
thousands of times per job, are aggregated as count, total and self time per
(name, parent name).  Self time is a frame's time minus its children's.
Everything stays in memory until the run reads it at its end.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from fractions import Fraction
from itertools import count
from math import ceil

LAYERS = (
    "model", "validate", "rationallp", "lattice", "sectors", "multipoly", "rings",
    "scalars", "series", "specialize", "latexout", "cache", "cli",
)


def hyper_factor_count(args, kwargs, result) -> dict:
    """Number of linear factors hyper_factor(m, d, mode, ring) multiplies, from its inputs.

    Counts the integers nu of the documented ranges for x = <d, rho_i>:
    ambient takes [x, 0) for x < 0 and [0, x) for x > 0; glsm mode takes
    [x, 0] for x <= 0 and (0, x) for x > 0 on coordinates with nonzero R-charge.
    """
    m, d, mode = args[0], args[1], args[2]
    total = 0
    for i in range(m.r):
        x = sum((Fraction(c) * y for c, y in zip(m.column(i), d)), Fraction(0))
        if mode == "glsm" and m.r_charges[i] != 0:
            total += 1 - ceil(x) if x <= 0 else ceil(x) - 1
        else:
            total += abs(ceil(x)) if x != 0 else 0
    return {"series.hyper_factor.factors": total}


def _count(metric: str, size):
    return lambda args, kwargs, result: {metric: size(args, result)}


def _cache_get(args, kwargs, result) -> dict:
    return {"cache.cache_get.hits" if result is not None else "cache.cache_get.misses": 1}


# (module, attribute or Class.method, metric name, hot, extra counters)
TARGETS = (
    ("model", "parse_model", "model.parse_model", False, None),
    ("model", "model_from_dict", "model.model_from_dict", False, None),
    ("model", "model_hash", "model.model_hash", False, None),
    ("validate", "validate_model", "validate.validate_model", False, None),
    ("validate", "invariants_trivial", "validate.invariants_trivial", False, None),
    ("validate", "no_strict_semistable", "validate.no_strict_semistable", False, None),
    ("validate", "j_membership", "validate.j_membership", False, None),
    ("rationallp", "nonneg_combination", "rationallp.nonneg_combination", True, None),
    ("rationallp", "positive_functional", "rationallp.positive_functional", False, None),
    ("lattice", "congruence_kernel", "lattice.congruence_kernel", False, None),
    ("lattice", "smith_normal_form", "lattice.smith_normal_form", False, None),
    ("lattice", "solve_rational_system", "lattice.solve_rational_system", False, None),
    ("lattice", "rational_rank", "lattice.rational_rank", False, None),
    ("sectors", "semistable_supports", "sectors.semistable_supports", False, None),
    ("sectors", "inertia_sectors", "sectors.inertia_sectors", False, None),
    ("sectors", "effective_degrees", "sectors.effective_degrees", False,
     _count("sectors.effective_degrees.degrees", lambda a, r: len(r))),
    ("sectors", "sr_generators", "sectors.sr_generators", False, None),
    ("multipoly", "groebner_basis", "multipoly.groebner_basis", False, None),
    ("multipoly", "normal_form", "multipoly.normal_form", True, None),
    ("multipoly", "poly_mul", "multipoly.poly_mul", True, None),
    ("multipoly", "staircase_monomials", "multipoly.staircase_monomials", False, None),
    ("rings", "build_ring", "rings.build_ring", False,
     _count("rings.build_ring.dim_sum", lambda a, r: r.dimension)),
    ("rings", "CohClass.__mul__", "rings.cohclass_mul", True, None),
    ("rings", "class_from_character", "rings.class_from_character", False, None),
    ("rings", "divides_ideal", "rings.divides_ideal", False, None),
    ("rings", "class_to_json", "rings.class_to_json", False, None),
    ("rings", "class_from_json", "rings.class_from_json", False, None),
    ("scalars", "make_cyclo", "scalars.make_cyclo", True, None),
    ("series", "big_i_function", "series.big_i_function", False, None),
    ("series", "glsm_i_function", "series.glsm_i_function", False, None),
    ("series", "hyper_factor", "series.hyper_factor", False, hyper_factor_count),
    ("series", "exp_factor", "series.exp_factor", False, None),
    ("series", "LaurentZ.mul", "series.laurent_mul", True, None),
    ("series", "z_partial", "series.z_partial", False, None),
    ("series", "twist_novikov", "series.twist_novikov", False, None),
    ("series", "compact_type_report", "series.compact_type_report", False, None),
    ("series", "series_compare", "series.series_compare", False, None),
    ("series", "series_to_json", "series.series_to_json", False,
     _count("series.series_to_json.bytes", lambda a, r: len(r))),
    ("series", "series_from_json", "series.series_from_json", False, None),
    ("specialize", "specialization_from_model_file", "specialize.parse_spec", False, None),
    ("specialize", "fjrw_build", "specialize.build", False, None),
    ("specialize", "hybrid_build", "specialize.build", False, None),
    ("specialize", "ci_build", "specialize.build", False, None),
    ("specialize", "fjrw_direct_series", "specialize.direct_series", False, None),
    ("specialize", "hybrid_direct_series", "specialize.direct_series", False, None),
    ("specialize", "ci_ambient_series", "specialize.direct_series", False, None),
    ("specialize", "fjrw_crosscheck", "specialize.crosscheck", False, None),
    ("specialize", "hybrid_crosscheck", "specialize.crosscheck", False, None),
    ("specialize", "ci_compare", "specialize.crosscheck", False, None),
    ("latexout", "render_latex", "latexout.render_latex", False, None),
    ("cache", "job_key", "cache.job_key", False, None),
    ("cache", "cache_get", "cache.cache_get", False, _cache_get),
    ("cache", "cache_put", "cache.cache_put", False,
     _count("cache.cache_put.bytes", lambda a, r: len(a[1]))),
    ("cli", "main", "cli.main", False, None),
)


def library_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if (n == "glsmkit" or n.startswith("glsmkit.")) and m]


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[tuple] = []  # (id, name, parent id, start, end, self)
        self.hot: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])  # count, total, self
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, span id, start, child time]
        self._next_id = count(1).__next__
        self._rebound: list[tuple[object, str, object]] = []  # (owner, attribute, original)

    # --- frames ---------------------------------------------------------

    def open(self, name: str) -> None:
        """Open a span that is not a library call (the run, a job)."""
        self._stack.append([name, self._next_id(), self.clock(), 0.0])

    def close(self) -> None:
        end = self.clock()
        name, sid, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((sid, name, parent[1] if parent else None, start, end, dur - child))

    def _wrap(self, fn, name: str, hot: bool, extra):
        stack, clock, spans, hot_agg, counters = self._stack, self.clock, self.spans, self.hot, self.counters
        next_id = self._next_id

        if hot:
            def traced(*args, **kwargs):
                frame = [name, None, clock(), 0.0]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - frame[2]
                    stack.pop()
                    parent = stack[-1]
                    parent[3] += dur
                    agg = hot_agg[(name, parent[0])]
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[3]
        else:
            def traced(*args, **kwargs):
                frame = [name, next_id(), clock(), 0.0]
                stack.append(frame)
                ok = False
                try:
                    result = fn(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    end = clock()
                    stack.pop()
                    parent = stack[-1]
                    dur = end - frame[2]
                    parent[3] += dur
                    spans.append((frame[1], name, parent[1], frame[2], end, dur - frame[3]))
                    if ok and extra is not None:
                        for key, val in extra(args, kwargs, result).items():
                            counters[key] += val

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # --- install / restore ----------------------------------------------

    def install(self) -> None:
        """Rebind every traced function and method; opens the root "run" span."""
        self.open("run")
        modules = {m.__name__.rsplit(".", 1)[-1]: m for m in library_modules()}
        wrappers = {}
        for mod_name, attr, name, hot, extra in TARGETS:
            module = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                wrapper = self._wrap(original, name, hot, extra)
                for key, value in list(vars(cls).items()):  # e.g. __rmul__ = __mul__
                    if value is original:
                        self._rebind(cls, key, wrapper)
            else:
                original = getattr(module, attr)
                wrappers[id(original)] = (original, self._wrap(original, name, hot, extra))
        for module in library_modules():
            for key, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(module, key, hit[1])

    def _rebind(self, owner, key: str, wrapper) -> None:
        self._rebound.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, wrapper)

    def restore(self) -> None:
        while self._rebound:
            owner, key, original = self._rebound.pop()
            setattr(owner, key, original)
        while self._stack:
            self.close()

    def rebound(self) -> list[tuple[object, str, object]]:
        return list(self._rebound)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # --- results --------------------------------------------------------

    def inclusive(self) -> dict[str, tuple[int, float]]:
        """Per traced name: (calls, time), counting only outermost same-name calls."""
        by_id = {s[0]: s for s in self.spans}
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for sid, name, parent, start, end, _self in self.spans:
            out[name][0] += 1
            nested = False
            while parent is not None:
                anc = by_id.get(parent)
                if anc is None:
                    break
                if anc[1] == name:
                    nested = True
                    break
                parent = anc[2]
            if not nested:
                out[name][1] += end - start
        for (name, _parent), (count, total, _self) in self.hot.items():
            out[name][0] += count
            out[name][1] += total
        return {k: (v[0], v[1]) for k, v in out.items()}

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for _sid, name, _parent, _start, _end, self_s in self.spans:
            out[name] += self_s
        for (name, _parent), (_count, _total, self_s) in self.hot.items():
            out[name] += self_s
        return dict(out)

    def dump(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "hot": [[n, p, c, t, s] for (n, p), (c, t, s) in sorted(self.hot.items())],
            "counters": dict(self.counters),
        }
