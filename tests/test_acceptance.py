"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a pass/fail line with its measured runtime against the
stated budget (run pytest with -s to see them inline).
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from glsmkit.model import GLSMModel
from glsmkit.rings import class_from_character
from glsmkit.sectors import (
    effective_degrees,
    inertia_sectors,
    pairing,
    sector_of_degree,
)
from glsmkit.series import (
    LaurentZ,
    big_i_function,
    compact_type_report,
    glsm_i_function,
    hyper_factor,
    invert_linear_z_factor,
    linear_z_factor,
    series_compare,
    series_to_json,
    twist_novikov,
    z_partial,
)
from glsmkit.specialize import (
    CiSpec,
    FjrwSpec,
    HybridSpec,
    ci_build,
    fjrw_build,
    fjrw_crosscheck,
    fjrw_direct_series,
    hybrid_crosscheck,
)
from glsmkit.validate import invariants_trivial

from conftest import corpus

F = Fraction

CUBIC_SPEC = FjrwSpec(n=1, d_w=3, r_charges=(1,), group_data=((3, (1,)),), potential="x1^3")

QUINTIC_CI = CiSpec(
    ambient_r=5,
    k=1,
    ambient_weights=((1, 1, 1, 1, 1),),
    theta=(F(1),),
    taus=((5,),),
    sections=("x1^5+x2^5+x3^5+x4^5+x5^5",),
    semipositive_asserted=True,
    pairing_nondegenerate_asserted=True,
)


@contextmanager
def criterion(num: int, name: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num} ({name}): PASS in {elapsed:.2f}s (budget {budget}s)")
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def test_criterion_1_quintic_reproduction():
    with criterion(1, "quintic reproduction", 5.0):
        model = ci_build(QUINTIC_CI)
        series = glsm_i_function(model, q_bound=F(3))
        twisted = twist_novikov(series, [(5,)])
        # the identity sector is the only sector; its age phase is trivial,
        # so normalization is the twist alone, and the comparison absorbs
        # the sector Euler factor -5H on the classical side
        for d_int in range(4):
            d = (F(d_int),)
            value = twisted.terms[(d, ())]
            ring = value.ring
            h = class_from_character(ring, (1,))
            classical = LaurentZ.one(ring)
            for m in range(1, 5 * d_int + 1):
                classical = classical.mul(linear_z_factor(ring, h.scale(F(5)), F(m)))
            for m in range(1, d_int + 1):
                inv = invert_linear_z_factor(ring, h, F(m))
                for _ in range(5):
                    classical = classical.mul(inv)
            assert value == classical.scale_class(h.scale(F(-5))), f"degree {d_int}"
        # and the full comparison chain reports exact equality
        from glsmkit.specialize import ci_compare

        report = ci_compare(QUINTIC_CI, F(3))
        assert report["equal"], report["diff"]


def test_criterion_2_fjrw_cubic():
    with criterion(2, "affine-phase cubic", 2.0):
        report = fjrw_crosscheck(CUBIC_SPEC, F(4), t_order=1)
        assert report["equal"], report["diff"]

        direct = fjrw_direct_series(CUBIC_SPEC, F(4), t_order=1)
        ring1 = direct.terms[((F(-1, 3),), (0,))].ring
        assert direct.terms[((F(-1, 3),), (0,))] == LaurentZ.from_dict(ring1, {0: ring1.one()})
        assert direct.terms[((F(-1, 3),), (1,))] == LaurentZ.from_dict(ring1, {0: ring1.one()})
        v2 = direct.terms[((F(-2, 3),), (0,))]
        assert v2 == LaurentZ.from_dict(v2.ring, {-1: v2.ring.one()})
        v4 = direct.terms[((F(-4, 3),), (0,))]
        assert v4 == LaurentZ.from_dict(v4.ring, {-2: v4.ring.one().scale(F(-1, 18))})

        from glsmkit.specialize import fjrw_insertions

        model = fjrw_build(CUBIC_SPEC)
        etas, insertions = fjrw_insertions(CUBIC_SPEC)
        engine = glsm_i_function(model, etas, insertions, F(4), 0)
        present = {d for (d, _a) in engine.terms}
        for k in (3, 6, 9, 12):
            assert (F(-k, 3),) not in present, f"k={k} must vanish exactly"
        for k in (1, 2, 4, 5, 7, 8, 10, 11):
            assert (F(-k, 3),) in present
        assert {d for (d, _a) in direct.terms} == present


def test_criterion_3_hybrid_crosscheck():
    with criterion(3, "hybrid cross-check", 5.0):
        for spec in (HybridSpec(x_weights=(1,), p_weights=(3,)), HybridSpec(x_weights=(1, 1), p_weights=(2,))):
            report = hybrid_crosscheck(spec, F(3), t_order=1)
            assert report["equal"], (spec, report["diff"])


def test_criterion_4_mode_relation():
    with criterion(4, "glsm/ambient termwise identity", 5.0):
        for m in corpus():
            for d in effective_degrees(m, F(3)):
                from glsmkit.rings import build_ring

                ring = build_ring(m, sector_of_degree(m, d))
                lhs = hyper_factor(m, d, "glsm", ring, {})
                rhs = hyper_factor(m, d, "ambient", ring, {})
                for i in m.r_charged_indices():
                    rhs = rhs.mul(
                        linear_z_factor(
                            ring, class_from_character(ring, m.column(i)), pairing(d, m.column(i))
                        )
                    )
                assert lhs == rhs, (m.var_names(), d)


def test_criterion_5_z_partial_agreement():
    with criterion(5, "derivative method agreement", 10.0):
        from glsmkit.series import single_character_insertion

        for m in corpus():
            charged = [m.column(i) for i in m.r_charged_indices()]
            rho = charged if charged else [m.column(0)]
            etas = (m.column(0),)
            insertions = (single_character_insertion("t1", 0, 1),)
            s = big_i_function(m, etas, insertions, q_bound=F(2), t_order=2)
            a = z_partial(s, rho, "by_multiplication")
            b = z_partial(s, rho, "by_insertion")
            assert series_compare(a, b) == [], m.var_names()


def test_criterion_6_gordan_oracle():
    with criterion(6, "invariant-triviality oracle", 30.0):
        rng = random.Random(20260810)
        checked_nontrivial = 0
        for trial in range(50):
            k = rng.randint(1, 3)
            r = rng.randint(1, 6)
            weights = tuple(tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(k))
            m = GLSMModel(
                r=r,
                k=k,
                weights=weights,
                r_charges=(0,) * r,
                d_w=1,
                theta=(F(1),) * k,
                potential=None,
            )
            res = invariants_trivial(m, range(r))
            found = _bruteforce_invariant(weights, r, k, bound=12)
            if found is not None:
                assert not res.trivial, (weights, found)
            if res.trivial:
                assert found is None, (weights, found)
            else:
                cert = res.certificate
                assert any(cert) and all(v >= 0 for v in cert)
                for a in range(k):
                    assert sum(weights[a][i] * cert[i] for i in range(r)) == 0
                checked_nontrivial += 1
        assert checked_nontrivial > 0


def _bruteforce_invariant(weights, r, k, bound):
    rows = [list(row) for row in weights]
    exps = [0] * r

    def rec(pos, remaining, dots):
        if pos == r:
            if any(exps) and all(v == 0 for v in dots):
                return tuple(exps)
            return None
        for e in range(remaining + 1):
            exps[pos] = e
            nxt = [dots[a] + e * rows[a][pos] for a in range(k)]
            hit = rec(pos + 1, remaining - e, nxt)
            if hit is not None:
                return hit
        exps[pos] = 0
        return None

    return rec(0, bound, [0] * k)


def test_criterion_7_effective_cone_sanity():
    with criterion(7, "effective-cone sanity", 1.0):
        p1 = corpus()[0]
        cubic = corpus()[2]
        assert effective_degrees(p1, F(5)) == [(F(n),) for n in range(6)]
        assert effective_degrees(cubic, F(2)) == [(F(-k, 3),) for k in range(7)]
        for m in (p1, cubic):
            sectors = {g.lam for g in inertia_sectors(m)}
            for d in effective_degrees(m, F(2)):
                assert sector_of_degree(m, d).lam in sectors


def test_criterion_8_compact_type_report():
    with criterion(8, "compact-type report", 5.0):
        for m in corpus():
            s = glsm_i_function(m, q_bound=F(2))
            rep = compact_type_report(s)
            assert rep["hypothesis_holds"], m.var_names()
            assert rep["violations"] == [], (m.var_names(), rep["violations"])
        quintic = corpus()[1]
        ambient = big_i_function(quintic, q_bound=F(2))
        rep = compact_type_report(ambient)
        assert rep["violations"], "ambient series must fail the divisibility check"


def test_criterion_9_determinism_and_truncation(tmp_path, monkeypatch):
    with criterion(9, "determinism and truncation coherence", 30.0):
        from glsmkit.cli import main

        monkeypatch.setenv("GLSMKIT_CACHE_DIR", str(tmp_path / "cache"))
        from conftest import CUBIC, QUINTIC

        outputs = {}
        for name, data in (("quintic", QUINTIC), ("cubic", CUBIC)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(data), encoding="utf-8")
            cold_runs = []
            for attempt in range(3):
                target = tmp_path / f"{name}-{attempt}.series"
                code = main(
                    ["glsm-ifun", str(path), "--qbound", "2", "--no-cache", "--out", str(target)]
                )
                assert code == 0
                cold_runs.append(target.read_bytes())
            assert cold_runs[0] == cold_runs[1] == cold_runs[2]
            # repeated run, cache enabled, still byte-identical
            target2 = tmp_path / f"{name}-warm.series"
            assert main(["glsm-ifun", str(path), "--qbound", "2", "--out", str(target2)]) == 0
            assert main(["glsm-ifun", str(path), "--qbound", "2", "--out", str(target2)]) == 0
            assert target2.read_bytes() == cold_runs[0]
            outputs[name] = cold_runs[0]

        for m in (corpus()[1], corpus()[2]):
            from glsmkit.series import single_character_insertion

            etas = (m.column(0),)
            insertions = (single_character_insertion("t1", 0, 1),)
            big = big_i_function(m, etas, insertions, q_bound=F(3), t_order=2)
            small = big_i_function(m, etas, insertions, q_bound=F(2), t_order=1)
            assert series_to_json(big.restrict(F(2), 1)) == series_to_json(small)
            assert series_compare(big, small) == []
