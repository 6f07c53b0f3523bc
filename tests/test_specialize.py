from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from glsmkit import specialize
from glsmkit.model import InputError
from glsmkit.rings import class_from_character
from glsmkit.scalars import Cyclo, format_rational
from glsmkit.sectors import inertia_sectors, theta_degree
from glsmkit.series import (
    HypothesisError,
    Insertion,
    LaurentZ,
    big_i_function,
    glsm_i_function,
    invert_linear_z_factor,
    linear_z_factor,
    series_from_json,
    series_to_json,
)
from glsmkit.specialize import (
    CiSpec,
    FjrwSpec,
    HybridSpec,
    ci_ambient_series,
    ci_build,
    ci_compare,
    fjrw_build,
    fjrw_crosscheck,
    fjrw_direct_series,
    hybrid_build,
    hybrid_crosscheck,
    hybrid_direct_series,
    specialization_from_dict,
    specialization_from_model_file,
)

from conftest import corpus

F = Fraction

CUBIC_SPEC = FjrwSpec(n=1, d_w=3, r_charges=(1,), group_data=((3, (1,)),), potential="x1^3")
FERMAT2_SPEC = FjrwSpec(n=2, d_w=2, r_charges=(1, 1), group_data=((2, (1, 1)),), potential="x1^2+x2^2")
RANK2_SPEC = FjrwSpec(
    n=2,
    d_w=3,
    r_charges=(1, 1),
    group_data=((3, (1, 1)), (3, (1, 2))),
    potential="x1^3+x2^3",
)

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

CI_22 = CiSpec(
    ambient_r=4,
    k=1,
    ambient_weights=((1, 1, 1, 1),),
    theta=(F(1),),
    taus=((2,), (2,)),
    sections=("x1^2+x2^2", "x3^2+x4^2"),
    semipositive_asserted=True,
    pairing_nondegenerate_asserted=True,
)


# --- builders ---------------------------------------------------------------


def test_fjrw_build_cubic():
    m = fjrw_build(CUBIC_SPEC)
    assert m.weights == ((1, -3),)
    assert m.r_charges == (1, 0)
    assert m.theta == (F(-1),)
    assert m.d_w == 3
    assert dict(m.potential.terms) == {(3, 1): F(1)}


def test_fjrw_build_fermat_pair():
    m = fjrw_build(FERMAT2_SPEC)
    assert m.weights == ((1, 1, -2),)
    assert m.r_charges == (1, 1, 0)
    assert m.theta == (F(-1),)


def test_fjrw_build_rank2(m_rank2):
    m = fjrw_build(RANK2_SPEC)
    assert m.weights == m_rank2.weights
    assert m.r_charges == m_rank2.r_charges
    assert m.theta == m_rank2.theta
    assert m.potential == m_rank2.potential


def test_fjrw_spec_invariant():
    with pytest.raises(InputError, match="order d_w"):
        FjrwSpec(n=1, d_w=3, r_charges=(1,), group_data=((2, (1,)),))
    with pytest.raises(InputError, match="grading element"):
        FjrwSpec(n=1, d_w=3, r_charges=(1,), group_data=((3, (2,)),))


def test_fjrw_build_noninvariant_potential():
    with pytest.raises(InputError, match="invariant"):
        fjrw_build(FjrwSpec(n=1, d_w=3, r_charges=(1,), group_data=((3, (1,)),), potential="x1^2"))


def test_builders_name_the_expression_in_a_syntax_error():
    with pytest.raises(InputError) as e:
        ci_build(replace(CI_22, sections=("x1^2+x2^2", "x3^2+x4^2*")))
    assert str(e.value) == "section 2 syntax error at position 10: expected a coefficient or variable"
    with pytest.raises(InputError) as e:
        hybrid_build(HybridSpec(x_weights=(1,), p_weights=(3,), sections=("x1^3 x1",)))
    assert str(e.value) == "section 1 syntax error at position 5: expected '+' or '-' between terms"
    with pytest.raises(InputError) as e:
        fjrw_build(replace(CUBIC_SPEC, potential="x1^3*"))
    assert str(e.value) == "potential syntax error at position 5: expected a coefficient or variable"


def test_hybrid_build():
    m = hybrid_build(HybridSpec(x_weights=(1,), p_weights=(3,), sections=("x1^3",)))
    assert m.weights == ((1, -3),)
    assert m.r_charges == (0, 1)
    assert m.d_w == 1
    assert m.theta == (F(-1),)
    assert dict(m.potential.terms) == {(3, 1): F(1)}


@pytest.mark.parametrize(
    "hybrid, ci",
    [
        (
            HybridSpec(x_weights=(1,), p_weights=(3,), sections=("x1^3",)),
            CiSpec(ambient_r=1, k=1, ambient_weights=((1,),), theta=(F(-1),), taus=((3,),), sections=("x1^3",)),
        ),
        (
            HybridSpec(x_weights=(1,), p_weights=(3,)),
            CiSpec(ambient_r=1, k=1, ambient_weights=((1,),), theta=(F(-1),), taus=((3,),)),
        ),
        (
            HybridSpec(x_weights=(1, 1), p_weights=(2,)),
            CiSpec(ambient_r=2, k=1, ambient_weights=((1, 1),), theta=(F(-1),), taus=((2,),)),
        ),
        (
            HybridSpec(x_weights=(1, 1, 1), p_weights=(2, 2)),
            CiSpec(ambient_r=3, k=1, ambient_weights=((1, 1, 1),), theta=(F(-1),), taus=((2,), (2,))),
        ),
    ],
)
def test_hybrid_model_is_the_negative_phase_of_the_sections_model(hybrid, ci):
    assert hybrid_build(hybrid) == ci_build(ci)


def test_ci_build_quintic():
    m = ci_build(QUINTIC_CI)
    assert m.weights == ((1, 1, 1, 1, 1, -5),)
    assert m.r_charges == (0, 0, 0, 0, 0, 1)
    assert m.d_w == 1
    assert m.theta == (F(1),)
    assert dict(m.potential.terms)[(5, 0, 0, 0, 0, 1)] == 1


# --- affine-phase direct series ---------------------------------------------


def test_fjrw_direct_cubic_hand_values():
    s = fjrw_direct_series(CUBIC_SPEC, F(4, 3), t_order=1)
    ring1 = s.terms[((F(-1, 3),), (0,))].ring
    one = ring1.one()
    # k=1: q^{1/3} e^t phi_0
    assert s.terms[((F(-1, 3),), (0,))] == LaurentZ.from_dict(ring1, {0: one})
    assert s.terms[((F(-1, 3),), (1,))] == LaurentZ.from_dict(ring1, {0: one})
    # k=2: q^{2/3} e^{2t} z^{-1} phi_1
    v2 = s.terms[((F(-2, 3),), (0,))]
    assert v2 == LaurentZ.from_dict(v2.ring, {-1: v2.ring.one()})
    assert s.terms[((F(-2, 3),), (1,))] == v2.scale(F(2))
    # k=4: -q^{4/3} e^{4t} phi_3 / (18 z^2)
    v4 = s.terms[((F(-4, 3),), (0,))]
    assert v4 == LaurentZ.from_dict(v4.ring, {-2: v4.ring.one().scale(F(-1, 18))})
    assert s.terms[((F(-4, 3),), (1,))] == v4.scale(F(4))


def test_fjrw_direct_skips_broad():
    s = fjrw_direct_series(CUBIC_SPEC, F(4), t_order=0)
    degrees = {d for (d, _a) in s.terms}
    for k in (3, 6, 9, 12):
        assert (F(-k, 3),) not in degrees
    for k in (1, 2, 4, 5, 7, 8, 10, 11):
        assert (F(-k, 3),) in degrees


def test_fjrw_crosscheck_cubic():
    report = fjrw_crosscheck(CUBIC_SPEC, F(4), t_order=1)
    assert report["equal"], report["diff"]


def test_fjrw_crosscheck_fermat_pair():
    report = fjrw_crosscheck(FERMAT2_SPEC, F(3), t_order=1)
    assert report["equal"], report["diff"]


def test_fjrw_crosscheck_rank2():
    report = fjrw_crosscheck(RANK2_SPEC, F(4, 3), t_order=0)
    assert report["equal"], report["diff"]


def test_crosscheck_shares_the_engine_rings(groebner_reductions):
    # the direct series reuse the engine series' ring tables: one reduction per fixed support
    report = fjrw_crosscheck(RANK2_SPEC, F(4, 3), t_order=0)
    assert report["equal"], report["diff"]
    assert len(groebner_reductions) == len({g.fixed_support for g in inertia_sectors(fjrw_build(RANK2_SPEC))}) == 4


# --- hybrid direct series ----------------------------------------------------


def test_hybrid_direct_examples():
    spec = HybridSpec(x_weights=(1,), p_weights=(3,))
    s = hybrid_direct_series(spec, F(2), t_order=0)
    v0 = s.terms[((F(0),), (0,))]
    assert v0 == LaurentZ.one(v0.ring)
    v1 = s.terms[((F(-1, 3),), (0,))]
    assert v1 == LaurentZ.one(v1.ring)
    # k = 3 endpoint factor -H vanishes in the mu_3 point ring
    assert ((F(-1),), (0,)) not in s.terms


def test_hybrid_crosscheck_13():
    report = hybrid_crosscheck(HybridSpec(x_weights=(1,), p_weights=(3,)), F(6), t_order=1)
    assert report["equal"], report["diff"]


def test_hybrid_crosscheck_112():
    report = hybrid_crosscheck(HybridSpec(x_weights=(1, 1), p_weights=(2,)), F(6), t_order=1)
    assert report["equal"], report["diff"]


def test_hybrid_crosscheck_two_sections():
    report = hybrid_crosscheck(HybridSpec(x_weights=(1, 1, 1), p_weights=(2, 2)), F(6), t_order=1)
    assert report["equal"], report["diff"]


# --- complete intersections --------------------------------------------------


def classical_quintic_coefficient(ring, d: int) -> LaurentZ:
    """prod_{m=1}^{5d}(5H + m z) / prod_{m=1}^{d}(H + m z)^5 mod H^5."""
    h = class_from_character(ring, (1,))
    out = LaurentZ.one(ring)
    for m in range(1, 5 * d + 1):
        out = out.mul(linear_z_factor(ring, h.scale(F(5)), F(m)))
    for m in range(1, d + 1):
        inv = invert_linear_z_factor(ring, h, F(m))
        for _ in range(5):
            out = out.mul(inv)
    return out


def test_ci_ambient_series_quintic_matches_classical():
    s = ci_ambient_series(QUINTIC_CI, F(8))
    for d in range(9):
        value = s.terms[((F(d),), ())]
        assert value == classical_quintic_coefficient(value.ring, d)


def _count_products(monkeypatch) -> dict:
    """Spy on specialize's inversions and on every LaurentZ product; returns the live counts."""
    counts = {"inverted": [], "products": 0}
    real_invert, real_mul = specialize.invert_linear_z_factor, LaurentZ.mul

    def inverting(ring, cls, a):
        counts["inverted"].append(a)
        return real_invert(ring, cls, a)

    def multiplying(self, other):
        counts["products"] += 1
        return real_mul(self, other)

    monkeypatch.setattr(specialize, "invert_linear_z_factor", inverting)
    monkeypatch.setattr(LaurentZ, "mul", multiplying)
    return counts


@pytest.mark.parametrize("q_bound, products", [(3, 35), (10, 120)])
def test_ci_ambient_series_inverts_each_factor_once_per_series(monkeypatch, q_bound, products):
    # x1..x5 share a column, and each a-value's (H + a z)^-1 is formed once for the whole series:
    # a = 1..q, against 1 + 2 + ... + q inversions and 5 q (q + 1) products when every degree
    # rebuilt its factors
    counts = _count_products(monkeypatch)
    s = ci_ambient_series(QUINTIC_CI, F(q_bound))
    assert sorted(counts["inverted"]) == [F(a) for a in range(1, q_bound + 1)]
    assert counts["products"] <= products
    monkeypatch.undo()
    for d in range(q_bound + 1):
        value = s.terms[((F(d),), ())]
        assert value == classical_quintic_coefficient(value.ring, d)


@pytest.mark.parametrize("n, products", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (6, 3), (8, 3)])
def test_power_squares_repeatedly(monkeypatch, n, products):
    # a run entry shared by n equal coordinates: entry^5 is entry^2, entry^4 and entry^4 * entry
    ring = specialize.sector_rings(ci_build(QUINTIC_CI), [(F(0),)])[0]
    h = class_from_character(ring, (1,))
    entry = linear_z_factor(ring, h, F(2)).mul(invert_linear_z_factor(ring, h.scale(F(-3)), F(1, 2)))
    expected = LaurentZ.one(ring)
    for _ in range(n):
        expected = expected.mul(entry)
    counts = _count_products(monkeypatch)
    assert specialize._power(entry, n) == expected
    assert counts["products"] == products


def test_hybrid_direct_series_forms_each_factor_once_per_series(monkeypatch):
    counts = _count_products(monkeypatch)
    hybrid_direct_series(HybridSpec(x_weights=(1, 1), p_weights=(2,)), F(10), t_order=1)
    # k = 0..20 over two sector rings (k even, k odd): p's run reads a = 1..19 on the first, a = 1..18 on the second
    assert sorted(counts["inverted"]) == sorted([F(a) for a in range(1, 20)] + [F(a) for a in range(1, 19)])
    assert counts["products"] <= 200


def test_ci_compare_quintic():
    report = ci_compare(QUINTIC_CI, F(6))
    assert report["equal"], report["diff"]
    assert report["assumptions"]["semipositive_asserted"]


def test_ci_compare_22_in_p3():
    report = ci_compare(CI_22, F(2))
    assert report["equal"], report["diff"]


def test_ci_compare_empty_taus():
    spec = CiSpec(
        ambient_r=2,
        k=1,
        ambient_weights=((1, 1),),
        theta=(F(1),),
        taus=(),
    )
    report = ci_compare(spec, F(2))
    assert report["equal"], report["diff"]


def test_ci_compare_with_insertion():
    from glsmkit.series import single_character_insertion

    etas = ((1,),)
    insertions = (single_character_insertion("t1", 0, 1),)
    report = ci_compare(QUINTIC_CI, F(2), t_order=1, etas=etas, insertions=insertions)
    assert report["equal"], report["diff"]


# --- sub-schema parsing -------------------------------------------------------


def test_specialization_from_dict_roundtrip():
    fjrw = specialization_from_dict(
        {
            "kind": "fjrw",
            "n": 1,
            "d_w": 3,
            "r_charges": [1],
            "group": [{"order": 3, "action": [1]}],
            "potential": "x1^3",
        }
    )
    assert fjrw == CUBIC_SPEC
    hyb = specialization_from_dict({"kind": "hybrid", "x_weights": [1], "p_weights": [3]})
    assert hyb == HybridSpec(x_weights=(1,), p_weights=(3,))
    ci = specialization_from_dict(
        {
            "kind": "ci",
            "ambient": {"r": 5, "k": 1, "weights": [[1, 1, 1, 1, 1]], "theta": ["1"]},
            "taus": [[5]],
            "sections": ["x1^5+x2^5+x3^5+x4^5+x5^5"],
            "semipositive_asserted": True,
            "pairing_nondegenerate_asserted": True,
        }
    )
    assert ci == QUINTIC_CI
    with pytest.raises(InputError):
        specialization_from_dict({"kind": "nope"})


def test_checked_in_specialize_file_is_the_quintic():
    # the CI step on a bare install runs `glsmkit specialize ci ... --crosscheck` on this file
    path = Path(__file__).resolve().parent / "data" / "quintic-ci.json"
    assert specialization_from_model_file(path.read_text(encoding="utf-8")) == QUINTIC_CI


def test_checked_in_fjrw_file_is_the_benchmark_section():
    # the benchmark's fjrw `specialize` section; the CI step on a bare install runs
    # `glsmkit specialize fjrw ... --qbound 2 --torder 1 --crosscheck` on this file
    path = Path(__file__).resolve().parent / "data" / "fjrw.json"
    spec = specialization_from_model_file(path.read_text(encoding="utf-8"))
    assert spec == RANK2_SPEC
    assert fjrw_crosscheck(spec, F(2), 1)["equal"]


# --- every key lies inside its own truncation ------------------------------------

REGION_Q_BOUNDS = [F(0), F(1, 2), F(1), F(4, 3), F(2), F(3)]
LIGHT = Insertion.from_terms("t", {(1,): F(1)})


def _engine_series(m, state, q, t):
    """The engine series of the model with one insertion along its last column, and its JSON read-back."""
    build = big_i_function if state == "ambient" else glsm_i_function
    try:
        s = build(m, [m.column(m.r - 1)], [LIGHT], q, t)
    except HypothesisError:
        return []
    return [s, series_from_json(series_to_json(s))]


REGION_SOURCES = {
    **{
        f"{state}-{name}": (lambda q, t, m=m, state=state: _engine_series(m, state, q, t))
        for name, m in zip(("p1", "quintic", "cubic", "rank2"), corpus())
        for state in ("ambient", "glsm")
    },
    "fjrw-direct": lambda q, t: [fjrw_direct_series(RANK2_SPEC, q, t)],
    "hybrid-direct": lambda q, t: [hybrid_direct_series(HybridSpec(x_weights=(1, 1), p_weights=(2,)), q, t)],
    "ci-direct": lambda q, t: [ci_ambient_series(QUINTIC_CI, q, t, [ci_build(QUINTIC_CI).column(0)], [LIGHT])],
}


@pytest.mark.parametrize("source", sorted(REGION_SOURCES))
def test_every_key_lies_inside_its_own_truncation(source):
    # the precondition of GradedSeries.restrict's shortcut: a series asked for its own
    # region is returned as it is, so no key may lie outside that region
    for q in REGION_Q_BOUNDS:
        for t in range(3):
            for s in REGION_SOURCES[source](q, t):
                assert (s.q_bound, s.t_order) == (q, t)
                for d, alpha in [*s.terms, *s.vanished]:
                    assert theta_degree(s.model, d) <= q and sum(alpha) <= t, (d, alpha)
                assert s.restrict(s.q_bound, s.t_order) is s


# --- cross-check failures -----------------------------------------------------


def _double_one_term(monkeypatch, name: str, index: int) -> list:
    """Patch specialize.<name> to double its index-th term; returns [that key]."""
    original = getattr(specialize, name)
    chosen = []

    def patched(*args, **kwargs):
        s = original(*args, **kwargs)
        key = sorted(s.terms)[index]
        s.terms[key] = s.terms[key].scale(F(2))
        chosen.append(key)
        return s

    monkeypatch.setattr(specialize, name, patched)
    return chosen


def _position(key) -> dict:
    return {"degree": [format_rational(x) for x in key[0]], "t_exponent": list(key[1])}


def test_fjrw_crosscheck_reports_the_doubled_term(monkeypatch):
    chosen = _double_one_term(monkeypatch, "fjrw_direct_series", 2)
    report = fjrw_crosscheck(CUBIC_SPEC, F(4), t_order=1)
    assert report["equal"] is False
    assert report["diff"] == [_position(chosen[0])]


def test_hybrid_crosscheck_reports_the_doubled_term(monkeypatch):
    chosen = _double_one_term(monkeypatch, "hybrid_direct_series", 1)
    report = hybrid_crosscheck(HybridSpec(x_weights=(1, 1), p_weights=(2,)), F(3), t_order=1)
    assert report["equal"] is False
    assert report["diff"] == [_position(chosen[0])]


def test_ci_compare_reports_the_doubled_term(monkeypatch):
    chosen = _double_one_term(monkeypatch, "ci_ambient_series", 2)
    report = ci_compare(QUINTIC_CI, F(3))
    assert report["equal"] is False
    position = _position(chosen[0])
    assert report["diff"]
    assert all({"degree": r["degree"], "t_exponent": r["t_exponent"]} == position for r in report["diff"])
    assert len({r["z"] for r in report["diff"]}) == len(report["diff"])
    assert all(r["left"] is not None and r["right"] is not None for r in report["diff"])


def test_ci_compare_eliminates_once_per_sector_ring(monkeypatch):
    calls = []
    real = specialize.ideal_membership

    def counting(ring, factors):
        calls.append(ring)
        return real(ring, factors)

    monkeypatch.setattr(specialize, "ideal_membership", counting)
    report = ci_compare(QUINTIC_CI, F(3), t_order=1, etas=[(1,)], insertions=[Insertion.from_terms("t1", {(1,): F(1)})])
    assert report["equal"], report["diff"]
    assert calls and len(calls) == len(set(calls))


CROSSCHECKS = [
    (fjrw_direct_series, fjrw_crosscheck, CUBIC_SPEC, F(4), 1),
    (hybrid_direct_series, hybrid_crosscheck, HybridSpec(x_weights=(1, 1), p_weights=(2,)), F(3), 1),
    (ci_ambient_series, ci_compare, QUINTIC_CI, F(3), 0),
]


@pytest.mark.parametrize("direct, check, spec, q_bound, t_order", CROSSCHECKS, ids=["fjrw", "hybrid", "ci"])
def test_crosscheck_compares_against_the_given_direct_series(direct, check, spec, q_bound, t_order):
    series = direct(spec, q_bound, t_order)
    assert check(spec, q_bound, t_order, direct=series) == check(spec, q_bound, t_order)
    key = sorted(series.terms)[1]
    series.terms[key] = series.terms[key].scale(F(2))
    report = check(spec, q_bound, t_order, direct=series)
    assert not report["equal"]
    assert {(tuple(r["degree"]), tuple(r["t_exponent"])) for r in report["diff"]} == {
        (tuple(format_rational(x) for x in key[0]), key[1])
    }


@pytest.mark.parametrize("direct, check, spec, q_bound, t_order", CROSSCHECKS, ids=["fjrw", "hybrid", "ci"])
def test_crosscheck_refuses_a_direct_series_of_another_region(direct, check, spec, q_bound, t_order):
    # the comparison cuts both sides to their common region: a smaller direct series used to read "equal"
    with pytest.raises(ValueError, match="q_bound"):
        check(spec, q_bound, t_order, direct=direct(spec, q_bound - 1, t_order))
    if t_order:
        with pytest.raises(ValueError, match="t_order"):
            check(spec, q_bound, t_order, direct=direct(spec, q_bound, t_order - 1))
    series = direct(spec, q_bound, t_order)
    with pytest.raises(ValueError, match="etas"):
        check(spec, q_bound, t_order, direct=replace(series, etas=series.etas + ((1,) * series.model.k,)))


# P(1,1,2)[3], P(1,1,1,2)[3], P(1,1,2,2)[5] and P(1,2,3)[4]: twisted sectors with fractional ages
FRACTIONAL_AGES = [((1, 1, 2), 3), ((1, 1, 1, 2), 3), ((1, 1, 2, 2), 5), ((1, 2, 3), 4)]


@pytest.mark.parametrize("weights, tau", FRACTIONAL_AGES, ids=["112_3", "1112_3", "1122_5", "123_4"])
def test_ci_compare_with_fractional_ages(monkeypatch, weights, tau):
    # the age phase of a twisted sector is a non-rational root of unity; it is formed
    # once per sector ring, and each age of a ring is computed once
    spec = CiSpec(ambient_r=len(weights), k=1, ambient_weights=(weights,), theta=(F(1),), taus=((tau,),))
    ages, phases = [], []
    real_age, real_half_turn = specialize.age, specialize.half_turn

    def counting_age(g, xi):
        ages.append((g.lam, tuple(xi)))
        return real_age(g, xi)

    def recording_half_turn(exponent):
        phases.append(real_half_turn(exponent))
        return phases[-1]

    monkeypatch.setattr(specialize, "age", counting_age)
    monkeypatch.setattr(specialize, "half_turn", recording_half_turn)
    report = ci_compare(spec, F(5))
    assert report["equal"], report["diff"]
    assert any(isinstance(p, Cyclo) for p in phases), phases
    assert ages and len(ages) == len(set(ages)), ages
