import hashlib
import json
from dataclasses import replace
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glsmkit.series as series_module
from glsmkit.cli import _series_output
from glsmkit.latexout import render_latex
from glsmkit.model import InternalError
from glsmkit.rings import InfiniteRingError, build_ring, class_from_character
from glsmkit.scalars import Cyclo
from glsmkit.sectors import (
    DegenerateStabilityError,
    effective_degrees,
    inertia_sectors,
    pairing,
    sector_of_degree,
    theta_degree,
)
from glsmkit.series import (
    HypothesisError,
    Insertion,
    LaurentZ,
    big_i_function,
    compact_type_report,
    exp_factor,
    glsm_i_function,
    hyper_factor,
    invert_linear_z_factor,
    linear_z_factor,
    series_compare,
    series_from_json,
    series_to_json,
    t_exponents,
    twist_novikov,
    z_partial,
)

from conftest import corpus, small_torus_models

F = Fraction


def ring_at(m, d):
    return build_ring(m, sector_of_degree(m, d))


def lz(ring, mapping):
    return LaurentZ.from_dict(ring, mapping)


def t_insertion(xi=(1,)):
    return ((tuple(xi),), (Insertion.from_terms("t1", {(1,): F(1)}),))


# --- LaurentZ basics --------------------------------------------------------


def test_invert_linear_factor(m_p1):
    ring = ring_at(m_p1, (F(0),))
    h = class_from_character(ring, (1,))
    inv = invert_linear_z_factor(ring, h, F(1))
    expect = lz(ring, {-1: ring.one(), -2: -h})
    assert inv == expect
    product = inv.mul(linear_z_factor(ring, h, F(1)))
    assert product == LaurentZ.one(ring)


def test_invert_zero_scalar_raises(m_p1):
    ring = ring_at(m_p1, (F(0),))
    with pytest.raises(InternalError):
        invert_linear_z_factor(ring, ring.one(), F(0))


# --- hyper_factor -----------------------------------------------------------


def test_hyper_factor_p1_degree1(m_p1):
    ring = ring_at(m_p1, (F(1),))
    h = class_from_character(ring, (1,))
    value = hyper_factor(m_p1, (F(1),), "ambient", ring)
    assert value == lz(ring, {-2: ring.one(), -3: h.scale(F(-2))})


def test_hyper_factor_cubic_glsm(m_cubic):
    d = (F(-1, 3),)
    ring = ring_at(m_cubic, d)
    value = hyper_factor(m_cubic, d, "glsm", ring)
    assert value == lz(ring, {0: ring.one().scale(F(-1, 3))})


def test_hyper_factor_degree0(m_p1, m_quintic, m_cubic):
    for m in (m_p1, m_quintic, m_cubic):
        d = (F(0),) * m.k
        ring = ring_at(m, d)
        assert hyper_factor(m, d, "ambient", ring) == LaurentZ.one(ring)
    # glsm mode at degree zero carries the R-charged endpoint classes
    ring5 = ring_at(m_quintic, (F(0),))
    h = class_from_character(ring5, (1,))
    assert hyper_factor(m_quintic, (F(0),), "glsm", ring5) == lz(ring5, {0: h.scale(F(-5))})
    # for a model with no R-charged coordinate the two modes agree
    ring1 = ring_at(m_p1, (F(0),))
    assert hyper_factor(m_p1, (F(0),), "glsm", ring1) == LaurentZ.one(ring1)


def test_hyper_factor_quintic_ambient_oracle(m_quintic):
    # degree-1 coefficient of the local quintic geometry:
    # (-5H)(-5H-z)...(-5H-4z) / (H+z)^5 reduced mod H^5
    d = (F(1),)
    ring = ring_at(m_quintic, d)
    h = class_from_character(ring, (1,))
    num = LaurentZ.one(ring)
    for mshift in range(5):
        num = num.mul(linear_z_factor(ring, h.scale(F(-5)), F(-mshift)))
    den = LaurentZ.one(ring)
    for _ in range(5):
        den = den.mul(invert_linear_z_factor(ring, h, F(1)))
    assert hyper_factor(m_quintic, d, "ambient", ring) == num.mul(den)


def test_hyper_factor_one_product_per_coordinate_group(m_quintic, monkeypatch):
    # x1..x5 share a column and a nu-range, so they make one factor; p makes the other
    d = (F(3),)
    ring = ring_at(m_quintic, d)
    calls = []
    mul = LaurentZ.mul

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(LaurentZ, "mul", counted)
    for mode in ("ambient", "glsm"):
        calls.clear()
        hyper_factor(m_quintic, d, mode, ring)
        assert len(calls) <= 2, mode


def _per_factor_product(m, d, mode, ring):
    """The documented product: one linear factor per nu, in ascending nu."""
    out = LaurentZ.one(ring)
    for i in range(m.r):
        x = pairing(d, m.column(i))
        cls = class_from_character(ring, m.column(i))
        if mode == "glsm" and m.r_charges[i] != 0:
            nus = range(1, ceil(x)) if x > 0 else range(ceil(x), 1)
        else:
            nus = range(0, ceil(x)) if x > 0 else range(ceil(x), 0)
        for nu in nus:
            factor = invert_linear_z_factor if x > 0 else linear_z_factor
            out = out.mul(factor(ring, cls, x - nu))
    return out


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from(corpus()), small_torus_models()), st.data())
def test_hyper_factor_matches_per_factor_product(m, data):
    # random a-ranges: any degree, fractional or integral, and random R-charges;
    # an integral x <= 0 puts a zero a-value into a numerator
    try:
        sectors = inertia_sectors(m)
        ring = build_ring(m, data.draw(st.sampled_from(sectors))) if sectors else None
    except (DegenerateStabilityError, InfiniteRingError):
        return
    if ring is None:
        return
    m = replace(m, r_charges=tuple(data.draw(st.lists(st.integers(0, 2), min_size=m.r, max_size=m.r))))
    d = tuple(data.draw(st.lists(st.fractions(-2, 2, max_denominator=3), min_size=m.k, max_size=m.k)))
    mode = data.draw(st.sampled_from(["ambient", "glsm"]))
    assert hyper_factor(m, d, mode, ring) == _per_factor_product(m, d, mode, ring)


def test_mode_relation_corpus(m_p1, m_quintic, m_cubic, m_rank2):
    # hyper(glsm) = prod over R-charged coords of (rho_i + <d,rho_i> z) * hyper(ambient)
    for m in (m_p1, m_quintic, m_cubic, m_rank2):
        for d in effective_degrees(m, F(3)):
            ring = ring_at(m, d)
            lhs = hyper_factor(m, d, "glsm", ring)
            rhs = hyper_factor(m, d, "ambient", ring)
            for i in m.r_charged_indices():
                rhs = rhs.mul(
                    linear_z_factor(ring, class_from_character(ring, m.column(i)), pairing(d, m.column(i)))
                )
            assert lhs == rhs, (m.var_names(), d)


# --- exp_factor -------------------------------------------------------------


def test_t_exponents_order():
    assert t_exponents(2, 2) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    assert t_exponents(0, 3) == [()]
    assert t_exponents(0, -1) == t_exponents(2, -1) == []


def test_exp_factor_torder0(m_p1):
    d = (F(1),)
    ring = ring_at(m_p1, d)
    etas, insertions = t_insertion()
    out = exp_factor(m_p1, d, etas, insertions, 0, ring)
    assert out == {(0,): LaurentZ.one(ring)}


def test_exp_factor_p1_example(m_p1):
    d = (F(1),)
    ring = ring_at(m_p1, d)
    h = class_from_character(ring, (1,))
    etas, insertions = t_insertion()
    out = exp_factor(m_p1, d, etas, insertions, 2, ring)
    assert out[(1,)] == lz(ring, {0: ring.one(), -1: h})
    assert out[(2,)] == lz(ring, {0: ring.one().scale(F(1, 2)), -1: h})


def test_exp_factor_degree0(m_p1):
    d = (F(0),)
    ring = ring_at(m_p1, d)
    h = class_from_character(ring, (1,))
    etas, insertions = t_insertion()
    out = exp_factor(m_p1, d, etas, insertions, 1, ring)
    assert out[(1,)] == lz(ring, {-1: h})


# --- big_i_function ---------------------------------------------------------


def test_big_i_leading_term(m_p1, m_quintic, m_cubic):
    for m in (m_p1, m_quintic, m_cubic):
        s = big_i_function(m, q_bound=F(1))
        d0 = (F(0),) * m.k
        value = s.terms[(d0, ())]
        assert value == LaurentZ.one(value.ring)


def test_big_i_p1_degree1(m_p1):
    s = big_i_function(m_p1, q_bound=F(1))
    value = s.terms[((F(1),), ())]
    ring = value.ring
    h = class_from_character(ring, (1,))
    assert value == lz(ring, {-2: ring.one(), -3: h.scale(F(-2))})


def test_big_i_quintic_degree1_oracle(m_quintic):
    s = big_i_function(m_quintic, q_bound=F(1))
    d = (F(1),)
    value = s.terms[(d, ())]
    ring = value.ring
    assert value == hyper_factor(m_quintic, d, "ambient", ring)


# --- glsm_i_function --------------------------------------------------------


def test_glsm_hypothesis_violation():
    import json

    from glsmkit.model import parse_model

    # an R-charge-zero pair with an invariant monomial x1*x2
    m = parse_model(
        json.dumps(
            {
                "r": 3,
                "k": 1,
                "weights": [[1, -1, 2]],
                "r_charges": [0, 0, 2],
                "d_w": 2,
                "theta": ["1"],
                "potential": None,
            }
        )
    )
    with pytest.raises(HypothesisError) as err:
        glsm_i_function(m, q_bound=F(1))
    assert err.value.certificate[0] > 0 and err.value.certificate[1] > 0


def test_glsm_quintic_degree_terms_divisible(m_quintic):
    from glsmkit.rings import divides_ideal

    s = glsm_i_function(m_quintic, q_bound=F(2))
    assert s.state == "glsm"
    for (d, _alpha), value in s.terms.items():
        ring = value.ring
        rho_p = class_from_character(ring, (-5,))
        for _z, cls in value.coeffs:
            assert divides_ideal(cls, [rho_p])


def test_glsm_quintic_degree0(m_quintic):
    s = glsm_i_function(m_quintic, q_bound=F(0))
    value = s.terms[((F(0),), ())]
    ring = value.ring
    h = class_from_character(ring, (1,))
    assert value == lz(ring, {0: h.scale(F(-5))})


def test_glsm_cubic_broad_terms_vanish(m_cubic):
    s = glsm_i_function(m_cubic, q_bound=F(3))
    present = {d for (d, _a) in s.terms}
    for k in (3, 6, 9):
        assert (F(-k, 3),) not in present
    for k in (1, 2, 4, 5, 7, 8):
        assert (F(-k, 3),) in present
    vanished_degrees = {d for (d, _a) in s.vanished}
    assert (F(-3, 3),) in vanished_degrees


def test_glsm_cubic_first_coefficient(m_cubic):
    s = glsm_i_function(m_cubic, q_bound=F(1))
    value = s.terms[((F(-1, 3),), ())]
    ring = value.ring
    assert value == lz(ring, {0: ring.one().scale(F(-1, 3))})


# --- z_partial --------------------------------------------------------------


def test_z_partial_p1_example(m_p1):
    s = big_i_function(m_p1, q_bound=F(1))
    out = z_partial(s, [(1,)], "by_multiplication")
    value = out.terms[((F(1),), ())]
    ring = value.ring
    h = class_from_character(ring, (1,))
    assert value == lz(ring, {-1: ring.one(), -2: -h})


def test_z_partial_empty_rho(m_p1):
    s = big_i_function(m_p1, q_bound=F(2))
    out = z_partial(s, [], "by_multiplication")
    assert not series_compare(s, out)


def test_z_partial_degree0(m_quintic):
    s = big_i_function(m_quintic, q_bound=F(0))
    out = z_partial(s, [(-5,)], "by_multiplication")
    value = out.terms[((F(0),), ())]
    ring = value.ring
    assert value == LaurentZ.from_class(ring, class_from_character(ring, (-5,)))


def test_z_partial_methods_agree(m_p1, m_quintic, m_cubic):
    for m, rho in ((m_p1, [(1,)]), (m_quintic, [(-5,)]), (m_cubic, [(1,)])):
        etas, insertions = t_insertion((1,) * m.k)
        s = big_i_function(m, etas, insertions, q_bound=F(2), t_order=1)
        a = z_partial(s, rho, "by_multiplication")
        b = z_partial(s, rho, "by_insertion")
        assert not series_compare(a, b)
        verified = z_partial(s, rho, "verify")
        assert not series_compare(verified, a)


def test_z_partial_requires_ambient(m_quintic):
    s = glsm_i_function(m_quintic, q_bound=F(1))
    with pytest.raises(ValueError):
        z_partial(s, [(1,)])


# --- twist_novikov ----------------------------------------------------------


def test_twist_quintic_signs(m_quintic):
    s = glsm_i_function(m_quintic, q_bound=F(2))
    t = twist_novikov(s, [(5,)])
    for (d, alpha), value in t.terms.items():
        sign = F(-1) if (5 * d[0]) % 2 else F(1)
        assert value == s.terms[(d, alpha)].scale(sign)
    d0 = ((F(0),), ())
    assert t.terms[d0] == s.terms[d0]


def test_twist_empty_is_identity(m_quintic):
    s = glsm_i_function(m_quintic, q_bound=F(1))
    assert twist_novikov(s, []) is s


def test_twist_even_is_identity(m_quintic):
    s = glsm_i_function(m_quintic, q_bound=F(2))
    t = twist_novikov(s, [(2,)])
    assert not series_compare(s, t)
    assert series_to_json(s) == series_to_json(t)


def test_twist_twice_equals_double(m_cubic):
    s = glsm_i_function(m_cubic, q_bound=F(2))
    twice = twist_novikov(twist_novikov(s, [(1,)]), [(1,)])
    once = twist_novikov(s, [(2,)])
    assert not series_compare(twice, once)


# --- compact type report ----------------------------------------------------


def test_compact_type_glsm_corpus(m_p1, m_quintic, m_cubic, m_rank2):
    for m in (m_p1, m_quintic, m_cubic, m_rank2):
        s = glsm_i_function(m, q_bound=F(2))
        rep = compact_type_report(s, m)
        assert rep["hypothesis_holds"]
        assert rep["violations"] == []


def test_compact_type_ambient_negative_control(m_quintic):
    s = big_i_function(m_quintic, q_bound=F(2))
    rep = compact_type_report(s, m_quintic)
    assert rep["hypothesis_holds"]
    assert rep["violations"], "ambient series must fail the endpoint divisibility somewhere"
    zero_degree = [v for v in rep["violations"] if v["degree"] == ["0"]]
    assert zero_degree


def test_compact_type_counts_vanishing(m_cubic):
    s = glsm_i_function(m_cubic, q_bound=F(3))
    rep = compact_type_report(s, m_cubic)
    assert rep["structurally_vanishing"] >= 1


# --- comparison, truncation, serialization ----------------------------------


def test_series_compare_self(m_p1):
    s = big_i_function(m_p1, q_bound=F(2))
    assert series_compare(s, s) == []


def test_series_compare_flat_rename(m_p1):
    etas, _ = t_insertion()
    a = big_i_function(m_p1, etas, (Insertion.from_terms("t1", {(1,): F(1)}),), F(2), 2)
    b = big_i_function(m_p1, etas, (Insertion.from_terms("s1", {(1,): F(1)}),), F(2), 2)
    with pytest.raises(ValueError, match="insertion variables"):
        series_compare(a, b)
    assert series_compare(a, b, {"s1": "t1"}) == []


def test_map_terms_moves_zero_results_to_vanished(m_p1):
    s = big_i_function(m_p1, q_bound=F(3))
    dropped = sorted(s.terms)[1]
    out = s.map_terms(lambda d, alpha, value: value.scale(F(0)) if (d, alpha) == dropped else value.scale(F(3)))
    assert dropped not in out.terms
    assert out.vanished == tuple(sorted(s.vanished + (dropped,)))
    assert {k: v.scale(F(3)) for k, v in s.terms.items() if k != dropped} == out.terms


def test_truncation_coherence(m_p1, m_cubic, m_quintic):
    for m in (m_p1, m_cubic, m_quintic):
        etas, insertions = t_insertion((1,) * m.k)
        big = big_i_function(m, etas, insertions, q_bound=F(3), t_order=2)
        small = big_i_function(m, etas, insertions, q_bound=F(2), t_order=1)
        assert series_to_json(big.restrict(F(2), 1)) == series_to_json(small)
        assert series_compare(big, small) == []


def test_series_json_roundtrip(m_cubic, m_quintic):
    for m in (m_cubic, m_quintic):
        etas, insertions = t_insertion((1,) * m.k)
        s = glsm_i_function(m, etas, insertions, q_bound=F(2), t_order=1)
        text = series_to_json(s)
        back = series_from_json(text)
        assert series_to_json(back) == text
        assert series_compare(s, back) == []


def test_series_json_roundtrip_with_twist(m_quintic):
    s = twist_novikov(glsm_i_function(m_quintic, q_bound=F(1)), [(5,)])
    text = series_to_json(s)
    assert series_to_json(series_from_json(text)) == text


def test_one_ring_lookup_per_sector(monkeypatch, m_rank2):
    # assembling and reading back a series look up each distinct sector's ring once,
    # however many degrees share it
    calls = []

    def counting(m, g):
        calls.append(g)
        return build_ring(m, g)

    monkeypatch.setattr(series_module, "build_ring", counting)
    s = big_i_function(m_rank2, q_bound=F(8))
    # the vanished degrees need their rings too: their factor vanishes in it
    degrees = {d for d, _alpha in list(s.terms) + list(s.vanished)}
    assert len(degrees) > len({sector_of_degree(m_rank2, d) for d in degrees}) > 1
    assert sorted(calls) == sorted({sector_of_degree(m_rank2, d) for d in degrees})
    calls.clear()
    back = series_from_json(series_to_json(s))
    assert series_compare(s, back) == []
    assert sorted(calls) == sorted({value.ring.sector for value in s.terms.values()})


def test_theta_degree_once_per_rendered_term(monkeypatch, m_rank2):
    s = big_i_function(m_rank2, q_bound=F(4))
    calls = []

    def counting(m, d):
        calls.append(d)
        return theta_degree(m, d)

    monkeypatch.setattr(series_module, "theta_degree", counting)
    for render in (series_to_json, render_latex, lambda s: _series_output(s, "text")):
        calls.clear()
        render(s)
        assert len(calls) == len(s.terms)


def test_width_bound(m_p1, m_quintic, m_cubic, m_rank2):
    # support width of each stored coefficient is bounded by factor count + t_order
    for m in (m_p1, m_quintic, m_cubic, m_rank2):
        etas, insertions = t_insertion((1,) * m.k)
        s = glsm_i_function(m, etas, insertions, q_bound=F(2), t_order=2)
        for (d, alpha), value in s.terms.items():
            factor_count = sum(
                abs(int(pairing(d, m.column(i)))) + 2 for i in range(m.r)
            )
            assert value.width() <= factor_count + s.t_order + 2



def _zeta6_times(s):
    zeta6 = Cyclo.root_of_unity(6, 1)
    return s.map_terms(lambda _d, _alpha, value: value.scale(zeta6))


@pytest.mark.parametrize(
    "model, make, phase, checked",
    [
        # the cubic's half-turn twist: genuine zeta_6 coefficients, on terms without endpoint factors
        (2, glsm_i_function, lambda s: twist_novikov(s, [(1,)]), 0),
        # a global zeta_6 reaches divides_ideal on every checked term
        (1, glsm_i_function, _zeta6_times, 9),
        (1, big_i_function, _zeta6_times, 9),
    ],
    ids=["cubic-twist", "quintic-glsm-zeta6", "quintic-ambient-zeta6"],
)
def test_compact_type_report_ignores_cyclotomic_phases(model, make, phase, checked):
    # a nonzero scalar phase does not change ideal membership
    m = corpus()[model]
    s = make(m, q_bound=F(2))
    phased = phase(s)
    assert any(
        isinstance(c, Cyclo) for value in phased.terms.values() for _z, cls in value.coeffs for c in cls.poly.values()
    )
    report = compact_type_report(phased, m)
    assert report == compact_type_report(s, m)
    assert report["divisibility_checked"] == checked


@pytest.mark.parametrize(
    "model, make, phase, etas, t_order, checked, digest",
    [
        (1, glsm_i_function, None, (), 0, 13, "aa48c0bb7595e2c7aaa30a540482647f8d71c2dac00e6fd44c60914c7e12623b"),
        (1, big_i_function, None, (), 0, 13, "153ae3da1d1d0a3ff204ea3b2e7f769764e8b812c7517763041327d0a490a3ec"),
        (1, glsm_i_function, None, ((1,),), 2, 51, "a25af98f8cc716a3f603adb43e24f02b3ffde11d5c9f279938682ceec5d39520"),
        (1, big_i_function, None, ((1,),), 2, 51, "09e2af0ff0954deaf6251346b7a1c0f16fc0c5a1406c4fb516418f75dcac4467"),
        (1, glsm_i_function, "zeta6", (), 0, 13, "aa48c0bb7595e2c7aaa30a540482647f8d71c2dac00e6fd44c60914c7e12623b"),
        (1, big_i_function, "zeta6", (), 0, 13, "153ae3da1d1d0a3ff204ea3b2e7f769764e8b812c7517763041327d0a490a3ec"),
        (1, big_i_function, "zeta6", ((1,),), 2, 51, "09e2af0ff0954deaf6251346b7a1c0f16fc0c5a1406c4fb516418f75dcac4467"),
        (2, glsm_i_function, "twist", (), 0, 0, "88e428af1b9c40da317d3d0a99d2b324816e7f37956999afcb18653b08df7b92"),
    ],
)
def test_compact_type_report_pinned(model, make, phase, etas, t_order, checked, digest):
    # digests of the report recorded before the endpoint ideal was eliminated once per degree
    m = corpus()[model]
    insertions = tuple(Insertion.from_terms(f"t{j + 1}", {(1,): F(1)}) for j in range(len(etas)))
    s = make(m, etas, insertions, q_bound=F(4) if etas else F(3), t_order=t_order)
    if phase == "zeta6":
        s = _zeta6_times(s)
    elif phase == "twist":
        s = twist_novikov(s, [(1,)])
    report = compact_type_report(s, m)
    assert report["divisibility_checked"] == checked
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == digest
