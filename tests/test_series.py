import hashlib
import json
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import cache
from math import ceil, gcd
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import glsmkit.series as series_module
import glsmkit.validate as validate_module
from glsmkit.cli import _series_output
from glsmkit.latexout import render_latex
from glsmkit.model import InputError, InternalError, model_from_dict, model_to_dict, parse_model
from glsmkit.rings import (
    CohClass,
    InfiniteRingError,
    RingMismatchError,
    build_ring,
    class_from_character,
    class_of,
    ideal_membership,
)
from glsmkit.scalars import Cyclo
from glsmkit.sectors import (
    BudgetExceededError,
    DegenerateStabilityError,
    effective_degrees,
    inertia_sectors,
    pairing,
    sector_of_degree,
    support_sr_generators,
    theta_degree,
)
from glsmkit.series import (
    HypothesisError,
    Insertion,
    LaurentZ,
    big_i_function,
    compact_type_report,
    empty_series,
    exp_factor,
    glsm_i_function,
    hyper_factor,
    invert_linear_z_factor,
    linear_z_factor,
    sector_rings,
    series_compare,
    series_from_json,
    series_to_json,
    single_character_insertion,
    t_exponents,
    twist_novikov,
    z_partial,
)
from glsmkit.specialize import CiSpec, FjrwSpec, _insertion_exponential, ci_build, fjrw_build

from conftest import QUINTIC, RANK2, corpus, small_torus_models

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


# --- LaurentZ products -------------------------------------------------------


def _sympy_expr(gens, poly):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(h**e for h, e in zip(gens, mono))) for mono, c in poly.items()),
        sympy.Integer(0),
    )


def _laurent_pair(data, ring):
    """Two random z-Laurent polynomials whose coefficients are normal forms of the ring."""
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    pair = []
    for _ in range(2):
        exps = data.draw(st.lists(st.integers(-3, 3), max_size=4, unique=True))
        pair.append(lz(ring, {e: CohClass(ring, {s: c for s in ring.staircase if (c := data.draw(coeff))}) for e in exps}))
    return pair


# P1 x P1: a two-generator ring with a nonzero product H1*H2 (every RANK2 sector ring is Q)
P1xP1 = model_from_dict(
    {"r": 4, "k": 2, "weights": [[1, 1, 0, 0], [0, 0, 1, 1]], "r_charges": [0] * 4, "d_w": 1, "theta": ["1", "1"], "potential": None}
)


def _drawn_ring(data):
    m = data.draw(st.sampled_from([corpus()[i] for i in (0, 1, 3)] + [P1xP1]))  # P1, quintic, RANK2, P1 x P1
    return build_ring(m, data.draw(st.sampled_from(inertia_sectors(m))))


def _per_pair_product(a, b):
    """The former LaurentZ.mul: one class product and one class sum per pair of z-coefficients."""
    out = {}
    for e1, c1 in a.coeffs:
        for e2, c2 in b.coeffs:
            prod = c1 * c2
            cur = out.get(e1 + e2)
            out[e1 + e2] = prod if cur is None else cur + prod
    return LaurentZ.from_dict(a.ring, out)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_laurent_mul_matches_sympy_remainder(data):
    ring = _drawn_ring(data)
    a, b = _laurent_pair(data, ring)
    gens = sympy.symbols(f"H1:{ring.ngens + 1}")
    basis = [_sympy_expr(gens, g) for g in ring.groebner]
    expected = {}
    for e1, c1 in a.coeffs:
        for e2, c2 in b.coeffs:
            expected[e1 + e2] = expected.get(e1 + e2, 0) + _sympy_expr(gens, c1.poly) * _sympy_expr(gens, c2.poly)
    got = a.mul(b).as_dict()
    for e in set(expected) | set(got):
        remainder = sympy.reduced(sympy.expand(expected.get(e, 0)), basis, *gens, order="grevlex")[1]
        assert sympy.expand(_sympy_expr(gens, got[e].poly) if e in got else 0) == sympy.expand(remainder), e


def _sr_rings():
    """(model, sector) of every sector ring of the quintic, RANK2, the benchmark's fjrw model and P1 x P1."""
    fjrw = fjrw_build(FjrwSpec(n=2, d_w=3, r_charges=(1, 1), group_data=((3, (1, 1)), (3, (1, 2))), potential="x1^3+x2^3"))
    return [(m, g) for m in (corpus()[1], corpus()[3], fjrw, P1xP1) for g in inertia_sectors(m)]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_laurent_mul_matches_sympy_on_the_sr_ideal(data):
    # an oracle that shares nothing with the ring layer: sympy's own Groebner basis of the
    # Stanley-Reisner ideal, z-Laurent products as a convolution of sympy products, and
    # sympy's remainder of each z-coefficient; squares take mul's one-flattening route
    m, g = data.draw(st.sampled_from(_sr_rings()))
    ring = build_ring(m, g)
    a, b = _laurent_pair(data, ring)
    gens = sympy.symbols(f"H1:{m.k + 1}")
    linear = [sum(c * h for c, h in zip(m.column(i), gens)) for i in range(m.r)]
    ideal = [sympy.Mul(*(linear[i] for i in sorted(t))) for t in support_sr_generators(m, g.fixed_support)]
    basis = sympy.groebner(ideal, *gens, order="grevlex", domain="QQ")
    for left, right in ((a, b), (b, a), (a, a)):
        expected = {}
        for e1, c1 in left.coeffs:
            for e2, c2 in right.coeffs:
                expected[e1 + e2] = expected.get(e1 + e2, 0) + _sympy_expr(gens, c1.poly) * _sympy_expr(gens, c2.poly)
        got = left.mul(right).as_dict()
        for e in set(expected) | set(got):
            remainder = basis.reduce(sympy.expand(expected.get(e, 0)))[1]
            assert sympy.expand(_sympy_expr(gens, got[e].poly) if e in got else 0) == sympy.expand(remainder), e


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_laurent_mul_cyclotomic_matches_per_pair_product(data):
    # twist_novikov scales every coefficient of a term by one root of unity
    ring = _drawn_ring(data)
    a, b = _laurent_pair(data, ring)
    roots = st.builds(Cyclo.root_of_unity, st.sampled_from([3, 4, 6, 10]), st.integers(0, 9))
    a, b = a.scale(data.draw(roots)), b.scale(data.draw(roots))
    assert a.mul(b) == _per_pair_product(a, b)
    assert b.mul(a) == _per_pair_product(b, a)


def test_laurent_mul_of_twisted_series_matches_per_pair_product(m_rank2):
    etas, insertions = t_insertion((1, 0))
    s = twist_novikov(big_i_function(m_rank2, etas, insertions, q_bound=F(2), t_order=1), [(1, 0)])
    values = list(s.terms.values())
    assert any(not isinstance(c, Fraction) for v in values for _e, cls in v.coeffs for c in cls.poly.values())
    for value in values:
        h = LaurentZ.from_dict(value.ring, {0: class_from_character(value.ring, (1, 2)), 1: value.ring.one()})
        for other in (value, h):
            assert value.mul(other) == _per_pair_product(value, other)


def test_laurent_mul_reduces_once_per_z_exponent(monkeypatch, m_quintic):
    cases = []
    for m, d in ((m_quintic, (F(1),)), (P1xP1, (F(1), F(2)))):
        ring = ring_at(m, d)
        h = class_from_character(ring, (1,) * m.k)
        a = linear_z_factor(ring, h, F(2)).mul(linear_z_factor(ring, h.scale(F(-3)), F(1, 2)))
        cases.append((a, invert_linear_z_factor(ring, h, F(1))))
        cases.append((a, LaurentZ.from_class(ring, h)))
    calls = []

    def counting(ring, terms):
        calls.append(ring)
        return class_of(ring, terms)

    def refused(*_args):
        raise AssertionError("LaurentZ products must not run CohClass.__mul__")

    monkeypatch.setattr(series_module, "class_of", counting)
    monkeypatch.setattr(CohClass, "__mul__", refused)
    monkeypatch.setattr(CohClass, "__rmul__", refused)
    for a, b in cases:
        top = a.ring.top
        buckets = {
            e1 + e2
            for e1, c1 in a.coeffs
            for e2, c2 in b.coeffs
            if any(sum(m1) + sum(m2) <= top for m1 in c1.poly for m2 in c2.poly)
        }
        calls.clear()
        out = a.mul(b)
        assert len(calls) == len(buckets) == len(out.coeffs)
        assert all(ring is a.ring for ring in calls)
        calls.clear()
        a.scale_class(b.coeffs[0][1])
        assert calls


def test_laurent_mul_refuses_mismatched_rings_with_a_zero_operand(m_quintic, m_cubic):
    ring_a = ring_at(m_quintic, (F(0),))
    ring_b = ring_at(m_cubic, (F(-1, 3),))
    zero_a, zero_b = lz(ring_a, {}), lz(ring_b, {})
    for a, b in ((zero_a, LaurentZ.one(ring_b)), (LaurentZ.one(ring_a), zero_b), (zero_a, zero_b)):
        with pytest.raises(RingMismatchError):
            a.mul(b)
    with pytest.raises(RingMismatchError):
        zero_a.scale_class(ring_b.one())


def test_laurent_add_refuses_mismatched_rings_with_disjoint_supports(m_quintic, m_cubic):
    # no z-exponent is shared, so no two classes are added: only the ring check can refuse
    ring_a = ring_at(m_quintic, (F(0),))
    ring_b = ring_at(m_cubic, (F(-1, 3),))
    with pytest.raises(RingMismatchError):
        LaurentZ.one(ring_a).add(lz(ring_b, {1: ring_b.one()}))
    with pytest.raises(RingMismatchError):
        lz(ring_b, {-1: ring_b.one()}).add(LaurentZ.one(ring_a))


def test_laurent_add_refuses_mismatched_rings_with_a_zero_operand(m_quintic, m_cubic):
    ring_a = ring_at(m_quintic, (F(0),))
    ring_b = ring_at(m_cubic, (F(-1, 3),))
    zero_a, zero_b = lz(ring_a, {}), lz(ring_b, {})
    for a, b in ((zero_a, LaurentZ.one(ring_b)), (LaurentZ.one(ring_a), zero_b), (zero_a, zero_b)):
        with pytest.raises(RingMismatchError):
            a.add(b)


# --- hyper_factor -----------------------------------------------------------


def test_hyper_factor_p1_degree1(m_p1):
    ring = ring_at(m_p1, (F(1),))
    h = class_from_character(ring, (1,))
    value = hyper_factor(m_p1, (F(1),), "ambient", ring, {})
    assert value == lz(ring, {-2: ring.one(), -3: h.scale(F(-2))})


def test_hyper_factor_cubic_glsm(m_cubic):
    d = (F(-1, 3),)
    ring = ring_at(m_cubic, d)
    value = hyper_factor(m_cubic, d, "glsm", ring, {})
    assert value == lz(ring, {0: ring.one().scale(F(-1, 3))})


def test_hyper_factor_degree0(m_p1, m_quintic, m_cubic):
    for m in (m_p1, m_quintic, m_cubic):
        d = (F(0),) * m.k
        ring = ring_at(m, d)
        assert hyper_factor(m, d, "ambient", ring, {}) == LaurentZ.one(ring)
    # glsm mode at degree zero carries the R-charged endpoint classes
    ring5 = ring_at(m_quintic, (F(0),))
    h = class_from_character(ring5, (1,))
    assert hyper_factor(m_quintic, (F(0),), "glsm", ring5, {}) == lz(ring5, {0: h.scale(F(-5))})
    # for a model with no R-charged coordinate the two modes agree
    ring1 = ring_at(m_p1, (F(0),))
    assert hyper_factor(m_p1, (F(0),), "glsm", ring1, {}) == LaurentZ.one(ring1)


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
    assert hyper_factor(m_quintic, d, "ambient", ring, {}) == num.mul(den)


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
        hyper_factor(m_quintic, d, mode, ring, {})
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
    assert hyper_factor(m, d, mode, ring, {}) == _per_factor_product(m, d, mode, ring)


def test_mode_relation_corpus(m_p1, m_quintic, m_cubic, m_rank2):
    # hyper(glsm) = prod over R-charged coords of (rho_i + <d,rho_i> z) * hyper(ambient)
    for m in (m_p1, m_quintic, m_cubic, m_rank2):
        for d in effective_degrees(m, F(3)):
            ring = ring_at(m, d)
            lhs = hyper_factor(m, d, "glsm", ring, {})
            rhs = hyper_factor(m, d, "ambient", ring, {})
            for i in m.r_charged_indices():
                rhs = rhs.mul(
                    linear_z_factor(ring, class_from_character(ring, m.column(i)), pairing(d, m.column(i)))
                )
            assert lhs == rhs, (m.var_names(), d)


def test_prefix_tables_extend_once_per_factor_of_the_longest_range(m_quintic, monkeypatch):
    # x1..x5 read (H + a z)^-5 over a in (0, d]: one table, 24 factors at d = 24.  p reads
    # (-5H + a z) over a in [-5d, 0]: one table, 121 factors at d = 24.  A walk per degree
    # takes sum_{d <= 24} (d + 5d + 1) = 1,825 steps instead of 145.
    extended = []
    extend = series_module._extend_prefix

    def counting(table, key):
        extended.append(key)
        return extend(table, key)

    monkeypatch.setattr(series_module, "_extend_prefix", counting)
    glsm_i_function(m_quintic, q_bound=F(24))
    steps = Counter(extended)
    assert {key[:4]: n for key, n in steps.items()} == {(1, 1, 1, 5): 24, (1, 0, -1, 1): 121}


def test_hyper_factor_reads_no_gamma_table_for_a_zero_degree(monkeypatch):
    # P(1,1,1,2,5)[10] at q <= 11: 12 terms and 55 vanished keys.  Each vanished degree has
    # more coordinates whose range holds nu = x than its ring's top degree, so its factor
    # is zero before any prefix table is read
    m = ci_build(CiSpec(ambient_r=5, k=1, ambient_weights=((1, 1, 1, 2, 5),), theta=(F(1),), taus=((10,),)))
    current, read = [], []
    real_hyper, real_gamma = series_module.hyper_factor, series_module._gamma_series

    def recording_hyper(m, d, *args):
        current.append(d)
        return real_hyper(m, d, *args)

    def recording_gamma(*args):
        read.append(current[-1])
        return real_gamma(*args)

    monkeypatch.setattr(series_module, "hyper_factor", recording_hyper)
    monkeypatch.setattr(series_module, "_gamma_series", recording_gamma)
    s = glsm_i_function(m, q_bound=F(11))
    assert (len(s.terms), len(s.vanished)) == (12, 55)
    assert len(current) == 67
    assert set(read) == {d for d, _alpha in s.terms}


def _truncated_gamma_product(avalues, power, top):
    """prod_a (a + u)^power mod u^(top+1) as Fraction coefficients: list products, then one inversion."""
    out = [F(1)] + [F(0)] * top
    for a in avalues:
        for _ in range(abs(power)):
            out = [out[j] * a + (out[j - 1] if j else 0) for j in range(top + 1)]
    if power > 0:
        return out
    inverse = [1 / out[0]]
    for j in range(1, top + 1):
        inverse.append(-sum(out[i] * inverse[j - i] for i in range(1, j + 1)) / out[0])
    return inverse


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6), st.sampled_from([1, -1]), st.integers(1, 5), st.integers(0, 5), st.integers(0, 12), st.data()
)
def test_gamma_tables_hold_the_truncated_series(den, sign, count, top, k, data):
    # entry j of the table read for k factors is prod_{i<j} (a_i + u)^(-sign count) mod u^(top+1),
    # a_i = sign (first + den i) / den; x and nus are chosen so that {x - nu : nu in nus} = {a_i : i < k}
    residues = range(1, den + 1) if sign > 0 else range(den)
    first = data.draw(st.sampled_from([r for r in residues if gcd(r, den) == 1]))
    num = sign * (first + den * max(k - 1, 0))
    nus = range(k) if sign > 0 else range(1 - k, 1)
    tables: dict = {}
    series_module._gamma_series(num, den, nus, count, top, tables)
    ((key, table),) = tables.items()
    assert len(table) == k + 1
    for j, (numerators, denominator) in enumerate(table):
        avalues = [F(sign * (first + den * i), den) for i in range(j)]
        expected = _truncated_gamma_product(avalues, -sign * count, top)
        assert [F(c, denominator) for c in numerators] == expected, (key, j)
        if sign > 0:
            assert denominator > 0 and gcd(denominator, *numerators) == 1, (key, j)


# sha256 of series_to_json, recorded before the prefix tables held the inverse series themselves
LARGE_Q_DIGESTS = {
    "quintic_glsm_q160": (
        QUINTIC, glsm_i_function, 160, "898151b15ef0ea694e6eb5e2196f883b9f0743dc4df03ed94b6541fa1e7b98ba"
    ),
    "rank2_ambient_q16": (
        RANK2, big_i_function, 16, "d0cad3c3b0d4956ae33770158e9964cf58757aac9a942dfb1b05a7f4e00c1b71"
    ),
}


@pytest.mark.parametrize("case", list(LARGE_Q_DIGESTS))
def test_series_bytes_past_the_workloads_bound(case):
    # the goldens stop at q <= 3 and the benchmark references at q <= 28
    data, build, q_bound, digest = LARGE_Q_DIGESTS[case]
    text = series_to_json(build(parse_model(json.dumps(data)), q_bound=F(q_bound)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@st.composite
def _charged_torus_models(draw):
    """small_torus_models with random R-charges, so that glsm mode moves some ranges."""
    m = draw(small_torus_models())
    charges = draw(st.lists(st.integers(0, 2), min_size=m.r, max_size=m.r))
    return replace(m, r_charges=tuple(charges), d_w=2)


def _times_gkz_factors(value, m, d, l, mode, ring, raising):
    """value times the factors (rho_i + a z) of the coordinates with l_i > 0 (raising) or with l_i < 0.

    With x = <d, rho_i> and l_i = <l, rho_i>, a runs over x + Z in (x - l_i, x]
    when l_i > 0 and in (x, x - l_i] when l_i < 0; in glsm mode the R-charged
    coordinates take [x - l_i, x) and [x, x - l_i) instead.
    """
    for i in range(m.r):
        li = int(pairing(l, m.column(i)))
        if li == 0 or (li > 0) != raising:
            continue
        x = pairing(d, m.column(i))
        below = 1 if mode == "glsm" and m.r_charges[i] != 0 else 0
        values = [x - j - below for j in range(li)] if li > 0 else [x + j + 1 - below for j in range(-li)]
        cls = class_from_character(ring, m.column(i))
        for a in values:
            value = value.mul(linear_z_factor(ring, cls, a))
    return value


def _gkz_relations(m, mode):
    """Check the GKZ recurrence on the q <= 2 series of m; the number of relations checked.

    For l = +-e_a, whenever d and d - l are both effective (terms or vanished),
        I_d prod_{l_i>0} prod_{a in (x-l_i, x]} (rho_i + a z)
            = I_{d-l} prod_{l_i<0} prod_{a in (x, x-l_i]} (rho_i + a z),
    with the glsm ranges of `_times_gkz_factors`: an oracle for hyper_factor
    from the weights alone, written without the engine's factor helpers.  A
    model the series refuses gives 0.
    """
    build = glsm_i_function if mode == "glsm" else big_i_function
    try:
        s = build(m, q_bound=F(2))
    except (HypothesisError, DegenerateStabilityError, BudgetExceededError, InfiniteRingError):
        return 0
    except ValueError as e:
        if "sector is empty" not in str(e):
            raise
        return 0
    values = {d: value for (d, _alpha), value in s.terms.items()}
    values.update((d, None) for d, _alpha in s.vanished)
    checked = 0
    for d, here in values.items():
        ring = ring_at(m, d)
        for a in range(m.k):
            for step in (1, -1):
                l = tuple(F(step if b == a else 0) for b in range(m.k))
                prev = tuple(x - y for x, y in zip(d, l))
                if prev not in values:
                    continue
                there = values[prev]
                lhs = _times_gkz_factors(lz(ring, {}) if here is None else here, m, d, l, mode, ring, True)
                rhs = _times_gkz_factors(lz(ring, {}) if there is None else there, m, d, l, mode, ring, False)
                assert lhs == rhs, (mode, d, l)
                checked += 1
    return checked


# the weighted line P(1,2): fractional degrees d = 1/2, 3/2, ... put x = d > 0 off the integers
P12 = model_from_dict(
    {"r": 2, "k": 1, "weights": [[1, 2]], "r_charges": [0] * 2, "d_w": 1, "theta": ["1"], "potential": None}
)


def _gkz_corpus():
    """The corpus and P(1,2), and each with every coordinate R-charged (glsm ranges at x > 0 too)."""
    models = corpus() + [P12]
    return models + [replace(m, r_charges=(1,) * m.r, d_w=2) for m in models]


@pytest.mark.parametrize("mode", ["ambient", "glsm"])
def test_gkz_recurrence_on_the_corpus(mode):
    for m in _gkz_corpus():
        assert _gkz_relations(m, mode) > 0, m.var_names()


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from(_gkz_corpus()), _charged_torus_models()), st.sampled_from(["ambient", "glsm"]))
def test_gkz_recurrence(m, mode):
    _gkz_relations(m, mode)


PHASE_POOL = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "phase_pool.json"


def test_gkz_recurrence_on_a_phase_pool_sample():
    # every tenth model of the benchmark's random pool that passes validation, in both modes
    pool = json.loads(PHASE_POOL.read_text(encoding="utf-8"))["models"][::10]
    models = [m for m in map(model_from_dict, pool) if validate_module.validate_model(m).overall]
    assert len(models) > len(pool) // 2
    assert sum(_gkz_relations(m, mode) for m in models for mode in ("ambient", "glsm")) > len(models)


# --- exp_factor -------------------------------------------------------------


def test_t_exponents_order():
    assert t_exponents(2, 2) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    assert t_exponents(0, 3) == [()]
    assert t_exponents(0, -1) == t_exponents(2, -1) == []


def test_exp_factor_torder0(m_p1):
    d = (F(1),)
    ring = ring_at(m_p1, d)
    etas, insertions = t_insertion()
    out = exp_factor(d, etas, insertions, 0, LaurentZ.one(ring))
    assert out == {(0,): LaurentZ.one(ring)}


def test_exp_factor_p1_example(m_p1):
    d = (F(1),)
    ring = ring_at(m_p1, d)
    h = class_from_character(ring, (1,))
    etas, insertions = t_insertion()
    out = exp_factor(d, etas, insertions, 2, LaurentZ.one(ring))
    assert out[(1,)] == lz(ring, {0: ring.one(), -1: h})
    assert out[(2,)] == lz(ring, {0: ring.one().scale(F(1, 2)), -1: h})


def test_exp_factor_degree0(m_p1):
    d = (F(0),)
    ring = ring_at(m_p1, d)
    h = class_from_character(ring, (1,))
    etas, insertions = t_insertion()
    out = exp_factor(d, etas, insertions, 1, LaurentZ.one(ring))
    assert out[(1,)] == lz(ring, {-1: h})


def test_exp_factor_makes_no_identity_products_or_unit_scales(m_quintic, monkeypatch):
    # P = z^-1 (H + d z) starts at its character's factor, and neither the coefficient 1 nor
    # 1/alpha at alpha = 1 is applied: one product per degree d = 0..3 and no scale
    reference = big_i_function(m_quintic, *t_insertion(), F(3), 1)
    calls = Counter()
    mul, scale = LaurentZ.mul, LaurentZ.scale

    def counted_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    def counted_scale(self, s):
        calls["scale"] += 1
        return scale(self, s)

    monkeypatch.setattr(LaurentZ, "mul", counted_mul)
    monkeypatch.setattr(LaurentZ, "scale", counted_scale)
    s = big_i_function(m_quintic, *t_insertion(), F(3), 1)
    assert calls == {"mul": 4}
    assert s.terms == reference.terms


@st.composite
def _insertion_polys(draw, nvars):
    """One insertion polynomial of degree <= 2 in nvars characters, with small rational coefficients."""
    monos = [mono for mono in t_exponents(nvars, 2) if any(mono)]
    coeffs = st.fractions(-3, 3, max_denominator=3).filter(bool)
    return draw(st.dictionaries(st.sampled_from(monos), coeffs, min_size=1, max_size=3))


@settings(max_examples=60, deadline=None)
@given(small_torus_models(), st.data())
def test_exp_factor_matches_direct_insertion_exponential(m, data):
    # the direct series' insertion exponential multiplies |alpha| factors per term; the
    # engine grows each term from its predecessor: the two share no code
    columns = sorted(set(m.column(i) for i in range(m.r)))
    etas = data.draw(st.lists(st.sampled_from(columns), min_size=1, max_size=2, unique=True))
    polys = data.draw(st.lists(_insertion_polys(len(etas)), min_size=1, max_size=2))
    insertions = [Insertion.from_terms(f"t{j + 1}", poly) for j, poly in enumerate(polys)]
    t_order = data.draw(st.integers(0, 3))
    try:
        s = empty_series(m, "ambient", etas, insertions, F(1), t_order)
        degrees = effective_degrees(m, s.q_bound)
        rings = sector_rings(m, degrees)
    except (DegenerateStabilityError, BudgetExceededError, InfiniteRingError):
        return
    except ValueError as e:
        if "sector is empty" not in str(e):
            raise
        return
    for d, ring in zip(degrees, rings):
        base = hyper_factor(m, d, "ambient", ring, {})
        assert exp_factor(d, s.etas, s.insertions, t_order, base) == _insertion_exponential(s, d, base)


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
    assert value == hyper_factor(m_quintic, d, "ambient", ring, {})


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


def test_hypothesis_lp_runs_once_per_model(monkeypatch, m_rank2):
    calls = []
    real = validate_module.invariants_trivial

    def counting(m, *args, **kwargs):
        calls.append(m)
        return real(m, *args, **kwargs)

    monkeypatch.setattr(validate_module, "invariants_trivial", counting)
    validate_module.glsm_hypothesis.cache_clear()
    for _ in range(3):
        s = glsm_i_function(m_rank2, q_bound=F(1))
        assert compact_type_report(s)["hypothesis_holds"]
    # an equal model parsed again shares the decision
    again = glsm_i_function(parse_model(json.dumps(RANK2)), q_bound=F(1))
    assert compact_type_report(again)["hypothesis_holds"]
    assert calls == [m_rank2]
    refused = model_from_dict(
        {"r": 3, "k": 1, "weights": [[1, -1, 2]], "r_charges": [0, 0, 2], "d_w": 2, "theta": ["1"], "potential": None}
    )
    for _ in range(2):
        with pytest.raises(HypothesisError):
            glsm_i_function(refused, q_bound=F(1))
    assert calls == [m_rank2, refused]
    result = validate_module.glsm_hypothesis(refused)
    assert result is validate_module.glsm_hypothesis(refused)
    with pytest.raises(AttributeError):
        result.trivial = True  # callers share one instance, so it is frozen


OCTIC = parse_model(
    json.dumps(
        {
            "r": 7,
            "k": 2,
            "weights": [[0, 0, 1, 1, 1, 1, -4], [1, 1, 0, 0, 0, -2, 0]],
            "r_charges": [0, 0, 0, 0, 0, 0, 1],
            "d_w": 1,
            "theta": ["1", "1"],
            "potential": "x1^8*x6^4*p1+x2^8*x6^4*p1+x3^4*p1+x4^4*p1+x5^4*p1",
            "variables": ["x1", "x2", "x3", "x4", "x5", "x6", "p1"],
            "assert_critical_proper": True,
        }
    )
)


def _glsm_minus_derivative(m, q_bound, t_order) -> list[dict]:
    """series_compare of glsm_i_function against z_partial of big_i_function along the R-charged columns.

    With t_order >= 1 the series carry one insertion t1 * rho_1.
    """
    etas, insertions = ((m.column(0),), (single_character_insertion("t1", 0, 1),)) if t_order else ((), ())
    glsm = glsm_i_function(m, etas, insertions, q_bound, t_order)
    big = big_i_function(m, etas, insertions, q_bound, t_order)
    charged = [m.column(i) for i in m.r_charged_indices()]
    return series_compare(glsm, z_partial(big, charged, "by_multiplication"))


@pytest.mark.parametrize("q_bound, t_order", [(F(3), 0), (F(2), 1)])
@pytest.mark.parametrize("m", corpus() + [OCTIC], ids=["p1", "quintic", "cubic", "rank2", "octic"])
def test_glsm_i_function_is_z_partial_of_big_i_function(m, q_bound, t_order):
    # the glsm series is the ambient one differentiated once along each R-charged coordinate
    assert _glsm_minus_derivative(m, q_bound, t_order) == []


@settings(max_examples=60, deadline=None)
@given(small_torus_models(), st.data())
def test_glsm_i_function_is_z_partial_of_big_i_function_on_random_models(m, data):
    charges = data.draw(st.lists(st.integers(0, 2), min_size=m.r, max_size=m.r).filter(any))
    m = replace(m, r_charges=tuple(charges), d_w=2)
    try:
        diff = _glsm_minus_derivative(m, F(1), data.draw(st.integers(0, 1)))
    except (HypothesisError, DegenerateStabilityError, BudgetExceededError):
        return
    except ValueError as e:
        if "sector is empty" not in str(e):
            raise
        return
    assert diff == []


def test_glsm_quintic_degree_terms_divisible(m_quintic):
    s = glsm_i_function(m_quintic, q_bound=F(2))
    assert s.state == "glsm"
    for (d, _alpha), value in s.terms.items():
        ring = value.ring
        in_ideal = ideal_membership(ring, [class_from_character(ring, (-5,))])
        for _z, cls in value.coeffs:
            assert in_ideal(cls)


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
    # twisted and read-back series are not engine output: both routes act on the terms given
    cases = []
    for m, rho, tau in ((m_p1, [(1,)], (1,)), (m_quintic, [(-5,)], (5,)), (m_cubic, [(1,)], (3,))):
        etas, insertions = t_insertion((1,) * m.k)
        s = big_i_function(m, etas, insertions, q_bound=F(2), t_order=1)
        cases += [(s, rho), (twist_novikov(s, [tau]), rho)]
    cases.append((series_from_json(series_to_json(cases[-1][0])), cases[-1][1]))
    for s, rho in cases:
        a = z_partial(s, rho, "by_multiplication")
        b = z_partial(s, rho, "by_insertion")
        assert not series_compare(a, b)
        assert b.vanished == a.vanished
        verified = z_partial(s, rho, "verify")
        assert not series_compare(verified, a)


@pytest.mark.parametrize("function", [big_i_function, glsm_i_function])
def test_an_extra_insertion_at_exponent_zero_leaves_the_series(function):
    # the terms of a series with one more eta and insertion whose extra exponent is 0 are
    # the series itself, so the exponent-1 term that z_partial grows from a stored term is the engine's
    for m in corpus():
        xi = m.column(m.r - 1)
        t1 = Insertion.from_terms("t1", {(1,): F(1)})
        s = function(m, [(1,) * m.k], [t1], q_bound=F(2), t_order=1)
        extra = [Insertion.from_terms("t1", {(1, 0): F(1)}), Insertion.from_terms("s", {(0, 1): F(1)})]
        bigger = function(m, [(1,) * m.k, xi], extra, q_bound=F(2), t_order=1)
        terms = {(d, alpha[:-1]): v for (d, alpha), v in bigger.terms.items() if alpha[-1] == 0}
        vanished = tuple((d, alpha[:-1]) for d, alpha in bigger.vanished if alpha[-1] == 0)
        assert terms == s.terms, m.var_names()
        assert vanished == s.vanished, m.var_names()
        assert len(bigger.terms) > len(terms)


def test_z_partial_builds_one_multiplier_per_degree(monkeypatch, m_quintic):
    etas, insertions = t_insertion()
    s = big_i_function(m_quintic, etas, insertions, q_bound=F(3), t_order=1)
    calls = []

    def counting(ring, cls, a):
        calls.append(a)
        return linear_z_factor(ring, cls, a)

    monkeypatch.setattr(series_module, "linear_z_factor", counting)
    rho_list = [(1,), (-5,)]
    z_partial(s, rho_list, "by_multiplication")
    degrees = {d for d, _alpha in s.terms}
    assert len(s.terms) > len(degrees)
    assert len(calls) == len(rho_list) * len(degrees)


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
        rep = compact_type_report(s)
        assert rep["hypothesis_holds"]
        assert rep["violations"] == []


def test_compact_type_ambient_negative_control(m_quintic):
    s = big_i_function(m_quintic, q_bound=F(2))
    rep = compact_type_report(s)
    assert rep["hypothesis_holds"]
    assert rep["violations"], "ambient series must fail the endpoint divisibility somewhere"
    zero_degree = [v for v in rep["violations"] if v["degree"] == ["0"]]
    assert zero_degree


def test_compact_type_report_eliminates_each_endpoint_ideal_once(m_quintic, monkeypatch):
    # every degree of the glsm quintic tests the same ideal (p) of the untwisted sector ring
    s = glsm_i_function(m_quintic, q_bound=F(3))
    calls = []
    real = series_module.ideal_membership
    monkeypatch.setattr(series_module, "ideal_membership", lambda ring, factors: calls.append(ring) or real(ring, factors))
    report = compact_type_report(s)
    assert len(calls) == 1
    assert report["divisibility_checked"] == 13 and report["violations"] == []
    assert compact_type_report(series_from_json(series_to_json(s))) == report
    assert len(calls) == 2


def test_compact_type_counts_vanishing(m_cubic):
    s = glsm_i_function(m_cubic, q_bound=F(3))
    rep = compact_type_report(s)
    assert rep["structurally_vanishing"] >= 1


# --- comparison, truncation, serialization ----------------------------------


def test_series_compare_self(m_p1):
    s = big_i_function(m_p1, q_bound=F(2))
    assert series_compare(s, s) == []


def test_series_compare_refuses_series_of_different_models(m_quintic):
    # models that differ only in assert_critical_proper are different models
    other = replace(m_quintic, assert_critical_proper=not m_quintic.assert_critical_proper)
    a, b = big_i_function(m_quintic, q_bound=F(1)), big_i_function(other, q_bound=F(1))
    with pytest.raises(ValueError) as caught:
        series_compare(a, b)
    assert str(caught.value) == "series belong to different models"
    # a second parse of the model is the same model
    again = parse_model(json.dumps(model_to_dict(m_quintic)))
    assert again is not m_quintic and series_compare(a, big_i_function(again, q_bound=F(1))) == []


def test_series_compare_flat_rename(m_p1):
    etas, _ = t_insertion()
    a = big_i_function(m_p1, etas, (Insertion.from_terms("t1", {(1,): F(1)}),), F(2), 2)
    b = big_i_function(m_p1, etas, (Insertion.from_terms("s1", {(1,): F(1)}),), F(2), 2)
    with pytest.raises(ValueError, match="insertion variables"):
        series_compare(a, b)
    assert series_compare(a, b, {"s1": "t1"}) == []


def test_series_compare_refuses_repeated_names(m_p1):
    # both variables named t would be read from the other side's first position
    etas, _ = t_insertion()
    once, twice = Insertion.from_terms("t", {(1,): F(1)}), Insertion.from_terms("t", {(1,): F(2)})
    s = big_i_function(m_p1, etas, (once, twice), F(1), 1)
    with pytest.raises(ValueError, match="more than once"):
        series_compare(s, s)
    a = big_i_function(m_p1, etas, (once, replace(twice, name="u")), F(1), 1)
    with pytest.raises(ValueError, match="more than once"):
        series_compare(a, a, {"u": "t"})


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


def test_series_reader_refuses_keys_outside_the_truncation(m_p1, m_quintic):
    # a P1 series written at q <= 3 and relabelled q <= 1 used to read back with its 4 terms at theta-degrees 0..3
    data = json.loads(series_to_json(big_i_function(m_p1, *t_insertion(), F(3), 1)))
    assert [term["theta_degree"] for term in data["terms"]] == ["0", "0", "1", "1", "2", "2", "3", "3"]
    data["truncation"]["q_bound"] = "1"
    with pytest.raises(InputError, match=r"series terms\[4\] at degree \['2'\]: theta-degree 2 exceeds"):
        series_from_json(json.dumps(data))
    data["truncation"].update(q_bound="3", t_order=0)
    with pytest.raises(InputError, match=r"series terms\[1\] at degree \['0'\]: t_exponent \[1\] exceeds"):
        series_from_json(json.dumps(data))
    # a vanished key is checked on its own theta-degree
    quintic = json.loads(series_to_json(glsm_i_function(m_quintic, q_bound=F(2))))
    quintic["vanished"].append({"degree": ["3"], "t_exponent": []})
    with pytest.raises(InputError, match=r"series vanished\[0\] at degree \['3'\]: theta-degree 3 exceeds"):
        series_from_json(json.dumps(quintic))


@cache
def _p1_series_text():
    return series_to_json(big_i_function(corpus()[0], q_bound=F(2)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(alphabet="-+_ 0123\u0663\t", max_size=6), st.integers(-(10**6), 10**6).map(str)))
@example("None")
@example("-0")
@example("1_0")
@example("\u0663")
@example(" -3")
@example("-3 ")
@example("+3")
@example("-03")
@example("-3")
def test_series_reads_a_z_key_iff_the_writer_writes_it(key):
    # int() also reads "-0_3", "+3", " -3" and "\u0663" (Arabic-Indic three); a z key is read iff it is str(int) of
    # its integer, and "None" must not pass as the str() of a failed parse
    data = json.loads(_p1_series_text())
    z = data["terms"][1]["z"]
    z[key] = z.pop("-3")
    text = json.dumps(data)
    if re.fullmatch(r"0|-?[1-9][0-9]*", key):
        series_from_json(text)
    else:
        with pytest.raises(InputError) as caught:
            series_from_json(text)
        assert str(caught.value) == f"series terms[1] z exponent must be an integer in canonical form, got {json.dumps(key)}"


@cache
def _rank2_series_text():
    return series_to_json(big_i_function(parse_model(json.dumps(RANK2)), q_bound=F(2)))


@st.composite
def _degree_respellings(draw):
    """(written text, field, index, entry, respelling): a degree entry of the P1 or RANK2 file, spelled anew.

    Every respelling has the entry's value: the writer's string, a multiple of its numerator and denominator,
    leading zeros or "0_", a '+', an explicit "/1", surrounding space, Arabic-Indic digits or a JSON integer.
    """
    written = draw(st.sampled_from([_p1_series_text(), _rank2_series_text()]))
    data = json.loads(written)
    entries = [(field, n, i) for field in ("terms", "vanished") for n, item in enumerate(data[field]) for i in range(len(item["degree"]))]
    field, n, i = draw(st.sampled_from(entries))
    value = Fraction(data[field][n]["degree"][i])
    c = draw(st.integers(1, 3))
    num, den = value.numerator * c, value.denominator * c
    body = draw(st.sampled_from(["", "0", "00", "0_"])) + str(abs(num))
    if den != 1 or draw(st.booleans()):
        body += f"/{den}"
    text = ("-" if num < 0 else draw(st.sampled_from(["", "+"]))) + body
    arabic_indic = text.translate({ord("0") + digit: 0x660 + digit for digit in range(10)})
    text = draw(st.sampled_from([text, f" {text}", arabic_indic]))
    spelling = draw(st.sampled_from([text, num] if den == 1 else [text]))
    return written, field, n, i, spelling


@settings(max_examples=150, deadline=None)
@given(_degree_respellings())
def test_series_reads_a_degree_entry_iff_the_writer_writes_it(drawn):
    # "01", "2/2", "+1", "0_1", "\u0661" and 1 all read as the degree 1 before; one series has one file
    written, field, n, i, spelling = drawn
    data = json.loads(written)
    writer = data[field][n]["degree"][i]
    data[field][n]["degree"][i] = spelling
    text = json.dumps(data)
    if spelling == writer:
        assert series_to_json(series_from_json(text)) == written
    else:
        with pytest.raises(InputError) as caught:
            series_from_json(text)
        assert str(caught.value).startswith(f"series {field}[{n}] degree"), caught.value


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
            width = value.coeffs[-1][0] - value.coeffs[0][0] + 1
            assert width <= factor_count + s.t_order + 2



def _zeta6_times(s):
    zeta6 = Cyclo.root_of_unity(6, 1)
    return s.map_terms(lambda _d, _alpha, value: value.scale(zeta6))


@pytest.mark.parametrize(
    "model, make, phase, checked",
    [
        # the cubic's half-turn twist: genuine zeta_6 coefficients, on terms without endpoint factors
        (2, glsm_i_function, lambda s: twist_novikov(s, [(1,)]), 0),
        # a global zeta_6 reaches ideal_membership on every checked term
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
    report = compact_type_report(phased)
    assert report == compact_type_report(s)
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
    report = compact_type_report(s)
    assert report["divisibility_checked"] == checked
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == digest
