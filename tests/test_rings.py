import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import cache
from itertools import product
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.orderings import grevlex

from glsmkit.lattice import nonneg_vectors
from glsmkit.model import model_from_dict, parse_model
from glsmkit.rings import (
    _ring_table,
    CohClass,
    InfiniteRingError,
    RingMismatchError,
    build_ring,
    class_from_character,
    class_from_json,
    class_of,
    class_to_json,
    divides_ideal,
    ideal_membership,
    monomial_key,
)
from glsmkit.scalars import Cyclo
from glsmkit.sectors import (
    DegenerateStabilityError,
    inertia_sectors,
    sector_of_degree,
    semistable_supports,
    support_sr_generators,
)
from glsmkit.validate import no_strict_semistable

from conftest import corpus, small_torus_models

F = Fraction


def ring_of(m, d=None):
    d = d if d is not None else (F(0),) * m.k
    return build_ring(m, sector_of_degree(m, d))


def test_build_ring_p1(m_p1):
    ring = ring_of(m_p1)
    assert ring.staircase == ((0,), (1,))
    # single relation H^2
    assert len(ring.groebner) == 1
    assert dict(ring.groebner[0]) == {(2,): F(1)}


def test_build_ring_quintic(m_quintic):
    ring = ring_of(m_quintic)
    assert ring.staircase == tuple((i,) for i in range(5))


def test_build_ring_cubic_twisted(m_cubic):
    ring = ring_of(m_cubic, (F(-1, 3),))
    assert ring.staircase == ((0,),)
    h = class_from_character(ring, (1,))
    assert h.is_zero()


def test_build_ring_rank2(m_rank2):
    ring = ring_of(m_rank2)
    assert ring.staircase == ((0, 0),)


def test_class_from_character_examples(m_p1, m_cubic, m_quintic):
    ring = ring_of(m_p1)
    assert class_to_json(class_from_character(ring, (1,))) == {"H1": "1"}
    ring3 = ring_of(m_cubic, (F(-1, 3),))
    assert class_from_character(ring3, (1,)).is_zero()
    ring5 = ring_of(m_quintic)
    assert class_to_json(class_from_character(ring5, (-5,))) == {"H1": "-5"}


def test_ring_arithmetic_examples(m_p1, m_quintic):
    ring = ring_of(m_p1)
    h = class_from_character(ring, (1,))
    assert (h * h).is_zero()
    ring5 = ring_of(m_quintic)
    h5 = class_from_character(ring5, (1,))
    assert (h5 ** 3 * h5 ** 2).is_zero()
    assert h5 ** 2 * h5 ** 2 == h5 ** 4
    # 3H^2 + 2H - H -> H in Q[H]/(H^2)
    v = (h * h).scale(F(3)) + h.scale(F(2)) - h
    assert v == h


def test_ring_mismatch_raises(m_p1, m_quintic):
    a = class_from_character(ring_of(m_p1), (1,))
    b = class_from_character(ring_of(m_quintic), (1,))
    with pytest.raises(RingMismatchError):
        _ = a + b


def test_a_ring_is_its_model_and_its_sector():
    # two parses of one file give equal models, so their rings are equal without the model being hashed
    text = (Path(__file__).resolve().parent / "data" / "quintic.json").read_text(encoding="utf-8")
    m1, m2 = parse_model(text), parse_model(text)
    a, b = ring_of(m1), ring_of(m2)
    assert a is not b and a == b and hash(a) == hash(b) and a.forms is b.forms
    assert class_from_character(a, (1,)) + class_from_character(b, (1,)) == class_from_character(a, (2,))
    # a model that differs only in assert_critical_proper gives a ring with the same lambda and another identity
    c = ring_of(replace(m1, assert_critical_proper=not m1.assert_critical_proper))
    assert c.sector.lam == a.sector.lam and c != a and a != c
    with pytest.raises(RingMismatchError):
        _ = class_from_character(a, (1,)) + class_from_character(c, (1,))


def test_nilpotency(m_p1, m_quintic, m_cubic):
    for m, d in ((m_p1, None), (m_quintic, None), (m_cubic, (F(-1, 3),))):
        ring = ring_of(m, d)
        for a in range(ring.ngens):
            h = class_from_character(ring, tuple(1 if b == a else 0 for b in range(ring.ngens)))
            assert (h ** len(ring.staircase)).is_zero()


def test_sr_products_vanish(m_p1, m_quintic, m_cubic, m_rank2):
    for m in (m_p1, m_quintic, m_cubic, m_rank2):
        for g in inertia_sectors(m):
            ring = build_ring(m, g)
            for t_set in support_sr_generators(m, g.fixed_support):
                prod = ring.one()
                for i in sorted(t_set):
                    prod = prod * class_from_character(ring, m.column(i))
                assert prod.is_zero()


def test_divides_ideal_examples(m_p1, m_quintic):
    ring5 = ring_of(m_quintic)
    h = class_from_character(ring5, (1,))
    rho_p = class_from_character(ring5, (-5,))
    multiple = rho_p * (h + ring5.one())
    assert divides_ideal(multiple, [rho_p])
    ring = ring_of(m_p1)
    assert not divides_ideal(ring.one(), [class_from_character(ring, (1,))])
    assert divides_ideal(h ** 4, [h, h])


def test_divides_zero_ideal(m_p1):
    ring = ring_of(m_p1)
    h = class_from_character(ring, (1,))
    zero = CohClass(ring, {})
    assert divides_ideal(zero, [h])


def test_randomized_ring_identities(m_quintic):
    ring = ring_of(m_quintic)
    rng = random.Random(11)

    def rand_class():
        poly = {}
        for mono in ring.staircase:
            c = F(rng.randint(-3, 3), rng.randint(1, 3))
            if c and rng.random() < 0.7:
                poly[mono] = c
        return CohClass(ring, poly)

    one = ring.one()
    for _ in range(25):
        a, b, c = rand_class(), rand_class(), rand_class()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * one == a


def test_build_ring_order_independence(m_rank2):
    # reduced Groebner bases are unique: permuting sr generators cannot matter
    from glsmkit.multipoly import groebner_basis, poly_mul
    from glsmkit.rings import linear_form

    m = m_rank2
    g = inertia_sectors(m)[0]
    gens = []
    for t_set in support_sr_generators(m, g.fixed_support):
        prod = {(0,) * m.k: F(1)}
        for i in sorted(t_set):
            prod = poly_mul(prod, linear_form(m.column(i), m.k))
        gens.append(prod)
    b1 = groebner_basis(gens)
    b2 = groebner_basis(list(reversed(gens)))
    assert b1 == b2


def test_infinite_ring_error():
    import json

    from glsmkit.model import parse_model
    from glsmkit.sectors import sector_of_degree

    # theta on the ray through a column (a GIT wall): the presentation of the
    # identity sector has leading terms H1^2 and H1*H2, no pure power of H2
    m = parse_model(
        json.dumps(
            {
                "r": 3,
                "k": 2,
                "weights": [[1, 0, 1], [0, 1, 1]],
                "r_charges": [0, 0, 0],
                "d_w": 1,
                "theta": ["1", "1"],
                "potential": None,
            }
        )
    )
    with pytest.raises(InfiniteRingError):
        build_ring(m, sector_of_degree(m, (F(0), F(0))))


def test_infinite_ring_error_names_the_generator():
    # the same wall model: H2 has no pure power; the message used to read "generator H 1"
    m = model_from_dict(
        {"r": 3, "k": 2, "weights": [[1, 0, 1], [0, 1, 1]], "r_charges": [0, 0, 0], "d_w": 1, "theta": ["1", "1"]}
    )
    message = "quotient ring is infinite-dimensional along generator H2 (no pure power among leading terms)"
    with pytest.raises(InfiniteRingError) as caught:
        build_ring(m, sector_of_degree(m, (F(0), F(0))))
    assert str(caught.value) == message


def test_class_json_roundtrip(m_quintic):
    ring = ring_of(m_quintic)
    h = class_from_character(ring, (1,))
    v = (h ** 3).scale(F(-7, 3)) + ring.one()
    data = class_to_json(v)
    assert class_from_json(ring, data) == v


@pytest.mark.parametrize("data", [{"H1": "0", "H1^1": "2"}, {"H1*H1": "1", "H1^2": "0"}, {"1": "1", "H1^0": "1"}])
def test_class_json_refuses_a_monomial_spelled_twice(m_quintic, data):
    # two spellings of one monomial would let the later coefficient replace the earlier; a zero counts as listed
    with pytest.raises(ValueError, match="invalid staircase monomial key"):
        class_from_json(ring_of(m_quintic), data)


P5_CUBED = Path(__file__).resolve().parent / "data" / "p5-cubed.json"


@cache
def _rings_with_their_keys():
    """Each sector ring of the corpus and the identity ring of (P^5)^3, with {monomial_key(s): s} over its staircase."""
    rings = [build_ring(m, g) for m in corpus() for g in inertia_sectors(m)]
    rings.append(ring_of(parse_model(P5_CUBED.read_text(encoding="utf-8"))))
    return [(ring, {monomial_key(s): s for s in ring.staircase}) for ring in rings]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(alphabet="H123^*0 ", max_size=12), st.lists(st.integers(0, 6), min_size=3, max_size=3)))
@example("H1^1")
@example("H1*H1")
@example("H1^0")
@example(" H1")
@example("H01")
@example("H2*H1")
@example("1 ")
def test_class_json_reads_a_key_iff_the_writer_writes_it(drawn):
    # a key is read iff it is `monomial_key` of a staircase monomial; each example above used to read as a monomial.
    # A drawn exponent vector is keyed by the writer, so staircase monomials are read and the others refused
    for ring, written in _rings_with_their_keys():
        key = drawn if isinstance(drawn, str) else monomial_key(drawn[: ring.ngens])
        if key in written:
            assert class_from_json(ring, {key: "1"}) == CohClass(ring, {written[key]: F(1)})
        else:
            with pytest.raises(ValueError) as caught:
                class_from_json(ring, {key: "1"})
            assert str(caught.value) == f"invalid staircase monomial key {key!r}"


# --- sympy oracle for the ring layer -----------------------------------------


def _toric(weights, theta):
    r = len(weights[0])
    return model_from_dict(
        {"r": r, "k": len(weights), "weights": weights, "r_charges": [0] * r, "d_w": 1, "theta": theta, "potential": None}
    )


# multivariate staircases that the random models rarely reach: P1xP1, F_1, P2xP1, P1xP1xP1
TORIC = [
    _toric([[1, 1, 0, 0], [0, 0, 1, 1]], ["1", "1"]),
    _toric([[1, 1, 1, 0], [0, 0, 1, 1]], ["2", "1"]),
    _toric([[1, 1, 1, 0, 0], [0, 0, 0, 1, 1]], ["1", "1"]),
    _toric([[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]], ["1", "1", "1"]),
]


def _expr(gens, poly):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(h**e for h, e in zip(gens, mono))) for mono, c in poly.items()),
        sympy.Integer(0),
    )


def _poly(gens, expr):
    return {mono: F(int(c.p), int(c.q)) for mono, c in sympy.Poly(expr, *gens).as_dict().items() if c}


def _classes(data, ring, count):
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return [CohClass(ring, {s: c for s in ring.staircase if (c := data.draw(coeff))}) for _ in range(count)]


@settings(max_examples=120, deadline=None)
@given(st.one_of(st.sampled_from(corpus() + TORIC), small_torus_models()), st.data())
def test_ring_layer_matches_sympy(m, data):
    try:
        sectors = inertia_sectors(m)
        ring = build_ring(m, data.draw(st.sampled_from(sectors))) if sectors else None
    except (DegenerateStabilityError, InfiniteRingError):
        return
    if ring is None:
        return
    gens = sympy.symbols(f"H1:{m.k + 1}")
    linear = [sum(c * h for c, h in zip(m.column(i), gens)) for i in range(m.r)]
    ideal = [sympy.Mul(*(linear[i] for i in sorted(t))) for t in support_sr_generators(m, ring.sector.fixed_support)]
    basis = sympy.groebner(ideal, *gens, order="grevlex", domain="QQ")

    # the reduced basis and the staircase
    assert {frozenset(_poly(gens, g).items()) for g in basis.exprs} == {frozenset(g.items()) for g in ring.groebner}
    leads = [sympy.Poly(g, *gens).monoms(order="grevlex")[0] for g in basis.exprs]
    box = product(range(max(map(sum, leads)) + 1), repeat=m.k)
    stairs = [s for s in box if not any(all(a <= b for a, b in zip(lm, s)) for lm in leads)]
    assert ring.staircase == tuple(sorted(stairs, key=grevlex))

    # class products against sympy's remainder of the plain product
    a, b = _classes(data, ring, 2)
    assert (a * b).poly == _poly(gens, basis.reduce(_expr(gens, a.poly) * _expr(gens, b.poly))[1])

    # every tabulated normal form against sympy's remainder; the ideal is
    # homogeneous, so the monomials one degree above top all reduce to zero
    assert set(ring.forms) == set(nonneg_vectors((1,) * m.k, ring.top))
    for mono, form in ring.forms.items():
        assert form == _poly(gens, basis.reduce(_expr(gens, {mono: F(1)}))[1])
    for mono in nonneg_vectors((1,) * m.k, ring.top + 1):
        if sum(mono) == ring.top + 1:
            assert basis.reduce(_expr(gens, {mono: F(1)}))[1] == 0

    # class_of on random terms up to one degree above top (those read zero)
    monos = list(nonneg_vectors((1,) * m.k, ring.top + 1))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    terms = data.draw(st.lists(st.tuples(st.sampled_from(monos), coeff), max_size=6))
    summed = {}
    for mono, c in terms:
        summed[mono] = summed.get(mono, 0) + c
    assert class_of(ring, terms).poly == _poly(gens, basis.reduce(_expr(gens, summed))[1])

    # linear forms against sympy's remainder
    xi = data.draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3), min_size=m.k, max_size=m.k))
    form = _expr(gens, {tuple(int(a == b) for b in range(m.k)): c for a, c in enumerate(xi)})
    assert class_from_character(ring, xi).poly == _poly(gens, basis.reduce(form)[1])

    # membership in (p) against a Groebner basis of I + (p)
    chars = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=m.k, max_size=m.k), min_size=1, max_size=2))
    factors = [class_from_character(ring, xi) for xi in chars]
    with_p = sympy.groebner([*ideal, sympy.Mul(*(sum(c * h for c, h in zip(xi, gens)) for xi in chars))], *gens, order="grevlex", domain="QQ")
    multiple = b
    for f in factors:
        multiple = multiple * f
    in_ideal = ideal_membership(ring, factors)
    for cls in (a, multiple):
        assert in_ideal(cls) == with_p.contains(_expr(gens, cls.poly))
    # a cyclotomic class: multiple is in (p), and 1 and zeta_3 are independent over Q,
    # so a + zeta_3 * multiple is in (p) iff a is
    mixed = a + multiple.scale(Cyclo.root_of_unity(3, 1))
    assert in_ideal(mixed) == with_p.contains(_expr(gens, a.poly))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(corpus() + TORIC), st.data())
def test_ideal_membership_matches_a_sympy_rank_test(m, data):
    # a class lies in (p) iff appending its staircase vector to the vectors of p*s, for every
    # staircase monomial s, keeps the rank; p*s is sympy's remainder modulo sympy's own basis
    # of the Stanley-Reisner ideal
    ring = build_ring(m, data.draw(st.sampled_from(inertia_sectors(m))))
    gens = sympy.symbols(f"H1:{m.k + 1}")
    linear = [sum(c * h for c, h in zip(m.column(i), gens)) for i in range(m.r)]
    ideal = [sympy.Mul(*(linear[i] for i in sorted(t))) for t in support_sr_generators(m, ring.sector.fixed_support)]
    basis = sympy.groebner(ideal, *gens, order="grevlex", domain="QQ")
    chars = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=m.k, max_size=m.k), min_size=1, max_size=2))
    p = sympy.Mul(*(sum(c * h for c, h in zip(xi, gens)) for xi in chars))
    span = []
    for s in ring.staircase:
        form = _poly(gens, basis.reduce(sympy.expand(p * _expr(gens, {s: F(1)})))[1])
        span.append([form.get(t, F(0)) for t in ring.staircase])

    def member(cls):
        vec = [cls.poly.get(t, F(0)) for t in ring.staircase]
        return sympy.Matrix(span).rank() == sympy.Matrix([*span, vec]).rank()

    in_ideal = ideal_membership(ring, [class_from_character(ring, xi) for xi in chars])
    a, = _classes(data, ring, 1)
    weights = [data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=3)) for _ in span]
    multiple = CohClass(ring, {t: c for j, t in enumerate(ring.staircase) if (c := sum(w * row[j] for w, row in zip(weights, span)))})
    for cls in (a, multiple, ring.one(), CohClass(ring, {})):
        assert in_ideal(cls) == member(cls)
        # a nonzero scalar keeps membership, a root of unity included
        root = Cyclo.root_of_unity(data.draw(st.sampled_from([3, 4, 5, 6])), data.draw(st.integers(0, 5)))
        assert in_ideal(cls.scale(root)) == member(cls)
    # 1 and a primitive root zeta are independent over Q, so a + zeta * b is in (p) iff a and b are
    zeta = Cyclo.root_of_unity(data.draw(st.sampled_from([3, 4, 5, 6])), 1)
    for x, y in ((a, multiple), (multiple, a), (multiple, multiple)):
        mixed = x + y.scale(zeta)
        assert in_ideal(mixed) == (member(x) and member(y))


# --- a Groebner-free oracle: the Hilbert function from torus-fixed points ----

# xi_i = 1 + eps_i with small generic eps_i in (0, 1e-3], the same for every model
_XI = [1 + sympy.Rational(n, 10**9) for n in random.Random(7).sample(range(1, 10**6 + 1), 8)]


def _fixed_point_hilbert(m, fixed):
    """Number of staircase monomials of each degree, counted by Bialynicki-Birula from the fixed points.

    The torus-fixed points of the sector's quotient C^fixed // G are its
    size-k minimal semistable supports S inside the fixed support.  Writing
    rho_i = sum_{j in S} c_ij rho_j, coordinate i of fixed - S has tangent
    weight w_i = xi_i - sum_j c_ij xi_j at S; the cell of S has dimension the
    number of negative w_i, and each cell adds one class to the cohomology in
    that degree.
    """
    counts = Counter()
    for support in semistable_supports(m):
        if len(support) != m.k or not support <= fixed:
            continue
        basis = sorted(support)
        inverse = sympy.Matrix([[m.weights[a][j] for j in basis] for a in range(m.k)]).inv()
        negative = 0
        for i in sorted(fixed - support):
            c = inverse * sympy.Matrix([m.weights[a][i] for a in range(m.k)])
            w = _XI[i] - sum(c_ij * _XI[j] for c_ij, j in zip(c, basis))
            assert w != 0
            negative += bool(w < 0)
        counts[negative] += 1
    return counts


def _check_fixed_point_hilbert(m):
    for g in inertia_sectors(m):
        ring = build_ring(m, g)
        assert _fixed_point_hilbert(m, g.fixed_support) == Counter(sum(mono) for mono in ring.staircase)


def test_fixed_point_hilbert_on_the_corpus():
    for m in corpus() + TORIC:
        _check_fixed_point_hilbert(m)


@settings(max_examples=120, deadline=None)
@given(small_torus_models())
def test_fixed_point_hilbert_on_random_models(m):
    # the fixed points describe the quotient only at a generic theta; validation refuses the others
    if no_strict_semistable(m):
        _check_fixed_point_hilbert(m)


# --- one table per (model, fixed support) ------------------------------------


def test_sectors_with_one_fixed_support_share_a_table(m_rank2):
    labels = inertia_sectors(m_rank2)
    g1, g2 = [g for g in labels if g.fixed_support == frozenset({2, 3})][:2]
    r1, r2 = build_ring(m_rank2, g1), build_ring(m_rank2, g2)
    assert r1.forms is r2.forms
    # the table is shared, the sector label is not: their classes never mix
    assert r1 != r2 and r1.sector != r2.sector
    with pytest.raises(RingMismatchError):
        _ = r1.one() + r2.one()
    with pytest.raises(RingMismatchError):
        _ = r1.one() * r2.one()


@pytest.mark.parametrize("index", range(4), ids=["p1", "quintic", "cubic", "rank2"])
def test_one_ring_table_per_fixed_support(index, groebner_reductions):
    m = corpus()[index]
    labels = inertia_sectors(m)
    for _ in range(2):
        for g in labels:
            build_ring(m, g)
    supports = len({g.fixed_support for g in labels})
    assert len(groebner_reductions) == _ring_table.cache_info().misses == supports


def test_build_ring_twice_gives_equal_rings_on_one_table(m_quintic):
    # build_ring keeps no memo of its own: each call labels the memoised table afresh
    for g in inertia_sectors(m_quintic):
        r1, r2 = build_ring(m_quintic, g), build_ring(m_quintic, g)
        assert r1 is not r2
        assert r1 == r2 and hash(r1) == hash(r2)
        assert r1.forms is r2.forms
        h1, h2 = class_from_character(r1, (1,)), class_from_character(r2, (1,))
        assert h1 + h2 == h1.scale(F(2))
        assert (h1 * h2).poly == (h1 * h1).poly
