from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glsmkit import multipoly
from glsmkit.multipoly import (
    InfiniteStaircaseError,
    grevlex_key,
    groebner_basis,
    leading_monomial,
    normal_form,
    poly_add,
    poly_mul,
    staircase_monomials,
)

F = Fraction


def P(*terms):
    """Build a poly from (coeff, exponents) pairs."""
    out = {}
    for c, mono in terms:
        out[tuple(mono)] = out.get(tuple(mono), F(0)) + F(c)
    return {m: c for m, c in out.items() if c != 0}


def test_grevlex_order():
    # x0 > x1 in degree 1; x0^2 > x0*x1 > x1^2 in degree 2
    assert grevlex_key((1, 0)) > grevlex_key((0, 1))
    assert grevlex_key((2, 0)) > grevlex_key((1, 1)) > grevlex_key((0, 2))
    assert grevlex_key((0, 0, 1)) < grevlex_key((0, 1, 0)) < grevlex_key((1, 0, 0))
    # degree dominates
    assert grevlex_key((0, 3)) > grevlex_key((2, 0))


def test_leading_monomial():
    f = P((1, (1, 1)), (1, (0, 2)), (3, (0, 0)))
    assert leading_monomial(f) == (1, 1)


def test_mul_and_normal_form_univariate():
    # reduce 3H^2 + 2H - H modulo H^2 -> H
    h2 = P((1, (2,)))
    f = P((3, (2,)), (2, (1,)), (-1, (1,)))
    assert normal_form(f, [h2]) == P((1, (1,)))


def test_normal_form_is_idempotent():
    basis = groebner_basis([P((1, (2,)), (1, (0,)))])  # H^2 + 1
    f = P((1, (5,)), (2, (3,)), (1, (1,)), (4, (0,)))
    r1 = normal_form(f, basis)
    assert normal_form(r1, basis) == r1


def test_groebner_univariate_principal():
    g = groebner_basis([P((-3, (1,)))])
    assert g == [P((1, (1,)))]


def test_groebner_known_example():
    # <x^2 - y, x^3 - x> in grevlex x > y reduces to {x^2 - y, xy - x, y^2 - y}
    x2_y = P((1, (2, 0)), (-1, (0, 1)))
    x3_x = P((1, (3, 0)), (-1, (1, 0)))
    g = groebner_basis([x2_y, x3_x])
    expect = [
        P((1, (2, 0)), (-1, (0, 1))),
        P((1, (1, 1)), (-1, (1, 0))),
        P((1, (0, 2)), (-1, (0, 1))),
    ]

    def canon(polys_list):
        return sorted(tuple(sorted(p.items())) for p in polys_list)

    assert canon(g) == canon(expect)


def test_groebner_generator_order_independent():
    gens = [
        P((1, (2, 0)), (1, (1, 1))),
        P((1, (1, 1)), (2, (0, 2))),
        P((1, (3, 0))),
    ]
    a = groebner_basis(gens)
    b = groebner_basis(list(reversed(gens)))
    assert len(a) == len(b)
    for f, g in zip(a, b):
        assert f == g


def test_staircase_univariate():
    basis = groebner_basis([P((1, (5,)))])
    assert staircase_monomials(basis, 1) == [(0,), (1,), (2,), (3,), (4,)]


def test_staircase_two_vars():
    basis = groebner_basis([P((1, (2, 0))), P((1, (0, 3)))])
    stairs = staircase_monomials(basis, 2)
    assert len(stairs) == 6
    assert (1, 2) in stairs and (2, 0) not in stairs


def test_staircase_infinite_raises():
    basis = groebner_basis([P((1, (1, 1)))])
    with pytest.raises(ValueError):
        staircase_monomials(basis, 2)
    with pytest.raises(InfiniteStaircaseError, match="generator index 0"):
        staircase_monomials(basis, 2)


def test_staircase_cap_refuses_before_enumerating(monkeypatch):
    # a finite staircase of 101^2 = 10201 monomials, over the cap of 10000
    def no_enumeration(*ranges):
        raise AssertionError("the staircase box was enumerated")

    monkeypatch.setattr(multipoly, "product", no_enumeration)
    basis = [P((1, (101, 0))), P((1, (0, 101)))]
    with pytest.raises(ValueError, match="10201 monomials exceeds the cap of 10000") as caught:
        staircase_monomials(basis, 2)
    assert not isinstance(caught.value, InfiniteStaircaseError)
    assert "no pure power" not in str(caught.value)


@st.composite
def polys(draw, nvars=2, max_terms=4, max_exp=3):
    n = draw(st.integers(1, max_terms))
    out = {}
    for _ in range(n):
        mono = tuple(draw(st.integers(0, max_exp)) for _ in range(nvars))
        c = F(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        if c:
            out[mono] = c
    return {m: c for m, c in out.items() if c != 0}


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(f, g, h):
    assert poly_mul(f, g) == poly_mul(g, f)
    assert poly_mul(poly_mul(f, g), h) == poly_mul(f, poly_mul(g, h))
    assert poly_mul(f, poly_add(g, h)) == poly_add(poly_mul(f, g), poly_mul(f, h))
    one = {(0, 0): F(1)}
    assert poly_mul(f, one) == f


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_normal_form_linear(f, g):
    basis = groebner_basis([P((1, (2, 0)), (1, (0, 1))), P((1, (0, 2)))])
    lhs = normal_form(poly_add(f, g), basis)
    rhs = poly_add(normal_form(f, basis), normal_form(g, basis))
    assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(st.lists(polys(), min_size=1, max_size=3))
def test_groebner_members_reduce_to_zero(gens):
    gens = [g for g in gens if g]
    if not gens:
        return
    basis = groebner_basis(gens)
    for g in gens:
        assert normal_form(g, basis) == {}
    # a random combination also reduces to zero
    combo = poly_mul(gens[0], P((1, (1, 0)), (2, (0, 0))))
    assert normal_form(combo, basis) == {}
