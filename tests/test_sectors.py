from fractions import Fraction
from itertools import combinations, product
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import glsmkit
from glsmkit import rings, sectors, validate
from glsmkit.model import model_from_dict
from glsmkit.rationallp import nonneg_combination
from glsmkit.rings import build_ring
from glsmkit.sectors import (
    DegenerateStabilityError,
    SectorLabel,
    age,
    effective_degrees,
    inertia_sectors,
    pairing,
    sector_from_lambda,
    sector_of_degree,
    semistable_supports,
    sr_generators,
    theta_degree,
)
from glsmkit.series import big_i_function, glsm_i_function
from glsmkit.validate import validate_model

from conftest import small_torus_models

F = Fraction


@settings(max_examples=150, deadline=None)
@given(small_torus_models())
def test_semistable_supports_match_bruteforce_cones(m):
    # every nonempty subset, of any size, tested by the LP oracle
    holding = [
        frozenset(s)
        for size in range(1, m.r + 1)
        for s in combinations(range(m.r), size)
        if nonneg_combination([m.column(i) for i in s], m.theta) is not None
    ]
    minimal = [s for s in holding if not any(t < s for t in holding)]
    assert semistable_supports(m) == sorted(minimal, key=sorted)


def test_semistable_supports_p1(m_p1):
    assert semistable_supports(m_p1) == [frozenset({0}), frozenset({1})]


def test_semistable_supports_quintic(m_quintic):
    assert semistable_supports(m_quintic) == [frozenset({i}) for i in range(5)]


def test_semistable_supports_cubic(m_cubic):
    assert semistable_supports(m_cubic) == [frozenset({1})]


def test_semistable_supports_returns_a_fresh_list(m_rank2):
    first = semistable_supports(m_rank2)
    expected = list(first)
    first.clear()
    assert semistable_supports(m_rank2) == expected


def test_support_search_runs_once_per_model_chain(m_quintic):
    # the whole phase-scan chain of one model shares one support search
    sectors._support_table.cache_clear()
    validate_model(m_quintic)
    for g in inertia_sectors(m_quintic):
        build_ring(m_quintic, g)
    effective_degrees(m_quintic, F(2))
    big_i_function(m_quintic, q_bound=F(2))
    assert sectors._support_table.cache_info().misses == 1


def test_support_budget_bounds_every_consumer(monkeypatch, m_rank2):
    # r = 4, k = 2: the support search visits 4 + 6 = 10 subsets
    assert glsmkit.BudgetExceededError is validate.BudgetExceededError is sectors.BudgetExceededError
    monkeypatch.setattr(sectors, "_SUPPORT_BUDGET", 9)
    sectors._support_table.cache_clear()
    with pytest.raises(sectors.BudgetExceededError, match=r"needs 10 subsets \(budget 9\)"):
        inertia_sectors(m_rank2)
    with pytest.raises(sectors.BudgetExceededError, match=r"needs 10 subsets \(budget 9\)"):
        effective_degrees(m_rank2, F(1))
    monkeypatch.setattr(sectors, "_SUPPORT_BUDGET", 10)
    assert len(inertia_sectors(m_rank2)) == 9
    assert (F(-1, 3), F(0)) in effective_degrees(m_rank2, F(1))


def test_effective_degrees_reads_each_inverse_from_the_support_table(monkeypatch, m_rank2):
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("integer_solve", "integer_inverse", "fraction_free_rref"):
        monkeypatch.setattr(sectors, name, counting(name, getattr(sectors, name)))
    sectors._support_table.cache_clear()
    first = effective_degrees(m_rank2, F(2))
    assert calls  # the first call searches the supports and inverts them
    calls.clear()
    assert effective_degrees(m_rank2, F(2)) == first
    assert calls == []


def test_sector_rings_built_once_per_model_chain(m_rank2, groebner_reductions):
    # the chain's own ring builds and both series share one reduction per fixed support
    validate_model(m_rank2)
    labels = inertia_sectors(m_rank2)
    for g in labels:
        build_ring(m_rank2, g)
    effective_degrees(m_rank2, F(2))
    big_i_function(m_rank2, q_bound=F(2))
    glsm_i_function(m_rank2, q_bound=F(2))
    assert len(labels) == 9
    assert len(groebner_reductions) == len({g.fixed_support for g in labels}) == 4


def test_semistable_supports_minimality(m_rank2):
    supports = semistable_supports(m_rank2)
    theta = list(m_rank2.theta)
    for s in supports:
        assert nonneg_combination([m_rank2.column(i) for i in s], theta) is not None
        for i in s:
            assert nonneg_combination([m_rank2.column(j) for j in s - {i}], theta) is None


def test_inertia_sectors_p1(m_p1):
    secs = inertia_sectors(m_p1)
    assert len(secs) == 1 and not any(secs[0].lam)


def test_inertia_sectors_quintic(m_quintic):
    secs = inertia_sectors(m_quintic)
    assert len(secs) == 1 and not any(secs[0].lam)


def test_inertia_sectors_cubic(m_cubic):
    secs = inertia_sectors(m_cubic)
    assert [s.lam for s in secs] == [(F(0),), (F(1, 3),), (F(2, 3),)]
    third = secs[1]
    assert third.action == (F(1, 3), F(0))
    assert third.fixed_support == frozenset({1})


def test_inertia_contains_identity(m_rank2):
    secs = inertia_sectors(m_rank2)
    assert any(not any(s.lam) for s in secs)
    # mu_3 x mu_3 affine phase: all nine group elements fix the p-support
    assert len(secs) == 9


def test_sector_of_degree_zero(m_p1, m_cubic):
    for m in (m_p1, m_cubic):
        g = sector_of_degree(m, (F(0),) * m.k)
        assert not any(g.lam)


def test_sector_of_degree_cubic(m_cubic):
    g = sector_of_degree(m_cubic, (F(-1, 3),))
    assert g.lam == (F(1, 3),)
    assert g.action == (F(1, 3), F(0))


def test_sector_of_degree_integer(m_p1):
    assert not any(sector_of_degree(m_p1, (F(3),)).lam)


def _fraction_sum(d, xi):
    # <d, xi> one Fraction product at a time
    total = F(0)
    for x, y in zip(d, xi):
        total += F(x) * F(y)
    return total


def _mod1(q):
    return q - (q.numerator // q.denominator)


_ENTRIES = st.integers(1, 6).flatmap(lambda den: st.integers(-3 * den, 3 * den).map(lambda num: F(num, den)))


@settings(max_examples=200, deadline=None)
@given(small_torus_models(), st.data())
def test_integer_numerator_arithmetic_matches_fraction_sums(m, data):
    # mixed denominators <= 6, entries in [-3, 3]; theta has Fraction entries
    d = data.draw(st.tuples(*[_ENTRIES] * m.k))
    xi = data.draw(st.tuples(*[st.integers(-3, 3)] * m.k))
    columns = [m.column(i) for i in range(m.r)]
    for col in columns:
        assert pairing(d, col) == _fraction_sum(d, col)
    assert pairing(d, m.theta) == theta_degree(m, d) == _fraction_sum(d, m.theta)

    def label(lam):
        reduced = tuple(_mod1(x) for x in lam)
        return SectorLabel(reduced, tuple(_mod1(_fraction_sum(reduced, col)) for col in columns))

    neg = tuple(-x for x in d)
    g = sector_of_degree(m, d)
    assert g == label(neg) == sector_from_lambda(m, neg)
    assert sector_from_lambda(m, d) == label(d)
    assert all(type(x) is F for x in g.lam + g.action)
    assert age(g, xi) == _mod1(_fraction_sum(label(neg).lam, xi))


def test_age_examples(m_cubic):
    ident = sector_of_degree(m_cubic, (F(0),))
    assert age(ident, (7,)) == 0
    third = sector_of_degree(m_cubic, (F(-1, 3),))
    assert age(third, (1,)) == F(1, 3)
    assert age(third, (-3,)) == 0


def test_age_additive(m_cubic, m_rank2):
    for m in (m_cubic, m_rank2):
        for g in inertia_sectors(m):
            for xi1 in [(1,) * m.k, (2, -1)[: m.k], (-3, 5)[: m.k]]:
                for xi2 in [(0,) * m.k, (1, 4)[: m.k]]:
                    xi12 = tuple(a + b for a, b in zip(xi1, xi2))
                    diff = age(g, xi12) - age(g, xi1) - age(g, xi2)
                    assert diff.denominator == 1


def test_effective_degrees_p1(m_p1):
    degs = effective_degrees(m_p1, F(2))
    assert degs == [(F(0),), (F(1),), (F(2),)]


def test_effective_degrees_cubic(m_cubic):
    degs = effective_degrees(m_cubic, F(1))
    assert degs == [(F(0),), (F(-1, 3),), (F(-2, 3),), (F(-1),)]
    assert [theta_degree(m_cubic, d) for d in degs] == [0, F(1, 3), F(2, 3), 1]


def test_effective_degrees_quintic(m_quintic):
    degs = effective_degrees(m_quintic, F(2))
    assert degs == [(F(0),), (F(1),), (F(2),)]


def test_effective_degree_sectors_nonempty(m_p1, m_cubic, m_quintic, m_rank2):
    for m in (m_p1, m_cubic, m_quintic, m_rank2):
        sectors = {s.lam for s in inertia_sectors(m)}
        for d in effective_degrees(m, F(2)):
            assert sector_of_degree(m, d).lam in sectors


def test_effective_closure_under_addition(m_p1, m_cubic, m_rank2):
    def effective(m, d):
        # d = 0, or <d, theta> > 0 and <d, rho_i> is a nonnegative integer on
        # every i of some minimal semistable support
        if not any(d):
            return True
        if _fraction_sum(d, m.theta) <= 0:
            return False
        return any(
            all((x := _fraction_sum(d, m.column(i))).denominator == 1 and x >= 0 for i in support)
            for support in semistable_supports(m)
        )

    for m in (m_p1, m_cubic, m_rank2):
        degs = effective_degrees(m, F(2))
        dset = set(degs)
        for d1 in degs:
            for d2 in degs:
                total = tuple(a + b for a, b in zip(d1, d2))
                if theta_degree(m, total) <= 2 and effective(m, total):
                    assert total in dset


def _sympy_effective_degrees(m, bound):
    # independent construction: d = M^-1 n for each support matrix M (rows
    # rho_i, i in the support) and every n in a box with sum(lam_i n_i) <= bound
    if not any(m.theta):
        raise DegenerateStabilityError("theta = 0")
    theta = [sympy.Rational(t.numerator, t.denominator) for t in m.theta]
    found = {(F(0),) * m.k}
    for support in semistable_supports(m):
        if len(support) < m.k:
            raise DegenerateStabilityError("rank-deficient support")
        mat = sympy.Matrix([list(m.column(i)) for i in sorted(support)])
        lam = mat.T.solve(sympy.Matrix(theta))
        inv = mat.inv()
        box = [range(int(sympy.floor(bound / x)) + 1) for x in lam]
        for n in product(*box):
            if sum(x * v for x, v in zip(lam, n)) <= bound:
                d = inv * sympy.Matrix(n)
                found.add(tuple(F(int(x.p), int(x.q)) for x in d))
    # theta-degree <d, theta> computed in sympy, not by the library
    return sorted(found, key=lambda d: (sum(sympy.Rational(x.numerator, x.denominator) * t for x, t in zip(d, theta)), d))


def _outcome(fn, m, bound):
    try:
        return fn(m, bound)
    except DegenerateStabilityError:
        return "degenerate"


@settings(max_examples=100, deadline=None)
@given(small_torus_models())
def test_effective_degrees_match_sympy_inverse(m):
    for bound in (F(0), F(1), F(3, 2), F(2)):
        assert _outcome(effective_degrees, m, bound) == _outcome(_sympy_effective_degrees, m, bound)


def test_effective_degrees_rank2(m_rank2):
    degs = effective_degrees(m_rank2, F(1))
    # support {p1, p2} forces d = -(a/3, b/3) with a, b >= 0
    for d in degs:
        assert (d[0] * -3).denominator == 1 and (d[1] * -3).denominator == 1
        assert d[0] <= 0 and d[1] <= 0
    assert (F(0), F(0)) in degs
    assert (F(-1, 3), F(0)) in degs
    assert len(degs) == len(set(degs))


def test_sr_generators_p1(m_p1):
    ident = sector_of_degree(m_p1, (F(0),))
    assert sr_generators(m_p1, ident) == [frozenset({0, 1})]


def test_sr_generators_quintic(m_quintic):
    ident = sector_of_degree(m_quintic, (F(0),))
    assert sr_generators(m_quintic, ident) == [frozenset(range(5))]


def test_sr_generators_cubic_twisted(m_cubic):
    third = sector_of_degree(m_cubic, (F(-1, 3),))
    assert sr_generators(m_cubic, third) == [frozenset({1})]


def test_sr_generators_empty_sector(m_quintic):
    ghost = sector_from_lambda(m_quintic, (F(1, 2),))
    with pytest.raises(ValueError, match="empty"):
        sr_generators(m_quintic, ghost)


def test_sr_generators_rank2(m_rank2):
    # identity sector of [C^2/mu_3^2]: single support {p1,p2}; hitting sets {p1},{p2}
    ident = sector_of_degree(m_rank2, (F(0), F(0)))
    assert sr_generators(m_rank2, ident) == [frozenset({2}), frozenset({3})]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.frozensets(st.integers(0, 7), min_size=1), min_size=1, max_size=10))
def test_sr_generators_are_the_minimal_transversals(sets):
    # brute force over every subset T of the universe, enumerated by size and then lexicographically,
    # which is the (len, sorted) order: T is returned iff it meets every support and no proper subset
    # does (meeting every support is closed upward, so dropping one element at a time suffices)
    family = [s for s in set(sets) if not any(t < s for t in sets)]
    universe = sorted(set().union(*family))

    def meets_all(t):
        return all(t & s for s in family)

    expected = [
        frozenset(t)
        for size in range(len(universe) + 1)
        for t in combinations(universe, size)
        if meets_all(frozenset(t)) and not any(meets_all(frozenset(t) - {i}) for i in t)
    ]
    with mock.patch.object(sectors, "semistable_supports", lambda _m: family):
        assert sectors.support_sr_generators(None, frozenset(universe)) == expected


def _projective_product(n, k):
    """(P^{n-1})^k, the abelianization of Gr(k, n): row a weighs the a-th block of n coordinates."""
    weights = [[int(a * n <= i < (a + 1) * n) for i in range(n * k)] for a in range(k)]
    return model_from_dict(
        {"r": n * k, "k": k, "weights": weights, "r_charges": [0] * (n * k), "d_w": 1, "theta": ["1"] * k}
    )


@pytest.mark.parametrize("n, k", [(7, 2), (4, 3), (6, 3), (3, 4)])
def test_sr_generators_of_a_projective_product_are_its_blocks(n, k):
    m = _projective_product(n, k)
    ident = sector_of_degree(m, (F(0),) * k)
    assert sr_generators(m, ident) == [frozenset(range(a * n, (a + 1) * n)) for a in range(k)]


def test_abelianized_gr36_builds_cold():
    # (P^5)^3 with the support and ring memos emptied: the Stanley-Reisner sets are formed afresh
    sectors._support_table.cache_clear()
    rings._ring_table.cache_clear()
    m = _projective_product(6, 3)
    series = big_i_function(m, q_bound=F(2))
    assert len(series.terms) == 10  # the degrees d >= 0 with d1 + d2 + d3 <= 2
    assert build_ring(m, sector_of_degree(m, (F(0),) * 3)).dimension == 216
