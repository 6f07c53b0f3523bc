import json
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from glsmkit import sectors
from glsmkit.lattice import congruence_kernel
from glsmkit.model import model_from_dict, parse_model
from glsmkit.rationallp import nonneg_combination
from glsmkit.validate import (
    BudgetExceededError,
    invariants_trivial,
    j_membership,
    no_strict_semistable,
    potential_check,
    r_torus_intersection_order,
    validate_model,
)

from conftest import CUBIC, small_torus_models


def model_from(**overrides):
    base = {
        "r": 2,
        "k": 1,
        "weights": [[1, 1]],
        "r_charges": [0, 0],
        "d_w": 1,
        "theta": ["1"],
        "potential": None,
        "assert_critical_proper": False,
    }
    base.update(overrides)
    return parse_model(json.dumps(base))


# --- j_membership -----------------------------------------------------------


def test_j_membership_quintic(m_quintic):
    member, witness, order = j_membership(m_quintic)
    assert member and witness == (Fraction(0),)
    assert order == 1


def test_j_membership_cubic(m_cubic):
    member, witness, order = j_membership(m_cubic)
    assert member and witness == (Fraction(1, 3),)
    assert order == 3


def test_j_membership_fails():
    m = model_from(weights=[[2, 2]], r_charges=[1, 0], d_w=2)
    member, witness, order = j_membership(m)
    assert not member and witness is None


def test_j_membership_rank2(m_rank2):
    member, witness, _ = j_membership(m_rank2)
    assert member
    # witness acts like J: action vector equals (c_i/d_w mod 1)
    for i in range(m_rank2.r):
        v = sum(Fraction(m_rank2.weights[a][i]) * witness[a] for a in range(m_rank2.k))
        assert (v - Fraction(m_rank2.r_charges[i], m_rank2.d_w)).denominator == 1


# --- potential_check --------------------------------------------------------


def test_potential_check_quintic(m_quintic):
    assert potential_check(m_quintic).overall


def test_potential_check_cubic(m_cubic):
    assert potential_check(m_cubic).overall


def test_potential_check_flags_bad_monomial():
    bad = dict(CUBIC)
    bad["potential"] = "p*x^3 + x^2"
    m = parse_model(json.dumps(bad))
    rep = potential_check(m)
    assert not rep.overall
    details = " ".join(c.detail for c in rep.checks if not c.passed)
    assert "x^2" in details


def test_potential_check_skipped(m_p1):
    rep = potential_check(m_p1)
    assert rep.overall
    assert any(c.skipped for c in rep.checks)


def test_potential_check_quintic_stray_term():
    from conftest import QUINTIC

    bad = dict(QUINTIC)
    bad["potential"] = bad["potential"] + "+x1^2"
    m = parse_model(json.dumps(bad))
    rep = potential_check(m)
    assert not rep.overall
    assert any("R-degree 0" in c.detail for c in rep.checks if not c.passed)


# --- no_strict_semistable ---------------------------------------------------


def test_genericity_k1(m_p1, m_quintic):
    assert no_strict_semistable(m_p1)
    assert no_strict_semistable(m_quintic)


def test_genericity_fails_on_ray():
    m = model_from(r=3, k=2, weights=[[1, 0, 1], [0, 1, 1]], r_charges=[0, 0, 0], theta=["1", "1"])
    assert not no_strict_semistable(m)


def test_genericity_k2_generic():
    m = model_from(r=3, k=2, weights=[[1, 0, 1], [0, 1, 1]], r_charges=[0, 0, 0], theta=["2", "1"])
    assert no_strict_semistable(m)


def test_genericity_invariant_under_scaling(m_cubic):
    scaled = model_from(
        r=2, k=1, weights=[[1, -3]], r_charges=[1, 0], d_w=3, theta=["-7/3"],
        potential="p*x^3", variables=["x", "p"],
    )
    assert no_strict_semistable(m_cubic) == no_strict_semistable(scaled)


@settings(max_examples=150, deadline=None)
@given(small_torus_models())
def test_genericity_matches_lp_over_small_subsets(m):
    cols = m.columns()
    in_small_cone = any(
        nonneg_combination([cols[i] for i in s], m.theta) is not None
        for size in range(m.k)
        for s in combinations(range(m.r), size)
    )
    assert no_strict_semistable(m) == (not in_small_cone)


def test_genericity_budget(monkeypatch):
    monkeypatch.setattr(sectors, "_SUPPORT_BUDGET", 1)
    sectors._support_table.cache_clear()  # a cached table is not checked again
    m = model_from(r=2, k=2, weights=[[1, 0], [0, 1]], theta=["1", "1"])
    with pytest.raises(BudgetExceededError):
        no_strict_semistable(m)


def test_genericity_budget_counts_what_the_search_visits(monkeypatch):
    # r = 40, k = 3: 821 subsets of size < k, 10,700 of sizes 1..k (what the support search enumerates)
    monkeypatch.setattr(sectors, "_SUPPORT_BUDGET", 5000)
    sectors._support_table.cache_clear()
    weights = [[1 + (i + a) % 3 for i in range(40)] for a in range(3)]
    m = model_from(r=40, k=3, weights=weights, r_charges=[0] * 40, theta=["1", "1", "1"])
    with pytest.raises(BudgetExceededError, match="needs 10700 subsets"):
        no_strict_semistable(m)


# --- invariants_trivial -----------------------------------------------------


def test_invariants_quintic(m_quintic):
    res = invariants_trivial(m_quintic, range(5))
    assert res.trivial and res.witness is not None


def test_invariants_counterexample():
    m = model_from(weights=[[1, -1]])
    res = invariants_trivial(m, [0, 1])
    assert not res.trivial
    assert res.certificate == (1, 1)


def test_invariants_empty_keep(m_quintic):
    assert invariants_trivial(m_quintic, [])


def test_invariants_with_r_charge():
    # x alone: torus weight 1 trivial; adding R-charge row keeps it trivial
    m = model_from(weights=[[1, -3]], r_charges=[1, 0], d_w=3)
    assert invariants_trivial(m, [0], include_r_charge=True).trivial
    # p has torus weight -3 and R-charge 0: still no invariant monomial
    assert invariants_trivial(m, [1], include_r_charge=True).trivial
    # but x*p^? : x^3 p has torus weight 0 yet R-charge 3 != 0
    res = invariants_trivial(m, [0, 1], include_r_charge=False)
    assert not res.trivial
    qa = sum(res.certificate[i] * m.weights[0][i] for i in range(2))
    assert qa == 0
    res2 = invariants_trivial(m, [0, 1], include_r_charge=True)
    assert res2.trivial


def test_invariants_bruteforce_agreement(m_quintic, m_cubic, m_rank2):
    from itertools import product

    for m in (m_quintic, m_cubic, m_rank2):
        keep = list(range(m.r))
        res = invariants_trivial(m, keep)
        found = None
        bound = 6
        for exps in product(range(bound + 1), repeat=m.r):
            if not any(exps):
                continue
            if all(sum(m.weights[a][i] * exps[i] for i in range(m.r)) == 0 for a in range(m.k)):
                found = exps
                break
        if res.trivial:
            assert found is None
        else:
            cert = res.certificate
            assert any(cert)
            assert all(
                sum(m.weights[a][i] * cert[i] for i in range(m.r)) == 0 for a in range(m.k)
            )


# --- intersection order (warning-level) -------------------------------------


def test_intersection_order_matches_dw(m_quintic, m_cubic, m_p1):
    assert r_torus_intersection_order(m_quintic) == 1
    assert r_torus_intersection_order(m_cubic) == 3
    # trivial grading action: the intersection is the identity subgroup
    assert r_torus_intersection_order(m_p1) == 1


def test_intersection_order_common_factor():
    # t -> diag(t^2, 1) realizes exactly the cube roots diag(mu, 1): order 3
    m = model_from(weights=[[1, -3]], r_charges=[2, 0], d_w=3, variables=["x", "p"])
    assert r_torus_intersection_order(m) == 3


def test_intersection_order_mismatch_warns():
    m = model_from(weights=[[1, -3]], r_charges=[1, 0], d_w=6, variables=["x", "p"])
    assert r_torus_intersection_order(m) == 3
    rep = validate_model(m)
    assert any(c.warning and "order 3" in c.detail for c in rep.checks)


def test_intersection_infinite():
    # nonzero R-charge vector inside the row span of the weights
    m = model_from(weights=[[1, 1]], r_charges=[1, 1], d_w=1)
    assert r_torus_intersection_order(m) is None


def _intersection_order_by_enumeration(m):
    """[P : K] with P read off the whole congruence kernel of [c | -W^T]."""
    if not any(m.r_charges):
        return 1
    aug = [[m.r_charges[i]] + [-m.weights[a][i] for a in range(m.k)] for i in range(m.r)]
    if sympy.Matrix(aug).rank() < m.k + 1:
        return None
    return lcm(*(x[0].denominator for x in congruence_kernel(aug))) // gcd(*m.r_charges)


@st.composite
def r_charged_models(draw):
    """k <= 3, r <= 6, weights and R-charges in [-4, 4]: rank-deficient and
    non-faithful weight matrices come up, as do R-charges in the row span."""
    k = draw(st.integers(1, 3))
    r = draw(st.integers(1, 6))
    return model_from_dict(
        {
            "r": r,
            "k": k,
            "weights": [[draw(st.integers(-4, 4)) for _ in range(r)] for _ in range(k)],
            "r_charges": [draw(st.integers(-4, 4)) for _ in range(r)],
            "d_w": 1,
            "theta": ["1"] * k,
            "potential": None,
        }
    )


@settings(max_examples=150, deadline=None)
@given(r_charged_models())
def test_intersection_order_matches_kernel_enumeration(m):
    assert r_torus_intersection_order(m) == _intersection_order_by_enumeration(m)


# --- validate_model ---------------------------------------------------------


def test_validate_quintic_passes(m_quintic):
    rep = validate_model(m_quintic)
    assert rep.overall, rep.to_dict()


def test_validate_p1_passes_with_skip(m_p1):
    rep = validate_model(m_p1)
    assert rep.overall
    assert any(c.skipped and "potential" in c.name for c in rep.checks)


def test_validate_rank2_passes(m_rank2):
    rep = validate_model(m_rank2)
    assert rep.overall, rep.to_dict()


def test_validate_fails_j_membership():
    m = model_from(weights=[[2, 2]], r_charges=[1, 0], d_w=2)
    rep = validate_model(m)
    assert not rep.overall
    failing = {c.name for c in rep.checks if not c.passed}
    assert "j_membership" in failing


def test_validate_reports_r_charge_bounds():
    m = model_from(r_charges=[0, 5], d_w=2)
    rep = validate_model(m)
    assert any(c.name == "r_charge_bounds" and not c.passed for c in rep.checks)


def test_faithfulness_failure_reported():
    m = model_from(weights=[[2, 4]], d_w=2, r_charges=[0, 2])
    rep = validate_model(m)
    assert any(c.name == "faithfulness" and not c.passed for c in rep.checks)


def test_report_overall_iff_all_pass(m_quintic):
    rep = validate_model(m_quintic)
    assert rep.overall == all(c.passed for c in rep.checks)
