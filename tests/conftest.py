"""Shared model fixtures for the test corpus."""

import json

import pytest
from hypothesis import strategies as st

from glsmkit import rings
from glsmkit.model import model_from_dict, parse_model

QUINTIC = {
    "r": 6,
    "k": 1,
    "weights": [[1, 1, 1, 1, 1, -5]],
    "r_charges": [0, 0, 0, 0, 0, 1],
    "d_w": 1,
    "theta": ["1"],
    "potential": "p*x1^5+p*x2^5+p*x3^5+p*x4^5+p*x5^5",
    "variables": ["x1", "x2", "x3", "x4", "x5", "p"],
    "assert_critical_proper": True,
}

P1 = {
    "r": 2,
    "k": 1,
    "weights": [[1, 1]],
    "r_charges": [0, 0],
    "d_w": 1,
    "theta": ["1"],
    "potential": None,
    "assert_critical_proper": True,
}

CUBIC = {
    "r": 2,
    "k": 1,
    "weights": [[1, -3]],
    "r_charges": [1, 0],
    "d_w": 3,
    "theta": ["-1"],
    "potential": "p*x^3",
    "variables": ["x", "p"],
    "assert_critical_proper": True,
}

# two-generator affine phase: w = x1^3 + x2^3 with the full diagonal
# symmetry mu_3 x mu_3; second generator acts by (zeta_3, zeta_3^2)
RANK2 = {
    "r": 4,
    "k": 2,
    "weights": [[1, 1, -3, 0], [1, 2, 0, -3]],
    "r_charges": [1, 1, 0, 0],
    "d_w": 3,
    "theta": ["-1", "-1"],
    "potential": "p1*p2*x1^3+p1*p2^2*x2^3",
    "variables": ["x1", "x2", "p1", "p2"],
    "assert_critical_proper": True,
}


# theta = (1, 1) lies on the ray of the third column: a non-generic model
WALL_MODEL = {
    "r": 3,
    "k": 2,
    "weights": [[1, 0, 1], [0, 1, 1]],
    "r_charges": [0, 0, 0],
    "d_w": 1,
    "theta": ["1", "1"],
    "potential": None,
}


@pytest.fixture
def m_quintic():
    return parse_model(json.dumps(QUINTIC))


@pytest.fixture
def m_p1():
    return parse_model(json.dumps(P1))


@pytest.fixture
def m_cubic():
    return parse_model(json.dumps(CUBIC))


@pytest.fixture
def m_rank2():
    return parse_model(json.dumps(RANK2))


def corpus():
    return [parse_model(json.dumps(d)) for d in (P1, QUINTIC, CUBIC, RANK2)]


@st.composite
def small_torus_models(draw):
    """Random torus models: k in 1..3, r <= 6, weights in [-2, 2].

    Theta entries come from a set holding 0 and fractions, so theta = 0 and
    non-generic theta both come up.
    """
    k = draw(st.integers(1, 3))
    r = draw(st.integers(1, 6))
    weights = [[draw(st.integers(-2, 2)) for _ in range(r)] for _ in range(k)]
    theta = [draw(st.sampled_from(["0", "1", "-1", "2", "1/2", "-1/3", "3/2"])) for _ in range(k)]
    return model_from_dict(
        {"r": r, "k": k, "weights": weights, "r_charges": [0] * r, "d_w": 1, "theta": theta, "potential": None}
    )


@pytest.fixture
def groebner_reductions(monkeypatch):
    """Empties the ring memo and returns the list of Groebner reductions run after that.

    `rings._ring_table` is the only caller of `groebner_basis`, so every
    entry is one reduction of one (model, fixed support), memo or no memo.
    """
    calls = []
    real = rings.groebner_basis

    def counting(gens):
        calls.append(gens)
        return real(gens)

    monkeypatch.setattr(rings, "groebner_basis", counting)
    rings._ring_table.cache_clear()
    return calls
