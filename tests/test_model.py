import json
from fractions import Fraction

import pytest

from glsmkit.model import (
    InputError,
    PotentialPolynomial,
    format_potential,
    model_hash,
    parse_model,
    parse_monomial_expression,
    serialize_model,
)

from conftest import CUBIC, P1


def test_parse_quintic(m_quintic):
    m = m_quintic
    assert m.r == 6 and m.k == 1
    assert m.weights == ((1, 1, 1, 1, 1, -5),)
    assert m.r_charges == (0, 0, 0, 0, 0, 1)
    assert m.d_w == 1
    assert m.theta == (Fraction(1),)
    assert m.potential is not None
    terms = dict(m.potential.terms)
    assert terms[(5, 0, 0, 0, 0, 1)] == 1
    assert len(terms) == 5


def test_parse_minimal(m_p1):
    assert m_p1.potential is None
    assert m_p1.var_names() == ("x1", "x2")


def test_dimension_mismatch():
    bad = dict(P1)
    bad["r_charges"] = [0, 0, 0]
    with pytest.raises(InputError, match="dimension mismatch"):
        parse_model(json.dumps(bad))


def test_weights_shape_mismatch():
    bad = dict(P1)
    bad["weights"] = [[1, 1], [2, 2]]
    with pytest.raises(InputError, match="dimension mismatch"):
        parse_model(json.dumps(bad))


def test_zero_denominator_rejected():
    bad = dict(P1)
    bad["theta"] = ["1/0"]
    with pytest.raises(ValueError):
        parse_model(json.dumps(bad))


def test_theta_takes_integers_and_rational_strings():
    for raw, expected in ((-1, Fraction(-1)), ("3/2", Fraction(3, 2)), ("-2", Fraction(-2))):
        good = dict(P1)
        good["theta"] = [raw]
        assert parse_model(json.dumps(good)).theta == (expected,)


def test_json_syntax_error_position():
    with pytest.raises(InputError, match="line"):
        parse_model("{\n  \"r\": 2,,\n}")


def test_unknown_potential_variable():
    bad = dict(P1)
    bad["potential"] = "y1^2"
    with pytest.raises(InputError, match="unknown variable"):
        parse_model(json.dumps(bad))


def test_potential_syntax_position():
    bad = dict(P1)
    bad["potential"] = "x1^"
    with pytest.raises(InputError, match="position"):
        parse_model(json.dumps(bad))


def test_monomial_expression_grammar():
    terms = parse_monomial_expression("2*x1^2*x2 - 1/2*x2 + x1 - x1", ["x1", "x2"])
    assert terms == {(2, 1): Fraction(2), (0, 1): Fraction(-1, 2)}


def test_monomial_expression_merges_and_cancels():
    assert parse_monomial_expression("x1 - x1", ["x1"]) == {}
    assert parse_monomial_expression("x1*x1", ["x1"]) == {(2,): Fraction(1)}


def test_roundtrip_models(m_quintic, m_p1, m_cubic, m_rank2):
    for m in (m_quintic, m_p1, m_cubic, m_rank2):
        again = parse_model(serialize_model(m))
        assert again == m
        assert model_hash(again) == model_hash(m)


def test_hash_changes_with_content(m_p1):
    other = parse_model(serialize_model(m_p1).replace('"d_w":1', '"d_w":2'))
    assert model_hash(other) != model_hash(m_p1)


def test_format_potential_roundtrip(m_cubic):
    text = format_potential(m_cubic.potential, m_cubic.var_names())
    back = parse_monomial_expression(text, list(m_cubic.var_names()))
    assert PotentialPolynomial.from_dict(back) == m_cubic.potential


def test_duplicate_variable_names_rejected():
    bad = dict(CUBIC)
    bad["variables"] = ["x", "x"]
    with pytest.raises(InputError, match="distinct"):
        parse_model(json.dumps(bad))
