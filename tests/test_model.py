import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Poly, Symbol
from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations

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


# (text, position, reason) over the names x1, x2
MALFORMED = [
    ("x1^", 3, "expected an integer exponent after '^'"),
    ("x1 ^2", 3, "expected '+' or '-' between terms"),
    ("x1^ 2", 3, "expected an integer exponent after '^'"),
    ("--x1", 1, "expected a coefficient or variable"),
    ("x1 x2", 3, "expected '+' or '-' between terms"),
    ("2x1", 1, "expected '+' or '-' between terms"),
    ("1/2/3", 3, "expected '+' or '-' between terms"),
    ("x1^2^3", 4, "expected '+' or '-' between terms"),
    ("x1_", 0, "unknown variable 'x1_'"),
    ("x1+-x2", 3, "expected a coefficient or variable"),
    ("x1 + ", 5, "expected a coefficient or variable"),
    ("", 0, "empty expression"),
    (" ", 1, "empty expression"),
    # a '*' must be followed by a factor
    ("x1*", 3, "expected a coefficient or variable"),
    ("x1* + x2", 4, "expected a coefficient or variable"),
    # a zero denominator is refused at its literal
    ("1/0*x1", 0, "invalid rational literal '1/0'"),
    ("x2 - 3/00", 5, "invalid rational literal '3/00'"),
    # numbers are ASCII digits: an Arabic-Indic three was read as 3
    ("\u0663*x1", 0, "expected a coefficient or variable"),
    ("x1^\u0663", 3, "expected an integer exponent after '^'"),
]


@pytest.mark.parametrize("text, pos, reason", MALFORMED, ids=[repr(t) for t, _p, _r in MALFORMED])
def test_malformed_expression_position_and_reason(text, pos, reason):
    with pytest.raises(InputError) as e:
        parse_monomial_expression(text, ["x1", "x2"])
    assert str(e.value) == f"potential syntax error at position {pos}: {reason}"


@pytest.mark.parametrize(
    "text, terms",
    [
        ("x1^02", {(2, 0): Fraction(1)}),
        ("x1^0", {(0, 0): Fraction(1)}),
        ("0*x1", {}),
        ("-3/6*x1", {(1, 0): Fraction(-1, 2)}),  # reduced on reading
        (" - x2 *\tx1 + 4/6 ", {(1, 1): Fraction(-1), (0, 0): Fraction(2, 3)}),
    ],
)
def test_edge_expressions_accepted(text, terms):
    assert parse_monomial_expression(text, ["x1", "x2"]) == terms


@pytest.mark.parametrize(
    "potential, error",
    [
        ("x1^2*", "position 5: expected a coefficient or variable"),
        ("x1* + x2", "position 4: expected a coefficient or variable"),
        ("x1*x2*\t", "position 7: expected a coefficient or variable"),
        ("x1 + 1/0*x2", "position 5: invalid rational literal '1/0'"),
    ],
)
def test_model_file_potential_refusals(potential, error):
    bad = dict(P1)
    bad["potential"] = potential
    with pytest.raises(InputError) as e:
        parse_model(json.dumps(bad))
    assert str(e.value) == f"potential syntax error at {error}"


# names sympy reads as constants, functions or singletons unless local_dict overrides them
ORACLE_NAMES = ["x1", "y_2", "p", "E", "I", "N", "S", "Q"]
_blank = st.sampled_from(["", " ", "  ", "\t", " \t"])


@st.composite
def _expressions(draw):
    """A valid expression over ORACLE_NAMES, whitespace drawn between every pair of tokens."""
    factor = st.one_of(
        st.integers(0, 40).map(str),
        st.tuples(st.integers(0, 40), st.integers(1, 12)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
        st.sampled_from(ORACLE_NAMES),
        st.tuples(st.sampled_from(ORACLE_NAMES), st.integers(0, 9)).map(lambda ne: f"{ne[0]}^{ne[1]}"),
    )
    tokens = []
    for j in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from(["+", "-"] if j else ["", "+", "-"]))
        tokens += [sign] if sign else []
        for f in range(draw(st.integers(1, 3))):
            tokens += ["*", draw(factor)] if f else [draw(factor)]
    return "".join(draw(_blank) + t for t in tokens) + draw(_blank)


@settings(max_examples=150, deadline=None)
@given(_expressions())
def test_grammar_agrees_with_sympy(text):
    symbols = {n: Symbol(n) for n in ORACLE_NAMES}
    expr = parse_expr(text, local_dict=symbols, transformations=standard_transformations + (convert_xor,))
    expected = {e: Fraction(int(c.p), int(c.q)) for e, c in Poly(expr, *symbols.values()).as_dict().items()}
    assert parse_monomial_expression(text, ORACLE_NAMES) == expected


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
