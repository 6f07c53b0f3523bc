import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glsmkit.scalars import (
    Cyclo,
    cyclotomic_polynomial,
    format_rational,
    frac_mod1,
    half_turn,
    parse_integer,
    parse_rational,
    scalar_from_json,
    scalar_to_json,
)


def test_cyclo_is_falsy_exactly_when_zero():
    assert not Cyclo(8, (Fraction(0),) * 4)
    assert Cyclo.root_of_unity(8, 1)
    assert Cyclo(8, (Fraction(1), Fraction(0), Fraction(0), Fraction(0)))


def test_parse_rational_basic():
    assert parse_rational("3/6") == Fraction(1, 2)
    assert parse_rational("-5") == Fraction(-5)
    assert parse_rational(" 7/3 ") == Fraction(7, 3)


@pytest.mark.parametrize("bad", ["1/0", "x", "1.5", "", "1/2/3", "1_0", "+1", "\u0661", "1/-2"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="0123456789/-+_ \u0663\uff11", max_size=8))
@example("1_0")
@example("+2")
@example("\u0663")
@example("1/-2")
@example("-0/5")
@example(" 7/3 ")
@example("3/00")
def test_parse_rational_reads_only_ascii_digits(text):
    # int() reads "1_0", "+2", " 2" and non-ASCII decimal digits; a typed number is an optional '-', ASCII
    # digits and an optional "/q" with q > 0, around which only whitespace is dropped
    match = re.fullmatch(r"(-?[0-9]+)(/([0-9]+))?", text.strip())
    if match and int(match[3] or 1):
        assert parse_rational(text) == Fraction(int(match[1]), int(match[3] or 1))
    else:
        with pytest.raises(ValueError):
            parse_rational(text)
    if match and not match[2]:
        assert parse_integer(text) == int(match[1])
    else:
        with pytest.raises(ValueError):
            parse_integer(text)


def test_format_rational():
    assert format_rational(Fraction(-4, 2)) == "-2"
    assert format_rational(Fraction(3, 9)) == "1/3"


@given(st.fractions(max_denominator=1000))
def test_rational_roundtrip(q):
    assert parse_rational(format_rational(q)) == q


def test_frac_mod1():
    assert frac_mod1(Fraction(-1, 3)) == Fraction(2, 3)
    assert frac_mod1(Fraction(7, 3)) == Fraction(1, 3)
    assert frac_mod1(Fraction(2)) == 0


# known cyclotomic polynomials, low degree first
KNOWN = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    6: (1, -1, 1),
    5: (1, 1, 1, 1, 1),
    8: (1, 0, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


@pytest.mark.parametrize("order,coeffs", sorted(KNOWN.items()))
def test_cyclotomic_polynomial_known(order, coeffs):
    assert cyclotomic_polynomial(order) == coeffs


@pytest.mark.parametrize("order", [1, 2, 3, 4, 6, 9, 10, 12, 15, 24, 30])
def test_cyclotomic_product_identity(order):
    # product over divisors of the cyclotomic polynomials is x^order - 1
    prod = [1]
    for d in range(1, order + 1):
        if order % d == 0:
            phi = cyclotomic_polynomial(d)
            out = [0] * (len(prod) + len(phi) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi):
                    out[i + j] += a * b
            prod = out
    expected = [0] * (order + 1)
    expected[0] = -1
    expected[order] = 1
    assert prod == expected


def test_root_of_unity_collapses_to_rational():
    assert Cyclo.root_of_unity(2, 1) == Fraction(-1)
    assert Cyclo.root_of_unity(4, 2) == Fraction(-1)
    assert Cyclo.root_of_unity(6, 0) == Fraction(1)


def test_root_of_unity_order():
    z = Cyclo.root_of_unity(5, 1)
    acc = z
    for _ in range(4):
        acc = acc * z
    assert acc == Fraction(1)


def test_primitive_root_power_sums():
    # 1 + zeta + ... + zeta^(p-1) = 0 for prime p
    z = Cyclo.root_of_unity(7, 1)
    total = Fraction(1)
    power = Fraction(1)
    for _ in range(6):
        power = power * z
        total = total + power
    assert total == 0


def test_half_turn():
    assert half_turn(Fraction(0)) == 1
    assert half_turn(Fraction(1)) == -1
    assert half_turn(Fraction(4)) == 1
    assert half_turn(Fraction(5)) == -1
    # e^(i*pi/3) has order 6
    z = half_turn(Fraction(1, 3))
    acc = Fraction(1)
    for _ in range(6):
        acc = acc * z
    assert acc == 1
    acc3 = z * z * z
    assert acc3 == -1


def test_mixed_order_equality():
    # e^(i*pi/2) two ways: zeta_4 and zeta_8^2
    assert Cyclo.root_of_unity(4, 1) == Cyclo.root_of_unity(8, 2)
    assert Cyclo.root_of_unity(4, 1) != Cyclo.root_of_unity(8, 1)


def test_mixed_order_arithmetic():
    a = Cyclo.root_of_unity(4, 1)
    b = Cyclo.root_of_unity(6, 1)
    prod = a * b  # zeta_12^(3+2)
    assert prod == Cyclo.root_of_unity(12, 5)
    assert a * a == -1


def test_rational_interop():
    z = Cyclo.root_of_unity(8, 1)
    v = (Fraction(1, 2) * z + z * Fraction(1, 2)) - z
    assert v == 0 or (hasattr(v, "is_zero") and v.is_zero())
    w = 2 * z - z - z
    assert w == 0 or (hasattr(w, "is_zero") and w.is_zero())
    assert (z / Fraction(1, 3)) == 3 * z


@settings(max_examples=60)
@given(st.integers(1, 24), st.integers(0, 60), st.integers(0, 60))
def test_root_multiplication_adds_powers(order, p1, p2):
    z1 = Cyclo.root_of_unity(order, p1)
    z2 = Cyclo.root_of_unity(order, p2)
    assert z1 * z2 == Cyclo.root_of_unity(order, p1 + p2)


def test_scalar_json_roundtrip():
    vals = [Fraction(3, 7), Fraction(-2), Cyclo.root_of_unity(5, 2), half_turn(Fraction(1, 3))]
    for v in vals:
        back = scalar_from_json(scalar_to_json(v))
        assert back == v


@settings(max_examples=100)
@given(
    st.integers(2, 24),
    st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 4), st.integers(0, 23)), min_size=1, max_size=5),
    st.integers(1, 5),
)
def test_equal_across_orders_hash_equal(order, parts, multiple):
    x = sum((Fraction(num, den) * Cyclo.root_of_unity(order, power) for num, den, power in parts), Fraction(0))
    if not isinstance(x, Cyclo):
        x = Cyclo(order, (Fraction(x),) + (Fraction(0),) * (len(cyclotomic_polynomial(order)) - 2))
    y = x.promote(order * multiple)
    assert x == y
    assert hash(x) == hash(y)
