"""Exact scalar coefficients: rationals and cyclotomic numbers.

Every coefficient in the toolkit is either a ``fractions.Fraction`` or a
:class:`Cyclo`, an element of the cyclotomic field Q(zeta_N) stored on the
power basis 1, zeta, ..., zeta^(phi(N)-1) and kept reduced modulo the N-th
cyclotomic polynomial.  Cyclo values that reduce to a rational collapse back
to ``Fraction`` automatically, so purely rational computations never see the
extension field.  Both kinds of scalar are falsy exactly when they are zero,
which is the toolkit's one zero test.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Union

Scalar = Union[Fraction, "Cyclo"]


DIGITS = "[0-9]+"  # the digits of every number a user types: ASCII only, no '_', '+' or space inside
_NUMBER_RE = re.compile(rf"(-?{DIGITS})(?:/({DIGITS}))?")  # an optional '-', digits, an optional '/q'


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (an optional '-', then `DIGITS`) into a reduced Fraction; reject anything else and q == 0."""
    m = _NUMBER_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"invalid rational literal {text!r}")
    num, den = m.groups()
    if den is None:
        return Fraction(int(num))
    if not int(den):
        raise ValueError(f"invalid rational literal {text!r}")
    return Fraction(int(num), int(den))


def parse_integer(text: str) -> int:
    """Parse "p" (an optional '-', then `DIGITS`), by `parse_rational`'s rule without "/q"; reject anything else."""
    m = _NUMBER_RE.fullmatch(text.strip())
    if m is None or m[2] is not None:
        raise ValueError(f"invalid integer literal {text!r}")
    return int(m[1])


def format_rational(q: Fraction) -> str:
    """Canonical string: "p" when integral, "p/q" otherwise (sign on p)."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def frac_mod1(q: Fraction) -> Fraction:
    """Representative of q mod Z in [0, 1)."""
    return q - Fraction(q.numerator // q.denominator)


def _divmod_monic(num: list, den) -> tuple[list, list]:
    # Long division by a monic polynomial (coefficient lists, low degree
    # first, len(num) >= len(den) - 1): the quotient and the remainder, of
    # len(den) - 1 coefficients.  Integer inputs give integer outputs.
    rem = list(num)
    n = len(den) - 1
    quot = [0] * (len(rem) - n)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + n]
        quot[i] = c
        if c:
            for j, d in enumerate(den):
                rem[i + j] -= c * d
    return quot, rem[:n]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Coefficients (low degree first) of the order-th cyclotomic polynomial."""
    if order < 1:
        raise ValueError("order must be positive")
    if order == 1:
        return (-1, 1)
    poly = [0] * order + [1]
    poly[0] = -1  # x^order - 1
    for d in range(1, order):
        if order % d == 0:
            poly, rem = _divmod_monic(poly, cyclotomic_polynomial(d))
            if any(rem):
                raise ArithmeticError("non-exact polynomial division")
    return tuple(poly)


@lru_cache(maxsize=None)
def _euler_phi(order: int) -> int:
    return len(cyclotomic_polynomial(order)) - 1


@lru_cache(maxsize=None)
def _mean_trace(order: int, power: int) -> Fraction:
    # Tr(zeta_order^power)/phi(order): zeta_order^power is a primitive m-th
    # root, and the primitive m-th roots sum to minus the second-highest
    # coefficient of the monic Phi_m.
    m = order // gcd(order, power)
    return Fraction(-cyclotomic_polynomial(m)[-2], _euler_phi(m))


def _reduce_vector(order: int, coeffs) -> tuple[Fraction, ...]:
    # Remainder of the coefficient vector modulo Phi_order (monic), i.e.
    # canonical power-basis coordinates.
    work = [Fraction(c) for c in coeffs]
    work += [Fraction(0)] * (_euler_phi(order) - len(work))
    return tuple(_divmod_monic(work, cyclotomic_polynomial(order))[1])


class Cyclo:
    """Element of Q(zeta_order), reduced on the power basis.

    Construction goes through :func:`make_cyclo`, which collapses rational
    values to Fraction; arithmetic promotes mixed orders to the lcm order.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[Fraction, ...]):
        self.order = order
        self.coeffs = coeffs

    # -- construction -------------------------------------------------

    @staticmethod
    def root_of_unity(order: int, power: int) -> Scalar:
        """zeta_order^power as a scalar (collapses to Fraction when rational)."""
        coeffs = [Fraction(0)] * (power % order) + [Fraction(1)]
        return make_cyclo(order, _reduce_vector(order, coeffs))

    def promote(self, order: int) -> "Cyclo":
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError("can only promote to a multiple order")
        step = order // self.order
        out = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            out[i * step] += c
        return Cyclo(order, _reduce_vector(order, out))

    # -- queries -------------------------------------------------------

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def as_rational(self) -> Fraction | None:
        if all(c == 0 for c in self.coeffs[1:]):
            return self.coeffs[0]
        return None

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other) -> tuple["Cyclo", "Cyclo"] | None:
        if isinstance(other, Cyclo):
            n = lcm(self.order, other.order)
            return self.promote(n), other.promote(n)
        if isinstance(other, (int, Fraction)):
            phi = _euler_phi(self.order)
            vec = (Fraction(other),) + (Fraction(0),) * (phi - 1)
            return self, Cyclo(self.order, vec)
        return None

    def __add__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return make_cyclo(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return make_cyclo(a.order, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                return Fraction(0)
            return make_cyclo(self.order, tuple(c * q for c in self.coeffs))
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        prod = [Fraction(0)] * (2 * len(a.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        prod[i + j] += x * y
        return make_cyclo(a.order, _reduce_vector(a.order, prod))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return make_cyclo(self.order, tuple(c / q for c in self.coeffs))
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            r = self.as_rational()
            return r is not None and r == other
        if isinstance(other, Cyclo):
            a, b = self._coerce(other)
            return a.coeffs == b.coeffs
        return NotImplemented

    def __hash__(self):
        # Tr(x)/phi(order) is rational and the same in every Q(zeta_N) holding
        # x, so values equal across orders hash equal (and rationals as Fraction).
        return hash(sum((c * _mean_trace(self.order, i) for i, c in enumerate(self.coeffs) if c), Fraction(0)))

    def __repr__(self):
        terms = " + ".join(
            f"{format_rational(c)}*z{self.order}^{i}" for i, c in enumerate(self.coeffs) if c
        )
        return f"Cyclo({terms or '0'})"


def make_cyclo(order: int, coeffs: tuple[Fraction, ...]) -> Scalar:
    """Canonical scalar from reduced power-basis coordinates."""
    if all(c == 0 for c in coeffs[1:]):
        return coeffs[0] if coeffs else Fraction(0)
    return Cyclo(order, tuple(coeffs))


def half_turn(exponent: Fraction) -> Scalar:
    """e^(i*pi*exponent) for rational exponent, exactly.

    Represented in Q(zeta_N) with N = 2*denominator(exponent); integer
    exponents give plain Fractions +-1.
    """
    exponent = Fraction(exponent)
    return Cyclo.root_of_unity(2 * exponent.denominator, exponent.numerator)


def scalar_to_json(v: Scalar):
    if isinstance(v, Cyclo):
        return {"zeta_order": v.order, "coeffs": [format_rational(c) for c in v.coeffs]}
    return format_rational(v)


def is_json_int(x) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def rational_from_json(value) -> Fraction:
    """A stored rational: a JSON integer or a "p/q" string; ValueError otherwise."""
    if isinstance(value, str):
        return parse_rational(value)
    if is_json_int(value):
        return Fraction(value)
    raise ValueError(f'expected an integer or a "p/q" string, got {json.dumps(value)}')


def scalar_from_json(obj) -> Scalar:
    """A stored scalar: a rational, or {"zeta_order": N, "coeffs": [phi(N) rationals]}.

    The one reader of a scalar payload; ValueError names the malformed field.
    """
    if not isinstance(obj, dict):
        return rational_from_json(obj)
    order = obj.get("zeta_order")
    if not is_json_int(order) or order < 1:
        raise ValueError(f"zeta_order must be an integer >= 1, got {json.dumps(order)}")
    coeffs = obj.get("coeffs")
    # phi(N) >= sqrt(N/2): a larger order cannot match, and its cyclotomic polynomial is never built
    if not isinstance(coeffs, list) or order > 2 * len(coeffs) ** 2 or len(coeffs) != _euler_phi(order):
        raise ValueError(f"coeffs must be a list of phi({order}) rationals, got {json.dumps(coeffs)}")
    values = []
    for i, c in enumerate(coeffs):
        try:
            values.append(rational_from_json(c))
        except ValueError as e:
            raise ValueError(f"coeffs[{i}]: {e}") from None
    return make_cyclo(order, tuple(values))
