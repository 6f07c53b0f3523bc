"""Torus GLSM model data: types, JSON parsing, and canonical serialization.

The model file is JSON with integer weights, "p/q" rationals, and the
potential written in a small monomial grammar (see README); every number
typed in it is spelled in ASCII digits (`scalars.DIGITS`).  Parsing enforces
structural validity (JSON types, dimensions, number spelling, grammar) and
reduces every rational on reading; the axioms of the definition are checked
separately by :mod:`glsmkit.validate`.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .scalars import DIGITS, format_rational, is_json_int, parse_rational, rational_from_json


class InputError(ValueError):
    """Malformed model file, series file, or CLI argument."""


class InternalError(RuntimeError):
    """An internal consistency assertion failed; indicates an engine bug."""


@dataclass(frozen=True)
class PotentialPolynomial:
    """Sum of distinct monomials with nonzero rational coefficients.

    terms maps exponent tuples (length r) to coefficients.
    """

    terms: tuple[tuple[tuple[int, ...], Fraction], ...]

    @staticmethod
    def from_dict(d: dict[tuple[int, ...], Fraction]) -> "PotentialPolynomial":
        items = tuple(sorted((k, v) for k, v in d.items() if v != 0))
        return PotentialPolynomial(items)


@dataclass(frozen=True)
class GLSMModel:
    """The tuple (V, G, theta, w) for G a rank-k torus acting on C^r."""

    r: int
    k: int
    weights: tuple[tuple[int, ...], ...]  # k rows of length r; column i = character of x_i
    r_charges: tuple[int, ...]
    d_w: int
    theta: tuple[Fraction, ...]
    potential: PotentialPolynomial | None = None
    assert_critical_proper: bool = False
    variables: tuple[str, ...] = ()

    def column(self, i: int) -> tuple[int, ...]:
        return tuple(self.weights[a][i] for a in range(self.k))

    def var_names(self) -> tuple[str, ...]:
        if self.variables:
            return self.variables
        return tuple(f"x{i + 1}" for i in range(self.r))

    def r_charged_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.r) if self.r_charges[i] != 0)


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# after optional whitespace: a number, a name with an optional ^exponent, an operator, any other character, or the end
_TOKEN_RE = re.compile(rf"\s*(({DIGITS}(?:/{DIGITS})?)|({_NAME_RE.pattern})(?:\^({DIGITS}|))?|[-+*]|\S|\Z)")


def parse_monomial_expression(text: str, names: list[str], what: str = "potential") -> dict[tuple[int, ...], Fraction]:
    """Terms joined by + or -, each of factors joined by *: an integer, p/q, name or name^n.

    Returns exponents over `names` -> coefficient, like terms merged; InputError names `what` and a position.
    """
    def fail(pos: int, reason: str):
        raise InputError(f"{what} syntax error at position {pos}: {reason}") from None
    index = {n: i for i, n in enumerate(names)}
    terms: dict[tuple[int, ...], Fraction] = {}
    coeff, exps, state = Fraction(1), [0] * len(names), "sign"  # or "factor" (one is due), "after" (one was read)
    for m in _TOKEN_RE.finditer(text):
        token, number, name, power = m.groups()
        if state == "after":
            if token == "*":
                state = "factor"
                continue
            if token not in ("+", "-", ""):
                fail(m.start(1), "expected '+' or '-' between terms")
            key = tuple(exps)
            # not terms.get(key, 0) + coeff: int + Fraction makes the quintic's parse about 40 % slower
            terms[key] = terms[key] + coeff if key in terms else coeff
            if not terms[key]:
                del terms[key]
            if not token:
                return terms
            coeff, exps = Fraction(1), [0] * len(names)
        if state != "factor" and token in ("+", "-"):
            coeff = -coeff if token == "-" else coeff
        elif number:
            try:
                coeff *= parse_rational(number)
            except ValueError as e:
                fail(m.start(1), str(e))
        elif name in index:
            if power == "":
                fail(m.end(), "expected an integer exponent after '^'")
            exps[index[name]] += int(power or 1)
        elif name:
            fail(m.start(1), f"unknown variable {name!r}")
        else:  # the end at the very start means nothing but whitespace
            fail(m.start(1), "empty expression" if not (token or m.start()) else "expected a coefficient or variable")
        state = "factor" if token in ("+", "-") else "after"


def format_potential(p: PotentialPolynomial, names: tuple[str, ...]) -> str:
    parts = []
    for exps, coeff in p.terms:
        factors = []
        if coeff != 1 or all(e == 0 for e in exps):
            factors.append(format_rational(coeff))
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        parts.append("*".join(factors))
    return "+".join(parts).replace("+-", "-") if parts else "0"


def load_json(text: str, what: str):
    """The JSON value of a `what` file's text; InputError gives the line and column of a syntax error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{what} JSON syntax error at line {e.lineno} column {e.colno}: {e.msg}") from None


def parse_model(text: str) -> GLSMModel:
    """Parse model-file JSON into a structurally valid GLSMModel."""
    return model_from_dict(load_json(text, "model"))


def json_object(value, field: str) -> dict:
    """A JSON object."""
    if not isinstance(value, dict):
        raise InputError(f"{field} must be a JSON object, got {json.dumps(value)}")
    return value


def json_field(data: dict, key: str, where: str):
    """data[key] of the JSON object `where`; InputError when `data` is no object or lacks the key."""
    if key not in json_object(data, where):
        raise InputError(f"{where} missing required key {key!r}")
    return data[key]


def json_int(value, field: str) -> int:
    """A JSON integer (not a bool, not a float)."""
    if not is_json_int(value):
        raise InputError(f"{field} must be an integer, got {json.dumps(value)}")
    return value


def json_list(value, field: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{field} must be a list, got {json.dumps(value)}")
    return value


def json_ints(value, field: str) -> tuple[int, ...]:
    """A JSON list of integers."""
    if not isinstance(value, list) or not all(is_json_int(x) for x in value):
        raise InputError(f"{field} must be a list of integers, got {json.dumps(value)}")
    return tuple(value)


def json_int_rows(value, field: str) -> tuple[tuple[int, ...], ...]:
    """A JSON list of lists of integers."""
    return tuple(json_ints(row, field) for row in json_list(value, field))


def json_rational(value, field: str) -> Fraction:
    """A rational: a JSON integer or a "p/q" string (`scalars.rational_from_json`)."""
    try:
        return rational_from_json(value)
    except ValueError as e:
        raise InputError(f"{field}: {e}") from None


def json_rationals(value, field: str) -> tuple[Fraction, ...]:
    """A JSON list of rationals, each a JSON integer or a "p/q" string."""
    return tuple(json_rational(x, field) for x in json_list(value, field))


def json_bool(data: dict, key: str) -> bool:
    """The optional flag data[key], false when absent."""
    value = data.get(key, False)
    if not isinstance(value, bool):
        raise InputError(f"{key} must be true or false, got {json.dumps(value)}")
    return value


def json_names(value, field: str) -> tuple[str, ...] | None:
    """An optional JSON list of strings; None when null or absent (an empty list is absent too)."""
    if value is None:
        return None
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise InputError(f"{field} must be a list of strings or null, got {json.dumps(value)}")
    return tuple(value) or None


def variable_name(name: str, what: str) -> str:
    """name, when it is a variable name ([A-Za-z][A-Za-z0-9_]*)."""
    if not _NAME_RE.fullmatch(name):
        raise InputError(f"invalid {what} {name!r}: expected a letter, then letters, digits or '_'")
    return name


def model_from_dict(data: dict) -> GLSMModel:
    """A structurally valid model from its JSON object; InputError names the malformed field."""
    if not isinstance(data, dict):
        raise InputError("model file must contain a JSON object")
    r, k, weights, r_charges, d_w, theta = (
        json_field(data, key, "model file") for key in ("r", "k", "weights", "r_charges", "d_w", "theta")
    )
    if not (is_json_int(r) and is_json_int(k)) or r < 1 or k < 1:
        raise InputError("r and k must be positive integers")
    weights = json_int_rows(weights, "weights")
    if len(weights) != k:
        raise InputError("dimension mismatch: weights must be a k x r integer matrix")
    if any(len(row) != r for row in weights):
        raise InputError("dimension mismatch: weights rows must have length r")
    r_charges = json_ints(r_charges, "r_charges")
    if len(r_charges) != r:
        raise InputError("dimension mismatch: weights column count != length of r_charges")
    d_w = json_int(d_w, "d_w")
    theta = json_rationals(theta, "theta")
    if len(theta) != k:
        raise InputError("dimension mismatch: theta must have length k")
    variables = json_names(data.get("variables"), "variables") or ()
    if variables:
        if len(variables) != r:
            raise InputError("dimension mismatch: variables must list r names")
        if len(set(variables)) != r:
            raise InputError("variable names must be distinct")
        for v in variables:
            variable_name(v, "variable name")
    names = list(variables) if variables else [f"x{i + 1}" for i in range(r)]
    pot_raw = data.get("potential")
    potential = None
    if pot_raw is not None:
        if not isinstance(pot_raw, str):
            raise InputError("potential must be a string or null")
        potential = PotentialPolynomial.from_dict(parse_monomial_expression(pot_raw, names))
    return GLSMModel(
        r=r,
        k=k,
        weights=weights,
        r_charges=r_charges,
        d_w=d_w,
        theta=theta,
        potential=potential,
        assert_critical_proper=json_bool(data, "assert_critical_proper"),
        variables=variables,
    )


def model_to_dict(m: GLSMModel) -> dict:
    out = {
        "r": m.r,
        "k": m.k,
        "weights": [list(row) for row in m.weights],
        "r_charges": list(m.r_charges),
        "d_w": m.d_w,
        "theta": [format_rational(t) for t in m.theta],
        "potential": format_potential(m.potential, m.var_names()) if m.potential else None,
        "assert_critical_proper": m.assert_critical_proper,
    }
    if m.variables:
        out["variables"] = list(m.variables)
    return out


def serialize_model(m: GLSMModel) -> str:
    """Canonical serialization: sorted keys, reduced rationals, newline end."""
    return json.dumps(model_to_dict(m), sort_keys=True, separators=(",", ":")) + "\n"


def model_hash(m: GLSMModel) -> str:
    return hashlib.sha256(serialize_model(m).encode("utf-8")).hexdigest()
