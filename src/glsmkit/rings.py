"""Presented sector cohomology rings with exact normal forms.

Each inertia sector gets the quotient of Q[H_1..H_k] by the ideal generated
by the products of linear forms indexed by its Stanley-Reisner data.  The
reduced Groebner basis (grevlex, H_1 > ... > H_k) makes normal forms unique,
and the staircase gives a finite monomial basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import GLSMModel, model_hash
from .multipoly import (
    Poly,
    groebner_basis,
    normal_form,
    poly_add,
    poly_eq,
    poly_mul,
    poly_neg,
    poly_scale,
    staircase_monomials,
)
from .scalars import Scalar, scalar_from_json, scalar_is_zero, scalar_to_json
from .sectors import SectorLabel, sr_generators


class RingMismatchError(ValueError):
    """Operands belong to different sector rings."""


class InfiniteRingError(ValueError):
    """The sector presentation has an infinite staircase."""


@dataclass(frozen=True)
class SectorRing:
    model_key: str
    sector: SectorLabel
    ngens: int
    groebner: tuple
    staircase: tuple

    def __eq__(self, other):
        if not isinstance(other, SectorRing):
            return NotImplemented
        return self.model_key == other.model_key and self.sector.lam == other.sector.lam

    def __hash__(self):
        return hash((self.model_key, self.sector.lam))

    @property
    def dimension(self) -> int:
        return len(self.staircase)

    def zero(self) -> "CohClass":
        return CohClass(self, {})

    def one(self) -> "CohClass":
        return CohClass(self, {(0,) * self.ngens: Fraction(1)})

    def from_poly(self, poly: Poly) -> "CohClass":
        return CohClass(self, normal_form(poly, list(self.groebner)))


def linear_form(xi, ngens: int) -> Poly:
    out: Poly = {}
    for a in range(ngens):
        c = Fraction(xi[a])
        if c:
            mono = tuple(1 if b == a else 0 for b in range(ngens))
            out[mono] = c
    return out


def build_ring(m: GLSMModel, g: SectorLabel) -> SectorRing:
    """Presentation of the sector's cohomology with exact rational Groebner data."""
    gens = []
    for t_set in sr_generators(m, g):
        prod: Poly = {(0,) * m.k: Fraction(1)}
        for i in sorted(t_set):
            prod = poly_mul(prod, linear_form(m.column(i), m.k))
        gens.append(prod)
    basis = groebner_basis(gens)
    try:
        stairs = staircase_monomials(basis, m.k)
    except ValueError as e:
        raise InfiniteRingError(str(e).replace("generator index", "generator H") + " (no pure power among leading terms)") from None
    return SectorRing(
        model_key=model_hash(m),
        sector=g,
        ngens=m.k,
        groebner=tuple(basis),
        staircase=tuple(stairs),
    )


@dataclass(frozen=True)
class CohClass:
    """Element of a sector ring, stored in Groebner normal form."""

    ring: SectorRing
    poly: Poly

    def is_zero(self) -> bool:
        return not self.poly

    def _check(self, other: "CohClass"):
        if self.ring != other.ring:
            raise RingMismatchError("classes live in different sector rings")

    def __add__(self, other: "CohClass") -> "CohClass":
        self._check(other)
        return CohClass(self.ring, poly_add(self.poly, other.poly))

    def __sub__(self, other: "CohClass") -> "CohClass":
        self._check(other)
        return CohClass(self.ring, poly_add(self.poly, poly_neg(other.poly)))

    def __neg__(self) -> "CohClass":
        return CohClass(self.ring, poly_neg(self.poly))

    def __mul__(self, other):
        if isinstance(other, CohClass):
            self._check(other)
            return self.ring.from_poly(poly_mul(self.poly, other.poly))
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, s: Scalar) -> "CohClass":
        return CohClass(self.ring, poly_scale(self.poly, s))

    def __eq__(self, other):
        if not isinstance(other, CohClass):
            return NotImplemented
        return self.ring == other.ring and poly_eq(self.poly, other.poly)

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.poly.items(), key=lambda kv: kv[0]))))

    def __pow__(self, n: int) -> "CohClass":
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out


def class_from_character(ring: SectorRing, xi) -> CohClass:
    """Normal form of the divisor class sum_a xi_a H_a."""
    return ring.from_poly(linear_form(xi, ring.ngens))


def divides_ideal(a: CohClass, factors: list[CohClass]) -> bool:
    """Is `a` in the principal ideal generated by the product of factors?

    Decided by Groebner membership in (sector ideal) + (product).
    """
    for f in factors:
        if a.ring != f.ring:
            raise RingMismatchError("classes live in different sector rings")
    prod: Poly = {(0,) * a.ring.ngens: Fraction(1)}
    for f in factors:
        prod = poly_mul(prod, f.poly)
    basis = groebner_basis([*a.ring.groebner, prod])
    return not normal_form(a.poly, basis)


# --- serialization on the staircase basis ----------------------------------


def monomial_key(mono, ngens: int) -> str:
    parts = []
    for a, e in enumerate(mono):
        if e == 1:
            parts.append(f"H{a + 1}")
        elif e > 1:
            parts.append(f"H{a + 1}^{e}")
    return "*".join(parts) if parts else "1"


def parse_monomial_key(key: str, ngens: int):
    mono = [0] * ngens
    if key.strip() == "1":
        return tuple(mono)
    for part in key.split("*"):
        part = part.strip()
        if "^" in part:
            name, e_s = part.split("^")
            e = int(e_s)
        else:
            name, e = part, 1
        if not name.startswith("H"):
            raise ValueError(f"invalid staircase monomial key {key!r}")
        a = int(name[1:]) - 1
        if not 0 <= a < ngens:
            raise ValueError(f"generator index out of range in {key!r}")
        mono[a] += e
    return tuple(mono)


def class_to_json(c: CohClass) -> dict:
    out = {}
    for mono, coeff in sorted(c.poly.items()):
        out[monomial_key(mono, c.ring.ngens)] = scalar_to_json(coeff)
    return out


def class_from_json(ring: SectorRing, data: dict) -> CohClass:
    poly: Poly = {}
    for key, val in data.items():
        mono = parse_monomial_key(key, ring.ngens)
        s = scalar_from_json(val)
        if not scalar_is_zero(s):
            poly[mono] = s
    if any(mono not in ring.staircase for mono in poly):
        # stored classes are normal forms; anything else is a corrupt file
        raise ValueError("class payload contains a monomial outside the staircase")
    return CohClass(ring, poly)
