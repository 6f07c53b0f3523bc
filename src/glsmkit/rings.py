"""Sector cohomology rings as linear algebra on the staircase basis.

Each inertia sector gets Q[H_1..H_k] modulo the products of linear forms of
its Stanley-Reisner data.  Those depend on the sector only through its fixed
support, so the reduction runs once per (model, fixed support), in
`_ring_table`: the reduced grevlex Groebner basis (H_1 > ... > H_k) gives the
staircase basis.  The generators are homogeneous, so the quotient is graded
and every monomial above `top`, the largest staircase degree, is zero.  The
ring's one table, `forms`, holds the normal form of every monomial of degree
at most `top`; `build_ring` labels it with its sector.  `class_of` is the
only reader of that table: class products, divisor classes and the engine's
per-degree factors all hand it (monomial, coefficient) pairs.  Ideal
membership is linear algebra on the staircase basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import add

from .lattice import common_denominator, fraction_free_rref, nonneg_vectors
from .model import GLSMModel, model_hash
from .multipoly import (
    InfiniteStaircaseError,
    Poly,
    groebner_basis,
    normal_form,
    poly_add,
    poly_mul,
    poly_neg,
    poly_scale,
    staircase_monomials,
)
from .scalars import Scalar, scalar_from_json, scalar_is_zero, scalar_to_json
from .sectors import SectorLabel, support_sr_generators


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
    forms: dict = field(repr=False)  # monomial of degree <= top -> its normal form; read by class_of

    def __eq__(self, other):
        if not isinstance(other, SectorRing):
            return NotImplemented
        return self.model_key == other.model_key and self.sector.lam == other.sector.lam

    def __hash__(self):
        return hash((self.model_key, self.sector.lam))

    @property
    def dimension(self) -> int:
        return len(self.staircase)

    @property
    def top(self) -> int:
        """Largest staircase degree: every monomial of higher degree is zero in the ring."""
        return sum(self.staircase[-1])

    def one(self) -> "CohClass":
        return CohClass(self, {(0,) * self.ngens: Fraction(1)})


def linear_form(xi, ngens: int) -> Poly:
    out: Poly = {}
    for a in range(ngens):
        c = Fraction(xi[a])
        if c:
            mono = tuple(1 if b == a else 0 for b in range(ngens))
            out[mono] = c
    return out


_SECTOR_RINGS = 128  # one chain's rings: every sector of one model (66 at most in the phase-scan pool)


@lru_cache(maxsize=_SECTOR_RINGS)
def _ring_table(m: GLSMModel, fixed: frozenset[int]) -> dict:
    """Groebner data and normal-form table of the ring of one fixed support, shared by its sectors."""
    gens = []
    for t_set in support_sr_generators(m, fixed):
        prod: Poly = {(0,) * m.k: Fraction(1)}
        for i in sorted(t_set):
            prod = poly_mul(prod, linear_form(m.column(i), m.k))
        gens.append(prod)
    basis = groebner_basis(gens)
    try:
        stairs = staircase_monomials(basis, m.k)
    except InfiniteStaircaseError as e:
        raise InfiniteRingError(str(e).replace("generator index", "generator H") + " (no pure power among leading terms)") from None
    top = sum(stairs[-1])
    inside = set(stairs)
    # staircase monomials are their own normal forms; the grading zeroes everything above top
    forms = {
        mono: {mono: Fraction(1)} if mono in inside else normal_form({mono: Fraction(1)}, basis)
        for mono in nonneg_vectors((1,) * m.k, top)
    }
    return {
        "model_key": model_hash(m),
        "ngens": m.k,
        "groebner": tuple(basis),
        "staircase": tuple(stairs),
        "forms": forms,
    }


@lru_cache(maxsize=_SECTOR_RINGS)
def build_ring(m: GLSMModel, g: SectorLabel) -> SectorRing:
    """Presentation of the sector's cohomology with exact rational Groebner data.

    The ring memo: each (model, sector) ring is built once and shared, and
    sectors with one fixed support share one table from `_ring_table`.
    """
    return SectorRing(sector=g, **_ring_table(m, g.fixed_support))


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
            # a product of degree above top is zero: skip it before forming c1 * c2
            top = self.ring.top
            right = [(m2, c2, sum(m2)) for m2, c2 in other.poly.items()]
            terms = []
            for m1, c1 in self.poly.items():
                room = top - sum(m1)
                terms += [(tuple(map(add, m1, m2)), c1 * c2) for m2, c2, deg in right if deg <= room]
            return class_of(self.ring, terms)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, s: Scalar) -> "CohClass":
        return CohClass(self.ring, poly_scale(self.poly, s))

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.poly.items(), key=lambda kv: kv[0]))))

    def __pow__(self, n: int) -> "CohClass":
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out


def class_of(ring: SectorRing, terms) -> CohClass:
    """The class of sum c*H^mu over (mu, c) pairs, read from the ring's `forms`.

    A monomial above `top` has no entry and contributes zero, and a staircase
    monomial, the only form that contains its own monomial, adds c unchanged.
    """
    forms = ring.forms
    out: Poly = {}
    for mono, c in terms:
        form = forms.get(mono)
        if form is None:
            continue
        if mono in form:
            prev = out.get(mono)
            out[mono] = c if prev is None else prev + c
            continue
        for stair, v in form.items():
            prev = out.get(stair)
            out[stair] = c * v if prev is None else prev + c * v
    return CohClass(ring, {stair: c for stair, c in out.items() if not scalar_is_zero(c)})


def class_from_character(ring: SectorRing, xi) -> CohClass:
    """Normal form of the divisor class sum_a xi_a H_a."""
    return class_of(ring, linear_form(xi, ring.ngens).items())


def ideal_membership(ring: SectorRing, factors: list[CohClass]):
    """Membership test for the principal ideal generated by the product p of factors.

    The span of p*s over the staircase monomials s, each row scaled to
    integers, is row-reduced once by fraction-free elimination, to rows / d
    in reduced echelon form.  A class lies in the span iff d times its vector
    equals the rows combined with its entries at the pivots, so the returned
    predicate works for a cyclotomic class too.
    """
    p = ring.one()
    for f in factors:
        p = p * f
    span = [(p * CohClass(ring, {s: Fraction(1)})).poly for s in ring.staircase]
    rows, pivots, d = fraction_free_rref([common_denominator([v.get(t, 0) for t in ring.staircase])[1] for v in span])

    def contains(a: CohClass) -> bool:
        a._check(p)
        vec = [a.poly.get(t, 0) for t in ring.staircase]
        used = [(vec[col], row) for row, col in zip(rows, pivots) if not scalar_is_zero(vec[col])]
        return all(scalar_is_zero(d * x - sum([c * row[j] for c, row in used])) for j, x in enumerate(vec))

    return contains


def divides_ideal(a: CohClass, factors: list[CohClass]) -> bool:
    """Is `a` in the principal ideal generated by the product of factors?"""
    return ideal_membership(a.ring, factors)(a)


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
