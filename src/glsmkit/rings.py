"""Sector cohomology rings as linear algebra on the staircase basis.

Each inertia sector gets Q[H_1..H_k] modulo the products of linear forms of
its Stanley-Reisner data.  Those depend on the sector only through its fixed
support, so the reduction runs once per (model, fixed support), in
`_ring_table`: the reduced grevlex Groebner basis (H_1 > ... > H_k) gives the
staircase basis.  The generators are homogeneous, so the quotient is graded
and every monomial above `top`, the largest staircase degree, is zero.  The
ring's table `forms` holds the normal form of every monomial of degree at
most `top`; `build_ring` labels a table with its model and sector.  `class_of` is
the only reader of that table: class products, divisor classes, the engine's
per-degree factors and z-Laurent products (`series.LaurentZ.mul`) all hand
it (monomial, coefficient) pairs, and the two products form their pairs in
one routine, `term_products`, on flat (z, monomial, coefficient, degree)
terms.  Ideal membership is linear algebra on the staircase basis.  A stored
class is read through the ring's second table, `by_key`, from each staircase
monomial's `monomial_key` to the monomial: `class_from_json`, its one
reader, looks each key up in the writer's own spelling and parses none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import add

from .lattice import common_denominator, fraction_free_rref, nonneg_vectors
from .model import GLSMModel
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
from .scalars import Cyclo, Scalar, scalar_from_json, scalar_to_json
from .sectors import SectorLabel, support_sr_generators


class RingMismatchError(ValueError):
    """Operands belong to different sector rings."""


class InfiniteRingError(ValueError):
    """The sector presentation has an infinite staircase."""


@dataclass(frozen=True)
class SectorRing:
    """One sector's ring: rings with equal models and sector lambdas are equal and hash by the lambda."""

    model: GLSMModel = field(repr=False)
    sector: SectorLabel
    ngens: int
    groebner: tuple
    staircase: tuple
    forms: dict = field(repr=False)  # monomial of degree <= top -> its normal form; read by class_of
    by_key: dict = field(repr=False)  # monomial_key(s) -> s for each staircase monomial s; read by class_from_json

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, SectorRing):
            return NotImplemented
        return self.sector.lam == other.sector.lam and self.model == other.model

    def __hash__(self):
        return hash(self.sector.lam)

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


_SECTOR_RINGS = 128  # the ring memo's entries: one table per (model, fixed support), shared by its sectors


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
        raise InfiniteRingError(
            f"quotient ring is infinite-dimensional along generator H{e.variable + 1}"
            " (no pure power among leading terms)"
        ) from None
    top = sum(stairs[-1])
    inside = set(stairs)
    # staircase monomials are their own normal forms; the grading zeroes everything above top
    forms = {
        mono: {mono: Fraction(1)} if mono in inside else normal_form({mono: Fraction(1)}, basis)
        for mono in nonneg_vectors((1,) * m.k, top)
    }
    return {
        "ngens": m.k,
        "groebner": tuple(basis),
        "staircase": tuple(stairs),
        "forms": forms,
        "by_key": {monomial_key(s): s for s in stairs},
    }


def build_ring(m: GLSMModel, g: SectorLabel) -> SectorRing:
    """Presentation of the sector's cohomology with exact rational Groebner data.

    The model and sector on the table of its fixed support, from the ring
    layer's one memo, `_ring_table`: two calls give distinct rings that are
    equal, hash equal and share one `forms`.
    """
    return SectorRing(model=m, sector=g, **_ring_table(m, g.fixed_support))


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
            left = [(0, m1, c1, sum(m1)) for m1, c1 in self.poly.items()]
            right = [(0, m2, c2, sum(m2)) for m2, c2 in other.poly.items()]
            return class_of(self.ring, term_products(self.ring.top, left, right).get(0, ()))
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


def term_products(top: int, left: list, right: list) -> dict[int, list]:
    """z1 + z2 -> the products (mu1 + mu2, c1 * c2) of the flat terms (z, mu, c, |mu|) of left and right.

    The one product routine: a class product passes z = 0 on both sides, a
    z-Laurent product every coefficient's terms at once.  A product of
    degree above top is zero in the ring: it is skipped before c1 * c2 is
    formed, and a z-exponent gets a bucket only when one of its products
    is kept.  A degree-0 factor is the unit monomial, so the other
    monomial is the product's as it stands.
    """
    by_z: dict[int, list] = {}
    for z1, m1, c1, d1 in left:
        room = top - d1
        for z2, m2, c2, d2 in right:
            if d2 <= room:
                mono = m2 if not d1 else m1 if not d2 else tuple(map(add, m1, m2))
                by_z.setdefault(z1 + z2, []).append((mono, c1 * c2))
    return by_z


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
    return CohClass(ring, {stair: c for stair, c in out.items() if c})


def class_from_character(ring: SectorRing, xi) -> CohClass:
    """Normal form of the divisor class sum_a xi_a H_a."""
    return class_of(ring, linear_form(xi, ring.ngens).items())


def ideal_membership(ring: SectorRing, factors: list[CohClass]):
    """Membership test for the principal ideal generated by the product p of factors.

    The span of p*s over the staircase monomials s, each row scaled to
    integers, is row-reduced once by fraction-free elimination, to rows / d
    in reduced echelon form.  A class lies in the span iff d times its vector
    equals the rows combined with its entries at the pivots.  That holds at
    every pivot column by construction, so the predicate checks the other
    columns only.  The test is homogeneous in the vector, so a rational
    class is tested on its integer numerators over one denominator; a class
    with a cyclotomic coordinate runs through the same lines in its own
    arithmetic.
    """
    p = ring.one()
    for f in factors:
        p = p * f
    span = [(p * CohClass(ring, {s: Fraction(1)})).poly for s in ring.staircase]
    rows, pivots, d = fraction_free_rref([common_denominator([v.get(t, 0) for t in ring.staircase])[1] for v in span])
    pivot_rows = list(zip(pivots, rows))
    free = [j for j in range(len(ring.staircase)) if j not in pivots]

    def contains(a: CohClass) -> bool:
        a._check(p)
        vec = [a.poly.get(t, 0) for t in ring.staircase]
        if not any(isinstance(x, Cyclo) for x in vec):
            vec = common_denominator(vec)[1]
        used = [(vec[col], row) for col, row in pivot_rows if vec[col]]
        return not any(d * vec[j] - sum([c * row[j] for c, row in used]) for j in free)

    return contains


def divides_ideal(a: CohClass, factors: list[CohClass]) -> bool:
    """Is `a` in the principal ideal generated by the product of factors?"""
    return ideal_membership(a.ring, factors)(a)


# --- serialization on the staircase basis ----------------------------------


def monomial_key(mono) -> str:
    parts = []
    for a, e in enumerate(mono):
        if e == 1:
            parts.append(f"H{a + 1}")
        elif e > 1:
            parts.append(f"H{a + 1}^{e}")
    return "*".join(parts) if parts else "1"


def class_to_json(c: CohClass) -> dict:
    out = {}
    for mono, coeff in sorted(c.poly.items()):
        out[monomial_key(mono)] = scalar_to_json(coeff)
    return out


def class_from_json(ring: SectorRing, data: dict) -> CohClass:
    """The class of a stored payload {monomial key: scalar}; ValueError names the refused key or coefficient.

    Stored classes are normal forms, keyed as `monomial_key` writes them: a
    key that is not the key of a staircase monomial (malformed, outside the
    staircase, or another spelling of a staircase monomial) is refused.
    """
    poly: Poly = {}
    for key, val in data.items():
        mono = ring.by_key.get(key)
        if mono is None:
            raise ValueError(f"invalid staircase monomial key {key!r}")
        try:
            s = scalar_from_json(val)
        except ValueError as e:
            raise ValueError(f"coefficient of {key}: {e}") from None
        if s:
            poly[mono] = s
    return CohClass(ring, poly)
