"""The I-function engine.

Assembles truncated generating series over the effective degrees of a model:
per-degree hypergeometric factors (two range conventions, plain quotient
target vs potential-aware), exponential insertion factors, z-degree shift
operators, Novikov sign twists, compact-type reports, and exact comparison.

Every coefficient is a z-Laurent polynomial whose coefficients live in the
sector ring attached to the term's degree.

Every series starts as `empty_series`: the engine, the JSON reader and the
special families' direct series all fill that one container.  A series
carries its model, and the compact-type report reads it there.  The
comparison cuts both sides to their common region with
`GradedSeries.restrict`, which returns a series itself for its own region,
and reads each term once.  The reader reads every field through the
`model.json_*` readers and refuses, naming the field, a payload that is not
JSON or has a field of the wrong type or length, or whose schema, state,
model hash, theta-degrees or sector lambdas disagree with its model, that
lists a (degree, t-exponent) key twice, or that lists a key outside its
truncation.

The operators on series (`times_characters`, `z_partial`, `twist_novikov`)
map the stored terms of the series they are given and run no engine pass:
`z_partial`'s insertion route feeds each stored term to `exp_factor`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd

from .lattice import common_denominator, nonneg_vectors
from .model import (
    GLSMModel,
    InputError,
    InternalError,
    json_field,
    json_int,
    json_int_rows,
    json_ints,
    json_list,
    json_object,
    json_rational,
    json_rationals,
    load_json,
    model_from_dict,
    model_hash,
    model_to_dict,
)
from .rings import (
    CohClass,
    RingMismatchError,
    SectorRing,
    build_ring,
    class_from_character,
    class_from_json,
    class_of,
    class_to_json,
    ideal_membership,
    term_products,
)
from .scalars import Cyclo, Scalar, format_rational
from .sectors import Degree, DegenerateStabilityError, effective_degrees, pairing, sector_of_degree, theta_degree
from .validate import glsm_hypothesis


class HypothesisError(ValueError):
    """The invariant-triviality hypothesis for the potential-aware series fails."""

    def __init__(self, certificate):
        self.certificate = certificate
        super().__init__(
            "nontrivial invariant monomial on the R-charge-zero coordinates: "
            f"exponent vector {list(certificate)}"
        )


# --------------------------------------------------------------------------
# z-Laurent polynomials with sector-ring coefficients
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LaurentZ:
    ring: SectorRing
    coeffs: tuple  # sorted tuple of (z-exponent, CohClass), no zero classes

    @staticmethod
    def from_dict(ring: SectorRing, data: dict[int, CohClass]) -> "LaurentZ":
        items = tuple(sorted((e, c) for e, c in data.items() if not c.is_zero()))
        return LaurentZ(ring, items)

    @staticmethod
    def one(ring: SectorRing) -> "LaurentZ":
        return LaurentZ.from_dict(ring, {0: ring.one()})

    @staticmethod
    def from_class(ring: SectorRing, c: CohClass) -> "LaurentZ":
        return LaurentZ.from_dict(ring, {0: c})

    def as_dict(self) -> dict[int, CohClass]:
        return dict(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def add(self, other: "LaurentZ") -> "LaurentZ":
        if self.ring != other.ring:
            raise RingMismatchError("classes live in different sector rings")
        out = self.as_dict()
        for e, c in other.coeffs:
            cur = out.get(e)
            out[e] = c if cur is None else cur + c
        return LaurentZ.from_dict(self.ring, out)

    def flat_terms(self) -> list[tuple]:
        """(z-exponent, monomial, coefficient, degree) for every term of every coefficient."""
        return [(e, mono, c, sum(mono)) for e, cls in self.coeffs for mono, c in cls.poly.items()]

    def mul(self, other: "LaurentZ") -> "LaurentZ":
        """The product, with one `class_of` reduction per z-exponent of the result.

        Both operands are flattened once (a square once), and
        `rings.term_products`, the routine of a class product too, forms
        every product in one loop, bucketed by z-exponent; each bucket is
        reduced once.
        """
        ring = self.ring
        if ring != other.ring:
            raise RingMismatchError("classes live in different sector rings")
        left = self.flat_terms()
        right = left if other is self else other.flat_terms()
        by_z = term_products(ring.top, left, right)
        coeffs = []
        for e in sorted(by_z):
            cls = class_of(ring, by_z[e])
            if cls.poly:
                coeffs.append((e, cls))
        return LaurentZ(ring, tuple(coeffs))

    def scale(self, s: Scalar) -> "LaurentZ":
        return LaurentZ.from_dict(self.ring, {e: c.scale(s) for e, c in self.coeffs})

    def scale_class(self, c: CohClass) -> "LaurentZ":
        return self.mul(LaurentZ.from_class(c.ring, c))

    def shift(self, dz: int) -> "LaurentZ":
        return LaurentZ(self.ring, tuple((e + dz, c) for e, c in self.coeffs))


def linear_z_factor(ring: SectorRing, cls: CohClass, a: Fraction) -> LaurentZ:
    """The factor (cls + a*z); its z^1 coefficient is the unit class times a, omitted when a = 0."""
    coeffs = () if cls.is_zero() else ((0, cls),)
    if a:
        coeffs += ((1, CohClass(ring, {(0,) * ring.ngens: a})),)
    return LaurentZ(ring, coeffs)


def invert_linear_z_factor(ring: SectorRing, cls: CohClass, a: Fraction) -> LaurentZ:
    """(cls + a*z)^(-1) = sum_j (-1)^j cls^j a^(-j-1) z^(-j-1); finite by nilpotency."""
    if a == 0:
        raise InternalError("denominator factor with zero scalar part")
    out: dict[int, CohClass] = {}
    power = ring.one()
    sign = Fraction(1)
    scalar = Fraction(1) / a
    j = 0
    while not power.is_zero():
        out[-j - 1] = power.scale(sign * scalar)
        power = power * cls
        sign = -sign
        scalar = scalar / a
        j += 1
        if j > ring.dimension + 2:
            raise InternalError("nilpotency bound exceeded while inverting a factor")
    return LaurentZ.from_dict(ring, out)


# --------------------------------------------------------------------------
# insertions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Insertion:
    """A light-insertion variable: name plus a polynomial in the shared characters."""

    name: str
    poly: tuple  # sorted tuple of (exponent tuple over etas, Fraction coeff)

    @staticmethod
    def from_terms(name: str, terms: dict) -> "Insertion":
        items = tuple(sorted((tuple(k), Fraction(v)) for k, v in terms.items() if v))
        return Insertion(name, items)


def single_character_insertion(name: str, position: int, count: int) -> Insertion:
    mono = tuple(1 if i == position else 0 for i in range(count))
    return Insertion.from_terms(name, {mono: Fraction(1)})


# --------------------------------------------------------------------------
# graded series
# --------------------------------------------------------------------------


TermKey = tuple[Degree, tuple[int, ...]]


def _sorted_keys(keys) -> list[TermKey]:
    """(degree, t-exponent) keys in ascending order, without a Fraction comparison.

    Every degree entry is read as an integer numerator over one common
    denominator, an increasing map, so the order is that of the degree
    tuples themselves.
    """
    keys = list(keys)
    nums = common_denominator([x for d, _alpha in keys for x in d])[1]
    k = len(keys[0][0]) if keys else 0
    order = sorted(range(len(keys)), key=lambda i: (nums[i * k : i * k + k], keys[i][1]))
    return [keys[i] for i in order]


@dataclass
class GradedSeries:
    model: GLSMModel
    state: str  # "ambient" | "glsm"
    etas: tuple[tuple[int, ...], ...]
    insertions: tuple[Insertion, ...]
    q_bound: Fraction
    t_order: int
    terms: dict[TermKey, LaurentZ]
    vanished: tuple[TermKey, ...] = ()

    @property
    def model_key(self) -> str:
        return model_hash(self.model)

    def graded_keys(self) -> list[tuple[Fraction, Degree, tuple[int, ...]]]:
        """(theta-degree, d, alpha) per term, sorted: each theta-degree is computed once."""
        return sorted((theta_degree(self.model, d), d, alpha) for d, alpha in self.terms)

    def restrict(self, q_bound, t_order: int) -> "GradedSeries":
        """The terms and vanished keys of theta-degree <= q_bound and t-order <= t_order.

        The region must lie inside the series' truncation.  Every key of a
        series already lies inside its own truncation (the engine and the
        direct series build no other key, and the reader refuses one), so
        the series' own region returns the series itself.
        """
        q_bound = Fraction(q_bound)
        if q_bound > self.q_bound or t_order > self.t_order:
            raise ValueError("restriction region must lie inside the computed truncation")
        if q_bound == self.q_bound and t_order == self.t_order:
            return self

        def keep(key: TermKey) -> bool:
            return theta_degree(self.model, key[0]) <= q_bound and sum(key[1]) <= t_order

        return replace(
            self,
            q_bound=q_bound,
            t_order=t_order,
            terms={k: v for k, v in self.terms.items() if keep(k)},
            vanished=tuple(k for k in self.vanished if keep(k)),
        )

    def map_terms(self, fn) -> "GradedSeries":
        """Replace each term by fn(d, alpha, value); zero results join the sorted vanished keys.

        When no term vanishes, the vanished keys are kept as they are.
        """
        terms: dict[TermKey, LaurentZ] = {}
        vanished = []
        for (d, alpha), value in self.terms.items():
            out = fn(d, alpha, value)
            if out.is_zero():
                vanished.append((d, alpha))
            else:
                terms[(d, alpha)] = out
        kept = tuple(_sorted_keys([*self.vanished, *vanished])) if vanished else self.vanished
        return replace(self, terms=terms, vanished=kept)


def hyper_factor(m: GLSMModel, d: Degree, mode: str, ring: SectorRing, tables: dict) -> LaurentZ:
    """Per-degree hypergeometric factor in the sector ring of d.

    With x = <d,rho_i>, coordinate i contributes one factor
    (class(rho_i) + (x-nu) z) per integer nu, taken in ascending order.
    mode "ambient": numerator factors over nu in range(ceil(x), 0) when
    x < 0, inverted factors over nu in range(0, ceil(x)) when x > 0, and
    none when x = 0.  mode "glsm": coordinates with nonzero R-charge instead
    take numerator factors over range(ceil(x), 1) when x <= 0 and inverted
    factors over range(1, ceil(x)) when x > 0; R-charge-zero coordinates keep
    the ambient ranges.

    The factor is one polynomial per degree.  Let c = class(rho_i) =
    sum_a rho_ia H_a and a_k = x - nu_k the n a-values.  With
    S(u) = prod_k (a_k + u) = sum_j S_j u^j and 1/S(u) = sum_j R_j u^j,
        prod_k (c + a_k z)      = sum_j S_j c^j z^(n-j),
        prod_k (c + a_k z)^-1   = sum_j R_j c^j z^(-n-j).
    Coordinates with equal columns and ranges are counted first, and each
    group contributes S or 1/S on its a-values repeated count times.  Every
    term pairs H-degree j with z^(+-n - j), so the product over the groups
    is one integer polynomial in H_1..H_k over one integer denominator, with
    H^mu standing at z^(shift - |mu|), where shift sums the +-n.  The ring's
    ideal is homogeneous, so every monomial above its top degree is zero:
    the series and their product are truncated there.  A coordinate whose
    range holds nu = x (an integer x) contributes the factor class(rho_i),
    of H-degree 1, and every other factor has H-degree >= 0; so when such
    coordinates outnumber the top degree, the factor is zero, and it is
    returned before any series is read.  The terms are bucketed by
    z-exponent, and `rings.class_of` reads each bucket's class off the
    ring's normal forms.

    Everything up to that point runs on integers: all r pairings are
    numerators over the lcm of d's denominators, computed in one pass, and
    the groups are keyed on them.  Each group's series is integer numerators
    over one denominator; one over the product of the denominators is the
    degree's one Fraction scale, which multiplies each bucket's class.

    Each group's series is read from a prefix table.  With x = num/den in
    lowest terms, every range's a-values fill a prefix of one residue class:
    |den a| runs up from first = num mod den (or den) over (0, num] or
    (0, num-den] when x > 0, and up from first = -num mod den over (num, 0]
    or [num, 0] when x <= 0.  With sign 1 when x > 0 and -1 otherwise, the
    group's series is entry len(nus) of the prefix table
    T[k] = prod_{i<k} (sign (first + den i)/den + u)^(-sign count) mod u^(top+1),
    keyed on (den, first, sign, count, top).  Each table is extended as far
    as the longest range read from it.  `tables` holds them: `_assemble`
    passes one dict for all degrees of a series, and it is dropped with the
    call.
    """
    if mode not in ("ambient", "glsm"):
        raise ValueError(f"unknown mode {mode!r}")
    den, nums = common_denominator(d)
    groups: dict[tuple, int] = {}  # (column, numerator of x over den, nus) -> number of coordinates
    classes = 0  # coordinates whose range holds nu = x: each contributes the factor class(rho_i)
    for col, charge in zip(zip(*m.weights), m.r_charges):
        xn = sum([w * v for w, v in zip(col, nums)])  # x = <d, rho_i> = xn / den
        up = -(-xn // den)  # ceil(x)
        if mode == "glsm" and charge != 0:
            nus = range(1, up) if xn > 0 else range(up, 1)
        elif xn == 0:
            continue
        else:
            nus = range(0, up) if xn > 0 else range(up, 0)
        if nus:
            key = (col, xn, nus)
            groups[key] = groups.get(key, 0) + 1
            classes += xn <= 0 and xn % den == 0
    top = ring.top
    if classes > top:
        return LaurentZ(ring, ())
    poly = {(0,) * m.k: 1}  # integer polynomial in H_1..H_k of degree <= top
    scale_den = 1
    shift = 0
    for (col, xn, nus), count in groups.items():
        g = gcd(xn, den)
        coeffs, dnm = _gamma_series(xn // g, den // g, nus, count, top, tables)
        poly = _times_linear_series(poly, coeffs, col, top)
        if not poly:
            return LaurentZ(ring, ())
        scale_den *= dnm
        n = len(nus) * count
        shift += -n if xn > 0 else n
    scale = Fraction(1, scale_den)
    by_z: dict[int, list] = {}  # z-exponent -> (monomial, integer coefficient) terms
    for mono, v in poly.items():
        by_z.setdefault(shift - sum(mono), []).append((mono, v))
    return LaurentZ.from_dict(ring, {e: class_of(ring, terms).scale(scale) for e, terms in by_z.items()})


def _gamma_series(num: int, den: int, nus: range, count: int, top: int, tables: dict) -> tuple[list[int], int]:
    """prod_{nu in nus} (x - nu + u)^count, inverted when x > 0, mod u^(top+1): integer numerators, one denominator.

    x = num / den is in lowest terms.  The series is entry len(nus) of the
    prefix table keyed on (den, first, sign, count, top), extended as needed.
    """
    if num > 0:  # a in (0, x]: first = num mod den, or den
        key = (den, num % den or den, 1, count, top)
    else:  # a in (x, 0] or [x, 0]: first = (-num) mod den
        key = (den, -num % den, -1, count, top)
    table = tables.setdefault(key, [([1] + [0] * top, 1)])
    while len(table) <= len(nus):
        _extend_prefix(table, key)
    return table[len(nus)]


def _extend_prefix(table: list[tuple[list[int], int]], key: tuple) -> None:
    """Append T[k+1] = T[k] * (a_k + u)^(-sign*count) mod u^(top+1), where k + 1 = len(table).

    a_k = p / den with p = sign*(first + den*k).  A numerator step (sign -1)
    multiplies the numerators by (p + den*u)^count and the denominator by
    den^count.  An inverse step (sign 1, so p >= 1) divides by (p + den*u)
    count times, b = p^(top+1) c / (p + den*u) with b_j = p^top c_j -
    den b_(j-1) / p exact, then scales by den^count and reduces to lowest terms.
    """
    den, first, sign, count, top = key
    p = sign * (first + den * (len(table) - 1))
    row, denom = table[-1]
    row = list(row)
    if sign < 0:
        for _ in range(count):
            for j in range(top, 0, -1):
                row[j] = p * row[j] + den * row[j - 1]
            row[0] *= p
        table.append((row, denom * den**count))
        return
    lift = p**top
    for _ in range(count):
        row[0] *= lift
        for j in range(1, top + 1):
            row[j] = lift * row[j] - den * (row[j - 1] // p)
    scale = den**count
    row = [c * scale for c in row]
    denom *= (lift * p) ** count
    g = gcd(denom, *row)
    table.append(([c // g for c in row], denom // g))


def _times_linear_series(poly: dict, coeffs: list[int], col, top: int) -> dict:
    """poly * sum_j coeffs[j] (sum_a col_a H_a)^j over the integers, without monomials above degree top."""
    steps = [(a, w) for a, w in enumerate(col) if w]
    acc: dict = {}
    for c in reversed(coeffs):  # Horner in the linear form
        nxt: dict = {}
        for mono, v in acc.items():
            if sum(mono) < top:
                for a, w in steps:
                    up = mono[:a] + (mono[a] + 1,) + mono[a + 1 :]
                    nxt[up] = nxt.get(up, 0) + w * v
        if c:
            for mono, v in poly.items():
                nxt[mono] = nxt.get(mono, 0) + c * v
        acc = nxt
    return {mono: v for mono, v in acc.items() if v}


def exp_factor(d: Degree, etas, insertions, t_order: int, base: LaurentZ) -> dict[tuple[int, ...], LaurentZ]:
    """alpha -> base * prod_j P_j^alpha_j / alpha_j!, truncated at total insertion order.

    P_j = z^{-1} p_j(eta_s + z <d, eta_s>) is insertion j's exponent in
    exp(sum_j t^j P_j), each shared character eta_s evaluated as its divisor
    class plus the scalar z-shift.  Each monomial of p_j starts at its first
    character's factor and is scaled only by a coefficient other than 1.
    The term of alpha = 0 is `base`; every other alpha takes the term of
    alpha - e_j, with j its last nonzero entry (listed earlier by
    `t_exponents`), times P_j, scaled by 1/alpha_j when alpha_j > 1.  Every
    term lives in `base`'s sector ring.
    """
    ring = base.ring
    evals = [
        linear_z_factor(ring, class_from_character(ring, eta), pairing(d, eta)) for eta in etas
    ]
    shifted = []
    for ins in insertions:
        acc = None
        for mono, coeff in ins.poly:
            term = None
            for s, e in enumerate(mono):
                for _ in range(e):
                    term = evals[s] if term is None else term.mul(evals[s])
            term = LaurentZ.one(ring) if term is None else term
            term = term if coeff == 1 else term.scale(coeff)
            acc = term if acc is None else acc.add(term)
        shifted.append(LaurentZ(ring, ()) if acc is None else acc.shift(-1))

    out: dict[tuple[int, ...], LaurentZ] = {}
    for alpha in t_exponents(len(insertions), t_order):
        if not any(alpha):
            out[alpha] = base
            continue
        j = max(pos for pos, e in enumerate(alpha) if e)
        prev = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]
        term = out[prev].mul(shifted[j])
        out[alpha] = term if alpha[j] == 1 else term.scale(Fraction(1, alpha[j]))
    return out


def t_exponents(nvars: int, t_order: int) -> list[tuple[int, ...]]:
    """All t-multi-exponents of nvars variables with total order <= t_order.

    Lexicographic order: the first variable's exponent varies slowest.
    """
    return list(nonneg_vectors((1,) * nvars, t_order))


def sector_rings(m: GLSMModel, degrees) -> list[SectorRing]:
    """The sector ring of each degree, with one `build_ring` call per distinct sector among them.

    The one per-sector ring lookup of the engine and of the direct series.
    A degree's sector depends only on d mod 1, keyed here as the integer
    numerators of d mod 1 over the lcm of d's denominators.
    """
    by_sector: dict[tuple, SectorRing] = {}
    out = []
    for d in degrees:
        den, nums = common_denominator(d)
        key = (den, tuple([x % den for x in nums]))
        ring = by_sector.get(key)
        if ring is None:
            ring = by_sector[key] = build_ring(m, sector_of_degree(m, d))
        out.append(ring)
    return out


def empty_series(model: GLSMModel, state: str, etas, insertions, q_bound, t_order: int) -> GradedSeries:
    """The series with no terms that the engine, the reader and the direct series fill.

    The one `GradedSeries` constructor: it normalises the characters to
    tuples and the bound to a Fraction.
    """
    return GradedSeries(
        model=model,
        state=state,
        etas=tuple(tuple(e) for e in etas),
        insertions=tuple(insertions),
        q_bound=Fraction(q_bound),
        t_order=t_order,
        terms={},
    )


def _assemble(m, etas, insertions, q_bound, t_order, mode) -> GradedSeries:
    series = empty_series(m, mode, etas, insertions, q_bound, t_order)
    vanished: list[TermKey] = []
    tables: dict = {}  # hyper_factor's prefix tables, shared by the degrees of this series
    degrees = effective_degrees(m, series.q_bound)
    for d, ring in zip(degrees, sector_rings(m, degrees)):
        hyper = hyper_factor(m, d, mode, ring, tables)
        if hyper.is_zero():
            vanished.extend((d, alpha) for alpha in t_exponents(len(series.insertions), t_order))
            continue
        if not series.insertions:
            series.terms[(d, ())] = hyper
            continue
        for alpha, value in exp_factor(d, series.etas, series.insertions, t_order, hyper).items():
            if value.is_zero():
                vanished.append((d, alpha))
            else:
                series.terms[(d, alpha)] = value
    series.vanished = tuple(_sorted_keys(vanished))
    return series


def big_i_function(m: GLSMModel, etas=(), insertions=(), q_bound=Fraction(0), t_order=0) -> GradedSeries:
    """Truncated big I-function of the GIT quotient (ambient state space)."""
    return _assemble(m, etas, insertions, q_bound, t_order, "ambient")


def glsm_i_function(m: GLSMModel, etas=(), insertions=(), q_bound=Fraction(0), t_order=0) -> GradedSeries:
    """Truncated I-function of the model with potential (glsm state space).

    Requires the invariant-triviality hypothesis on the R-charge-zero
    coordinates; refuses with the nontrivial-monomial certificate otherwise.
    """
    res = glsm_hypothesis(m)
    if not res.trivial:
        raise HypothesisError(res.certificate)
    return _assemble(m, etas, insertions, q_bound, t_order, "glsm")


# --------------------------------------------------------------------------
# operators on series
# --------------------------------------------------------------------------


def times_characters(s: GradedSeries, characters) -> GradedSeries:
    """Each degree-d term times prod_{xi in characters(d)} (class(xi) + <d,xi> z).

    The product is formed once per degree and shared by its t-exponents; a
    term whose product is empty is kept as it is.  At <d,xi> = 0 the factor
    is class(xi) alone.  Only comparisons and `z_partial` call this: the
    direct series keep their own products, so a cross-check stays independent.
    """
    products: dict[Degree, LaurentZ | None] = {}

    def multiply(d, _alpha, value):
        try:
            product = products[d]
        except KeyError:
            ring = value.ring
            product = None
            for xi in characters(d):
                factor = linear_z_factor(ring, class_from_character(ring, xi), pairing(d, xi))
                product = factor if product is None else product.mul(factor)
            products[d] = product
        return value if product is None else value.mul(product)

    return s.map_terms(multiply)


def z_partial(s: GradedSeries, rho_list, method: str = "by_multiplication") -> GradedSeries:
    """z-shifted degree-weighted multiplication operator, two implementations.

    Both act on the terms of the series given, which need not be fresh
    engine output (a twisted or read-back series is differentiated as it
    stands).  by_multiplication scales each degree-d term by the product of
    (class(rho) + <d,rho> z) through `times_characters`; by_insertion runs
    the engine's insertion exponential on each stored term with one
    auxiliary insertion, the product of the rho characters over the distinct
    rhos (the stored terms already carry the series' own insertions), takes
    the term linear in it (its derivative at zero) and multiplies by z.
    "verify" runs both and insists they agree.
    """
    if s.state != "ambient":
        raise ValueError("z_partial is defined on ambient-state series")
    rho_list = [tuple(r) for r in rho_list]
    if method == "verify":
        a = z_partial(s, rho_list, "by_multiplication")
        b = z_partial(s, rho_list, "by_insertion")
        diff = series_compare(a, b)
        if diff:
            raise InternalError(f"z_partial methods disagree at {len(diff)} positions")
        return a
    if method == "by_multiplication":
        return times_characters(s, lambda _d: rho_list)
    if method == "by_insertion":
        etas = list(dict.fromkeys(rho_list))
        aux = Insertion.from_terms("_aux", {tuple(rho_list.count(eta) for eta in etas): Fraction(1)})

        def differentiate(d, _alpha, value):
            return exp_factor(d, etas, (aux,), 1, value)[(1,)].shift(1)

        return s.map_terms(differentiate)
    raise ValueError(f"unknown z_partial method {method!r}")


def twist_novikov(s: GradedSeries, tau_list) -> GradedSeries:
    """Multiply each degree-d term by the half-turn phase of sum_j <d, tau_j>.

    The phase is represented exactly in the cyclotomic field whose order is
    twice the lcm of the exponent denominators over the stored degrees.
    """
    tau_list = [tuple(t) for t in tau_list]
    if not tau_list:
        return s
    exponents: dict[Degree, Fraction] = {}
    for (d, _alpha) in list(s.terms) + list(s.vanished):
        if d not in exponents:
            exponents[d] = sum((pairing(d, tau) for tau in tau_list), Fraction(0))
    order = 2 * common_denominator(exponents.values())[0]
    return s.map_terms(
        lambda d, _alpha, value: value.scale(Cyclo.root_of_unity(order, int(exponents[d] * order // 2)))
    )


# --------------------------------------------------------------------------
# compact-type report
# --------------------------------------------------------------------------


def compact_type_report(s: GradedSeries) -> dict:
    """Hypothesis test plus literal endpoint-factor divisibility per term, on the series' own model.

    A term of degree d must lie in the ideal generated by the product of the
    classes of the R-charged columns that its sector fixes and that pair
    nonpositively with d.  That ideal depends only on the sector ring and
    those columns, so each (ring, columns) pair is eliminated once, however
    many degrees share it.  Everything beyond these two checks is reported
    as unverified.
    """
    m = s.model
    charged = [(i, m.column(i)) for i in m.r_charged_indices()]
    hyp = glsm_hypothesis(m)
    violations = []
    checked = 0
    ideals: dict = {}  # (sector ring, endpoint columns) -> membership test of their ideal
    for d, alpha in _sorted_keys(s.terms):
        value = s.terms[(d, alpha)]
        action = value.ring.sector.action
        columns = tuple(col for i, col in charged if action[i] == 0 and pairing(d, col) <= 0)
        if not columns:
            continue
        key = (value.ring, columns)
        if key not in ideals:
            ideals[key] = ideal_membership(value.ring, [class_from_character(value.ring, col) for col in columns])
        contains = ideals[key]
        for zexp, cls in value.coeffs:
            checked += 1
            if not contains(cls):
                violations.append(
                    {
                        "degree": [format_rational(x) for x in d],
                        "t_exponent": list(alpha),
                        "z": zexp,
                    }
                )
    return {
        "state": s.state,
        "hypothesis_holds": bool(hyp.trivial),
        "hypothesis_certificate": list(hyp.certificate) if hyp.certificate else None,
        "divisibility_checked": checked,
        "violations": violations,
        "structurally_vanishing": len(s.vanished),
        "note": "membership beyond the hypothesis and endpoint-factor divisibility is unverified",
    }


# --------------------------------------------------------------------------
# comparison and serialization
# --------------------------------------------------------------------------


def series_compare(a: GradedSeries, b: GradedSeries, variable_map: dict | None = None) -> list[dict]:
    """Exact termwise diff on the intersection of the truncation regions.

    variable_map may rename insertion variables of `b` ({"old": "new"} with
    names matched against a's insertion names).  Refuses with ValueError when
    the map renames a variable that `b` does not name, or when either side,
    after the renaming, names one variable more than once.  Both
    sides are cut to the common region by `GradedSeries.restrict`, which
    returns a series itself for its own region.  Returns a list of
    difference records, in key order; empty means equal on the common
    region.  One pass over the keys collects the differing ones, and only
    those are sorted.  `b`'s term dict is re-keyed only when the variable
    permutation is not the identity, and the model hashes are compared
    only when the two models are different objects.
    """
    if a.model is not b.model and a.model_key != b.model_key:
        raise ValueError("series belong to different models")
    rename = variable_map or {}
    unknown = sorted(set(rename) - {ins.name for ins in b.insertions})
    if unknown:
        raise ValueError(f"variable map (--map) renames {unknown}, which the second series does not name")
    names_a = [ins.name for ins in a.insertions]
    names_b = [rename.get(ins.name, ins.name) for ins in b.insertions]
    if len(set(names_a)) < len(names_a) or len(set(names_b)) < len(names_b):
        raise ValueError("a series names one insertion variable more than once")
    if sorted(names_a) != sorted(names_b):
        raise ValueError("insertion variables do not match")
    perm = [names_b.index(n) for n in names_a]
    qb = min(a.q_bound, b.q_bound)
    to = min(a.t_order, b.t_order)
    left = a.restrict(qb, to).terms
    right = b.restrict(qb, to).terms
    if perm != list(range(len(perm))):
        right = {(d, tuple([alpha[p] for p in perm])): v for (d, alpha), v in right.items()}
    differing = [key for key, lv in left.items() if right.get(key) != lv]
    differing += [key for key in right if key not in left]
    diffs = []
    for key in _sorted_keys(differing):
        lv = left.get(key)
        rv = right.get(key)
        lmap = lv.as_dict() if lv is not None else {}
        rmap = rv.as_dict() if rv is not None else {}
        for zexp in sorted(set(lmap) | set(rmap)):
            lc = lmap.get(zexp)
            rc = rmap.get(zexp)
            if lc is not None and rc is not None and lc == rc:
                continue
            diffs.append(
                {
                    "degree": [format_rational(x) for x in key[0]],
                    "t_exponent": list(key[1]),
                    "z": zexp,
                    "left": class_to_json(lc) if lc is not None else None,
                    "right": class_to_json(rc) if rc is not None else None,
                }
            )
    return diffs


SERIES_SCHEMA = "glsmkit/series/v1"


def series_to_dict(s: GradedSeries) -> dict:
    terms = []
    for td, d, alpha in s.graded_keys():
        value = s.terms[(d, alpha)]
        terms.append(
            {
                "degree": [format_rational(x) for x in d],
                "theta_degree": format_rational(td),
                "sector_lambda": [format_rational(x) for x in value.ring.sector.lam],
                "t_exponent": list(alpha),
                "z": {str(e): class_to_json(c) for e, c in value.coeffs},
            }
        )
    return {
        "schema": SERIES_SCHEMA,
        "state": s.state,
        "model": model_to_dict(s.model),
        "model_hash": s.model_key,
        "effectivity": "criterion",
        "truncation": {"q_bound": format_rational(s.q_bound), "t_order": s.t_order},
        "etas": [list(e) for e in s.etas],
        "insertions": [
            {
                "name": ins.name,
                "poly": [
                    {"powers": list(mono), "coeff": format_rational(c)} for mono, c in ins.poly
                ],
            }
            for ins in s.insertions
        ],
        "terms": terms,
        "vanished": [
            {"degree": [format_rational(x) for x in d], "t_exponent": list(alpha)}
            for d, alpha in s.vanished
        ],
    }


def series_to_json(s: GradedSeries) -> str:
    return json.dumps(series_to_dict(s), sort_keys=True, separators=(",", ":")) + "\n"


def series_from_dict(data: dict) -> GradedSeries:
    """The series of a stored payload; InputError names a field that is malformed or disagrees with what it records.

    Every field is read through the `model.json_*` readers, rationals as a
    JSON integer or a "p/q" string, and each class through
    `rings.class_from_json`, whose refusal is prefixed with the term.  Each
    degree has k entries, each t-exponent one entry per insertion and each
    insertion's powers one entry per eta.  The fields the writer derives are checked against the
    model without serializing anything again: the schema, the state, the
    model hash, each term's theta-degree and sector lambda, and that no
    (degree, t-exponent) key is listed twice among the terms and the
    vanished keys, nor a z exponent twice in one term.  A term or vanished
    key outside the truncation (its theta-degree above q_bound or its
    t-exponents summing above t_order) is refused, naming it; each run of
    equal fields computes its theta-degree once, and each vanished key its
    own.  A model with theta = 0 has no quotient, and its series is refused
    with DegenerateStabilityError, as the engine refuses it.
    """
    if json_object(data, "series file").get("schema") != SERIES_SCHEMA:
        raise InputError(f"series schema must be {SERIES_SCHEMA!r}, got {json.dumps(data.get('schema'))}")
    state = data.get("state")
    if state not in ("ambient", "glsm"):
        raise InputError(f'series state must be "ambient" or "glsm", got {json.dumps(state)}')
    m = model_from_dict(json_field(data, "model", "series file"))
    if data.get("model_hash") != model_hash(m):
        raise InputError("series model_hash is not the hash of its model")
    if not any(m.theta):
        raise DegenerateStabilityError("degenerate quotient: the series' model has theta = 0")
    etas = json_int_rows(data.get("etas", []), "series etas")
    if any(len(eta) != m.k for eta in etas):
        raise InputError(f"series etas must each have k = {m.k} entries, got {json.dumps(data['etas'])}")
    insertions = []
    for ins in json_list(data.get("insertions", []), "series insertions"):
        name = json_field(ins, "name", "series insertion")
        if not isinstance(name, str):
            raise InputError(f"series insertion name must be a string, got {json.dumps(name)}")
        poly = {}
        for term in json_list(json_field(ins, "poly", "series insertion"), f"series insertion {name!r} poly"):
            powers = json_ints(json_field(term, "powers", "series insertion term"), f"series insertion {name!r} powers")
            if len(powers) != len(etas):
                raise InputError(
                    f"series insertion {name!r} powers must have one entry per eta ({len(etas)}), got {list(powers)}"
                )
            poly[powers] = json_rational(json_field(term, "coeff", "series insertion term"), "series insertion coeff")
        insertions.append(Insertion.from_terms(name, poly))
    truncation = json_field(data, "truncation", "series file")
    q_bound = json_rational(json_field(truncation, "q_bound", "series truncation"), "series truncation q_bound")
    t_order = json_int(json_field(truncation, "t_order", "series truncation"), "series truncation t_order")
    if q_bound < 0 or t_order < 0:
        raise InputError(f"series truncation must be nonnegative, got {json.dumps(truncation)}")
    series = empty_series(m, state, etas, insertions, q_bound, t_order)

    def read_key(item, where: str) -> TermKey:
        d = json_rationals(json_field(item, "degree", where), f"{where} degree")
        if len(d) != m.k:
            raise InputError(f"{where} degree must have k = {m.k} entries, got {json.dumps(item['degree'])}")
        alpha = json_ints(json_field(item, "t_exponent", where), f"{where} t_exponent")
        if len(alpha) != len(insertions):
            raise InputError(
                f"{where} t_exponent must have one entry per insertion ({len(insertions)}), got {list(alpha)}"
            )
        return d, alpha

    def check_region(where: str, td: Fraction, alpha) -> None:
        if td > q_bound:
            raise InputError(f"{where}: theta-degree {format_rational(td)} exceeds the truncation q_bound")
        if sum(alpha) > t_order:
            raise InputError(f"{where}: t_exponent {list(alpha)} exceeds the truncation t_order")

    vanished = json_list(data.get("vanished", []), "series vanished")
    series.vanished = tuple(read_key(item, f"series vanished[{n}]") for n, item in enumerate(vanished))
    for n, (d, alpha) in enumerate(series.vanished):
        check_region(f"series vanished[{n}] at degree {vanished[n]['degree']}", theta_degree(m, d), alpha)
    items = json_list(json_field(data, "terms", "series file"), "series terms")
    keys = [read_key(item, f"series terms[{n}]") for n, item in enumerate(items)]
    # the writer lists the terms of one degree together: each run of equal fields is checked once
    checked = None  # the last (degree, theta_degree, sector_lambda) found to agree
    for n, ((d, alpha), ring, item) in enumerate(zip(keys, sector_rings(m, [d for d, _alpha in keys]), items)):
        fields = (item["degree"], item.get("theta_degree"), item.get("sector_lambda"))
        if fields != checked:
            td = theta_degree(m, d)
            if fields[1] != format_rational(td):
                raise InputError(f"series term at degree {item['degree']}: theta_degree does not match the degree")
            if fields[2] != [format_rational(x) for x in ring.sector.lam]:
                raise InputError(f"series term at degree {item['degree']}: sector_lambda does not match the degree")
            checked = fields
        check_region(f"series terms[{n}] at degree {item['degree']}", td, alpha)
        coeffs = {}
        for e, cmap in json_object(json_field(item, "z", f"series terms[{n}]"), f"series terms[{n}] z").items():
            try:
                zexp = int(e)
            except ValueError:
                raise InputError(f"series terms[{n}] z exponent must be an integer, got {json.dumps(e)}") from None
            where = f"series terms[{n}] z[{e}]"
            if zexp in coeffs:
                raise InputError(f"{where}: z exponent {zexp} is listed twice")
            cmap = json_object(cmap, where)
            try:
                coeffs[zexp] = class_from_json(ring, cmap)
            except ValueError as err:
                raise InputError(f"{where}: {err}") from None
        series.terms[(d, alpha)] = LaurentZ.from_dict(ring, coeffs)
    if len(set(series.terms) | set(series.vanished)) < len(items) + len(series.vanished):
        raise InputError("series terms and vanished list a (degree, t_exponent) key twice")
    return series


def series_from_json(text: str) -> GradedSeries:
    return series_from_dict(load_json(text, "series"))
