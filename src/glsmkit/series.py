"""The I-function engine.

Assembles truncated generating series over the effective degrees of a model:
per-degree hypergeometric factors (two range conventions, plain quotient
target vs potential-aware), exponential insertion factors, z-degree shift
operators, Novikov sign twists, compact-type reports, and exact comparison.

Every coefficient is a z-Laurent polynomial whose coefficients live in the
sector ring attached to the term's degree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial, gcd

from .lattice import common_denominator, nonneg_vectors
from .model import GLSMModel, InternalError, model_from_dict, model_hash, model_to_dict
from .rings import (
    CohClass,
    SectorRing,
    build_ring,
    class_from_character,
    class_from_json,
    class_of,
    class_to_json,
    ideal_membership,
)
from .scalars import Cyclo, Scalar, format_rational, parse_rational
from .sectors import Degree, effective_degrees, pairing, sector_of_degree, theta_degree
from .validate import invariants_trivial


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
    def from_class(ring: SectorRing, c: CohClass, zexp: int = 0) -> "LaurentZ":
        return LaurentZ.from_dict(ring, {zexp: c})

    def as_dict(self) -> dict[int, CohClass]:
        return dict(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def width(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1][0] - self.coeffs[0][0] + 1

    def add(self, other: "LaurentZ") -> "LaurentZ":
        out = self.as_dict()
        for e, c in other.coeffs:
            cur = out.get(e)
            out[e] = c if cur is None else cur + c
        return LaurentZ.from_dict(self.ring, out)

    def mul(self, other: "LaurentZ") -> "LaurentZ":
        out: dict[int, CohClass] = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                e = e1 + e2
                prod = c1 * c2
                cur = out.get(e)
                out[e] = prod if cur is None else cur + prod
        return LaurentZ.from_dict(self.ring, out)

    def scale(self, s: Scalar) -> "LaurentZ":
        return LaurentZ.from_dict(self.ring, {e: c.scale(s) for e, c in self.coeffs})

    def scale_class(self, c: CohClass) -> "LaurentZ":
        return LaurentZ.from_dict(self.ring, {e: v * c for e, v in self.coeffs})

    def shift(self, dz: int) -> "LaurentZ":
        return LaurentZ(self.ring, tuple((e + dz, c) for e, c in self.coeffs))


def linear_z_factor(ring: SectorRing, cls: CohClass, a: Fraction) -> LaurentZ:
    """The factor (cls + a*z)."""
    return LaurentZ.from_dict(ring, {0: cls, 1: ring.one().scale(a)})


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
        q_bound = Fraction(q_bound)
        if q_bound > self.q_bound or t_order > self.t_order:
            raise ValueError("restriction region must lie inside the computed truncation")

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
        """Replace each term by fn(d, alpha, value); zero results join the sorted vanished keys."""
        terms: dict[TermKey, LaurentZ] = {}
        vanished = list(self.vanished)
        for (d, alpha), value in self.terms.items():
            out = fn(d, alpha, value)
            if out.is_zero():
                vanished.append((d, alpha))
            else:
                terms[(d, alpha)] = out
        return replace(self, terms=terms, vanished=tuple(sorted(vanished)))


def hyper_factor(m: GLSMModel, d: Degree, mode: str, ring: SectorRing) -> LaurentZ:
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
    sum_a rho_ia H_a, D the denominator of x and p_k = D*(x - nu_k) the
    integer numerators of the n a-values.  With P(u) = prod_k (p_k + D u), an
    integer polynomial,
        prod_k (c + a_k z)      = sum_j P_j D^-n c^j z^(n-j),
        prod_k (c + a_k z)^-1   = sum_j G_j D^n / P_0^(j+1) c^j z^(-n-j),
    where G_0 = 1 and G_j = -sum_{i=1..j} P_i G_(j-i) P_0^(i-1) are the
    integer numerators of the series 1/P(u).  Zero a-values in a numerator
    only shift P.  Coordinates with equal columns and ranges are counted
    first, and each group contributes one P on its a-values repeated count
    times.  Every term pairs H-degree j with z^(+-n - j), so the product over
    the groups is one integer polynomial in H_1..H_k times one rational scale,
    with H^mu standing at z^(shift - |mu|), where shift sums the +-n.  The
    ring's ideal is homogeneous, so every monomial above its top degree is
    zero: the series and their product are truncated there.  The terms are
    bucketed by z-exponent, and `rings.class_of` reads each bucket's class
    off the ring's normal forms.

    Everything up to that point runs on integers: all r pairings are
    numerators over the lcm of d's denominators, computed in one pass, and
    the groups are keyed on them.  Each group's scale stays an integer
    numerator and denominator; their products form the degree's one
    Fraction scale, which multiplies each bucket's class.
    """
    if mode not in ("ambient", "glsm"):
        raise ValueError(f"unknown mode {mode!r}")
    den, nums = common_denominator(d)
    groups: dict[tuple, int] = {}  # (column, numerator of x over den, nus) -> number of coordinates
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
    top = ring.top
    poly = {(0,) * m.k: 1}  # integer polynomial in H_1..H_k of degree <= top
    scale_num = scale_den = 1
    shift = 0
    for (col, xn, nus), count in groups.items():
        g = gcd(xn, den)
        inverted = xn > 0
        coeffs, num, dnm = _gamma_series(xn // g, den // g, nus, count, inverted, top)
        poly = _times_linear_series(poly, coeffs, col, top)
        if not poly:
            return LaurentZ(ring, ())
        scale_num *= num
        scale_den *= dnm
        n = len(nus) * count
        shift += -n if inverted else n
    scale = Fraction(scale_num, scale_den)
    by_z: dict[int, list] = {}  # z-exponent -> (monomial, integer coefficient) terms
    for mono, v in poly.items():
        by_z.setdefault(shift - sum(mono), []).append((mono, v))
    return LaurentZ.from_dict(ring, {e: class_of(ring, terms).scale(scale) for e, terms in by_z.items()})


def _gamma_series(num: int, den: int, nus: range, count: int, inverted: bool, top: int) -> tuple[list[int], int, int]:
    """Integer coefficients of P(u), or of 1/P(u), up to u^top, and the scale of hyper_factor's closed form.

    x = num / den in lowest terms, and P is the product over nus, taken count
    times.  The scale is returned as its integer numerator and denominator.
    """
    n = len(nus) * count
    size = top + 1 if inverted else min(n, top) + 1
    once = [1] + [0] * (size - 1)
    for nu in nus:
        p = num - den * nu
        for j in range(size - 1, 0, -1):
            once[j] = p * once[j] + den * once[j - 1]
        once[0] *= p
    poly = once
    for _ in range(count - 1):
        poly = [sum([poly[i] * once[j - i] for i in range(j + 1)]) for j in range(size)]
    if not inverted:
        return poly, 1, den**n
    p0 = poly[0]
    if p0 == 0:
        raise InternalError("denominator factor with zero scalar part")
    # G_j / P_0^(j+1) over the common denominator P_0^size: c_j = G_j P_0^(size-1-j) satisfies
    # c_0 = P_0^(size-1) and c_j = -sum_{i=1..j} P_i c_(j-i) / P_0, where every term is divisible by P_0
    inv = [p0 ** (size - 1)]
    for j in range(1, size):
        inv.append(-sum([poly[i] * inv[j - i] for i in range(1, j + 1)]) // p0)
    return inv, den**n, p0**size


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


def exp_factor(
    m: GLSMModel,
    d: Degree,
    etas,
    insertions,
    t_order: int,
    ring: SectorRing,
) -> dict[tuple[int, ...], LaurentZ]:
    """Multi-variable exponential factor, truncated at total insertion order.

    Expands exp(z^{-1} sum_j t^j p_j(eta_s + z <d, eta_s>)), evaluating each
    shared character eta_s as its divisor class plus the scalar z-shift.
    Returns a map from t-multi-exponent to coefficient.
    """
    evals = [
        linear_z_factor(ring, class_from_character(ring, eta), pairing(d, eta)) for eta in etas
    ]
    shifted = []
    for ins in insertions:
        acc = LaurentZ.from_dict(ring, {})
        for mono, coeff in ins.poly:
            term = LaurentZ.one(ring)
            for s, e in enumerate(mono):
                for _ in range(e):
                    term = term.mul(evals[s])
            acc = acc.add(term.scale(coeff))
        shifted.append(acc.shift(-1))

    powers = []
    for a in shifted:
        row = [LaurentZ.one(ring)]
        for _ in range(t_order):
            row.append(row[-1].mul(a))
        powers.append(row)

    out: dict[tuple[int, ...], LaurentZ] = {}
    for alpha in t_exponents(len(insertions), t_order):
        acc = LaurentZ.one(ring)
        for pos, e in enumerate(alpha):
            if e:
                acc = acc.mul(powers[pos][e]).scale(Fraction(1, factorial(e)))
        out[alpha] = acc
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


def _assemble(m, etas, insertions, q_bound, t_order, mode) -> GradedSeries:
    series = GradedSeries(
        model=m,
        state="glsm" if mode == "glsm" else "ambient",
        etas=tuple(tuple(e) for e in etas),
        insertions=tuple(insertions),
        q_bound=Fraction(q_bound),
        t_order=t_order,
        terms={},
    )
    vanished: list[TermKey] = []
    degrees = effective_degrees(m, series.q_bound)
    for d, ring in zip(degrees, sector_rings(m, degrees)):
        hyper = hyper_factor(m, d, mode, ring)
        if hyper.is_zero():
            vanished.extend((d, alpha) for alpha in t_exponents(len(series.insertions), t_order))
            continue
        if not series.insertions:
            series.terms[(d, ())] = hyper
            continue
        exps = exp_factor(m, d, series.etas, series.insertions, t_order, ring)
        for alpha, coeff in sorted(exps.items()):
            value = coeff.mul(hyper)
            if value.is_zero():
                vanished.append((d, alpha))
            else:
                series.terms[(d, alpha)] = value
    series.vanished = tuple(sorted(vanished))
    return series


def big_i_function(m: GLSMModel, etas=(), insertions=(), q_bound=Fraction(0), t_order=0) -> GradedSeries:
    """Truncated big I-function of the GIT quotient (ambient state space)."""
    return _assemble(m, etas, insertions, q_bound, t_order, "ambient")


def glsm_i_function(m: GLSMModel, etas=(), insertions=(), q_bound=Fraction(0), t_order=0) -> GradedSeries:
    """Truncated I-function of the model with potential (glsm state space).

    Requires the invariant-triviality hypothesis on the R-charge-zero
    coordinates; refuses with the nontrivial-monomial certificate otherwise.
    """
    keep = [i for i in range(m.r) if m.r_charges[i] == 0]
    res = invariants_trivial(m, keep, include_r_charge=False)
    if not res.trivial:
        raise HypothesisError(res.certificate)
    return _assemble(m, etas, insertions, q_bound, t_order, "glsm")


# --------------------------------------------------------------------------
# operators on series
# --------------------------------------------------------------------------


def z_partial(s: GradedSeries, rho_list, method: str = "by_multiplication") -> GradedSeries:
    """z-shifted degree-weighted multiplication operator, two implementations.

    by_multiplication scales each degree-d term by the product of
    (class(rho) + <d,rho> z); by_insertion appends an auxiliary insertion
    whose polynomial is the product of the rho characters, recomputes to one
    higher order, differentiates at zero and multiplies by z.  "verify" runs
    both and insists they agree.
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
        def multiply(d, _alpha, value):
            ring = value.ring
            mult = LaurentZ.one(ring)
            for rho in rho_list:
                mult = mult.mul(linear_z_factor(ring, class_from_character(ring, rho), pairing(d, rho)))
            return value.mul(mult)

        return s.map_terms(multiply)
    if method == "by_insertion":
        etas = list(s.etas)
        positions = []
        for rho in rho_list:
            if rho not in etas:
                etas.append(rho)
            positions.append(etas.index(rho))
        mono = [0] * len(etas)
        for p in positions:
            mono[p] += 1
        aux = Insertion.from_terms("_aux", {tuple(mono): Fraction(1)})
        bigger = _assemble(
            s.model, etas, tuple(s.insertions) + (aux,), s.q_bound, s.t_order + 1, "ambient"
        )
        terms = {}
        for (d, alpha), value in bigger.terms.items():
            if alpha[-1] != 1 or sum(alpha[:-1]) > s.t_order:
                continue
            terms[(d, alpha[:-1])] = value.shift(1)
        vanished = [
            (d, alpha[:-1])
            for (d, alpha) in bigger.vanished
            if alpha[-1] == 1 and sum(alpha[:-1]) <= s.t_order
        ]
        return replace(s, terms=terms, vanished=tuple(sorted(vanished)))
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


def compact_type_report(s: GradedSeries, m: GLSMModel) -> dict:
    """Hypothesis test plus literal endpoint-factor divisibility per term.

    Everything beyond these two checks is reported as unverified.
    """
    charged = m.r_charged_indices()
    keep = [i for i in range(m.r) if m.r_charges[i] == 0]
    hyp = invariants_trivial(m, keep, include_r_charge=False)
    violations = []
    checked = 0
    ideals: dict = {}  # degree -> membership test of its endpoint ideal, eliminated once
    for (d, alpha), value in sorted(s.terms.items()):
        if d not in ideals:
            g = value.ring.sector
            factors = [
                class_from_character(value.ring, m.column(i))
                for i in charged
                if g.action[i] == 0 and pairing(d, m.column(i)) <= 0
            ]
            ideals[d] = ideal_membership(value.ring, factors) if factors else None
        contains = ideals[d]
        if contains is None:
            continue
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
    names matched against a's insertion names).  Returns a list of difference
    records; empty means equal on the common region.
    """
    if a.model_key != b.model_key:
        raise ValueError("series belong to different models")
    rename = variable_map or {}
    names_a = [ins.name for ins in a.insertions]
    names_b = [rename.get(ins.name, ins.name) for ins in b.insertions]
    if sorted(names_a) != sorted(names_b):
        raise ValueError("insertion variables do not match")
    perm = [names_b.index(n) for n in names_a]
    qb = min(a.q_bound, b.q_bound)
    to = min(a.t_order, b.t_order)

    def keys(s: GradedSeries, permute: bool):
        out = {}
        for (d, alpha), v in s.terms.items():
            if theta_degree(s.model, d) <= qb and sum(alpha) <= to:
                key = (d, tuple(alpha[perm[i]] for i in range(len(perm))) if permute else alpha)
                out[key] = v
        return out

    left = keys(a, False)
    right = keys(b, True)
    diffs = []
    for key in sorted(set(left) | set(right)):
        lv = left.get(key)
        rv = right.get(key)
        if lv is not None and rv is not None and lv == rv:
            continue
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
        "schema": "glsmkit/series/v1",
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
    m = model_from_dict(data["model"])
    etas = tuple(tuple(int(x) for x in e) for e in data.get("etas", []))
    insertions = tuple(
        Insertion.from_terms(
            ins["name"],
            {tuple(t["powers"]): parse_rational(t["coeff"]) for t in ins["poly"]},
        )
        for ins in data.get("insertions", [])
    )
    q_bound = parse_rational(data["truncation"]["q_bound"])
    t_order = int(data["truncation"]["t_order"])
    series = GradedSeries(
        model=m,
        state=data["state"],
        etas=etas,
        insertions=insertions,
        q_bound=q_bound,
        t_order=t_order,
        terms={},
        vanished=tuple(
            (
                tuple(parse_rational(x) for x in item["degree"]),
                tuple(item["t_exponent"]),
            )
            for item in data.get("vanished", [])
        ),
    )
    degrees = [tuple(parse_rational(x) for x in item["degree"]) for item in data["terms"]]
    for d, ring, item in zip(degrees, sector_rings(m, degrees), data["terms"]):
        alpha = tuple(item["t_exponent"])
        coeffs = {int(e): class_from_json(ring, cmap) for e, cmap in item["z"].items()}
        series.terms[(d, alpha)] = LaurentZ.from_dict(ring, coeffs)
    return series


def series_from_json(text: str) -> GradedSeries:
    return series_from_dict(json.loads(text))
