"""Model builders and independent direct series for the three special families:
affine phases of a quasihomogeneous singularity, hybrid phases over a weighted
projective stack, and the complete-intersection phase with its sign-twisted
comparison against the ambient hypersurface series.

The hybrid model is the theta < 0 phase of the rank-one sections model, so
`hybrid_build` is one `ci_build` call.  The direct series code the displayed
closed formulas with bare Laurent arithmetic (no reuse of the engine's factor
routines), so the cross-checks exercise two genuinely independent paths.  The
hybrid and complete-intersection series multiply each literal factor once
per series: a coordinate's factors (class + a z), or their inverses, form a
run of prefix products in order of increasing |a|, keyed on the sector ring,
the character and x mod 1 and extended by one product per new a-value, and
each degree multiplies the run entries it reads, an entry shared by equal
coordinates raised to their count by repeated squaring.  They share one insertion
exponential, `_insertion_exponential`, which is separate from the engine's
`exp_factor` and forms each term as one product that starts at the degree's
hypergeometric factor.  All three start from the engine's empty container,
`series.empty_series`, and share nothing else with it but the sector rings.
The affine and hybrid cross-checks share one report, `_family_report`; the
complete-intersection comparison forms each sector ring's Euler classes,
their membership test and its age phase once.  Each cross-check refuses a
given direct series whose model, etas, insertions or truncation differ from
the engine series', so both sides always cover one region.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, factorial, floor, lcm

from .lattice import nonneg_vectors
from .model import (
    GLSMModel,
    InputError,
    InternalError,
    PotentialPolynomial,
    json_bool,
    json_field,
    json_int,
    json_int_rows,
    json_ints,
    json_list,
    json_names,
    json_rationals,
    load_json,
    parse_monomial_expression,
)
from .rings import class_from_character, ideal_membership
from .scalars import format_rational, half_turn
from .sectors import Degree, age, effective_degrees, pairing
from .series import (
    GradedSeries,
    LaurentZ,
    empty_series,
    glsm_i_function,
    invert_linear_z_factor,
    linear_z_factor,
    sector_rings,
    series_compare,
    single_character_insertion,
    t_exponents,
    times_characters,
    twist_novikov,
)

F = Fraction


# --------------------------------------------------------------------------
# affine phases
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FjrwSpec:
    """Finite diagonal symmetry group data for a quasihomogeneous singularity.

    group_data lists (order r_j, action exponents on x_1..x_n); the first
    generator must be the grading element: r_1 = d_w and c_{i1} = c_i mod d_w.
    """

    kind = "fjrw"  # the "kind" of its "specialize" section; a class attribute, not a field
    n: int
    d_w: int
    r_charges: tuple[int, ...]
    group_data: tuple[tuple[int, tuple[int, ...]], ...]
    potential: str | None = None

    def __post_init__(self):
        if len(self.r_charges) != self.n:
            raise InputError("dimension mismatch: r_charges must have length n")
        if not self.group_data:
            raise InputError("group_data must list at least the grading generator")
        for order, action in self.group_data:
            if order < 1 or len(action) != self.n:
                raise InputError("each group generator needs a positive order and n action exponents")
        r1, action1 = self.group_data[0]
        if r1 != self.d_w:
            raise InputError(f"first generator must have order d_w = {self.d_w}, got {r1}")
        for i in range(self.n):
            if (action1[i] - self.r_charges[i]) % self.d_w != 0:
                raise InputError(
                    f"first generator must act like the grading element: exponent {action1[i]} != c_{i + 1} mod d_w"
                )


def fjrw_build(spec: FjrwSpec) -> GLSMModel:
    """Torus presentation of the affine phase: one p-coordinate per generator."""
    s = len(spec.group_data)
    n = spec.n
    weights = []
    for j, (order, action) in enumerate(spec.group_data):
        row = list(action) + [0] * s
        row[n + j] = -order
        weights.append(tuple(row))
    names = tuple(f"x{i + 1}" for i in range(n)) + tuple(f"p{j + 1}" for j in range(s))
    potential = None
    if spec.potential is not None:
        x_terms = parse_monomial_expression(spec.potential, [f"x{i + 1}" for i in range(n)])
        full: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in x_terms.items():
            p_part = []
            for order, action in spec.group_data:
                total = sum(action[i] * exps[i] for i in range(n))
                if total % order != 0 or total < 0:
                    raise InputError(
                        "potential is not invariant under the symmetry group: "
                        f"monomial with exponents {exps} has generator degree {total} mod {order}"
                    )
                p_part.append(total // order)
            full[tuple(exps) + tuple(p_part)] = coeff
        potential = PotentialPolynomial.from_dict(full)
    return GLSMModel(
        r=n + s,
        k=s,
        weights=tuple(weights),
        r_charges=tuple(spec.r_charges) + (0,) * s,
        d_w=spec.d_w,
        theta=tuple(F(-1) for _ in range(s)),
        potential=potential,
        assert_critical_proper=True,
        variables=names,
    )


def _light_insertions(etas) -> tuple:
    """The characters eta_j and one light insertion t_j * eta_j per character."""
    etas = tuple(etas)
    return etas, tuple(single_character_insertion(f"t{j + 1}", j, len(etas)) for j in range(len(etas)))


def fjrw_insertions(spec: FjrwSpec):
    """The single light insertion t * (character of weight -r_1 on p_1)."""
    s = len(spec.group_data)
    return _light_insertions([tuple(-spec.group_data[0][0] if j == 0 else 0 for j in range(s))])


def fjrw_direct_series(spec: FjrwSpec, q_bound, t_order: int = 0) -> GradedSeries:
    """The displayed affine-phase series, coded literally.

    Sums over generator exponents (d_1 >= 1, d_j >= 0) whose rotation numbers
    a_i = sum_j c_{ij} d_j / r_j are all non-integral, with coefficient
    e^{t d_1} prod_i prod_{0 < nu <= a_i} z(-a_i + nu)
    / (z^{d_1-1} (d_1-1)! prod_{j>=2} z^{d_j} d_j!)
    on the unit class of the matching sector.

    The rotation numbers are integer numerators over L = lcm of the orders,
    so "no integral rotation" is decided without a Fraction; the
    coefficient of a kept tuple is one Fraction, numerator over denominator.
    """
    q_bound = F(q_bound)
    model = fjrw_build(spec)
    orders = [order for order, _ in spec.group_data]
    series = empty_series(model, "glsm", *fjrw_insertions(spec), q_bound, t_order)
    scale = lcm(*orders)  # sum_j d_j / r_j <= q_bound, times L = lcm of the orders
    steps = [scale // r for r in orders]
    found = []  # (generator exponents, engine degree, rotation numerators over L)
    for tup in nonneg_vectors(steps, floor(q_bound * scale)):
        if tup[0] == 0:
            continue
        rotations = [
            sum([action[i] * dj * step for (_o, action), dj, step in zip(spec.group_data, tup, steps)])
            for i in range(spec.n)
        ]
        if all(a % scale for a in rotations):
            found.append((tup, tuple(F(-dj, r) for dj, r in zip(tup, orders)), rotations))
    for (tup, d_eng, rotations), ring in zip(found, sector_rings(model, [d for _, d, _ in found])):
        num = den = 1
        zshift = 0
        for a in rotations:  # prod_{0 < nu <= a/L} (nu - a/L) = prod (nu L - a) / L
            for nu in range(1, a // scale + 1):
                num *= nu * scale - a
                den *= scale
                zshift += 1
        d1 = tup[0]
        den *= factorial(d1 - 1)
        zshift -= d1 - 1
        for dj in tup[1:]:
            den *= factorial(dj)
            zshift -= dj
        for m_exp in range(t_order + 1):
            value = LaurentZ.from_dict(ring, {zshift: ring.one().scale(F(num * d1**m_exp, den * factorial(m_exp)))})
            if not value.is_zero():
                series.terms[(d_eng, (m_exp,))] = value
    return series


def _check_direct(engine: GradedSeries, direct: GradedSeries) -> None:
    """Refuse a direct series whose model, etas, insertions or truncation differ from the engine series'.

    The comparison cuts both sides to their common region, so a direct
    series of a smaller region would otherwise be compared on that region
    alone and read equal.
    """
    for field in ("model", "etas", "insertions", "q_bound", "t_order"):
        if getattr(direct, field) != getattr(engine, field):
            raise ValueError(f"the direct series' {field} differs from the engine series'")


def _family_report(family: str, engine: GradedSeries, direct: GradedSeries, diff: list[dict]) -> dict:
    """The affine and hybrid cross-check report: the distinct (degree, t_exponent) positions of the diff, in order."""
    positions = []
    for record in diff:
        position = {"degree": record["degree"], "t_exponent": record["t_exponent"]}
        if not positions or positions[-1] != position:
            positions.append(position)
    return {
        "family": family,
        "degrees_compared": len({d for d, _alpha in engine.terms} | {d for d, _alpha in direct.terms}),
        "diff": positions,
        "equal": not positions,
    }


def fjrw_crosscheck(spec: FjrwSpec, q_bound, t_order: int = 0, *, direct: GradedSeries | None = None) -> dict:
    """Exact cross-multiplied comparison of the engine series vs the display.

    The two series are derivative I-functions along different characters, so
    each side is multiplied by the other's degree factor:
    engine_term * (<d, eta_p1> z) == direct_term * prod_{c_i != 0}
    (class(rho_i) + <d, rho_i> z).

    `direct` is the display side, `fjrw_direct_series(spec, q_bound,
    t_order)`, for a caller that has already computed it; when omitted it is
    computed here.  A `direct` of another model, etas, insertions or
    truncation is refused with ValueError.
    """
    model = fjrw_build(spec)
    etas, insertions = fjrw_insertions(spec)
    engine = glsm_i_function(model, etas, insertions, q_bound, t_order)
    if direct is None:
        direct = fjrw_direct_series(spec, q_bound, t_order)
    _check_direct(engine, direct)
    charged = [model.column(i) for i in model.r_charged_indices()]
    diff = series_compare(times_characters(engine, lambda _d: etas), times_characters(direct, lambda _d: charged))
    return _family_report("fjrw", engine, direct, diff)


# --------------------------------------------------------------------------
# hybrid phases
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class HybridSpec:
    """Rank-one negative phase over a weighted projective stack."""

    kind = "hybrid"
    x_weights: tuple[int, ...]
    p_weights: tuple[int, ...]
    sections: tuple[str, ...] | None = None

    def __post_init__(self):
        if any(w < 1 for w in self.x_weights) or any(d < 1 for d in self.p_weights):
            raise InputError("all hybrid weights must be positive")
        if self.sections is not None and len(self.sections) != len(self.p_weights):
            raise InputError("dimension mismatch: one section per p-coordinate")


def hybrid_build(spec: HybridSpec) -> GLSMModel:
    """The theta < 0 phase of the rank-one sections model with x-weights w_i and section degrees d_j."""
    return ci_build(
        CiSpec(
            ambient_r=len(spec.x_weights),
            k=1,
            ambient_weights=(spec.x_weights,),
            theta=(F(-1),),
            taus=tuple((d,) for d in spec.p_weights),
            sections=spec.sections,
        )
    )


def hybrid_insertions(spec: HybridSpec):
    """One light insertion t_j * (character of weight -d_j) per p-coordinate."""
    return _light_insertions((-d,) for d in spec.p_weights)


def _prefix_product(runs: dict, key, n: int, factor) -> LaurentZ:
    """Entry n of the run under `key`: factor(0) * ... * factor(n - 1), for n >= 1.

    A run is the list of prefix products of one literal factor sequence,
    kept for the whole series; the first time a degree reads past its end
    it is extended by one product per new factor.
    """
    run = runs.setdefault(key, [])
    while len(run) < n:
        run.append(factor(0) if not run else run[-1].mul(factor(len(run))))
    return run[n - 1]


def _power(value: LaurentZ, n: int) -> LaurentZ:
    """value^n for n >= 1 by repeated squaring: value^5 is value^2, value^4 and value^4 * value."""
    out = None
    while True:
        if n & 1:
            out = value if out is None else out.mul(value)
        n >>= 1
        if not n:
            return out
        value = value.mul(value)


def _product(ring, parts: list[LaurentZ]) -> LaurentZ:
    """The product of `parts` taken in order, one product per part after the first; 1 when empty."""
    value = LaurentZ.one(ring) if not parts else parts[0]
    for part in parts[1:]:
        value = value.mul(part)
    return value


def _insertion_exponential(series: GradedSeries, d: Degree, base: LaurentZ) -> dict[tuple[int, ...], LaurentZ]:
    """alpha -> base * prod_j (z^-1 p_j(eta + <d, eta> z))^alpha_j / alpha_j! for the series' insertions.

    Each character eta_s is evaluated as class(eta_s) + <d, eta_s> z in bare
    Laurent arithmetic; each monomial of p_j starts at its first character's
    factor and is scaled only by a coefficient other than 1.  The term of
    every t-exponent up to the series' t_order is one product that starts at
    `base`, the degree's hypergeometric factor, and takes the powers one
    factor at a time, in `base`'s sector ring; 1/alpha_j! is applied only
    when alpha_j > 1.
    """
    ring = base.ring
    evals = [linear_z_factor(ring, class_from_character(ring, eta), pairing(d, eta)) for eta in series.etas]
    shifted = []
    for ins in series.insertions:
        acc = None
        for mono, coeff in ins.poly:
            term = _product(ring, [evals[pos] for pos, e in enumerate(mono) for _ in range(e)])
            term = term if coeff == 1 else term.scale(coeff)
            acc = term if acc is None else acc.add(term)
        shifted.append(LaurentZ(ring, ()) if acc is None else acc.shift(-1))
    out = {}
    for alpha in t_exponents(len(shifted), series.t_order):
        factor = base
        for j, e in enumerate(alpha):
            for _ in range(e):
                factor = factor.mul(shifted[j])
            if e > 1:
                factor = factor.scale(F(1, factorial(e)))
        out[alpha] = factor
    return out


def hybrid_direct_series(spec: HybridSpec, q_bound, t_order: int = 0) -> GradedSeries:
    """The displayed hybrid series, coded literally.

    Sums q^{k/d} (d = lcm of the p-weights) over k >= 0 with exponential
    factors prod_j e^{t_j (d_j H / z + d_j k / d)} and the stated nu-ranges;
    H is the hyperplane class of the weighted projective base.  Each weight's
    factors (-w H + (nu - x) z) or (d_j H + (x - nu) z)^-1 form a run keyed
    on (sector ring, character, x mod 1), in order of increasing |x - nu|;
    a degree reads one entry per weight, so coordinates of equal weight
    share it, raised to their count by `_power`.
    """
    q_bound = F(q_bound)
    model = hybrid_build(spec)
    d_lcm = lcm(*spec.p_weights)
    series = empty_series(model, "glsm", *hybrid_insertions(spec), q_bound, t_order)
    degrees: list[Degree] = [(F(-k, d_lcm),) for k in range(floor(q_bound * d_lcm) + 1)]
    runs: dict = {}  # (sector ring, character, x mod 1) -> prefix products of the run's factors
    for k, (d_eng, ring) in enumerate(zip(degrees, sector_rings(model, degrees))):
        h = class_from_character(ring, (-1,))
        parts = []
        for w, count in Counter(spec.x_weights).items():
            x = F(w * k, d_lcm)
            if floor(x) > 0:  # a = nu - x for nu = floor(x), ..., 1
                entry = _prefix_product(
                    runs, (ring, w, x % 1), floor(x),
                    lambda j: linear_z_factor(ring, h.scale(F(-w)), floor(x) - x - j),
                )
                parts.append(_power(entry, count))
        for dj, count in Counter(spec.p_weights).items():
            x = F(dj * k, d_lcm)
            if ceil(x) > 1:  # a = x - nu for nu = ceil(x) - 1, ..., 1
                entry = _prefix_product(
                    runs, (ring, -dj, x % 1), ceil(x) - 1,
                    lambda j: invert_linear_z_factor(ring, h.scale(F(dj)), x - ceil(x) + 1 + j),
                )
                parts.append(_power(entry, count))
        hyper = _product(ring, parts)
        if hyper.is_zero():
            continue
        for alpha, value in _insertion_exponential(series, d_eng, hyper).items():
            if not value.is_zero():
                series.terms[(d_eng, alpha)] = value
    return series


def hybrid_crosscheck(spec: HybridSpec, q_bound, t_order: int = 0, *, direct: GradedSeries | None = None) -> dict:
    """Engine vs display; the degree-zero display omits the endpoint classes.

    At k = 0 the engine carries the extra factor prod_j class(rho_{p_j}), so
    the comparison multiplies the direct side by the endpoint classes of the
    coordinates with <d, rho> = 0 (an empty product for every k >= 1).

    `direct` is the display side, `hybrid_direct_series(spec, q_bound,
    t_order)`, for a caller that has already computed it; when omitted it is
    computed here.  A `direct` of another model, etas, insertions or
    truncation is refused with ValueError.
    """
    model = hybrid_build(spec)
    etas, insertions = hybrid_insertions(spec)
    engine = glsm_i_function(model, etas, insertions, q_bound, t_order)
    if direct is None:
        direct = hybrid_direct_series(spec, q_bound, t_order)
    _check_direct(engine, direct)
    charged = [model.column(i) for i in model.r_charged_indices()]
    endpoints = times_characters(direct, lambda d: [rho for rho in charged if pairing(d, rho) == 0])
    return _family_report("hybrid", engine, direct, series_compare(engine, endpoints))


# --------------------------------------------------------------------------
# complete intersections
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CiSpec:
    """Ambient toric data plus the section characters of the intersection."""

    kind = "ci"
    ambient_r: int
    k: int
    ambient_weights: tuple[tuple[int, ...], ...]
    theta: tuple[Fraction, ...]
    taus: tuple[tuple[int, ...], ...]
    sections: tuple[str, ...] | None = None
    semipositive_asserted: bool = False
    pairing_nondegenerate_asserted: bool = False

    def __post_init__(self):
        if len(self.ambient_weights) != self.k or any(len(row) != self.ambient_r for row in self.ambient_weights):
            raise InputError("dimension mismatch: ambient weights must be k x r")
        if len(self.theta) != self.k:
            raise InputError("dimension mismatch: theta must have length k")
        for tau in self.taus:
            if len(tau) != self.k:
                raise InputError("dimension mismatch: each tau is a length-k character")
        if self.sections is not None and len(self.sections) != len(self.taus):
            raise InputError("dimension mismatch: one section per tau")


def ci_build(spec: CiSpec) -> GLSMModel:
    """The sections model: ambient coordinates x_i, one p_j of character -tau_j per section, W = sum_j p_j s_j(x)."""
    n = len(spec.taus)
    weights = tuple(
        tuple(spec.ambient_weights[a]) + tuple(-tau[a] for tau in spec.taus) for a in range(spec.k)
    )
    names = tuple(f"x{i + 1}" for i in range(spec.ambient_r)) + tuple(f"p{j + 1}" for j in range(n))
    potential = None
    if spec.sections is not None:
        full: dict[tuple[int, ...], Fraction] = {}
        for j, section in enumerate(spec.sections):
            for exps, coeff in parse_monomial_expression(section, names[: spec.ambient_r]).items():
                key = tuple(exps) + tuple(1 if jj == j else 0 for jj in range(n))
                full[key] = full.get(key, F(0)) + coeff
        potential = PotentialPolynomial.from_dict(full)
    return GLSMModel(
        r=spec.ambient_r + n,
        k=spec.k,
        weights=weights,
        r_charges=(0,) * spec.ambient_r + (1,) * n,
        d_w=1,
        theta=tuple(spec.theta),
        potential=potential,
        assert_critical_proper=True,
        variables=names,
    )


def ci_ambient_series(spec: CiSpec, q_bound, t_order: int = 0, etas=(), insertions=()) -> GradedSeries:
    """The ambient-times-section-factor series the twisted engine output must match.

    Per degree: the plain ambient factor over the x-coordinates times
    prod_j prod_{0 <= nu < <d,tau_j>} (class(tau_j) + (<d,tau_j> - nu) z),
    assembled in the inertia rings shared with the built model, times the
    exponential insertion factor prod_j (z^{-1} p_j(eta + <d, eta> z))^{alpha_j} / alpha_j!
    for each t-exponent alpha.

    The literal factors (class(rho) + a z), or their inverses, form runs:
    one per (sector ring, character, sign of x, x mod 1), the list of prefix
    products of its factors in order of increasing |a|, kept for the whole
    series.  A run is extended by one `linear_z_factor` or
    `invert_linear_z_factor` product the first time a degree needs a new
    a-value, so each factor is formed and multiplied once per series.  A
    degree's value is the product of its coordinates' run entries and its
    section runs' entries.  Coordinates with equal columns read one entry,
    raised to their count by repeated squaring (`_power`): on P^4[5] that
    is 3 products per degree instead of 4.
    """
    model = ci_build(spec)
    series = empty_series(model, "ambient", etas, insertions, q_bound, t_order)
    degrees = effective_degrees(model, series.q_bound)
    columns = Counter(model.column(i) for i in range(spec.ambient_r))
    runs: dict = {}  # (sector ring, column, sign of x, x mod 1) -> prefix products of the run's factors
    section_runs: dict = {}  # (sector ring, tau, x mod 1) -> the same, for the section factors
    for d, ring in zip(degrees, sector_rings(model, degrees)):
        parts = []
        for col, count in columns.items():
            x = pairing(d, col)
            if ceil(x) < 0:  # a = x - nu for nu = ceil(x), ..., -1
                entry = _prefix_product(
                    runs, (ring, col, -1, x % 1), -ceil(x),
                    lambda j: linear_z_factor(ring, class_from_character(ring, col), x - ceil(x) - j),
                )
            elif x > 0:  # a = x - nu for nu = ceil(x) - 1, ..., 0
                entry = _prefix_product(
                    runs, (ring, col, 1, x % 1), ceil(x),
                    lambda j: invert_linear_z_factor(ring, class_from_character(ring, col), x - ceil(x) + 1 + j),
                )
            else:
                continue
            parts.append(_power(entry, count))
        for tau in spec.taus:
            x = pairing(d, tau)
            if x > 0:  # a = x - nu for nu = ceil(x) - 1, ..., 0
                parts.append(_prefix_product(
                    section_runs, (ring, tau, x % 1), ceil(x),
                    lambda j: linear_z_factor(ring, class_from_character(ring, tau), x - ceil(x) + 1 + j),
                ))
        value = _product(ring, parts)
        if value.is_zero():
            continue
        for alpha, term in _insertion_exponential(series, d, value).items():
            if not term.is_zero():
                series.terms[(d, alpha)] = term
    return series


def ci_compare(
    spec: CiSpec, q_bound, t_order: int = 0, etas=(), insertions=(), *, direct: GradedSeries | None = None
) -> dict:
    """Verify the sign-twisted comparison chain at the ambient level.

    Chain: engine series -> per-sector half-turn age phase -> Novikov twist
    by the section characters; compared against ci_ambient_series
    multiplied by the sector Euler classes prod_{age 0} (-class(tau_j)).
    Divisibility of every engine term by those Euler classes is checked and
    raises an engine-bug error on failure.

    `direct` is the right-hand side, `ci_ambient_series(spec, q_bound,
    t_order, etas, insertions)`, for a caller that has already computed it;
    when omitted it is computed here.  A `direct` of another model, etas,
    insertions or truncation is refused with ValueError.
    """
    model = ci_build(spec)
    engine = glsm_i_function(model, etas, insertions, q_bound, t_order)
    eulers: dict = {}  # sector ring -> (its Euler classes, membership test of their product's ideal, age phase)

    def euler_data(ring):
        data = eulers.get(ring)
        if data is None:
            ages = [age(ring.sector, tau) for tau in spec.taus]
            factors = [class_from_character(ring, tau) for tau, a in zip(spec.taus, ages) if a == 0]
            contains = ideal_membership(ring, factors) if factors else None
            data = eulers[ring] = (factors, contains, half_turn(sum(ages, F(0))))
        return data

    def checked_phase(d, _alpha, value):
        _factors, contains, phase = euler_data(value.ring)
        if contains and not all(contains(cls) for _z, cls in value.coeffs):
            raise InternalError(
                "engine term not divisible by its sector Euler factor at degree "
                + str([format_rational(x) for x in d])
            )
        return value.scale(phase)

    def with_euler_classes(_d, _alpha, value):
        for cls in euler_data(value.ring)[0]:
            value = value.scale_class(cls.scale(F(-1)))
        return value

    normalized = twist_novikov(engine.map_terms(checked_phase), list(spec.taus))
    if direct is None:
        direct = ci_ambient_series(spec, q_bound, t_order, etas, insertions)
    _check_direct(engine, direct)
    diff = series_compare(normalized, direct.map_terms(with_euler_classes))
    return {
        "family": "ci",
        "diff": diff,
        "equal": not diff,
        "assumptions": {
            "semipositive_asserted": spec.semipositive_asserted,
            "ambient_pairing_nondegenerate_asserted": spec.pairing_nondegenerate_asserted,
        },
        "euler_divisibility": "checked",
        "level": "ambient (before restriction to the intersection)",
    }


# --------------------------------------------------------------------------
# JSON sub-schemas
# --------------------------------------------------------------------------


def specialization_from_dict(data: dict):
    """Parse the "specialize" sub-object of a model file; InputError names a malformed field."""
    if not isinstance(data, dict) or "kind" not in data:
        raise InputError('"specialize" must be an object with a "kind"')
    kind = data["kind"]

    def get(key):
        return json_field(data, key, '"specialize"')

    if kind == "fjrw":
        potential = data.get("potential")
        if potential is not None and not isinstance(potential, str):
            raise InputError("potential must be a string or null")
        return FjrwSpec(
            n=json_int(get("n"), "n"),
            d_w=json_int(get("d_w"), "d_w"),
            r_charges=json_ints(get("r_charges"), "r_charges"),
            group_data=tuple(
                (json_int(json_field(g, "order", "group entry"), "group order"),
                 json_ints(json_field(g, "action", "group entry"), "group action"))
                for g in json_list(get("group"), "group")
            ),
            potential=potential,
        )
    if kind == "hybrid":
        return HybridSpec(
            x_weights=json_ints(get("x_weights"), "x_weights"),
            p_weights=json_ints(get("p_weights"), "p_weights"),
            sections=json_names(data.get("sections"), "sections"),
        )
    if kind == "ci":
        amb = get("ambient")
        return CiSpec(
            ambient_r=json_int(json_field(amb, "r", "ambient"), "ambient r"),
            k=json_int(json_field(amb, "k", "ambient"), "ambient k"),
            ambient_weights=json_int_rows(json_field(amb, "weights", "ambient"), "ambient weights"),
            theta=json_rationals(json_field(amb, "theta", "ambient"), "ambient theta"),
            taus=json_int_rows(get("taus"), "taus"),
            sections=json_names(data.get("sections"), "sections"),
            semipositive_asserted=json_bool(data, "semipositive_asserted"),
            pairing_nondegenerate_asserted=json_bool(data, "pairing_nondegenerate_asserted"),
        )
    raise InputError(f"unknown specialization kind {kind!r}")


def specialization_from_model_file(text: str):
    data = load_json(text, "model")
    if not isinstance(data, dict) or "specialize" not in data:
        raise InputError('model file has no "specialize" section')
    return specialization_from_dict(data["specialize"])
