"""Model builders and independent direct series for the three special families:
affine phases of a quasihomogeneous singularity, hybrid phases over a weighted
projective stack, and the complete-intersection phase with its sign-twisted
comparison against the ambient hypersurface series.

The direct series code the displayed closed formulas with bare Laurent
arithmetic (no reuse of the engine's factor routines), so the cross-checks
exercise two genuinely independent paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, factorial, floor, lcm

from .lattice import nonneg_vectors
from .model import GLSMModel, InputError, InternalError, PotentialPolynomial, parse_monomial_expression
from .rings import class_from_character, ideal_membership
from .scalars import format_rational, half_turn, parse_rational
from .sectors import Degree, age, effective_degrees, pairing
from .series import (
    GradedSeries,
    LaurentZ,
    glsm_i_function,
    invert_linear_z_factor,
    linear_z_factor,
    sector_rings,
    series_compare,
    single_character_insertion,
    t_exponents,
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


def fjrw_insertions(spec: FjrwSpec):
    """The single light insertion t * (character of weight -r_1 on p_1)."""
    s = len(spec.group_data)
    eta = tuple(-spec.group_data[0][0] if j == 0 else 0 for j in range(s))
    return (eta,), (single_character_insertion("t1", 0, 1),)


def fjrw_direct_series(spec: FjrwSpec, q_bound, t_order: int = 0) -> GradedSeries:
    """The displayed affine-phase series, coded literally.

    Sums over generator exponents (d_1 >= 1, d_j >= 0) whose rotation numbers
    a_i = sum_j c_{ij} d_j / r_j are all non-integral, with coefficient
    e^{t d_1} prod_i prod_{0 < nu <= a_i} z(-a_i + nu)
    / (z^{d_1-1} (d_1-1)! prod_{j>=2} z^{d_j} d_j!)
    on the unit class of the matching sector.
    """
    q_bound = F(q_bound)
    model = fjrw_build(spec)
    etas, insertions = fjrw_insertions(spec)
    orders = [order for order, _ in spec.group_data]
    series = GradedSeries(
        model=model,
        state="glsm",
        etas=etas,
        insertions=insertions,
        q_bound=q_bound,
        t_order=t_order,
        terms={},
    )
    scale = lcm(*orders)  # sum_j d_j / r_j <= q_bound, times L = lcm of the orders
    found = []  # (generator exponents, engine degree, rotation numbers)
    for tup in nonneg_vectors([scale // r for r in orders], floor(q_bound * scale)):
        if tup[0] == 0:
            continue
        rotations = [
            sum(F(action[i] * tup[j], orders[j]) for j, (_o, action) in enumerate(spec.group_data))
            for i in range(spec.n)
        ]
        if not any(a.denominator == 1 for a in rotations):
            found.append((tup, tuple(F(-tup[j], orders[j]) for j in range(len(orders))), rotations))
    for (tup, d_eng, rotations), ring in zip(found, sector_rings(model, [d for _, d, _ in found])):
        coeff = F(1)
        zshift = 0
        for a in rotations:
            for nu in range(1, floor(a) + 1):
                coeff *= -a + nu
                zshift += 1
        d1 = tup[0]
        coeff /= F(factorial(d1 - 1))
        zshift -= d1 - 1
        for dj in tup[1:]:
            coeff /= F(factorial(dj))
            zshift -= dj
        base = LaurentZ.from_dict(ring, {zshift: ring.one().scale(coeff)})
        for m_exp in range(t_order + 1):
            value = base.scale(F(d1**m_exp, factorial(m_exp)))
            if not value.is_zero():
                series.terms[(d_eng, (m_exp,))] = value
    return series


def _diff_positions(diff: list[dict]) -> list[dict]:
    """The distinct (degree, t_exponent) positions of series_compare records, in order."""
    positions = []
    for record in diff:
        position = {"degree": record["degree"], "t_exponent": record["t_exponent"]}
        if not positions or positions[-1] != position:
            positions.append(position)
    return positions


def fjrw_crosscheck(spec: FjrwSpec, q_bound, t_order: int = 0) -> dict:
    """Exact cross-multiplied comparison of the engine series vs the display.

    The two series are derivative I-functions along different characters, so
    each side is multiplied by the other's degree factor:
    engine_term * (<d, eta_p1> z) == direct_term * prod_{c_i != 0}
    (class(rho_i) + <d, rho_i> z).
    """
    q_bound = F(q_bound)
    model = fjrw_build(spec)
    etas, insertions = fjrw_insertions(spec)
    engine = glsm_i_function(model, etas, insertions, q_bound, t_order)
    direct = fjrw_direct_series(spec, q_bound, t_order)
    charged = [model.column(i) for i in model.r_charged_indices()]

    def times(characters):
        def fn(d, _alpha, value):
            ring = value.ring
            for rho in characters:
                value = value.mul(linear_z_factor(ring, class_from_character(ring, rho), pairing(d, rho)))
            return value

        return fn

    diffs = _diff_positions(series_compare(engine.map_terms(times(etas)), direct.map_terms(times(charged))))
    return {
        "family": "fjrw",
        "degrees_compared": len({k[0] for k in set(engine.terms) | set(direct.terms)}),
        "diff": diffs,
        "equal": not diffs,
    }


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


def _sections_potential(sections, x_count: int) -> PotentialPolynomial | None:
    """The potential sum_j p_j * s_j(x) of sections over x1..x{x_count}, or None."""
    if sections is None:
        return None
    full: dict[tuple[int, ...], Fraction] = {}
    for j, section in enumerate(sections):
        terms = parse_monomial_expression(section, [f"x{i + 1}" for i in range(x_count)])
        for exps, coeff in terms.items():
            key = tuple(exps) + tuple(1 if jj == j else 0 for jj in range(len(sections)))
            full[key] = full.get(key, F(0)) + coeff
    return PotentialPolynomial.from_dict(full)


def hybrid_build(spec: HybridSpec) -> GLSMModel:
    m_count = len(spec.x_weights)
    n_count = len(spec.p_weights)
    names = tuple(f"x{i + 1}" for i in range(m_count)) + tuple(f"p{j + 1}" for j in range(n_count))
    return GLSMModel(
        r=m_count + n_count,
        k=1,
        weights=(tuple(spec.x_weights) + tuple(-d for d in spec.p_weights),),
        r_charges=(0,) * m_count + (1,) * n_count,
        d_w=1,
        theta=(F(-1),),
        potential=_sections_potential(spec.sections, m_count),
        assert_critical_proper=True,
        variables=names,
    )


def hybrid_insertions(spec: HybridSpec):
    etas = tuple((-d,) for d in spec.p_weights)
    insertions = tuple(
        single_character_insertion(f"t{j + 1}", j, len(spec.p_weights))
        for j in range(len(spec.p_weights))
    )
    return etas, insertions


def hybrid_direct_series(spec: HybridSpec, q_bound, t_order: int = 0) -> GradedSeries:
    """The displayed hybrid series, coded literally.

    Sums q^{k/d} (d = lcm of the p-weights) over k >= 0 with exponential
    factors prod_j e^{t_j (d_j H / z + d_j k / d)} and the stated nu-ranges;
    H is the hyperplane class of the weighted projective base.
    """
    q_bound = F(q_bound)
    model = hybrid_build(spec)
    etas, insertions = hybrid_insertions(spec)
    d_lcm = lcm(*spec.p_weights)
    series = GradedSeries(
        model=model,
        state="glsm",
        etas=etas,
        insertions=insertions,
        q_bound=q_bound,
        t_order=t_order,
        terms={},
    )
    degrees: list[Degree] = [(F(-k, d_lcm),) for k in range(floor(q_bound * d_lcm) + 1)]
    for k, (d_eng, ring) in enumerate(zip(degrees, sector_rings(model, degrees))):
        h = class_from_character(ring, (-1,))
        hyper = LaurentZ.one(ring)
        for w in spec.x_weights:
            x = F(w * k, d_lcm)
            for nu in range(1, floor(x) + 1):
                hyper = hyper.mul(
                    LaurentZ.from_dict(ring, {0: h.scale(F(-w)), 1: ring.one().scale(-x + nu)})
                )
        for dj in spec.p_weights:
            x = F(dj * k, d_lcm)
            for nu in range(1, ceil(x)):
                hyper = hyper.mul(invert_linear_z_factor(ring, h.scale(F(dj)), x - nu))
        if hyper.is_zero():
            continue
        exp_vals = []
        for dj in spec.p_weights:
            exp_vals.append(
                LaurentZ.from_dict(ring, {-1: h.scale(F(dj)), 0: ring.one().scale(F(dj * k, d_lcm))})
            )
        for alpha in t_exponents(len(spec.p_weights), t_order):
            factor = LaurentZ.one(ring)
            for j, e in enumerate(alpha):
                for _ in range(e):
                    factor = factor.mul(exp_vals[j])
                factor = factor.scale(F(1, factorial(e)))
            value = factor.mul(hyper)
            if not value.is_zero():
                series.terms[(d_eng, alpha)] = value
    return series


def hybrid_crosscheck(spec: HybridSpec, q_bound, t_order: int = 0) -> dict:
    """Engine vs display; the degree-zero display omits the endpoint classes.

    At k = 0 the engine carries the extra factor prod_j class(rho_{p_j}), so
    the comparison multiplies the direct side by the endpoint classes of the
    coordinates with <d, rho> = 0 (an empty product for every k >= 1).
    """
    q_bound = F(q_bound)
    model = hybrid_build(spec)
    etas, insertions = hybrid_insertions(spec)
    engine = glsm_i_function(model, etas, insertions, q_bound, t_order)
    direct = hybrid_direct_series(spec, q_bound, t_order)
    charged = [model.column(i) for i in model.r_charged_indices()]

    def with_endpoints(d, _alpha, value):
        for rho in charged:
            if pairing(d, rho) == 0:
                value = value.scale_class(class_from_character(value.ring, rho))
        return value

    diffs = _diff_positions(series_compare(engine, direct.map_terms(with_endpoints)))
    return {
        "family": "hybrid",
        "degrees_compared": len({k[0] for k in set(engine.terms) | set(direct.terms)}),
        "diff": diffs,
        "equal": not diffs,
    }


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
        for tau in self.taus:
            if len(tau) != self.k:
                raise InputError("dimension mismatch: each tau is a length-k character")
        if self.sections is not None and len(self.sections) != len(self.taus):
            raise InputError("dimension mismatch: one section per tau")


def ci_build(spec: CiSpec) -> GLSMModel:
    n = len(spec.taus)
    weights = tuple(
        tuple(spec.ambient_weights[a]) + tuple(-tau[a] for tau in spec.taus) for a in range(spec.k)
    )
    names = tuple(f"x{i + 1}" for i in range(spec.ambient_r)) + tuple(f"p{j + 1}" for j in range(n))
    return GLSMModel(
        r=spec.ambient_r + n,
        k=spec.k,
        weights=weights,
        r_charges=(0,) * spec.ambient_r + (1,) * n,
        d_w=1,
        theta=tuple(spec.theta),
        potential=_sections_potential(spec.sections, spec.ambient_r),
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
    """
    q_bound = F(q_bound)
    model = ci_build(spec)
    series = GradedSeries(
        model=model,
        state="ambient",
        etas=tuple(tuple(e) for e in etas),
        insertions=tuple(insertions),
        q_bound=q_bound,
        t_order=t_order,
        terms={},
    )
    degrees = effective_degrees(model, q_bound)
    for d, ring in zip(degrees, sector_rings(model, degrees)):
        value = LaurentZ.one(ring)
        for i in range(spec.ambient_r):
            col = model.column(i)
            x = pairing(d, col)
            cls = class_from_character(ring, col)
            if x < 0:
                for nu in range(ceil(x), 0):
                    value = value.mul(linear_z_factor(ring, cls, x - nu))
            elif x > 0:
                for nu in range(ceil(x)):
                    value = value.mul(invert_linear_z_factor(ring, cls, x - nu))
        for tau in spec.taus:
            x = pairing(d, tau)
            cls = class_from_character(ring, tau)
            for nu in range(ceil(x)):
                value = value.mul(linear_z_factor(ring, cls, x - nu))
        if value.is_zero():
            continue
        evals = [
            LaurentZ.from_dict(ring, {0: class_from_character(ring, eta), 1: ring.one().scale(pairing(d, eta))})
            for eta in series.etas
        ]
        shifted = []
        for ins in series.insertions:
            acc = LaurentZ.from_dict(ring, {})
            for mono, coeff in ins.poly:
                term = LaurentZ.one(ring)
                for pos, e in enumerate(mono):
                    for _ in range(e):
                        term = term.mul(evals[pos])
                acc = acc.add(term.scale(coeff))
            shifted.append(acc.shift(-1))
        for alpha in t_exponents(len(shifted), t_order):
            term = value
            for j, e in enumerate(alpha):
                for _ in range(e):
                    term = term.mul(shifted[j])
                term = term.scale(F(1, factorial(e)))
            if not term.is_zero():
                series.terms[(d, alpha)] = term
    return series


def ci_compare(spec: CiSpec, q_bound, t_order: int = 0, etas=(), insertions=()) -> dict:
    """Verify the sign-twisted comparison chain at the ambient level.

    Chain: engine series -> per-sector half-turn age phase -> Novikov twist
    by the section characters; compared against ci_ambient_series
    multiplied by the sector Euler classes prod_{age 0} (-class(tau_j)).
    Divisibility of every engine term by those Euler classes is checked and
    raises an engine-bug error on failure.
    """
    model = ci_build(spec)
    engine = glsm_i_function(model, etas, insertions, q_bound, t_order)

    def euler_classes(ring):
        return [class_from_character(ring, tau) for tau in spec.taus if age(model, ring.sector, tau) == 0]

    def checked_phase(d, _alpha, value):
        g = value.ring.sector
        factors = euler_classes(value.ring)
        contains = ideal_membership(value.ring, factors) if factors else None
        if contains and not all(contains(cls) for _z, cls in value.coeffs):
            raise InternalError(
                "engine term not divisible by its sector Euler factor at degree "
                + str([format_rational(x) for x in d])
            )
        return value.scale(half_turn(sum((age(model, g, tau) for tau in spec.taus), F(0))))

    def with_euler_classes(d, _alpha, value):
        for cls in euler_classes(value.ring):
            value = value.scale_class(cls.scale(F(-1)))
        return value

    normalized = twist_novikov(engine.map_terms(checked_phase), list(spec.taus))
    rhs = ci_ambient_series(spec, q_bound, t_order, etas, insertions)
    diff = series_compare(normalized, rhs.map_terms(with_euler_classes))
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
    """Parse the "specialize" sub-object of a model file."""
    if not isinstance(data, dict) or "kind" not in data:
        raise InputError('"specialize" must be an object with a "kind"')
    kind = data["kind"]
    if kind == "fjrw":
        return FjrwSpec(
            n=int(data["n"]),
            d_w=int(data["d_w"]),
            r_charges=tuple(int(c) for c in data["r_charges"]),
            group_data=tuple((int(g["order"]), tuple(int(a) for a in g["action"])) for g in data["group"]),
            potential=data.get("potential"),
        )
    if kind == "hybrid":
        return HybridSpec(
            x_weights=tuple(int(w) for w in data["x_weights"]),
            p_weights=tuple(int(d) for d in data["p_weights"]),
            sections=tuple(data["sections"]) if data.get("sections") else None,
        )
    if kind == "ci":
        amb = data["ambient"]
        return CiSpec(
            ambient_r=int(amb["r"]),
            k=int(amb["k"]),
            ambient_weights=tuple(tuple(int(x) for x in row) for row in amb["weights"]),
            theta=tuple(parse_rational(t) if isinstance(t, str) else F(t) for t in amb["theta"]),
            taus=tuple(tuple(int(x) for x in tau) for tau in data["taus"]),
            sections=tuple(data["sections"]) if data.get("sections") else None,
            semipositive_asserted=bool(data.get("semipositive_asserted", False)),
            pairing_nondegenerate_asserted=bool(data.get("pairing_nondegenerate_asserted", False)),
        )
    raise InputError(f"unknown specialization kind {kind!r}")


def specialization_from_model_file(text: str):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"model JSON syntax error at line {e.lineno} column {e.colno}: {e.msg}") from None
    if "specialize" not in data:
        raise InputError('model file has no "specialize" section')
    return specialization_from_dict(data["specialize"])
