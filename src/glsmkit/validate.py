"""Axiom checks for a torus GLSM and the aggregate validation report.

Everything here is exact: congruences through Smith normal form, cone
membership through the exact linear solves of the semistable-support search,
and invariant-monomial triviality through rational LP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .lattice import (
    congruence_kernel,
    invariant_factors,
    rational_rank,
    solve_congruences,
    transpose,
)
from .model import GLSMModel
from .rationallp import positive_functional, scale_to_integers
from .scalars import format_rational, frac_mod1
from .sectors import BudgetExceededError, semistable_supports


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    skipped: bool = False
    warning: bool = False


@dataclass
class ValidationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str, skipped: bool = False, warning: bool = False):
        self.checks.append(CheckResult(name, passed, detail, skipped, warning))

    def to_dict(self) -> dict:
        return {
            "overall": "pass" if self.overall else "fail",
            "checks": [
                {
                    "name": c.name,
                    "status": "skip" if c.skipped else ("pass" if c.passed else "fail"),
                    "warning": c.warning,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


def j_membership(m: GLSMModel) -> tuple[bool, tuple[Fraction, ...] | None, int]:
    """Does the grading element J = diag(e^(2*pi*i*c_i/d_w)) lie in the torus?

    Returns (is_member, witness lambda in [0,1)^k or None, order of J).
    The congruence system <rho_i, lambda> = c_i/d_w (mod 1) is solved exactly
    through the Smith normal form of the transposed weight matrix.
    """
    mat = transpose([list(row) for row in m.weights])  # r x k
    rhs = [Fraction(c, m.d_w) for c in m.r_charges]
    witness = solve_congruences(mat, rhs)
    order = lcm(*[frac_mod1(x).denominator for x in rhs]) if rhs else 1
    if witness is None:
        return False, None, order
    return True, tuple(witness), order


def r_torus_intersection_order(m: GLSMModel) -> int | None:
    """Order of the intersection of the torus with the R-charge torus.

    The intersection is the set of matrices diag(t^{c_i}) realizable inside
    the weight torus.  It is positive-dimensional exactly when the R-charge
    vector is nonzero and lies in the rational row span of the weight matrix
    (then the whole R-torus image sits inside the other torus); in that case
    None is returned.  Otherwise the realizable R-parameters form a subgroup
    P of Q/Z computed from the congruence kernel of (s, lambda) pairs, and
    the matrix-group order is [P : K] where K = (1/gcd(c_i)) Z/Z is the
    kernel of s -> diag(e^(2 pi i s c_i)).
    """
    if all(c == 0 for c in m.r_charges):
        return 1
    rows = [list(row) for row in m.weights]
    if rational_rank(rows + [list(m.r_charges)]) == rational_rank(rows):
        return None
    aug = [[m.r_charges[i]] + [-m.weights[a][i] for a in range(m.k)] for i in range(m.r)]
    if rational_rank(aug) < m.k + 1:
        # only possible for a rank-deficient (non-faithful) weight matrix
        return None
    elements = congruence_kernel(aug)
    param_index = 1
    for el in elements:
        param_index = lcm(param_index, el[0].denominator)
    g = 0
    for c in m.r_charges:
        g = gcd(g, c)
    return param_index // g


def potential_check(m: GLSMModel) -> ValidationReport:
    """Per-monomial invariance (Q*a = 0) and R-homogeneity (c*a = d_w)."""
    report = ValidationReport()
    if m.potential is None:
        report.add("potential", True, "skipped: no potential supplied", skipped=True)
        return report
    names = m.var_names()
    ok = True
    for exps, coeff in m.potential.terms:
        mono = "*".join(f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(exps) if e)
        qa = [sum(m.weights[a][i] * exps[i] for i in range(m.r)) for a in range(m.k)]
        if any(v != 0 for v in qa):
            report.add("potential_invariance", False, f"monomial {mono or '1'}: torus degree {qa} != 0")
            ok = False
        ca = sum(m.r_charges[i] * exps[i] for i in range(m.r))
        if ca != m.d_w:
            report.add("potential_r_homogeneity", False, f"monomial {mono or '1'}: R-degree {ca} != d_w = {m.d_w}")
            ok = False
    if ok:
        report.add("potential", True, f"all {len(m.potential.terms)} monomials invariant and R-homogeneous of degree {m.d_w}")
    return report


def no_strict_semistable(m: GLSMModel) -> bool:
    """Genericity of theta: it lies in no cone spanned by < k weight columns.

    The empty cone holds only theta = 0; otherwise a cone of < k columns
    holding theta contains a minimal semistable support of size < k.  The
    support search runs first, so BudgetExceededError is raised even for theta = 0.
    """
    supports = semistable_supports(m)
    return any(m.theta) and all(len(s) == m.k for s in supports)


@dataclass
class InvariantsResult:
    trivial: bool
    witness: tuple[Fraction, ...] | None  # functional certifying triviality
    certificate: tuple[int, ...] | None  # nonzero invariant exponent vector (full length r)

    def __bool__(self) -> bool:
        return self.trivial


def invariants_trivial(m: GLSMModel, keep, include_r_charge: bool = False) -> InvariantsResult:
    """Is the only torus-invariant monomial supported on `keep` the constant?

    Gordan duality: trivial iff some rational functional is >= 1 on every
    kept column (of the weight matrix, plus the R-charge row if requested).
    The negative case converts the dual certificate into a nonzero
    nonnegative integer exponent vector.
    """
    keep = sorted(set(keep))
    if not keep:
        return InvariantsResult(True, (), None)
    cols = []
    for i in keep:
        col = list(m.column(i))
        if include_r_charge:
            col.append(m.r_charges[i])
        cols.append(col)
    witness, cert = positive_functional(cols)
    if witness is not None:
        return InvariantsResult(True, tuple(witness), None)
    ints = scale_to_integers(list(cert))
    full = [0] * m.r
    for i, v in zip(keep, ints):
        full[i] = v
    return InvariantsResult(False, None, tuple(full))


def faithfulness_check(m: GLSMModel) -> tuple[bool, str]:
    """Torus embeds in GL(V) iff the transposed weight matrix has all
    invariant factors 1 (and full rank k)."""
    mat = transpose([list(row) for row in m.weights])
    factors = invariant_factors(mat)
    if len(factors) < m.k:
        return False, f"weight matrix has rank {len(factors)} < k = {m.k}"
    if any(f != 1 for f in factors):
        return False, f"invariant factors {factors} are not all 1"
    return True, "invariant factors all 1"


def validate_model(m: GLSMModel) -> ValidationReport:
    """Aggregate report over every algorithmically checkable axiom.

    Records all failures (no fail-fast).  Warning-level findings are stored
    as passing checks with a warning flag, so they never flip the overall
    verdict.
    """
    report = ValidationReport()

    report.add("d_w_positive", m.d_w > 0, f"d_w = {m.d_w}")
    report.add(
        "theta_nonzero",
        any(t != 0 for t in m.theta),
        "theta = (" + ", ".join(format_rational(t) for t in m.theta) + ")",
    )

    bad = [i for i in range(m.r) if not 0 <= m.r_charges[i] <= m.d_w]
    report.add(
        "r_charge_bounds",
        not bad,
        "0 <= c_i <= d_w for all i" if not bad else f"violated at coordinates {[i + 1 for i in bad]}",
    )

    ok, detail = faithfulness_check(m)
    report.add("faithfulness", ok, detail)

    member, witness, order = j_membership(m)
    if member:
        report.add(
            "j_membership",
            True,
            "J in torus, witness lambda = ("
            + ", ".join(format_rational(x) for x in witness)
            + f"), order of J = {order}",
        )
    else:
        report.add("j_membership", False, "no rational lambda solves <rho_i, lambda> = c_i/d_w (mod 1)")

    if ok:
        inter = r_torus_intersection_order(m)
        if inter is None:
            report.add(
                "r_torus_intersection",
                True,
                "warning: intersection with the R-charge torus is positive-dimensional",
                warning=True,
            )
        elif inter != m.d_w:
            report.add(
                "r_torus_intersection",
                True,
                f"warning: intersection with the R-charge torus has order {inter}, expected d_w = {m.d_w}",
                warning=True,
            )
        else:
            report.add("r_torus_intersection", True, f"intersection is cyclic of order d_w = {m.d_w}")

    try:
        generic = no_strict_semistable(m)
        report.add(
            "no_strict_semistable",
            generic,
            "theta avoids all cones of rank < k" if generic else "theta lies in a cone spanned by a rank-deficient column subset",
        )
    except BudgetExceededError as e:
        report.add("no_strict_semistable", False, str(e))

    for check in potential_check(m).checks:
        report.checks.append(check)

    report.add(
        "critical_locus_proper",
        True,
        "asserted by model file" if m.assert_critical_proper else "warning: not asserted (not checked by the tool)",
        skipped=not m.assert_critical_proper,
        warning=not m.assert_critical_proper,
    )
    return report
