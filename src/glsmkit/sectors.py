"""GIT and lattice combinatorics: semistable supports, inertia sectors,
degree/sector correspondence, effective degrees, ages, and the monomial
support data presenting each sector's cohomology.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, gcd, lcm
from operator import mul

from .lattice import (
    common_denominator,
    congruence_kernel,
    fraction_free_rref,
    integer_inverse,
    integer_solve,
    nonneg_vectors,
)
from .model import GLSMModel, InternalError
from .rationallp import nonneg_combination
from .scalars import format_rational, frac_mod1


class BudgetExceededError(RuntimeError):
    """The support search would visit more column subsets than _SUPPORT_BUDGET; assert genericity manually."""


class DegenerateStabilityError(RuntimeError):
    """The effectivity region is unbounded / a sector family is infinite.

    Happens exactly when some semistable support is rank-deficient, i.e. the
    model fails the genericity axiom.
    """


Degree = tuple[Fraction, ...]


def pairing(d: Degree, xi) -> Fraction:
    """<d, xi> = sum_a d_a * xi_a for a character xi in Z^k (or Q^k).

    Summed as integer numerators over D * E, with D and E the lcm of the
    denominators of d and of xi, so one Fraction is formed.
    """
    dd, dn = common_denominator(d)
    de, en = common_denominator(xi)
    return Fraction(sum(map(mul, dn, en)), dd * de)


@dataclass(frozen=True, order=True)
class SectorLabel:
    """One inertia sector: canonical group parameter and its action vector."""

    lam: tuple[Fraction, ...]
    action: tuple[Fraction, ...]

    @property
    def fixed_support(self) -> frozenset[int]:
        return frozenset(i for i, a in enumerate(self.action) if a == 0)

    def is_identity(self) -> bool:
        return all(x == 0 for x in self.lam)


def sector_from_lambda(m: GLSMModel, lam) -> SectorLabel:
    # lam and the action <lam, rho_i> reduced mod 1 as integer numerators over one denominator
    den, nums = common_denominator(lam)
    nums = [x % den for x in nums]
    action = [sum([w * n for w, n in zip(col, nums)]) % den for col in zip(*m.weights)]
    return SectorLabel(tuple(Fraction(n, den) for n in nums), tuple(Fraction(a, den) for a in action))


def cone_contains(v, gens) -> bool:
    """Is v a nonnegative rational combination of gens?  Exact LP feasibility."""
    return nonneg_combination(list(gens), list(v)) is not None


_SUPPORT_TABLES = 8  # a job's chain asks about one model; spares cover callers alternating a few
_SUPPORT_BUDGET = 65536  # most column subsets (sizes 1..k) one support search may visit


@lru_cache(maxsize=_SUPPORT_TABLES)
def _support_table(m: GLSMModel) -> tuple[tuple[frozenset[int], tuple, tuple | None], ...]:
    """(support, lam, inverse) per minimal semistable support, sorted by support.

    All on integer numerators: lam = (den, nums) solves sum(lam_i * rho_i) =
    theta, and inverse = (den, rows) with rows / den the inverse of a
    full-rank support matrix, else None.  Each column subset is solved by
    fraction-free elimination against theta scaled to integers, and each
    found support is inverted by the same elimination, so no Fraction is
    formed here.
    """
    count = sum(comb(m.r, size) for size in range(1, m.k + 1))
    if count > _SUPPORT_BUDGET:
        raise BudgetExceededError(
            f"genericity check needs {count} subsets (budget {_SUPPORT_BUDGET}); assert genericity manually"
        )
    theta_den, theta = common_denominator(m.theta)
    found = []
    for size in range(1, m.k + 1):
        for subset in combinations(range(m.r), size):
            s = frozenset(subset)
            if any(prev <= s for prev, _ in found):
                continue
            lam = integer_solve([[row[i] for i in subset] for row in m.weights], theta)
            if lam is not None and all(x >= 0 for x in lam[1]):
                # lam = nums / (den * theta_den); den is already coprime to nums
                den, nums = lam
                g = gcd(theta_den, *nums)
                found.append((s, (den * theta_den // g, tuple(x // g for x in nums))))
    return tuple(
        (s, lam, integer_inverse(_support_matrix(m, s))) for s, lam in sorted(found, key=lambda entry: sorted(entry[0]))
    )


def semistable_supports(m: GLSMModel) -> list[frozenset[int]]:
    """All inclusion-minimal coordinate sets whose cone contains theta.

    Minimal supports are linearly independent (Caratheodory), so subsets of
    size <= k suffice.  Tried by increasing size past supersets of supports
    already found, a subset is a minimal support iff the particular solution
    of sum(lam_i * rho_i) = theta exists and is >= 0: a nonnegative solution
    on fewer columns would lie in a smaller support.  The search runs once per
    model; each call returns a fresh sorted list.
    """
    return [s for s, _, _ in _support_table(m)]


def _support_matrix(m: GLSMModel, support) -> list[list[int]]:
    # rows indexed by the support: row i = column rho_i of the weight matrix
    return [[m.weights[a][i] for a in range(m.k)] for i in sorted(support)]


def inertia_sectors(m: GLSMModel) -> list[SectorLabel]:
    """All group elements whose fixed locus meets the semistable set.

    Enumerated per minimal semistable support as the finite kernel of
    (Q/Z)^k -> (Q/Z)^support; the union is deduplicated by the canonical
    group parameter and sorted.
    """
    out: set[tuple[Fraction, ...]] = set()
    for support in semistable_supports(m):
        mat = _support_matrix(m, support)
        try:
            kernel = congruence_kernel(mat)
        except ValueError:
            raise DegenerateStabilityError(
                f"infinite sector family over support {sorted(i + 1 for i in support)}; "
                "the model violates the genericity axiom"
            ) from None
        out.update(kernel)
    return [sector_from_lambda(m, lam) for lam in sorted(out)]


def sector_of_degree(m: GLSMModel, d: Degree) -> SectorLabel:
    """Label of the inverse of the degree-d monodromy element.

    The series coefficient at degree d lives in this sector; its canonical
    parameter is (-d mod 1) componentwise.
    """
    return sector_from_lambda(m, tuple(-x for x in d))


def age(m: GLSMModel, g: SectorLabel, xi) -> Fraction:
    """Fractional rotation number of the sector element on the character xi."""
    return frac_mod1(pairing(tuple(g.lam), xi))


def theta_degree(m: GLSMModel, d: Degree) -> Fraction:
    return pairing(d, m.theta)


def effective_degrees(m: GLSMModel, bound: Fraction) -> list[Degree]:
    """Degree zero plus all criterion-effective d with 0 < <d,theta> <= bound.

    Criterion: some minimal semistable support S has <d, rho_i> a nonnegative
    integer for every i in S.  For a generic model every minimal support is a
    basis, so the candidates for one S are parameterized by the nonnegative
    integer vectors n = (<d, rho_i>)_{i in S}, and the theta-degree is a
    positive combination of n; the enumeration is finite.  Every candidate
    is read off as inverse * n from the support table, which inverts each
    support matrix once per model, scaled to integers over one denominator.

    The enumeration runs on integer numerators over one model-wide
    denominator D, the lcm of the supports' inverse denominators: candidates
    are deduplicated and sorted as integer tuples (theta-degree numerator,
    then the numerators of d), and Fractions are formed only for the degrees
    returned.
    """
    bound = Fraction(bound)
    if bound < 0:
        return []
    if not any(m.theta):
        raise DegenerateStabilityError("unbounded effectivity region: theta = 0 pairs to zero with every degree")
    table = _support_table(m)
    for support, (_, lam), inverse in table:
        idx = sorted(support)
        # theta != 0, so a minimal support of size k is a basis
        if inverse is None:
            ray = ", ".join(format_rational(x) for x in _kernel_ray(_support_matrix(m, support), m.k))
            raise DegenerateStabilityError(
                f"unbounded effectivity region over support {[i + 1 for i in idx]}: "
                f"ray [{ray}] pairs to zero with theta"
            )
        if any(x <= 0 for x in lam):
            raise InternalError(f"minimal support {[i + 1 for i in idx]} lost its positive certificate")
    den = lcm(*[inverse[0] for _, _, inverse in table])
    theta = common_denominator(m.theta)[1]
    found = {(0,) * (m.k + 1)}  # (numerator of <d, theta>, numerators of d over den)
    for _, (lam_den, weights), (inv_den, inv_rows) in table:
        # the theta-degree of the candidate with pairing vector n is sum(lam_i n_i), an integer over
        # lam_den, so the bound on the weighted sum is floor(lam_den * bound)
        rows = [[x * (den // inv_den) for x in row] for row in inv_rows]
        for n in nonneg_vectors(weights, bound.numerator * lam_den // bound.denominator):
            if any(n):
                d = [sum(map(mul, row, n)) for row in rows]
                found.add((sum(map(mul, d, theta)), *d))
    return [tuple(Fraction(x, den) for x in key[1:]) for key in sorted(found)]


def _kernel_ray(mat, k: int) -> list[Fraction]:
    # a nonzero rational vector in the kernel of the support pairing map
    rows, pivots, d = fraction_free_rref(mat)
    free = next((c for c in range(k) if c not in pivots), None)
    if free is None:
        raise InternalError("kernel ray requested for a full-rank matrix")
    v = [Fraction(0)] * k
    v[free] = Fraction(1)
    for row, col in zip(rows, pivots):
        v[col] = Fraction(-row[free], d)
    return v


def is_effective(m: GLSMModel, d: Degree) -> bool:
    """The constructive effectivity criterion for a single degree."""
    if all(x == 0 for x in d):
        return True
    if theta_degree(m, d) <= 0:
        return False
    for support in semistable_supports(m):
        vals = [pairing(d, m.column(i)) for i in sorted(support)]
        if all(v.denominator == 1 and v >= 0 for v in vals):
            return True
    return False


def sr_generators(m: GLSMModel, g: SectorLabel) -> list[frozenset[int]]:
    """Minimal T inside the fixed support whose deletion kills all supports.

    These index the Stanley-Reisner generators prod_{i in T} rho_i of the
    sector's cohomology presentation: T must meet every minimal semistable
    support contained in the fixed locus of g.
    """
    return support_sr_generators(m, g.fixed_support)


def support_sr_generators(m: GLSMModel, fixed: frozenset[int]) -> list[frozenset[int]]:
    """sr_generators of every sector whose fixed support is `fixed`: they read nothing else of it."""
    family = [s for s in semistable_supports(m) if s <= fixed]
    if not family:
        raise ValueError("sector is empty: no semistable support inside its fixed locus")
    return _minimal_hitting_sets(family)


def _minimal_hitting_sets(family: list[frozenset[int]]) -> list[frozenset[int]]:
    universe = sorted(set().union(*family))
    results: list[frozenset[int]] = []

    def rec(chosen: frozenset[int], remaining: list[frozenset[int]]):
        if any(prev <= chosen for prev in results):
            return
        unhit = [s for s in remaining if not (s & chosen)]
        if not unhit:
            if not any(prev <= chosen for prev in results):
                results.append(chosen)
            return
        pivot = min(unhit, key=sorted)
        for el in sorted(pivot):
            rec(chosen | {el}, unhit)

    rec(frozenset(), family)
    # prune non-minimal results picked up along different branches
    minimal = [s for s in results if not any(t < s for t in results)]
    return sorted(set(minimal), key=lambda s: (len(s), sorted(s)))
