"""Exact rational linear-programming feasibility with Farkas certificates.

A small phase-1 simplex over ``fractions.Fraction`` (Bland's rule, so it
terminates) covering two query shapes: feasibility of strict-positivity
systems <l, c_i> >= 1 whose infeasibility certificates are Gordan-dual
nonnegative integer vectors (the invariant-monomial test), and cone
membership (``cone_contains``, an independent oracle: the semistable-support
search decides membership by one exact linear solve instead).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .lattice import common_denominator


class LPInternalError(RuntimeError):
    """Simplex produced an answer that fails its own certificate check."""


def _phase_one(a_rows: list[list[Fraction]], b: list[Fraction]):
    """Feasibility of {x >= 0 : A x = b}.

    Returns ("feasible", x) or ("infeasible", y) where y is a Farkas
    certificate: y^T A <= 0 componentwise and y^T b > 0.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0

    sign = [Fraction(1)] * m
    rows = []
    rhs = []
    for i in range(m):
        if b[i] < 0:
            sign[i] = Fraction(-1)
            rows.append([-x for x in a_rows[i]])
            rhs.append(-b[i])
        else:
            rows.append(list(a_rows[i]))
            rhs.append(b[i])

    # tableau columns: n structural, m artificial, then rhs
    tab = [rows[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    total = n + m

    # reduced-cost row for min(sum of artificials); artificials start basic
    obj = [Fraction(0)] * (total + 1)
    for j in range(n):
        obj[j] = -sum(tab[i][j] for i in range(m))
    obj[total] = -sum(rhs)

    while True:
        enter = next((j for j in range(total) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][total] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise LPInternalError("phase-1 objective unbounded below")
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                c = tab[i][enter]
                tab[i] = [x - c * y for x, y in zip(tab[i], tab[leave])]
        if obj[enter] != 0:
            c = obj[enter]
            obj = [x - c * y for x, y in zip(obj, tab[leave])]
        basis[leave] = enter

    optimum = -obj[total]
    if optimum == 0:
        x = [Fraction(0)] * n
        for i, var in enumerate(basis):
            if var < n:
                x[var] = tab[i][total]
        for i in range(m):
            val = sum(a_rows[i][j] * x[j] for j in range(n))
            if val != b[i]:
                raise LPInternalError("feasible point fails the equations")
        if any(v < 0 for v in x):
            raise LPInternalError("feasible point has a negative coordinate")
        return "feasible", x

    # duals: reduced cost of artificial j is 1 - y_j
    y = [sign[j] * (Fraction(1) - obj[n + j]) for j in range(m)]
    for j in range(n):
        if sum(y[i] * a_rows[i][j] for i in range(m)) > 0:
            raise LPInternalError("Farkas certificate fails y^T A <= 0")
    if sum(y[i] * b[i] for i in range(m)) <= 0:
        raise LPInternalError("Farkas certificate fails y^T b > 0")
    return "infeasible", y


def nonneg_combination(gens: list, target) -> list[Fraction] | None:
    """Coefficients l >= 0 with sum(l_i * gens_i) = target, or None.

    Decides membership of target in the rational cone generated by gens.
    """
    target = [Fraction(t) for t in target]
    k = len(target)
    if not gens:
        return [] if all(t == 0 for t in target) else None
    a_rows = [[Fraction(g[i]) for g in gens] for i in range(k)]
    status, out = _phase_one(a_rows, target)
    return out if status == "feasible" else None


def positive_functional(columns: list) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """Search for l with <l, c> >= 1 for every c in columns.

    Returns (witness, None) when such a functional exists, or
    (None, certificate) with the Gordan dual: a nonzero rational y >= 0,
    indexed like columns, satisfying sum(y_c * c) = 0.
    """
    if not columns:
        return [], None
    k = len(columns[0])
    m = len(columns)
    # lambda = u - w with u, w >= 0; slack per inequality
    a_rows = []
    for c in columns:
        row = [Fraction(x) for x in c] + [-Fraction(x) for x in c]
        row += [Fraction(-1) if j == len(a_rows) else Fraction(0) for j in range(m)]
        a_rows.append(row)
    b = [Fraction(1)] * m
    status, out = _phase_one(a_rows, b)
    if status == "feasible":
        lam = [out[j] - out[k + j] for j in range(k)]
        if any(sum(lam[t] * Fraction(c[t]) for t in range(k)) < 1 for c in columns):
            raise LPInternalError("functional witness fails an inequality")
        return lam, None
    y = out
    if any(v < 0 for v in y) or all(v == 0 for v in y):
        raise LPInternalError("Gordan certificate not a nonzero nonnegative vector")
    for t in range(k):
        if sum(y[i] * Fraction(columns[i][t]) for i in range(m)) != 0:
            raise LPInternalError("Gordan certificate fails sum(y_c * c) = 0")
    return None, y


def scale_to_integers(vec: list[Fraction]) -> list[int]:
    """Clear denominators and divide by the content."""
    ints = common_denominator(vec)[1]
    g = gcd(*ints)
    return [v // g for v in ints] if g else ints
