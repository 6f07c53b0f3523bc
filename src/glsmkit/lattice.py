"""Exact integer/rational linear algebra for lattice and congruence problems.

Provides Smith normal form with unimodular transforms and the solvers built
on it: rational solutions of congruence systems M*x = b (mod Z), enumeration
of the finite kernel of a full-rank map (Q/Z)^k -> (Q/Z)^m, plain rational
Gaussian elimination, fraction-free integer elimination with the solves and
inverses read off it, and the nonnegative lattice points under a hyperplane.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm

from .scalars import Cyclo, frac_mod1


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def transpose(a):
    return [list(col) for col in zip(*a)]


def smith_normal_form(mat: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (D, U, V) with U*mat*V = D, U and V unimodular.

    D is diagonal with nonnegative entries d_1 | d_2 | ... followed by zeros.
    """
    a = [list(row) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    u = identity_matrix(m)
    v = identity_matrix(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def addmul_col(dst, src, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # pick smallest nonzero pivot in the remaining block
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            done = True
            for i in range(t + 1, m):
                if a[i][t] % a[t][t] != 0:
                    addmul_row(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        done = False
                elif a[i][t] != 0:
                    addmul_row(i, t, -(a[i][t] // a[t][t]))
            for j in range(t + 1, n):
                if a[t][j] % a[t][t] != 0:
                    addmul_col(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        done = False
                elif a[t][j] != 0:
                    addmul_col(j, t, -(a[t][j] // a[t][t]))
            if done:
                break
        # enforce divisibility of the remaining block by the pivot
        stumble = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t] != 0:
                    stumble = i
                    break
            if stumble is not None:
                break
        if stumble is not None:
            addmul_row(t, stumble, 1)
            continue
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    return a, u, v


def invariant_factors(mat: list[list[int]]) -> list[int]:
    d, _, _ = smith_normal_form(mat)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i] != 0]


def rref(mat, rhs=None) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q by Gauss-Jordan elimination.

    Returns (rows, pivots): pivots[i] is the column of row i's leading one.
    With rhs given, it is carried as an extra last column that is never
    chosen as a pivot, so its entries may be cyclotomic.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    a = [[Fraction(x) for x in row] for row in mat]
    if rhs is not None:
        for row, b in zip(a, rhs):
            row.append(b if isinstance(b, Cyclo) else Fraction(b))
    pivots: list[int] = []
    for col in range(cols):
        rank = len(pivots)
        if rank == rows:
            break
        piv = next((i for i in range(rank, rows) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = a[rank][col]
        a[rank] = [x / inv for x in a[rank]]
        for i in range(rows):
            if i != rank and a[i][col] != 0:
                c = a[i][col]
                a[i] = [x - c * y for x, y in zip(a[i], a[rank])]
        pivots.append(col)
    return a, pivots


def rational_rank(mat) -> int:
    """Rank over Q (works for Fraction or int entries)."""
    return len(rref(mat)[1])


def solve_rational_system(mat, rhs) -> list[Fraction] | None:
    """One exact solution of mat*x = rhs over Q, or None if inconsistent."""
    a, pivots = rref(mat, rhs)
    cols = len(mat[0]) if mat else 0
    if any(row[cols] != 0 for row in a[len(pivots):]):
        return None
    x = [Fraction(0)] * cols
    for row, col in zip(a, pivots):
        x[col] = row[cols]
    return x


def fraction_free_rref(mat, ncols: int | None = None) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix (Bareiss 1968).

    Pivots are chosen as in `rref`: left to right, among the first ncols
    columns (all by default).  Each step replaces every other row by
    (p * row - c * pivot_row) / prev, with p the new pivot, c the row's entry
    in the pivot column and prev the previous pivot (1 at first).  Every entry
    stays an integer minor of mat, so each division is exact.  Returns
    (rows, pivots, d) with rows = d * rref(mat) and d the last pivot (1 when
    there is none): the leading entry of every pivot row is d.
    """
    a = [list(row) for row in mat]
    nrows = len(a)
    if ncols is None:
        ncols = len(a[0]) if nrows else 0
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        piv = next((i for i in range(rank, nrows) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        top = a[rank]
        p = top[col]
        for i, row in enumerate(a):
            if i != rank:
                c = row[col]
                a[i] = [(p * x - c * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(col)
    return a, pivots, prev


def _over_common_denominator(den: int, nums: list[int]) -> tuple[int, list[int]]:
    # nums / den with den > 0 and gcd(den, *nums) = 1
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    return den // g, [x // g for x in nums]


def integer_solve(mat, rhs) -> tuple[int, list[int]] | None:
    """One solution of mat*x = rhs over Q for integer mat and rhs, or None if inconsistent.

    The solution is (den, nums), x = nums / den with den > 0 and
    gcd(den, *nums) = 1.  As in `solve_rational_system`, the variables off the
    pivot columns are zero; no Fraction is formed.
    """
    cols = len(mat[0]) if mat else 0
    rows, pivots, d = fraction_free_rref([list(row) + [b] for row, b in zip(mat, rhs)], cols)
    if any(row[cols] for row in rows[len(pivots):]):
        return None
    x = [0] * cols
    for row, col in zip(rows, pivots):
        x[col] = row[cols]
    return _over_common_denominator(d, x)


def integer_inverse(mat) -> tuple[int, tuple[tuple[int, ...], ...]] | None:
    """Inverse of a square integer matrix as (den, rows), or None when it is singular or not square.

    Fraction-free elimination of [mat | I] leaves d * inverse in the right
    block, with d = +-det(mat): the adjugate up to sign.  It is divided by the
    gcd of d and all its entries, so den > 0 is the lcm of the inverse's
    denominators and rows / den is the inverse.
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        return None
    rows, pivots, d = fraction_free_rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)], n)
    if len(pivots) < n:
        return None
    den, flat = _over_common_denominator(d, [x for row in rows for x in row[n:]])
    return den, tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))


def solve_congruences(mat: list[list[int]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve mat*x = rhs (mod Z^m) for rational x, entries reduced to [0,1).

    mat is an m x n integer matrix, rhs a rational vector of length m.
    Returns one solution or None when the congruence system is inconsistent.
    """
    d, u, v = smith_normal_form(mat)
    m = len(mat)
    n = len(mat[0]) if m else 0
    beta = [sum(Fraction(u[i][j]) * rhs[j] for j in range(m)) for i in range(m)]
    mu = [Fraction(0)] * n
    for i in range(min(m, n)):
        di = d[i][i]
        if di != 0:
            mu[i] = beta[i] / di
        elif frac_mod1(beta[i]) != 0:
            return None
    for i in range(n, m):
        if frac_mod1(beta[i]) != 0:
            return None
    x = [sum(Fraction(v[i][j]) * mu[j] for j in range(n)) for i in range(n)]
    return [frac_mod1(c) for c in x]


def congruence_kernel(mat: list[list[int]]) -> list[tuple[Fraction, ...]]:
    """All x in (Q/Z)^n with mat*x = 0 (mod Z^m), for mat of full column rank.

    Raises ValueError when the solution set is infinite (rank < n).
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    d, _, v = smith_normal_form(mat)
    diag = [d[i][i] for i in range(min(m, n))]
    if len(diag) < n or any(di == 0 for di in diag):
        raise ValueError("congruence kernel is infinite (matrix not of full column rank)")
    # every d_j divides the last invariant factor, so each entry is an integer
    # numerator over it
    top = lcm(*diag)
    scaled = [[v[i][j] * (top // dj) for j, dj in enumerate(diag)] for i in range(n)]
    nums = {
        tuple(sum(w * c for w, c in zip(row, combo)) % top for row in scaled)
        for combo in product(*(range(dj) for dj in diag))
    }
    fracs = [Fraction(a, top) for a in range(top)]
    return [tuple(fracs[a] for a in x) for x in sorted(nums)]


def nonneg_vectors(weights, bound):
    """Nonnegative integer vectors n with sum(w_i * n_i) <= bound, for positive
    weights, in lexicographic order with the first entry slowest."""
    if not weights:
        if bound >= 0:
            yield ()
        return
    for v in range(bound // weights[0] + 1):
        for tail in nonneg_vectors(weights[1:], bound - weights[0] * v):
            yield (v, *tail)
