"""Exact integer/rational linear algebra for lattice and congruence problems.

Provides Smith normal form with unimodular transforms and the solvers built
on it: rational solutions of congruence systems M*x = b (mod Z), enumeration
of the finite kernel of a full-rank map (Q/Z)^k -> (Q/Z)^m, one
fraction-free integer elimination with the ranks, solves and inverses read
off it, and the nonnegative lattice points under a hyperplane.  A rational
vector enters the integer algorithms as `common_denominator` numerators.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import mul


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


def common_denominator(vec) -> tuple[int, list[int]]:
    """(den, nums) with vec = nums / den: den is the lcm of the entries' denominators (1 when empty)."""
    den = lcm(*[x.denominator for x in vec])
    return den, [x.numerator * (den // x.denominator) for x in vec]


def _lowest_terms(den: int, nums: list[int]) -> tuple[int, list[int]]:
    # nums / den with den > 0 and gcd(den, *nums) = 1
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    return den // g, [x // g for x in nums]


def fraction_free_rref(mat, ncols: int | None = None) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix (Bareiss 1968).

    Pivots are chosen left to right, among the first ncols columns (all by
    default), each in the first remaining row with a nonzero entry there.
    Each step replaces every other row by (p * row - c * pivot_row) / prev,
    with p the new pivot, c the row's entry in the pivot column and prev the
    previous pivot (1 at first).  Every entry
    stays an integer minor of mat, so each division is exact.  Returns
    (rows, pivots, d) with rows / d the reduced row echelon form of mat and d
    the last pivot (1 when there is none): the leading entry of every pivot
    row is d.  Scaling a row by a nonzero constant leaves the pivots
    unchanged, so a rational matrix is eliminated on its rows' numerators.
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


def integer_solve(mat, rhs) -> tuple[int, list[int]] | None:
    """One solution of mat*x = rhs over Q for integer mat and rhs, or None if inconsistent.

    The solution is (den, nums), x = nums / den with den > 0 and
    gcd(den, *nums) = 1.  The variables off the pivot columns are zero; no
    Fraction is formed.
    """
    cols = len(mat[0]) if mat else 0
    rows, pivots, d = fraction_free_rref([list(row) + [b] for row, b in zip(mat, rhs)], cols)
    if any(row[cols] for row in rows[len(pivots):]):
        return None
    x = [0] * cols
    for row, col in zip(rows, pivots):
        x[col] = row[cols]
    return _lowest_terms(d, x)


def rational_rank(mat) -> int:
    """Rank over Q of a matrix of ints or Fractions."""
    return len(fraction_free_rref([common_denominator(row)[1] for row in mat])[1])


def solve_rational_system(mat, rhs) -> list[Fraction] | None:
    """One exact solution of mat*x = rhs over Q, as `integer_solve` on the rows of [mat | rhs] scaled to integers."""
    rows = [common_denominator([*row, b])[1] for row, b in zip(mat, rhs)]
    sol = integer_solve([row[:-1] for row in rows], [row[-1] for row in rows])
    return None if sol is None else [Fraction(x, sol[0]) for x in sol[1]]


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
    den, flat = _lowest_terms(d, [x for row in rows for x in row[n:]])
    return den, tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))


def solve_congruences(mat: list[list[int]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve mat*x = rhs (mod Z^m) for rational x, entries reduced to [0,1).

    mat is an m x n integer matrix, rhs a rational vector of length m.
    Returns one solution or None when the congruence system is inconsistent.
    Runs on integer numerators: beta = U * rhs over the denominator of rhs,
    and the solution over that times the lcm of the nonzero invariant
    factors, so one Fraction is formed per returned entry.
    """
    d, u, v = smith_normal_form(mat)
    m = len(mat)
    n = len(mat[0]) if m else 0
    den, nums = common_denominator(rhs)
    beta = [sum(map(mul, row, nums)) for row in u]
    diag = [d[i][i] for i in range(min(m, n))]
    if any(b % den for i, b in enumerate(beta) if i >= len(diag) or not diag[i]):
        return None
    top = lcm(*[di for di in diag if di])
    mu = [beta[j] * (top // diag[j]) if j < len(diag) and diag[j] else 0 for j in range(n)]
    x_den = den * top
    return [Fraction(sum(map(mul, row, mu)) % x_den, x_den) for row in v]


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
