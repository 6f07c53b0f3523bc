from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from glsmkit.lattice import (
    congruence_kernel,
    fraction_free_rref,
    integer_inverse,
    integer_solve,
    invariant_factors,
    nonneg_vectors,
    rational_rank,
    smith_normal_form,
    solve_congruences,
    solve_rational_system,
)
from glsmkit.sectors import _kernel_ray


def det(mat):
    a = [[Fraction(x) for x in row] for row in mat]
    n = len(a)
    sign = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        for i in range(col + 1, n):
            if a[i][col] != 0:
                c = a[i][col] / a[col][col]
                a[i] = [x - c * y for x, y in zip(a[i], a[col])]
    out = Fraction(sign)
    for i in range(n):
        out *= a[i][i]
    return out


def check_snf(mat):
    d, u, v = smith_normal_form(mat)
    assert sympy.Matrix(u) * sympy.Matrix(mat) * sympy.Matrix(v) == sympy.Matrix(d)
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    for i in range(len(diag) - 1):
        if diag[i + 1] != 0:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
    assert all(x >= 0 for x in diag)
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0
    return diag


def test_snf_examples():
    assert check_snf([[1, 0], [0, 1]]) == [1, 1]
    assert check_snf([[2, 0], [0, 3]]) == [1, 6]
    # d1 = gcd of entries = 2, d1*d2 = gcd of 2x2 minors = 4, product = |det| = 624
    assert check_snf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]
    assert check_snf([[1, 1, 1, 1, 1, -5]]) == [1]
    assert check_snf([[0, 0], [0, 0]]) == [0, 0]


@settings(max_examples=80)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_snf_random(rows):
    check_snf(rows)


def test_invariant_factors():
    assert invariant_factors([[1, 1], [1, -1]]) == [1, 2]
    assert invariant_factors([[2, 2]]) == [2]
    assert invariant_factors([[1, -3]]) == [1]


def test_rational_rank():
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([[1, 0], [0, 1]]) == 2
    assert rational_rank([[0]]) == 0


def test_solve_rational_system():
    sol = solve_rational_system([[2, 0], [1, 1]], [Fraction(3), Fraction(2)])
    assert sol == [Fraction(3, 2), Fraction(1, 2)]
    assert solve_rational_system([[1, 1], [2, 2]], [Fraction(1), Fraction(3)]) is None


def test_solve_congruences_cubic():
    # <rho_i, lam> = c_i/d_w (mod 1) for the one-variable cubic model
    sol = solve_congruences([[1], [-3]], [Fraction(1, 3), Fraction(0)])
    assert sol == [Fraction(1, 3)]


def test_solve_congruences_inconsistent():
    # 2*lam = 1/2 and 2*lam = 0 (mod 1) have no common solution
    assert solve_congruences([[2], [2]], [Fraction(1, 2), Fraction(0)]) is None


def test_solve_congruences_trivial():
    sol = solve_congruences([[1], [1]], [Fraction(0), Fraction(0)])
    assert sol == [Fraction(0)]


@settings(max_examples=60)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.data(),
)
def test_solve_congruences_verifies(m, n, data):
    mat = [[data.draw(st.integers(-6, 6)) for _ in range(n)] for _ in range(m)]
    rhs = [Fraction(data.draw(st.integers(-6, 6)), data.draw(st.integers(1, 6))) for _ in range(m)]
    sol = solve_congruences(mat, rhs)
    if sol is not None:
        for i in range(m):
            val = sum(Fraction(mat[i][j]) * sol[j] for j in range(n)) - rhs[i]
            assert val.denominator == 1


def fraction_solve_congruences(mat, rhs):
    # the Fraction implementation the integer-numerator solver replaced: beta = U*rhs, mu = beta / d, x = V*mu
    d, u, v = smith_normal_form(mat)
    m, n = len(mat), len(mat[0])
    beta = [sum(Fraction(u[i][j]) * rhs[j] for j in range(m)) for i in range(m)]
    mu = [Fraction(0)] * n
    for i in range(min(m, n)):
        if d[i][i] != 0:
            mu[i] = beta[i] / d[i][i]
        elif beta[i].denominator != 1:
            return None
    if any(beta[i].denominator != 1 for i in range(n, m)):
        return None
    return [x - x.numerator // x.denominator for x in (sum(Fraction(v[i][j]) * mu[j] for j in range(n)) for i in range(n))]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_solve_congruences_matches_fraction_implementation(m, n, data):
    mat = [[data.draw(st.integers(-6, 6)) for _ in range(n)] for _ in range(m)]
    rhs = [Fraction(data.draw(st.integers(-6, 6)), data.draw(st.integers(1, 6))) for _ in range(m)]
    assert solve_congruences(mat, rhs) == fraction_solve_congruences(mat, rhs)


def test_congruence_kernel_cubic_support():
    # kernel of multiplication by -3 in Q/Z has the three cube-root parameters
    ker = congruence_kernel([[-3]])
    assert ker == [(Fraction(0),), (Fraction(1, 3),), (Fraction(2, 3),)]


def test_congruence_kernel_full_lattice():
    ker = congruence_kernel([[1, 0], [0, 1]])
    assert ker == [(Fraction(0), Fraction(0))]


def test_congruence_kernel_infinite():
    with pytest.raises(ValueError):
        congruence_kernel([[1, 1]])


def small_matrices(max_rows=4, max_cols=5):
    return st.integers(1, max_rows).flatmap(
        lambda rows: st.integers(1, max_cols).flatmap(
            lambda cols: st.lists(
                st.lists(st.integers(-4, 4), min_size=cols, max_size=cols), min_size=rows, max_size=rows
            )
        )
    )


def apply(mat, x):
    return [sum(Fraction(a) * b for a, b in zip(row, x)) for row in mat]


def over_small_denominators(data, values):
    return [Fraction(v, data.draw(st.integers(1, 6))) for v in values]


@settings(max_examples=150, deadline=None)
@given(small_matrices(), st.booleans(), st.data())
def test_elimination_matches_sympy(ints, rational, data):
    # with Fraction entries, rational_rank and solve_rational_system scale each row to integers first
    mat = [over_small_denominators(data, row) for row in ints] if rational else ints
    rhs = [data.draw(st.integers(-4, 4)) for _ in mat]
    if rational:
        rhs = over_small_denominators(data, rhs)
    matrix = sympy.Matrix(mat)
    rank = matrix.rank()
    assert rational_rank(mat) == rank
    sol = solve_rational_system(mat, rhs)
    consistent = matrix.row_join(sympy.Matrix(rhs)).rank() == rank
    if consistent:
        assert sol is not None and apply(mat, sol) == rhs
        pivots = matrix.rref()[1]
        assert all(x == 0 for j, x in enumerate(sol) if j not in pivots)
    else:
        assert sol is None
    cols = len(ints[0])
    if sympy.Matrix(ints).rank() < cols:
        ray = _kernel_ray(ints, cols)
        assert any(ray) and not any(apply(ints, ray))


SYSTEMS = ["consistent", "inconsistent", "rank-deficient", "square invertible"]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SYSTEMS), small_matrices(), st.data())
def test_fraction_free_solver_matches_sympy(kind, mat, data):
    rows, cols = len(mat), len(mat[0])
    entries = st.integers(-4, 4)
    if kind == "square invertible":
        mat = [[data.draw(entries) for _ in range(rows)] for _ in range(rows)]
        assume(sympy.Matrix(mat).det() != 0)
        rhs = [data.draw(entries) for _ in mat]
    elif kind == "consistent":
        x0 = [data.draw(entries) for _ in range(cols)]
        rhs = [sum(a * b for a, b in zip(row, x0)) for row in mat]
    else:
        # the last row is an integer combination of two others (zero for one row);
        # an inconsistent right-hand side breaks the same combination by one
        a, b = (data.draw(entries), data.draw(entries)) if rows > 1 else (0, 0)
        j = max(rows - 2, 0)
        rhs = [data.draw(entries) for _ in mat]
        mat = mat[:-1] + [[a * x + b * y for x, y in zip(mat[0], mat[j])]]
        rhs[-1] = a * rhs[0] + b * rhs[j] + (kind == "inconsistent")
    matrix = sympy.Matrix(mat)
    reduced, sympy_pivots = matrix.rref()
    ff, pivots, d = fraction_free_rref(mat)
    assert tuple(pivots) == sympy_pivots and d != 0
    assert sympy.Matrix(ff) == d * reduced
    sol = integer_solve(mat, rhs)
    if matrix.row_join(sympy.Matrix(rhs)).rank() > matrix.rank():
        assert kind != "consistent" and sol is None
    else:
        assert kind != "inconsistent"
        den, nums = sol
        assert den > 0 and gcd(den, *nums) == 1
        assert matrix * sympy.Matrix(nums) == den * sympy.Matrix(rhs)
        # the variables off the pivot columns are zero: sympy's general solution with its free parameters at 0
        assert all(nums[j] == 0 for j in range(len(nums)) if j not in sympy_pivots)
        general, params = matrix.gauss_jordan_solve(sympy.Matrix(rhs))
        assert sympy.Matrix(nums) == den * general.subs({t: 0 for t in params})
    inverse = integer_inverse(mat)
    if len(mat) != len(mat[0]) or matrix.det() == 0:
        assert inverse is None and kind != "square invertible"
    else:
        den, inv_rows = inverse
        exact = matrix.inv()
        assert den == lcm(*[x.q for x in exact])
        assert sympy.Matrix(inv_rows) == den * exact


@settings(max_examples=40)
@given(st.integers(1, 4), st.data())
def test_congruence_kernel_matches_bruteforce(n, data):
    # square full-rank matrices with small entries
    mat = [[data.draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(n)]
    if sympy.Matrix(mat).rank() < n:
        return
    ker = congruence_kernel(mat)
    # every member solves the congruence; group order equals |det|
    # integer numerators over a common denominator: one Fraction per row
    for lam in ker:
        den = lcm(*(x.denominator for x in lam))
        nums = [x.numerator * (den // x.denominator) for x in lam]
        for row in mat:
            v = Fraction(sum(a * b for a, b in zip(row, nums)), den)
            assert v.denominator == 1
    assert len(ker) == abs(det(mat))


def test_nonneg_vectors_fraction_weights():
    weights = (Fraction(1, 2), Fraction(2, 3))
    assert list(nonneg_vectors(weights, Fraction(1))) == [(0, 0), (0, 1), (1, 0), (2, 0)]
    assert list(nonneg_vectors(weights, Fraction(-1, 2))) == []
