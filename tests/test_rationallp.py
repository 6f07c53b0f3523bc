from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from glsmkit.rationallp import nonneg_combination, positive_functional, scale_to_integers


def test_cone_membership_examples():
    assert nonneg_combination([(1,), (1,)], (1,)) is not None
    assert nonneg_combination([(1, 0)], (1, 1)) is None
    assert nonneg_combination([(-5,)], (1,)) is None
    assert nonneg_combination([(-5,)], (-1,)) is not None


def test_cone_membership_witness_is_checked():
    lam = nonneg_combination([(1, 0), (0, 1), (1, 1)], (2, 3))
    assert lam is not None
    total = [sum(Fraction(g[t]) * l for g, l in zip([(1, 0), (0, 1), (1, 1)], lam)) for t in range(2)]
    assert total == [2, 3]


def test_empty_generators():
    assert nonneg_combination([], (0, 0)) == []
    assert nonneg_combination([], (1, 0)) is None


def test_positive_functional_simple():
    lam, cert = positive_functional([(1,), (2,)])
    assert cert is None
    assert all(Fraction(c[0]) * lam[0] >= 1 for c in [(1,), (2,)])


def test_positive_functional_gordan_dual():
    # x1*x2 invariant: columns 1 and -1
    lam, cert = positive_functional([(1,), (-1,)])
    assert lam is None
    assert cert is not None
    assert sum(cert[i] * [(1,), (-1,)][i][0] for i in range(2)) == 0
    assert all(v >= 0 for v in cert) and any(v > 0 for v in cert)


def test_positive_functional_zero_column():
    # a zero column is invariant all by itself
    lam, cert = positive_functional([(0, 0)])
    assert lam is None and cert is not None


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 3), st.integers(1, 5), st.data())
def test_gordan_alternative_random(k, m, data):
    cols = [tuple(data.draw(st.integers(-5, 5)) for _ in range(k)) for _ in range(m)]
    lam, cert = positive_functional(cols)
    # exactly one side of the alternative, and it verifies
    assert (lam is None) != (cert is None)
    if lam is not None:
        for c in cols:
            assert sum(Fraction(c[t]) * lam[t] for t in range(k)) >= 1
    else:
        assert all(v >= 0 for v in cert) and any(v > 0 for v in cert)
        for t in range(k):
            assert sum(cert[i] * Fraction(cols[i][t]) for i in range(m)) == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4), st.data())
def test_cone_membership_random_soundness(k, m, data):
    gens = [tuple(data.draw(st.integers(-4, 4)) for _ in range(k)) for _ in range(m)]
    target = tuple(data.draw(st.integers(-4, 4)) for _ in range(k))
    lam = nonneg_combination(gens, target)
    if lam is not None:
        assert all(l >= 0 for l in lam)
        for t in range(k):
            assert sum(Fraction(g[t]) * l for g, l in zip(gens, lam)) == target[t]


def test_cone_membership_random_completeness():
    # targets built as explicit nonneg combinations must be found
    import random

    rng = random.Random(7)
    for _ in range(100):
        k = rng.randint(1, 3)
        m = rng.randint(1, 4)
        gens = [tuple(rng.randint(-4, 4) for _ in range(k)) for _ in range(m)]
        coeffs = [Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(m)]
        target = tuple(sum(coeffs[i] * gens[i][t] for i in range(m)) for t in range(k))
        assert nonneg_combination(gens, target) is not None


def test_scale_to_integers():
    assert scale_to_integers([Fraction(1, 2), Fraction(3, 4)]) == [2, 3]
    assert scale_to_integers([Fraction(0), Fraction(5)]) == [0, 1]
    assert scale_to_integers([]) == []
