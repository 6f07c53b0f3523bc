"""Multivariate polynomial arithmetic and reduced Groebner bases.

Polynomials are dicts mapping exponent tuples to scalar coefficients
(Fraction, or Cyclo after a Novikov twist).  The monomial order is graded
reverse lexicographic with variable 0 largest; it is fixed once so normal
forms and reduced bases are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from .scalars import Scalar, scalar_is_zero

Monomial = tuple[int, ...]
Poly = dict[Monomial, Scalar]


def grevlex_key(mono: Monomial):
    """Sort key: larger key = larger monomial in grevlex with x0 > x1 > ..."""
    return (sum(mono), tuple(-mono[i] for i in range(len(mono) - 1, -1, -1)))


def poly_const(nvars: int, c) -> Poly:
    if scalar_is_zero(c):
        return {}
    return {(0,) * nvars: c}


def poly_monomial(mono: Monomial, c) -> Poly:
    if scalar_is_zero(c):
        return {}
    return {mono: c}


def poly_add(f: Poly, g: Poly) -> Poly:
    out = dict(f)
    for mono, c in g.items():
        s = out.get(mono, 0) + c
        if scalar_is_zero(s):
            out.pop(mono, None)
        else:
            out[mono] = s
    return out


def poly_neg(f: Poly) -> Poly:
    return {m: -c for m, c in f.items()}


def poly_sub(f: Poly, g: Poly) -> Poly:
    return poly_add(f, poly_neg(g))


def poly_scale(f: Poly, c) -> Poly:
    if scalar_is_zero(c):
        return {}
    out = {}
    for mono, v in f.items():
        s = v * c
        if not scalar_is_zero(s):
            out[mono] = s
    return out


def poly_mul(f: Poly, g: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            s = out.get(mono, 0) + c1 * c2
            if scalar_is_zero(s):
                out.pop(mono, None)
            else:
                out[mono] = s
    return out


def poly_eq(f: Poly, g: Poly) -> bool:
    if set(f) != set(g):
        return False
    return all(f[m] == g[m] for m in f)


def leading_monomial(f: Poly) -> Monomial:
    return max(f, key=grevlex_key)


def _divides(m1: Monomial, m2: Monomial) -> bool:
    return all(a <= b for a, b in zip(m1, m2))


def _mono_div(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(a - b for a, b in zip(m1, m2))


def _mono_lcm(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(max(a, b) for a, b in zip(m1, m2))


def normal_form(f: Poly, basis: list[Poly]) -> Poly:
    """Remainder of f on division by basis (full tail reduction)."""
    if not basis:
        return dict(f)
    lts = [(leading_monomial(g), g) for g in basis if g]
    work = dict(f)
    out: Poly = {}
    while work:
        mono = max(work, key=grevlex_key)
        coeff = work.pop(mono)
        for lm, g in lts:
            if _divides(lm, mono):
                shift = _mono_div(mono, lm)
                factor = coeff / g[lm]
                for m2, c2 in g.items():
                    if m2 == lm:
                        continue
                    tgt = tuple(a + b for a, b in zip(m2, shift))
                    s = work.get(tgt, 0) - factor * c2
                    if scalar_is_zero(s):
                        work.pop(tgt, None)
                    else:
                        work[tgt] = s
                break
        else:
            out[mono] = coeff
    return out


def _s_poly(f: Poly, g: Poly) -> Poly:
    lmf, lmg = leading_monomial(f), leading_monomial(g)
    l = _mono_lcm(lmf, lmg)
    a = poly_mul(poly_monomial(_mono_div(l, lmf), Fraction(1) / f[lmf]), f)
    b = poly_mul(poly_monomial(_mono_div(l, lmg), Fraction(1) / g[lmg]), g)
    return poly_sub(a, b)


def groebner_basis(gens: list[Poly]) -> list[Poly]:
    """Reduced Groebner basis (monic, tail-reduced, deterministic order)."""
    basis = [dict(g) for g in gens if g]
    pairs = list(combinations(range(len(basis)), 2))
    while pairs:
        i, j = pairs.pop(0)
        lmi, lmj = leading_monomial(basis[i]), leading_monomial(basis[j])
        # Buchberger's coprimality criterion
        if _mono_lcm(lmi, lmj) == tuple(a + b for a, b in zip(lmi, lmj)):
            continue
        rem = normal_form(_s_poly(basis[i], basis[j]), basis)
        if rem:
            basis.append(rem)
            pairs.extend((t, len(basis) - 1) for t in range(len(basis) - 1))

    # minimalize: drop elements whose leading term is divisible by another's
    lms = [leading_monomial(g) for g in basis]
    keep = []
    for i, lm in enumerate(lms):
        if not any(j != i and _divides(lms[j], lm) and (lms[j] != lm or j < i) for j in range(len(basis))):
            keep.append(i)
    minimal = [basis[i] for i in keep]

    # reduce: tail-reduce each element against the others, make monic
    reduced = []
    for i, g in enumerate(minimal):
        others = [h for j, h in enumerate(minimal) if j != i]
        r = normal_form(g, others)
        lc = r[leading_monomial(r)]
        reduced.append(poly_scale(r, Fraction(1) / lc))
    reduced.sort(key=lambda g: grevlex_key(leading_monomial(g)))
    return reduced


_STAIRCASE_CAP = 10000  # largest sector-ring dimension accepted


def staircase_monomials(basis: list[Poly], nvars: int) -> list[Monomial]:
    """Monomials outside the leading-term ideal of the basis, sorted.

    Raises ValueError naming a variable with no pure power among the leading
    terms (the quotient is then infinite-dimensional).
    """
    lms = [leading_monomial(g) for g in basis if g]
    bounds = []
    for v in range(nvars):
        pure = [lm[v] for lm in lms if all(lm[w] == 0 for w in range(nvars) if w != v)]
        if not pure:
            raise ValueError(f"quotient ring is infinite-dimensional along generator index {v}")
        bounds.append(min(pure))
    out = [m for m in product(*(range(b) for b in bounds)) if not any(_divides(lm, m) for lm in lms)]
    if len(out) > _STAIRCASE_CAP:
        raise ValueError("staircase exceeds cap")
    return sorted(out, key=grevlex_key)
