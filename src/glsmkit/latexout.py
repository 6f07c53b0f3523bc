"""Deterministic LaTeX rendering of a graded series.

A convenience view only; the JSON serialization is the contract.  Terms are
emitted in the series order (theta-degree, degree, insertion exponent), the
classes on the staircase basis, rationals as \\frac, sectors as
\\mathbb{1}_{(lambda)}.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Cyclo, format_rational
from .series import GradedSeries


def _frac(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return f"{sign}\\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def _scalar(v) -> str:
    if isinstance(v, Cyclo):
        parts = []
        for i, c in enumerate(v.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(_frac(c))
            else:
                power = f"^{{{i}}}" if i > 1 else ""
                coeff = "" if c == 1 else ("-" if c == -1 else _frac(c))
                parts.append(f"{coeff}\\zeta_{{{v.order}}}{power}")
        return "(" + " + ".join(parts).replace("+ -", "- ") + ")"
    return _frac(v)


def _class_monomial(mono, ngens: int) -> str:
    parts = []
    for a, e in enumerate(mono):
        if e == 0:
            continue
        name = "H" if ngens == 1 else f"H_{{{a + 1}}}"
        parts.append(name if e == 1 else f"{name}^{{{e}}}")
    return " ".join(parts)


def _class(poly, ngens: int) -> str:
    if not poly:
        return "0"
    parts = []
    for mono, coeff in sorted(poly.items()):
        mono_s = _class_monomial(mono, ngens)
        coeff_s = _scalar(coeff)
        if mono_s:
            if coeff_s == "1":
                parts.append(mono_s)
            elif coeff_s == "-1":
                parts.append(f"-{mono_s}")
            else:
                parts.append(f"{coeff_s} {mono_s}")
        else:
            parts.append(coeff_s)
    out = " + ".join(parts)
    return out.replace("+ -", "- ")


def _zpart(value) -> str:
    parts = []
    for zexp, cls in value.coeffs:
        cls_s = _class(cls.poly, cls.ring.ngens)
        if " + " in cls_s or " - " in cls_s:
            cls_s = f"({cls_s})"
        if zexp == 0:
            parts.append(cls_s)
        else:
            zpow = "z" if zexp == 1 else f"z^{{{zexp}}}"
            parts.append(zpow if cls_s == "1" else f"{cls_s} {zpow}")
    out = " + ".join(parts)
    return out.replace("+ -", "- ")


def render_latex(s: GradedSeries) -> str:
    """Render the whole truncated series as a single LaTeX expression."""
    chunks = []
    for _, d, alpha in s.graded_keys():
        value = s.terms[(d, alpha)]
        factors = []
        if any(x != 0 for x in d):
            if len(d) == 1:
                factors.append(f"q^{{{format_rational(d[0])}}}")
            else:
                exps = ",".join(format_rational(x) for x in d)
                factors.append(f"q^{{({exps})}}")
        for ins, e in zip(s.insertions, alpha):
            if e == 1:
                factors.append(ins.name)
            elif e > 1:
                factors.append(f"{ins.name}^{{{e}}}")
        zpart = _zpart(value)
        sector = "\\mathbb{1}_{(" + ",".join(format_rational(x) for x in value.ring.sector.lam) + ")}"
        if zpart == "1":
            factors.append(sector)
        else:
            if " + " in zpart or " - " in zpart:
                zpart = f"\\left({zpart}\\right)"
            factors.append(f"{zpart}\\,{sector}")
        chunks.append("\\,".join(factors))
    return " + ".join(chunks) if chunks else "0"
