"""Error paths and cross-cutting invariants not covered elsewhere."""

import json
from fractions import Fraction

import pytest

from glsmkit.model import parse_model
from glsmkit.sectors import DegenerateStabilityError, effective_degrees, inertia_sectors
from glsmkit.validate import j_membership, validate_model

from conftest import WALL_MODEL, corpus

F = Fraction


def test_degenerate_stability_effective_degrees():
    m = parse_model(json.dumps(WALL_MODEL))
    with pytest.raises(DegenerateStabilityError) as info:
        effective_degrees(m, F(2))
    assert str(info.value) == "unbounded effectivity region over support [3]: ray [-1, 1] pairs to zero with theta"


def test_degenerate_stability_inertia():
    m = parse_model(json.dumps(WALL_MODEL))
    with pytest.raises(DegenerateStabilityError, match="infinite sector family"):
        inertia_sectors(m)


def test_wall_model_fails_validation():
    m = parse_model(json.dumps(WALL_MODEL))
    rep = validate_model(m)
    failing = {c.name for c in rep.checks if not c.passed}
    assert "no_strict_semistable" in failing


def test_j_witness_acts_like_grading_element():
    # for every validated corpus model the witness action is (c_i/d_w mod 1)
    for m in corpus():
        assert validate_model(m).overall
        member, witness, _order = j_membership(m)
        assert member
        for i in range(m.r):
            v = sum(F(m.weights[a][i]) * witness[a] for a in range(m.k))
            assert (v - F(m.r_charges[i], m.d_w)).denominator == 1


def test_compare_with_rename_map(tmp_path, capsys, monkeypatch):
    from glsmkit.cli import main

    monkeypatch.setenv("GLSMKIT_CACHE_DIR", str(tmp_path / "cache"))
    from conftest import P1

    model = tmp_path / "m.json"
    model.write_text(json.dumps(P1), encoding="utf-8")
    a = tmp_path / "a.series"
    b = tmp_path / "b.series"
    assert main(["ifun", str(model), "--qbound", "1", "--torder", "1", "--insert", "t1=rho1", "--out", str(a)]) == 0
    assert main(["ifun", str(model), "--qbound", "1", "--torder", "1", "--insert", "s1=rho1", "--out", str(b)]) == 0
    capsys.readouterr()
    code = main(["compare", str(a), str(b), "--map", "s1=t1", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "equal on common truncation" in out


def test_latex_after_twist_has_no_roots(m_quintic):
    # odd half-turn scalars collapse to rational -1 and print as plain signs
    from glsmkit.latexout import render_latex
    from glsmkit.series import glsm_i_function, twist_novikov

    s = twist_novikov(glsm_i_function(m_quintic, q_bound=F(2)), [(5,)])
    text = render_latex(s)
    assert "\\zeta" not in text
    assert "\\mathbb{1}_{(0)}" in text


def test_latex_genuine_cyclotomic():
    from glsmkit.latexout import render_latex
    from glsmkit.series import glsm_i_function, twist_novikov

    cubic = corpus()[2]
    s = twist_novikov(glsm_i_function(cubic, q_bound=F(1)), [(1,)])
    text = render_latex(s)
    assert "\\zeta_{6}" in text


def test_budget_error_exit_code(tmp_path, capsys, monkeypatch):
    from glsmkit.cli import main

    monkeypatch.setenv("GLSMKIT_CACHE_DIR", str(tmp_path / "cache"))
    m = tmp_path / "wall.json"
    m.write_text(json.dumps(WALL_MODEL), encoding="utf-8")
    code = main(["effective", str(m), "--qbound", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "ray" in err
