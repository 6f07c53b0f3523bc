import json
from fractions import Fraction

import pytest

from glsmkit import specialize as families
from glsmkit.cli import cli, main

from conftest import CUBIC, P1, QUINTIC, WALL_MODEL


@pytest.fixture
def run(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("GLSMKIT_CACHE_DIR", str(tmp_path / "cache"))

    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture
def model_file(tmp_path):
    def _write(data, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    return _write


def test_validate_quintic(run, model_file):
    code, out, err = run("validate", model_file(QUINTIC))
    assert code == 0, err
    payload = json.loads(out)
    assert payload["overall"] == "pass"


def test_validate_failure_exit1(run, model_file):
    bad = dict(P1)
    bad["weights"] = [[2, 2]]
    bad["r_charges"] = [1, 0]
    bad["d_w"] = 2
    code, out, err = run("validate", model_file(bad))
    assert code == 1
    assert json.loads(out)["overall"] == "fail"


def test_missing_file_exit2(run):
    code, _out, err = run("validate", "no-such-file.json")
    assert code == 2
    assert "error" in err


def test_bad_flag_exit2(run, model_file):
    code, _out, _err = run("effective", model_file(P1), "--qbound", "x")
    assert code == 2


def test_sectors_cubic(run, model_file):
    code, out, _ = run("sectors", model_file(CUBIC))
    assert code == 0
    payload = json.loads(out)
    assert [s["lambda"] for s in payload["sectors"]] == [["0"], ["1/3"], ["2/3"]]


def test_effective_cubic(run, model_file):
    code, out, _ = run("effective", model_file(CUBIC), "--qbound", "2")
    assert code == 0
    payload = json.loads(out)
    assert [d["theta_degree"] for d in payload["degrees"]] == ["0", "1/3", "2/3", "1", "4/3", "5/3", "2"]


def test_glsm_ifun_cubic_broad_removed(run, model_file):
    code, out, _ = run("glsm-ifun", model_file(CUBIC), "--qbound", "2", "--torder", "0")
    assert code == 0
    payload = json.loads(out)
    assert [t["theta_degree"] for t in payload["terms"]] == ["1/3", "2/3", "4/3", "5/3"]


def test_ifun_with_insert(run, model_file):
    code, out, _ = run(
        "ifun", model_file(P1), "--qbound", "1", "--torder", "2", "--insert", "t1=rho1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["state"] == "ambient"
    assert any(t["t_exponent"] == [2] for t in payload["terms"])


def test_dz_verify(run, model_file):
    code, out, _ = run(
        "dz", model_file(P1), "--rho", "rho1", "--qbound", "2", "--torder", "0", "--method", "verify"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["state"] == "ambient"


def test_dz_caches_only_the_base_series(run, model_file, tmp_path):
    code, _out, _err = run("dz", model_file(P1), "--rho", "rho1", "--qbound", "2")
    assert code == 0
    entries = list((tmp_path / "cache").glob("*.json"))
    assert len(entries) == 1
    code, ifun_out, _err = run("ifun", model_file(P1), "--qbound", "2")
    assert code == 0
    assert entries[0].read_text(encoding="utf-8") == ifun_out
    assert list((tmp_path / "cache").glob("*.json")) == entries


def test_cache_byte_identity(run, model_file, tmp_path):
    path = model_file(QUINTIC)
    code1, out1, _ = run("glsm-ifun", path, "--qbound", "2")
    code2, out2, _ = run("glsm-ifun", path, "--qbound", "2")
    code3, out3, _ = run("glsm-ifun", path, "--qbound", "2", "--no-cache")
    assert code1 == code2 == code3 == 0
    assert out1 == out2 == out3
    assert list((tmp_path / "cache").glob("*.json"))


def test_compare_equal_and_restricted(run, model_file, tmp_path):
    path = model_file(P1)
    a = tmp_path / "a.series"
    b = tmp_path / "b.series"
    run("ifun", path, "--qbound", "2", "--out", str(a))
    run("ifun", path, "--qbound", "3", "--out", str(b))
    code, out, _ = run("compare", str(a), str(b), "--format", "text")
    assert code == 0
    assert "equal on common truncation" in out


def test_malformed_map_and_rho_name_the_flag(run, model_file, tmp_path):
    a = tmp_path / "a.series"
    run("ifun", model_file(P1), "--qbound", "1", "--out", str(a))
    code, _out, err = run("compare", str(a), str(a), "--map", "t1")
    assert code == 2
    assert err == "error: --map expects old=new pairs, got 't1'\n"
    code, _out, err = run("dz", model_file(P1), "--rho", "rhoX", "--qbound", "1")
    assert code == 2
    assert err == "error: --rho expects rhoI or comma-separated integers, got 'rhoX'\n"


def test_compare_detects_difference(run, model_file, tmp_path):
    a = tmp_path / "a.series"
    b = tmp_path / "b.series"
    run("ifun", model_file(QUINTIC), "--qbound", "2", "--out", str(a))
    run("glsm-ifun", model_file(QUINTIC, "m2.json"), "--qbound", "2", "--out", str(b))
    code, out, _ = run("compare", str(a), str(b))
    assert code == 1
    assert json.loads(out)["diff"]


def test_check_ct(run, model_file, tmp_path):
    glsm = tmp_path / "glsm.series"
    amb = tmp_path / "amb.series"
    run("glsm-ifun", model_file(QUINTIC), "--qbound", "2", "--out", str(glsm))
    run("ifun", model_file(QUINTIC, "m2.json"), "--qbound", "2", "--out", str(amb))
    code, out, _ = run("check-ct", str(glsm))
    assert code == 0
    assert json.loads(out)["violations"] == []
    code2, out2, _ = run("check-ct", str(amb))
    assert code2 == 1
    assert json.loads(out2)["violations"]


def test_render_latex_unit(run, model_file, tmp_path):
    series = tmp_path / "s.series"
    run("ifun", model_file(P1), "--qbound", "0", "--out", str(series))
    code, out, _ = run("render-latex", str(series))
    assert code == 0
    assert out.strip() == "\\mathbb{1}_{(0)}"


def test_latex_p1_shape(run, model_file):
    code, out, _ = run("ifun", model_file(P1), "--qbound", "1", "--format", "latex")
    assert code == 0
    assert "z^{-2}" in out and "\\mathbb{1}_{(0)}" in out and "q^{1}" in out


FJRW_SPEC = {
    "specialize": {
        "kind": "fjrw",
        "n": 1,
        "d_w": 3,
        "r_charges": [1],
        "group": [{"order": 3, "action": [1]}],
        "potential": "x1^3",
    }
}


def test_specialize_fjrw(run, tmp_path):
    spec_file = tmp_path / "fjrw.json"
    spec_file.write_text(json.dumps(FJRW_SPEC), encoding="utf-8")
    code, out, _ = run("specialize", "fjrw", str(spec_file), "--qbound", "2", "--torder", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["crosscheck"]["equal"]


def test_specialize_ci(run, tmp_path):
    spec_file = tmp_path / "ci.json"
    spec_file.write_text(
        json.dumps(
            {
                "specialize": {
                    "kind": "ci",
                    "ambient": {"r": 5, "k": 1, "weights": [[1, 1, 1, 1, 1]], "theta": ["1"]},
                    "taus": [[5]],
                    "sections": ["x1^5+x2^5+x3^5+x4^5+x5^5"],
                    "semipositive_asserted": True,
                    "pairing_nondegenerate_asserted": True,
                }
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = run("specialize", "ci", str(spec_file), "--qbound", "2")
    assert code == 0
    assert json.loads(out)["crosscheck"]["equal"]


def test_thread_env_determinism(run, model_file):
    path = model_file(QUINTIC)
    outputs = []
    for _ in range(3):
        code, out, _ = run("glsm-ifun", path, "--qbound", "2", "--no-cache")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_out_writes_file(run, model_file, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run("validate", model_file(P1), "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["overall"] == "pass"


def test_glsm_hypothesis_violation_exit1(run, model_file):
    bad = {
        "r": 3,
        "k": 1,
        "weights": [[1, -1, 2]],
        "r_charges": [0, 0, 2],
        "d_w": 2,
        "theta": ["1"],
        "potential": None,
    }
    code, _out, err = run("glsm-ifun", model_file(bad), "--qbound", "1")
    assert code == 1
    assert "invariant" in err


THETA_ZERO = dict(P1, theta=["0"])


@pytest.mark.parametrize(
    "model, argv, message",
    [
        (THETA_ZERO, ["effective", "--qbound", "1"], "theta = 0"),
        (THETA_ZERO, ["ifun", "--qbound", "1"], "theta = 0"),
        (THETA_ZERO, ["glsm-ifun", "--qbound", "1"], "theta = 0"),
        (THETA_ZERO, ["dz", "--rho", "rho1", "--qbound", "1"], "theta = 0"),
        (WALL_MODEL, ["sectors"], "infinite sector family"),
    ],
    ids=["effective", "ifun", "glsm-ifun", "dz", "sectors-wall"],
)
def test_degenerate_stability_exits_1(run, model_file, model, argv, message):
    code, _out, err = run(argv[0], model_file(model), *argv[1:])
    assert code == 1, err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "model, argv",
    [
        (P1, ["ifun", "--qbound", "1"]),
        (P1, ["glsm-ifun", "--qbound", "1"]),
        (P1, ["dz", "--rho", "rho1", "--qbound", "1"]),
        (FJRW_SPEC, ["specialize", "fjrw", "--qbound", "1"]),
    ],
    ids=["ifun", "glsm-ifun", "dz", "specialize"],
)
def test_negative_torder_exits_2(run, model_file, model, argv):
    code, out, err = run(*argv, model_file(model), "--torder", "-1")
    assert code == 2, err
    assert out == ""
    assert err.startswith("error: ") and "--torder" in err


@pytest.fixture
def argvs(run, model_file, tmp_path):
    """A working argv, without --format, of every subcommand that renders an artifact."""
    model = model_file(P1)
    series = tmp_path / "p1.series"
    run("ifun", model, "--qbound", "1", "--out", str(series))
    return {
        "validate": ["validate", model],
        "sectors": ["sectors", model],
        "effective": ["effective", model, "--qbound", "1"],
        "ifun": ["ifun", model, "--qbound", "1"],
        "glsm-ifun": ["glsm-ifun", model, "--qbound", "1"],
        "dz": ["dz", model, "--rho", "rho1", "--qbound", "1"],
        "check-ct": ["check-ct", str(series)],
        "specialize": ["specialize", "fjrw", model_file(FJRW_SPEC, "fjrw.json"), "--qbound", "2"],
        "compare": ["compare", str(series), str(series)],
    }


def offered_formats(name):
    """The --format choices of a subcommand, or None when it has no --format."""
    return next((list(p.type.choices) for p in cli.commands[name].params if p.name == "fmt"), None)


def test_format_choices_per_command():
    assert {name: offered_formats(name) for name in cli.commands} == {
        "validate": ["json", "text"],
        "sectors": ["json", "text"],
        "effective": ["json", "text"],
        "compare": ["json", "text"],
        "ifun": ["json", "latex", "text"],
        "glsm-ifun": ["json", "latex", "text"],
        "dz": ["json", "latex", "text"],
        "specialize": ["json", "latex"],
        "check-ct": None,
        "render-latex": None,
    }


@pytest.mark.parametrize(
    "command", ["validate", "sectors", "effective", "ifun", "glsm-ifun", "dz", "check-ct", "specialize", "compare"]
)
def test_each_offered_format_renders_something_else_than_json(run, argvs, command):
    code, as_json, err = run(*argvs[command])
    assert code == 0, err
    for fmt in (offered_formats(command) or [])[1:]:
        code, rendered, err = run(*argvs[command], "--format", fmt)
        assert code == 0, err
        assert rendered.strip() and rendered != as_json, fmt


DROPPED_FORMATS = [(c, "latex") for c in ("validate", "sectors", "effective", "compare")] + [
    ("specialize", "text"),
    ("check-ct", "json"),
    ("check-ct", "latex"),
    ("check-ct", "text"),
]


@pytest.mark.parametrize("command, fmt", DROPPED_FORMATS, ids=[f"{c}-{f}" for c, f in DROPPED_FORMATS])
def test_format_not_offered_exits_2(run, argvs, command, fmt):
    code, out, err = run(*argvs[command], "--format", fmt)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "--format" in err


def test_specialize_calls_family_functions_through_their_module(run, model_file, monkeypatch):
    # each call reads the specialize module's attribute, so a wrapper set there sees it
    calls = []

    def spy(name):
        real = getattr(families, name)
        return lambda *args: calls.append((name, args[1:])) or real(*args)

    for name in ("fjrw_direct_series", "fjrw_crosscheck"):
        monkeypatch.setattr(families, name, spy(name))
    code, _out, err = run("specialize", "fjrw", model_file(FJRW_SPEC), "--qbound", "2", "--torder", "1")
    assert code == 0, err
    # the CLI's two calls, then the direct series the cross-check computes itself
    names = ["fjrw_direct_series", "fjrw_crosscheck", "fjrw_direct_series"]
    assert calls == [(name, (Fraction(2), 1)) for name in names]
    code, _out, err = run("specialize", "quintic", model_file(FJRW_SPEC), "--qbound", "2")
    assert code == 2 and "'fjrw', 'hybrid', 'ci'" in err
