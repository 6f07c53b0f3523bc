import contextlib
import gc
import io
import json
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from glsmkit import cache
from glsmkit import specialize as families
from glsmkit.cli import COMMANDS, FAMILIES, main
from glsmkit.model import model_from_dict, model_hash

from conftest import CUBIC, P1, QUINTIC, RANK2, WALL_MODEL


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


def test_checked_in_model_is_the_quintic(run):
    # the CI step on a bare install runs `glsmkit ifun` on this file
    path = Path(__file__).resolve().parent / "data" / "quintic.json"
    assert json.loads(path.read_text(encoding="utf-8")) == QUINTIC
    code, out, err = run("ifun", str(path), "--qbound", "2", "--no-cache")
    assert code == 0, err
    assert json.loads(out)["model"]["weights"] == QUINTIC["weights"]


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
    entries = list((tmp_path / "cache").iterdir())
    assert [entry.suffix for entry in entries] == [".entry"]
    code, ifun_out, _err = run("ifun", model_file(P1), "--qbound", "2")
    assert code == 0
    assert cache.cache_get(entries[0].stem) == ifun_out
    assert list((tmp_path / "cache").iterdir()) == entries


def test_cache_byte_identity(run, model_file, tmp_path):
    path = model_file(QUINTIC)
    code1, out1, _ = run("glsm-ifun", path, "--qbound", "2")
    code2, out2, _ = run("glsm-ifun", path, "--qbound", "2")
    code3, out3, _ = run("glsm-ifun", path, "--qbound", "2", "--no-cache")
    assert code1 == code2 == code3 == 0
    assert out1 == out2 == out3
    assert list((tmp_path / "cache").glob("*.entry"))


def test_spellings_of_one_insertion_share_a_cache_entry(run, model_file, tmp_path):
    # the key holds the parsed insertion, not its spelling: t=rho1 and t=1*rho1 wrote two entries
    path = model_file(QUINTIC)
    argv = ("ifun", path, "--qbound", "1", "--torder", "1")
    first = run(*argv, "--insert", "t=rho1")
    entries = sorted((tmp_path / "cache").iterdir())
    assert run(*argv, "--insert", "t=1*rho1") == first
    assert run("dz", path, "--rho", "rho1", "--qbound", "1", "--torder", "1", "--insert", "t=1*rho1")[0] == 0
    assert sorted((tmp_path / "cache").iterdir()) == entries
    # a different name or coefficient is a different entry
    run(*argv, "--insert", "s=rho1")
    run(*argv, "--insert", "t=2*rho1")
    assert len(list((tmp_path / "cache").iterdir())) == len(entries) + 2


# the three renderings of a cached ifun series, and dz, which parses the same entry
CACHED_JOBS = {
    "ifun-json": ("ifun", "--format", "json"),
    "ifun-text": ("ifun", "--format", "text"),
    "ifun-latex": ("ifun", "--format", "latex"),
    "dz": ("dz", "--rho", "rho1"),
}
FAULTS = {
    "truncated": lambda text: text[: len(text) // 2],
    "tampered": lambda text: '{"garbage": 1}',
}


@pytest.mark.parametrize("fault", list(FAULTS))
@pytest.mark.parametrize("job", list(CACHED_JOBS))
def test_corrupt_cache_entry_is_recomputed(run, model_file, tmp_path, job, fault):
    command, *opts = CACHED_JOBS[job]
    argv = (command, model_file(QUINTIC), "--qbound", "2", *opts)
    expected = run(*argv, "--no-cache")
    assert expected[0] == 0
    assert run(*argv) == expected
    (entry,) = (tmp_path / "cache").iterdir()
    stored = cache.cache_get(entry.stem)
    assert stored is not None
    entry.write_text(FAULTS[fault](entry.read_text(encoding="utf-8")), encoding="utf-8")
    assert run(*argv) == expected
    # the miss overwrote the entry with a verified one
    assert cache.cache_get(entry.stem) == stored


@pytest.mark.parametrize("job", list(CACHED_JOBS))
def test_stale_key_entry_is_not_served(run, model_file, tmp_path, monkeypatch, job):
    command, *opts = CACHED_JOBS[job]
    path = model_file(QUINTIC)
    argv = (command, path, "--qbound", "2", *opts)
    expected = run(*argv, "--no-cache")
    _code, other, _err = run("ifun", path, "--qbound", "1", "--no-cache")
    with monkeypatch.context() as patch:
        # older library sources stored a well-formed, different series under this job's key
        patch.setattr(cache, "sources_sha256", lambda: "0" * 64)
        run(*argv)
        (entry,) = (tmp_path / "cache").glob("*.entry")
        cache.cache_put(entry.stem, other)
        assert run(*argv) != expected
    assert run(*argv) == expected


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


@pytest.mark.parametrize("item", ["rho01", "rho+1", "rho 1", "rho\u0661", "rho0", "rho7"])
def test_rho_reads_only_the_names_insert_reads(run, model_file, item):
    # --rho names a column as --insert does, rho1..rhoR in that spelling only: rho01 is not rho1
    code, out, err = run("dz", model_file(QUINTIC), "--rho", item, "--qbound", "1")
    assert (code, out) == (2, "")
    assert err == f"error: --rho expects rhoI or comma-separated integers, got {item!r}\n"


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


CI_SPEC = {
    "specialize": {
        "kind": "ci",
        "ambient": {"r": 5, "k": 1, "weights": [[1, 1, 1, 1, 1]], "theta": ["1"]},
        "taus": [[5]],
        "sections": ["x1^5+x2^5+x3^5+x4^5+x5^5"],
        "semipositive_asserted": True,
        "pairing_nondegenerate_asserted": True,
    }
}

HYBRID_SPEC = {"specialize": {"kind": "hybrid", "x_weights": [1], "p_weights": [3]}}


def test_specialize_ci(run, tmp_path):
    spec_file = tmp_path / "ci.json"
    spec_file.write_text(json.dumps(CI_SPEC), encoding="utf-8")
    code, out, _ = run("specialize", "ci", str(spec_file), "--qbound", "2")
    assert code == 0
    assert json.loads(out)["crosscheck"]["equal"]


SPEC_FILES = {"fjrw": FJRW_SPEC, "hybrid": HYBRID_SPEC, "ci": CI_SPEC}
MISMATCHED = [(asked, given) for asked in SPEC_FILES for given in SPEC_FILES if asked != given]


@pytest.mark.parametrize("asked, given", MISMATCHED, ids=[f"{a}-on-{g}" for a, g in MISMATCHED])
def test_specialize_kind_must_match_the_file(run, model_file, asked, given):
    code, out, err = run("specialize", asked, model_file(SPEC_FILES[given]), "--qbound", "1")
    assert code == 2, err
    assert out == ""
    assert err.startswith("error: ") and f"specialize {asked} " in err and repr(given) in err


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


@pytest.mark.parametrize("where", ["missing_directory", "file_as_directory"])
@pytest.mark.parametrize("command", ["ifun", "validate", "specialize"])
def test_unwritable_out_exits_2_naming_it(run, argvs, tmp_path, command, where):
    # a missing parent directory, or a regular file where the directory should be: the write
    # used to end in a FileNotFoundError or NotADirectoryError traceback
    if where == "file_as_directory":
        (tmp_path / "blocker").write_text("", encoding="utf-8")
    target = str(tmp_path / ("nonexistent" if where == "missing_directory" else "blocker") / "x.json")
    code, out, err = run(*argvs[command], "--out", target)
    assert code == 2, err
    assert out == ""
    assert err.startswith("error: ") and "--out" in err and target in err, err


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
        (THETA_ZERO, ["sectors"], "theta = 0"),
        ("series", ["check-ct"], "theta = 0"),
        ("series", ["compare", "@series"], "theta = 0"),
        ("series", ["render-latex"], "theta = 0"),
    ],
    ids=["effective", "ifun", "glsm-ifun", "dz", "sectors-wall", "sectors-theta-zero", "check-ct", "compare",
         "render-latex"],
)
def test_degenerate_stability_exits_1(run, model_file, tmp_path, model, argv, message):
    path = _theta_zero_series(run, model_file, tmp_path) if model == "series" else model_file(model)
    code, _out, err = run(argv[0], path, *(path if token == "@series" else token for token in argv[1:]))
    assert code == 1, err
    assert err.startswith("error: ") and message in err


def _theta_zero_series(run, model_file, tmp_path):
    """A P1 series file whose model has theta = 0, with the model_hash of that model: it used to read back."""
    path = tmp_path / "theta-zero.series"
    assert run("ifun", model_file(P1), "--qbound", "0", "--out", str(path))[0] == 0
    data = json.loads(path.read_text(encoding="utf-8"))
    data["model"]["theta"] = ["0"]
    data["model_hash"] = model_hash(model_from_dict(data["model"]))
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


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


@pytest.mark.parametrize(
    "model, argv",
    [
        (P1, ["ifun"]),
        (P1, ["glsm-ifun"]),
        (P1, ["dz", "--rho", "rho1"]),
        (FJRW_SPEC, ["specialize", "fjrw"]),
        (P1, ["effective"]),
    ],
    ids=["ifun", "glsm-ifun", "dz", "specialize", "effective"],
)
def test_negative_qbound_exits_2(run, model_file, model, argv):
    code, out, err = run(*argv, model_file(model), "--qbound", "-1")
    assert code == 2, err
    assert out == ""
    assert err.startswith("error: ") and "--qbound" in err


def test_repeated_insert_name_exits_2(run, model_file, tmp_path):
    code, out, err = run(
        "ifun", model_file(QUINTIC), "--qbound", "1", "--torder", "1", "--insert", "t=rho1", "--insert", "t=2*rho1"
    )
    assert code == 2, err
    assert out == ""
    assert err == "error: --insert names the variable 't' more than once\n"
    # a --map that sends two variables to one name is refused as well
    a = tmp_path / "a.series"
    argv = ["ifun", model_file(P1), "--qbound", "1", "--torder", "1", "--insert", "t=rho1", "--insert", "u=2*rho1"]
    run(*argv, "--out", str(a))
    code, out, err = run("compare", str(a), str(a), "--map", "u=t")
    assert code == 2, err
    assert "more than once" in err


@pytest.mark.parametrize(
    "insert, potential, err",
    [
        # each refused before any series is computed or cached
        ("t=rho1*", None, "--insert t syntax error at position 5: expected a coefficient or variable"),
        ("t=rho1+", None, "--insert t syntax error at position 5: expected a coefficient or variable"),
        ("t=1/0*rho1", None, "--insert t syntax error at position 0: invalid rational literal '1/0'"),
        (None, "p*x1^5*", "potential syntax error at position 7: expected a coefficient or variable"),
        (None, "p*x1^5* + p*x2^5", "potential syntax error at position 8: expected a coefficient or variable"),
    ],
    ids=["insert-star", "insert-plus", "insert-zero-denominator", "potential-star", "potential-inner-star"],
)
def test_malformed_polynomial_exits_2_before_any_work(run, model_file, tmp_path, insert, potential, err):
    model = dict(QUINTIC, potential=potential) if potential else QUINTIC
    argv = ["ifun", model_file(model), "--qbound", "1", "--torder", "1"]
    code, out, stderr = run(*argv, *(["--insert", insert] if insert else []))
    assert (code, out, stderr) == (2, "", f"error: {err}\n")
    assert not (tmp_path / "cache").exists() or not any((tmp_path / "cache").iterdir())


@pytest.mark.parametrize("name", ["", "1t", "t-1", "_aux"], ids=["empty", "digit", "dash", "underscore"])
@pytest.mark.parametrize(
    "argv", [["ifun"], ["glsm-ifun"], ["dz", "--rho", "rho1"]], ids=["ifun", "glsm-ifun", "dz"]
)
def test_insert_name_must_be_a_variable_name(run, model_file, argv, name):
    code, out, err = run(*argv, model_file(P1), "--qbound", "1", "--insert", f"{name}=rho1")
    assert code == 2, err
    assert out == ""
    assert err.startswith(f"error: invalid --insert NAME {name!r}")


def test_insert_declared_once():
    declared = {id(COMMANDS[name][2]["--insert"]) for name in ("ifun", "glsm-ifun", "dz")}
    assert len(declared) == 1 and "NAME=POLY" in COMMANDS["ifun"][2]["--insert"][3]


QB = ["--qbound", "1"]
# name -> (argv, expected); @p1, @rank2, @fjrw and @dir stand for files.  A str is a refusal:
# exit 2, no stdout, no cache entry, and stderr names the str.  A tuple (same, *held) is a
# success whose stdout is that of the argv `same` (unless None) and holds each of `held`.
CLI_SURFACE = {
    "rho-dash-leading": (["dz", "@rank2", "--rho", "-3,0", *QB], (["dz", "@rank2", "--rho", "rho3", *QB],)),
    "qbound-dash-leading": (["ifun", "@p1", "--qbound", "-1"], "--qbound"),
    "torder-negative": (["ifun", "@p1", *QB, "--torder", "-1"], "--torder"),
    "torder-not-an-integer": (["ifun", "@p1", *QB, "--torder", "abc"], "--torder"),
    "format-not-a-choice": (["ifun", "@p1", *QB, "--format", "bogus"], "--format"),
    "unknown-option": (["ifun", "@p1", *QB, "--bogus"], "--bogus"),
    "unknown-command": (["bogus", "@p1"], "bogus"),
    "extra-positional": (["ifun", "@p1", "extra.json", *QB], "extra.json"),
    "missing-qbound": (["ifun", "@p1"], "--qbound"),
    "missing-qbound-value": (["ifun", "@p1", "--qbound"], "--qbound"),
    "missing-rho": (["dz", "@p1", *QB], "--rho"),
    "missing-file": (["ifun", *QB], "FILE"),
    "insert-repeated": (
        ["ifun", "@p1", *QB, "--torder", "1", "--insert", "t=rho1", "--insert", "u=2*rho1"],
        (None, '"name":"t"', '"name":"u"'),
    ),
    "opt=value": (
        ["ifun", "@p1", "--qbound=1", "--torder=1", "--insert=t=rho1", "--format=text"],
        (["ifun", "@p1", *QB, "--torder", "1", "--insert", "t=rho1", "--format", "text"],),
    ),
    "crosscheck": (["specialize", "fjrw", "@fjrw", *QB, "--crosscheck"], (["specialize", "fjrw", "@fjrw", *QB],)),
    "no-crosscheck": (["specialize", "fjrw", "@fjrw", *QB, "--no-crosscheck"], (None, '"crosscheck": null')),
    "no-command": ([], ""),
    "version": (["--version"], (None, "glsmkit, version 0.1.0\n")),
    "out-is-a-directory": (["ifun", "@p1", *QB, "--out", "@dir"], "--out"),
}


@pytest.mark.parametrize("case", list(CLI_SURFACE))
def test_cli_surface(run, model_file, tmp_path, case):
    files = {"@p1": model_file(P1), "@rank2": model_file(RANK2, "rank2.json"),
             "@fjrw": model_file(FJRW_SPEC, "fjrw.json"), "@dir": str(tmp_path)}
    argv, expected = CLI_SURFACE[case]
    code, out, err = run(*(files.get(token, token) for token in argv))
    if isinstance(expected, str):
        assert code == 2, err
        assert out == ""
        assert err.startswith("error: ") and expected in err, err
        assert not list(tmp_path.glob("cache/*")), "a refused call wrote a cache entry"
        return
    same, *held = expected
    assert code == 0, err
    assert out and all(text in out for text in held), out
    if same is not None:
        assert out == run(*(files.get(token, token) for token in same))[1]
    if case == "version":
        assert out == held[0]


# argv, each with a number typed in a spelling other than an optional '-' and ASCII digits, and the option,
# field or position its refusal names; each exited 0 before `scalars` read every typed number by one rule
MISSPELLED_NUMBERS = {
    "qbound-arabic-indic": (["ifun", "@p1", "--qbound", "\u0661"], "--qbound"),
    "qbound-underscore": (["ifun", "@p1", "--qbound", "1_0"], "--qbound"),
    "qbound-plus": (["ifun", "@p1", "--qbound", "+2"], "--qbound"),
    "torder-arabic-indic": (["ifun", "@p1", *QB, "--torder", "\u0661", "--insert", "t=rho1"], "--torder"),
    "insert-arabic-indic": (
        ["ifun", "@p1", *QB, "--torder", "1", "--insert", "t=\u0661*rho1"],
        "--insert t syntax error at position 0",
    ),
    "theta-arabic-indic": (["validate", "@theta"], "theta: invalid rational literal"),
    "rho-underscore": (["dz", "@p1", "--rho", "1_0", *QB], "--rho"),
    "rho-plus": (["dz", "@p1", "--rho", "+1", *QB], "--rho"),
    "rho-arabic-indic": (["dz", "@p1", "--rho", "\u0661", *QB], "--rho"),
}


@pytest.mark.parametrize("case", list(MISSPELLED_NUMBERS))
def test_a_typed_number_has_ascii_digits(run, model_file, case):
    files = {"@p1": model_file(P1), "@theta": model_file(dict(P1, theta=["\u0661"]), "theta.json")}
    argv, named = MISSPELLED_NUMBERS[case]
    code, out, err = run(*(files.get(token, token) for token in argv))
    assert code == 2, err
    assert out == ""
    assert err.startswith("error: ") and named in err, err


@pytest.mark.parametrize(
    "field, value",
    [
        ("theta", 5),
        ("r_charges", None),
        ("weights", None),
        ("variables", 5),
        ("theta", [None]),
        ("theta", [[1]]),
        ("theta", [1.5]),
        ("theta", [True]),
    ],
    ids=["theta-int", "r_charges-null", "weights-null", "variables-int", "theta-null", "theta-list", "theta-float",
         "theta-bool"],
)
def test_malformed_model_field_exits_2(run, model_file, field, value):
    bad = dict(P1)
    bad[field] = value
    code, out, err = run("validate", model_file(bad))
    assert code == 2, err
    assert out == ""
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize(
    "kind, key, value, field",
    [
        ("ci", "taus", None, "taus"),
        ("hybrid", "p_weights", [2.5], "p_weights"),
        ("ci", "ambient", {"r": 5, "k": 1, "weights": [[1, 1, 1, 1, 1]], "theta": ["1", "2"]}, "theta"),
    ],
    ids=["ci-taus-null", "hybrid-p_weights-float", "ci-theta-too-long"],
)
def test_malformed_specialize_field_exits_2(run, model_file, kind, key, value, field):
    spec = dict({"ci": CI_SPEC, "hybrid": HYBRID_SPEC}[kind]["specialize"])
    spec[key] = value
    code, out, err = run("specialize", kind, model_file({"specialize": spec}), "--qbound", "1")
    assert code == 2, err
    assert out == ""
    assert err.startswith("error: ") and field in err


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
        "render-latex": ["render-latex", str(series)],
    }


def offered_formats(name):
    """The --format choices of a subcommand, or None when it has no --format."""
    option = COMMANDS[name][2].get("--format")
    return list(option[1]) if option else None


def test_format_choices_per_command():
    assert {name: offered_formats(name) for name in COMMANDS} == {
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


CACHED_COMMANDS = ("ifun", "glsm-ifun", "dz")
STDOUT_ARTIFACTS = [
    (command, fmt, cached)
    for command in COMMANDS
    for fmt in offered_formats(command) or [None]
    for cached in (("miss", "hit") if command in CACHED_COMMANDS else (None,))
]


@pytest.mark.parametrize(
    "command, fmt, cached",
    STDOUT_ARTIFACTS,
    ids=["-".join(part for part in case if part) for case in STDOUT_ARTIFACTS],
)
def test_in_process_call_keeps_no_captured_stdout(run, argvs, tmp_path, monkeypatch, command, fmt, cached):
    # every call writes to a fresh StringIO; once main returns, nothing may hold it
    monkeypatch.setenv("GLSMKIT_CACHE_DIR", str(tmp_path / "fresh-cache"))
    argv = argvs[command] + (["--format", fmt] if fmt else [])
    refs = []
    for _ in range(2 if cached == "hit" else 1):  # the first call stores, the second reads the entry
        stream = io.StringIO()
        with contextlib.redirect_stdout(stream):
            assert main(argv) == 0
        assert stream.getvalue()
        refs.append(weakref.ref(stream))
        del stream
    gc.collect()
    assert all(ref() is None for ref in refs)


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["--version"], ["ifun", "--help"], ["specialize", "--help"]],
    ids=["help", "version", "ifun-help", "specialize-help"],
)
def test_in_process_help_and_version_keep_no_captured_stdout(argv):
    # click would print these through its per-stream cache; they are written by _emit
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        assert main(argv) == 0
    assert stream.getvalue().endswith("\n")
    ref = weakref.ref(stream)
    del stream
    gc.collect()
    assert ref() is None


def test_specialize_calls_family_functions_through_their_module(run, model_file, monkeypatch):
    # each call reads the specialize module's attribute, so a wrapper set there sees it;
    # the direct series is computed once and the cross-check receives that very object
    for kind, spec in SPEC_FILES.items():
        calls = []

        def spy(name):
            real = getattr(families, name)

            def called(*args, **kwargs):
                result = real(*args, **kwargs)
                calls.append((name, args[1:], kwargs, result))
                return result

            return called

        direct_name, check_name = FAMILIES[kind]
        for name in (direct_name, check_name):
            monkeypatch.setattr(families, name, spy(name))
        code, _out, err = run("specialize", kind, model_file(spec, f"{kind}.json"), "--qbound", "2", "--torder", "1")
        assert code == 0, err
        assert [(name, args) for name, args, _kwargs, _result in calls] == [
            (direct_name, (Fraction(2), 1)),
            (check_name, (Fraction(2), 1)),
        ]
        assert calls[0][2] == {} and set(calls[1][2]) == {"direct"}
        assert calls[1][2]["direct"] is calls[0][3]
    code, _out, err = run("specialize", "quintic", model_file(FJRW_SPEC), "--qbound", "2")
    assert code == 2 and "'fjrw', 'hybrid', 'ci'" in err


@pytest.mark.parametrize("rho", [";", " ", "; ;"], ids=["semicolon", "blank", "semicolons"])
def test_rho_naming_no_character_exits_2(run, model_file, rho):
    code, out, err = run("dz", model_file(P1), "--rho", rho, "--qbound", "2")
    assert code == 2, err
    assert out == ""
    assert err == f"error: --rho names no character, got {rho!r}\n"


def test_map_renaming_one_name_twice_exits_2(run, model_file, tmp_path):
    a = tmp_path / "a.series"
    run("ifun", model_file(P1), "--qbound", "1", "--torder", "1", "--insert", "a=rho1", "--out", str(a))
    # the last pair used to win, and the first was dropped without a word
    code, out, err = run("compare", str(a), str(a), "--map", "a=b,a=a")
    assert code == 2, err
    assert out == ""
    assert err == "error: --map renames 'a' more than once\n"


def test_map_naming_an_unknown_variable_exits_2(run, model_file, tmp_path):
    a = tmp_path / "a.series"
    run("ifun", model_file(P1), "--qbound", "1", "--torder", "1", "--insert", "t=rho1", "--out", str(a))
    code, out, err = run("compare", str(a), str(a), "--map", "zz=t")
    assert code == 2, err
    assert out == ""
    assert err.startswith("error: ") and "--map" in err and "'zz'" in err


def _second_of_its_degree(data):
    """The term at degree 1 and t-exponent (1,): the second of the terms of its degree."""
    return data["terms"][3]


STORED_SERIES_FAULTS = {
    "schema": (lambda data: data.update(schema="bogus"), "schema"),
    "state": (lambda data: data.update(state="quantum"), "state"),
    "model_hash": (lambda data: data.update(model_hash="0" * 64), "model_hash"),
    "theta_degree": (lambda data: _second_of_its_degree(data).update(theta_degree="7"), "theta_degree"),
    "sector_lambda": (lambda data: _second_of_its_degree(data).update(sector_lambda=["1/2"]), "sector_lambda"),
    "repeated_term": (lambda data: data["terms"].append(dict(_second_of_its_degree(data))), "key twice"),
    "term_also_vanished": (
        lambda data: data["vanished"].append({"degree": ["1"], "t_exponent": [1]}),
        "key twice",
    ),
    "term_above_q_bound": (lambda data: data["truncation"].update(q_bound="1"), "exceeds the truncation q_bound"),
    "term_above_t_order": (lambda data: data["truncation"].update(t_order=0), "exceeds the truncation t_order"),
    "vanished_above_q_bound": (
        lambda data: data["vanished"].append({"degree": ["3"], "t_exponent": [0]}),
        "exceeds the truncation q_bound",
    ),
}


@pytest.mark.parametrize("fault", list(STORED_SERIES_FAULTS))
def test_stored_series_with_a_field_that_disagrees_exits_2(run, model_file, tmp_path, fault):
    # each of these files was rendered, and compared equal to the original, before the reader checked them
    edit, field = STORED_SERIES_FAULTS[fault]
    a = tmp_path / "a.series"
    run("ifun", model_file(P1), "--qbound", "2", "--torder", "1", "--insert", "t=rho1", "--out", str(a))
    data = json.loads(a.read_text(encoding="utf-8"))
    assert (_second_of_its_degree(data)["degree"], _second_of_its_degree(data)["t_exponent"]) == (["1"], [1])
    edit(data)
    bad = tmp_path / "bad.series"
    bad.write_text(json.dumps(data), encoding="utf-8")
    for argv in (["render-latex", str(bad)], ["compare", str(a), str(bad)], ["check-ct", str(bad)]):
        code, out, err = run(*argv)
        assert code == 2, (argv, err)
        assert out == ""
        assert err.startswith("error: ") and field in err, err


def _class_at_degree_1_z_minus_3(payload):
    """An edit replacing the class {"H1": "-2"} of a P1 `ifun --qbound 2` file's degree-1 term at z^-3."""
    return lambda data: data["terms"][1]["z"].update({"-3": payload})


def _z_minus_3_spelled(key):
    """An edit moving the same file's degree-1 class at z^-3 to the z key `key`, a spelling the writer never writes."""
    return lambda data: data["terms"][1]["z"].update({key: data["terms"][1]["z"].pop("-3")})


def _degree_1_spelled(entry):
    """An edit respelling the same file's degree of terms[1], ["1"], as [entry]."""
    def edit(data):
        assert data["terms"][1]["degree"] == ["1"]
        data["terms"][1]["degree"] = [entry]
    return edit


# each edit of a P1 `ifun --qbound 2` file, and the message naming its field; an edit changes the
# payload in place, or returns the new top-level list or the new text
MALFORMED_SERIES = {
    "top_level_list": (lambda data: [data], "series file must be a JSON object"),
    "t_exponent_int": (
        lambda data: data["terms"][1].update(t_exponent=5),
        "series terms[1] t_exponent must be a list",
    ),
    "degree_int": (lambda data: data["terms"][1].update(degree=1), "series terms[1] degree must be a list"),
    "z_list": (lambda data: data["terms"][1].update(z=[1]), "series terms[1] z must be a JSON object"),
    "etas_int": (lambda data: data.update(etas=5), "series etas must be a list"),
    "vanished_degree_int": (
        lambda data: data["vanished"].append({"degree": 5, "t_exponent": []}),
        "series vanished[0] degree must be a list",
    ),
    "no_truncation": (lambda data: data.pop("truncation"), "series file missing required key 'truncation'"),
    "t_order_string": (
        lambda data: data["truncation"].update(t_order="x"),
        "series truncation t_order must be an integer",
    ),
    "not_json": (lambda data: "not json", "series JSON syntax error at line 1 column 1"),
    "negative_q_bound": (
        lambda data: data["truncation"].update(q_bound="-1"),
        "series truncation must be nonnegative",
    ),
    "eta_of_wrong_length": (lambda data: data.update(etas=[[1, 1]]), "series etas must each have k = 1 entries"),
    "t_exponent_without_insertion": (
        lambda data: data["terms"][1].update(t_exponent=[1]),
        "series terms[1] t_exponent must have one entry per insertion (0)",
    ),
    "powers_without_eta": (
        lambda data: data["insertions"].append({"name": "t", "poly": [{"powers": [1], "coeff": "1"}]}),
        "series insertion 't' powers must have one entry per eta (0)",
    ),
    "cyclotomic_coeffs_int": (
        _class_at_degree_1_z_minus_3({"H1": {"zeta_order": 6, "coeffs": 5}}),
        "series terms[1] z[-3]: coefficient of H1: coeffs must be a list of phi(6) rationals, got 5",
    ),
    "cyclotomic_coeffs_of_wrong_length": (
        _class_at_degree_1_z_minus_3({"H1": {"zeta_order": 6, "coeffs": ["1"]}}),
        "series terms[1] z[-3]: coefficient of H1: coeffs must be a list of phi(6) rationals",
    ),
    "zeta_order_far_above_its_coeffs": (
        _class_at_degree_1_z_minus_3({"H1": {"zeta_order": 10**12, "coeffs": ["1", "2"]}}),
        "series terms[1] z[-3]: coefficient of H1: coeffs must be a list of phi(1000000000000) rationals",
    ),
    "cyclotomic_coeff_float": (
        _class_at_degree_1_z_minus_3({"H1": {"zeta_order": 6, "coeffs": [1.5, "2"]}}),
        'series terms[1] z[-3]: coefficient of H1: coeffs[0]: expected an integer or a "p/q" string, got 1.5',
    ),
    "zeta_order_float": (
        _class_at_degree_1_z_minus_3({"H1": {"zeta_order": 6.5, "coeffs": ["1", "2"]}}),
        "series terms[1] z[-3]: coefficient of H1: zeta_order must be an integer >= 1, got 6.5",
    ),
    "zeta_order_bool": (
        _class_at_degree_1_z_minus_3({"H1": {"zeta_order": True, "coeffs": ["1"]}}),
        "series terms[1] z[-3]: coefficient of H1: zeta_order must be an integer >= 1, got true",
    ),
    "zeta_order_string": (
        _class_at_degree_1_z_minus_3({"H1": {"zeta_order": "x", "coeffs": ["1", "2"]}}),
        'series terms[1] z[-3]: coefficient of H1: zeta_order must be an integer >= 1, got "x"',
    ),
    "zeta_order_zero": (
        _class_at_degree_1_z_minus_3({"H1": {"zeta_order": 0, "coeffs": []}}),
        "series terms[1] z[-3]: coefficient of H1: zeta_order must be an integer >= 1, got 0",
    ),
    "coeff_bool": (
        _class_at_degree_1_z_minus_3({"H1": True}),
        'series terms[1] z[-3]: coefficient of H1: expected an integer or a "p/q" string, got true',
    ),
    "monomial_exponent": (
        _class_at_degree_1_z_minus_3({"H1^x": "-2"}),
        "series terms[1] z[-3]: invalid staircase monomial key 'H1^x'",
    ),
    "monomial_generator": (
        _class_at_degree_1_z_minus_3({"Hx": "-2"}),
        "series terms[1] z[-3]: invalid staircase monomial key 'Hx'",
    ),
    "monomial_outside_staircase": (
        _class_at_degree_1_z_minus_3({"H1^2": "-2"}),
        "series terms[1] z[-3]: invalid staircase monomial key 'H1^2'",
    ),
    "z_exponent_spelled_twice": (
        lambda data: data["terms"][1]["z"].update({"-0_3": {"H1": "7"}}),
        'series terms[1] z exponent must be an integer in canonical form, got "-0_3"',
    ),
    "monomial_spelled_twice": (
        _class_at_degree_1_z_minus_3({"H1": "-2", "H1^1": "12345"}),
        "series terms[1] z[-3]: invalid staircase monomial key 'H1^1'",
    ),
    "z_exponent_with_underscore": (
        _z_minus_3_spelled("-0_3"),
        'series terms[1] z exponent must be an integer in canonical form, got "-0_3"',
    ),
    "z_exponent_with_plus": (
        _z_minus_3_spelled("+3"),
        'series terms[1] z exponent must be an integer in canonical form, got "+3"',
    ),
    "z_exponent_with_space": (
        _z_minus_3_spelled(" -3"),
        'series terms[1] z exponent must be an integer in canonical form, got " -3"',
    ),
    "monomial_with_exponent_one": (
        _class_at_degree_1_z_minus_3({"H1^1": "-2"}),
        "series terms[1] z[-3]: invalid staircase monomial key 'H1^1'",
    ),
    "insertion_name_not_a_variable": (
        lambda data: data["insertions"].append({"name": "t}^{", "poly": []}),
        "invalid series insertion name 't}^{': expected a letter, then letters, digits or '_'",
    ),
    "insertion_name_empty": (
        lambda data: data["insertions"].append({"name": "", "poly": []}),
        "invalid series insertion name '': expected a letter, then letters, digits or '_'",
    ),
    "insertion_name_listed_twice": (
        lambda data: data["insertions"].extend([{"name": "t", "poly": []}, {"name": "t", "poly": []}]),
        "series insertion name 't' is listed twice",
    ),
    "vanished_out_of_order": (
        lambda data: data["vanished"].extend({"degree": [d], "t_exponent": []} for d in ("-1", "-2")),
        "series vanished must list its keys in ascending (degree, t_exponent) order",
    ),
    "terms_out_of_order": (
        lambda data: data["terms"].reverse(),
        "series terms[1] is out of ascending (theta_degree, degree, t_exponent) order",
    ),
    # a degree entry is read only as the writer spells it: each of these read as the degree 1 of terms[1]
    **{
        f"degree_{name}": (_degree_1_spelled(entry), message)
        for name, entry, message in [
            ("with_underscore", "0_1", "series terms[1] degree: invalid rational literal '0_1'"),
            ("arabic_indic", "\u0661", "series terms[1] degree: invalid rational literal '\u0661'"),
            ("with_plus", "+1", "series terms[1] degree: invalid rational literal '+1'"),
            ("unreduced", "2/2", 'series terms[1] degree entry "2/2" is not spelled \'1\''),
            ("leading_zero", "01", 'series terms[1] degree entry "01" is not spelled \'1\''),
            ("json_integer", 1, "series terms[1] degree entry 1 is not spelled '1'"),
        ]
    },
    "vanished_degree_unreduced": (
        lambda data: data["vanished"].append({"degree": ["-4/2"], "t_exponent": []}),
        'series vanished[0] degree entry "-4/2" is not spelled \'-2\'',
    ),
}


@pytest.mark.parametrize("fault", list(MALFORMED_SERIES))
def test_malformed_series_file_exits_2_naming_the_field(run, model_file, tmp_path, fault):
    # each of these files ended in a traceback, was accepted, or was refused without naming the field
    edit, message = MALFORMED_SERIES[fault]
    a = tmp_path / "a.series"
    run("ifun", model_file(P1), "--qbound", "2", "--out", str(a))
    data = json.loads(a.read_text(encoding="utf-8"))
    edited = edit(data)
    bad = tmp_path / "bad.series"
    bad.write_text(edited if isinstance(edited, str) else json.dumps(edited if isinstance(edited, list) else data))
    for argv in (["render-latex", str(bad)], ["compare", str(a), str(bad)], ["check-ct", str(bad)]):
        code, out, err = run(*argv)
        assert code == 2, (argv, err)
        assert out == ""
        assert err.startswith("error: ") and message in err, err


def test_series_q_bound_may_be_a_json_integer(run, model_file, tmp_path):
    # rationals in a series file follow the model file's rule: a JSON integer or a "p/q" string
    a = tmp_path / "a.series"
    run("ifun", model_file(P1), "--qbound", "2", "--out", str(a))
    data = json.loads(a.read_text(encoding="utf-8"))
    data["truncation"]["q_bound"] = 2
    b = tmp_path / "b.series"
    b.write_text(json.dumps(data), encoding="utf-8")
    assert run("render-latex", str(b)) == run("render-latex", str(a))
    assert run("compare", str(a), str(b))[0] == 0


def test_series_class_coefficients_may_be_json_integers(run, model_file, tmp_path):
    # a class coefficient, and each coordinate of a cyclotomic one, is a rational read by the same rule
    a = tmp_path / "a.series"
    run("ifun", model_file(P1), "--qbound", "2", "--out", str(a))
    data = json.loads(a.read_text(encoding="utf-8"))
    assert data["terms"][1]["z"]["-3"] == {"H1": "-2"}
    _class_at_degree_1_z_minus_3({"H1": -2})(data)
    b = tmp_path / "b.series"
    b.write_text(json.dumps(data), encoding="utf-8")
    assert run("render-latex", str(b)) == run("render-latex", str(a))
    assert run("compare", str(a), str(b))[0] == 0
    rendered = {}
    for coeffs in ([1, 2], ["1", "2"]):
        _class_at_degree_1_z_minus_3({"H1": {"zeta_order": 6, "coeffs": coeffs}})(data)
        b.write_text(json.dumps(data), encoding="utf-8")
        rendered[str(coeffs)] = run("render-latex", str(b))
    assert rendered["[1, 2]"] == rendered["['1', '2']"]
    assert rendered["[1, 2]"][0] == 0 and "2\\zeta_{6}" in rendered["[1, 2]"][1]


def test_unusable_cache_directory_exits_2(run, model_file, tmp_path, monkeypatch):
    # a regular file where the cache directory should be: the store used to end in a traceback
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("", encoding="utf-8")
    monkeypatch.setenv("GLSMKIT_CACHE_DIR", str(blocker))
    path = model_file(P1)
    code, out, err = run("ifun", path, "--qbound", "1")
    assert code == 2, err
    assert out == ""
    assert err.startswith("error: ") and "GLSMKIT_CACHE_DIR" in err and "--no-cache" in err, err
    code, out, err = run("ifun", path, "--qbound", "1", "--no-cache")
    assert code == 0, err
    assert json.loads(out)["truncation"] == {"q_bound": "1", "t_order": 0}
