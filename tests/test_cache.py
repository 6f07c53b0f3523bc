import json

from glsmkit import cache
from glsmkit.cache import cache_get, cache_put, job_key
from glsmkit.cli import main
from glsmkit.model import parse_model

from conftest import P1, QUINTIC


def test_job_key_deterministic():
    m = parse_model(json.dumps(P1))
    k1 = job_key(m, "ifun", {"q_bound": "2", "t_order": 0})
    k2 = job_key(m, "ifun", {"q_bound": "2", "t_order": 0})
    assert k1 == k2


def test_job_key_sensitive_to_every_field():
    m = parse_model(json.dumps(P1))
    other = parse_model(json.dumps(QUINTIC))
    base = job_key(m, "ifun", {"q_bound": "2", "t_order": 0})
    assert base != job_key(other, "ifun", {"q_bound": "2", "t_order": 0})
    assert base != job_key(m, "glsm-ifun", {"q_bound": "2", "t_order": 0})
    assert base != job_key(m, "ifun", {"q_bound": "3", "t_order": 0})
    assert base != job_key(m, "ifun", {"q_bound": "2", "t_order": 1})
    assert base != job_key(m, "ifun", {"q_bound": "2", "t_order": 0}, {"insertions": ["t1=rho1"]})


def test_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("GLSMKIT_CACHE_DIR", str(tmp_path))
    assert cache_get("deadbeef") is None
    cache_put("deadbeef", "payload\n")
    assert cache_get("deadbeef") == "payload\n"
    # overwrite is atomic rename, last write wins
    cache_put("deadbeef", "other\n")
    assert cache_get("deadbeef") == "other\n"


def test_entry_must_match_its_digest(tmp_path, monkeypatch):
    monkeypatch.setenv("GLSMKIT_CACHE_DIR", str(tmp_path))
    cache_put("deadbeef", "payload\n")
    (tmp_path / "deadbeef.json").write_text("payloaD\n", encoding="utf-8")
    assert cache_get("deadbeef") is None
    cache_put("deadbeef", "payload\n")
    (tmp_path / "deadbeef.sha256").unlink()
    assert cache_get("deadbeef") is None
    (tmp_path / "deadbeef.json").write_bytes(b"\xff\xfe")
    assert cache_get("deadbeef") is None


def test_entry_moved_to_another_key_is_recomputed(tmp_path, monkeypatch, capsys):
    # swap the two keys' .json/.sha256 pairs: each entry still matches the digest beside it
    directory = tmp_path / "cache"
    monkeypatch.setenv("GLSMKIT_CACHE_DIR", str(directory))
    path = tmp_path / "p1.json"
    path.write_text(json.dumps(P1), encoding="utf-8")
    outputs, keys = {}, {}
    for bound in ("2", "3"):
        before = set(directory.glob("*.json"))
        assert main(["ifun", str(path), "--qbound", bound]) == 0
        outputs[bound] = capsys.readouterr().out
        (entry,) = set(directory.glob("*.json")) - before
        keys[bound] = entry.stem
    assert outputs["2"] != outputs["3"]
    for suffix in (".json", ".sha256"):
        two, three = (directory / f"{keys[bound]}{suffix}" for bound in ("2", "3"))
        two_bytes = two.read_bytes()
        two.write_bytes(three.read_bytes())
        three.write_bytes(two_bytes)
    assert cache_get(keys["2"]) is None and cache_get(keys["3"]) is None
    assert main(["ifun", str(path), "--qbound", "2"]) == 0
    assert capsys.readouterr().out == outputs["2"]
    assert cache_get(keys["2"]) == outputs["2"]


def test_entry_that_is_not_utf8_is_a_miss(tmp_path, monkeypatch):
    # the digest matches the bytes, so only the decoding can refuse them
    monkeypatch.setenv("GLSMKIT_CACHE_DIR", str(tmp_path))
    cache._store(tmp_path, "deadbeef", b"\xff\xfe")
    assert cache_get("deadbeef") is None


def test_job_key_follows_the_library_sources(monkeypatch):
    m = parse_model(json.dumps(P1))
    base = job_key(m, "ifun", {"q_bound": "2", "t_order": 0})
    monkeypatch.setattr(cache, "sources_sha256", lambda: "0" * 64)
    assert base != job_key(m, "ifun", {"q_bound": "2", "t_order": 0})
