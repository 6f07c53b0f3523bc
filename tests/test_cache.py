import json
import os
import tempfile
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    entry = tmp_path / "deadbeef.entry"
    digest, text = entry.read_bytes().split(b"\n", 1)
    entry.write_bytes(digest + b"\npayloaD\n")
    assert cache_get("deadbeef") is None
    entry.write_bytes(text)  # stripped of its digest line
    assert cache_get("deadbeef") is None
    entry.write_bytes(digest + b"\n\xff\xfe")
    assert cache_get("deadbeef") is None


def test_entry_moved_to_another_key_is_recomputed(tmp_path, monkeypatch, capsys):
    # swap the two keys' entries: each still matches its own digest line
    directory = tmp_path / "cache"
    monkeypatch.setenv("GLSMKIT_CACHE_DIR", str(directory))
    path = tmp_path / "p1.json"
    path.write_text(json.dumps(P1), encoding="utf-8")
    outputs, keys = {}, {}
    for bound in ("2", "3"):
        before = set(directory.glob("*.entry"))
        assert main(["ifun", str(path), "--qbound", bound]) == 0
        outputs[bound] = capsys.readouterr().out
        (entry,) = set(directory.glob("*.entry")) - before
        keys[bound] = entry.stem
    assert outputs["2"] != outputs["3"]
    two, three = (directory / f"{keys[bound]}.entry" for bound in ("2", "3"))
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


@settings(max_examples=10, deadline=None)
@given(st.text(max_size=8), st.text(max_size=8))
@example("", "")
@example("\n", "é\n∑\n")
@example("ζ₆\n\nq", "\n")
def test_only_the_untouched_entry_is_a_hit(text, other):
    # every truncation, every bit flip of every byte and another key's entry: a miss, never other text
    key, other_key = "a" * 64, "b" * 64
    with tempfile.TemporaryDirectory() as directory, mock.patch.dict(os.environ, {"GLSMKIT_CACHE_DIR": directory}):
        cache_put(key, text)
        cache_put(other_key, other)
        path = os.path.join(directory, f"{key}.entry")
        with open(path, "rb") as handle:
            whole = handle.read()
        with open(os.path.join(directory, f"{other_key}.entry"), "rb") as handle:
            moved = handle.read()

        def read_as(data: bytes):
            with open(path, "wb") as handle:
                handle.write(data)
            return cache_get(key)

        assert all(read_as(whole[:size]) is None for size in range(len(whole)))
        for i, byte in enumerate(whole):
            assert all(read_as(whole[:i] + bytes([byte ^ 1 << bit]) + whole[i + 1 :]) is None for bit in range(8))
        assert read_as(moved) is None
        assert read_as(whole) == text
        assert cache_get(other_key) == other


def test_job_key_follows_the_library_sources(monkeypatch):
    m = parse_model(json.dumps(P1))
    base = job_key(m, "ifun", {"q_bound": "2", "t_order": 0})
    monkeypatch.setattr(cache, "sources_sha256", lambda: "0" * 64)
    assert base != job_key(m, "ifun", {"q_bound": "2", "t_order": 0})
