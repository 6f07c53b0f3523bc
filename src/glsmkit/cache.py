"""Content-addressed result cache for CLI computations.

Keys hash the canonical model serialization, the command, the truncation,
the insertion data, and a sha256 of the library's own sources, so identical
inputs share a slot and any change to the inputs or the code invalidates it.
Each entry `<key>.json` holds the text exactly; the sha256 of the key, a NUL
byte and that text is stored beside it in `<key>.sha256`, and an entry whose
text does not match its digest (truncated, tampered, half written, or moved
from another key) or is not UTF-8 is a miss.  The text goes to a
temp file first and is renamed into place.  A directory that cannot be read
makes every lookup a miss; one that cannot be written is an input error
that names `GLSMKIT_CACHE_DIR`.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from functools import cache
from pathlib import Path

from .model import GLSMModel, InputError, serialize_model

CACHE_ENV = "GLSMKIT_CACHE_DIR"


@cache
def sources_sha256() -> str:
    """sha256 over the name and bytes of every glsmkit/*.py source, computed once per process."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def job_key(model: GLSMModel, command: str, truncation: dict, extras: dict | None = None) -> str:
    payload = {
        "model": serialize_model(model),
        "command": command,
        "truncation": truncation,
        "extras": extras or {},
        "sources": sources_sha256(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "glsmkit"


def _digest(key: str, data: bytes) -> str:
    # binds the text to its key: an entry moved to another key fails its check
    return hashlib.sha256(key.encode("utf-8") + b"\0" + data).hexdigest()


def cache_get(key: str) -> str | None:
    """The stored text of `key`, or None when it is absent, does not match its stored digest or is not UTF-8."""
    directory = cache_dir()
    try:
        data = (directory / f"{key}.json").read_bytes()
        digest = (directory / f"{key}.sha256").read_bytes()
    except OSError:
        return None
    if _digest(key, data).encode() != digest:
        return None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        return None


def cache_put(key: str, text: str) -> None:
    """Store the text of `key`; InputError when the cache directory cannot be written."""
    directory = cache_dir()
    try:
        _store(directory, key, text.encode("utf-8"))
    except OSError as e:
        raise InputError(
            f"cannot write the result cache in {directory}: {e.strerror or e}; "
            f"set {CACHE_ENV} to a writable directory or pass --no-cache"
        ) from None


def _store(directory: Path, key: str, data: bytes) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, directory / f"{key}.json")
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    # written after the text and in place: until it is whole, the entry is a miss
    (directory / f"{key}.sha256").write_text(_digest(key, data), encoding="ascii")
