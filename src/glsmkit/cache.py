"""Content-addressed result cache for CLI computations.

Keys hash the canonical model serialization, the command, the truncation,
the insertion data, and a sha256 of the library's own sources, so identical
inputs share a slot and any change to the inputs or the code invalidates it.
Each entry is one file, `<key>.entry`: a first line holding the sha256 of the
key, a NUL byte and the text, then the text exactly.  It is written to a temp
file and renamed into place.  An entry whose text does not match its digest
line (truncated, tampered, or moved from another key), that has no digest
line, or whose text is not UTF-8 is a miss.  Entries of older versions are
never read and may be deleted.  A directory that cannot be read makes every
lookup a miss; one that cannot be written is an input error that names
`GLSMKIT_CACHE_DIR`.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from functools import cache

from .model import GLSMModel, InputError, serialize_model

CACHE_ENV = "GLSMKIT_CACHE_DIR"


@cache
def sources_sha256() -> str:
    """sha256 over the name and bytes of every glsmkit/*.py source, computed once per process."""
    digest = hashlib.sha256()
    here = os.path.dirname(os.path.realpath(__file__))
    for name in sorted(n for n in os.listdir(here) if n.endswith(".py")):
        with open(os.path.join(here, name), "rb") as handle:
            digest.update(name.encode() + b"\0" + handle.read())
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


def cache_dir() -> str:
    return os.environ.get(CACHE_ENV) or os.path.join(os.path.expanduser("~"), ".cache", "glsmkit")


def _digest(key: str, data: bytes) -> bytes:
    # binds the text to its key: an entry moved to another key fails its check
    return hashlib.sha256(key.encode("utf-8") + b"\0" + data).hexdigest().encode()


def cache_get(key: str) -> str | None:
    """The stored text of `key`, or None when its entry is absent, does not match its digest line or is not UTF-8."""
    try:
        with open(os.path.join(cache_dir(), f"{key}.entry"), "rb") as handle:
            digest, newline, data = handle.read().partition(b"\n")
    except OSError:
        return None
    if not newline or digest != _digest(key, data):
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


def _store(directory: str, key: str, data: bytes) -> None:
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(_digest(key, data) + b"\n" + data)
        os.replace(tmp, os.path.join(directory, f"{key}.entry"))
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
