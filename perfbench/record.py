"""Record the phase-scan model pool and the reference digests of every job.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/record.py

It writes ``perfbench/data/phase_pool.json`` (POOL_SIZE seeded random torus
models, sorted by measured chain time and cut into cost strata so that a pass
can draw one model per stratum, see ``cost_strata``) and
``perfbench/data/references.json``, which maps every job key any seed can
draw to the sha256 of its artifact.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from run import digest  # noqa: E402

POOL_SEED = "phase-pool"
POOL_SIZE = 450
STRATUM_SPREAD = 0.25  # most a stratum's dearest model may cost over its cheapest, as a share
STRATUM_FLOOR_S = 0.002  # ... or in seconds, for models too cheap to time to 25 %
TOP_SINGLETONS = 3


def cost_strata(times: list[float]) -> list[list[int]]:
    """[start, stop) groups of at most PHASE_STRATUM models of ascending cost.

    Built from the most expensive model down; a group closes early when the
    next model is more than STRATUM_SPREAD cheaper, so a heavy model never
    shares a stratum with a much cheaper one and each pass costs about the same.
    The TOP_SINGLETONS dearest models are strata of their own: every pass runs
    them, so job_tail_s lands on the same models for every seed.
    """
    strata, stop = [], len(times)
    while stop > 0:
        start = stop - 1
        while (start > 0 and len(strata) >= TOP_SINGLETONS and stop - start < workloads.PHASE_STRATUM
               and times[stop - 1] - times[start - 1] <= max(STRATUM_SPREAD * times[start - 1], STRATUM_FLOOR_S)):
            start -= 1
        strata.append([start, stop])
        stop = start
    return strata[::-1]


def record_pool() -> tuple[list[dict], list[list[int]], dict[str, str]]:
    rng = random.Random(POOL_SEED)
    timed = []
    refs = {}
    for _ in range(POOL_SIZE):
        data = workloads.random_torus_model(rng)
        job = workloads.phase_job(workloads.gk.model.parse_model(json.dumps(data)), workloads.phase_model_key(data))
        best = float("inf")
        for _rep in range(3):
            start = time.perf_counter()
            artifact, error = workloads.run_job(job)
            best = min(best, time.perf_counter() - start)
            if error is not None:
                raise RuntimeError(f"pool model {job.key} failed: {error}")
        refs[job.key] = digest(artifact)
        timed.append((best, data))
    timed.sort(key=lambda item: item[0])
    return [data for _t, data in timed], cost_strata([t for t, _data in timed]), refs


def record_hypersurface() -> dict[str, str]:
    refs = {}
    for name, coeff, mode, q in workloads.all_hypersurface_keys():
        spec = workloads.gk.specialize.specialization_from_dict(workloads.hypersurface_spec(name, coeff))
        model = workloads.gk.specialize.ci_build(spec)
        key = workloads.hypersurface_key(name, coeff, mode, q)
        artifact, error = workloads.run_job(workloads.hypersurface_job(model, key, mode, q))
        if error is not None:
            raise RuntimeError(f"{key} failed: {error}")
        refs[key] = digest(artifact)
    return refs


def record_cli(tmp: Path) -> dict[str, str]:
    refs = {}
    for index, session in enumerate(workloads.all_cli_argvs()):
        workdir = tmp / f"session-{index}"
        workdir.mkdir()
        os.environ["GLSMKIT_CACHE_DIR"] = str(workdir / "cache")
        paths = workloads.write_cli_files(workdir)
        for argv in session:
            job = workloads.cli_job(argv, paths, workdir)
            artifact, error = workloads.run_job(job)
            if error is not None:
                raise RuntimeError(f"{job.key} failed: {error}")
            if refs.setdefault(job.key, digest(artifact)) != digest(artifact):
                raise RuntimeError(f"{job.key} gave two different artifacts")
    return refs


def main() -> int:
    os.environ.pop("GLSMKIT_THREADS", None)
    data = HERE / "data"
    data.mkdir(exist_ok=True)
    pool, strata, phase_refs = record_pool()
    (data / "phase_pool.json").write_text(
        json.dumps({"seed": POOL_SEED, "strata": strata, "models": pool}, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        cli_refs = record_cli(Path(tmp))
    refs = {
        "hypersurface-deep": record_hypersurface(),
        "phase-scan": phase_refs,
        "cli-session": cli_refs,
    }
    (data / "references.json").write_text(json.dumps(refs, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print({name: len(r) for name, r in refs.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
