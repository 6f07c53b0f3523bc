"""glsmkit benchmark: seeded workloads, output digests, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload hypersurface-deep --seed 0 --seconds 25 --trace 0

Workloads are ``hypersurface-deep``, ``phase-scan`` and ``cli-session`` (see
README.md).  Each run is one process and one closed-loop caller: jobs run one
at a time on one thread, with ``GLSMKIT_THREADS`` unset and
``GLSMKIT_CACHE_DIR`` pointing at a fresh empty directory for every pass.

A pass is the workload's job list; a run makes ``max(3, round(seconds /
nominal pass time))`` passes, so the job count, and with it the tail
percentile, does not depend on how fast the code is.  Every job's artifact
is reduced to a sha256 and checked against ``data/references.json``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass
untraced and one pass under the tracer, checks that both give the same
digests and prints the per-layer metrics.  The last line of standard output
is the JSON result; the full record (environment, digests, spans) goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCES = HERE / "data" / "references.json"
SETUP_REPS = 5
TAIL_BEYOND = 10  # job_tail_s: highest percentile with at least this many jobs beyond it

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import glsmkit, glsmkit.cli; print(time.perf_counter() - t)"
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def import_seconds() -> float:
    """Time of `import glsmkit, glsmkit.cli` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(threads_before: str | None) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sources = hashlib.sha256()
    for path in sorted((SRC / "glsmkit").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "glsmkit_commit": git_commit(),
        "glsmkit_sources_sha256": sources.hexdigest(),
        "GLSMKIT_THREADS": "unset" if threads_before is None else f"unset (was {threads_before!r})",
        "cache_dir": "fresh empty directory per pass",
    }


class Checker:
    """Digests every job's artifact and compares it with the references and earlier passes."""

    def __init__(self, references: dict[str, str]):
        self.references = references
        self.digests: dict[str, str] = {}
        self.failures: list[dict] = []
        self.unchecked: set[str] = set()
        self.attempted = 0

    def check(self, key: str, artifact: str | None, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append({"key": key, "error": error})
            return
        d = digest(artifact)
        first = self.digests.setdefault(key, d)
        ref = self.references.get(key)
        if ref is None:
            self.unchecked.add(key)
        if first != d or (ref is not None and ref != d):
            self.failures.append({"key": key, "digest": d, "first": first, "reference": ref})


def run_pass(workloads, wl, checker: Checker, workdir: Path, index: int, tr=None):
    """One pass over the job list: (wall time, [(key, latency)], {key: digest})."""
    cache = workdir / f"cache-{index}"
    cache.mkdir()
    os.environ["GLSMKIT_CACHE_DIR"] = str(cache)
    wl.start_pass()
    jobs = wl.jobs()
    latencies, digests = [], {}
    clock = time.perf_counter
    start = clock()
    for job in jobs:
        t0 = clock()
        if tr is not None:
            tr.open("job")
        try:
            artifact, error = workloads.run_job(job)
        finally:
            if tr is not None:
                tr.close()
        latencies.append((job.key, clock() - t0))
        checker.check(job.key, artifact, error)
        if artifact is not None:
            digests[job.key] = digest(artifact)
    return clock() - start, latencies, digests


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs beyond it."""
    ordered = sorted(latencies)
    idx = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def setup(workloads, name: str, seed: int, workdir: Path):
    """Import, generate, parse and write the inputs SETUP_REPS times: (workload, inputs, times)."""
    generate, cls = workloads.WORKLOADS[name]
    times, blobs = [], set()
    for rep in range(SETUP_REPS):
        imported = import_seconds()
        start = time.perf_counter()
        inputs = generate(seed)
        target = workdir / f"inputs-{rep}"
        target.mkdir()
        wl = cls(inputs, target)
        times.append(imported + time.perf_counter() - start)
        blobs.add(json.dumps(inputs, sort_keys=True))
    if len(blobs) != 1:
        raise RuntimeError("the generator gave different inputs for one seed")
    return wl, inputs, times


def anchor_ratio(workloads, wl, latencies: list[tuple[str, float]]) -> float:
    """series.q_doubling_ratio: anchor quintic time at 2Q over its time at Q (0 without an anchor)."""
    if not isinstance(wl, workloads.HypersurfaceDeep):
        return 0.0
    at_q, at_2q = workloads.anchor_keys(wl.inputs)
    times: dict[str, list[float]] = {}
    for key, t in latencies:
        times.setdefault(key, []).append(t)
    return statistics.median(times[at_2q]) / statistics.median(times[at_q])


def per_layer(tr: tracer.Tracer, untraced_wall: float, traced_wall: float, q_ratio: float) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    inc = tr.inclusive()
    selfs = tr.self_times()
    counters = tr.counters
    out: dict[str, tuple[float, str]] = {}

    def calls(name):
        out[f"{name}.calls"] = (inc.get(name, (0, 0.0))[0], "count")

    def secs(name):
        out[f"{name}.s"] = (inc.get(name, (0, 0.0))[1], "s")

    for name in ("rationallp.nonneg_combination", "sectors.semistable_supports", "lattice.congruence_kernel",
                 "multipoly.groebner_basis", "rings.build_ring", "multipoly.normal_form", "rings.cohclass_mul",
                 "series.hyper_factor", "series.exp_factor", "rings.divides_ideal"):
        calls(name)
        secs(name)
    for name in ("multipoly.poly_mul", "rings.class_from_character", "series.laurent_mul", "scalars.make_cyclo",
                 "cli.main"):
        calls(name)
    for name in ("sectors.inertia_sectors", "validate.validate_model", "sectors.effective_degrees",
                 "series.z_partial", "series.compact_type_report", "series.series_to_json",
                 "series.series_from_json", "series.series_compare", "latexout.render_latex", "model.parse_model",
                 "cache.cache_get", "cache.cache_put", "specialize.direct_series", "specialize.crosscheck"):
        secs(name)
    calls("cache.cache_put")
    for name in ("sectors.effective_degrees.degrees", "rings.build_ring.dim_sum", "series.hyper_factor.factors",
                 "cache.cache_get.hits", "cache.cache_get.misses"):
        out[name] = (int(counters.get(name, 0)), "count")
    for name in ("series.series_to_json.bytes", "cache.cache_put.bytes"):
        out[name] = (int(counters.get(name, 0)), "bytes")
    lookups = counters.get("cache.cache_get.hits", 0) + counters.get("cache.cache_get.misses", 0)
    out["cache.lookups"] = (int(lookups), "count")
    out["cache.hit_ratio"] = (counters.get("cache.cache_get.hits", 0) / lookups if lookups else 0.0, "ratio")
    out["cli.main.self_s"] = (selfs.get("cli.main", 0.0), "s")
    for layer in tracer.LAYERS:
        out[f"{layer}.self_s"] = (sum(v for k, v in selfs.items() if k.split(".", 1)[0] == layer), "s")
    out["series.q_doubling_ratio"] = (q_ratio, "ratio")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    return out


def measure(args, workdir: Path, threads_before: str | None) -> int:
    sys.path.insert(0, str(SRC))
    import glsmkit

    if Path(glsmkit.__file__).resolve().parent != (SRC / "glsmkit").resolve():
        print(f"error: imported glsmkit from {glsmkit.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    references = json.loads(REFERENCES.read_text(encoding="utf-8")).get(args.workload, {})
    wl, inputs, setup_times = setup(workloads, args.workload, args.seed, workdir)
    checker = Checker(references)
    record: dict = {"workload": args.workload, "seed": args.seed, "environment": environment(threads_before),
                    "inputs": inputs, "setup_times_s": setup_times}

    if args.trace:
        wall0, lat0, digests0 = run_pass(workloads, wl, checker, workdir, 0)
        tr = tracer.Tracer()
        with tr:
            rebound = tr.rebound()
            wall1, lat1, digests1 = run_pass(workloads, wl, checker, workdir, 1, tr)
        restored = all(owner.__dict__[key] is original for owner, key, original in rebound)
        metrics = per_layer(tr, wall0, wall1, anchor_ratio(workloads, wl, lat0))
        walls, latencies = [wall0, wall1], lat0 + lat1
        trace_ok = restored and digests0 == digests1
        record["trace_check"] = {"restored": restored, "rebound_attributes": len(rebound),
                                 "digests_equal": digests0 == digests1}
        record["spans"] = tr.dump()
    else:
        walls, latencies = [], []
        for index in range(max(3, round(args.seconds / wl.nominal_pass_s))):
            wall, lat, _digests = run_pass(workloads, wl, checker, workdir, index)
            walls.append(wall)
            latencies.extend(lat)
        job_times = [t for _key, t in latencies]
        tail_value, tail_pct = tail(job_times)
        metrics = {
            "wall_s": (statistics.fmean(walls), "s"),
            "job_p50_s": (statistics.median(job_times), "s"),
            "job_tail_s": (tail_value, "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        record["job_tail"] = {"percentile": tail_pct, "job_count": len(job_times), "beyond": TAIL_BEYOND}
        trace_ok = True

    anchor_ok = workloads.anchor_ci_check(workloads.generate_hypersurface(args.seed)["deformations"]["P4[5]"])
    correct = not checker.failures and anchor_ok and trace_ok
    record.update({
        "passes": len(walls),
        "pass_walls_s": walls,
        "jobs_per_pass": len(wl.jobs()),
        "latencies": latencies,
        "digests": checker.digests,
        "failures": checker.failures,
        "unchecked": sorted(checker.unchecked),
        "anchor_ci_compare_equal": anchor_ok,
        "failed_frac": len(checker.failures) / checker.attempted,
    })
    result_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, sort_keys=True) + "\n", encoding="utf-8")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:18s} {name:40s} {value:.6g} {unit}")
    info = {key: record[key] for key in ("passes", "jobs_per_pass", "failed_frac", "anchor_ci_compare_equal",
                                         "environment") + (("job_tail",) if "job_tail" in record else ())}
    info["unchecked"] = len(checker.unchecked)
    info["record"] = str(result_file.relative_to(ROOT))
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "glsmkit" / "__init__.py").is_file():
        print(f"error: glsmkit sources not found under {SRC}", file=sys.stderr)
        return 2
    threads_before = os.environ.pop("GLSMKIT_THREADS", None)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    os.environ["GLSMKIT_CACHE_DIR"] = str(workdir / "cache-setup")
    try:
        return measure(args, workdir, threads_before)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
