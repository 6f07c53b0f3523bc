"""The benchmark's own tests: python3 -m pytest perfbench -q (from the repository root)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402
from run import digest  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    generate = workloads.WORKLOADS[name][0]
    first = json.dumps(generate(7), sort_keys=True)
    assert json.dumps(generate(7), sort_keys=True) == first
    assert json.dumps(generate(8), sort_keys=True) != first


def test_every_drawable_job_has_a_reference():
    refs = json.loads((HERE / "data" / "references.json").read_text(encoding="utf-8"))
    for seed in range(20):
        hyper = workloads.generate_hypersurface(seed)
        for name, mode, q in hyper["jobs"]:
            key = workloads.hypersurface_key(name, hyper["deformations"][name], mode, q)
            assert key in refs["hypersurface-deep"]
        for model in workloads.generate_phase(seed)["models"]:
            assert workloads.phase_model_key(model) in refs["phase-scan"]
        for argv in workloads.generate_cli(seed)["argv"]:
            assert " ".join(argv) in refs["cli-session"]


def small_jobs(tmp_path: Path) -> list:
    """A cheap cross-section: a low-q hypersurface job, pool models and one CLI session."""
    spec = workloads.gk.specialize.specialization_from_dict(workloads.hypersurface_spec("P4[5]", 2))
    model = workloads.gk.specialize.ci_build(spec)
    jobs = [workloads.hypersurface_job(model, "quintic glsm q=3", "glsm", 3)]
    for data in workloads.load_pool()["models"][:40:4]:
        jobs.append(workloads.phase_job(workloads.gk.model.parse_model(json.dumps(data)), workloads.phase_model_key(data)))
    paths = workloads.write_cli_files(tmp_path)
    session = workloads.cli_session_jobs("cubic", "s", "rho1", True)
    session.append(workloads.specialize_argv("hybrid", "latex"))
    jobs += [workloads.cli_job(argv, paths, tmp_path) for argv in session]
    return jobs


def run_digests(jobs, tmp_path: Path, cache: str, monkeypatch, tr=None) -> list[str]:
    monkeypatch.setenv("GLSMKIT_CACHE_DIR", str(tmp_path / cache))
    for path in tmp_path.glob("out-*.json"):
        path.unlink()
    out = []
    for job in jobs:
        if tr is not None:
            tr.open("job")
        artifact, error = workloads.run_job(job)
        if tr is not None:
            tr.close()
        assert error is None, error
        out.append(digest(artifact))
    return out


def test_traced_digests_equal_untraced(tmp_path, monkeypatch):
    jobs = small_jobs(tmp_path)
    plain = run_digests(jobs, tmp_path, "cache-a", monkeypatch)
    tr = tracer.Tracer()
    with tr:
        traced = run_digests(jobs, tmp_path, "cache-b", monkeypatch, tr)
    assert traced == plain
    calls = tr.inclusive()
    assert calls["rings.cohclass_mul"][0] > 0
    assert calls["cache.cache_get"][0] > 0
    assert tr.counters["cache.cache_get.hits"] > 0


def library_bindings() -> dict:
    out = {}
    for module in tracer.library_modules():
        for key, value in vars(module).items():
            out[(module.__name__, key)] = value
    for cls in (workloads.gk.rings.CohClass, workloads.gk.series.LaurentZ):
        for key, value in vars(cls).items():
            out[(cls.__qualname__, key)] = value
    return out


def test_every_traced_attribute_is_restored():
    before = library_bindings()
    tr = tracer.Tracer()
    tr.install()
    try:
        # aliases in importing modules are wrapped, not only the defining one
        assert workloads.gk.series.build_ring is not before[("glsmkit.rings", "build_ring")]
        assert workloads.gk.rings.normal_form is not before[("glsmkit.multipoly", "normal_form")]
        assert workloads.gk.cli.cache_get is not before[("glsmkit.cache", "cache_get")]
        assert workloads.gk.rings.CohClass.__rmul__ is workloads.gk.rings.CohClass.__mul__
        assert len(tr.rebound()) > len(tracer.TARGETS)
    finally:
        tr.restore()
    after = library_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_hyper_factor_count_matches_the_quintic():
    spec = workloads.gk.specialize.specialization_from_dict(workloads.hypersurface_spec("P4[5]", 0))
    model = workloads.gk.specialize.ci_build(spec)
    d = (Fraction(1),)
    # x1..x5: one ambient factor each over [0,1); p: glsm range [-5,0] has six
    assert tracer.hyper_factor_count((model, d, "glsm"), {}, None)["series.hyper_factor.factors"] == 11
    # ambient p: [-5,0) has five
    assert tracer.hyper_factor_count((model, d, "ambient"), {}, None)["series.hyper_factor.factors"] == 10


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_declared(trace, section):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cli-session", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-session", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
