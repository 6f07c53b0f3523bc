"""Seeded workload generators and job runners for the glsmkit benchmark.

A workload turns a seed into a JSON-serialisable input description
(``generate_*``); its class materialises that into library objects and files
and yields one pass of jobs.  Each job is a ``Job(key, run)``: ``key`` names
the job's logical input (the same for every seed that draws it, so reference
digests can be keyed on it) and ``run()`` returns the job's artifact as text.

The library is reached through module attributes (``gk.series.hyper_factor``)
at call time, never through names bound here, so the tracer's rebinding of
``glsmkit.*`` attributes sees every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import glsmkit as gk
import glsmkit.cli  # noqa: F401  (with glsmkit.cache; the package loads the other layers)

HERE = Path(__file__).resolve().parent
POOL_PATH = HERE / "data" / "phase_pool.json"

# Library exceptions that are designed refusals: the job's artifact records
# them and they count as outputs, not failures.  Everything else fails the job.
REFUSALS = (ValueError, gk.DegenerateStabilityError, gk.BudgetExceededError)


@dataclass(frozen=True)
class Job:
    key: str
    run: Callable[[], str]


def refusal_artifact(exc: BaseException) -> str:
    return json.dumps({"refused": type(exc).__name__, "message": str(exc)}, sort_keys=True)


# --------------------------------------------------------------------------
# hypersurface-deep
# --------------------------------------------------------------------------

# name -> (ambient weights, degree, Fermat section); the deformation monomial
# x1*...*xn has the section's weighted degree in every one of these models.
HYPERSURFACES = {
    "P4[5]": ((1, 1, 1, 1, 1), 5, "x1^5+x2^5+x3^5+x4^5+x5^5"),
    "P11112[6]": ((1, 1, 1, 1, 2), 6, "x1^6+x2^6+x3^6+x4^6+x5^3"),
    "P11114[8]": ((1, 1, 1, 1, 4), 8, "x1^8+x2^8+x3^8+x4^8+x5^2"),
    "P11125[10]": ((1, 1, 1, 2, 5), 10, "x1^10+x2^10+x3^10+x4^5+x5^2"),
    "P3[4]": ((1, 1, 1, 1), 4, "x1^4+x2^4+x3^4+x4^4"),
}
DEFORMATIONS = (0, -1, 2, -3)  # coefficient of x1*...*xn added to the Fermat section
ANCHOR_Q = 12
# (model, mode, q choices).  The slots fixing job_p50_s and job_tail_s keep one
# q; only the two cheapest slots draw q from the seed (see README.md).
HYPERSURFACE_SLOTS = (
    ("P4[5]", "glsm", (ANCHOR_Q,)),
    ("P4[5]", "glsm", (2 * ANCHOR_Q,)),
    ("P4[5]", "ambient", (8, 9, 10)),
    ("P11112[6]", "glsm", (12,)),
    ("P11112[6]", "ambient", (9,)),
    ("P11114[8]", "glsm", (9,)),
    ("P11114[8]", "ambient", (12,)),
    ("P11125[10]", "glsm", (11,)),
    ("P11125[10]", "ambient", (8,)),
    ("P3[4]", "glsm", (8, 9, 10)),
    ("P3[4]", "ambient", (28,)),
)


def hypersurface_section(name: str, coeff: int) -> str:
    weights, _degree, fermat = HYPERSURFACES[name]
    if coeff == 0:
        return fermat
    mono = "*".join(f"x{i + 1}" for i in range(len(weights)))
    return f"{fermat}{'+' if coeff > 0 else '-'}{abs(coeff)}*{mono}"


def hypersurface_spec(name: str, coeff: int) -> dict:
    weights, degree, _fermat = HYPERSURFACES[name]
    return {
        "kind": "ci",
        "ambient": {"r": len(weights), "k": 1, "weights": [list(weights)], "theta": ["1"]},
        "taus": [[degree]],
        "sections": [hypersurface_section(name, coeff)],
        "semipositive_asserted": True,
        "pairing_nondegenerate_asserted": True,
    }


def hypersurface_key(name: str, coeff: int, mode: str, q: int) -> str:
    return f"{name} c={coeff} {mode} q={q}"


def anchor_keys(inputs: dict) -> tuple[str, str]:
    """Keys of the anchor quintic jobs at Q and 2Q (for series.q_doubling_ratio)."""
    coeff = inputs["deformations"]["P4[5]"]
    return (
        hypersurface_key("P4[5]", coeff, "glsm", ANCHOR_Q),
        hypersurface_key("P4[5]", coeff, "glsm", 2 * ANCHOR_Q),
    )


def generate_hypersurface(seed: int) -> dict:
    rng = random.Random(f"hypersurface-deep:{seed}")
    deformations = {name: rng.choice(DEFORMATIONS) for name in HYPERSURFACES}
    jobs = [[name, mode, rng.choice(qs)] for name, mode, qs in HYPERSURFACE_SLOTS]
    rng.shuffle(jobs)
    return {"deformations": deformations, "jobs": jobs}


def all_hypersurface_keys() -> list[tuple[str, int, str, int]]:
    return [
        (name, coeff, mode, q)
        for name, mode, qs in HYPERSURFACE_SLOTS
        for coeff in DEFORMATIONS
        for q in qs
    ]


def hypersurface_job(model, key: str, mode: str, q: int) -> Job:
    def run() -> str:
        fn = gk.series.glsm_i_function if mode == "glsm" else gk.series.big_i_function
        return gk.series.series_to_json(fn(model, (), (), Fraction(q), 0))

    return Job(key, run)


class HypersurfaceDeep:
    nominal_pass_s = 6.0

    def __init__(self, inputs: dict, workdir: Path):
        self.inputs = inputs
        self.models = {}
        for name, coeff in inputs["deformations"].items():
            spec = gk.specialize.specialization_from_dict(hypersurface_spec(name, coeff))
            self.models[name] = gk.specialize.ci_build(spec)

    def start_pass(self) -> None:
        pass

    def jobs(self) -> list[Job]:
        coeffs = self.inputs["deformations"]
        return [
            hypersurface_job(self.models[name], hypersurface_key(name, coeffs[name], mode, q), mode, q)
            for name, mode, q in self.inputs["jobs"]
        ]


def anchor_ci_check(coeff: int, q: int = 6) -> bool:
    """The anchor quintic against the independent closed-form CI path (ci_compare)."""
    spec = gk.specialize.specialization_from_dict(hypersurface_spec("P4[5]", coeff))
    return bool(gk.specialize.ci_compare(spec, Fraction(q), 0)["equal"])


# --------------------------------------------------------------------------
# phase-scan
# --------------------------------------------------------------------------

PHASE_THETAS = {
    1: (["1"], ["-1"]),
    2: (["1", "0"], ["0", "1"], ["1", "1"], ["1", "-1"], ["-1", "1"], ["2", "1"], ["1", "2"], ["-1", "-1"]),
}
PHASE_Q_DEGREES = 2
PHASE_Q_SERIES = 1
PHASE_STRATUM = 3  # most pool models per cost stratum; a pass draws one model from each


def random_torus_model(rng: random.Random) -> dict:
    """A torus model with k in {1,2}, r <= 7, weights in [-3,3] and J in the torus.

    R-charges are read off a random torus element of order d_w, so the
    grading-element axiom holds; faithfulness and genericity are left to
    chance, which makes some models designed validation refusals.
    """
    k = rng.choice((1, 2))
    r = rng.randint(k + 1, 7)
    weights = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(k)]
    d_w = rng.choice((1, 2, 3))
    lam = [Fraction(rng.randrange(d_w), d_w) for _ in range(k)]
    r_charges = [int((sum(weights[a][i] * lam[a] for a in range(k)) % 1) * d_w) for i in range(r)]
    return {
        "r": r,
        "k": k,
        "weights": weights,
        "r_charges": r_charges,
        "d_w": d_w,
        "theta": list(rng.choice(PHASE_THETAS[k])),
        "potential": None,
        "assert_critical_proper": True,
    }


def phase_model_key(model: dict) -> str:
    return json.dumps(model, sort_keys=True, separators=(",", ":"))


def phase_chain(model) -> str:
    """validate -> sectors -> effective degrees -> rings -> big I-function."""
    report = gk.validate.validate_model(model)
    out: dict = {"validate": report.to_dict()}
    if not report.overall:
        return json.dumps(out, sort_keys=True)
    fmt = gk.scalars.format_rational
    sectors = gk.sectors.inertia_sectors(model)
    out["sectors"] = [[fmt(x) for x in g.lam] for g in sectors]
    degrees = gk.sectors.effective_degrees(model, Fraction(PHASE_Q_DEGREES))
    out["degrees"] = [[fmt(x) for x in d] for d in degrees]
    rings = []
    for g in sectors:
        try:
            ring = gk.rings.build_ring(model, g)
            rings.append({"dimension": ring.dimension, "groebner": len(ring.groebner)})
        except REFUSALS as e:
            rings.append(json.loads(refusal_artifact(e)))
    out["rings"] = rings
    try:
        series = gk.series.big_i_function(model, (), (), Fraction(PHASE_Q_SERIES), 0)
        out["series"] = gk.series.series_to_json(series)
    except REFUSALS as e:
        out["series"] = json.loads(refusal_artifact(e))
    return json.dumps(out, sort_keys=True)


def load_pool() -> dict:
    return json.loads(POOL_PATH.read_text(encoding="utf-8"))


def generate_phase(seed: int) -> dict:
    """One pool model per cost stratum, in seeded order."""
    pool = load_pool()
    rng = random.Random(f"phase-scan:{seed}")
    picks = [rng.randrange(start, stop) for start, stop in pool["strata"]]
    rng.shuffle(picks)
    return {"models": [pool["models"][i] for i in picks]}


def phase_job(model, key: str) -> Job:
    return Job(key, lambda: phase_chain(model))


class PhaseScan:
    nominal_pass_s = 6.0

    def __init__(self, inputs: dict, workdir: Path):
        self.inputs = inputs
        self.models = [
            (phase_model_key(d), gk.model.parse_model(json.dumps(d))) for d in inputs["models"]
        ]

    def start_pass(self) -> None:
        pass

    def jobs(self) -> list[Job]:
        return [phase_job(model, key) for key, model in self.models]


# --------------------------------------------------------------------------
# cli-session
# --------------------------------------------------------------------------

QUINTIC = {
    "r": 6, "k": 1, "weights": [[1, 1, 1, 1, 1, -5]], "r_charges": [0, 0, 0, 0, 0, 1], "d_w": 1,
    "theta": ["1"], "potential": "p*x1^5+p*x2^5+p*x3^5+p*x4^5+p*x5^5",
    "variables": ["x1", "x2", "x3", "x4", "x5", "p"], "assert_critical_proper": True,
}
CUBIC = {
    "r": 2, "k": 1, "weights": [[1, -3]], "r_charges": [1, 0], "d_w": 3, "theta": ["-1"],
    "potential": "p*x^3", "variables": ["x", "p"], "assert_critical_proper": True,
}
RANK2 = {
    "r": 4, "k": 2, "weights": [[1, 1, -3, 0], [1, 2, 0, -3]], "r_charges": [1, 1, 0, 0], "d_w": 3,
    "theta": ["-1", "-1"], "potential": "p1*p2*x1^3+p1*p2^2*x2^3",
    "variables": ["x1", "x2", "p1", "p2"], "assert_critical_proper": True,
}
# two-parameter octic P(1,1,2,2,2)[8], resolved (ci_build of ambient weights
# ((0,0,1,1,1,1),(1,1,0,0,0,-2)) with tau (4,0) gives these weights)
OCTIC = {
    "r": 7, "k": 2, "weights": [[0, 0, 1, 1, 1, 1, -4], [1, 1, 0, 0, 0, -2, 0]],
    "r_charges": [0, 0, 0, 0, 0, 0, 1], "d_w": 1, "theta": ["1", "1"],
    "potential": "x1^8*x6^4*p1+x2^8*x6^4*p1+x3^4*p1+x4^4*p1+x5^4*p1",
    "variables": ["x1", "x2", "x3", "x4", "x5", "x6", "p1"], "assert_critical_proper": True,
}
SPECIALIZE_FILES = {
    "fjrw": {
        "kind": "fjrw", "n": 2, "d_w": 3, "r_charges": [1, 1],
        "group": [{"order": 3, "action": [1, 1]}, {"order": 3, "action": [1, 2]}],
        "potential": "x1^3+x2^3",
    },
    "hybrid": {"kind": "hybrid", "x_weights": [1, 1], "p_weights": [2]},
    "ci": hypersurface_spec("P4[5]", 0),
}
# model -> (qbound, torder, insertion polynomial, spellings of one dz character).
# The seed draws the insertion's name and the character's spelling: both
# change the cache key and the output bytes but not the work.
CLI_MODELS = {
    "quintic": (QUINTIC, "3", "1", "rho1", ("rho1", "rho2", "rho4", "1")),
    "cubic": (CUBIC, "4", "1", "2*rho1", ("rho1", "1")),
    "rank2": (RANK2, "2", "1", "rho3", ("rho3", "-3,0")),
    "octic": (OCTIC, "2", "1", "rho3", ("rho3", "1,0")),
}
INSERT_NAMES = ("t1", "s", "u")
# kind -> (qbound, torder)
CLI_SPECIALIZE = {"fjrw": ("2", "1"), "hybrid": ("3", "1"), "ci": ("3", "0")}
# Warm JSON hits are over half of all jobs, so job_p50_s measures the hit path.
CLI_JSON_REPEATS = 12
CLI_TEXT_REPEATS = 2


def cli_session_jobs(name: str, var: str, rho: str, latex: bool) -> list[list[str]]:
    """Argv lists for one model's session; @model, @spec and @out tokens stand for files.

    An @out token names the series a cold job writes by its inputs, so the
    keys of the jobs reading it name their inputs too.
    """
    _model, q, t, poly, _rhos = CLI_MODELS[name]
    insert = f"{var}={poly}"
    common = ["--qbound", q, "--torder", t, "--insert", insert]
    a, b = f"@out:{name}:ifun:{insert}", f"@out:{name}:glsm:{insert}"
    cold = [["ifun", f"@model:{name}", *common, "--out", a],
            ["glsm-ifun", f"@model:{name}", *common, "--out", b]]
    warm = [["ifun", f"@model:{name}", *common, "--format", "json"]] * CLI_JSON_REPEATS
    warm += [["ifun", f"@model:{name}", *common, "--format", "text"]] * CLI_TEXT_REPEATS
    warm.append(["glsm-ifun", f"@model:{name}", *common, "--format", "latex" if latex else "text"])
    tail = [
        ["dz", f"@model:{name}", "--rho", rho, *common, "--method", "verify"],
        ["check-ct", b],
        ["compare", a, b],
        ["render-latex", a],
    ]
    return cold + warm + tail


def specialize_argv(kind: str, fmt: str) -> list[str]:
    q, t = CLI_SPECIALIZE[kind]
    return ["specialize", kind, f"@spec:{kind}", "--qbound", q, "--torder", t, "--crosscheck", "--format", fmt]


def generate_cli(seed: int) -> dict:
    rng = random.Random(f"cli-session:{seed}")
    sessions = []
    for name, (*_rest, rhos) in CLI_MODELS.items():
        sessions.append(
            cli_session_jobs(name, rng.choice(INSERT_NAMES), rng.choice(rhos), rng.random() < 0.5)
        )
    for kind in CLI_SPECIALIZE:
        formats = ["json", "latex"]
        rng.shuffle(formats)
        sessions.append([specialize_argv(kind, fmt) for fmt in formats])
    # interleave the sessions in seeded order, keeping each session's own order
    argvs: list[list[str]] = []
    queues = [list(s) for s in sessions]
    while queues:
        q = rng.choice(queues)
        argvs.append(q.pop(0))
        if not q:
            queues.remove(q)
    return {"argv": argvs}


def all_cli_argvs() -> list[list[list[str]]]:
    """Every session any seed can draw (the interleaving does not change keys)."""
    out = []
    for name, (*_rest, rhos) in CLI_MODELS.items():
        for var in INSERT_NAMES:
            for rho in rhos:
                for latex in (False, True):
                    out.append(cli_session_jobs(name, var, rho, latex))
    out.append([specialize_argv(kind, fmt) for kind in CLI_SPECIALIZE for fmt in ("json", "latex")])
    return out


def write_cli_files(workdir: Path) -> dict[str, str]:
    """Write the model and specialize files; return token -> path."""
    paths = {}
    for name, (model, *_rest) in CLI_MODELS.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(model, sort_keys=True), encoding="utf-8")
        gk.model.parse_model(path.read_text(encoding="utf-8"))
        paths[f"@model:{name}"] = str(path)
    for kind, spec in SPECIALIZE_FILES.items():
        path = workdir / f"spec-{kind}.json"
        path.write_text(json.dumps({"specialize": spec}, sort_keys=True), encoding="utf-8")
        paths[f"@spec:{kind}"] = str(path)
    return paths


def resolve(token: str, paths: dict[str, str], workdir: Path) -> str:
    if token.startswith("@out:"):
        return str(workdir / f"out-{hashlib.sha256(token.encode()).hexdigest()[:16]}.json")
    return paths.get(token, token)


def run_cli(argv: list[str]) -> str:
    """One in-process CLI call; the artifact is exit code, stdout and any --out file."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = gk.cli.main(argv)
    artifact = {"exit": code, "stdout": stdout.getvalue()}
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
        artifact["file"] = out.read_text(encoding="utf-8") if out.exists() else None
    return json.dumps(artifact, sort_keys=True)


def cli_job(argv: list[str], paths: dict[str, str], workdir: Path) -> Job:
    real = [resolve(a, paths, workdir) for a in argv]
    return Job(" ".join(argv), lambda: run_cli(real))


class CliSession:
    nominal_pass_s = 0.85

    def __init__(self, inputs: dict, workdir: Path):
        self.inputs = inputs
        self.workdir = workdir
        self.paths = write_cli_files(workdir)

    def start_pass(self) -> None:
        """Each pass starts with no series files (and, from the runner, an empty cache)."""
        for path in self.workdir.glob("out-*.json"):
            path.unlink()

    def jobs(self) -> list[Job]:
        return [cli_job(argv, self.paths, self.workdir) for argv in self.inputs["argv"]]


# --------------------------------------------------------------------------

WORKLOADS = {
    "hypersurface-deep": (generate_hypersurface, HypersurfaceDeep),
    "phase-scan": (generate_phase, PhaseScan),
    "cli-session": (generate_cli, CliSession),
}


def run_job(job: Job) -> tuple[str | None, str | None]:
    """(artifact, None) or (None, error) for an unexpected exception."""
    try:
        return job.run(), None
    except REFUSALS as e:
        return refusal_artifact(e), None
    except Exception as e:  # a job that crashes is a failed job, the run goes on
        return None, f"{type(e).__name__}: {e}"
