"""Command-line surface.

Subcommands: validate, sectors, effective, ifun, glsm-ifun, dz, check-ct,
specialize {fjrw|hybrid|ci}, compare, render-latex.  Artifacts go to stdout
or --out; errors to stderr.  Exit codes: 0 success, 1 validation failure,
2 input error, 3 internal assertion.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import click

from . import ENGINE_VERSION
from . import specialize as families
from .cache import cache_get, cache_put, job_key
from .latexout import render_latex
from .model import GLSMModel, InputError, InternalError, model_to_dict, parse_model, parse_monomial_expression
from .multipoly import Monomial
from .rationallp import LPInternalError
from .rings import RingMismatchError
from .scalars import format_rational, parse_rational
from .sectors import DegenerateStabilityError, effective_degrees, inertia_sectors, theta_degree
from .series import (
    GradedSeries,
    HypothesisError,
    Insertion,
    big_i_function,
    compact_type_report,
    glsm_i_function,
    series_compare,
    series_from_json,
    series_to_dict,
    series_to_json,
    z_partial,
)
from .validate import BudgetExceededError, validate_model

EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class ValidationFailure(RuntimeError):
    pass


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}") from None


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


def _dump(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _parse_rho_list(model: GLSMModel, text: str) -> list[tuple[int, ...]]:
    out = []
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        try:
            if item.startswith("rho"):
                idx = int(item[3:]) - 1
            else:
                out.append(tuple(int(x) for x in item.split(",")))
                continue
        except ValueError:
            raise InputError(f"--rho expects rhoI or comma-separated integers, got {item!r}") from None
        if not 0 <= idx < model.r:
            raise InputError(f"rho index out of range in {item!r}")
        out.append(model.column(idx))
    for vec in out:
        if len(vec) != model.k:
            raise InputError("character vectors must have length k")
    return out


def _parse_insertions(model: GLSMModel, specs: tuple[str, ...]):
    """--insert NAME=POLY with POLY over rho1..rhoR; returns (etas, insertions)."""
    names = [f"rho{i + 1}" for i in range(model.r)]
    parsed = []
    etas: list[tuple[int, ...]] = []
    for spec in specs:
        if "=" not in spec:
            raise InputError(f"--insert expects NAME=POLY, got {spec!r}")
        name, poly_text = spec.split("=", 1)
        terms = parse_monomial_expression(poly_text, names)
        parsed.append((name.strip(), terms))
        for exps in terms:
            for i, e in enumerate(exps):
                if e and model.column(i) not in etas:
                    etas.append(model.column(i))
    insertions = []
    for name, terms in parsed:
        mapped: dict[Monomial, Fraction] = {}
        for exps, coeff in terms.items():
            key = [0] * len(etas)
            for i, e in enumerate(exps):
                if e:
                    key[etas.index(model.column(i))] += e
            mk = tuple(key)
            mapped[mk] = mapped.get(mk, Fraction(0)) + coeff
        insertions.append(Insertion.from_terms(name, mapped))
    return tuple(etas), tuple(insertions)


def _parse_map(text: str) -> dict[str, str]:
    """--map old=new,old2=new2 as a rename dict."""
    rename = {}
    for pair in text.split(","):
        old, sep, new = pair.partition("=")
        if not sep:
            raise InputError(f"--map expects old=new pairs, got {pair!r}")
        rename[old] = new
    return rename


def _series_key(model: GLSMModel, command: str, q_bound: Fraction, torder: int, insert) -> str:
    """Cache key of a series job from its truncation and --insert specs."""
    return job_key(
        model,
        command,
        {"q_bound": format_rational(q_bound), "t_order": torder},
        {"insertions": [list(spec) for spec in insert]},
    )


def _series_output(series: GradedSeries, fmt: str) -> str:
    if fmt == "latex":
        return render_latex(series) + "\n"
    if fmt == "text":
        lines = [f"state={series.state} terms={len(series.terms)} vanished={len(series.vanished)}"]
        for td, d, alpha in series.graded_keys():
            lines.append(f"  theta-degree {format_rational(td)} degree {[format_rational(x) for x in d]} t={list(alpha)}")
        return "\n".join(lines) + "\n"
    return series_to_json(series)


common_out = click.option("--out", type=click.Path(dir_okay=False), default=None, help="write the artifact to a file")
common_nocache = click.option("--no-cache", is_flag=True, default=False, help="bypass the result cache")


def formats(*names):
    """--format: json (the default) or one of the other renderings the command has."""
    return click.option("--format", "fmt", type=click.Choice(["json", *names]), default="json")


def truncation(command):
    """--qbound (maximal theta-degree) and --torder (nonnegative insertion order) of a series."""
    command = click.option("--torder", type=click.IntRange(min=0), default=0)(command)
    return click.option("--qbound", required=True)(command)


# kind -> (direct series, engine cross-check), both called as (spec, q_bound, t_order).
# Named, not bound: each call reads the specialize module's attribute, so a
# wrapper installed there (perfbench's tracer) sees the CLI's calls too.
FAMILIES = {
    "fjrw": ("fjrw_direct_series", "fjrw_crosscheck"),
    "hybrid": ("hybrid_direct_series", "hybrid_crosscheck"),
    "ci": ("ci_ambient_series", "ci_compare"),
}


@click.group()
@click.version_option(ENGINE_VERSION, prog_name="glsmkit")
def cli():
    """Exact computations for torus gauged linear sigma models."""


@cli.command()
@click.argument("file", type=click.Path())
@common_out
@formats("text")
def validate(file, out, fmt):
    """Check every axiom of the model definition; exit 1 on failure."""
    model = parse_model(_read_file(file))
    report = validate_model(model)
    payload = report.to_dict()
    if fmt == "text":
        lines = [f"overall: {payload['overall']}"]
        for c in payload["checks"]:
            lines.append(f"  [{c['status']}] {c['name']}: {c['detail']}")
        _emit("\n".join(lines) + "\n", out)
    else:
        _emit(_dump(payload), out)
    if not report.overall:
        raise ValidationFailure("model failed validation")


@cli.command()
@click.argument("file", type=click.Path())
@common_out
@formats("text")
def sectors(file, out, fmt):
    """List the inertia sectors of the model."""
    model = parse_model(_read_file(file))
    secs = inertia_sectors(model)
    payload = {
        "sectors": [
            {
                "lambda": [format_rational(x) for x in g.lam],
                "action": [format_rational(x) for x in g.action],
                "fixed_coordinates": sorted(i + 1 for i in g.fixed_support),
            }
            for g in secs
        ]
    }
    if fmt == "text":
        lines = [f"({', '.join(format_rational(x) for x in g.lam)})" for g in secs]
        _emit("\n".join(lines) + "\n", out)
    else:
        _emit(_dump(payload), out)


@cli.command()
@click.argument("file", type=click.Path())
@click.option("--qbound", required=True, help="maximal theta-degree (rational)")
@common_out
@formats("text")
def effective(file, qbound, out, fmt):
    """Enumerate criterion-effective degrees up to the theta-degree bound."""
    model = parse_model(_read_file(file))
    degs = effective_degrees(model, parse_rational(qbound))
    payload = {
        "effectivity": "criterion",
        "degrees": [
            {
                "d": [format_rational(x) for x in d],
                "theta_degree": format_rational(theta_degree(model, d)),
            }
            for d in degs
        ],
    }
    if fmt == "text":
        _emit("\n".join(str([format_rational(x) for x in d]) for d in degs) + "\n", out)
    else:
        _emit(_dump(payload), out)


def _cached_series(key: str, compute, no_cache: bool, parse: bool = True) -> tuple[str, GradedSeries | None]:
    """(series JSON, series) of a job: the verified cache hit, or computed and stored.

    With parse false a hit is returned as stored text and no series, so a
    caller that only emits the JSON never parses it.
    """
    hit = None if no_cache else cache_get(key)
    if hit is not None:
        return hit, series_from_json(hit) if parse else None
    series = compute()
    text = series_to_json(series)
    if not no_cache:
        cache_put(key, text)
    return text, series


def _series_command(mode: str, file, qbound, torder, insert, out, fmt, no_cache):
    model = parse_model(_read_file(file))
    etas, insertions = _parse_insertions(model, insert)
    q_bound = parse_rational(qbound)
    fn = big_i_function if mode == "ifun" else glsm_i_function
    text, series = _cached_series(
        _series_key(model, mode, q_bound, torder, insert),
        lambda: fn(model, etas, insertions, q_bound, torder),
        no_cache,
        parse=fmt != "json",
    )
    _emit(text if fmt == "json" else _series_output(series, fmt), out)


@cli.command()
@click.argument("file", type=click.Path())
@truncation
@click.option("--insert", multiple=True, help="NAME=POLY with POLY over rho1..rhoR")
@common_out
@formats("latex", "text")
@common_nocache
def ifun(file, qbound, torder, insert, out, fmt, no_cache):
    """Truncated big I-function (ambient state space)."""
    _series_command("ifun", file, qbound, torder, insert, out, fmt, no_cache)


@cli.command("glsm-ifun")
@click.argument("file", type=click.Path())
@truncation
@click.option("--insert", multiple=True)
@common_out
@formats("latex", "text")
@common_nocache
def glsm_ifun(file, qbound, torder, insert, out, fmt, no_cache):
    """Truncated I-function of the model with potential (glsm state space)."""
    _series_command("glsm-ifun", file, qbound, torder, insert, out, fmt, no_cache)


@cli.command()
@click.argument("file", type=click.Path())
@click.option("--rho", required=True, help="semicolon-separated characters: rhoI or comma-separated integers")
@truncation
@click.option("--insert", multiple=True)
@click.option("--method", type=click.Choice(["by_multiplication", "by_insertion", "verify"]), default="verify")
@common_out
@formats("latex", "text")
@common_nocache
def dz(file, rho, qbound, torder, insert, method, out, fmt, no_cache):
    """z-shifted derivative of the cached big I-function along characters."""
    model = parse_model(_read_file(file))
    etas, insertions = _parse_insertions(model, insert)
    q_bound = parse_rational(qbound)
    rho_list = _parse_rho_list(model, rho)
    _, series = _cached_series(
        _series_key(model, "ifun", q_bound, torder, insert),
        lambda: big_i_function(model, etas, insertions, q_bound, torder),
        no_cache,
    )
    result = z_partial(series, rho_list, method)
    _emit(_series_output(result, fmt), out)


@cli.command("check-ct")
@click.argument("series_file", type=click.Path())
@common_out
def check_ct(series_file, out):
    """Compact-type report of a stored series; exit 1 on violations."""
    series = series_from_json(_read_file(series_file))
    report = compact_type_report(series, series.model)
    _emit(_dump(report), out)
    if not report["hypothesis_holds"] or report["violations"]:
        raise ValidationFailure("compact-type check failed")


@cli.command()
@click.argument("kind", type=click.Choice(list(FAMILIES)))
@click.argument("file", type=click.Path())
@truncation
@click.option("--crosscheck/--no-crosscheck", default=True)
@common_out
@formats("latex")
def specialize(kind, file, qbound, torder, crosscheck, out, fmt):
    """Build a family model, its direct series, and the engine cross-check."""
    spec = families.specialization_from_model_file(_read_file(file))
    if spec.kind != kind:
        raise InputError(f"specialize {kind} was given a file whose specialization kind is {spec.kind!r}")
    q_bound = parse_rational(qbound)
    direct, check = (getattr(families, name) for name in FAMILIES[kind])
    series = direct(spec, q_bound, torder)
    report = check(spec, q_bound, torder) if crosscheck else None
    if fmt == "latex":
        _emit(render_latex(series) + "\n", out)
    else:
        payload = {"model": model_to_dict(series.model), "series": series_to_dict(series), "crosscheck": report}
        _emit(_dump(payload), out)
    if report is not None and not report["equal"]:
        raise ValidationFailure("cross-check found differences")


@cli.command()
@click.argument("series_a", type=click.Path())
@click.argument("series_b", type=click.Path())
@click.option("--map", "subst", default=None, help="rename insertion variables: old=new,old2=new2")
@common_out
@formats("text")
def compare(series_a, series_b, subst, out, fmt):
    """Exact comparison of two stored series; exit 1 when they differ."""
    a = series_from_json(_read_file(series_a))
    b = series_from_json(_read_file(series_b))
    diff = series_compare(a, b, _parse_map(subst) if subst else None)
    if fmt == "text":
        _emit(("equal on common truncation\n" if not diff else f"{len(diff)} differences\n"), out)
    else:
        _emit(_dump({"equal": not diff, "diff": diff}), out)
    if diff:
        raise ValidationFailure("series differ")


@cli.command("render-latex")
@click.argument("series_file", type=click.Path())
@common_out
def render_latex_cmd(series_file, out):
    """LaTeX view of a stored series."""
    series = series_from_json(_read_file(series_file))
    _emit(render_latex(series) + "\n", out)


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except (ValidationFailure, HypothesisError, DegenerateStabilityError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InputError, BudgetExceededError, click.UsageError, click.BadParameter) as e:
        message = getattr(e, "format_message", lambda: str(e))()
        print(f"error: {message}", file=sys.stderr)
        return EXIT_INPUT
    except click.exceptions.Exit as e:
        return e.exit_code
    except click.Abort:
        return EXIT_INPUT
    except (InternalError, LPInternalError, RingMismatchError, AssertionError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
