"""Command-line surface, standard library only.

Subcommands: validate, sectors, effective, ifun, glsm-ifun, dz, check-ct,
specialize {fjrw|hybrid|ci}, compare, render-latex.  Artifacts go to stdout
or --out; errors to stderr.  Exit codes: 0 success, 1 validation failure,
2 input error, 3 internal assertion.

`COMMANDS` declares every command's positionals and options in one table;
`_parse` reads an argv against it in one loop and `_help_page` renders it.
An option always takes the next token as its value, so `--rho -3,0` parses.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

from . import ENGINE_VERSION
from . import specialize as families
from .cache import cache_get, cache_put, job_key
from .latexout import render_latex
from .model import (
    GLSMModel,
    InputError,
    InternalError,
    model_to_dict,
    parse_model,
    parse_monomial_expression,
    variable_name,
)
from .multipoly import Monomial
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
    """Write an artifact to --out, or to the sys.stdout current at the call.

    Nothing keeps the stream, so each in-process call may be captured in a
    fresh one that is freed once the call returns.
    """
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as e:
            raise InputError(f"cannot write --out {out}: {e.strerror or e}") from None
    else:
        sys.stdout.write(text)
        sys.stdout.flush()


def _dump(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _report(payload, lines: list[str], fmt: str, out: str | None):
    """Emit a report: its JSON payload, or with --format text its lines."""
    _emit("\n".join(lines) + "\n" if fmt == "text" else _dump(payload), out)


def _parse_rho_list(model: GLSMModel, text: str) -> list[tuple[int, ...]]:
    out = []
    for item in filter(None, (part.strip() for part in text.split(";"))):
        try:
            idx = int(item[3:]) - 1 if item.startswith("rho") else None
            vec = tuple(int(x) for x in item.split(",")) if idx is None else None
        except ValueError:
            raise InputError(f"--rho expects rhoI or comma-separated integers, got {item!r}") from None
        if idx is not None and not 0 <= idx < model.r:
            raise InputError(f"rho index out of range in {item!r}")
        out.append(model.column(idx) if vec is None else vec)
    if not out:
        raise InputError(f"--rho names no character, got {text!r}")
    if any(len(vec) != model.k for vec in out):
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
        name = variable_name(name.strip(), "--insert NAME")
        if any(name == seen for seen, _terms in parsed):
            raise InputError(f"--insert names the variable {name!r} more than once")
        terms = parse_monomial_expression(poly_text, names)
        parsed.append((name, terms))
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
        if old in rename:
            raise InputError(f"--map renames {old!r} more than once")
        rename[old] = new
    return rename


def _series_key(model: GLSMModel, command: str, q_bound: Fraction, torder: int, etas, insertions) -> str:
    """Cache key of a series job from its truncation and parsed insertions.

    Each insertion is keyed on its name and canonical polynomial over the
    etas, so spellings of one polynomial (t=rho1, t=1*rho1) share an entry.
    """
    truncation = {"q_bound": format_rational(q_bound), "t_order": torder}
    extras = {
        "etas": [list(eta) for eta in etas],
        "insertions": [[ins.name, [[list(mono), format_rational(c)] for mono, c in ins.poly]] for ins in insertions],
    }
    return job_key(model, command, truncation, extras)


def _series_output(series: GradedSeries, fmt: str) -> str:
    if fmt == "latex":
        return render_latex(series) + "\n"
    if fmt == "text":
        lines = [f"state={series.state} terms={len(series.terms)} vanished={len(series.vanished)}"]
        for td, d, alpha in series.graded_keys():
            lines.append(f"  theta-degree {format_rational(td)} degree {[format_rational(x) for x in d]} t={list(alpha)}")
        return "\n".join(lines) + "\n"
    return series_to_json(series)


# kind -> (direct series, engine cross-check), both called as (spec, q_bound, t_order); the
# cross-check also receives the direct series as `direct`, so it is computed once per command.
# Named, not bound: each call reads the specialize module's attribute, so a
# wrapper installed there (perfbench's tracer) sees the CLI's calls too.
FAMILIES = {
    "fjrw": ("fjrw_direct_series", "fjrw_crosscheck"),
    "hybrid": ("hybrid_direct_series", "hybrid_crosscheck"),
    "ci": ("ci_ambient_series", "ci_compare"),
}


def validate(file, out, fmt):
    """Check every axiom of the model definition; exit 1 on failure."""
    model = parse_model(_read_file(file))
    report = validate_model(model)
    payload = report.to_dict()
    lines = [f"overall: {payload['overall']}"]
    lines += [f"  [{c['status']}] {c['name']}: {c['detail']}" for c in payload["checks"]]
    _report(payload, lines, fmt, out)
    if not report.overall:
        raise ValidationFailure("model failed validation")


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
    _report(payload, [f"({', '.join(format_rational(x) for x in g.lam)})" for g in secs], fmt, out)


def effective(file, q_bound, out, fmt):
    """Enumerate criterion-effective degrees up to the theta-degree bound."""
    model = parse_model(_read_file(file))
    degs = effective_degrees(model, q_bound)
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
    _report(payload, [str([format_rational(x) for x in d]) for d in degs], fmt, out)


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


def _series_command(mode: str, file, q_bound, torder, insert, out, fmt, no_cache):
    model = parse_model(_read_file(file))
    etas, insertions = _parse_insertions(model, insert)
    fn = big_i_function if mode == "ifun" else glsm_i_function
    text, series = _cached_series(
        _series_key(model, mode, q_bound, torder, etas, insertions),
        lambda: fn(model, etas, insertions, q_bound, torder),
        no_cache,
        parse=fmt != "json",
    )
    _emit(text if fmt == "json" else _series_output(series, fmt), out)


def ifun(file, q_bound, torder, insert, out, fmt, no_cache):
    """Truncated big I-function (ambient state space)."""
    _series_command("ifun", file, q_bound, torder, insert, out, fmt, no_cache)


def glsm_ifun(file, q_bound, torder, insert, out, fmt, no_cache):
    """Truncated I-function of the model with potential (glsm state space)."""
    _series_command("glsm-ifun", file, q_bound, torder, insert, out, fmt, no_cache)


def dz(file, rho, q_bound, torder, insert, method, out, fmt, no_cache):
    """z-shifted derivative of the cached big I-function along characters."""
    model = parse_model(_read_file(file))
    etas, insertions = _parse_insertions(model, insert)
    rho_list = _parse_rho_list(model, rho)
    _, series = _cached_series(
        _series_key(model, "ifun", q_bound, torder, etas, insertions),
        lambda: big_i_function(model, etas, insertions, q_bound, torder),
        no_cache,
    )
    result = z_partial(series, rho_list, method)
    _emit(_series_output(result, fmt), out)


def check_ct(series_file, out):
    """Compact-type report of a stored series; exit 1 on violations."""
    series = series_from_json(_read_file(series_file))
    report = compact_type_report(series)
    _emit(_dump(report), out)
    if not report["hypothesis_holds"] or report["violations"]:
        raise ValidationFailure("compact-type check failed")


def specialize(kind, file, q_bound, torder, crosscheck, out, fmt):
    """Build a family model (KIND fjrw, hybrid or ci), its direct series, and the engine cross-check."""
    if kind not in FAMILIES:
        raise InputError(f"KIND must be one of {', '.join(map(repr, FAMILIES))}, got {kind!r}")
    spec = families.specialization_from_model_file(_read_file(file))
    if spec.kind != kind:
        raise InputError(f"specialize {kind} was given a file whose specialization kind is {spec.kind!r}")
    direct, check = (getattr(families, name) for name in FAMILIES[kind])
    series = direct(spec, q_bound, torder)
    report = check(spec, q_bound, torder, direct=series) if crosscheck else None
    if fmt == "latex":
        _emit(render_latex(series) + "\n", out)
    else:
        payload = {"model": model_to_dict(series.model), "series": series_to_dict(series), "crosscheck": report}
        _emit(_dump(payload), out)
    if report is not None and not report["equal"]:
        raise ValidationFailure("cross-check found differences")


def compare(series_a, series_b, subst, out, fmt):
    """Exact comparison of two stored series; exit 1 when they differ."""
    a = series_from_json(_read_file(series_a))
    b = series_from_json(_read_file(series_b))
    diff = series_compare(a, b, _parse_map(subst) if subst else None)
    text = f"{len(diff)} differences" if diff else "equal on common truncation"
    _report({"equal": not diff, "diff": diff}, [text], fmt, out)
    if diff:
        raise ValidationFailure("series differ")


def render_latex_cmd(series_file, out):
    """LaTeX view of a stored series."""
    series = series_from_json(_read_file(series_file))
    _emit(render_latex(series) + "\n", out)


def _nonneg_rational(name: str, text: str) -> Fraction:
    try:
        q = parse_rational(text)
    except ValueError as e:
        raise InputError(f"{name}: {e}") from None
    if q < 0:
        raise InputError(f"{name} must be nonnegative, got {text!r}")
    return q


def _nonneg_int(name: str, text: str) -> int:
    if not text.isdecimal():
        raise InputError(f"{name} must be a nonnegative integer, got {text!r}")
    return int(text)


def _file_path(name: str, text: str) -> str:
    """A path to write, refused before any work when it names a directory."""
    if text and Path(text).is_dir():
        raise InputError(f"{name} {text} is a directory")
    return text


# An option: flag -> (keyword, kind, default, help).  kind is None (the text
# as given), a converter (flag, text) -> value, a tuple of choices, MANY
# (repeatable: every text in order) or a bool (a flag that stores it and
# takes no value).  An option whose default is REQUIRED must be given.
MANY = "many"
REQUIRED = object()


def formats(*names):
    """--format: json (the default) or one of the other renderings the command has."""
    return {"--format": ("fmt", ("json", *names), "json", "rendering of the artifact (default json)")}


OUT = {"--out": ("out", _file_path, None, "write the artifact to a file")}
NO_CACHE = {"--no-cache": ("no_cache", True, False, "bypass the result cache")}
INSERT = {"--insert": ("insert", MANY, (), "NAME=POLY: a variable NAME ([A-Za-z][A-Za-z0-9_]*), POLY over rho1..rhoR")}
QBOUND = {"--qbound": ("q_bound", _nonneg_rational, REQUIRED, "maximal theta-degree (nonnegative rational)")}
TRUNCATION = {**QBOUND, "--torder": ("torder", _nonneg_int, 0, "order in the insertion variables (default 0)")}
SERIES = {**TRUNCATION, **INSERT, **OUT, **formats("latex", "text"), **NO_CACHE}
RHO = {"--rho": ("rho", None, REQUIRED, "semicolon-separated characters: rhoI or comma-separated integers")}
METHOD = {"--method": ("method", ("verify", "by_multiplication", "by_insertion"), "verify", "how to differentiate (default verify)")}
MAP = {"--map": ("subst", None, None, "rename insertion variables: old=new,old2=new2")}
CROSSCHECK = {
    "--crosscheck": ("crosscheck", True, True, "check the direct series on the engine (the default)"),
    "--no-crosscheck": ("crosscheck", False, True, "skip the cross-check"),
}

# command -> (function, positionals, options): the whole command line.  A
# positional is passed as its lowercased name; the function's docstring is
# the command's help.
COMMANDS = {
    "validate": (validate, ("FILE",), {**OUT, **formats("text")}),
    "sectors": (sectors, ("FILE",), {**OUT, **formats("text")}),
    "effective": (effective, ("FILE",), {**QBOUND, **OUT, **formats("text")}),
    "ifun": (ifun, ("FILE",), SERIES),
    "glsm-ifun": (glsm_ifun, ("FILE",), SERIES),
    "dz": (dz, ("FILE",), {**RHO, **TRUNCATION, **INSERT, **METHOD, **OUT, **formats("latex", "text"), **NO_CACHE}),
    "check-ct": (check_ct, ("SERIES_FILE",), OUT),
    "specialize": (specialize, ("KIND", "FILE"), {**TRUNCATION, **CROSSCHECK, **OUT, **formats("latex")}),
    "compare": (compare, ("SERIES_A", "SERIES_B"), {**MAP, **OUT, **formats("text")}),
    "render-latex": (render_latex_cmd, ("SERIES_FILE",), OUT),
}


def _parse(command: str, args: list[str]) -> dict | None:
    """The keyword arguments of the command's function from its argv, or None once --help wrote its page.

    An option takes the next token as its value even when that starts with a
    dash, and `--opt=value` is the same; a flag must be spelled in full.
    """
    _fn, positionals, options = COMMANDS[command]
    values = {keyword: default for keyword, _kind, default, _help in options.values()}
    waiting = list(positionals)
    tokens = iter(args)
    for token in tokens:
        if not token.startswith("-") or token == "-":
            if not waiting:
                raise InputError(f"unexpected extra argument {token!r}")
            values[waiting.pop(0).lower()] = token
            continue
        if token == "--help":
            return _emit(_help_page(command), None)
        flag, given, text = token.partition("=")
        if flag not in options:
            raise InputError(f"no such option {flag}")
        keyword, kind, _default, _help = options[flag]
        if isinstance(kind, bool):
            if given:
                raise InputError(f"{flag} takes no value")
            values[keyword] = kind
            continue
        text = text if given else next(tokens, None)
        if text is None:
            raise InputError(f"{flag} requires a value")
        if kind == MANY:
            values[keyword] += (text,)
        elif isinstance(kind, tuple) and text not in kind:
            raise InputError(f"{flag} must be one of {', '.join(map(repr, kind))}, got {text!r}")
        else:
            values[keyword] = kind(flag, text) if callable(kind) else text
    missing = waiting + [flag for flag, (keyword, *_rest) in options.items() if values[keyword] is REQUIRED]
    if missing:
        raise InputError(f"missing {missing[0]}")
    return values


def _help_page(command: str | None) -> str:
    """The --help page of a command, or of the program when command is None, read off COMMANDS."""
    if command is None:
        head = "[--version] COMMAND [ARGS]...\n\n  Exact computations for torus gauged linear sigma models.\n\nCommands and options:"
        rows = [(name, fn.__doc__) for name, (fn, *_rest) in COMMANDS.items()]
        rows.append(("--version", "Show the version."))
    else:
        fn, positionals, options = COMMANDS[command]
        head = f"{command} [OPTIONS] {' '.join(positionals)}\n\n  {fn.__doc__}\n\nOptions:"
        rows = [
            (flag + ("" if isinstance(kind, bool) else f" [{'|'.join(kind)}]" if isinstance(kind, tuple) else " VALUE"),
             text + (" [required]" if default is REQUIRED else " [repeatable]" if kind == MANY else ""))
            for flag, (_keyword, kind, default, text) in options.items()
        ]
    rows.append(("--help", "Show this message."))
    width = max(len(left) for left, _right in rows)
    return "\n".join([f"Usage: glsmkit {head}"] + [f"  {left:<{width}}  {right}".rstrip() for left, right in rows]) + "\n"


def main(argv=None):
    """Run one command line (default sys.argv[1:]) and return its exit code."""
    args = sys.argv[1:] if argv is None else list(argv)
    command = args[0] if args else None
    try:
        if command in ("--help", "--version"):
            _emit(_help_page(None) if command == "--help" else f"glsmkit, version {ENGINE_VERSION}\n", None)
        elif command not in COMMANDS:
            raise InputError(f"no such command {command!r}" if args else f"missing COMMAND, one of {', '.join(COMMANDS)}")
        elif (values := _parse(command, args[1:])) is not None:
            COMMANDS[command][0](**values)
        return 0
    except (ValidationFailure, HypothesisError, DegenerateStabilityError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InternalError, RingMismatchError, AssertionError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except (InputError, BudgetExceededError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
