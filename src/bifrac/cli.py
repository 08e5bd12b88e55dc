"""Command-line front end.

Subcommands: cov, psd-check, sample, gap, counterexample, bernstein-gap,
series-check.  Exit codes are a stable contract for harnesses:

    0  success
    2  input or domain error (any other BifracError, an OSError, or a
       MemoryError: an input too large for this machine)
    3  an inequality nonnegativity assertion fired
    4  numerical factorization failure
    5  violation search exhausted

Any other exception is a defect and propagates with its traceback.

Every numeric field in JSON output is rendered with 17 significant digits
(null where the value is infinite or NaN), and every seeded command is a
deterministic function of its full argument list (``BIFRAC_SEED``
supplies the seed when --seed is absent).

Options are written ``--name value`` or ``--name=value``, and a long name
may be cut to any prefix that names one option (``--n-terms`` as ``--n``).
``-d`` and ``-g`` take ``-d value``, ``-dvalue`` or ``-d=value``.  A value
may be a negative number (``--y -1.8``).  When an option is repeated the
last one wins.  ``bifrac -h`` lists the subcommands and ``bifrac <cmd> -h``
lists the options of one.  A usage error prints the usage line and the
error to stderr and exits 2.
"""

from __future__ import annotations

import math
import os
import sys
from types import SimpleNamespace

# Every other library module is imported by the handlers that run it.
from .dists import dist_from_json
from .errors import (
    BifracError,
    InequalityViolationError,
    InvalidInputError,
    NotPSDError,
    NumericalFailureError,
    OutOfDomainError,
    SearchExhaustedError,
)

# Exit code per exception family; the first entry the exception is an
# instance of decides.  Anything else propagates: it is a defect.
_EXIT_CODES = {
    InequalityViolationError: 3,
    NotPSDError: 4,
    NumericalFailureError: 4,
    SearchExhaustedError: 5,
    BifracError: 2,
    OSError: 2,
    MemoryError: 2,
}


def _fmt(x) -> str:
    return format(x, ".17g")


def render_json(obj) -> str:
    """JSON with floats at 17 significant digits; a non-finite float, which
    JSON cannot hold, renders as null."""
    import json

    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {render_json(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(render_json(v) for v in obj) + "]"
    raise TypeError(f"cannot render {type(obj)!r} as JSON")


def _parse_grid(spec: str) -> TimeGrid:
    from .kernel import TimeGrid

    try:
        start, step, count = spec.split(":")
        start, step, count = float(start), float(step), int(count)
    except ValueError:
        raise InvalidInputError(f"grid spec must be start:step:count, got {spec!r}") from None
    return TimeGrid.regular(start, step, count)


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("BIFRAC_SEED")
    if env is None:
        raise InvalidInputError("a seed is required: pass --seed or set BIFRAC_SEED")
    try:
        return int(env)
    except ValueError:
        raise InvalidInputError(f"BIFRAC_SEED must be an integer, got {env!r}") from None


def _load_json(path: str):
    import json

    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            # ValueError: a JSONDecodeError, a UnicodeDecodeError or an int
            # past the interpreter's digit limit; RecursionError: deep nesting.
            raise InvalidInputError(f"malformed JSON: {exc}") from None


def _params(H: float, K: float, force: bool) -> BifParams:
    from .kernel import BifParams, validate_params

    try:
        return validate_params(H, K)
    except OutOfDomainError:
        if not force:
            raise
        print("warning: (H, K) outside existence domain; forced evaluation", file=sys.stderr)
        return BifParams(H, K)


# Each handler imports the library modules it runs, so a process loads only
# those beside errors and dists: ``gap`` adds inequality and _rng, kernel
# on the variance route and _guide on the mc route, ``cov`` adds kernel,
# ``psd-check`` and ``sample`` add gpsim, kernel and _rng, ``bernstein-gap``
# and ``series-check`` add bernstein, inequality and _rng, and
# ``counterexample`` adds counterexample alone.  json loads only where JSON
# is read or written, so ``cov`` and ``sample`` never load it.
def _cmd_cov(args) -> str:
    from .kernel import cov

    p = _params(args.H, args.K, args.force)
    return _fmt(cov(p, args.t, args.s))


def _cmd_psd_check(args) -> str:
    from .gpsim import build_cov_matrix, check_psd

    p = _params(args.H, args.K, args.force)
    grid = _parse_grid(args.grid)
    verdict = check_psd(build_cov_matrix(p, grid), tol=args.tol)
    return render_json({"psd": verdict.is_psd, "min_eig": verdict.min_eig, "n": len(grid)})


def _cmd_sample(args) -> None:
    from .gpsim import sample_paths
    from .kernel import validate_params

    p = validate_params(args.H, args.K)
    grid = _parse_grid(args.grid)
    sample_paths(p, grid, args.m, _resolve_seed(args.seed)).to_csv(args.out)


def _cmd_gap(args) -> str:
    from .inequality import _gap_mc_law, gap_exact, gap_tail_integral, gap_via_variance

    d = dist_from_json(_load_json(args.dist))
    if args.route == "exact":
        report = gap_exact(d, args.alpha)
    elif args.route == "tail":
        if args.alpha != 1:
            raise InvalidInputError("route=tail requires --alpha 1")
        report = gap_tail_integral(d)
    elif args.route == "variance":
        report = gap_via_variance(d, args.alpha)
    else:
        if args.n is None:
            raise InvalidInputError("route=mc requires --n")
        report = _gap_mc_law(d, args.alpha, args.n, _resolve_seed(args.seed), workers=args.workers)
    return render_json(report.as_json_dict())


def _cmd_counterexample(args) -> str:
    from .counterexample import find_violation, lower_bound_chain

    fam = find_violation(args.alpha)
    chain = lower_bound_chain(fam)
    return render_json(
        {
            "alpha": fam.alpha,
            "c": fam.c,
            "M": fam.M,
            "violation": chain.exact,
            "bound1": chain.bound1,
            "bound2": chain.bound2,
            "threshold": fam.threshold,
            "below_threshold": fam.below_threshold,
        }
    )


def _cmd_bernstein_gap(args) -> str:
    from .bernstein import bernstein_from_json, bernstein_gap_exact

    d = dist_from_json(_load_json(args.dist))
    g = bernstein_from_json(_load_json(args.bernstein))
    return render_json(bernstein_gap_exact(d, g).as_json_dict())


def _cmd_series_check(args) -> str:
    from .bernstein import series_identity_check

    return render_json(series_identity_check(args.x, args.y, args.t, args.n_terms)._asdict())


# The command line, one entry per subcommand: its help line and its
# options.  This one table drives both the parser and the help.  An option
# is (flags, type, default, help).  The type is float, int or str, a tuple
# of the strings it accepts, or bool for a flag that stores True;
# _REQUIRED as the default makes the option mandatory.  The attribute an
# option sets is its long flag without the dashes, with "-" read as "_".
# Every subcommand also takes -h/--help.
_REQUIRED = object()
_FORCE = ("--force", bool, False, "allow (H, K) outside the domain")
_COMMANDS = {
    "cov": ("evaluate the covariance kernel at (t, s)", (
        ("--H", float, _REQUIRED, ""),
        ("--K", float, _REQUIRED, ""),
        ("--t", float, _REQUIRED, ""),
        ("--s", float, _REQUIRED, ""),
        _FORCE,
    )),
    "psd-check": ("eigenvalue PSD verdict for a grid covariance matrix", (
        ("--H", float, _REQUIRED, ""),
        ("--K", float, _REQUIRED, ""),
        ("--grid", str, _REQUIRED, "start:step:count"),
        ("--tol", float, 1e-8, ""),
        _FORCE,
    )),
    "sample": ("sample Gaussian paths to CSV", (
        ("--H", float, _REQUIRED, ""),
        ("--K", float, _REQUIRED, ""),
        ("--grid", str, _REQUIRED, "start:step:count"),
        ("--m", int, _REQUIRED, ""),
        ("--seed", int, None, ""),
        ("--out", str, _REQUIRED, ""),
    )),
    "gap": ("moment gap of a discrete law by a chosen route", (
        ("-d --dist", str, _REQUIRED, "distribution JSON file"),
        ("--alpha", float, _REQUIRED, ""),
        ("--route", ("exact", "tail", "variance", "mc"), _REQUIRED, ""),
        ("--n", int, None, "Monte Carlo sample count"),
        ("--seed", int, None, ""),
        ("--workers", int, 1, ""),
    )),
    "counterexample": ("find a violating two-point family for alpha > 2", (
        ("--alpha", float, _REQUIRED, ""),
    )),
    "bernstein-gap": ("gap for F(x) = G(x^2) with G a Bernstein function", (
        ("-d --dist", str, _REQUIRED, ""),
        ("-g --bernstein", str, _REQUIRED, ""),
    )),
    "series-check": ("pointwise product-expansion check", (
        ("--x", float, _REQUIRED, ""),
        ("--y", float, _REQUIRED, ""),
        ("--t", float, _REQUIRED, ""),
        ("--n-terms", int, _REQUIRED, ""),
    )),
}
_HELP = ("-h --help", bool, None, "show this help message and exit")


def _dest(opt) -> str:
    return [f for f in opt[0].split() if f[:2] == "--"][0][2:].replace("-", "_")


def _label(opt) -> str:
    return "/".join(opt[0].split())


def _metavar(opt) -> str:
    if opt[1] is bool:
        return ""
    return " {%s}" % ",".join(opt[1]) if isinstance(opt[1], tuple) else " " + _dest(opt).upper()


def _usage(command) -> str:
    if command is None:
        return "usage: bifrac [-h] {%s} ..." % ",".join(_COMMANDS)
    words = ["usage: bifrac", command, "[-h]"]
    for opt in _COMMANDS[command][1]:
        word = opt[0].split()[0] + _metavar(opt)
        words.append(word if opt[2] is _REQUIRED else "[" + word + "]")
    return " ".join(words)


def _usage_error(command, message: str):
    prog = "bifrac" if command is None else "bifrac " + command
    print("%s\n%s: error: %s" % (_usage(command), prog, message), file=sys.stderr)
    raise SystemExit(2)


def _print_help(command):
    if command is None:
        rows = [(name, entry[0]) for name, entry in _COMMANDS.items()]
        text = __doc__.strip() + "\n\ncommands:"
    else:
        options = (_HELP, *_COMMANDS[command][1])
        rows = [(", ".join(f + _metavar(opt) for f in opt[0].split()), opt[3]) for opt in options]
        text = _COMMANDS[command][0] + "\n\noptions:"
    width = max(len(name) for name, _ in rows) + 2
    rows = [("  " + name.ljust(width) + line).rstrip() for name, line in rows]
    print(_usage(command), "", text, *rows, sep="\n")
    raise SystemExit(0)


def _is_option(token: str) -> bool:
    """A token that names an option: it starts with "-", is not "-" alone,
    and is not a number, so "--y -1.8" reads -1.8 as the value of --y."""
    if len(token) < 2 or token[0] != "-":
        return False
    try:
        float(token)
    except ValueError:
        return True
    return False


def _lookup(name: str, flags: dict):
    """The option ``name`` selects: its exact flag, or else the one long
    flag it is a prefix of; None when there is no such flag."""
    if name in flags:
        return flags[name]
    hits = [f for f in flags if f.startswith(name)] if name[:2] == "--" != name else []
    return flags[hits[0]] if len(hits) == 1 else None


def parse_args(argv=None):
    """Parse a command line (``sys.argv[1:]`` by default) against
    ``_COMMANDS`` into a namespace holding ``command`` and one attribute
    per option of that subcommand.

    Options take ``--name value``, ``--name=value``, a unique prefix of a
    long name, and ``-d value``, ``-dvalue`` or ``-d=value`` for a short
    one; when one is repeated the last wins.  A usage error prints the
    usage line and the error to stderr and raises SystemExit(2);
    -h/--help prints the help to stdout and raises SystemExit(0).
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        _usage_error(None, "the following arguments are required: command")
    command = argv[0]
    if command not in _COMMANDS:
        if _lookup(command, {"-h": _HELP, "--help": _HELP}):
            _print_help(None)
        choices = ", ".join(map(repr, _COMMANDS))
        _usage_error(None, "argument command: invalid choice: %r (choose from %s)" % (command, choices))
    options = _COMMANDS[command][1]
    flags = {f: opt for opt in (_HELP, *options) for f in opt[0].split()}
    values, unknown = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        opt = None
        if _is_option(token):
            if token[:2] == "--":
                name, eq, value = token.partition("=")
                value = value if eq else None
            else:
                name, value = token[:2], token[2:]
                value = value[1:] if value[:1] == "=" else value or None
            opt = _lookup(name, flags)
        if opt is None:
            unknown.append(token)
            continue
        kind = opt[1]
        error = "argument " + _label(opt) + ": "
        if kind is bool:
            if value is not None:
                _usage_error(command, error + "ignored explicit argument %r" % value)
            if opt is _HELP:
                _print_help(command)
            values[_dest(opt)] = True
            continue
        if value is None:
            value = next(tokens, None)
            if value is None or _is_option(value):
                _usage_error(command, error + "expected one argument")
        if isinstance(kind, tuple):
            if value not in kind:
                choices = ", ".join(map(repr, kind))
                _usage_error(command, error + "invalid choice: %r (choose from %s)" % (value, choices))
        else:
            try:
                value = kind(value)
            except ValueError:
                _usage_error(command, error + "invalid %s value: %r" % (kind.__name__, value))
        values[_dest(opt)] = value
    missing = [_label(opt) for opt in options if opt[2] is _REQUIRED and _dest(opt) not in values]
    if missing:
        _usage_error(command, "the following arguments are required: " + ", ".join(missing))
    if unknown:
        _usage_error(command, "unrecognized arguments: " + " ".join(unknown))
    defaults = {_dest(opt): opt[2] for opt in options}
    return SimpleNamespace(command=command, **{**defaults, **values})


def main(argv=None) -> int:
    # Returns the exit code and leaves the garbage collector as it found
    # it, so tests and host programs may call it in-process.  The process
    # entry, ``bifrac.__main__.run`` (the console script and ``python -m
    # bifrac``), wraps it and freezes the collector as the process exits.
    args = parse_args(argv)
    # Looked up at call time, so a handler patched onto the module runs.
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        out = handler(args)
        if out is not None:
            print(out)
        return 0
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":  # python -m bifrac.cli: the same process entry
    from bifrac.__main__ import run

    sys.exit(run())
