"""Command-line front end.

Subcommands: cov, psd-check, sample, gap, counterexample, bernstein-gap,
series-check.  Exit codes are a stable contract for harnesses:

    0  success
    2  input or domain error
    3  an inequality nonnegativity assertion fired
    4  numerical factorization failure
    5  violation search exhausted

Every numeric field in JSON output is rendered with 17 significant digits
(null where the value is infinite or NaN), and every seeded command is a
deterministic function of its full argument list (``BIFRAC_SEED``
supplies the seed when --seed is absent).

Each handler imports the library modules it runs, so a process loads only
those beside errors and dists: ``gap`` adds inequality, kernel and _rng,
``cov`` adds kernel, ``psd-check`` and ``sample`` add gpsim, kernel and
_rng, ``bernstein-gap`` and ``series-check`` add bernstein, inequality,
kernel and _rng, and ``counterexample`` adds counterexample alone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

# Every other library module is imported by the handlers that run it.
from .dists import dist_from_json
from .errors import (
    BifracError,
    InequalityViolationError,
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
    ValueError: 2,
    TypeError: 2,
    OverflowError: 2,
    OSError: 2,
}


def _fmt(x) -> str:
    return format(x, ".17g")


def render_json(obj) -> str:
    """JSON with floats at 17 significant digits; a non-finite float, which
    JSON cannot hold, renders as null."""
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

    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be start:step:count, got {spec!r}")
    return TimeGrid.regular(float(parts[0]), float(parts[1]), int(parts[2]))


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("BIFRAC_SEED")
    if env is not None:
        return int(env)
    raise ValueError("a seed is required: pass --seed or set BIFRAC_SEED")


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _params(H: float, K: float, force: bool) -> BifParams:
    from .kernel import BifParams, validate_params

    try:
        return validate_params(H, K)
    except OutOfDomainError:
        if not force:
            raise
        print("warning: (H, K) outside existence domain; forced evaluation", file=sys.stderr)
        return BifParams(H, K)


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
            raise ValueError("route=tail requires --alpha 1")
        report = gap_tail_integral(d)
    elif args.route == "variance":
        report = gap_via_variance(d, args.alpha)
    else:
        if args.n is None:
            raise ValueError("route=mc requires --n")
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

    res = series_identity_check(args.x, args.y, args.t, args.n_terms)
    return render_json(
        {"lhs": res.lhs, "rhs_partial": res.rhs_partial, "remainder_bound": res.remainder_bound}
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bifrac", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cov", help="evaluate the covariance kernel at (t, s)")
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--force", action="store_true", help="allow (H, K) outside the domain")
    p.set_defaults(func=_cmd_cov)

    p = sub.add_parser("psd-check", help="eigenvalue PSD verdict for a grid covariance matrix")
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--grid", type=str, required=True, help="start:step:count")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--force", action="store_true", help="allow (H, K) outside the domain")
    p.set_defaults(func=_cmd_psd_check)

    p = sub.add_parser("sample", help="sample Gaussian paths to CSV")
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--grid", type=str, required=True, help="start:step:count")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("gap", help="moment gap of a discrete law by a chosen route")
    p.add_argument("-d", "--dist", type=str, required=True, help="distribution JSON file")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--route", choices=("exact", "tail", "variance", "mc"), required=True)
    p.add_argument("--n", type=int, default=None, help="Monte Carlo sample count")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("counterexample", help="find a violating two-point family for alpha > 2")
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("bernstein-gap", help="gap for F(x) = G(x^2) with G a Bernstein function")
    p.add_argument("-d", "--dist", type=str, required=True)
    p.add_argument("-g", "--bernstein", type=str, required=True)
    p.set_defaults(func=_cmd_bernstein_gap)

    p = sub.add_parser("series-check", help="pointwise product-expansion check")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--n-terms", type=int, required=True)
    p.set_defaults(func=_cmd_series_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.func(args)
        if out is not None:
            print(out)
        return 0
    except tuple(_EXIT_CODES) as exc:
        prefix = "malformed JSON: " if isinstance(exc, json.JSONDecodeError) else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
