"""Output checks.  A command fails when its exit code is wrong or its
output fails the check its ``Command.check`` names; failures feed the
run's ``failed`` count.

The gap checks compare against an oracle computed here with numpy and
``math.fsum`` over the full pair table, independent of the program's
summation code.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

# Route agreement and nonnegativity tolerance, relative to e_plus + e_minus.
REL_TOL = 1e-12
# Monte Carlo estimates must lie within this many stderr of the exact gap.
MC_SIGMAS = 5.0
# Empirical variance of a sampled coordinate must match t**(2HK) within this
# many standard errors of the variance estimate, sqrt(2/m) relative.
VAR_SIGMAS = 6.0
VAR_MIN_ROWS = 1000


class RunContext:
    """State shared by the checks of one benchmark run: the oracle cache,
    the CSV digests of the first pass and the latest stdout per command."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self._oracle: dict = {}
        self.digests: dict = {}
        self.stdout: dict = {}

    def oracle(self, law: str, alpha: float):
        """(e_plus, e_minus) of the law in file ``law`` at ``alpha``."""
        key = (law, alpha)
        if key not in self._oracle:
            with open(os.path.join(self.workdir, law)) as fh:
                atoms = json.load(fh)["atoms"]
            x = np.array([a["x"] for a in atoms])
            p = np.array([a["p"] for a in atoms])
            w = np.outer(p, p)
            e_plus = math.fsum((w * np.abs(x[:, None] + x[None, :]) ** alpha).ravel().tolist())
            e_minus = math.fsum((w * np.abs(x[:, None] - x[None, :]) ** alpha).ravel().tolist())
            self._oracle[key] = (e_plus, e_minus)
        return self._oracle[key]


def _check_numbers(r: dict, keys=("e_plus", "e_minus", "gap")) -> str | None:
    """The report's numbers are finite and its gap is e_plus - e_minus."""
    for key in keys:
        if not isinstance(r.get(key), (int, float)) or not math.isfinite(r[key]):
            return f"{key} missing or not finite"
    if r["gap"] != r["e_plus"] - r["e_minus"]:
        return "gap != e_plus - e_minus"
    return None


def _check_report(r: dict) -> str | None:
    """As _check_numbers, and the gap is nonnegative within tolerance."""
    bad = _check_numbers(r)
    if bad is None and r["gap"] < -REL_TOL * (r["e_plus"] + r["e_minus"]):
        bad = f"gap {r['gap']!r} is negative beyond tolerance"
    return bad


def check_gap(spec: dict, out: str, ctx: RunContext) -> str | None:
    r = json.loads(out)
    if r.get("route") != spec["route"] or r.get("alpha") != spec["alpha"]:
        return f"route/alpha {r.get('route')}/{r.get('alpha')} != {spec['route']}/{spec['alpha']}"
    bad = _check_report(r)
    if bad:
        return bad
    e_plus, e_minus = ctx.oracle(spec["law"], spec["alpha"])
    tol = REL_TOL * (e_plus + e_minus)
    if abs(r["e_plus"] - e_plus) > tol or abs(r["gap"] - (e_plus - e_minus)) > tol:
        return (
            f"{spec['route']} gap {r['gap']!r} (e_plus {r['e_plus']!r}) disagrees with the "
            f"pair-table gap {e_plus - e_minus!r} (e_plus {e_plus!r}) beyond {tol:.3g}"
        )
    return None


def check_mc(spec: dict, out: str, ctx: RunContext) -> str | None:
    r = json.loads(out)
    if r.get("route") != "mc" or r.get("n") != spec["n"] or r.get("alpha") != spec["alpha"]:
        return "route, n or alpha differ from the command"
    bad = _check_numbers(r, ("e_plus", "e_minus", "gap", "stderr"))
    if bad:
        return bad
    e_plus, e_minus = ctx.oracle(spec["law"], spec["alpha"])
    allowed = MC_SIGMAS * r["stderr"] + REL_TOL * (e_plus + e_minus)
    if abs(r["gap"] - (e_plus - e_minus)) > allowed:
        return f"mc gap {r['gap']!r} is more than {MC_SIGMAS:g} stderr from {e_plus - e_minus!r}"
    if "twin" in spec and out != ctx.stdout.get(spec["twin"]):
        return "output differs from the same command at --workers 1"
    return None


def check_bernstein(spec: dict, out: str, ctx: RunContext) -> str | None:
    r = json.loads(out)
    if r.get("alpha") is not None or r.get("route") != "exact":
        return "not an exact Bernstein report"
    return _check_report(r)


def check_counterexample(spec: dict, out: str, ctx: RunContext) -> str | None:
    r = json.loads(out)
    if not r.get("violation", 0) > 0:
        return f"violation {r.get('violation')!r} is not positive"
    if r.get("below_threshold") is not True:
        return "below_threshold is not true"
    return None


def check_series(spec: dict, out: str, ctx: RunContext) -> str | None:
    r = json.loads(out)
    if not abs(r["lhs"] - r["rhs_partial"]) <= r["remainder_bound"] + REL_TOL:
        return f"|lhs - rhs_partial| = {abs(r['lhs'] - r['rhs_partial'])!r} exceeds the bound"
    return None


def check_psd(spec: dict, out: str, ctx: RunContext) -> str | None:
    r = json.loads(out)
    if r.get("psd") is not spec["psd"] or r.get("n") != spec["n"]:
        return f"psd/n {r.get('psd')}/{r.get('n')} != {spec['psd']}/{spec['n']}"
    if not spec["psd"] and not r["min_eig"] < 0:
        return "non-PSD verdict without a negative eigenvalue"
    return None


def check_csv(spec: dict, out: str, ctx: RunContext) -> str | None:
    """Header, shape, the pinned t = 0 column, the diagonal variance law
    Var B_t = t**(2HK) at the last grid point, and byte identity with the
    first pass of the run."""
    path = os.path.join(ctx.workdir, spec["out"])
    with open(path, "rb") as fh:
        data = fh.read()
    os.remove(path)
    n, m = spec["n"], spec["m"]
    lines = data.decode().split("\n")
    if lines[-1] != "" or len(lines) != m + 2:
        return f"expected {m} rows after the header and a final newline"
    if lines[0] != ",".join(f"t_{i}" for i in range(n)):
        return "wrong header"
    rows = lines[1:-1]
    if any(row.count(",") != n - 1 for row in rows):
        return f"a row does not have {n} fields"
    if spec["zero_first"] and any(not row.startswith("0,") for row in rows):
        return "the t = 0 column is not pinned to 0"
    if m >= VAR_MIN_ROWS:
        last = np.array([float(row[row.rindex(",") + 1 :]) for row in rows])
        want = spec["t_last"] ** (2.0 * spec["H"] * spec["K"])
        got = float(np.mean(last * last))
        if abs(got / want - 1.0) > VAR_SIGMAS * math.sqrt(2.0 / m):
            return f"Var at t = {spec['t_last']!r} is {got!r}, expected {want!r}"
    digest = hashlib.sha256(data).hexdigest()
    first = ctx.digests.setdefault(spec["out"], digest)
    if digest != first:
        return "CSV bytes differ from the first pass with the same seed"
    return None


CHECKS = {
    "gap": check_gap,
    "mc": check_mc,
    "bernstein": check_bernstein,
    "counterexample": check_counterexample,
    "series": check_series,
    "psd": check_psd,
    "csv": check_csv,
}


def check(index: int, cmd, code: int, out: str, err: str, ctx: RunContext) -> str | None:
    """None if command ``index`` behaved, else the reason it failed."""
    ctx.stdout[index] = out
    if code != cmd.expect_exit:
        return f"exit code {code}, expected {cmd.expect_exit}: {err.strip()[-300:]}"
    if cmd.expect_exit != 0:
        return None if err.startswith("error:") else "no error message on stderr"
    try:
        return CHECKS[cmd.check["kind"]](cmd.check, out, ctx)
    except (ValueError, KeyError, TypeError, AttributeError, OSError) as exc:
        return f"unreadable output: {exc!r}"
