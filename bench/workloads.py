"""Seeded workload generator.

``generate(name, seed)`` turns a workload name and a seed into the input
files and the ordered command list of one workload.  Everything is drawn
from ``random.Random(f"{name}:{seed}")``, so the same (name, seed) always
gives the same bytes; the program only ever sees the generated files and
argument lists.

Sizes are drawn stratified: each command has a fixed size slot (an atom
count, a grid length, a sample count) jittered by a few percent, so every
seed does near-equal work and a run's wall time reflects the program, not
the draw.  The seed chooses atom positions and masses, (H, K), alpha,
grids and program seeds.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

SIZE_JITTER = 0.02


@dataclass(frozen=True)
class Command:
    """One ``python -m bifrac`` invocation and how to check its output.

    ``argv`` holds paths relative to the workload's directory.  ``check``
    names a check kind in ``checks.CHECKS`` plus its parameters.
    """

    argv: tuple[str, ...]
    check: dict
    expect_exit: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    files: dict = field(default_factory=dict)  # relative name -> bytes
    commands: tuple = ()

    def canonical_bytes(self) -> bytes:
        """Every generated byte, in one canonical serialization."""
        return json.dumps(
            {
                "files": {k: v.decode() for k, v in sorted(self.files.items())},
                "commands": [
                    {"argv": list(c.argv), "check": c.check, "expect_exit": c.expect_exit}
                    for c in self.commands
                ],
            },
            sort_keys=True,
        ).encode()

    def write_files(self, workdir: str) -> None:
        for name, data in self.files.items():
            with open(os.path.join(workdir, name), "wb") as fh:
                fh.write(data)


def _num(x: float) -> str:
    """Argument text for a drawn float; checks parse the same text back."""
    return repr(float(f"{x:.6g}"))


def _jitter(rng: random.Random, base: float) -> float:
    return base * (1.0 + rng.uniform(-SIZE_JITTER, SIZE_JITTER))


# ---------------------------------------------------------------- laws


def _law_bytes(xs, ws) -> bytes:
    total = math.fsum(ws)
    atoms = sorted(zip(xs, ws))
    return json.dumps({"atoms": [{"x": x, "p": w / total} for x, w in atoms]}).encode()


def _distinct(rng, k, draw):
    xs = set()
    while len(xs) < k:
        x = draw()
        if math.isfinite(x):
            xs.add(x)
    return sorted(xs)


def _multiscale_zero(rng, k):
    # Magnitudes 10**-6 .. 10**6, plus an atom at 0 holding about a third of
    # the mass.
    xs = _distinct(rng, k - 1, lambda: rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 6.0))
    return [0.0] + xs, [0.5 * len(xs)] + [0.05 + rng.random() for _ in xs]


def _cauchy(rng, k):
    def draw():
        x = math.tan(math.pi * (rng.random() - 0.5))
        return x if 0.0 < abs(x) <= 1e6 else math.nan

    xs = _distinct(rng, k, draw)
    return xs, [0.05 + rng.random() for _ in xs]


def _near_symmetric(rng, k):
    # Mirrored atoms whose masses differ by ~1e-6 relative: the gap is tiny
    # against e_plus + e_minus.
    mags = _distinct(rng, (k + 1) // 2, lambda: rng.lognormvariate(0.0, 1.0))
    xs, ws = [], []
    for y in mags:
        w = 0.05 + rng.random()
        xs += [y, -y]
        ws += [w * (1.0 + rng.uniform(-1e-6, 1e-6)), w]
    return xs, ws


def _bounded(rng, k):
    # Light-tailed law for Monte Carlo: bounded atoms, no tiny masses, so
    # the paired estimate's stderr is trustworthy at every k.
    if k == 2:
        xs = sorted((rng.uniform(-3.0, 0.0), rng.uniform(0.5, 3.0)))
    else:
        xs = _distinct(rng, k, lambda: rng.uniform(-3.0, 3.0) + rng.choice((0.0, 1.5)))
    return xs, [0.5 + rng.random() for _ in xs]


# In ascending slot order of atom count.
HARD_FAMILIES = {
    "multiscale_zero": _multiscale_zero,
    "near_symmetric": _near_symmetric,
    "cauchy": _cauchy,
}


def _bernstein_bytes(rng) -> bytes:
    mu = [{"t": 10.0 ** rng.uniform(-2.0, 1.0), "w": rng.uniform(0.1, 2.0)} for _ in range(2)]
    return json.dumps({"a": rng.uniform(0.0, 1.0), "b": rng.uniform(0.0, 1.0), "mu": mu}).encode()


def _prog_seed(rng) -> str:
    return str(rng.randrange(1 << 31))


# ---------------------------------------------------------------- workloads


def _paths(rng):
    files, cmds = {}, []

    def domain_hk(max_hk):
        H = rng.uniform(0.15, 0.95)
        K = rng.uniform(0.2, min(2.0, max_hk / H))
        return float(_num(H)), float(_num(K))

    # CSV-heavy (m*n = 1e6 values, grid from t = 0) and build-heavy (n ~ 1100,
    # where the O(n^2) scalar covariance build dominates) samples.
    for out, n, m, start0 in (
        ("csv.csv", round(rng.uniform(150, 250)), None, True),
        ("build.csv", round(_jitter(rng, 1100)), 50, False),
    ):
        m = m or round(1e6 / n)
        step = float(_num(rng.uniform(0.005, 0.02)))
        start = 0.0 if start0 else step
        H, K = domain_hk(0.75)
        cmds.append(
            Command(
                ("sample", "--H", repr(H), "--K", repr(K), "--grid", f"{start!r}:{step!r}:{n}",
                 "--m", str(m), "--seed", _prog_seed(rng), "--out", out),
                {"kind": "csv", "out": out, "n": n, "m": m, "zero_first": start0,
                 "t_last": start + (n - 1) * step, "H": H, "K": K},
            )
        )
    # psd-check in the domain (true) at n ~ 1000, from t = 0.
    n = round(_jitter(rng, 1000))
    step = float(_num(rng.uniform(0.005, 0.05)))
    H, K = domain_hk(1.0)
    cmds.append(
        Command(
            ("psd-check", "--H", repr(H), "--K", repr(K), "--grid", f"0.0:{step!r}:{n}"),
            {"kind": "psd", "psd": True, "n": n},
        )
    )
    # Forced (1, 2) lies outside the domain and must report non-PSD.
    step = float(_num(rng.uniform(0.1, 1.0)))
    cmds.append(
        Command(
            ("psd-check", "--H", "1", "--K", "2", "--grid", f"{step!r}:{step!r}:200", "--force"),
            {"kind": "psd", "psd": False, "n": 200},
        )
    )
    # Exit-code probe: out of the domain without --force is an input error.
    cmds.append(Command(("psd-check", "--H", "1", "--K", "2", "--grid", "1:1:4"), {"kind": "exit"}, 2))
    return files, cmds


def _gaps(rng):
    files, cmds = {}, []
    # Stratified log-uniform atom counts over [20, 700]: one law per slot.
    # Each family keeps its slot, so the work per pass does not depend on
    # which family the seed would put at k = 700.
    for i, fam in enumerate(HARD_FAMILIES):
        k = round(_jitter(rng, 20.0 * 35.0 ** (i / 2)))
        law, bern = f"law{i}.json", f"bern{i}.json"
        files[law] = _law_bytes(*HARD_FAMILIES[fam](rng, k))
        files[bern] = _bernstein_bytes(rng)
        alpha = _num(rng.uniform(0.1, 2.0))
        for route in ("exact", "variance"):
            cmds.append(
                Command(
                    ("gap", "-d", law, "--alpha", alpha, "--route", route),
                    {"kind": "gap", "law": law, "alpha": float(alpha), "route": route, "family": fam},
                )
            )
        cmds.append(
            Command(
                ("gap", "-d", law, "--alpha", "1", "--route", "tail"),
                {"kind": "gap", "law": law, "alpha": 1.0, "route": "tail", "family": fam},
            )
        )
        cmds.append(Command(("bernstein-gap", "-d", law, "-g", bern), {"kind": "bernstein"}))
    alpha = _num(math.exp(rng.uniform(math.log(2.05), math.log(40.0))))
    cmds.append(Command(("counterexample", "--alpha", alpha), {"kind": "counterexample"}))
    x, y = _num(rng.uniform(-2.0, 2.0)), _num(rng.uniform(-2.0, 2.0))
    t = _num(rng.uniform(0.05, 1.0))
    cmds.append(
        Command(("series-check", "--x", x, "--y", y, "--t", t, "--n-terms", "40"), {"kind": "series"})
    )
    # Exit-code probe: alpha = 2 admits no violation, an input error.
    cmds.append(Command(("counterexample", "--alpha", "2"), {"kind": "exit"}, 2))
    return files, cmds


def _mc(rng):
    files, cmds = {}, []
    # k = 2, ~16, ~126, ~1000: rng.choice cost grows with k.
    for i in range(4):
        k = 2 if i == 0 else round(_jitter(rng, 2.0 * 500.0 ** (i / 3)))
        law = f"law{i}.json"
        files[law] = _law_bytes(*_bounded(rng, k))
        alpha = _num(rng.uniform(0.2, 2.0))
        n = str(round(_jitter(rng, 2e6)))
        argv = ("gap", "-d", law, "--alpha", alpha, "--route", "mc", "--n", n, "--seed", _prog_seed(rng))
        check = {"kind": "mc", "law": law, "alpha": float(alpha), "n": int(n)}
        cmds.append(Command(argv + ("--workers", "1"), check))
        if i >= 2:
            # Same law, n and seed at two workers: output must not change.
            twin = dict(check, twin=len(cmds) - 1)
            cmds.append(Command(argv + ("--workers", "2"), twin))
    # Exit-code probe: route mc without --n is an input error.
    cmds.append(Command(("gap", "-d", "law0.json", "--alpha", "1", "--route", "mc", "--seed", "1"),
                        {"kind": "exit"}, 2))
    return files, cmds


_GENERATORS = {"paths": _paths, "gaps": _gaps, "mc": _mc}


def generate(name: str, seed: int) -> Workload:
    """The input files and command list of workload ``name`` for ``seed``."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(_GENERATORS)}")
    rng = random.Random(f"{name}:{seed}")
    files, cmds = _GENERATORS[name](rng)
    return Workload(name=name, files=files, commands=tuple(cmds))
