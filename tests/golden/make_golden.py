"""Write the golden CLI inputs and outputs checked by ``tests/test_golden.py``.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_golden.py

The input files (three hard laws, their Bernstein functions and the small
acceptance-9 law) are drawn from fixed seeds, so rewriting them gives the
same bytes.  Every case of ``cases()`` is run in-process through
``bifrac.cli.main``; its stdout is stored as ``out/<name>.txt``.  For
``sample`` the sha256 of the CSV is stored instead of the file.

Regenerate only on purpose: a changed output file is a numerical change
of the program and must be explained where the change is recorded.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

# Placeholders in argv: {golden} is this directory, {tmp} a scratch directory.
SAMPLE_CSV = "{tmp}/sample.csv"


def _law_json(xs, ws) -> str:
    total = math.fsum(ws)
    atoms = sorted(zip(xs, ws))
    return json.dumps({"atoms": [{"x": x, "p": w / total} for x, w in atoms]})


def _distinct(k, draw):
    xs = set()
    while len(xs) < k:
        x = draw()
        if math.isfinite(x):
            xs.add(x)
    return sorted(xs)


def multiscale_zero(rng, k):
    """Magnitudes 1e-6 .. 1e6 of both signs plus an atom at 0 holding about
    a third of the mass."""
    xs = _distinct(k - 1, lambda: rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 6.0))
    return [0.0] + xs, [0.5 * len(xs)] + [0.05 + rng.random() for _ in xs]


def near_symmetric(rng, k):
    """Mirrored atoms whose masses differ by about 1e-6 relative."""
    mags = _distinct(k // 2, lambda: rng.lognormvariate(0.0, 1.0))
    xs, ws = [], []
    for y in mags:
        w = 0.05 + rng.random()
        xs += [y, -y]
        ws += [w * (1.0 + rng.uniform(-1e-6, 1e-6)), w]
    return xs, ws


def cauchy(rng, k):
    """Standard Cauchy draws cut at |x| <= 1e6."""

    def draw():
        x = math.tan(math.pi * (rng.random() - 0.5))
        return x if 0.0 < abs(x) <= 1e6 else math.nan

    xs = _distinct(k, draw)
    return xs, [0.05 + rng.random() for _ in xs]


def bernstein_json(rng) -> str:
    mu = [{"t": 10.0 ** rng.uniform(-2.0, 1.0), "w": rng.uniform(0.1, 2.0)} for _ in range(2)]
    return json.dumps({"a": rng.uniform(0.0, 1.0), "b": rng.uniform(0.0, 1.0), "mu": mu})


# (file stem, family, atom count, alpha of the exact and variance routes)
LAWS = (
    ("multiscale", multiscale_zero, 20, "0.7"),
    ("nearsym", near_symmetric, 120, "1.3"),
    ("cauchy", cauchy, 700, "1.9"),
)


def inputs() -> dict:
    files = {
        "d01.json": json.dumps({"atoms": [{"x": 0.0, "p": 0.5}, {"x": 1.0, "p": 0.5}]}),
        "g01.json": json.dumps({"a": 0.5, "b": 1.0, "mu": [{"t": 0.5, "w": 2.0}]}),
    }
    for i, (stem, family, k, _) in enumerate(LAWS):
        rng = random.Random(f"golden:{stem}:{i}")
        files[f"{stem}.json"] = _law_json(*family(rng, k))
        files[f"{stem}_g.json"] = bernstein_json(rng)
    return files


def cases() -> list:
    g = "{golden}"
    out = [
        # The acceptance-9 command set.
        ("cov", ["cov", "--H", "0.5", "--K", "0.8", "--t", "1.5", "--s", "2.5"]),
        ("psd_small", ["psd-check", "--H", "0.5", "--K", "0.8", "--grid", "0.5:0.5:8"]),
        ("gap_d01_exact", ["gap", "-d", f"{g}/d01.json", "--alpha", "1.3", "--route", "exact"]),
        ("gap_d01_mc", ["gap", "-d", f"{g}/d01.json", "--alpha", "1", "--route", "mc",
                        "--n", "100000", "--seed", "17"]),
        # The mc stream of a 120-atom law: three full chunks and a partial
        # one, drawn by two threads.
        ("gap_nearsym_mc", ["gap", "-d", f"{g}/nearsym.json", "--alpha", "1.3", "--route",
                            "mc", "--n", "200000", "--seed", "23", "--workers", "2"]),
        # A law of more than 256 atoms, which mc draws pair by pair.
        ("gap_cauchy_mc", ["gap", "-d", f"{g}/cauchy.json", "--alpha", "1.3", "--route", "mc",
                           "--n", "200000", "--seed", "29", "--workers", "2"]),
        ("counterexample", ["counterexample", "--alpha", "2.5"]),
        ("bernstein_d01", ["bernstein-gap", "-d", f"{g}/d01.json", "-g", f"{g}/g01.json"]),
        ("series", ["series-check", "--x", "1.2", "--y", "-0.7", "--t", "0.9", "--n-terms", "25"]),
        # lhs is a difference of two exponentials within 4e-10 of each other.
        ("series_small", ["series-check", "--x", "1e-5", "--y", "1e-5", "--t", "1", "--n-terms", "40"]),
        ("sample", ["sample", "--H", "0.5", "--K", "1", "--grid", "0:0.25:9", "--m", "20",
                    "--seed", "404", "--out", SAMPLE_CSV]),
        # 210,000 values: several CSV write blocks, with the t = 0 column
        # all zeros.
        ("sample_blocks", ["sample", "--H", "0.35", "--K", "1.4", "--grid", "0:0.01:300",
                           "--m", "700", "--seed", "405", "--out", SAMPLE_CSV]),
        # psd-check at n = 200: in the domain from t = 0 and from t > 0, and
        # forced outside it.
        ("psd_200", ["psd-check", "--H", "0.3", "--K", "1.7", "--grid", "0:0.05:200"]),
        ("psd_200_pos", ["psd-check", "--H", "0.7", "--K", "1.2", "--grid", "0.05:0.05:200"]),
        ("psd_200_forced", ["psd-check", "--H", "1", "--K", "2", "--grid", "0.5:0.5:200",
                            "--force"]),
    ]
    for stem, _, _, alpha in LAWS:
        law = f"{g}/{stem}.json"
        out += [
            (f"gap_{stem}_exact", ["gap", "-d", law, "--alpha", alpha, "--route", "exact"]),
            (f"gap_{stem}_variance", ["gap", "-d", law, "--alpha", alpha, "--route", "variance"]),
            (f"gap_{stem}_tail", ["gap", "-d", law, "--alpha", "1", "--route", "tail"]),
            (f"bernstein_{stem}", ["bernstein-gap", "-d", law, "-g", f"{g}/{stem}_g.json"]),
        ]
    return out


def run_case(argv, golden_dir: str, tmp_dir: str) -> str:
    """The golden text of one case: its stdout, or for ``sample`` the
    sha256 of the CSV it wrote."""
    from bifrac.cli import main

    argv = [a.format(golden=golden_dir, tmp=tmp_dir) for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}")
    if argv[0] == "sample":
        with open(SAMPLE_CSV.format(tmp=tmp_dir), "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest() + "\n"
    return buf.getvalue()


def main() -> int:
    for name, text in inputs().items():
        with open(os.path.join(HERE, name), "w") as fh:
            fh.write(text + "\n")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in cases():
            with open(os.path.join(out_dir, f"{name}.txt"), "w") as fh:
                fh.write(run_case(argv, HERE, tmp))
    return 0


if __name__ == "__main__":
    sys.exit(main())
