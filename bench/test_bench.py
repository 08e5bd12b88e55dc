"""Tests of the benchmark itself: deterministic inputs, valid metric names,
and output checks that catch corrupted outputs.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Command  # noqa: E402

from bifrac.cli import main as bifrac_main  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


WORKLOADS = [w["name"] for w in _spec()["workloads"]]
END_TO_END = [m["name"] for m in _spec()["end_to_end"]]
PER_LAYER = [m["name"] for m in _spec()["per_layer"]]


# ---------------------------------------------------------------- generator


@pytest.mark.parametrize("name", WORKLOADS)
def test_generator_is_deterministic(name):
    a = workloads.generate(name, 11)
    assert a.canonical_bytes() == workloads.generate(name, 11).canonical_bytes()
    assert a.canonical_bytes() != workloads.generate(name, 12).canonical_bytes()


def test_generated_files_are_the_canonical_bytes(tmp_path):
    w = workloads.generate("gaps", 3)
    w.write_files(str(tmp_path))
    for name, data in w.files.items():
        assert (tmp_path / name).read_bytes() == data


def _laws(w):
    return {name: json.loads(data)["atoms"] for name, data in w.files.items() if name.startswith("law")}


def test_gaps_cover_the_hard_laws():
    w = workloads.generate("gaps", 5)
    families = {c.check["family"] for c in w.commands if c.check["kind"] == "gap"}
    assert families == set(workloads.HARD_FAMILIES)
    laws = _laws(w)
    sizes = sorted(len(a) for a in laws.values())
    assert sizes[0] <= 21 and sizes[-1] >= 680
    assert any(abs(atoms[0]["x"]) == abs(atoms[-1]["x"]) for atoms in laws.values())
    assert any(any(a["x"] == 0.0 for a in atoms) for atoms in laws.values())
    spans_of_scale = [max(abs(a["x"]) for a in atoms) / min(abs(a["x"]) for a in atoms if a["x"]) for atoms in laws.values()]
    assert max(spans_of_scale) > 1e9
    assert all(abs(sum(a["p"] for a in atoms) - 1.0) < 1e-12 for atoms in laws.values())


def test_paths_cover_t_zero_and_forced_non_psd():
    w = workloads.generate("paths", 5)
    grids = [c.argv[c.argv.index("--grid") + 1] for c in w.commands if "--grid" in c.argv]
    assert any(g.startswith("0.0:") for g in grids)
    forced = [c for c in w.commands if "--force" in c.argv]
    assert forced and forced[0].argv[1:5] == ("--H", "1", "--K", "2") and forced[0].check["psd"] is False


def test_mc_runs_each_twin_at_two_workers():
    w = workloads.generate("mc", 5)
    twins = [c for c in w.commands if "twin" in c.check]
    assert twins
    for c in twins:
        first = w.commands[c.check["twin"]]
        assert first.argv[:-1] == c.argv[:-1] and first.argv[-1] == "1" and c.argv[-1] == "2"


# ---------------------------------------------------------------- metric names


def test_metric_names_are_valid():
    names = END_TO_END + PER_LAYER + WORKLOADS
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))


def test_every_per_layer_metric_is_produced():
    table = spans.layer_metrics(spans.Recorder(), 1)
    produced = set(table) | {"import.numpy.s", "import.bifrac.s", "import.bifrac.self_s"}
    produced |= {n for n in PER_LAYER if n.startswith("trace.")}
    assert set(PER_LAYER) <= produced
    assert all(NAME.fullmatch(n) for n in table)


def test_sample_paths_cholesky_is_traced_and_restored():
    from bifrac import gpsim
    from bifrac.kernel import BifParams, TimeGrid

    original = gpsim._factor
    rec = spans.Recorder()
    rec.install()
    try:
        gpsim.sample_paths(BifParams(0.5, 1.0), TimeGrid.regular(0.0, 0.1, 30), 4, 1)
    finally:
        rec.uninstall()
    assert gpsim._factor is original
    assert rec.calls["gpsim.cholesky_factor"] >= 1 and rec.s["gpsim.cholesky_factor"] > 0
    assert rec.s["gpsim.sample_paths"] >= rec.s["gpsim.cholesky_factor"] + rec.s["gpsim.build_cov_matrix"]


# ---------------------------------------------------------------- checks


@pytest.fixture
def ctx(tmp_path):
    law = {"atoms": [{"x": -2.5, "p": 0.2}, {"x": 0.0, "p": 0.3}, {"x": 0.7, "p": 0.1}, {"x": 4.0, "p": 0.4}]}
    (tmp_path / "law.json").write_text(json.dumps(law))
    (tmp_path / "bern.json").write_text(json.dumps({"a": 0.1, "b": 0.5, "mu": [{"t": 0.3, "w": 1.0}]}))
    cwd = os.getcwd()
    os.chdir(tmp_path)
    yield checks.RunContext(str(tmp_path))
    os.chdir(cwd)


def _run(cmd: Command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bifrac_main(list(cmd.argv))
    return code, out.getvalue(), err.getvalue()


def _edit(out: str, **changes) -> str:
    r = json.loads(out)
    r.update(changes)
    return json.dumps(r)


def _gap(route, alpha):
    argv = ("gap", "-d", "law.json", "--alpha", str(alpha), "--route", route)
    return Command(argv, {"kind": "gap", "law": "law.json", "alpha": float(alpha), "route": route})


@pytest.mark.parametrize("route,alpha", [("exact", 1.3), ("variance", 1.3), ("tail", 1)])
def test_gap_check_catches_flipped_and_drifted_gaps(ctx, route, alpha):
    cmd = _gap(route, alpha)
    code, out, err = _run(cmd)
    assert checks.check(0, cmd, code, out, err, ctx) is None
    r = json.loads(out)
    flipped = _edit(out, e_plus=r["e_minus"], e_minus=r["e_plus"], gap=-r["gap"])
    assert checks.check(0, cmd, code, flipped, err, ctx)
    assert checks.check(0, cmd, code, _edit(out, gap=-r["gap"]), err, ctx)
    drift = r["e_minus"] * (1 - 1e-9)
    assert checks.check(0, cmd, code, _edit(out, e_minus=drift, gap=r["e_plus"] - drift), err, ctx)
    assert checks.check(0, cmd, code, out[: len(out) // 2], err, ctx)
    assert checks.check(0, cmd, 3, out, err, ctx)


def test_bernstein_check_catches_a_negative_gap(ctx):
    cmd = Command(("bernstein-gap", "-d", "law.json", "-g", "bern.json"), {"kind": "bernstein"})
    code, out, err = _run(cmd)
    assert checks.check(0, cmd, code, out, err, ctx) is None
    r = json.loads(out)
    assert checks.check(0, cmd, code, _edit(out, e_plus=r["e_minus"], e_minus=r["e_plus"], gap=-r["gap"]), err, ctx)


def test_counterexample_check(ctx):
    cmd = Command(("counterexample", "--alpha", "3.5"), {"kind": "counterexample"})
    code, out, err = _run(cmd)
    assert checks.check(0, cmd, code, out, err, ctx) is None
    assert checks.check(0, cmd, code, _edit(out, violation=-1.0), err, ctx)
    assert checks.check(0, cmd, code, _edit(out, below_threshold=False), err, ctx)


def test_series_check(ctx):
    cmd = Command(("series-check", "--x", "1.5", "--y", "-0.7", "--t", "0.4", "--n-terms", "40"), {"kind": "series"})
    code, out, err = _run(cmd)
    assert checks.check(0, cmd, code, out, err, ctx) is None
    r = json.loads(out)
    assert checks.check(0, cmd, code, _edit(out, rhs_partial=r["rhs_partial"] + 1e-9), err, ctx)


def test_psd_check_catches_a_flipped_verdict(ctx):
    good = Command(("psd-check", "--H", "0.4", "--K", "1.5", "--grid", "0.0:0.1:30"), {"kind": "psd", "psd": True, "n": 30})
    forced = Command(("psd-check", "--H", "1", "--K", "2", "--grid", "0.5:0.5:30", "--force"), {"kind": "psd", "psd": False, "n": 30})
    for cmd in (good, forced):
        code, out, err = _run(cmd)
        assert checks.check(0, cmd, code, out, err, ctx) is None
        assert checks.check(0, cmd, code, _edit(out, psd=not cmd.check["psd"]), err, ctx)


def _sample(m):
    argv = ("sample", "--H", "0.6", "--K", "0.9", "--grid", "0.0:0.05:12", "--m", str(m), "--seed", "4", "--out", "p.csv")
    check = {"kind": "csv", "out": "p.csv", "n": 12, "m": m, "zero_first": True, "t_last": 11 * 0.05, "H": 0.6, "K": 0.9}
    return Command(argv, check)


def _csv_check(ctx, cmd, mutate=None):
    code, out, err = _run(cmd)
    if mutate is not None:
        path = os.path.join(ctx.workdir, "p.csv")
        with open(path) as fh:
            data = fh.read()
        with open(path, "w") as fh:
            fh.write(mutate(data))
    return checks.check(0, cmd, code, out, err, ctx)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d[: d.rindex("\n", 0, len(d) - 1) + 1],  # truncated: last row dropped
        lambda d: d[:-20],  # truncated mid-row
        lambda d: d.replace("t_0,", "t0,", 1),  # header
        lambda d: d.replace("\n0,", "\n1e-300,", 1),  # t = 0 column
    ],
)
def test_csv_check_catches_corruption(ctx, mutate):
    cmd = _sample(20)
    assert _csv_check(ctx, cmd) is None
    assert _csv_check(ctx, cmd, mutate)


def test_csv_check_catches_changed_bytes_and_wrong_variance(ctx):
    cmd = _sample(1200)
    assert _csv_check(ctx, cmd) is None
    assert _csv_check(ctx, cmd) is None  # second pass: same digest

    def one_digit(d):
        body = d.index("\n") + 1
        return d[:body] + d[body:].replace("1", "2", 1)

    assert _csv_check(ctx, cmd, one_digit) == "CSV bytes differ from the first pass with the same seed"
    doubled = dict(cmd.check, t_last=2 * cmd.check["t_last"])
    assert "Var" in _csv_check(ctx, Command(cmd.argv, doubled))


def test_mc_check_catches_drift_and_worker_dependence(ctx):
    argv = ("gap", "-d", "law.json", "--alpha", "1.2", "--route", "mc", "--n", "200000", "--seed", "9")
    base = {"kind": "mc", "law": "law.json", "alpha": 1.2, "n": 200000}
    one = Command(argv + ("--workers", "1"), base)
    two = Command(argv + ("--workers", "2"), dict(base, twin=0))
    code, out, err = _run(one)
    assert checks.check(0, one, code, out, err, ctx) is None
    code2, out2, err2 = _run(two)
    assert checks.check(1, two, code2, out2, err2, ctx) is None
    r = json.loads(out)
    shifted = r["gap"] + 10 * r["stderr"]
    assert checks.check(0, one, code, _edit(out, gap=shifted, e_plus=r["e_minus"] + shifted), err, ctx)
    checks.check(0, one, code, out, err, ctx)  # restore the good workers-1 output
    assert checks.check(1, two, code2, _edit(out2, stderr=r["stderr"] * 2), err2, ctx)


def test_exit_probe_check(ctx):
    cmd = Command(("counterexample", "--alpha", "2"), {"kind": "exit"}, 2)
    code, out, err = _run(cmd)
    assert code == 2 and checks.check(0, cmd, code, out, err, ctx) is None
    assert checks.check(0, cmd, 0, out, err, ctx)
    assert checks.check(0, cmd, 2, out, "", ctx)


# ---------------------------------------------------------------- the runner


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(str(tmp_path), "--workload", "gaps", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace,declared", [(0, END_TO_END), (1, PER_LAYER)])
def test_result_line(trace, declared):
    proc = _bench(ROOT, "--workload", "mc", "--seed", "2", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == declared
    if trace:
        # mc runs no kernel or gpsim code.
        assert all(v["value"] == 0 for k, v in result["metrics"].items() if k.startswith(("kernel.", "gpsim.")))
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
