"""bifrac benchmark: seeded CLI workloads, end to end and per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload {paths,gaps,mc} --seed N --seconds S --trace {0,1}

The package runs from ``src/`` (nothing is installed).  A workload is a
seeded, fixed list of ``python -m bifrac ...`` commands (see
``workloads.py``), run one after another as fresh processes: a closed loop
with one client.  A run repeats the whole list in passes until the next
command would end past ``--seconds`` (at least two whole passes, so the CSV
byte-determinism check always has a pair).

Each command runs right after a reference process, ``python -c "import
numpy"``, which no change to bifrac can speed up or slow down.  On a shared
2-vCPU VM each vCPU ran about 1.3-1.6x slower in spells lasting from a
second to several minutes, and raw seconds moved by up to 30% between runs
of the same code.  A command and the reference just before it mostly see the
same spell, so the ratio of their wall times stays put: on that VM the
interquartile range of 10 runs was 2-6% of the median for the ratios and
9-24% for raw seconds.

``--trace 0`` reports the end-to-end metrics:

* ``wall_rel``    wall time of the command list in units of the reference:
                  the sum over commands of the median, across passes, of the
                  command's wall time divided by its reference's
* ``cpu_rel``     user + system CPU time of the command list's processes,
                  each divided by its reference's wall time, summed the same
                  way
* ``setup_s``     median wall time of ``python -c "import bifrac"``, probed
                  before the passes and once before each pass
* ``peak_rss_mb`` highest peak RSS of any child process in the run

The line before the result also gives the raw seconds: ``wall_s`` and
``cpu_s`` (sums of per-command medians) and ``reference_s`` (the median
reference).

``--trace 1`` replays the same commands in-process through
``bifrac.cli.main(argv)``, alternating untraced and traced passes, and
reports per-layer spans (``spans.py``) plus ``-X importtime`` figures.
Every command runs inside the ``cli.main`` span, so ``cli.main.self_s``
holds whatever the named layers do not cover (argument parsing, output
formatting, code no span wraps).  ``trace.unaccounted_s`` is the replay
harness's own cost per pass (output capture, the loop), not program time;
``trace.overhead_ratio`` is how much slower a traced pass is than an
untraced one.

Every command's output is checked (``checks.py``); a wrong exit code or a
failed check counts in ``failed``.  The last stdout line is the result
object; the line before it records the environment and run details.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from typing import NamedTuple

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
# Workload names and the metric names and units are declared once, in
# BENCHMARK.json beside this directory.
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

SETUP_PROBES = 4
# Timed right before every command; see the module docstring.
REFERENCE = ("-c", "import numpy")
IMPORTTIME_PROBES = 3
MIN_PASSES = 2
# A run never starts a pass (or, end to end, a command) that would end past
# this, even to reach MIN_PASSES, so it exits well within its time limit.
HARD_LIMIT_S = 120.0
COMMAND_TIMEOUT_S = 120.0


class Child(NamedTuple):
    """Result of one child process."""

    code: int
    out: str
    err: str
    wall: float
    cpu: float
    rss_mb: float


def spawn(argv, cwd, env) -> Child:
    """Run argv to completion; rusage comes from wait4 on this child alone."""
    with open(os.path.join(cwd, ".stdout"), "w+b") as out, open(os.path.join(cwd, ".stderr"), "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            proc.returncode,
            out.read().decode(errors="replace"),
            err.read().decode(errors="replace"),
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
        )


def environment() -> dict:
    """Interpreter, numpy, BLAS and CPU facts, recorded as found."""
    import platform

    import numpy as np

    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg['name']} {cfg.get('version', '')}".strip()
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _openblas_threads(np),
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def _openblas_threads(np):
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


class Runner:
    def __init__(self, root: str, workload, workdir: str):
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.workdir = workdir
        self.ctx = checks.RunContext(workdir)
        self.python = sys.executable
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_mb = 0.0

    def child(self, argv) -> Child:
        c = spawn([self.python] + list(argv), self.workdir, self.env)
        self.peak_rss_mb = max(self.peak_rss_mb, c.rss_mb)
        return c

    def verify_origin(self) -> None:
        c = self.child(["-c", "import bifrac; print(bifrac.__file__)"])
        want = os.path.realpath(os.path.join(self.src, "bifrac"))
        if c.code != 0 or not os.path.realpath(c.out.strip()).startswith(want + os.sep):
            raise SystemExit(f"bench: cannot import bifrac from {self.src}: {c.err.strip()[-300:]}")

    def record(self, index, cmd, code, out, err) -> None:
        self.attempted += 1
        reason = checks.check(index, cmd, code, out, err, self.ctx)
        if reason is not None:
            self.failures.append(f"{' '.join(cmd.argv)}: {reason}")

    def repeat(self, seconds: float, one_pass) -> list:
        """[one_pass(0), one_pass(1), ...] until another pass would overrun
        ``seconds``; at least MIN_PASSES passes unless that would pass
        HARD_LIMIT_S."""
        results = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            results.append(one_pass(len(results)))
            last = time.perf_counter() - t0
            elapsed = time.perf_counter() - start
            if elapsed + last > seconds and (len(results) >= MIN_PASSES or elapsed + last > HARD_LIMIT_S):
                return results

    # ------------------------------------------------------------ end to end

    def probe(self) -> float:
        return self.child(["-c", "import bifrac"]).wall

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        commands = self.workload.commands
        setup = [self.probe() for _ in range(SETUP_PROBES)]
        samples: list[list] = [[] for _ in commands]  # (wall, cpu, reference wall)
        passes = 0
        start = time.perf_counter()
        # Passes over the command list, each after one set-up probe, until
        # the next command would end past ``seconds``.  The cut falls between
        # commands, not passes, so a run spends all its time measuring; the
        # first MIN_PASSES passes always complete.
        while True:
            setup.append(self.probe())
            for i, cmd in enumerate(commands):
                if samples[i]:
                    limit = seconds if passes >= MIN_PASSES else HARD_LIMIT_S
                    wall, _, ref = samples[i][-1]
                    if time.perf_counter() - start + ref + wall > limit:
                        break
                ref = self.child(REFERENCE).wall
                c = self.child(["-m", "bifrac", *cmd.argv])
                samples[i].append((c.wall, c.cpu, ref))
                self.record(i, cmd, c.code, c.out, c.err)
            else:
                passes += 1
                continue
            break

        def total(field, per_reference):
            return sum(
                statistics.median(r[field] / (r[2] if per_reference else 1.0) for r in runs)
                for runs in samples
            )

        metrics = {
            "wall_rel": total(0, True),
            "cpu_rel": total(1, True),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": self.peak_rss_mb,
        }
        detail = {
            "passes": passes,
            "wall_s": total(0, False),
            "cpu_s": total(1, False),
            "reference_s": statistics.median(r[2] for runs in samples for r in runs),
            "pass_wall_s": [sum(runs[k][0] for runs in samples) for k in range(passes)],
            "runs_per_command": [len(runs) for runs in samples],
            "setup_probes_s": setup,
        }
        return metrics, detail

    # ------------------------------------------------------------ per layer

    def import_times(self) -> dict:
        numpy_s, bifrac_s, bifrac_self_s = [], [], []
        for _ in range(IMPORTTIME_PROBES):
            c = self.child(["-X", "importtime", "-c", "import bifrac"])
            selfs, cums = {}, {}
            for line in c.err.splitlines():
                parts = line.split("|")
                if not line.startswith("import time:") or len(parts) != 3 or "[us]" in line:
                    continue
                name = parts[2].strip()
                selfs[name] = int(parts[0].split(":")[1]) / 1e6
                cums[name] = int(parts[1]) / 1e6
            numpy_s.append(cums["numpy"])
            bifrac_s.append(cums["bifrac"])
            bifrac_self_s.append(sum(v for k, v in selfs.items() if k == "bifrac" or k.startswith("bifrac.")))
        return {
            "import.numpy.s": statistics.median(numpy_s),
            "import.bifrac.s": statistics.median(bifrac_s),
            "import.bifrac.self_s": statistics.median(bifrac_self_s),
        }

    def replay(self, main) -> float:
        """One in-process pass; returns its wall time, checks excluded."""
        results = []
        t0 = time.perf_counter()
        for cmd in self.workload.commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(list(cmd.argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a crash is a failed command, not a dead run
                    code = 1
                    err.write(traceback.format_exc())
            results.append((code, out.getvalue(), err.getvalue()))
        wall = time.perf_counter() - t0
        for i, (cmd, (code, out, err)) in enumerate(zip(self.workload.commands, results)):
            self.record(i, cmd, code, out, err)
        return wall

    def per_layer(self, seconds: float) -> tuple[dict, dict]:
        imports = self.import_times()
        sys.path.insert(0, self.src)
        import bifrac.cli

        if not os.path.realpath(bifrac.cli.__file__).startswith(os.path.realpath(self.src) + os.sep):
            raise SystemExit(f"bench: imported bifrac from {bifrac.cli.__file__}, not {self.src}")
        rec = spans.Recorder()
        traced_main = rec.span("cli.main", bifrac.cli.main)

        def traced_replay():
            rec.install()
            try:
                return self.replay(traced_main)
            finally:
                rec.uninstall()

        def pair(index):
            # Alternate which side goes first so warm-up does not bias the
            # overhead figure.
            if index % 2:
                traced = traced_replay()
                return self.replay(bifrac.cli.main), traced
            return self.replay(bifrac.cli.main), traced_replay()

        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            pairs = self.repeat(seconds, pair)
        finally:
            os.chdir(cwd)
        if rec.missing:
            print(f"bench: not traced (absent): {', '.join(rec.missing)}", file=sys.stderr)
        n = len(pairs)
        table = spans.layer_metrics(rec, n)
        table.update(imports)
        traced = sum(t for _, t in pairs)
        table["trace.replay_s"] = statistics.median(t for _, t in pairs)
        table["trace.untraced_replay_s"] = statistics.median(u for u, _ in pairs)
        table["trace.overhead_ratio"] = table["trace.replay_s"] / table["trace.untraced_replay_s"] - 1.0
        table["trace.unaccounted_s"] = (traced - rec.main_self_s) / n
        return table, {"passes": n, "replay_pairs_s": pairs, "spans": table}


def main(argv=None) -> int:
    with open(SPEC) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bifrac", "__init__.py")):
        print(f"bench: no src/bifrac under {root}; run from the root of a bifrac checkout", file=sys.stderr)
        return 2
    workload = workloads.generate(args.workload, args.seed)
    workdir = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload.write_files(workdir)
        runner = Runner(root, workload, workdir)
        runner.verify_origin()
        if args.trace:
            metrics, detail = runner.per_layer(args.seconds)
            declared = spec["per_layer"]
        else:
            metrics, detail = runner.end_to_end(args.seconds)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for reason in runner.failures:
        print(f"bench: FAILED {reason}", file=sys.stderr)
    info = {"workload": args.workload, "seed": args.seed, "commands": len(workload.commands)}
    info.update(detail, env=environment())
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": not runner.failures,
                "attempted": runner.attempted,
                "failed": len(runner.failures),
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
