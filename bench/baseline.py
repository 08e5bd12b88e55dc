"""Repeat ``run.py`` over seeds and summarize each metric's spread.

    python3 bench/baseline.py [--note TEXT ...] [--out bench/BENCH_0.json]

Run from the root of a source checkout.  For every workload in
``BENCHMARK.json`` it makes RUNS end-to-end runs, seeds 1..RUNS, and
reports per metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the interquartile spread as a
share of the median, against the metric's bound.  It then makes
TRACE_RUNS traced runs (seeds 1..TRACE_RUNS).  With ``--out`` the summary,
the raw values and the traced tables are written as JSON, the first
baseline being ``BENCH_0.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10
TRACE_RUNS = 1


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--note", action="append", default=[], help="free-text note stored with the results")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "notes": args.note, "previous": None, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict = {}
        infos = []
        failed = attempted = 0
        for seed in range(1, RUNS + 1):
            info, result = run(workload, seed, spec["run_seconds"], 0)
            infos.append(info)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                             "bound": bounds[name], "values": vals}
            print(f"{workload:6s} {name:12s} median {med:10.4f}  spread {(q3 - q1) / med:6.3f}"
                  f"  (bound {bounds[name]}, third {bounds[name] / 3:.3f})", flush=True)
        print(f"{workload:6s} attempted {attempted} failed {failed}", flush=True)
        runs = [{k: i[k] for k in ("seed", "passes", "wall_s", "cpu_s", "reference_s", "pass_wall_s", "setup_probes_s")} for i in infos]
        entry = {"attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
                 "end_to_end": summary, "runs": runs, "env": infos[0]["env"]}
        traced = []
        for seed in range(1, TRACE_RUNS + 1):
            info, result = run(workload, seed, spec["run_seconds"], 1)
            traced.append({"seed": seed, "correct": result["correct"], "failed": result["failed"],
                           "replay_pairs_s": info["replay_pairs_s"], "spans": info["spans"]})
        entry["traced"] = traced
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
