"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--label TEXT] [--out FILE]

For every workload it runs ``run.py`` once per seed with tracing off and
once with tracing on (first seed), one run at a time, and reports for
each end-to-end metric the median, the quartiles and the spread: the
distance between the quartiles as a share of the median, which the
metric's bound in BENCHMARK.json must exceed.  The summary goes to
standard output and, with ``--out``, to a JSON file, with each seed's
artifact digests: saved as ``baseline.json``, they are what ``run.py``
compares later runs' digests with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def result(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}{proc.stderr}")
    out = json.loads(lines[-1])
    out["environment"] = next((line for line in lines if line.startswith("env ")), "")
    out["digests"] = {name: digest for _, digest, name in
                      (line.split(" ", 2) for line in lines if line.startswith("sha256 "))}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    summary = {
        "label": args.label,
        "machine": f"{platform.machine()}, {os.cpu_count()} cores, {platform.platform()}",
        "run_seconds": spec["run_seconds"],
        "seeds": args.seeds,
        "workloads": {},
    }
    for name in names:
        runs = [result(name, seed, spec["run_seconds"], 0) for seed in args.seeds]
        entry = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry[metric["name"]] = {"unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                                     "spread": spread, "bound": metric["bound"], "values": values}
            print(f"{name:12s} {metric['name']:12s} median {median:10.5g} {metric['unit']:6s} "
                  f"spread {spread:6.3f} bound {metric['bound']}"
                  + ("" if spread <= metric["bound"] / 3 else "  <-- above a third of the bound"))
        traced = result(name, args.seeds[0], spec["run_seconds"], 1)
        summary["environment"] = traced["environment"]
        summary["workloads"][name] = {
            "end_to_end": entry,
            "per_layer_seed": args.seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "digests": {str(seed): r["digests"] for seed, r in zip(args.seeds, runs)},
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
