"""Run workloads over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workloads learn-suite,fill-bulk --seeds 1-10

Run from the root of a checkout.  For every end-to-end metric it prints
the median of the runs and the spread: the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median, next to the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
        bench = json.load(spec)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(
        workload["name"] for workload in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    bounds = {metric["name"]: metric["bound"] for metric in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in parse_seeds(args.seeds):
            started = time.perf_counter()
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, check=False,
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                return 1
            result = json.loads(lines[-1])
            calibration = json.loads(lines[-2])["calibration_ms"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{name}={entry['value']:.4g}"
                             for name, entry in result["metrics"].items())
                  + f" calibration_ms={calibration['before']:.1f}/{calibration['after']:.1f}"
                  + f" took={time.perf_counter() - started:.1f}s",
                  flush=True)
            for name, entry in result["metrics"].items():
                values[name].append(entry["value"])
        for name, series in values.items():
            median = statistics.median(series)
            first, _, third = statistics.quantiles(series, n=4)
            print(f"{workload} {name}: median {median:.4g} "
                  f"spread {(third - first) / median:.3f} bound {bounds[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
