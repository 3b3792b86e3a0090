"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload learn-suite --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones named in
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer ones,
taken from a traced half of the run, and the traced-minus-untraced
throughput difference of the two halves is reported as tracing
overhead.  The line before it carries context: the workload's own
metric names with sample counts, the set-up samples and a calibration
loop timed before and after the workload (machine drift; it never
scales a metric).  Spans are written to ``perfbench/.work/``.

Workloads and metrics are described in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

WORKLOADS = ("learn-suite", "fill-bulk")


def metric_units(kind: str):
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics.

    A workload that does not pass through a layer reports 0 for it.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
        return {entry["name"]: entry["unit"] for entry in json.load(spec)[kind]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def make_workload(name: str, seed: int):
    if name == "learn-suite":
        from learn_suite import LearnSuite

        return LearnSuite(seed, SRC)
    from fill_bulk import FillBulk

    return FillBulk(seed)


def measure(args) -> int:
    from common import Tracer, calibration_ms, cpu_seconds, metric, peak_rss_mb

    workload = make_workload(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    calibration_before = calibration_ms()
    workload.setup(tracer)
    if tracer is None:
        workload.run_for(args.seconds, None)
    else:
        # Half untraced, half traced; the order flips with the seed
        # so drift within a run does not always favour one side.
        halves = [None, tracer] if args.seed % 2 == 0 else [tracer, None]
        rates = {}
        for side in halves:
            rates[side is not None] = workload.run_for(args.seconds / 2, side)
        overhead = (rates[False] - rates[True]) / rates[False] * 100.0
        layers = workload.layers(tracer)
    rss = peak_rss_mb()
    calibration_after = calibration_ms()
    correct = workload.failed == 0 and workload.deterministic()

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "calibration_ms": {"before": calibration_before, "after": calibration_after},
        "setup_samples_s": workload.setup_samples,
        "report": workload.report(),
        "attempted": workload.attempted,
        "failed": workload.failed,
    }
    if tracer is None:
        values = dict(workload.headline())
        values["setup_s"] = workload.setup_seconds()
        values["rss_peak_mb"] = rss
        metrics = {name: metric(values[name], unit)
                   for name, unit in metric_units("end_to_end").items()}
    else:
        layers["bench.client_cpu_s"] = cpu_seconds()
        layers["bench.trace_overhead_pct"] = overhead
        metrics = {name: metric(layers.get(name, 0.0), unit)
                   for name, unit in metric_units("per_layer").items()}
        tracer.dump(os.path.join(
            WORK, f"spans-{args.workload}-{args.seed}-{os.getpid()}.jsonl"))
        context["spans"] = len(tracer.spans)
    print(json.dumps(context))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(workload.attempted),
        "failed": int(workload.failed),
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    os.makedirs(WORK, exist_ok=True)
    return measure(args)


if __name__ == "__main__":
    started = time.perf_counter()
    status = main()
    print(f"run took {time.perf_counter() - started:.1f}s", file=sys.stderr)
    sys.exit(status)
