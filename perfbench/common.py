"""Shared pieces of the benchmark: timing, percentiles, memory, spans.

Nothing here imports the program under test, so ``run.py`` can load it
before it knows whether the checkout holds the program at all.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Iterations of the calibration loop (a fixed pure-Python workload).
CALIBRATION_ITERATIONS = 1_000_000
#: Timed repetitions of the calibration loop; the median is reported.
CALIBRATION_REPEATS = 5


def calibration_ms() -> float:
    """Median milliseconds of a fixed integer loop: machine-speed context.

    Printed before and after each workload so a noisy run can be told
    apart from a drifting machine.  It never scales a metric.
    """
    samples = []
    for _ in range(CALIBRATION_REPEATS):
        started = time.perf_counter()
        total = 0
        for value in range(CALIBRATION_ITERATIONS):
            total += value & 7
        samples.append((time.perf_counter() - started) * 1000.0)
        if total != CALIBRATION_ITERATIONS // 8 * 28:
            raise RuntimeError("calibration loop miscomputed")
    return statistics.median(samples)


#: Iterations of the speed probe, a fixed integer loop (under a
#: millisecond on a 2-CPU box at its fast level).
PROBE_ITERATIONS = 20_000
#: Gated times are scaled to a machine on which the probe takes this long.
REFERENCE_PROBE_MS = 1.0


def speed_probe_ms(repeats: int = 2) -> float:
    """Fastest of ``repeats`` runs of the probe loop, in ms.

    Workloads run it between their ops and scale their gated times by
    what it read (see NOTES.md, *Steadiness*): a time ``t`` measured
    while the probe read ``p`` ms is reported as
    ``t * REFERENCE_PROBE_MS / p``.
    """
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for value in range(PROBE_ITERATIONS):
            total += value & 7
        best = min(best, time.perf_counter() - started)
    if total != PROBE_ITERATIONS // 8 * 28:
        raise RuntimeError("speed probe miscomputed")
    return best * 1000.0


def timed_at_reference(call: Callable[[], object]) -> Tuple[float, float]:
    """Run ``call``; return its seconds as measured and scaled by the
    probe read just before and just after it."""
    before = speed_probe_ms()
    started = time.perf_counter()
    call()
    elapsed = time.perf_counter() - started
    probe = (before + speed_probe_ms()) / 2
    return elapsed, elapsed * REFERENCE_PROBE_MS / probe


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def smooth_percentile(values: Sequence[float], q: float, steps: int = 64) -> float:
    """The ``q``-th percentile (0..100) by the Harrell-Davis estimator.

    A weighted mean of every order statistic, with Beta((n+1)p,
    (n+1)(1-p)) weights, instead of the one or two values next to the
    rank.  Over a few dozen samples of very different sizes (the 50
    benchsuite problems) it does not jump when two neighbouring values
    swap.  The Beta mass of each rank is integrated by the midpoint rule.
    """
    ordered = sorted(values)
    count = len(ordered)
    share = q / 100.0
    alpha, beta = (count + 1) * share, (count + 1) * (1 - share)
    log_norm = math.lgamma(alpha) + math.lgamma(beta) - math.lgamma(alpha + beta)
    weights = []
    for rank in range(count):
        mass = 0.0
        for step in range(steps):
            t = (rank + (step + 0.5) / steps) / count
            mass += math.exp(
                (alpha - 1) * math.log(t) + (beta - 1) * math.log1p(-t) - log_norm
            )
        weights.append(mass)
    total = sum(weights)
    return sum(w * v for w, v in zip(weights, ordered)) / total


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the ``q``-th percentile."""
    return count - int(count * q / 100.0)


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    """User + system CPU seconds of this process."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


class Tracer:
    """In-memory spans: name, start, end, parent and request id.

    Spans nest per thread (the innermost open span is the parent of the
    next one).  ``totals`` sums durations by span name so layer times can
    be read without walking the list; the list itself is written out by
    :meth:`dump` when the run ends.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self.totals: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    @contextmanager
    def span(self, name: str, request: Optional[str] = None) -> Iterator[None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        with self._lock:
            self._next_id += 1
            ident = self._next_id
        if request is None and parent is not None:
            request = parent[1]
        stack.append((ident, request))
        started = time.perf_counter_ns()
        try:
            yield
        finally:
            ended = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans.append(
                    {
                        "id": ident,
                        "name": name,
                        "start_ns": started,
                        "end_ns": ended,
                        "parent": parent[0] if parent else None,
                        "request": request,
                    }
                )
                self.totals[name] = self.totals.get(name, 0.0) + (
                    ended - started
                ) / 1e9

    def total(self, name: str) -> float:
        return self.totals.get(name, 0.0)

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


@contextmanager
def no_span(name: str, request: Optional[str] = None) -> Iterator[None]:
    yield


def span_of(tracer: Optional[Tracer]):
    """``tracer.span`` or a no-op with the same signature."""
    return tracer.span if tracer is not None else no_span
