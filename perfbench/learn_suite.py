"""``learn-suite``: the paper's 50 problems, in whole seeded passes.

One op is one problem's §3.2 interaction through the public
``Synthesizer.synthesize``: learn from the first row, check every row
with the top program, add the first wrong row, and relearn until the
program is right on every row.  The reference is the benchsuite's own
expected rows.  Before each problem the cross-call intersection memos
are cleared, so every pass does the work of the first one; memos stay
warm inside one problem's interaction, as in a real session.  The
position memo has no public clear; it is warm after the first pass, which
changes little: position generation is part of ``generate``, about 1% of
a pass, and cold and warm passes spend the same time in it.

Each problem's time is its mean over the passes of a run, scaled to the
reference speed by the speed probe run before every problem: the
machine this was tuned on drifts between a fast level and one about
1.6x slower, at times for a whole run (see NOTES.md, *Steadiness*).
The unscaled values are printed beside the scaled ones.

In a traced pass the engine runs on a registered ``LanguageBackend``
that wraps the semantic backend and records a span around each call
(generate, intersect, count, best, top-k, size), split by the
problem's Lt/Lu class.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from common import (REFERENCE_PROBE_MS, Tracer, samples_beyond, smooth_percentile, span_of,
                    speed_probe_ms, timed_at_reference)

from repro import Synthesizer
from repro.api.registry import backend_class, register_backend
from repro.benchsuite import all_benchmarks
from repro.core.formalism import LanguageAdapter
from repro.syntactic.intersect import clear_dag_cache, dag_cache_stats
from repro.syntactic.positions import (
    clear_intersection_caches,
    intersection_cache_stats,
    position_cache_stats,
)
from repro.tables.catalog import Catalog

#: Examples a problem may take before it counts as not converging.
MAX_EXAMPLES = 5
#: Percentiles reported for the per-problem time to a correct program.
TAIL = 80
SETUP_REPEATS = 9
COLD_START_TIMEOUT = 120.0
#: Passes a run (or each half of a traced run) makes at least, so each
#: problem's mean time is taken over more than one sample.
MIN_PASSES = 2
#: Deterministic counts of one pass, the same in every pass and run: the
#: examples the 50 problems need (the paper's measure of success) and the
#: summed version-space structure sizes of their final learns.
EXPECTED_EXAMPLES = 59
EXPECTED_STRUCTURE_SIZE_SUM = 580388
COLD_START = """
from repro import Synthesizer
from repro.benchsuite import all_benchmarks
from repro.tables.catalog import Catalog
for problem in all_benchmarks():
    Synthesizer(Catalog(problem.tables), background=problem.background or None)
"""

def traced_backend(tracer: Tracer, current: Dict[str, str]) -> str:
    """Register a span-recording wrapper of the semantic backend.

    ``current["class"]`` names the Lt/Lu class of the problem being
    learned, so ranking spans split by it.  Returns the backend name.
    """
    name = f"perfbench-traced-{id(tracer)}"
    inner_class = backend_class("semantic")
    span = tracer.span

    def timed(label, call):
        def wrapper(*args, **kwargs):
            with span(label):
                return call(*args, **kwargs)

        return wrapper

    def by_class(label, call):
        def wrapper(*args, **kwargs):
            with span(f"{label}.{current['class'].lower()}"):
                return call(*args, **kwargs)

        return wrapper

    @register_backend(name)
    class TracedSemantic:
        requires_catalog = True

        def __init__(self, catalog, config) -> None:
            inner = inner_class(catalog, config)
            self.name = inner.name
            adapter = inner.adapter()
            self._adapter = LanguageAdapter(
                adapter.name,
                timed("core.generate", adapter.generate),
                timed("core.intersect", adapter.intersect),
                adapter.is_empty,
            )
            self.best_program = by_class("api.best", inner.best_program)
            self.top_programs = by_class("api.topk", inner.top_programs)
            self.count_expressions = by_class("api.count", inner.count_expressions)
            self.structure_size = by_class("api.size", inner.structure_size)
            self.enumerate_programs = inner.enumerate_programs

        def adapter(self):
            return self._adapter

    return name


class LearnSuite:
    name = "learn-suite"

    def __init__(self, seed: int, src: str) -> None:
        self.src = src
        self.rng = random.Random(seed)
        self.problems = []
        self.current = {"class": "Lu"}
        # problem name -> ms to a correct program, one entry per pass.
        self.latencies_ms: Dict[str, List[float]] = {}
        self.passes: List[Dict[str, float]] = []
        # Speed probe readings, one before every problem.
        self.probes: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.phase: Dict[str, float] = {}
        self.setup_samples: List[float] = []
        self.setup_scaled: List[float] = []
        self._traced_language: Optional[str] = None

    def setup(self, tracer: Optional[Tracer] = None) -> None:
        """Time cold starts, then load the suite in this process.

        Set-up is what a user pays before the first learn: a fresh
        interpreter importing the package, loading the 50 problems and
        building each problem's engine (tables, merged background tables
        and language backend).  It runs several times, each time scaled
        by the speed probe read just before and after it; the median
        counts.
        """
        env = dict(os.environ, PYTHONPATH=self.src)
        for _ in range(SETUP_REPEATS):
            raw, scaled = timed_at_reference(lambda: self._cold_start(env))
            self.setup_samples.append(raw)
            self.setup_scaled.append(scaled)
        self.problems = all_benchmarks()

    @staticmethod
    def _cold_start(env) -> None:
        child = subprocess.Popen([sys.executable, "-c", COLD_START], env=env)
        # A blocking wait, not wait(timeout=...): that one polls in steps
        # of up to 50 ms, which would round every sample up.
        guard = threading.Timer(COLD_START_TIMEOUT, child.kill)
        guard.start()
        try:
            status = child.wait()
        finally:
            guard.cancel()
        if status != 0:
            raise RuntimeError(f"cold start exited with status {status}")

    def setup_seconds(self) -> float:
        return statistics.median(self.setup_scaled)

    def _interact(self, problem, language: str, tracer: Optional[Tracer]):
        """One problem's interaction; returns (examples used, size, correct)."""
        span = span_of(tracer)
        engine = Synthesizer(
            Catalog(problem.tables),
            language=language,
            background=problem.background or None,
        )
        rows = list(problem.rows)
        given: List[int] = []
        index = 0
        while len(given) < MAX_EXAMPLES:
            given.append(index)
            with span("api.synthesize"):
                result = engine.synthesize([rows[i] for i in given], k=5)
            if tracer is not None:
                for phase, seconds in (result.phase_seconds or {}).items():
                    self.phase[phase] = self.phase.get(phase, 0.0) + seconds
            program = result.program
            mismatch = None
            with span("engine.check"):
                for row_index, (inputs, expected) in enumerate(rows):
                    if program.run(inputs) != expected:
                        mismatch = row_index
                        break
            if mismatch is None:
                return len(given), result.structure_size, True
            index = mismatch
        return len(given), result.structure_size, False

    def run_pass(self, tracer: Optional[Tracer]) -> Dict[str, float]:
        """One pass over the 50 problems in a seeded shuffle; returns
        ``{problem name: ms to a correct program}``."""
        order = list(self.problems)
        self.rng.shuffle(order)
        language = "semantic"
        if tracer is not None:
            if self._traced_language is None:
                self._traced_language = traced_backend(tracer, self.current)
            language = self._traced_language
        span = span_of(tracer)
        times: Dict[str, float] = {}
        examples = 0
        sizes = 0
        unconverged = 0
        started = time.perf_counter()
        for problem in order:
            self.current["class"] = problem.language_class
            clear_dag_cache()
            clear_intersection_caches()
            self.probes.append(speed_probe_ms())
            op_started = time.perf_counter()
            with span("learn.problem", request=problem.name):
                used, size, ok = self._interact(problem, language, tracer)
            times[problem.name] = (time.perf_counter() - op_started) * 1000.0
            self.latencies_ms.setdefault(problem.name, []).append(times[problem.name])
            examples += used
            sizes += size
            unconverged += not ok
            self.attempted += 1
            self.failed += not ok
        self.passes.append({
            "seconds": time.perf_counter() - started,
            "problems": len(order),
            "examples": examples,
            "structure_size_sum": sizes,
            "unconverged": unconverged,
        })
        return times

    def run_for(self, seconds: float, tracer: Optional[Tracer]) -> float:
        """Whole passes until ``seconds`` have passed, at least
        ``MIN_PASSES``; returns the scaled problems per second of these
        passes."""
        times: Dict[str, List[float]] = {}
        first_probe = len(self.probes)
        spent = 0.0
        passes = 0
        while spent < seconds or passes < MIN_PASSES:
            passes += 1
            for name, ms in self.run_pass(tracer).items():
                times.setdefault(name, []).append(ms)
            spent += self.passes[-1]["seconds"]
        scaled = self.scaled_ms(times, self.probes[first_probe:])
        return len(scaled) / (sum(scaled) / 1000.0)

    @staticmethod
    def scaled_ms(times: Dict[str, List[float]], probes: List[float]) -> List[float]:
        """Each problem's mean time, scaled by the mean probe reading."""
        factor = statistics.fmean(probes) / REFERENCE_PROBE_MS
        return [statistics.fmean(samples) / factor for samples in times.values()]

    # -- reporting ----------------------------------------------------
    def deterministic(self) -> bool:
        """Every pass converged on every problem with the expected
        examples and structure sizes."""
        return bool(self.passes) and all(
            record["unconverged"] == 0
            and record["examples"] == EXPECTED_EXAMPLES
            and record["structure_size_sum"] == EXPECTED_STRUCTURE_SIZE_SUM
            for record in self.passes
        )

    def report(self) -> Dict[str, Dict[str, float]]:
        """This workload's own end-to-end metrics, by name.

        Throughput is problems per second of a pass made of each
        problem's mean time at the reference speed.  Percentiles are over
        the 50 problems' scaled times, by the Harrell-Davis estimator:
        the problems differ by orders of magnitude, and a plain
        percentile of 50 values jumps between neighbouring problems when
        two swap.  ``unscaled`` gives each value before scaling, and
        ``speed_factor`` the mean probe reading over the reference.
        """
        scaled = self.scaled_ms(self.latencies_ms, self.probes)
        raw = [statistics.fmean(samples) for samples in self.latencies_ms.values()]
        count = len(scaled)
        return {
            "learn_tasks_per_s": {"value": count / (sum(scaled) / 1000.0),
                                  "unit": "1/s", "samples": len(self.passes),
                                  "unscaled": count / (sum(raw) / 1000.0)},
            "learn_ms_p50": {"value": smooth_percentile(scaled, 50), "unit": "ms",
                             "samples": count, "unscaled": smooth_percentile(raw, 50)},
            f"learn_ms_p{TAIL}": {
                "value": smooth_percentile(scaled, TAIL), "unit": "ms",
                "samples": count, "beyond": samples_beyond(count, TAIL),
                "unscaled": smooth_percentile(raw, TAIL),
            },
            "speed_factor": {
                "value": statistics.fmean(self.probes) / REFERENCE_PROBE_MS,
                "unit": "ratio", "samples": len(self.probes),
            },
        }

    def headline(self) -> Dict[str, float]:
        """(throughput, p50 ms, tail ms) for the shared metric names."""
        report = self.report()
        return {
            "throughput_per_s": report["learn_tasks_per_s"]["value"],
            "latency_ms_p50": report["learn_ms_p50"]["value"],
            "latency_ms_tail": report[f"learn_ms_p{TAIL}"]["value"],
        }

    def layers(self, tracer: Tracer) -> Dict[str, float]:
        passes = self.passes
        layers = {
            "core.generate_s": tracer.total("core.generate"),
            "core.intersect_s": tracer.total("core.intersect"),
            "api.rank_s": self.phase.get("rank", 0.0),
            "engine.check_s": tracer.total("engine.check"),
            "api.examples_used": passes[-1]["examples"],
            "api.structure_size_sum": passes[-1]["structure_size_sum"],
            "syntactic.position_hit_rate": position_cache_stats()["hit_rate"],
            "syntactic.intersection_hit_rate": intersection_cache_stats()["hit_rate"],
            "syntactic.dag_hit_rate": dag_cache_stats()["hit_rate"],
        }
        for call in ("count", "best", "topk", "size"):
            for klass in ("lt", "lu"):
                layers[f"api.{call}_s.{klass}"] = tracer.total(f"api.{call}.{klass}")
        return layers
