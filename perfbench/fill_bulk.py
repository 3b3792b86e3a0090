"""``fill-bulk``: in-process chunked fills over a 100k-row catalog.

Set-up builds the catalog, a ``SynthesisService`` over it, learns three
programs on a 2k-row sample of the same tables (an Lu lookup-plus-slice,
an Lt two-table join and an Ls date reformat) and opens one
``FillSession`` per program.  One op is one 1024-row NDJSON chunk through
``NDJSONRowReader.feed`` -> ``FillSession.fill_chunk`` ->
``encode_outputs``: the ``/fill/stream`` path without the socket.  Ops
rotate over the three programs.

Each chunk mixes Zipf-hot keys (they fit the compiled plan's row memo),
uniform keys over the whole table (they do not) and a few absent keys
(the program is undefined on them).  The reference is the generator's
ground truth, encoded by this benchmark's own writer.

Every distinct chunk is filled many times in a run.  Throughput and the
median chunk time use each chunk's fastest fill: the machine this was
tuned on runs at two speeds, switching every second or so, and the
fastest of many repeats reads the program's cost instead of the share of
the run the machine spent slow.  The speed probe runs every few chunks,
and each chunk's fastest fill is scaled to the reference speed by the
fastest probe reading taken just before that chunk's fills: both are
the fastest over the same moments of the run, so a chunk that never met
the machine at its fast level is scaled by a probe that did not either.
The machine at times stays slow for a whole run (see NOTES.md,
*Steadiness*).  The gated tail is the p90 of the chunks' scaled fastest
fills, the cost of the slowest tenth of chunks; the unscaled values,
and the p99 over every fill, which moves with the share of the run
spent slow, are printed as context.

A traced run ends with two short probes of the layers the chunk loop
does not reach: approximate fills through the canonical matcher on
case- and space-noised keys (``matching``), and row appends to the
served catalog, each followed by a fill of the new rows through a fresh
session, which rebinds the plan (``tables``).
"""

from __future__ import annotations

import gc
import itertools
import math
import random
import statistics
import time
from typing import Dict, List, Optional

from common import (REFERENCE_PROBE_MS, Tracer, percentile, samples_beyond, span_of,
                    speed_probe_ms, timed_at_reference)
from gen import (NAME_SYLLABLES, PeopleData, iso_date, ndjson_outputs, ndjson_rows,
                 reformat_date, unique_codes, unique_words, zipf_weights)

from repro import Synthesizer
from repro.service import SynthesisService
from repro.service.streamfill import NDJSONRowReader, encode_outputs
from repro.syntactic.intersect import clear_dag_cache
from repro.syntactic.positions import clear_intersection_caches
from repro.tables.catalog import Catalog
from repro.tables.table import Table

#: Rows of each of the two tables (100k rows in the catalog).
TABLE_ROWS = 50_000
#: Rows of the sample the programs are learned on.
SAMPLE_ROWS = 2_000
CHUNK_ROWS = 1024
#: Distinct chunks per program; ops cycle through them.
CHUNKS_PER_PROGRAM = 48
HOT_KEYS = 2048
HOT_SHARE = 0.6
ABSENT_SHARE = 0.02
SETUP_REPEATS = 3
#: Chunks between two readings of the speed probe.
PROBE_EVERY = 4
PROGRAMS = ("lu", "lt", "ls")
#: Tail percentile over the 144 chunks' fastest fills (14 beyond it),
#: and over every fill (printed as context only).
TAIL = 90
TAIL_ALL = 99
#: Layer probes of a traced run: approximate fills of a few noised keys,
#: and appends of fresh ``People`` rows.
PROBE_OPS = 16
APPROX_ROWS = 4
APPEND_ROWS = 8


class FillBulk:
    name = "fill-bulk"

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.setup_samples: List[float] = []
        self.latencies_ms: List[float] = []
        # (program, chunk index) -> fastest fill of that chunk, in ms, and
        # fastest probe reading taken just before one of its fills.
        self.fastest_ms: Dict[tuple, float] = {}
        self.fastest_probe: Dict[tuple, float] = {}
        self.rows = 0
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.exec_time = {name: 0.0 for name in PROGRAMS}
        self.exec_rows = {name: 0 for name in PROGRAMS}
        self.rows_undefined = 0
        self.expected_undefined = 0
        self.probe_ms: Dict[str, List[float]] = {"approx": [], "append": []}
        self.probe_readings = 0
        self.setup_scaled: List[float] = []
        self.setup_phases: Dict[str, float] = {}
        self.fill_session_s = 0.0
        self._op = 0

    # -- inputs -------------------------------------------------------
    def _make_inputs(self) -> None:
        rng = self.rng
        data = self.data = PeopleData(rng, TABLE_ROWS)
        count = len(data)
        hot = rng.sample(range(count), HOT_KEYS)
        weights = list(itertools.accumulate(zipf_weights(HOT_KEYS)))
        hot_dates = [iso_date(rng) for _ in range(HOT_KEYS // 4)]
        date_weights = list(itertools.accumulate(zipf_weights(len(hot_dates))))
        self.chunks = {name: [] for name in PROGRAMS}
        for _ in range(CHUNKS_PER_PROGRAM):
            for name in ("lu", "lt"):
                rows, truth = [], []
                for _ in range(CHUNK_ROWS):
                    draw = rng.random()
                    if draw < ABSENT_SHARE:
                        # Select on a missing key is "" (paper §4.1); a
                        # slice of "" has no positions, so Lu is undefined.
                        rows.append([rng.choice(data.absent)])
                        truth.append(None if name == "lu" else "")
                        continue
                    if draw < ABSENT_SHARE + HOT_SHARE:
                        index = rng.choices(hot, cum_weights=weights)[0]
                    else:
                        index = rng.randrange(count)
                    rows.append([data.codes[index]])
                    truth.append(
                        data.last_word(index) if name == "lu" else data.owners[index]
                    )
                self.chunks[name].append((ndjson_rows(rows), ndjson_outputs(truth)))
                self.expected_undefined += truth.count(None)
            rows = [
                [rng.choices(hot_dates, cum_weights=date_weights)[0]]
                if rng.random() < HOT_SHARE
                else [iso_date(rng)]
                for _ in range(CHUNK_ROWS)
            ]
            truth = [reformat_date(row[0]) for row in rows]
            self.chunks["ls"].append((ndjson_rows(rows), ndjson_outputs(truth)))
        self.examples = {
            "lu": [((data.codes[i],), data.last_word(i)) for i in (3, 1234)],
            "lt": [((data.codes[i],), data.owners[i]) for i in (7, 1500)],
            "ls": [((d,), reformat_date(d)) for d in ("2021-03-15", "1987-11-02")],
        }
        self.sample_tables = (
            data.people_rows(0, SAMPLE_ROWS),
            data.owner_rows([i for i in data.owner_order if i < SAMPLE_ROWS]),
        )

    # -- set-up -------------------------------------------------------
    def _setup_once(self, tracer: Optional[Tracer]):
        span = span_of(tracer)
        data = self.data
        catalog = Catalog(
            [
                Table("People", ["Code", "Name", "Acct"], data.people_rows()),
                Table("Owners", ["Acct", "Owner"], data.owner_rows()),
            ]
        )
        service = SynthesisService(catalog=catalog)
        people, owners = self.sample_tables
        sample = Catalog(
            [
                Table("People", ["Code", "Name", "Acct"], people),
                Table("Owners", ["Acct", "Owner"], owners),
            ]
        )
        results = {
            "lu": Synthesizer(sample).synthesize(self.examples["lu"], k=1),
            "lt": Synthesizer(sample, language="lookup").synthesize(
                self.examples["lt"], k=1
            ),
            "ls": Synthesizer(None, language="syntactic").synthesize(
                self.examples["ls"], k=1
            ),
        }
        self.programs = {name: results[name].program.to_dict() for name in PROGRAMS}
        sessions = {}
        for name in PROGRAMS:
            opened = time.perf_counter()
            with span("service.fill_session"):
                sessions[name] = service.fill_session(self.programs[name])
            if tracer is not None:
                self.fill_session_s += time.perf_counter() - opened
            # Lazy per-plan state fills on the first chunk; that is set-up.
            self._run_op(sessions[name], name, 0, None, record=False)
        if tracer is not None:
            for result in results.values():
                for phase, seconds in (result.phase_seconds or {}).items():
                    self.setup_phases[phase] = self.setup_phases.get(phase, 0.0) + seconds
        return service, sessions

    def setup(self, tracer: Optional[Tracer] = None) -> None:
        self._make_inputs()
        for _ in range(SETUP_REPEATS):
            self.service = self.sessions = None
            gc.collect()
            clear_dag_cache()
            clear_intersection_caches()
            built = []
            raw, scaled = timed_at_reference(
                lambda: built.append(self._setup_once(tracer)))
            self.service, self.sessions = built[0]
            self.setup_samples.append(raw)
            self.setup_scaled.append(scaled)
        # One rotation over every chunk: counts that must repeat exactly.
        for name in PROGRAMS:
            for index in range(CHUNKS_PER_PROGRAM):
                outputs = self._run_op(self.sessions[name], name, index, None, record=False)
                self.rows_undefined += sum(1 for value in outputs if value is None)

    # -- ops ----------------------------------------------------------
    def _run_op(self, session, name: str, index: int, tracer: Optional[Tracer],
                record: bool = True):
        span = span_of(tracer)
        data, expected = self.chunks[name][index]
        request = f"chunk-{self._op}"
        started = time.perf_counter()
        with span("fill.chunk", request=request):
            with span("service.decode"):
                rows = NDJSONRowReader().feed(data)
            exec_started = time.perf_counter()
            with span("engine.exec"):
                outputs = session.fill_chunk(rows)
            exec_ended = time.perf_counter()
            with span("service.encode"):
                body = encode_outputs(outputs)
        ended = time.perf_counter()
        correct = body == expected
        if record:
            self._op += 1
            self.attempted += 1
            if not correct:
                self.failed += 1
            elapsed_ms = (ended - started) * 1000.0
            self.latencies_ms.append(elapsed_ms)
            self.busy += ended - started
            self.rows += len(rows)
            if tracer is not None:
                self.exec_time[name] += exec_ended - exec_started
                self.exec_rows[name] += len(rows)
        elif not correct:
            raise RuntimeError(f"{name} set-up chunk {index} filled wrong outputs")
        return outputs

    def run_for(self, seconds: float, tracer: Optional[Tracer]) -> float:
        """Chunks until ``seconds`` have passed; returns the scaled rows
        per second of the chunks filled, each at its fastest fill in
        this call."""
        fastest: Dict[tuple, float] = {}
        fastest_probe: Dict[tuple, float] = {}
        deadline = time.perf_counter() + seconds
        done = 0
        while time.perf_counter() < deadline:
            turn = self._op
            name = PROGRAMS[turn % len(PROGRAMS)]
            index = (turn // len(PROGRAMS)) % CHUNKS_PER_PROGRAM
            if done % PROBE_EVERY == 0:
                probe = speed_probe_ms()
                self.probe_readings += 1
            done += 1
            self._run_op(self.sessions[name], name, index, tracer)
            key = (name, index)
            for best, best_probe in ((fastest, fastest_probe),
                                     (self.fastest_ms, self.fastest_probe)):
                best[key] = min(self.latencies_ms[-1], best.get(key, math.inf))
                best_probe[key] = min(probe, best_probe.get(key, math.inf))
        scaled = self.scaled_ms(fastest, fastest_probe)
        return len(scaled) * CHUNK_ROWS / (sum(scaled.values()) / 1000.0)

    @staticmethod
    def scaled_ms(fastest: Dict[tuple, float],
                  fastest_probe: Dict[tuple, float]) -> Dict[tuple, float]:
        """Each chunk's fastest fill over its fastest probe reading."""
        return {key: ms * REFERENCE_PROBE_MS / fastest_probe[key]
                for key, ms in fastest.items()}

    def _probe(self, kind: str, tracer: Tracer, call) -> None:
        """Time one probe op under a span."""
        self.attempted += 1
        started = time.perf_counter()
        with tracer.span(f"probe.{kind}"):
            call()
        self.probe_ms[kind].append((time.perf_counter() - started) * 1000.0)

    def probe_layers(self, tracer: Tracer) -> None:
        """Approximate fills (``matching``) and appends (``tables``).

        Runs after the timed halves, so it moves no end-to-end metric.
        An approximate fill sends ``APPROX_ROWS`` keys in lower case with
        spaces around them, which only the canonical matcher resolves,
        to the join program.  An append adds ``APPEND_ROWS`` fresh
        ``People`` rows to the served catalog; only the append is timed,
        and a fresh session over the grown catalog then checks it by
        filling the new codes with the slice program.
        """
        rng = random.Random(self.rng.random())
        data, service = self.data, self.service
        for _ in range(PROBE_OPS):
            picks = rng.sample(range(len(data)), APPROX_ROWS)
            rows = [[f" {data.codes[i].lower()} "] for i in picks]
            outputs = []
            self._probe("approx", tracer, lambda: outputs.extend(
                service.fill(self.programs["lt"], rows, matchers="canonical")))
            self.failed += outputs != [data.owners[i] for i in picks]
        taken = set(data.codes) | set(data.accts) | set(data.absent)
        codes = unique_codes(rng, PROBE_OPS * APPEND_ROWS, 6, taken=taken)
        accts = unique_codes(rng, len(codes), 7, taken=taken | set(codes))
        lasts = unique_words(rng, len(codes), alphabet=NAME_SYLLABLES)
        for op in range(PROBE_OPS):
            part = slice(op * APPEND_ROWS, (op + 1) * APPEND_ROWS)
            rows = [(code, f"Fresh {last}", acct)
                    for code, last, acct in zip(codes[part], lasts[part], accts[part])]
            self._probe("append", tracer, lambda: service.registry.append_rows(
                service.default_catalog, "People", rows))
            session = service.fill_session(self.programs["lu"])
            self.failed += session.fill_chunk([[code] for code in codes[part]]) != lasts[part]

    # -- reporting ----------------------------------------------------
    def setup_seconds(self) -> float:
        return statistics.median(self.setup_scaled)

    def report(self) -> Dict[str, Dict[str, float]]:
        """This workload's own end-to-end metrics, by name.

        ``fill_rows_per_s`` is the rows of every distinct chunk filled
        over the sum of their fastest fills.  The three programs' chunks
        take different times, so the median of the mix falls in the gap
        between two of them and jumps with small shifts;
        ``fill_chunk_ms_p50`` is therefore each program's median fastest
        chunk time, averaged over the programs.  ``fill_chunk_ms_p90`` is
        over the chunks' fastest fills.  All three are scaled chunk by
        chunk (see the module docstring); ``unscaled`` gives each value
        before scaling, and ``speed_factor`` the chunks' mean fastest
        probe reading over the reference.
        The plain rate (rows over busy time of every fill) and the p99
        over every fill are context.
        """
        samples = len(self.latencies_ms)
        chunks = len(self.fastest_ms)

        def metrics_of(fastest: Dict[tuple, float]) -> List[float]:
            medians = [
                percentile([ms for (name, _), ms in fastest.items() if name == program], 50)
                for program in PROGRAMS
            ]
            return [chunks * CHUNK_ROWS / (sum(fastest.values()) / 1000.0),
                    statistics.fmean(medians),
                    percentile(list(fastest.values()), TAIL)]

        rate, p50, tail = metrics_of(self.scaled_ms(self.fastest_ms, self.fastest_probe))
        raw_rate, raw_p50, raw_tail = metrics_of(self.fastest_ms)
        return {
            "fill_rows_per_s": {"value": rate, "unit": "1/s", "samples": samples,
                                "distinct_chunks": chunks, "unscaled": raw_rate},
            "busy_rate_rows_per_s": {"value": self.rows / self.busy, "unit": "1/s",
                                     "samples": samples},
            "fill_chunk_ms_p50": {"value": p50, "unit": "ms", "samples": samples,
                                  "unscaled": raw_p50},
            f"fill_chunk_ms_p{TAIL}": {
                "value": tail, "unit": "ms", "samples": chunks,
                "beyond": samples_beyond(chunks, TAIL), "unscaled": raw_tail,
            },
            f"fill_chunk_ms_p{TAIL_ALL}": {
                "value": percentile(self.latencies_ms, TAIL_ALL), "unit": "ms",
                "samples": samples, "beyond": samples_beyond(samples, TAIL_ALL),
            },
            "speed_factor": {
                "value": statistics.fmean(self.fastest_probe.values()) / REFERENCE_PROBE_MS,
                "unit": "ratio", "samples": self.probe_readings,
            },
        }

    def headline(self) -> Dict[str, float]:
        report = self.report()
        return {
            "throughput_per_s": report["fill_rows_per_s"]["value"],
            "latency_ms_p50": report["fill_chunk_ms_p50"]["value"],
            "latency_ms_tail": report[f"fill_chunk_ms_p{TAIL}"]["value"],
        }

    def layers(self, tracer: Tracer) -> Dict[str, float]:
        self.probe_layers(tracer)
        plans = self.service.stats()["plan_cache"]
        layers = {
            "service.decode_s": tracer.total("service.decode"),
            "service.encode_s": tracer.total("service.encode"),
            "engine.exec_s": tracer.total("engine.exec"),
            "service.fill_session_s": self.fill_session_s / SETUP_REPEATS,
            "service.plan_cache_hits": plans["hits"],
            "service.plan_cache_misses": plans["misses"],
            "engine.rows_undefined": self.rows_undefined,
            "core.generate_s": self.setup_phases.get("generate", 0.0),
            "core.intersect_s": self.setup_phases.get("intersect", 0.0),
            "api.rank_s": self.setup_phases.get("rank", 0.0),
            "matching.approx_fill_ms_p50": percentile(self.probe_ms["approx"], 50),
            "tables.append_ms_p50": percentile(self.probe_ms["append"], 50),
        }
        for name in PROGRAMS:
            seconds = self.exec_time[name]
            layers[f"engine.exec_rows_per_s.{name}"] = (
                self.exec_rows[name] / seconds if seconds else 0.0
            )
        return layers

    def deterministic(self) -> bool:
        """One full rotation in set-up left exactly the rows undefined
        that the generator made absent."""
        return self.rows_undefined == self.expected_undefined > 0
