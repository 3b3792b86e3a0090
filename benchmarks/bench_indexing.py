"""Indexed hot paths vs naive scans: the perf-regression harness.

Measures the four hot paths that PR 2 put onto purpose-built indexes,
each against its naive oracle (``SynthesisConfig.without_indexes``):

* ``semantic_reachability`` -- ``generate_semantic`` Phase 1 over a
  scaled catalog: substring-trigger index vs pairwise ``in`` scans,
* ``fill`` -- serve-time ``Program.fill`` over a scaled table:
  per-column inverted index vs full row scans,
* ``dag_generation`` -- ``generate_dag``: per-source occurrence index vs
  repeated ``str.find`` (also reports ``cached_positions`` reuse),
* ``worklist_pruning`` -- emptiness fixpoint: counter-driven propagation
  vs repeated full-node sweeps, on a dependency chain and on one shared
  predicate dag whose atom sources become valid one at a time.

Usage::

    PYTHONPATH=src python benchmarks/bench_indexing.py                  # run + print
    PYTHONPATH=src python benchmarks/bench_indexing.py --out BENCH_indexing.json
    PYTHONPATH=src python benchmarks/bench_indexing.py --quick \
        --check BENCH_indexing.json          # CI: fail on >2x regression

``--check`` compares *speedups* (indexed vs naive on the same machine,
same run), so the gate is stable across hardware; it fails when any
benchmark's current speedup drops below ``baseline / --factor``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.config import DEFAULT_CONFIG
from repro.engine.program import Program
from repro.lookup.ast import Select
from repro.core.exprs import Var
from repro.lookup.dstruct import GenPredicate, GenSelect, NodeStore, RowCondition, VarEntry
from repro.semantic.generate import generate_semantic
from repro.semantic.intersect import (
    valid_nodes_fixpoint,
    valid_nodes_fixpoint_naive,
)
from repro.syntactic.dag import Dag, RefAtom
from repro.syntactic.generate import generate_dag
from repro.syntactic.positions import position_cache_stats, reset_position_cache_stats
from repro.tables.catalog import Catalog
from repro.tables.table import Table

INDEXED = DEFAULT_CONFIG
NAIVE = DEFAULT_CONFIG.without_indexes()


def _timeit(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds for one call of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


# -- scaled inputs -----------------------------------------------------------
def reachability_catalog(num_cells: int) -> Tuple[Catalog, Tuple[str, ...], str]:
    """A ``num_cells``-cell catalog plus a wide input state.

    Phase 1 of ``generate_semantic`` scales with |distinct values| x
    |frontier|; a wide input row (many variables, two containing real
    keys) makes the trigger scan the dominant cost while keeping the
    matched-row set -- hence the shared dag-building phases -- small.
    """
    columns = ["Id", "C1", "C2", "C3", "C4"]
    num_rows = max(1, num_cells // len(columns))
    rows = [
        tuple([f"K{r:05d}"] + [f"v{r:05d}{c}" for c in range(1, 5)])
        for r in range(num_rows)
    ]
    catalog = Catalog([Table("Cat", columns, rows, keys=[("Id",)])])
    rng = random.Random(0)
    filler = [
        "".join(rng.choices("abcdefghijklmnopqrstuwxyz", k=12)) for _ in range(48)
    ]
    hit_one = rows[num_rows // 3][0]
    hit_two = rows[(2 * num_rows) // 3][0]
    state = tuple(filler + [f"order {hit_one} due", f"ship {hit_two} now"])
    output = rows[num_rows // 3][2]
    return catalog, state, output


def bench_semantic_reachability(num_cells: int, repeats: int) -> Dict[str, float]:
    catalog, state, output = reachability_catalog(num_cells)
    catalog.substring_index().build()  # outside the timed region (built
    # once, reused across every synthesize call on this catalog)
    started = time.perf_counter()
    Catalog(catalog.tables()).substring_index().build()
    build_s = time.perf_counter() - started
    naive_s = _timeit(lambda: generate_semantic(catalog, state, output, NAIVE), repeats)
    indexed_s = _timeit(
        lambda: generate_semantic(catalog, state, output, INDEXED), repeats
    )
    return {
        "naive_s": naive_s,
        "indexed_s": indexed_s,
        "speedup": naive_s / indexed_s,
        "index_build_s": build_s,
    }


def bench_fill(num_rows: int, num_queries: int, repeats: int) -> Dict[str, float]:
    rows = [(f"K{r:06d}", f"value-{r:06d}") for r in range(num_rows)]
    catalog = Catalog([Table("Big", ["Id", "Val"], rows, keys=[("Id",)])])
    program = Program(
        Select("Val", "Big", [("Id", Var(0))]), catalog, "lookup", num_inputs=1
    )
    rng = random.Random(1)
    queries = [(rows[rng.randrange(num_rows)][0],) for _ in range(num_queries)]
    expected = [catalog.table("Big").cell("Val", int(q[0][1:])) for q in queries]

    table = catalog.table("Big")
    table.find_rows({"Id": rows[0][0]})  # build the inverted index up front

    indexed_s = _timeit(lambda: program.fill(queries), repeats)
    # Flip the serve path to the naive scan (what Synthesizer does for a
    # config with use_table_index=False).
    catalog.use_table_index = False
    try:
        assert program.fill(queries) == expected
        naive_s = _timeit(lambda: program.fill(queries), repeats)
    finally:
        catalog.use_table_index = True
    assert program.fill(queries) == expected
    return {"naive_s": naive_s, "indexed_s": indexed_s, "speedup": naive_s / indexed_s}


def bench_dag_generation(
    num_sources: int, output_len: int, repeats: int
) -> Dict[str, float]:
    rng = random.Random(2)
    alphabet = "abcdef-123 "
    output = "".join(rng.choices(alphabet, k=output_len))
    sources = []
    for source_id in range(num_sources):
        # Half the sources embed real substrings of the output so the
        # occurrence lists are non-trivial, half are misses.
        if source_id % 2 == 0:
            start = rng.randrange(max(1, output_len - 6))
            text = "x" + output[start : start + 6] + "y"
        else:
            text = "".join(rng.choices(alphabet, k=14))
        sources.append((source_id, text))
    generate_dag(sources, output, INDEXED)  # warm the position cache
    reset_position_cache_stats()
    naive_s = _timeit(lambda: generate_dag(sources, output, NAIVE), repeats)
    indexed_s = _timeit(lambda: generate_dag(sources, output, INDEXED), repeats)
    stats = position_cache_stats()
    return {
        "naive_s": naive_s,
        "indexed_s": indexed_s,
        "speedup": naive_s / indexed_s,
        "position_cache_hit_rate": round(stats["hit_rate"], 4),
    }


def chain_store(length: int) -> NodeStore:
    """Node i needs node i+1 valid; only the last node is a variable.

    Ascending-id sweeps validate one node per pass -- the worst case for
    the naive fixpoint, O(n) sweeps -- while the worklist settles it in
    one propagation per node.
    """
    store = NodeStore()
    for node in range(length):
        store.new_node(f"n{node}")
    for node in range(length - 1):
        dag = Dag((0, 1), 0, 1, {(0, 1): [RefAtom(node + 1)]})
        condition = RowCondition("T", node, [[GenPredicate("C", dag=dag)]])
        store.progs[node].append(GenSelect("C", "T", condition))
    store.progs[length - 1].append(VarEntry(0))
    store.target = 0
    return store


def fanin_store(sharers: int, width: int) -> NodeStore:
    """``sharers`` selects on one ``width``-edge predicate dag.

    Sources ``sharers ..`` form a chain (each needs the next, the last is
    a variable), so they become valid one at a time, from the last down;
    edge k of the shared dag is labelled by the k-th source to become
    valid.  Rechecking a sharer whenever one of its sources becomes valid
    re-walks the growing valid prefix of the shared dag ``width`` times
    per sharer; ascending sweeps do the same over ``width`` passes.
    """
    store = NodeStore()
    for node in range(sharers + width):
        store.new_node(f"n{node}")
    last = sharers + width - 1
    edges = {(k, k + 1): [RefAtom(last - k)] for k in range(width)}
    shared = Dag(range(width + 1), 0, width, edges)
    for node in range(sharers):
        condition = RowCondition("T", node, [[GenPredicate("C", dag=shared)]])
        store.progs[node].append(GenSelect("C", "T", condition))
    for node in range(sharers, last):
        dag = Dag((0, 1), 0, 1, {(0, 1): [RefAtom(node + 1)]})
        condition = RowCondition("T", node, [[GenPredicate("C", dag=dag)]])
        store.progs[node].append(GenSelect("C", "T", condition))
    store.progs[last].append(VarEntry(0))
    store.target = 0
    return store


def bench_worklist_pruning(store: NodeStore, repeats: int) -> Dict[str, float]:
    expected = set(range(len(store)))
    assert valid_nodes_fixpoint(store) == expected
    assert valid_nodes_fixpoint_naive(store) == expected
    naive_s = _timeit(lambda: valid_nodes_fixpoint_naive(store), repeats)
    indexed_s = _timeit(lambda: valid_nodes_fixpoint(store), repeats)
    return {"naive_s": naive_s, "indexed_s": indexed_s, "speedup": naive_s / indexed_s}


# -- harness -----------------------------------------------------------------
def run_suite(quick: bool) -> Dict[str, Dict[str, float]]:
    repeats = 2 if quick else 3
    cell_sizes = [1_000] if quick else [1_000, 10_000, 100_000]
    row_sizes = [1_000] if quick else [1_000, 10_000, 100_000]
    results: Dict[str, Dict[str, float]] = {}
    for cells in cell_sizes:
        name = f"semantic_reachability[cells={cells}]"
        print(f"running {name} ...", flush=True)
        results[name] = bench_semantic_reachability(cells, repeats)
    for rows in row_sizes:
        name = f"fill[rows={rows}]"
        print(f"running {name} ...", flush=True)
        results[name] = bench_fill(rows, num_queries=min(rows, 500), repeats=repeats)
    name = "dag_generation[sources=40,len=30]"
    print(f"running {name} ...", flush=True)
    # The smallest win of the four; extra repeats keep best-of stable.
    results[name] = bench_dag_generation(40, 30, repeats * 3)
    # Same sizes in quick mode so --check can compare them.
    length = 400
    name = f"worklist_pruning[chain={length}]"
    print(f"running {name} ...", flush=True)
    results[name] = bench_worklist_pruning(chain_store(length), repeats)
    sharers, width = 200, 40
    name = f"worklist_pruning[fanin={sharers}]"
    print(f"running {name} ...", flush=True)
    results[name] = bench_worklist_pruning(fanin_store(sharers, width), repeats)
    return results


def render(results: Dict[str, Dict[str, float]]) -> List[str]:
    width = max(len(name) for name in results)
    lines = [f"{'benchmark'.ljust(width)}  {'naive':>10}  {'indexed':>10}  {'speedup':>8}"]
    for name, row in results.items():
        lines.append(
            f"{name.ljust(width)}  {row['naive_s']:>9.4f}s  {row['indexed_s']:>9.4f}s  "
            f"{row['speedup']:>7.1f}x"
        )
    return lines


def check_regression(
    results: Dict[str, Dict[str, float]], baseline_path: Path, factor: float
) -> int:
    baseline = json.loads(baseline_path.read_text())["results"]
    failures = []
    for name, row in results.items():
        reference = baseline.get(name)
        if reference is None:
            print(f"note: {name} not in baseline, skipping")
            continue
        floor = reference["speedup"] / factor
        status = "ok" if row["speedup"] >= floor else "REGRESSION"
        print(
            f"{status:>10}  {name}: speedup {row['speedup']:.1f}x "
            f"(baseline {reference['speedup']:.1f}x, floor {floor:.1f}x)"
        )
        if status != "ok":
            failures.append(name)
    if failures:
        print(f"\nperf regression in: {', '.join(failures)}")
        return 1
    print("\nno perf regressions")
    return 0


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small sizes (CI smoke)")
    parser.add_argument("--out", type=Path, help="write results JSON here")
    parser.add_argument("--check", type=Path, help="baseline JSON to compare against")
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="fail when a speedup falls below baseline/factor (default 2)",
    )
    args = parser.parse_args(argv)

    results = run_suite(args.quick)
    print()
    for line in render(results):
        print(line)

    if args.out:
        payload = {
            "meta": {
                "python": sys.version.split()[0],
                "cpu_count": os.cpu_count() or 1,
                "timestamp": datetime.now(timezone.utc).isoformat(
                    timespec="seconds"
                ),
                "quick": args.quick,
                "note": "speedups are machine-relative (same-run naive vs indexed); "
                "refresh with: PYTHONPATH=src python benchmarks/bench_indexing.py "
                "--out BENCH_indexing.json",
            },
            "results": results,
        }
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {args.out}")

    if args.check:
        print()
        return check_regression(results, args.check, args.factor)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
