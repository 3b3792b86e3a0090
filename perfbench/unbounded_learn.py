"""Reproducer for learns that do not finish (not part of the timed mix).

    python3 perfbench/unbounded_learn.py --shape multikey --rows 1000
    python3 perfbench/unbounded_learn.py --shape join --rows 3000

Run from the root of a checkout.  Each learn is given ``--budget``
seconds in a child process; one that runs past it is reported as
``TIMEOUT`` and the child is killed.  The shapes are described in
``perfbench/NOTES.md``.  Once learns have a budget, a shape that returns
can become a workload.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def build(shape: str, rows: int, seed: int):
    """(catalog, [examples]) for one shape.

    Both shapes share ``Staff(First, Last, Code, Acct)`` and
    ``Badges(Acct, Badge)``; first and last names repeat (160 of each)
    and only the pair is a key.
    """
    from gen import NAME_SYLLABLES, unique_codes, unique_words

    from repro.tables.catalog import Catalog
    from repro.tables.table import Table

    rng = random.Random(seed)
    pool = 160
    firsts = unique_words(rng, pool, 3, alphabet=NAME_SYLLABLES)
    lasts = unique_words(rng, pool, 3, set(firsts), NAME_SYLLABLES)
    pairs = rng.sample(range(pool * pool), rows)
    codes = unique_codes(rng, rows, 6)
    accts = unique_codes(rng, rows, 7, taken=set(codes))
    badges = unique_words(rng, rows, taken=set(firsts) | set(lasts))
    staff = [(firsts[p // pool], lasts[p % pool], codes[i], accts[i])
             for i, p in enumerate(pairs)]
    order = list(range(rows))
    rng.shuffle(order)
    catalog = Catalog([
        Table("Staff", ["First", "Last", "Code", "Acct"], staff),
        Table("Badges", ["Acct", "Badge"], [(accts[i], badges[i]) for i in order]),
    ])
    if shape == "multikey":
        task = [((row[0], row[1]), row[2]) for row in staff]
    else:
        task = [((codes[i],), badges[i]) for i in range(rows)]
    picks = [rng.sample(range(rows), 2) for _ in range(3)]
    return catalog, [[task[a], task[b]] for a, b in picks]


def learn(shape: str, rows: int, seed: int, attempt: int) -> None:
    from repro import Synthesizer

    catalog, tasks = build(shape, rows, seed)
    result = Synthesizer(catalog).synthesize(tasks[attempt], k=1)
    print(f"  program: {result.program.source()}", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", choices=("multikey", "join"), required=True)
    parser.add_argument("--rows", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--budget", type=float, default=60.0)
    args = parser.parse_args()
    context = multiprocessing.get_context("spawn")
    for attempt in range(3):
        started = time.perf_counter()
        child = context.Process(
            target=learn, args=(args.shape, args.rows, args.seed, attempt)
        )
        child.start()
        child.join(args.budget)
        elapsed = time.perf_counter() - started
        if child.is_alive():
            child.kill()
            child.join()
            print(f"learn {attempt + 1}: TIMEOUT after {elapsed:.1f}s", flush=True)
        else:
            print(f"learn {attempt + 1}: {elapsed:.1f}s (exit {child.exitcode})",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
