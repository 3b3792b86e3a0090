"""Ranking-based extraction and enumeration for Dt (paper §4.4).

The paper defines a partial order; we realize it as a compositional cost
model (see :class:`repro.config.RankingWeights`) and extract the cheapest
concrete expression by the tropical fold of :mod:`repro.lookup.circuit`
over (node, depth budget) -- the same k-bounded denotation counting uses,
so extraction always terminates even on self-referential stores.

Per §4.4 the extractor prefers: smaller depth (every Select adds
``select_base`` and deeper budgets are only used when they pay), predicates
comparing against nodes/variables over constants (``const_predicate`` ≫
``node_predicate``), and distinct tables for joins (``self_join_penalty``
when a predicate's chosen sub-expression already uses the parent's table).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.config import DEFAULT_CONFIG, SynthesisConfig
from repro.core.base import Expression
from repro.core.exprs import Var
from repro.lookup.ast import Select, expression_tables  # noqa: F401 -- re-exported
from repro.lookup.circuit import Circuit, Ranked
from repro.lookup.dstruct import NodeStore, VarEntry
from repro.syntactic.ast import ConstStr


def expression_columns(expr: Expression) -> Set[Tuple[str, str]]:
    """``(table, column)`` pairs ``expr`` reads: Select outputs and keys.

    The serving layer validates these against the catalog before running
    a stored program, so a table that *exists* but lost a referenced
    column is refused up front instead of failing mid-evaluation.
    """
    if isinstance(expr, Select):
        columns: Set[Tuple[str, str]] = {(expr.table, expr.column)}
        for key_column, sub in expr.predicates:
            columns.add((expr.table, key_column))
            columns |= expression_columns(sub)
        return columns
    parts = getattr(expr, "parts", None)
    if parts is not None:
        columns = set()
        for part in parts:
            columns |= expression_columns(part)
        return columns
    source = getattr(expr, "source", None)
    if source is not None:
        return expression_columns(source)
    return set()


def expression_confidence(expr: Expression) -> float:
    """Min matcher confidence over every Select inside ``expr``.

    1.0 when every lookup is exact (always true under the default matcher
    spec); lower when some predicate was bound approximately -- the value
    surfaced as ``RankedProgram.confidence``.
    """
    if isinstance(expr, Select):
        return expr.match_confidence()
    confidence = 1.0
    parts = getattr(expr, "parts", None)
    if parts is not None:
        for part in parts:
            confidence = min(confidence, expression_confidence(part))
        return confidence
    source = getattr(expr, "source", None)
    if source is not None:
        return expression_confidence(source)
    return confidence


def best_expressions(
    store: NodeStore, config: SynthesisConfig = DEFAULT_CONFIG
) -> Dict[int, Ranked]:
    """Cheapest concrete expression per node (nodes with none are absent)."""
    fold = Circuit(store, None, config.weights).ranking()
    result: Dict[int, Ranked] = {}
    for node in range(len(store.vals)):
        ranked = fold.node(node, store.depth_limit)
        if ranked is not None:
            result[node] = ranked
    return result


def best_expression(
    store: NodeStore, config: SynthesisConfig = DEFAULT_CONFIG
) -> Optional[Ranked]:
    """The top-ranked expression for the store's target node."""
    return Circuit(store, None, config.weights).best()


def enumerate_expressions(
    store: NodeStore,
    node: Optional[int] = None,
    limit: int = 1000,
) -> Iterator[Expression]:
    """Yield concrete Lt expressions for ``node`` (default target).

    Walks the same depth-bounded denotation as ``count_expressions``:
    when the total number of expressions is at most ``limit`` (at every
    node), the yielded list is exhaustive and its length equals the count.
    Sub-expression lists are memoized per (node, depth) and individually
    capped at ``limit``.
    """
    root = store.target if node is None else node
    if root is None:
        return
    memo: Dict[Tuple[int, int], List[Expression]] = {}

    def exprs_for(current: int, depth: int) -> List[Expression]:
        key = (current, depth)
        cached = memo.get(key)
        if cached is not None:
            return cached
        memo[key] = []  # break self-reference at equal depth defensively
        out: List[Expression] = []
        for entry in store.progs[current]:
            if len(out) >= limit:
                break
            if isinstance(entry, VarEntry):
                out.append(Var(entry.index))
                continue
            if depth <= 0:
                continue
            for predicates in entry.cond.keys:
                # Options carry their matcher provenance: the node option
                # of an approximately-bound predicate yields the same
                # Select (same provenance tag, same string key) as the
                # extractor's, so cross-source dedup works and enumerated
                # candidates report the right confidence.
                option_lists: List[List[Tuple[Expression, Optional[Tuple[str, float]]]]] = []
                feasible = True
                for predicate in predicates:
                    options: List[Tuple[Expression, Optional[Tuple[str, float]]]] = []
                    if predicate.constant is not None:
                        options.append((ConstStr(predicate.constant), None))
                    if predicate.node is not None:
                        approx = (
                            (predicate.node_strategy, predicate.node_confidence)
                            if predicate.node_confidence < 1.0
                            else None
                        )
                        options.extend(
                            (expr, approx)
                            for expr in exprs_for(predicate.node, depth - 1)
                        )
                    if not options:
                        feasible = False
                        break
                    option_lists.append(options)
                if not feasible:
                    continue
                columns = [p.column for p in predicates]
                for combo in _cartesian(option_lists):
                    provenance = [
                        (column, approx[0], approx[1])
                        for column, (_expr, approx) in zip(columns, combo)
                        if approx is not None
                    ]
                    out.append(
                        Select(
                            entry.column,
                            entry.table,
                            list(zip(columns, (expr for expr, _approx in combo))),
                            match_provenance=provenance or None,
                        )
                    )
                    if len(out) >= limit:
                        break
                if len(out) >= limit:
                    break
        memo[key] = out
        return out

    def _cartesian(option_lists: List[List[Expression]]) -> Iterator[tuple]:
        if not option_lists:
            yield ()
            return
        head, *tail = option_lists
        for option in head:
            for rest in _cartesian(tail):
                yield (option,) + rest

    yield from exprs_for(root, store.depth_limit)
