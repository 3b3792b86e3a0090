"""The version space as one shared circuit, and its memoized interpretations.

Every structure the three languages build is one circuit (paper §4.2,
§5.2): the node store of Lt, whose nodes are input variables or
generalized selects over shared row conditions; the dags nested in Lu's
select predicates; and the top dag of Lu or Ls, whose atoms draw on store
nodes (Lu) or on input variables (Ls).  Counting, ranking and sizing are
interpretations of that one circuit, in the manner of semiring
provenance over a shared circuit (ProvSQL).  :class:`Fold` walks it once
per interpretation, memoized by ``(node, budget)`` and ``(dag, budget)``:

* :class:`Counting` -- the natural-number semiring, the Figure 11(a)
  count; :class:`Saturating` caps it (``cap=2`` answers "is more than one
  program consistent?" without the bignum);
* :class:`Tropical` -- (min, +) with the ranking's deterministic
  tie-breaks: the best program of §4.4/§5.4;
* :meth:`Circuit.top` -- the k cheapest programs of the top dag, its node
  references priced by the same tropical memo;
* :meth:`Circuit.size` -- the Figure 11(b) terminal-symbol size.

The budget is the Select-nesting bound of the k-bounded denotation (see
:class:`~repro.lookup.dstruct.NodeStore`): a select spends one unit and a
dag none, so every fold terminates on self-referential stores.
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import DEFAULT_CONFIG, RankingWeights
from repro.core.base import Expression
from repro.core.exprs import Var
from repro.lookup.ast import Select, expression_tables
from repro.lookup.dstruct import GenPredicate, GenSelect, NodeStore, VarEntry
from repro.syntactic.ast import ConstStr, Position, SubStr, assemble_concatenation
from repro.syntactic.dag import ConstAtom, Dag, RefAtom
from repro.syntactic.positions import (
    PosSet,
    best_position_expr,
    count_position_exprs,
    enumerate_position_exprs,
    position_expr_cost,
    position_set_size,
)

Ranked = Tuple[float, Expression]


class Counting:
    """The natural-number semiring: how many concrete expressions."""

    zero = 0
    one = 1

    def var(self, index: int) -> int:
        return 1

    def plus(self, total: int, value: int) -> int:
        return total + value

    def predicate(self, predicate: GenPredicate, table: str, node: int) -> int:
        return node + (predicate.constant is not None)

    def dag_predicate(self, table: str, value: int) -> int:
        return value

    def select(
        self, entry: GenSelect, predicates: Sequence[GenPredicate], values: List[int]
    ) -> int:
        product = 1
        for value in values:
            product *= value
        return product

    def const_atom(self, text: str) -> int:
        return 1

    def ref_atom(self, source: int) -> int:
        return source

    def substr_atom(self, source: int, p1: PosSet, p2: PosSet) -> int:
        return source * count_position_exprs(p1) * count_position_exprs(p2)

    def extend(self, total: int, atom: int, tail: int) -> int:
        return total + atom * tail

    def concatenation(self, value: int) -> int:
        return value


class Saturating(Counting):
    """Counting that stops at ``cap``: ``min(count, cap)`` in small ints.

    ``x -> min(x, cap)`` is a semiring homomorphism, so capping every sum
    and product gives the capped exact count.
    """

    def __init__(self, cap: int) -> None:
        self.cap = cap

    def plus(self, total: int, value: int) -> int:
        return min(total + value, self.cap)

    def predicate(self, predicate: GenPredicate, table: str, node: int) -> int:
        return min(node + (predicate.constant is not None), self.cap)

    def select(
        self, entry: GenSelect, predicates: Sequence[GenPredicate], values: List[int]
    ) -> int:
        product = 1
        for value in values:
            product = min(product * value, self.cap)
        return product

    def substr_atom(self, source: int, p1: PosSet, p2: PosSet) -> int:
        cap = self.cap
        positions = min(count_position_exprs(p1), cap) * min(count_position_exprs(p2), cap)
        return min(source * positions, cap)

    def extend(self, total: int, atom: int, tail: int) -> int:
        return min(total + atom * tail, self.cap)


class Tropical:
    """(min, +) over the ranking weights: the cheapest concrete program.

    A value is ``(cost, expression)``, or ``None`` when nothing is
    realizable.  Alternatives of a node compare by cost and, on equal
    cost, by rendered program, so the choice is deterministic; the
    rendering happens only on a cost tie.  Dag paths compare by cost
    alone, the first cheapest in edge order winning, and are kept as
    linked ``(expression, rest)`` parts until the path is assembled.
    """

    zero = None
    one: Tuple[float, None] = (0.0, None)

    def __init__(self, weights: RankingWeights) -> None:
        self.weights = weights
        self._positions: Dict[int, Tuple[PosSet, Tuple[float, Position]]] = {}

    def position(self, entries: PosSet) -> Tuple[float, Position]:
        """:func:`best_position_expr`, once per interned position set."""
        hit = self._positions.get(id(entries))
        if hit is None:
            # The entry holds ``entries``, so no other set can take its id.
            best = best_position_expr(entries, self.weights)
            hit = self._positions[id(entries)] = (entries, best)
        return hit[1]

    def var(self, index: int) -> Ranked:
        return (self.weights.var_expr, Var(index))

    def plus(self, champion: Optional[Ranked], candidate: Ranked) -> Ranked:
        if champion is None or candidate[0] < champion[0]:
            return candidate
        if candidate[0] == champion[0] and str(candidate[1]) < str(champion[1]):
            return candidate
        return champion

    def predicate(self, predicate: GenPredicate, table: str, node: Optional[Ranked]):
        """Best right-hand side: ``(cost, expression, approx)`` or ``None``.

        ``approx`` is the ``(strategy, confidence)`` matcher provenance of
        an approximately-bound node; such nodes pay a surcharge, so exact
        programs always rank strictly first.
        """
        weights = self.weights
        champion = None
        if node is not None:
            cost = weights.node_predicate + node[0]
            if table in expression_tables(node[1]):
                cost += weights.self_join_penalty
            approx = None
            if predicate.node_confidence < 1.0:
                cost += weights.approx_predicate * (1.0 - predicate.node_confidence)
                approx = (predicate.node_strategy, predicate.node_confidence)
            champion = (cost, node[1], approx)
        if predicate.constant is not None and (
            champion is None or weights.const_predicate < champion[0]
        ):
            champion = (weights.const_predicate, ConstStr(predicate.constant), None)
        return champion

    def dag_predicate(self, table: str, value: Optional[Ranked]):
        if value is None:
            return None
        cost, expr = value
        if table in expression_tables(expr):
            cost += self.weights.self_join_penalty
        return (cost, expr, None)

    def select(self, entry: GenSelect, predicates: Sequence[GenPredicate], values: list) -> Ranked:
        total = self.weights.select_base
        pairs: List[Tuple[str, Expression]] = []
        provenance: List[Tuple[str, str, float]] = []
        for predicate, (cost, expr, approx) in zip(predicates, values):
            total += cost
            pairs.append((predicate.column, expr))
            if approx is not None:
                provenance.append((predicate.column, approx[0], approx[1]))
        return (
            total,
            Select(entry.column, entry.table, pairs, match_provenance=provenance or None),
        )

    def const_atom(self, text: str) -> Ranked:
        weights = self.weights
        return (weights.const_atom_base + weights.const_atom_per_char * len(text), ConstStr(text))

    def ref_atom(self, source: Ranked) -> Ranked:
        return (self.weights.ref_atom + source[0], source[1])

    def substr_atom(self, source: Ranked, p1: PosSet, p2: PosSet) -> Ranked:
        cost1, position1 = self.position(p1)
        cost2, position2 = self.position(p2)
        cost = self.weights.substr_atom + source[0] + cost1 + cost2
        return (cost, SubStr(source[1], position1, position2))

    def extend(self, champion, atom: Ranked, tail):
        cost = self.weights.edge_base + atom[0] + tail[0]
        if champion is None or cost < champion[0]:
            return (cost, (atom[1], tail[1]))
        return champion

    def concatenation(self, value) -> Optional[Ranked]:
        if value is None:
            return None
        return (value[0], assemble_concatenation(_unlink(value[1])))


def _unlink(link) -> List[Expression]:
    """The parts of a linked ``(expression, rest)`` path, in order."""
    parts = []
    while link is not None:
        parts.append(link[0])
        link = link[1]
    return parts


class Fold:
    """One interpretation of a circuit, memoized by (node or dag, budget)."""

    def __init__(self, circuit: "Circuit", algebra) -> None:
        self.algebra = algebra
        self._nodes: Dict[Tuple[int, int], object] = {}
        self._dags: Dict[Tuple[int, int], Tuple[Dag, object]] = {}
        if circuit.store is None:  # Ls: atoms draw on input variables
            self.progs = None
            self.source = lambda index, _budget: algebra.var(index)
        else:
            self.progs = circuit.store.progs
            self.source = self.node

    def node(self, node: int, budget: int):
        key = (node, budget)
        memo = self._nodes
        if key in memo:
            return memo[key]
        algebra = self.algebra
        total = algebra.zero
        for entry in self.progs[node]:
            if isinstance(entry, VarEntry):
                total = algebra.plus(total, algebra.var(entry.index))
                continue
            if budget <= 0:
                continue
            for predicates in entry.cond.keys:
                values = []
                for predicate in predicates:
                    value = self.predicate(predicate, entry.table, budget - 1)
                    if not value:
                        break
                    values.append(value)
                else:
                    total = algebra.plus(total, algebra.select(entry, predicates, values))
        memo[key] = total
        return total

    def predicate(self, predicate: GenPredicate, table: str, budget: int):
        if predicate.dag is not None:
            return self.algebra.dag_predicate(table, self.dag(predicate.dag, budget))
        if predicate.node is None:
            node = self.algebra.zero
        else:
            node = self.node(predicate.node, budget)
        return self.algebra.predicate(predicate, table, node)

    def atom(self, atom, budget: int):
        algebra = self.algebra
        if isinstance(atom, ConstAtom):
            return algebra.const_atom(atom.text)
        source = self.source(atom.source, budget)
        if not source:
            return algebra.zero
        if isinstance(atom, RefAtom):
            return algebra.ref_atom(source)
        return algebra.substr_atom(source, atom.p1, atom.p2)

    def dag(self, dag: Dag, budget: int):
        key = (id(dag), budget)
        hit = self._dags.get(key)
        if hit is not None:
            return hit[1]
        algebra = self.algebra
        if dag.is_trivial_empty:
            value = algebra.one
        else:
            zero = algebra.zero
            edges = dag.edges
            out = dag.out_neighbors()
            paths = {dag.target: algebra.one}
            for node in reversed(dag.topological_order()):
                if node == dag.target:
                    continue
                total = zero
                for successor in out[node]:
                    tail = paths[successor]
                    if not tail:
                        continue
                    for atom in edges.get((node, successor)) or ():
                        value = self.atom(atom, budget)
                        if value:
                            total = algebra.extend(total, value, tail)
                paths[node] = total
            value = paths[dag.source]
        value = algebra.concatenation(value)
        self._dags[key] = (dag, value)  # holding the dag keeps its id unique
        return value


class Circuit:
    """A version space as one circuit: a node store, a top dag, or both.

    Lu structures have both; Lt stores have no top dag (the root is the
    target node); Ls dags have no store (atom sources are input
    variables).  The tropical fold is kept, so the best program and the
    top-k programs of one structure share one ranking memo; counts and
    sizes are folded afresh on every call.
    """

    def __init__(
        self,
        store: Optional[NodeStore],
        dag: Optional[Dag],
        weights: RankingWeights = DEFAULT_CONFIG.weights,
    ) -> None:
        self.store = store
        self.dag = dag
        self.weights = weights
        self.budget = store.depth_limit if store is not None else 0
        self._ranking: Optional[Fold] = None

    def root(self, fold: Fold):
        """The value of the whole circuit under ``fold``."""
        if self.dag is not None:
            return fold.dag(self.dag, self.budget)
        if self.store.target is None:
            return fold.algebra.zero
        return fold.node(self.store.target, self.budget)

    def count(self, cap: Optional[int] = None) -> int:
        """The number of consistent expressions, saturating at ``cap``."""
        return self.root(Fold(self, Counting() if cap is None else Saturating(cap)))

    def ranking(self) -> Fold:
        """The circuit's tropical fold, built once and shared."""
        if self._ranking is None:
            self._ranking = Fold(self, Tropical(self.weights))
        return self._ranking

    def best(self) -> Optional[Ranked]:
        """The cheapest consistent program with its cost, or ``None``."""
        return self.root(self.ranking())

    def top(self, k: int) -> List[Ranked]:
        """The k cheapest distinct programs of the top dag, best first.

        Diversity comes from the top dag: alternative path decompositions
        and alternative atoms per edge, each expanded with up to k
        position choices in enumeration order; node references use their
        single best expression (deeper alternatives explode
        combinatorially without changing behaviour on the examples).
        Every dag node keeps its ``2k`` cheapest suffixes, sorted stably
        by cost; results are deduplicated by rendered program.
        """
        if k <= 0:
            return []
        dag = self.dag
        if dag.is_trivial_empty:
            return [(0.0, ConstStr(""))]
        fold = self.ranking()
        tropical = fold.algebra
        weights = self.weights
        budget = self.budget
        positions: Dict[int, List[Tuple[float, Position]]] = {}

        def ranked_positions(entries: PosSet) -> List[Tuple[float, Position]]:
            hit = positions.get(id(entries))
            if hit is None:
                hit = positions[id(entries)] = [
                    (position_expr_cost(position, weights), position)
                    for position in islice(enumerate_position_exprs(entries), k)
                ]
            return hit

        def atom_options(atom) -> List[Ranked]:
            if isinstance(atom, ConstAtom):
                return [tropical.const_atom(atom.text)]
            source = fold.source(atom.source, budget)
            if source is None:
                return []
            if isinstance(atom, RefAtom):
                return [tropical.ref_atom(source)]
            options: List[Ranked] = []
            base = weights.substr_atom + source[0]
            for cost1, position1 in ranked_positions(atom.p1):
                for cost2, position2 in ranked_positions(atom.p2):
                    options.append((base + cost1 + cost2, SubStr(source[1], position1, position2)))
                    if len(options) >= k:
                        return options
            return options

        by_cost = itemgetter(0)
        suffixes = {dag.target: [(0.0, None)]}
        out = dag.out_neighbors()
        for node in reversed(dag.topological_order()):
            if node == dag.target:
                continue
            candidates = []
            for successor in out[node]:
                tails = suffixes.get(successor)
                options = dag.edges.get((node, successor))
                if not tails or not options:
                    continue
                choices: List[Ranked] = []
                for atom in options:
                    choices.extend(atom_options(atom))
                choices.sort(key=by_cost)
                for cost, expr in choices[: k * 2]:
                    for tail_cost, tail in tails:
                        candidates.append((weights.edge_base + cost + tail_cost, (expr, tail)))
            candidates.sort(key=by_cost)
            if candidates:
                suffixes[node] = candidates[: k * 2]

        results: List[Ranked] = []
        seen = set()
        for cost, link in suffixes.get(dag.source, []):
            program = assemble_concatenation(_unlink(link))
            rendered = str(program)
            if rendered not in seen:
                seen.add(rendered)
                results.append((cost, program))
                if len(results) >= k:
                    break
        return results

    def size(self, roots=None) -> int:
        """Figure 11(b): terminal symbols, shared components once.

        Rows' conditions and predicate dags are shared, so each counts
        once.  ``roots`` restricts the store to the nodes reachable from
        them (default: every node, the structure as built).
        """
        positions: Dict[int, int] = {}

        def position_size(entries: PosSet) -> int:
            size = positions.get(id(entries))
            if size is None:
                size = positions[id(entries)] = position_set_size(entries)
            return size

        def dag_size(dag: Dag) -> int:
            size = 0
            for options in dag.edges.values():
                for atom in options:
                    size += 1
                    if not isinstance(atom, (ConstAtom, RefAtom)):
                        size += position_size(atom.p1) + position_size(atom.p2)
            return size

        size = 0
        store = self.store
        if store is not None:
            alive = range(len(store.vals)) if roots is None else store.reachable_from(roots)
            conditions = set()
            dags = set()
            for node in alive:
                for entry in store.progs[node]:
                    if isinstance(entry, VarEntry):
                        size += 1
                        continue
                    size += 2  # the column and table symbols of the Select
                    if id(entry.cond) in conditions:
                        continue
                    conditions.add(id(entry.cond))
                    for predicates in entry.cond.keys:
                        for predicate in predicates:
                            size += 1  # the key-column symbol
                            if predicate.dag is not None:
                                if id(predicate.dag) not in dags:
                                    dags.add(id(predicate.dag))
                                    size += dag_size(predicate.dag)
                                continue
                            size += (predicate.constant is not None) + (predicate.node is not None)
        if self.dag is not None:
            size += dag_size(self.dag)
        return size
