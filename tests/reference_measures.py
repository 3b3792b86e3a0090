"""Reference oracles for the version-space measures and extraction.

These are the original, separate walks of the version space -- one per
measure and language -- that :class:`repro.lookup.circuit.Circuit`
replaced with a single memoized evaluator.  They are kept here, outside
the package, only as equivalence oracles: the evaluator must agree with
them byte for byte on ranked programs, scores, counts and sizes.  They
are deliberately unmemoized across calls and unoptimized.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.config import DEFAULT_CONFIG, SynthesisConfig
from repro.core.base import Expression
from repro.core.exprs import Var
from repro.lookup.ast import Select
from repro.lookup.dstruct import GenPredicate, GenSelect, NodeStore, VarEntry
from repro.lookup.extract import expression_tables
from repro.semantic.dstruct import SemanticStructure
from repro.syntactic.ast import ConstStr, SubStr
from repro.syntactic.dag import Atom, ConstAtom, Dag, RefAtom
from repro.syntactic.language import assemble_concatenation
from repro.syntactic.positions import (
    best_position_expr,
    count_position_exprs,
    enumerate_position_exprs,
    position_expr_cost,
    position_set_size,
)

Ranked = Tuple[float, Expression]


# -- dag traversals ------------------------------------------------------------
def count_paths(dag: Dag, atom_count: Callable[[Atom], int]) -> int:
    """Number of concrete expressions a dag represents."""
    if dag.is_trivial_empty:
        return 1
    ways: Dict[int, int] = {node: 0 for node in dag.nodes}
    ways[dag.target] = 1
    out = dag.out_neighbors()
    for node in reversed(dag.topological_order()):
        if node == dag.target:
            continue
        total = 0
        for successor in out[node]:
            options = dag.edges.get((node, successor))
            if not options:
                continue
            edge_total = sum(atom_count(atom) for atom in options)
            total += edge_total * ways[successor]
        ways[node] = total
    return ways[dag.source]


def dag_structure_size(dag: Dag, atom_size: Callable[[Atom], int]) -> int:
    """Terminal-symbol size of a dag."""
    return sum(atom_size(atom) for options in dag.edges.values() for atom in options)


def best_path(
    dag: Dag,
    atom_best: Callable[[Atom], Optional[Tuple[float, object]]],
    edge_base: float,
) -> Optional[Tuple[float, List[object]]]:
    """Cheapest source->target path: (total cost, atomic expressions)."""
    if dag.is_trivial_empty:
        return (0.0, [])
    best: Dict[int, Tuple[float, List[object]]] = {dag.target: (0.0, [])}
    out = dag.out_neighbors()
    for node in reversed(dag.topological_order()):
        if node == dag.target:
            continue
        champion: Optional[Tuple[float, List[object]]] = None
        for successor in out[node]:
            tail = best.get(successor)
            if tail is None:
                continue
            options = dag.edges.get((node, successor))
            if not options:
                continue
            for atom in options:
                resolved = atom_best(atom)
                if resolved is None:
                    continue
                cost = edge_base + resolved[0] + tail[0]
                if champion is None or cost < champion[0]:
                    champion = (cost, [resolved[1]] + tail[1])
        if champion is not None:
            best[node] = champion
    return best.get(dag.source)


# -- Ls --------------------------------------------------------------------------
def _ls_atom_count(atom: Atom) -> int:
    if isinstance(atom, (ConstAtom, RefAtom)):
        return 1
    return count_position_exprs(atom.p1) * count_position_exprs(atom.p2)


def ls_atom_size(atom: Atom) -> int:
    if isinstance(atom, (ConstAtom, RefAtom)):
        return 1
    return 1 + position_set_size(atom.p1) + position_set_size(atom.p2)


def ls_count(dag: Dag) -> int:
    return count_paths(dag, _ls_atom_count)


def ls_size(dag: Dag) -> int:
    return dag_structure_size(dag, ls_atom_size)


def ls_best(dag: Dag, config: SynthesisConfig = DEFAULT_CONFIG) -> Optional[Expression]:
    weights = config.weights

    def atom_best(atom: Atom) -> Ranked:
        if isinstance(atom, ConstAtom):
            cost = weights.const_atom_base + weights.const_atom_per_char * len(atom.text)
            return (cost, ConstStr(atom.text))
        if isinstance(atom, RefAtom):
            return (weights.ref_atom + weights.var_expr, Var(atom.source))
        cost1, p1 = best_position_expr(atom.p1, weights)
        cost2, p2 = best_position_expr(atom.p2, weights)
        cost = weights.substr_atom + weights.var_expr + cost1 + cost2
        return (cost, SubStr(Var(atom.source), p1, p2))

    result = best_path(dag, atom_best, weights.edge_base)
    if result is None:
        return None
    return assemble_concatenation(result[1])


# -- Lt ------------------------------------------------------------------------
DagExtractor = Callable[[object, Callable[[int], Optional[Ranked]]], Optional[Ranked]]
DagCounter = Callable[[object, Callable[[int], int]], int]


class Extractor:
    """Budget-bounded best-expression DP over a node store."""

    def __init__(
        self,
        store: NodeStore,
        config: SynthesisConfig = DEFAULT_CONFIG,
        dag_extractor: Optional[DagExtractor] = None,
    ) -> None:
        self.store = store
        self.config = config
        self.dag_extractor = dag_extractor
        self._memo: Dict[Tuple[int, int], Optional[Ranked]] = {}

    def best_node(self, node: int, budget: Optional[int] = None) -> Optional[Ranked]:
        if budget is None:
            budget = self.store.depth_limit
        key = (node, budget)
        if key in self._memo:
            return self._memo[key]
        self._memo[key] = None
        champion: Optional[Ranked] = None
        weights = self.config.weights
        for entry in self.store.progs[node]:
            if isinstance(entry, VarEntry):
                candidate: Optional[Ranked] = (weights.var_expr, Var(entry.index))
            elif budget > 0:
                candidate = self._rank_select(entry, budget)
            else:
                candidate = None
            if candidate is None:
                continue
            if champion is None or (candidate[0], str(candidate[1])) < (
                champion[0],
                str(champion[1]),
            ):
                champion = candidate
        self._memo[key] = champion
        return champion

    def _rank_select(self, entry: GenSelect, budget: int) -> Optional[Ranked]:
        weights = self.config.weights
        champion: Optional[Ranked] = None
        for predicates in entry.cond.keys:
            total = weights.select_base
            pairs: List[Tuple[str, Expression]] = []
            provenance: List[Tuple[str, str, float]] = []
            feasible = True
            for predicate in predicates:
                choice = self._rank_predicate(predicate, entry.table, budget)
                if choice is None:
                    feasible = False
                    break
                cost, expr, approx = choice
                total += cost
                pairs.append((predicate.column, expr))
                if approx is not None:
                    provenance.append((predicate.column, approx[0], approx[1]))
            if not feasible:
                continue
            candidate = (
                total,
                Select(entry.column, entry.table, pairs, match_provenance=provenance or None),
            )
            if champion is None or (candidate[0], str(candidate[1])) < (
                champion[0],
                str(champion[1]),
            ):
                champion = candidate
        return champion

    def _rank_predicate(self, predicate: GenPredicate, parent_table: str, budget: int):
        weights = self.config.weights
        champion = None
        if predicate.dag is not None:
            if self.dag_extractor is None:
                raise ValueError("dag-valued predicate needs a dag_extractor")
            ranked = self.dag_extractor(
                predicate.dag, lambda node: self.best_node(node, budget - 1)
            )
            if ranked is None:
                return None
            cost, expr = ranked
            if parent_table in expression_tables(expr):
                cost += weights.self_join_penalty
            return (cost, expr, None)
        if predicate.node is not None:
            ranked = self.best_node(predicate.node, budget - 1)
            if ranked is not None:
                cost = weights.node_predicate + ranked[0]
                if parent_table in expression_tables(ranked[1]):
                    cost += weights.self_join_penalty
                approx = None
                if predicate.node_confidence < 1.0:
                    cost += weights.approx_predicate * (1.0 - predicate.node_confidence)
                    approx = (predicate.node_strategy, predicate.node_confidence)
                champion = (cost, ranked[1], approx)
        if predicate.constant is not None:
            if champion is None or weights.const_predicate < champion[0]:
                champion = (weights.const_predicate, ConstStr(predicate.constant), None)
        return champion


def lt_best(store: NodeStore, config: SynthesisConfig = DEFAULT_CONFIG) -> Optional[Ranked]:
    if store.target is None:
        return None
    return Extractor(store, config).best_node(store.target)


def lt_best_all(store: NodeStore, config: SynthesisConfig = DEFAULT_CONFIG) -> Dict[int, Ranked]:
    extractor = Extractor(store, config)
    result: Dict[int, Ranked] = {}
    for node in range(len(store.vals)):
        ranked = extractor.best_node(node)
        if ranked is not None:
            result[node] = ranked
    return result


def lt_count(
    store: NodeStore, node: Optional[int] = None, dag_counter: Optional[DagCounter] = None
) -> int:
    root = store.target if node is None else node
    if root is None:
        return 0
    memo: Dict[Tuple[int, int], int] = {}

    def count_node(current: int, budget: int) -> int:
        key = (current, budget)
        cached = memo.get(key)
        if cached is not None:
            return cached
        total = 0
        for entry in store.progs[current]:
            if isinstance(entry, VarEntry):
                total += 1
                continue
            if budget <= 0:
                continue
            for predicates in entry.cond.keys:
                key_total = 1
                for predicate in predicates:
                    options = 0
                    if predicate.dag is not None:
                        if dag_counter is None:
                            raise ValueError("dag-valued predicate needs a dag_counter")
                        options += dag_counter(
                            predicate.dag,
                            lambda referenced: count_node(referenced, budget - 1),
                        )
                    else:
                        if predicate.constant is not None:
                            options += 1
                        if predicate.node is not None:
                            options += count_node(predicate.node, budget - 1)
                    key_total *= options
                    if key_total == 0:
                        break
                total += key_total
        memo[key] = total
        return total

    return count_node(root, store.depth_limit)


def lt_size(store: NodeStore, dag_sizer=None, roots=None) -> int:
    if roots is None:
        alive: Set[int] = set(range(len(store.vals)))
    else:
        alive = store.reachable_from(roots)
    size = 0
    seen_conditions: Set[int] = set()
    seen_dags: Set[int] = set()
    for node in alive:
        for entry in store.progs[node]:
            if isinstance(entry, VarEntry):
                size += 1
                continue
            size += 2
            condition_id = id(entry.cond)
            if condition_id in seen_conditions:
                continue
            seen_conditions.add(condition_id)
            for predicates in entry.cond.keys:
                for predicate in predicates:
                    size += 1
                    if predicate.dag is not None:
                        dag_id = id(predicate.dag)
                        if dag_id not in seen_dags:
                            seen_dags.add(dag_id)
                            if dag_sizer is None:
                                raise ValueError("dag-valued predicate needs a dag_sizer")
                            size += dag_sizer(predicate.dag)
                        continue
                    if predicate.constant is not None:
                        size += 1
                    if predicate.node is not None:
                        size += 1
    return size


# -- Lu ------------------------------------------------------------------------
class SemanticExtractor:
    """Best-program extraction for Du."""

    def __init__(self, structure: SemanticStructure, config: SynthesisConfig = DEFAULT_CONFIG):
        self.structure = structure
        self.weights = config.weights
        self.node_extractor = Extractor(structure.store, config, dag_extractor=self._extract_dag)

    def _atom_best(self, atom: Atom, node_best) -> Optional[Ranked]:
        weights = self.weights
        if isinstance(atom, ConstAtom):
            cost = weights.const_atom_base + weights.const_atom_per_char * len(atom.text)
            return (cost, ConstStr(atom.text))
        ranked = node_best(atom.source)
        if ranked is None:
            return None
        if isinstance(atom, RefAtom):
            return (weights.ref_atom + ranked[0], ranked[1])
        cost1, p1 = best_position_expr(atom.p1, weights)
        cost2, p2 = best_position_expr(atom.p2, weights)
        cost = weights.substr_atom + ranked[0] + cost1 + cost2
        return (cost, SubStr(ranked[1], p1, p2))

    def _extract_dag(self, dag: Dag, node_best) -> Optional[Ranked]:
        result = best_path(
            dag, lambda atom: self._atom_best(atom, node_best), self.weights.edge_base
        )
        if result is None:
            return None
        cost, parts = result
        return (cost, assemble_concatenation(parts))

    def best_program(self) -> Optional[Ranked]:
        budget = self.structure.store.depth_limit
        return self._extract_dag(
            self.structure.dag, lambda node: self.node_extractor.best_node(node, budget)
        )


def lu_best(structure: SemanticStructure, config: SynthesisConfig = DEFAULT_CONFIG):
    ranked = SemanticExtractor(structure, config).best_program()
    return None if ranked is None else ranked[1]


def lu_top(
    structure: SemanticStructure, k: int, config: SynthesisConfig = DEFAULT_CONFIG
) -> List[Ranked]:
    if k <= 0:
        return []
    extractor = SemanticExtractor(structure, config)
    weights = config.weights
    budget = structure.store.depth_limit

    def node_best(node):
        return extractor.node_extractor.best_node(node, budget)

    def atom_options(atom: Atom) -> List[Ranked]:
        if isinstance(atom, ConstAtom):
            cost = weights.const_atom_base + weights.const_atom_per_char * len(atom.text)
            return [(cost, ConstStr(atom.text))]
        ranked = node_best(atom.source)
        if ranked is None:
            return []
        if isinstance(atom, RefAtom):
            return [(weights.ref_atom + ranked[0], ranked[1])]
        options: List[Ranked] = []
        base = weights.substr_atom + ranked[0]
        for p1 in enumerate_position_exprs(atom.p1):
            for p2 in enumerate_position_exprs(atom.p2):
                cost = base + position_expr_cost(p1, weights) + position_expr_cost(p2, weights)
                options.append((cost, SubStr(ranked[1], p1, p2)))
                if len(options) >= k:
                    return options
        return options

    dag = structure.dag
    if dag.is_trivial_empty:
        return [(0.0, ConstStr(""))]
    suffixes: Dict[int, List[Tuple[float, Tuple[Expression, ...]]]] = {dag.target: [(0.0, ())]}
    for node in reversed(dag.topological_order()):
        if node == dag.target:
            continue
        candidates: List[Tuple[float, Tuple[Expression, ...]]] = []
        for successor in dag.out_neighbors()[node]:
            tails = suffixes.get(successor)
            if not tails:
                continue
            options = dag.edges.get((node, successor))
            if not options:
                continue
            edge_choices: List[Ranked] = []
            for atom in options:
                edge_choices.extend(atom_options(atom))
            edge_choices.sort(key=lambda pair: pair[0])
            for cost, expr in edge_choices[: k * 2]:
                for tail_cost, tail in tails:
                    candidates.append((weights.edge_base + cost + tail_cost, (expr,) + tail))
        candidates.sort(key=lambda pair: pair[0])
        if candidates:
            suffixes[node] = candidates[: k * 2]
    results: List[Ranked] = []
    seen: set = set()
    for cost, parts in suffixes.get(dag.source, []):
        program = assemble_concatenation(list(parts))
        key = str(program)
        if key in seen:
            continue
        seen.add(key)
        results.append((cost, program))
        if len(results) >= k:
            break
    return results


def lu_count(structure: SemanticStructure) -> int:
    store = structure.store
    memo: Dict[Tuple[int, int], int] = {}

    def count_node(node: int, budget: int) -> int:
        key = (node, budget)
        cached = memo.get(key)
        if cached is not None:
            return cached
        memo[key] = 0
        total = 0
        for entry in store.progs[node]:
            if isinstance(entry, VarEntry):
                total += 1
                continue
            if budget <= 0:
                continue
            for predicates in entry.cond.keys:
                key_total = 1
                for predicate in predicates:
                    if predicate.dag is None:
                        options = (1 if predicate.constant is not None else 0) + (
                            count_node(predicate.node, budget - 1)
                            if predicate.node is not None
                            else 0
                        )
                    else:
                        options = count_dag(predicate.dag, budget - 1)
                    key_total *= options
                    if key_total == 0:
                        break
                total += key_total
        memo[key] = total
        return total

    def count_dag(dag: Dag, budget: int) -> int:
        return count_paths(dag, lambda atom: count_atom(atom, budget))

    def count_atom(atom: Atom, budget: int) -> int:
        if isinstance(atom, ConstAtom):
            return 1
        if isinstance(atom, RefAtom):
            return count_node(atom.source, budget)
        return (
            count_node(atom.source, budget)
            * count_position_exprs(atom.p1)
            * count_position_exprs(atom.p2)
        )

    return count_dag(structure.dag, store.depth_limit)


def lu_dag_size(dag: Dag) -> int:
    return dag_structure_size(dag, ls_atom_size)


def lu_size(structure: SemanticStructure) -> int:
    return lt_size(structure.store, dag_sizer=lu_dag_size) + lu_dag_size(structure.dag)


# -- per-backend dispatch --------------------------------------------------------
def reference_count(language: str, structure) -> int:
    """The exact Figure 11(a) count, by the backend's canonical name."""
    if language == "semantic":
        return lu_count(structure)
    if language == "lookup":
        return lt_count(structure)
    return ls_count(structure)


def reference_size(language: str, structure) -> int:
    """The Figure 11(b) structure size, by the backend's canonical name."""
    if language == "semantic":
        return lu_size(structure)
    if language == "lookup":
        return lt_size(structure)
    return ls_size(structure)


def reference_best(language: str, structure, config: SynthesisConfig = DEFAULT_CONFIG):
    """The best program, by the backend's canonical name."""
    if language == "semantic":
        return lu_best(structure, config)
    if language == "lookup":
        ranked = lt_best(structure, config)
        return None if ranked is None else ranked[1]
    return ls_best(structure, config)
