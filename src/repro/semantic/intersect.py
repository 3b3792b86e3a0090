"""Intersect_u (paper §5.3): Intersect_t ∪ Intersect_s + the four new rules.

The four extra rules of the paper map onto this implementation as:

* ``Intersect_u(ẽ_t, ẽ_t')`` -- node-pair intersection (worklist below),
* ``Intersect_u(C = ẽ_s, C = ẽ_s')`` -- predicate dags intersect via the
  dag product of :func:`repro.syntactic.intersect.intersect_dags`,
* ``Intersect_u(SubStr(...), SubStr(...))`` -- handled inside the dag atom
  intersection (sources merge into node pairs, position sets intersect),
* ``Intersect_u(Dag(...), Dag(...))`` -- the top-level dag product.

Node pairs are allocated lazily from a worklist (dag atom intersection
requests them through ``merge_source``); their Progs intersections may be
empty, and predicate dags may lose all their paths once empty nodes are
known, so a global least-fixpoint pass computes node validity and the
structure is rewritten (pruned dags, dropped keys/entries) afterwards.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.config import DEFAULT_CONFIG, SynthesisConfig
from repro.lookup.dstruct import (
    GenPredicate,
    GenSelect,
    NodeStore,
    RowCondition,
    VarEntry,
    emptiness_fixpoint,
)
from repro.semantic.dstruct import SemanticStructure
from repro.syntactic.dag import Atom, ConstAtom, Dag, RefAtom, SubStrAtom
from repro.syntactic.intersect import intersect_dags


def intersect_semantic(
    first: SemanticStructure,
    second: SemanticStructure,
    config: SynthesisConfig = DEFAULT_CONFIG,
) -> Optional[SemanticStructure]:
    """The paper's Intersect_u; ``None`` when no common program exists."""
    result = NodeStore(
        depth_limit=min(first.store.depth_limit, second.store.depth_limit)
    )
    pair_ids: Dict[Tuple[int, int], int] = {}
    worklist: List[Tuple[int, int]] = []
    dag_memo: Dict[Tuple[int, int], Optional[Dag]] = {}
    cond_memo: Dict[Tuple[int, int], Optional[RowCondition]] = {}

    def merge_source(a: int, b: int) -> Optional[int]:
        """Allocate (lazily) the product node for sources (a, b)."""
        pair = (a, b)
        node = pair_ids.get(pair)
        if node is None:
            node = result.new_node(None)
            pair_ids[pair] = node
            worklist.append(pair)
        return node

    def intersect_predicate_dags(d1: Dag, d2: Dag) -> Optional[Dag]:
        key = (id(d1), id(d2))
        if key in dag_memo:
            return dag_memo[key]
        merged = intersect_dags(
            d1,
            d2,
            merge_source,
            lazy=config.use_lazy_intersection,
            use_cache=config.use_intersection_cache,
        )
        dag_memo[key] = merged
        return merged

    def intersect_conditions(
        cond1: RowCondition, cond2: RowCondition
    ) -> Optional[RowCondition]:
        key = (id(cond1), id(cond2))
        if key in cond_memo:
            return cond_memo[key]
        merged_keys: List[List[GenPredicate]] = []
        for predicates1, predicates2 in zip(cond1.keys, cond2.keys):
            if len(predicates1) != len(predicates2):
                continue
            merged: List[GenPredicate] = []
            ok = True
            for p1, p2 in zip(predicates1, predicates2):
                if p1.column != p2.column or p1.dag is None or p2.dag is None:
                    ok = False
                    break
                dag = intersect_predicate_dags(p1.dag, p2.dag)
                if dag is None:
                    ok = False
                    break
                merged.append(GenPredicate(p1.column, dag=dag))
            if ok and merged:
                merged_keys.append(merged)
        outcome = RowCondition(cond1.table, -1, merged_keys) if merged_keys else None
        cond_memo[key] = outcome
        return outcome

    # Top-level dag product seeds the worklist with the node pairs its
    # surviving atoms reference.
    top_dag = intersect_dags(
        first.dag,
        second.dag,
        merge_source,
        lazy=config.use_lazy_intersection,
        use_cache=config.use_intersection_cache,
    )
    if top_dag is None:
        return None

    # Drain the worklist: compute Progs for every requested node pair.
    while worklist:
        n1, n2 = worklist.pop()
        node = pair_ids[(n1, n2)]
        entries: List = []
        selects2 = [e for e in second.store.progs[n2] if isinstance(e, GenSelect)]
        vars2 = {e.index for e in second.store.progs[n2] if isinstance(e, VarEntry)}
        for entry in first.store.progs[n1]:
            if isinstance(entry, VarEntry):
                if entry.index in vars2:
                    entries.append(entry)
                continue
            for other in selects2:
                if entry.table != other.table or entry.column != other.column:
                    continue
                cond = intersect_conditions(entry.cond, other.cond)
                if cond is not None:
                    entries.append(GenSelect(entry.column, entry.table, cond))
        result.progs[node] = entries

    structure = SemanticStructure(store=result, dag=top_dag)
    return prune_semantic(structure, config)


# ----------------------------------------------------------------------
# Emptiness pruning.
# ----------------------------------------------------------------------

def _atom_valid(atom: Atom, valid: Set[int]) -> bool:
    if isinstance(atom, ConstAtom):
        return True
    return atom.source in valid


def _dag_has_valid_path(dag: Dag, valid: Set[int]) -> bool:
    """Any source→target path whose every edge has a valid atom?"""
    if dag.is_trivial_empty:
        return True
    out = dag.out_neighbors()
    seen = {dag.source}
    stack = [dag.source]
    while stack:
        node = stack.pop()
        if node == dag.target:
            return True
        for successor in out[node]:
            if successor in seen:
                continue
            options = dag.edges.get((node, successor))
            if not options:
                continue
            if any(_atom_valid(atom, valid) for atom in options):
                seen.add(successor)
                stack.append(successor)
    return False


def _select_valid(entry: GenSelect, valid: Set[int]) -> bool:
    for predicates in entry.cond.keys:
        if all(
            predicate.dag is not None and _dag_has_valid_path(predicate.dag, valid)
            for predicate in predicates
        ):
            return True
    return False


def valid_nodes_fixpoint(store: NodeStore, use_worklist: bool = True) -> Set[int]:
    """Least fixpoint of "node denotes at least one concrete expression".

    The default is the counter-driven propagation of
    :func:`~repro.lookup.dstruct.emptiness_fixpoint`, which walks each
    predicate dag at most once; ``use_worklist=False`` runs the original
    repeated full-node sweeps (the equivalence oracle).
    """
    if not use_worklist:
        return valid_nodes_fixpoint_naive(store)
    return emptiness_fixpoint(store)


def valid_nodes_fixpoint_naive(store: NodeStore) -> Set[int]:
    """The original full-sweep fixpoint (kept as the worklist's oracle)."""
    valid: Set[int] = set()
    changed = True
    while changed:
        changed = False
        for node in range(len(store.vals)):
            if node in valid:
                continue
            for entry in store.progs[node]:
                if isinstance(entry, VarEntry) or _select_valid(entry, valid):
                    valid.add(node)
                    changed = True
                    break
    return valid


def prune_semantic(
    structure: SemanticStructure, config: SynthesisConfig = DEFAULT_CONFIG
) -> Optional[SemanticStructure]:
    """Rewrite Du dropping everything empty; ``None`` if no program remains."""
    store = structure.store
    valid = valid_nodes_fixpoint(store, use_worklist=config.use_worklist_pruning)

    def atom_alive(atom: Atom) -> bool:
        return _atom_valid(atom, valid)

    pruned_dag_memo: Dict[int, Optional[Dag]] = {}

    def prune_dag(dag: Dag) -> Optional[Dag]:
        key = id(dag)
        if key in pruned_dag_memo:
            return pruned_dag_memo[key]
        pruned = dag.pruned(atom_alive)
        pruned_dag_memo[key] = pruned
        return pruned

    for node in range(len(store.vals)):
        if node not in valid:
            store.progs[node] = []
            continue
        kept_entries: List = []
        for entry in store.progs[node]:
            if isinstance(entry, VarEntry):
                kept_entries.append(entry)
                continue
            kept_keys: List[List[GenPredicate]] = []
            for predicates in entry.cond.keys:
                new_predicates: List[GenPredicate] = []
                ok = True
                for predicate in predicates:
                    pruned = (
                        prune_dag(predicate.dag) if predicate.dag is not None else None
                    )
                    if pruned is None:
                        ok = False
                        break
                    new_predicates.append(GenPredicate(predicate.column, dag=pruned))
                if ok and new_predicates:
                    kept_keys.append(new_predicates)
            if kept_keys:
                entry.cond = RowCondition(entry.cond.table, entry.cond.row, kept_keys)
                kept_entries.append(entry)
        store.progs[node] = kept_entries

    top = structure.dag.pruned(atom_alive)
    if top is None:
        return None

    # Garbage-collect nodes unreachable from the surviving top dag: the
    # eager product allocates nodes for edges that never make it onto a
    # start→accept path (the lazy product skips them up front), and the
    # validity rewrite can strand valid nodes whose only referents were
    # dropped.  Emptying them makes the structure identical under both
    # product strategies.
    roots = {
        atom.source
        for options in top.edges.values()
        for atom in options
        if not isinstance(atom, ConstAtom)
    }
    store.restrict_to(roots)
    return SemanticStructure(store=store, dag=top)
