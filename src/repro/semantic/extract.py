"""Ranking, extraction and enumeration for Du (paper §5.4).

The §5.4 preferences extend §4.4's: prefer lookup expressions that index
with longer matched strings (fewer dag edges through the per-edge base
cost), fewer constant expressions (length-scaled constant costs), and
longer generated outputs.  Extraction is the tropical fold of
:mod:`repro.lookup.circuit` over node store and dags together; the mutual
recursion is budget-bounded exactly like counting, so it terminates on
self-referential structures.
"""

from __future__ import annotations

from itertools import product as cartesian_product
from typing import Dict, Iterator, List, Optional, Tuple

from repro.config import DEFAULT_CONFIG, SynthesisConfig
from repro.core.base import Expression
from repro.core.exprs import Var
from repro.lookup.ast import Select
from repro.lookup.circuit import Circuit
from repro.lookup.dstruct import VarEntry
from repro.semantic.dstruct import SemanticStructure
from repro.syntactic.ast import ConstStr, SubStr, assemble_concatenation
from repro.syntactic.dag import Atom, ConstAtom, Dag, RefAtom
from repro.syntactic.positions import enumerate_position_exprs


def structure_circuit(
    structure: SemanticStructure, config: SynthesisConfig = DEFAULT_CONFIG
) -> Circuit:
    """The circuit attached to ``structure`` for ``config``'s weights.

    Held on the structure, so the best program and the top-k programs of
    one structure share one ranking memo, which lives and dies with it.
    """
    circuit = structure.circuit
    if circuit is None or circuit.weights != config.weights:
        circuit = Circuit(structure.store, structure.dag, config.weights)
        structure.circuit = circuit
    return circuit


def best_program(
    structure: SemanticStructure, config: SynthesisConfig = DEFAULT_CONFIG
) -> Optional[Expression]:
    """The top-ranked Lu program, or ``None`` when the structure is empty."""
    ranked = structure_circuit(structure, config).best()
    if ranked is None:
        return None
    return ranked[1]


def top_k_programs(
    structure: SemanticStructure,
    k: int,
    config: SynthesisConfig = DEFAULT_CONFIG,
) -> List[Tuple[float, Expression]]:
    """The k cheapest distinct Lu programs, best first (§3.2's top-k view).

    See :meth:`repro.lookup.circuit.Circuit.top`.
    """
    return structure_circuit(structure, config).top(k)


def enumerate_programs(
    structure: SemanticStructure,
    limit: int = 1000,
    per_edge_limit: int = 8,
) -> Iterator[Expression]:
    """Yield concrete Lu programs (a bounded sample of the denotation).

    Used by soundness property tests: every yielded program must evaluate
    to the example output.  ``per_edge_limit`` caps the alternatives taken
    per dag edge / node so the cartesian products stay tractable.
    """
    store = structure.store
    node_memo: Dict[Tuple[int, int], List[Expression]] = {}

    def node_exprs(node: int, budget: int) -> List[Expression]:
        key = (node, budget)
        cached = node_memo.get(key)
        if cached is not None:
            return cached
        node_memo[key] = []
        out: List[Expression] = []
        for entry in store.progs[node]:
            if len(out) >= per_edge_limit:
                break
            if isinstance(entry, VarEntry):
                out.append(Var(entry.index))
                continue
            if budget <= 0:
                continue
            for predicates in entry.cond.keys:
                option_lists: List[List[Expression]] = []
                feasible = True
                for predicate in predicates:
                    if predicate.dag is not None:
                        options = dag_exprs(predicate.dag, budget - 1)
                    else:
                        options = []
                        if predicate.constant is not None:
                            options.append(ConstStr(predicate.constant))
                        if predicate.node is not None:
                            options.extend(node_exprs(predicate.node, budget - 1))
                    if not options:
                        feasible = False
                        break
                    option_lists.append(options[:per_edge_limit])
                if not feasible:
                    continue
                columns = [p.column for p in predicates]
                for combo in cartesian_product(*option_lists):
                    out.append(Select(entry.column, entry.table, list(zip(columns, combo))))
                    if len(out) >= per_edge_limit:
                        break
                if len(out) >= per_edge_limit:
                    break
        node_memo[key] = out
        return out

    def atom_exprs(atom: Atom, budget: int) -> List[Expression]:
        if isinstance(atom, ConstAtom):
            return [ConstStr(atom.text)]
        if isinstance(atom, RefAtom):
            return node_exprs(atom.source, budget)
        sources = node_exprs(atom.source, budget)
        out: List[Expression] = []
        for source in sources[:2]:
            for p1 in enumerate_position_exprs(atom.p1):
                for p2 in enumerate_position_exprs(atom.p2):
                    out.append(SubStr(source, p1, p2))
                    if len(out) >= per_edge_limit:
                        return out
        return out

    def dag_exprs(dag: Dag, budget: int) -> List[Expression]:
        out: List[Expression] = []
        for path in dag.enumerate_paths(limit=per_edge_limit):
            option_lists = []
            for edge in path:
                options: List[Expression] = []
                for atom in dag.edges[edge]:
                    options.extend(atom_exprs(atom, budget))
                    if len(options) >= per_edge_limit:
                        break
                option_lists.append(options[:per_edge_limit])
            for combo in cartesian_product(*option_lists):
                out.append(assemble_concatenation(list(combo)))
                if len(out) >= per_edge_limit * per_edge_limit:
                    return out
        return out

    produced = 0
    budget = store.depth_limit
    for path in structure.dag.enumerate_paths(limit=limit):
        option_lists = []
        for edge in path:
            options: List[Expression] = []
            for atom in structure.dag.edges[edge]:
                options.extend(atom_exprs(atom, budget))
                if len(options) >= per_edge_limit:
                    break
            option_lists.append(options[:per_edge_limit])
        for combo in cartesian_product(*option_lists):
            yield assemble_concatenation(list(combo))
            produced += 1
            if produced >= limit:
                return
