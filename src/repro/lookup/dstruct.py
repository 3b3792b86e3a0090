"""The data structure Dt for sets of Lt expressions (paper §4.2, Figure 3).

A :class:`NodeStore` is the tuple (η̃, η_t, Progs): nodes are dense integer
ids; ``vals[η]`` is the string the node evaluates to on this example (pairs
of originals after intersection carry ``None``); ``progs[η]`` is the set of
generalized expressions for the node:

* :class:`VarEntry` -- the input variable ``v_i``,
* :class:`GenSelect` -- ``Select(C, T, B)`` whose generalized condition B
  is a shared per-row :class:`RowCondition`: one conjunction of
  :class:`GenPredicate` per candidate key of the table.

A generalized predicate holds up to two alternatives for its right-hand
side, exactly as in the paper (``C = {s, η}``): a constant string and/or a
node reference.  The semantic language replaces both with a :class:`Dag`
of syntactic expressions (§5.2); the same classes carry that variant so
Intersect/measure code is shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.syntactic.dag import ConstAtom, Dag


@dataclass(frozen=True)
class VarEntry:
    """Progs entry for the input variable ``v_index``."""

    index: int

    def __str__(self) -> str:
        return f"v{self.index + 1}"


@dataclass
class GenPredicate:
    """Generalized predicate for one candidate-key column.

    Lt shape: ``column = {constant, node}`` (either may be absent).
    Lu shape: ``column = dag`` (a Dag of syntactic expressions over nodes).
    """

    column: str
    constant: Optional[str] = None
    node: Optional[int] = None
    dag: Optional[Dag] = None
    #: How the node binding was resolved (``repro.matching`` provenance).
    #: Exact bindings -- the only kind under the default matcher spec --
    #: carry ``("exact", 1.0)``; an approximate matcher stamps its strategy
    #: name and confidence so ranking can penalize and results can report.
    node_strategy: str = "exact"
    node_confidence: float = 1.0

    def is_satisfiable(self) -> bool:
        """Syntactically non-empty (ignoring node emptiness, checked later)."""
        return self.constant is not None or self.node is not None or self.dag is not None

    def __str__(self) -> str:
        if self.dag is not None:
            return f"{self.column} = <dag:{len(self.dag.edges)} edges>"
        options = []
        if self.constant is not None:
            options.append(repr(self.constant))
        if self.node is not None:
            if self.node_confidence < 1.0:
                options.append(
                    f"η{self.node}~{self.node_strategy}:{self.node_confidence:.2f}"
                )
            else:
                options.append(f"η{self.node}")
        return f"{self.column} = {{{', '.join(options)}}}"


@dataclass
class RowCondition:
    """The generalized condition B for one table row, shared by all selects
    of that row (the paper's sharing of updated conditions, Fig 5(a) l.15).

    ``keys[i]`` is the conjunction of generalized predicates for the i-th
    candidate key of the table.
    """

    table: str
    row: int
    keys: List[List[GenPredicate]]

    def __str__(self) -> str:
        rendered = [
            " ∧ ".join(str(p) for p in predicates) for predicates in self.keys
        ]
        return " | ".join(rendered) if rendered else "⊥"


@dataclass
class GenSelect:
    """Generalized select ``Select(column, table, B)`` with shared B."""

    column: str
    table: str
    cond: RowCondition

    def __str__(self) -> str:
        return f"Select({self.column}, {self.table}, {self.cond})"


ProgEntry = Union[VarEntry, GenSelect]


class NodeStore:
    """The (η̃, η_t, Progs) triple plus the val/val⁻¹ maps of Figure 5(a)."""

    __slots__ = ("vals", "progs", "val_to_node", "target", "depths", "depth_limit")

    def __init__(self, depth_limit: int = 8) -> None:
        self.vals: List[Optional[str]] = []
        self.progs: List[List[ProgEntry]] = []
        self.val_to_node: Dict[str, int] = {}
        self.target: Optional[int] = None
        self.depths: List[int] = []
        #: Select-nesting budget for counting/extraction/enumeration.  The
        #: structure is k-complete (Def. 1), so measures are taken over the
        #: depth-bounded denotation; stores can be self-referential (see
        #: DESIGN.md note 3) and the budget keeps every walk finite.
        self.depth_limit = depth_limit

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.vals)

    def new_node(self, value: Optional[str], depth: int = 0) -> int:
        """Allocate a node; registers val⁻¹ for string-valued nodes."""
        node = len(self.vals)
        self.vals.append(value)
        self.progs.append([])
        self.depths.append(depth)
        if value is not None:
            self.val_to_node[value] = node
        return node

    def ensure_node(self, value: str, depth: int = 0) -> Tuple[int, bool]:
        """Node for ``value`` (the paper's val⁻¹), creating it if missing.

        Returns (node, created).
        """
        existing = self.val_to_node.get(value)
        if existing is not None:
            return existing, False
        return self.new_node(value, depth), True

    def node_for(self, value: str) -> Optional[int]:
        """val⁻¹(value) or None."""
        return self.val_to_node.get(value)

    # ------------------------------------------------------------------
    def reference_edges(self, node: int) -> Iterable[int]:
        """Nodes referenced by ``node``'s generalized predicates."""
        for entry in self.progs[node]:
            if isinstance(entry, GenSelect):
                for predicates in entry.cond.keys:
                    for predicate in predicates:
                        if predicate.node is not None:
                            yield predicate.node
                        if predicate.dag is not None:
                            for options in predicate.dag.edges.values():
                                for atom in options:
                                    source = getattr(atom, "source", None)
                                    if source is not None:
                                        yield source

    def reachable_from(self, roots: Iterable[int]) -> Set[int]:
        """Nodes reachable from ``roots`` through predicate references."""
        seen: Set[int] = set()
        stack = [root for root in roots if root is not None]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            for successor in self.reference_edges(node):
                if successor not in seen:
                    stack.append(successor)
        return seen

    def restrict_to(self, roots: Iterable[int]) -> Set[int]:
        """Empty the Progs of nodes unreachable from ``roots``; return alive.

        The target-component sweep shared by ``prune_store`` and
        ``prune_semantic``: counting and extraction are root-rooted, so
        unreachable nodes are invisible -- emptying them keeps the
        Figure 11(b) size a property of the denoted program set rather
        than of construction order.
        """
        alive = self.reachable_from(roots)
        for node in range(len(self.vals)):
            if node not in alive:
                self.progs[node] = []
        return alive

    def topological_order(self, alive: Optional[Set[int]] = None) -> Optional[List[int]]:
        """Topological order of the node-reference graph, or ``None`` if cyclic.

        Used to choose between fast memoized DP (acyclic, the common case)
        and path-guarded walks (cyclic, possible in principle -- see
        DESIGN.md note 3).
        """
        nodes = alive if alive is not None else set(range(len(self.vals)))
        indegree: Dict[int, int] = {node: 0 for node in nodes}
        successors: Dict[int, List[int]] = {node: [] for node in nodes}
        for node in nodes:
            for referenced in self.reference_edges(node):
                if referenced in nodes:
                    # edge referenced -> node (node depends on referenced)
                    successors[referenced].append(node)
                    indegree[node] += 1
        ready = [node for node, degree in indegree.items() if degree == 0]
        order: List[int] = []
        while ready:
            node = ready.pop()
            order.append(node)
            for successor in successors[node]:
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    ready.append(successor)
        if len(order) != len(nodes):
            return None
        return order

    def __repr__(self) -> str:
        return (
            f"NodeStore(nodes={len(self.vals)}, target={self.target}, "
            f"entries={sum(len(p) for p in self.progs)})"
        )


def emptiness_fixpoint(store: NodeStore) -> Set[int]:
    """Least fixpoint of "node denotes at least one concrete expression".

    Read as Horn clauses, emptiness is satisfiability, decided in linear
    time with one counter per clause (Dowling & Gallier 1984):

    * a predicate holds by its constant, once its node is valid, or once
      its dag's target is reachable from its source through enabled
      edges -- an edge is enabled when one of its atoms is a
      :class:`ConstAtom` or has a valid source;
    * a candidate key counts its distinct unmet predicate dags and nodes;
      a shared :class:`RowCondition` holds when any of its keys reaches
      zero;
    * a node is valid on a :class:`VarEntry` or on a select whose
      condition holds.

    Each dag's reached set grows only from vertices already reached, when
    an edge is enabled (at most once) or a vertex is first reached
    (expanded once), so total work is O(atoms + edges + predicates):
    no dag is walked twice.  Lt stores carry constant/node predicates and
    Lu stores dag predicates; a predicate with none of the three never
    holds.  Shared by ``Intersect_t`` and ``Intersect_u`` emptiness
    pruning; the naive sweeps remain available behind
    ``use_worklist_pruning=False`` as the equivalence oracle.
    """
    valid: Set[int] = set()
    ready: List[int] = []  # valid nodes whose dependents are not yet told
    cond_ids: Dict[int, int] = {}
    cond_owners: List[List[int]] = []  # emptied once the condition holds
    key_cond: List[int] = []
    key_missing: List[int] = []
    free_keys: List[int] = []  # keys with nothing to wait for
    node_keys: Dict[int, List[int]] = {}  # node -> keys referencing it
    node_edges: Dict[int, List[int]] = {}  # node -> edges its atoms source
    # Every dag's vertices and edges are numbered into flat lists.
    dag_ids: Dict[int, int] = {}
    dag_keys: List[List[int]] = []  # emptied once the target is reached
    dag_source: List[int] = []
    dag_target: List[int] = []
    reached = bytearray()
    out_edges: List[List[int]] = []
    edge_tail: List[int] = []
    edge_head: List[int] = []
    edge_dag: List[int] = []
    edge_on = bytearray()
    const_dags: List[int] = []  # dags with an edge enabled from the start

    def index_dag(dag: Dag) -> int:
        dag_id = dag_ids.get(id(dag))
        if dag_id is not None:
            return dag_id
        dag_id = dag_ids[id(dag)] = len(dag_keys)
        dag_keys.append([])
        base = len(out_edges)
        vertex = {node: base + offset for offset, node in enumerate(dag.nodes)}
        dag_source.append(vertex[dag.source])
        dag_target.append(vertex[dag.target])
        reached.extend(bytes(len(vertex)))
        reached[vertex[dag.source]] = 1
        out_edges.extend([[] for _ in vertex])
        for (i, j), options in dag.edges.items():
            if not options:
                continue
            edge = len(edge_head)
            tail = vertex[i]
            out_edges[tail].append(edge)
            edge_tail.append(tail)
            edge_head.append(vertex[j])
            edge_dag.append(dag_id)
            if any(isinstance(atom, ConstAtom) for atom in options):
                edge_on.append(1)
                if not const_dags or const_dags[-1] != dag_id:
                    const_dags.append(dag_id)
            else:
                edge_on.append(0)
                for source in {atom.source for atom in options}:
                    node_edges.setdefault(source, []).append(edge)
        return dag_id

    def index_condition(cond: RowCondition) -> int:
        cond_id = cond_ids[id(cond)] = len(cond_owners)
        cond_owners.append([])
        for predicates in cond.keys:
            # The waiting lists this key joins, one per distinct dag or node.
            waits: Dict[int, List[int]] = {}
            for predicate in predicates:
                if predicate.constant is not None:
                    continue
                if predicate.dag is not None:
                    if predicate.dag.is_trivial_empty:
                        continue
                    wait = dag_keys[index_dag(predicate.dag)]
                elif predicate.node is not None:
                    wait = node_keys.setdefault(predicate.node, [])
                else:
                    break  # this key can never hold
                waits[id(wait)] = wait
            else:
                key = len(key_missing)
                key_cond.append(cond_id)
                key_missing.append(len(waits))
                for wait in waits.values():
                    wait.append(key)
                if not waits:
                    free_keys.append(key)
        return cond_id

    for node, entries in enumerate(store.progs):
        if any(isinstance(entry, VarEntry) for entry in entries):
            valid.add(node)
            ready.append(node)
            continue
        for entry in entries:
            cond_id = cond_ids.get(id(entry.cond))
            if cond_id is None:
                cond_id = index_condition(entry.cond)
            cond_owners[cond_id].append(node)

    def hold(cond_id: int) -> None:
        owners = cond_owners[cond_id]
        cond_owners[cond_id] = []
        for owner in owners:
            if owner not in valid:
                valid.add(owner)
                ready.append(owner)

    def meet(keys: List[int]) -> None:
        for key in keys:
            key_missing[key] -= 1
            if not key_missing[key]:
                hold(key_cond[key])

    def reach(dag_id: int, start: int) -> None:
        """Mark ``start`` reached and expand from it over enabled edges."""
        target = dag_target[dag_id]
        reached[start] = 1
        stack = [start]
        while stack:
            vertex = stack.pop()
            if vertex == target:
                keys = dag_keys[dag_id]
                dag_keys[dag_id] = []
                meet(keys)
                return
            for edge in out_edges[vertex]:
                if edge_on[edge]:
                    head = edge_head[edge]
                    if not reached[head]:
                        reached[head] = 1
                        stack.append(head)

    for dag_id in const_dags:
        reach(dag_id, dag_source[dag_id])
    for key in free_keys:
        hold(key_cond[key])
    while ready:
        node = ready.pop()
        keys = node_keys.get(node)
        if keys:
            meet(keys)
        for edge in node_edges.get(node, ()):
            if edge_on[edge]:
                continue
            edge_on[edge] = 1
            head = edge_head[edge]
            if reached[edge_tail[edge]] and not reached[head]:
                dag_id = edge_dag[edge]
                if dag_keys[dag_id]:
                    reach(dag_id, head)
    return valid
