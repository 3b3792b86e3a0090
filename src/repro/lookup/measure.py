"""Counting and size metrics for Dt (Theorem 1, Figures 11(a)/(b)).

``count_expressions`` computes |[[Dt]]| under the k-bounded denotation: the
number of concrete Lt expressions with at most ``store.depth_limit`` nested
Selects.  GenerateStr is k-complete (Definition 1), so this is exactly the
set the synthesizer reasons about; it also keeps the count finite when the
structure is self-referential, which happens whenever a table row is
matched through two different columns (its own node then appears in its
predicates -- e.g. Example 2's customer row, matched by Name and by Addr).

``structure_size`` is the Figure 11(b) metric: each terminal symbol of the
data-structure grammar contributes one unit, with shared components (row
conditions, nested dags) counted once.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.lookup.circuit import Circuit
from repro.lookup.dstruct import NodeStore


def count_expressions(store: NodeStore) -> int:
    """|[[store]]| rooted at the target, depth-bounded."""
    return Circuit(store, None).count()


def structure_size(store: NodeStore, roots: Optional[Iterable[int]] = None) -> int:
    """Figure 11(b) metric: terminal symbols, shared components once.

    ``roots`` restricts accounting to nodes reachable from the given roots
    (default: every node in the store, matching the structure as built).
    """
    return Circuit(store, None).size(roots)


def strongly_connected_components(
    nodes: Iterable[int], successors: Callable[[int], Iterable[int]]
) -> List[List[int]]:
    """Iterative Tarjan SCC in reverse topological order.

    Kept as a diagnostic utility: ``has_self_reference`` uses it to report
    whether a store's denotation is depth-unbounded (cyclic references).
    """
    index_counter = [0]
    stack: List[int] = []
    lowlink: Dict[int, int] = {}
    index: Dict[int, int] = {}
    on_stack: Set[int] = set()
    components: List[List[int]] = []

    for root in nodes:
        if root in index:
            continue
        work: List[Tuple[int, Iterable]] = [(root, iter(successors(root)))]
        index[root] = lowlink[root] = index_counter[0]
        index_counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successor_iter = work[-1]
            advanced = False
            for successor in successor_iter:
                if successor not in index:
                    index[successor] = lowlink[successor] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(successors(successor))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def has_self_reference(store: NodeStore) -> bool:
    """True when some node (transitively) references itself.

    Such stores denote unboundedly deep expressions; all measures use the
    depth budget regardless, but callers may want to report it.
    """
    successor_cache: Dict[int, List[int]] = {}

    def successors(node: int) -> List[int]:
        cached = successor_cache.get(node)
        if cached is None:
            cached = list(store.reference_edges(node))
            successor_cache[node] = cached
        return cached

    components = strongly_connected_components(range(len(store.vals)), successors)
    for component in components:
        if len(component) > 1:
            return True
        node = component[0]
        if node in successors(node):
            return True
    return False
