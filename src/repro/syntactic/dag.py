"""The Dag version-space data structure (paper §5.2).

``Dag(α̃, αs, αt, ξ̃, W)`` succinctly represents a set of ``Concatenate``
expressions: nodes are string positions, and every source→target path
yields the concatenation of one atomic expression per edge.

Edges carry *generalized atomic expressions*:

* :class:`ConstAtom` -- one constant string,
* :class:`RefAtom` -- a whole-string reference to a *source* (an input
  variable in pure Ls; a node η of the lookup structure in Lu),
* :class:`SubStrAtom` -- substrings of a source with generalized position
  sets on both ends.

What a "source" means is deliberately abstract: the measures and the
extraction (:mod:`repro.lookup.circuit`) resolve source ids, so the same
Dag serves both Ls (sources = variables) and Lu (sources = lookup nodes
with their own nested version spaces).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.syntactic.positions import PosSet

Edge = Tuple[int, int]


class ContentKey:
    """A structural dag key with its hash computed once.

    Plain tuples recompute their hash on every dict lookup, which for a
    large running dag would cost as much as the work the memo avoids.
    Built fresh per use (see ``repro.syntactic.intersect``): ``Dag.edges``
    is publicly mutable, so caching the key on the dag would risk serving
    a stale identity to the global intersection memo.
    """

    __slots__ = ("key", "_hash")

    def __init__(self, key: tuple) -> None:
        self.key = key
        self._hash = hash(key)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ContentKey) and self.key == other.key

    def __repr__(self) -> str:  # pragma: no cover -- debugging aid
        return f"ContentKey(hash={self._hash})"


@dataclass(frozen=True)
class ConstAtom:
    """The ``ConstStr(text)`` atomic expression."""

    text: str


@dataclass(frozen=True)
class RefAtom:
    """A whole-string use of a source (``f_s := e_t`` with e_t's full value)."""

    source: int


@dataclass(frozen=True)
class SubStrAtom:
    """``SubStr(source, p̃1, p̃2)`` with generalized position sets."""

    source: int
    p1: PosSet
    p2: PosSet


Atom = object  # ConstAtom | RefAtom | SubStrAtom


class Dag:
    """A DAG over integer nodes with atom-labelled edges.

    ``edges`` maps ``(i, j)`` to the list of atomic-expression sets on that
    edge (the paper's ``W``).  The node list must be topologically
    orderable; generated dags use string positions ``0..l`` directly.
    """

    __slots__ = ("nodes", "source", "target", "edges", "_out", "_topo", "_cache_edges")

    def __init__(
        self,
        nodes: Sequence[int],
        source: int,
        target: int,
        edges: Dict[Edge, List[Atom]],
    ) -> None:
        self.nodes: Tuple[int, ...] = tuple(nodes)
        self.source = source
        self.target = target
        self.edges: Dict[Edge, List[Atom]] = edges
        self._out: Optional[Dict[int, List[int]]] = None
        self._topo: Optional[List[int]] = None
        self._cache_edges: int = -1

    # ------------------------------------------------------------------
    @property
    def is_trivial_empty(self) -> bool:
        """True for the degenerate dag of the empty output string."""
        return self.source == self.target

    def invalidate_caches(self) -> None:
        """Drop the memoized adjacency/topological order.

        Called automatically when the edge *count* changes; mutations that
        keep the count (swapping an edge) must call this explicitly.
        """
        self._out = None
        self._topo = None
        self._cache_edges = -1

    def _check_caches(self) -> None:
        if self._cache_edges != len(self.edges):
            self.invalidate_caches()
            self._cache_edges = len(self.edges)

    def out_neighbors(self) -> Dict[int, List[int]]:
        """Adjacency map node -> successor nodes (cached)."""
        self._check_caches()
        if self._out is None:
            out: Dict[int, List[int]] = {node: [] for node in self.nodes}
            for (i, j) in self.edges:
                out[i].append(j)
            for successors in out.values():
                successors.sort()
            self._out = out
        return self._out

    def topological_order(self) -> List[int]:
        """Kahn topological order of the nodes (cached; edges go forward)."""
        self._check_caches()
        if self._topo is not None:
            return self._topo
        indegree: Dict[int, int] = {node: 0 for node in self.nodes}
        for (_, j) in self.edges:
            indegree[j] += 1
        ready = sorted(node for node, degree in indegree.items() if degree == 0)
        order: List[int] = []
        out = self.out_neighbors()
        while ready:
            node = ready.pop()
            order.append(node)
            for successor in out[node]:
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    ready.append(successor)
        if len(order) != len(self.nodes):
            raise ValueError("dag contains a cycle")
        self._topo = order
        return order

    def has_path(self) -> bool:
        """Is there any source→target path (with at least one edge each)?"""
        if self.is_trivial_empty:
            return True
        out = self.out_neighbors()
        seen: Set[int] = {self.source}
        stack = [self.source]
        while stack:
            node = stack.pop()
            if node == self.target:
                return True
            for successor in out[node]:
                if successor not in seen:
                    seen.add(successor)
                    stack.append(successor)
        return False

    # ------------------------------------------------------------------
    def enumerate_paths(self, limit: int = 100000) -> Iterator[List[Edge]]:
        """Yield source→target paths as edge lists (bounded by ``limit``)."""
        if self.is_trivial_empty:
            yield []
            return
        out = self.out_neighbors()
        budget = [limit]

        def walk(node: int, prefix: List[Edge]) -> Iterator[List[Edge]]:
            if budget[0] <= 0:
                return
            if node == self.target:
                budget[0] -= 1
                yield list(prefix)
                return
            for successor in out[node]:
                if (node, successor) in self.edges:
                    prefix.append((node, successor))
                    yield from walk(successor, prefix)
                    prefix.pop()

        yield from walk(self.source, [])

    def pruned(self, atom_valid: Callable[[Atom], bool]) -> Optional["Dag"]:
        """Drop invalid atoms/edges and nodes off every source→target path.

        Returns ``None`` when no path survives.
        """
        if self.is_trivial_empty:
            return self
        kept_edges: Dict[Edge, List[Atom]] = {}
        for edge, options in self.edges.items():
            kept = [atom for atom in options if atom_valid(atom)]
            if kept:
                kept_edges[edge] = kept
        # Forward reachability from source.
        forward: Set[int] = {self.source}
        changed = True
        while changed:
            changed = False
            for (i, j) in kept_edges:
                if i in forward and j not in forward:
                    forward.add(j)
                    changed = True
        if self.target not in forward:
            return None
        # Backward reachability from target.
        backward: Set[int] = {self.target}
        changed = True
        while changed:
            changed = False
            for (i, j) in kept_edges:
                if j in backward and i not in backward:
                    backward.add(i)
                    changed = True
        alive = forward & backward
        final_edges = {
            edge: options
            for edge, options in kept_edges.items()
            if edge[0] in alive and edge[1] in alive
        }
        nodes = sorted(alive)
        return Dag(nodes, self.source, self.target, final_edges)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"Dag(nodes={len(self.nodes)}, edges={len(self.edges)}, "
            f"source={self.source}, target={self.target})"
        )


def full_span_edges(length: int) -> Iterable[Edge]:
    """All forward edges over positions 0..length (the generated dag shape)."""
    return ((i, j) for i in range(length) for j in range(i + 1, length + 1))
