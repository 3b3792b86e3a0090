"""The data structure Du for sets of Lu expressions (paper §5.2).

``Du`` couples the lookup node store (η̃, Progs) with Dags of syntactic
expressions in two places:

* the **top-level Dag** represents all concatenations producing the output
  string; its edges carry constants, whole-value node references and
  substrings of node values (``f̃_s := ConstStr(s) | ẽ_t | SubStr(ẽ_t, ...)``),
* every generalized **select predicate** carries a nested Dag
  (``p̃_t := C = ẽ_s``) over the same node ids.

Sharing is pervasive and deliberate (Theorem 3): node Progs are shared by
every dag edge that references the node, and predicate dags are shared
across rows keyed by the same string.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.lookup.dstruct import NodeStore
from repro.syntactic.dag import Dag

if TYPE_CHECKING:  # pragma: no cover
    from repro.lookup.circuit import Circuit


@dataclass
class SemanticStructure:
    """Du = (node store, top-level output dag)."""

    store: NodeStore
    dag: Dag
    #: The ranking circuit (``repro.semantic.extract.structure_circuit``):
    #: best and top-k extraction of this structure share its memo.
    circuit: Optional["Circuit"] = field(default=None, repr=False, compare=False)

    @property
    def depth_limit(self) -> int:
        return self.store.depth_limit

    def has_program(self) -> bool:
        """Non-empty: the top dag has at least one source→target path."""
        return self.dag.has_path()

    def __repr__(self) -> str:
        return (
            f"SemanticStructure(nodes={len(self.store.vals)}, "
            f"dag_edges={len(self.dag.edges)})"
        )
