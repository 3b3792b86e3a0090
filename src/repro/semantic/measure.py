"""Figure 11 metrics for Du: expression counting and structure size.

Counting follows the k-bounded denotation (see
:mod:`repro.lookup.measure`): a select consumes one unit of nesting budget,
and dags do not (they are syntactic glue).  The mutual recursion
node -> select -> predicate dag -> node is memoized on (node, budget) by
:mod:`repro.lookup.circuit`, so the whole count is polynomial in the
structure size -- the numbers themselves are the astronomical ones of
Figure 11(a) (Python integers).
"""

from __future__ import annotations

from repro.lookup.circuit import Circuit
from repro.semantic.dstruct import SemanticStructure
from repro.syntactic.dag import Dag


def count_expressions(structure: SemanticStructure) -> int:
    """|[[Du]]|: the Figure 11(a) metric."""
    return Circuit(structure.store, structure.dag).count()


def dag_size(dag: Dag) -> int:
    """Terminal symbols of one dag."""
    return Circuit(None, dag).size()


def structure_size(structure: SemanticStructure) -> int:
    """The Figure 11(b) metric: node store + top dag, shared parts once."""
    return Circuit(structure.store, structure.dag).size()
