"""The standalone Ls language: adapter, measures, ranking, enumeration.

This wires the generic Dag machinery to *variable* sources: source id i
resolves to input variable ``v_{i+1}``, which counts as a single concrete
expression.  The semantic language reuses the same Dag code with lookup
nodes as sources (see :mod:`repro.semantic`).
"""

from __future__ import annotations

from itertools import product as cartesian_product
from typing import Iterator, List, Optional

from repro.api.registry import register_backend
from repro.config import DEFAULT_CONFIG, SynthesisConfig
from repro.core.base import Expression, InputState
from repro.core.exprs import Var
from repro.core.formalism import LanguageAdapter
from repro.syntactic.ast import ConstStr, SubStr, assemble_concatenation
from repro.syntactic.dag import Atom, ConstAtom, Dag, RefAtom
from repro.syntactic.generate import generate_dag
from repro.syntactic.intersect import equal_source_merge, intersect_dags
from repro.syntactic.positions import enumerate_position_exprs


@register_backend("syntactic", "Ls")
class SyntacticLanguage:
    """GenerateStr/Intersect plus measures for pure Ls."""

    name = "Ls"
    requires_catalog = False

    def __init__(self, config: SynthesisConfig = DEFAULT_CONFIG) -> None:
        self.config = config

    # -- synthesis ------------------------------------------------------
    def generate(self, state: InputState, output: str) -> Optional[Dag]:
        sources = [(index, value) for index, value in enumerate(state)]
        return generate_dag(sources, output, self.config)

    def intersect(self, first: Dag, second: Dag) -> Optional[Dag]:
        return intersect_dags(
            first,
            second,
            equal_source_merge,
            lazy=self.config.use_lazy_intersection,
            use_cache=self.config.use_intersection_cache,
        )

    def is_empty(self, dag: Dag) -> bool:
        return not dag.has_path()

    def adapter(self) -> LanguageAdapter[Dag]:
        return LanguageAdapter(
            name=self.name,
            generate=self.generate,
            intersect=self.intersect,
            is_empty=self.is_empty,
        )

    # -- measures (Figure 11 metrics) and ranking -----------------------
    def _circuit(self, dag: Dag):
        # Imported here: the circuit needs repro.lookup.dstruct, which
        # imports this package.
        from repro.lookup.circuit import Circuit

        return Circuit(None, dag, self.config.weights)

    def count_expressions(self, dag: Dag) -> int:
        """Number of concrete Ls expressions the dag represents."""
        return self._circuit(dag).count()

    def is_ambiguous(self, dag: Dag) -> bool:
        """More than one consistent expression, without the exact count."""
        return self._circuit(dag).count(cap=2) > 1

    def structure_size(self, dag: Dag) -> int:
        """Terminal-symbol size of the dag."""
        return self._circuit(dag).size()

    def best_program(self, dag: Dag) -> Optional[Expression]:
        """The top-ranked Ls expression, or ``None`` when the dag is empty."""
        ranked = self._circuit(dag).best()
        if ranked is None:
            return None
        return ranked[1]

    # -- enumeration (tests/inspection) -----------------------------------
    def _atom_exprs(self, atom: Atom, limit: int) -> List[Expression]:
        if isinstance(atom, ConstAtom):
            return [ConstStr(atom.text)]
        if isinstance(atom, RefAtom):
            return [Var(atom.source)]
        exprs: List[Expression] = []
        for p1 in enumerate_position_exprs(atom.p1):
            for p2 in enumerate_position_exprs(atom.p2):
                exprs.append(SubStr(Var(atom.source), p1, p2))
                if len(exprs) >= limit:
                    return exprs
        return exprs

    def enumerate_programs(self, dag: Dag, limit: int = 1000) -> Iterator[Expression]:
        """Yield up to ``limit`` concrete expressions from the dag."""
        produced = 0
        for path in dag.enumerate_paths():
            per_edge: List[List[Expression]] = []
            for edge in path:
                options: List[Expression] = []
                for atom in dag.edges[edge]:
                    options.extend(self._atom_exprs(atom, limit))
                per_edge.append(options)
            for combo in cartesian_product(*per_edge):
                yield assemble_concatenation(list(combo))
                produced += 1
                if produced >= limit:
                    return


def syntactic_adapter(config: SynthesisConfig = DEFAULT_CONFIG) -> LanguageAdapter[Dag]:
    """Convenience: the LanguageAdapter for pure Ls."""
    return SyntacticLanguage(config).adapter()
