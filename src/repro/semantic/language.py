"""The Lu language bundle: synthesis + measures against a fixed catalog."""

from __future__ import annotations

from typing import Iterator, Optional

from repro.api.registry import register_backend
from repro.config import DEFAULT_CONFIG, SynthesisConfig
from repro.core.base import Expression, InputState
from repro.core.formalism import LanguageAdapter
from repro.semantic.dstruct import SemanticStructure
from repro.lookup.circuit import Circuit
from repro.semantic.extract import best_program, enumerate_programs, top_k_programs
from repro.semantic.generate import generate_semantic
from repro.semantic.intersect import intersect_semantic
from repro.semantic.measure import count_expressions, structure_size
from repro.tables.catalog import Catalog


@register_backend("semantic", "Lu")
class SemanticLanguage:
    """GenerateStr/Intersect plus measures for the semantic language Lu."""

    name = "Lu"
    requires_catalog = True

    def __init__(
        self, catalog: Catalog, config: SynthesisConfig = DEFAULT_CONFIG
    ) -> None:
        self.catalog = catalog
        self.config = config

    # -- synthesis ------------------------------------------------------
    def generate(self, state: InputState, output: str) -> Optional[SemanticStructure]:
        structure = generate_semantic(self.catalog, state, output, self.config)
        if not structure.has_program():
            return None
        return structure

    def intersect(
        self, first: SemanticStructure, second: SemanticStructure
    ) -> Optional[SemanticStructure]:
        return intersect_semantic(first, second, self.config)

    def is_empty(self, structure: SemanticStructure) -> bool:
        return not structure.has_program()

    def adapter(self) -> LanguageAdapter[SemanticStructure]:
        return LanguageAdapter(
            name=self.name,
            generate=self.generate,
            intersect=self.intersect,
            is_empty=self.is_empty,
        )

    # -- measures ---------------------------------------------------------
    def count_expressions(self, structure: SemanticStructure) -> int:
        """Figure 11(a): number of consistent Lu expressions."""
        return count_expressions(structure)

    def is_ambiguous(self, structure: SemanticStructure) -> bool:
        """More than one consistent expression, without the exact count."""
        return Circuit(structure.store, structure.dag).count(cap=2) > 1

    def structure_size(self, structure: SemanticStructure) -> int:
        """Figure 11(b): terminal-symbol size of Du."""
        return structure_size(structure)

    # -- ranking / inspection ----------------------------------------------
    def best_program(self, structure: SemanticStructure) -> Optional[Expression]:
        """The top-ranked consistent Lu program (§5.4)."""
        return best_program(structure, self.config)

    def enumerate_programs(
        self, structure: SemanticStructure, limit: int = 1000
    ) -> Iterator[Expression]:
        return enumerate_programs(structure, limit=limit)

    def top_programs(
        self, structure: SemanticStructure, k: int = 10
    ) -> list:
        """The k best-ranked distinct programs, best first (§3.2)."""
        return top_k_programs(structure, k, self.config)
