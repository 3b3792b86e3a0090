"""The Lt language bundle: synthesis + measures against a fixed catalog."""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.api.registry import register_backend
from repro.config import DEFAULT_CONFIG, SynthesisConfig
from repro.core.base import Expression, InputState
from repro.core.formalism import LanguageAdapter
from repro.lookup.dstruct import NodeStore
from repro.lookup.circuit import Circuit
from repro.lookup.extract import best_expression, enumerate_expressions
from repro.lookup.generate import generate_lookup
from repro.lookup.intersect import intersect_lookup
from repro.lookup.measure import count_expressions, structure_size
from repro.tables.catalog import Catalog


@register_backend("lookup", "Lt")
class LookupLanguage:
    """GenerateStr/Intersect plus measures for the lookup language Lt."""

    name = "Lt"
    requires_catalog = True

    def __init__(
        self, catalog: Catalog, config: SynthesisConfig = DEFAULT_CONFIG
    ) -> None:
        self.catalog = catalog
        self.config = config

    # -- synthesis ------------------------------------------------------
    def generate(self, state: InputState, output: str) -> Optional[NodeStore]:
        store = generate_lookup(self.catalog, state, output, self.config)
        if store.target is None:
            return None
        return store

    def intersect(
        self, first: NodeStore, second: NodeStore
    ) -> Optional[NodeStore]:
        return intersect_lookup(first, second, self.config)

    def is_empty(self, store: NodeStore) -> bool:
        return store.target is None

    def adapter(self) -> LanguageAdapter[NodeStore]:
        return LanguageAdapter(
            name=self.name,
            generate=self.generate,
            intersect=self.intersect,
            is_empty=self.is_empty,
        )

    # -- measures ---------------------------------------------------------
    def count_expressions(self, store: NodeStore) -> int:
        """Number of concrete Lt expressions consistent with the examples."""
        return count_expressions(store)

    def is_ambiguous(self, store: NodeStore) -> bool:
        """More than one consistent expression, without the exact count."""
        return Circuit(store, None).count(cap=2) > 1

    def structure_size(self, store: NodeStore) -> int:
        """Terminal-symbol size of Dt."""
        return structure_size(store)

    # -- ranking / inspection ----------------------------------------------
    def best_program(self, store: NodeStore) -> Optional[Expression]:
        """The top-ranked consistent expression (§4.4), or ``None``."""
        ranked = best_expression(store, self.config)
        if ranked is None:
            return None
        return ranked[1]

    def enumerate_programs(
        self, store: NodeStore, limit: int = 1000
    ) -> Iterator[Expression]:
        return enumerate_expressions(store, limit=limit)
