"""repro: a reproduction of *Learning Semantic String Transformations from
Examples* (Singh & Gulwani, VLDB 2012).

Public API quick reference::

    from repro import Catalog, Synthesizer, Table

    catalog = Catalog([Table("Comp", ["Id", "Name"], rows, keys=[("Id",)])])
    engine = Synthesizer(catalog)

    result = engine.synthesize([(("c4 c3 c1",), "Facebook Apple Microsoft")])
    result.program(("c2 c5 c6",))        # -> "Google IBM Xerox"
    result.programs                      # ranked (score, Program) candidates
    result.consistent_count              # Figure 11(a) metric, computed on first read
    result.ambiguous                     # more than one consistent program?

    payload = result.program.to_dict()   # serialize: cache / serve later
    program = Program.from_dict(payload, catalog=catalog)

    results = engine.run_batch(tasks, workers=4)   # many independent tasks

    session = SynthesisSession(catalog)  # example-at-a-time interaction
    session.add_example(("c4",), "Facebook"); session.learn()

Long-running serving (request-cached learn, named program persistence,
JSON HTTP API -- also ``repro serve`` from the shell)::

    from repro.service import ProgramStore, SynthesisService, create_server

    service = SynthesisService(catalog, store=ProgramStore("programs/"))
    result, cache_status = service.learn(examples, save_as="expand")
    service.fill("expand", rows)              # by name, zero synthesis
    create_server(service, port=8765).serve_forever()

Many named catalogs from one process, grown copy-on-write at runtime
(``repro serve --catalog-root DIR``; catalogs are immutable snapshots,
so in-flight requests never see a half-updated catalog)::

    from repro.service import CatalogRegistry

    registry = CatalogRegistry()
    registry.register("products", catalog)
    service = SynthesisService(registry=registry, default_catalog="products")
    service.learn(examples, catalog="products")
    registry.append_rows("products", "Comp", new_rows)   # incremental reindex

Disk-backed catalogs (``repro serve --storage sqlite`` / ``--snapshots``
from the shell)::

    from repro.storage import SQLiteBackend, StorageCatalog, ingest_catalog
    from repro.storage import load_catalog_snapshot, save_catalog_snapshot

    ingest_catalog("catalog.db", catalog)          # one-time: CSV -> SQLite
    disk = StorageCatalog(SQLiteBackend("catalog.db"))
    Synthesizer(disk).synthesize(examples)         # queries hit the backend

    save_catalog_snapshot("snaps/", catalog)       # persist built indexes
    warm = load_catalog_snapshot("snaps/")         # O(1)-ish cold start

Sub-packages: :mod:`repro.api` (engine API: backends, results, batch),
:mod:`repro.tables` (relational substrate, §4/§6), :mod:`repro.syntactic`
(Ls, §5), :mod:`repro.lookup` (Lt, §4), :mod:`repro.semantic` (Lu, §5),
:mod:`repro.engine` (interaction model, §3.2), :mod:`repro.service`
(program store, request cache, HTTP serving), :mod:`repro.storage`
(pluggable catalog storage backends + persistent index snapshots),
:mod:`repro.benchsuite` (the 50-problem evaluation, §7).
"""

from repro.api import (
    LanguageBackend,
    RankedProgram,
    SynthesisResult,
    SynthesisTask,
    Synthesizer,
    available_backends,
    create_backend,
    register_backend,
)
from repro.config import DEFAULT_CONFIG, RankingWeights, SynthesisConfig
from repro.engine import Program, SynthesisSession, paraphrase, synthesize
from repro.exceptions import (
    CatalogRegistryError,
    DuplicateColumnError,
    DuplicateTableError,
    EmptyCatalogError,
    FrozenCatalogError,
    InconsistentExampleError,
    MissingColumnsError,
    MissingTablesError,
    NoExamplesError,
    NoProgramFoundError,
    ProgramStoreError,
    ReproError,
    SerializationError,
    ServiceError,
    SnapshotError,
    StaleProgramError,
    StorageBackendError,
    StorageError,
    SynthesisError,
    TableError,
    UnknownBackendError,
    UnknownCatalogError,
    UnknownMatcherError,
    UnknownProgramError,
)
from repro.matching import available_matchers, build_pipeline
from repro.tables import Catalog, Table
from repro.tables.background import background_catalog, background_table

__version__ = "1.8.0"

__all__ = [
    "Catalog",
    "CatalogRegistryError",
    "DEFAULT_CONFIG",
    "DuplicateColumnError",
    "DuplicateTableError",
    "EmptyCatalogError",
    "FrozenCatalogError",
    "InconsistentExampleError",
    "LanguageBackend",
    "MissingColumnsError",
    "MissingTablesError",
    "NoExamplesError",
    "NoProgramFoundError",
    "Program",
    "ProgramStoreError",
    "RankedProgram",
    "RankingWeights",
    "ReproError",
    "SerializationError",
    "ServiceError",
    "SnapshotError",
    "StaleProgramError",
    "StorageBackendError",
    "StorageError",
    "SynthesisConfig",
    "SynthesisResult",
    "SynthesisSession",
    "SynthesisTask",
    "SynthesisError",
    "Synthesizer",
    "Table",
    "TableError",
    "UnknownBackendError",
    "UnknownCatalogError",
    "UnknownMatcherError",
    "UnknownProgramError",
    "available_backends",
    "available_matchers",
    "background_catalog",
    "background_table",
    "build_pipeline",
    "create_backend",
    "paraphrase",
    "register_backend",
    "synthesize",
    "__version__",
]
