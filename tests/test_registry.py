"""CatalogRegistry: named snapshots, copy-on-write updates, concurrency.

The registry's one invariant: a reader holding a snapshot (directly or
through a service engine) computes against exactly that snapshot's
tables, no matter how many updates land concurrently -- either the old
or the new fingerprint, never a torn mix.  Pinned here alongside the
basics (register/get/replace, lazy root loading, typed errors) and the
acceptance property that learning through a registry catalog is
byte-identical to a direct ``Synthesizer`` over the same tables.
"""

import threading

import pytest

from repro.api.engine import Synthesizer
from repro.benchsuite import all_benchmarks
from repro.exceptions import (
    CatalogRegistryError,
    DuplicateTableError,
    FrozenCatalogError,
    UnknownCatalogError,
    UnknownTableError,
)
from repro.service.registry import CatalogRegistry
from repro.service.service import SynthesisService
from repro.tables.catalog import Catalog
from repro.tables.io import save_table_csv
from repro.tables.table import Table

ROWS = [
    ("c1", "Microsoft"),
    ("c2", "Google"),
    ("c3", "Apple"),
    ("c4", "Facebook"),
    ("c5", "IBM"),
    ("c6", "Xerox"),
]


def comp_table(rows=None):
    return Table("Comp", ["Id", "Name"], rows or ROWS, keys=[("Id",)])


def canonical(result):
    """``SynthesisResult.to_dict`` minus wall-clock noise -- the byte-
    identity comparand (programs, scores, ranks, metrics)."""
    payload = result.to_dict()
    payload.pop("elapsed_seconds", None)
    payload.pop("phase_seconds", None)
    return payload


class TestBasics:
    def test_register_get_roundtrip(self):
        registry = CatalogRegistry()
        stored = registry.register("demo", [comp_table()])
        assert registry.get("demo") is stored
        assert stored.frozen
        assert registry.names() == ["demo"]
        assert "demo" in registry and "nope" not in registry

    def test_register_freezes_caller_catalog(self):
        registry = CatalogRegistry()
        catalog = Catalog([comp_table()])
        registry.register("demo", catalog)
        with pytest.raises(FrozenCatalogError):
            catalog.add(Table("X", ["a"], [("b",)]))

    def test_register_replaces(self):
        registry = CatalogRegistry()
        registry.register("demo", [comp_table()])
        registry.register("demo", [Table("Other", ["a"], [("x",)])])
        assert registry.get("demo").table_names() == ["Other"]

    def test_unknown_catalog_names_available(self):
        registry = CatalogRegistry()
        registry.register("demo", [comp_table()])
        with pytest.raises(UnknownCatalogError) as excinfo:
            registry.get("nope")
        assert excinfo.value.name == "nope"
        assert excinfo.value.available == ("demo",)

    def test_bad_names_rejected(self):
        registry = CatalogRegistry()
        for bad in ("", "a/b", "..", "-x", "a" * 65):
            with pytest.raises(CatalogRegistryError):
                registry.register(bad, [comp_table()])

    def test_describe(self):
        registry = CatalogRegistry()
        registry.register("demo", [comp_table()])
        info = registry.describe("demo")
        assert info["name"] == "demo"
        assert info["entries"] == len(ROWS) * 2
        assert info["tables"][0]["name"] == "Comp"
        assert info["tables"][0]["columns"] == ["Id", "Name"]
        assert info["tables"][0]["num_rows"] == len(ROWS)
        assert info["fingerprint"] == registry.get("demo").fingerprint()


class TestUpdates:
    def test_add_table_creates_catalog_by_default(self):
        registry = CatalogRegistry()
        registry.add_table("fresh", comp_table())
        assert registry.get("fresh").table_names() == ["Comp"]

    def test_add_table_create_false_requires_catalog(self):
        registry = CatalogRegistry()
        with pytest.raises(UnknownCatalogError):
            registry.add_table("fresh", comp_table(), create=False)

    def test_duplicate_table_rejected_with_catalog_name(self):
        registry = CatalogRegistry()
        registry.register("demo", [comp_table()])
        with pytest.raises(DuplicateTableError) as excinfo:
            registry.add_table("demo", comp_table())
        assert excinfo.value.catalog == "demo"
        assert excinfo.value.table == "Comp"

    def test_append_rows_unknown_table(self):
        registry = CatalogRegistry()
        registry.register("demo", [comp_table()])
        with pytest.raises(UnknownTableError):
            registry.append_rows("demo", "Nope", [("a", "b")])

    def test_old_snapshot_survives_update(self):
        registry = CatalogRegistry()
        registry.register("demo", [comp_table()])
        old = registry.get("demo")
        old_fingerprint = old.fingerprint()
        registry.append_rows("demo", "Comp", [("c7", "Intel")])
        new = registry.get("demo")
        assert new is not old
        assert old.table("Comp").num_rows == len(ROWS)
        assert old.fingerprint() == old_fingerprint
        assert new.table("Comp").num_rows == len(ROWS) + 1
        assert new.fingerprint() != old_fingerprint


class TestRootLoading:
    def test_lazy_csv_loading(self, tmp_path):
        directory = tmp_path / "geo"
        directory.mkdir()
        save_table_csv(
            Table("Caps", ["Country", "Capital"], [("France", "Paris")]),
            directory / "Caps.csv",
        )
        registry = CatalogRegistry(root=tmp_path)
        assert registry.names() == ["geo"]
        assert registry.loaded_names() == []
        catalog = registry.get("geo")
        assert catalog.table("Caps").lookup("Capital", {"Country": "France"}) == "Paris"
        assert registry.loaded_names() == ["geo"]

    def test_tables_load_in_sorted_file_order(self, tmp_path):
        directory = tmp_path / "multi"
        directory.mkdir()
        save_table_csv(Table("B", ["x"], [("1",)]), directory / "b.csv")
        save_table_csv(Table("A", ["y"], [("2",)]), directory / "a.csv")
        registry = CatalogRegistry(root=tmp_path)
        # file stems become table names, sorted order = catalog order
        assert registry.get("multi").table_names() == ["a", "b"]

    def test_registered_names_merge_with_root(self, tmp_path):
        (tmp_path / "ondisk").mkdir()
        save_table_csv(
            Table("T", ["a"], [("x",)]), tmp_path / "ondisk" / "T.csv"
        )
        registry = CatalogRegistry(root=tmp_path)
        registry.register("inmem", [comp_table()])
        assert registry.names() == ["inmem", "ondisk"]


class TestServiceIntegration:
    def make_service(self):
        registry = CatalogRegistry()
        registry.register("left", [comp_table()])
        registry.register(
            "right",
            [Table("Caps", ["Country", "Capital"],
                   [("France", "Paris"), ("Japan", "Tokyo"), ("Chile", "Santiago")],
                   keys=[("Country",)])],
        )
        return SynthesisService(registry=registry, default_catalog="left")

    def test_learn_fill_per_catalog_matches_direct_synthesizer(self):
        service = self.make_service()
        for name, task, fill_rows in (
            ("left", [(("c4 c3 c1",), "Facebook Apple Microsoft")], [["c2 c5 c6"]]),
            ("right", [(("France",), "Paris")], [["Chile"]]),
        ):
            reply = service.learn(task, catalog=name)
            direct = Synthesizer(
                Catalog(service.registry.get(name).tables())
            ).synthesize(task, k=1)
            assert canonical(reply.result) == canonical(direct)
            assert service.fill(
                reply.result.program.to_dict(), fill_rows, catalog=name
            ) == direct.program.fill(fill_rows)

    def test_concurrent_learns_never_see_torn_catalogs(self):
        """Satellite regression: while the registry swaps snapshots,
        every learn reports a published fingerprint and its result is
        byte-identical to a fresh Synthesizer over that same snapshot --
        old or new, never a mix."""
        registry = CatalogRegistry()
        registry.register("demo", [comp_table()])
        service = SynthesisService(registry=registry, default_catalog="demo")
        published = {registry.get("demo").fingerprint(): registry.get("demo")}
        publish_lock = threading.Lock()
        stop = threading.Event()
        errors = []
        observations = []

        def writer():
            for step in range(8):
                snapshot = registry.append_rows(
                    "demo", "Comp", [(f"w{step}", f"Writer{step}")]
                )
                with publish_lock:
                    published[snapshot.fingerprint()] = snapshot
            stop.set()

        def reader(seed):
            index = 0
            while not stop.is_set() or index == 0:
                index += 1
                ids = [f"c{(seed + index + offset) % 6 + 1}" for offset in range(2)]
                task = [
                    ((" ".join(ids),), " ".join(
                        dict(ROWS)[one] for one in ids
                    ))
                ]
                try:
                    observations.append((task[0], service.learn(task, k=1)))
                except Exception as error:  # noqa: BLE001 -- surface in main thread
                    errors.append(repr(error))

        threads = [threading.Thread(target=reader, args=(n,)) for n in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        assert observations
        # Fingerprints are checked once the writer has recorded every
        # snapshot it appended: a learn may finish on a new snapshot
        # between append_rows returning and the writer recording it.
        # Each observed result must equal a fresh single-catalog
        # Synthesizer over the snapshot its fingerprint names.
        verified = set()
        for (inputs, output), reply in observations:
            snapshot = published.get(reply.catalog_fingerprint)
            assert snapshot is not None, (
                f"unpublished fingerprint {reply.catalog_fingerprint}"
            )
            key = (inputs, output, reply.catalog_fingerprint)
            if key in verified:
                continue
            verified.add(key)
            direct = Synthesizer(Catalog(snapshot.tables())).synthesize(
                [(inputs, output)], k=1
            )
            assert canonical(reply.result) == canonical(direct)

    def test_parallel_appends_learns_fills_across_two_catalogs(self):
        """Satellite: parallel appends + learns + fills over two named
        catalogs end byte-identical to fresh single-catalog engines."""
        service = self.make_service()
        errors = []

        def left_worker():
            try:
                for step in range(4):
                    service.registry.append_rows(
                        "left", "Comp", [(f"L{step}", f"Left{step}")]
                    )
                    reply = service.learn(
                        [(("c1 c2",), "Microsoft Google")], catalog="left"
                    )
                    outputs = service.fill(
                        reply.result.program.to_dict(),
                        [[f"L{step} c3"]],
                        catalog="left",
                    )
                    assert outputs == [f"Left{step} Apple"], outputs
            except Exception as error:  # noqa: BLE001
                errors.append(repr(error))

        def right_worker():
            try:
                for step in range(4):
                    service.registry.append_rows(
                        "right", "Caps", [(f"Country{step}", f"City{step}")]
                    )
                    reply = service.learn(
                        [(("France",), "Paris")], catalog="right"
                    )
                    outputs = service.fill(
                        reply.result.program.to_dict(),
                        [[f"Country{step}"]],
                        catalog="right",
                    )
                    assert outputs == [f"City{step}"], outputs
            except Exception as error:  # noqa: BLE001
                errors.append(repr(error))

        threads = [
            threading.Thread(target=left_worker),
            threading.Thread(target=right_worker),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        # Both catalogs converged; final learns equal fresh engines.
        for name, task in (
            ("left", [(("c1 c2",), "Microsoft Google")]),
            ("right", [(("France",), "Paris")]),
        ):
            reply = service.learn(task, catalog=name)
            direct = Synthesizer(
                Catalog(service.registry.get(name).tables())
            ).synthesize(task, k=1)
            assert canonical(reply.result) == canonical(direct)


class TestBenchsuiteRegistryPinning:
    def test_registry_serving_is_byte_identical_for_every_benchmark(self):
        """Acceptance: learn/fill through a named registry catalog ==
        direct Synthesizer over the same tables, including after an
        append served from the *new* snapshot."""
        registry = CatalogRegistry()
        service = SynthesisService(registry=registry)
        for benchmark in all_benchmarks():
            if not benchmark.tables:
                continue  # table-free problems have nothing to register
            name = f"bench-{benchmark.ident}"
            registry.register(name, benchmark.catalog())
            task = [benchmark.rows[0]]
            reply = service.learn(task, catalog=name)
            direct = Synthesizer(benchmark.catalog()).synthesize(task, k=1)
            assert canonical(reply.result) == canonical(direct), benchmark.name
            rows = [list(inputs) for inputs, _ in benchmark.rows]
            assert service.fill(
                reply.result.program.to_dict(), rows, catalog=name
            ) == direct.program.fill(rows), benchmark.name

            # Append a fresh row, then pin the *new* snapshot's serving.
            target = benchmark.tables[0]
            fresh_row = tuple(
                f"zz-{benchmark.ident}-{column}" for column in target.columns
            )
            registry.append_rows(name, target.name, [fresh_row])
            after = service.learn(task, catalog=name)
            assert after.cache_status == "miss"  # new fingerprint, new key
            extended_tables = registry.get(name).tables()
            direct_after = Synthesizer(Catalog(extended_tables)).synthesize(
                task, k=1
            )
            assert canonical(after.result) == canonical(direct_after), benchmark.name
            assert service.fill(
                after.result.program.to_dict(), rows, catalog=name
            ) == direct_after.program.fill(rows), benchmark.name
