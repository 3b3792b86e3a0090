"""``SynthesisResult.consistent_count`` is computed on first read only.

The exact Figure 11(a) count is a bignum walk of the whole version space
(millions of bits on some benchsuite problems) that the learn loop never
reads.  ``synthesize`` must not take it, ``ambiguous`` must answer from a
count capped at 2, and every consumer that does read it -- wire replies,
worker-pool payloads, pickles -- must still carry the same exact int.
"""

import math
import pickle
import sys
import threading

import pytest

from repro.api.engine import Synthesizer, result_to_payload
from repro.api.result import DeferredCount, count_log10
from repro.lookup.circuit import Circuit
from repro.semantic.language import SemanticLanguage
from repro.service import SynthesisService, WorkerPool
from repro.tables.catalog import Catalog
from repro.tables.table import Table

ROWS = [("c1", "Microsoft"), ("c2", "Google"), ("c3", "Apple"), ("c4", "Facebook")]
EXAMPLES = [(("c4 c3 c1",), "Facebook Apple Microsoft")]


def make_catalog():
    return Catalog([Table("Comp", ["Id", "Name"], ROWS, keys=[("Id",)])])


@pytest.fixture()
def exact_calls(monkeypatch):
    """Count every exact (uncapped) count the semantic backend takes."""
    calls = []
    count_expressions = SemanticLanguage.count_expressions
    circuit_count = Circuit.count

    def counting_backend(self, structure):
        calls.append("backend")
        return count_expressions(self, structure)

    def counting_circuit(self, cap=None):
        if cap is None:
            calls.append("circuit")
        return circuit_count(self, cap)

    monkeypatch.setattr(SemanticLanguage, "count_expressions", counting_backend)
    monkeypatch.setattr(Circuit, "count", counting_circuit)
    return calls


class TestLaziness:
    def test_synthesize_does_not_count(self, exact_calls):
        result = Synthesizer(make_catalog()).synthesize(EXAMPLES)
        assert result.program(("c4 c3 c1",)) == "Facebook Apple Microsoft"
        assert exact_calls == []

    def test_ambiguous_does_not_count(self, exact_calls):
        result = Synthesizer(make_catalog()).synthesize(EXAMPLES)
        assert result.ambiguous is True
        assert exact_calls == []

    def test_first_read_counts_once_and_drops_the_version_space(self, exact_calls):
        engine = Synthesizer(make_catalog())
        result = engine.synthesize(EXAMPLES)
        assert isinstance(result._count, DeferredCount)
        count = result.consistent_count
        assert exact_calls == ["backend", "circuit"]
        assert result.consistent_count == count
        assert exact_calls == ["backend", "circuit"]
        assert result._count == count and not isinstance(result._count, DeferredCount)
        structure = engine.backend.adapter().generate(*EXAMPLES[0])
        assert count == SemanticLanguage(engine.catalog).count_expressions(structure) > 1
        assert result.ambiguous is True

    def test_ambiguous_without_backend_support_falls_back_to_the_count(self):
        class Plain:
            def count_expressions(self, structure):
                return structure

        assert DeferredCount(Plain(), 1).more_than_one() is False
        assert DeferredCount(Plain(), 7).more_than_one() is True


def test_concurrent_readers_share_one_result_and_structure():
    """Threads racing on one result's count and one structure's ranking memo."""
    engine = Synthesizer(make_catalog())
    expected = engine.synthesize(EXAMPLES)
    exact = expected.consistent_count
    best = str(expected.program.expr)
    top = [str(expr) for _, expr in engine.backend.top_programs(
        engine.backend.adapter().generate(*EXAMPLES[0]), k=3)]
    result = engine.synthesize(EXAMPLES)
    structure = engine.backend.adapter().generate(*EXAMPLES[0])
    seen = []
    barrier = threading.Barrier(8)

    def read():
        barrier.wait(timeout=30)
        ranked = [str(expr) for _, expr in engine.backend.top_programs(structure, k=3)]
        seen.append((result.consistent_count, result.ambiguous,
                     str(engine.backend.best_program(structure)), ranked))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [(exact, True, best, top)] * 8


class TestConsumersCarryTheExactCount:
    def exact(self):
        return Synthesizer(make_catalog()).synthesize(EXAMPLES).consistent_count

    def test_service_wire_reply(self):
        result, _ = SynthesisService(make_catalog()).learn(EXAMPLES)
        reply = result.to_dict()
        exact = self.exact()
        assert reply["consistent_count"] == (exact if exact.bit_length() <= 53 else None)
        assert reply["consistent_count_log10"] == round(count_log10(exact), 3)
        assert reply["ambiguous"] is (exact > 1)

    def test_payload_and_pickle(self):
        engine = Synthesizer(make_catalog())
        exact = self.exact()
        assert result_to_payload(engine.synthesize(EXAMPLES))["consistent_count"] == exact
        assert engine.result_from_payload(
            result_to_payload(engine.synthesize(EXAMPLES))
        ).consistent_count == exact
        assert pickle.loads(pickle.dumps(engine.synthesize(EXAMPLES))).consistent_count == exact

    def test_worker_pool_payload(self):
        catalog = make_catalog().freeze()
        with WorkerPool(1, catalogs=[catalog]) as pool:
            payload = pool.submit(catalog, EXAMPLES).result(timeout=60)
        assert payload["consistent_count"] == self.exact()


class TestCountLog10:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (1, 0.0),
            (10**300, 300.0),
            (2**5000, 5000 * math.log10(2)),
            (3 * 10**400, 400 + math.log10(3)),
            (7 * 2**3_000_000, math.log10(7) + 3_000_000 * math.log10(2)),
        ],
        ids=["1", "1e300", "2^5000", "3e400", "7*2^3000000"],
    )
    def test_known_powers(self, value, expected):
        assert count_log10(value) == pytest.approx(expected, abs=1e-9)

    def test_non_positive(self):
        assert count_log10(0) == float("-inf")
