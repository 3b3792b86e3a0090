"""The circuit evaluator against the reference walks it replaced.

Every benchsuite problem is learned through §3.2's interaction (learn
from the first row, add the first row the top program gets wrong,
relearn until it is right on every row).  At every step the engine's
ranked programs, scores, provenance, confidence, structure size,
ambiguity flag and exact count must equal what the standalone reference
walks of ``reference_measures`` give on the same version space, byte for
byte.  Hypothesis-generated structures cover shapes the suite does not:
constant-only keys, unrealizable nodes, self-references, approximate
bindings and empty dags.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from reference_measures import (
    ls_best,
    ls_count,
    ls_size,
    lt_best_all,
    lt_count,
    lt_size,
    lu_best,
    lu_count,
    lu_size,
    lu_top,
    reference_best,
    reference_count,
    reference_size,
)
from repro import Synthesizer
from repro.api.engine import score_expression
from repro.api.result import (
    PROVENANCE_BEST,
    PROVENANCE_ENUMERATED,
    PROVENANCE_TOP_K,
    as_task,
)
from repro.benchsuite import all_benchmarks
from repro.config import DEFAULT_CONFIG
from repro.core.formalism import fold_structures, generate_structures
from repro.lookup.circuit import Circuit
from repro.lookup.dstruct import GenPredicate, GenSelect, NodeStore, RowCondition, VarEntry
from repro.lookup.extract import best_expressions, expression_confidence
from repro.semantic.dstruct import SemanticStructure
from repro.semantic.extract import best_program, top_k_programs
from repro.semantic.measure import count_expressions, structure_size
from repro.syntactic.dag import ConstAtom, Dag, RefAtom, SubStrAtom
from repro.syntactic.positions import generalized_positions
from repro.tables.catalog import Catalog

MAX_EXAMPLES = 5
K = 5
PROBLEMS = all_benchmarks()


def interaction(problem):
    """Yield ``(engine, examples, result)`` at every step of §3.2's loop."""
    engine = Synthesizer(Catalog(problem.tables), background=problem.background or None)
    rows = list(problem.rows)
    given, index = [], 0
    while len(given) < MAX_EXAMPLES:
        given.append(index)
        examples = [rows[i] for i in given]
        result = engine.synthesize(examples, k=K)
        yield engine, examples, result
        wrong = [i for i, (inputs, expected) in enumerate(rows)
                 if result.program.run(inputs) != expected]
        if not wrong:
            return
        index = wrong[0]


def rendered(engine, ranked):
    """``(rank, score, provenance, confidence, program JSON)`` per candidate."""
    return [
        (rank, repr(score), provenance, repr(confidence),
         json.dumps(program.to_dict(), sort_keys=True, ensure_ascii=False))
        for rank, score, provenance, confidence, program in ranked
    ]


def reference_ranking(engine, structure, num_inputs):
    """``Synthesizer._ranked_candidates`` over the reference walks."""
    weights = engine.config.weights
    seen, ordered = set(), []

    def push(score, expr, provenance):
        key = str(expr)
        if key not in seen:
            seen.add(key)
            ordered.append((score, key, expr, provenance, expression_confidence(expr)))

    best = reference_best(engine.language, structure, engine.config)
    push(score_expression(best, weights), best, PROVENANCE_BEST)
    if engine.language == "semantic":
        for score, expr in lu_top(structure, K, engine.config):
            push(score, expr, PROVENANCE_TOP_K)
    if len(ordered) < K:
        for expr in engine.backend.enumerate_programs(structure, limit=K * 4):
            if len(ordered) >= K * 2:
                break
            push(score_expression(expr, weights), expr, PROVENANCE_ENUMERATED)
    head, tail = ordered[0], sorted(ordered[1:], key=lambda item: item[:2])
    return [
        (rank, score, provenance, confidence, engine._wrap(expr, num_inputs))
        for rank, (score, _, expr, provenance, confidence)
        in enumerate([head] + tail[: K - 1], start=1)
    ]


@pytest.mark.parametrize("problem", PROBLEMS, ids=[p.name for p in PROBLEMS])
def test_every_step_matches_reference(problem):
    for engine, examples, result in interaction(problem):
        task = as_task(examples)
        adapter = engine.backend.adapter()
        language = engine.language
        structure = fold_structures(
            adapter,
            generate_structures(adapter, task.examples),
            structure_size=lambda s: reference_size(language, s),
        )
        assert result.structure_size == reference_size(language, structure)
        assert rendered(engine, [
            (c.rank, c.score, c.provenance, c.confidence, c.program) for c in result.programs
        ]) == rendered(engine, reference_ranking(engine, structure, task.num_inputs))
        exact = reference_count(language, structure)
        assert result.ambiguous == (exact > 1)  # read before the count
        assert result.consistent_count == exact


def test_suite_tripwires():
    """The counts the benchmark checks: 59 examples, sizes summing to 580388."""
    examples = sizes = 0
    for problem in PROBLEMS:
        steps = list(interaction(problem))
        examples += len(steps[-1][1])
        sizes += steps[-1][2].structure_size
    assert (examples, sizes) == (59, 580388)


# -- hypothesis-generated circuits ----------------------------------------------
TEXTS = ["ab", "a1 b2", "x-y", "2012-01-05", "Mr. Al"]


@st.composite
def position_sets(draw):
    text = draw(st.sampled_from(TEXTS))
    return generalized_positions(text, draw(st.integers(0, len(text))))


@st.composite
def dags(draw, sources):
    """A dag over 1-4 positions whose atoms draw on ``sources`` ids."""
    length = draw(st.integers(1, 4))
    nodes = tuple(range(length + 1))
    edges = {}
    for i in nodes:
        for j in nodes[i + 1:]:
            atoms = []
            for _ in range(draw(st.integers(0, 4))):
                kind = draw(st.sampled_from(["const", "ref", "substr"]))
                if kind == "const" or not sources:
                    atoms.append(ConstAtom(draw(st.sampled_from(["", "a", "xy", "-"]))))
                elif kind == "ref":
                    atoms.append(RefAtom(draw(st.sampled_from(sources))))
                else:
                    atoms.append(SubStrAtom(draw(st.sampled_from(sources)),
                                            draw(position_sets()), draw(position_sets())))
            if atoms:
                edges[(i, j)] = atoms
    return Dag(nodes, 0, length, edges)


@st.composite
def stores(draw, with_dags):
    """A node store of 1-5 nodes, possibly self-referential.

    Lt stores take constant/node predicates, Lu stores dag predicates.
    """
    size = draw(st.integers(1, 5))
    store = NodeStore(depth_limit=draw(st.integers(0, 3)))
    for node in range(size):
        store.new_node(f"v{node}")
    nodes = list(range(size))
    for node in nodes:
        if draw(st.booleans()):
            store.progs[node].append(VarEntry(draw(st.integers(0, 1))))
        for row in range(draw(st.integers(0, 2))):
            keys = []
            for _ in range(draw(st.integers(1, 2))):
                predicates = []
                for column in ("K", "L")[: draw(st.integers(1, 2))]:
                    if with_dags:
                        predicates.append(GenPredicate(column, dag=draw(dags(nodes))))
                        continue
                    confidence = draw(st.sampled_from([1.0, 1.0, 0.9]))
                    predicates.append(GenPredicate(
                        column,
                        constant=draw(st.sampled_from([None, "c"])),
                        node=draw(st.sampled_from([None] + nodes)),
                        node_strategy="exact" if confidence == 1.0 else "canonical",
                        node_confidence=confidence,
                    ))
                keys.append(predicates)
            table = draw(st.sampled_from(["T", "U"]))
            condition = RowCondition(table, row, keys)
            for column in ("A", "B")[: draw(st.integers(1, 2))]:
                store.progs[node].append(GenSelect(column, table, condition))
    store.target = draw(st.sampled_from(nodes + [None]))
    return store


def ranked_text(ranked):
    return None if ranked is None else (repr(ranked[0]), str(ranked[1]))


@given(stores(with_dags=False))
@settings(max_examples=150, deadline=None)
def test_lookup_store_matches_reference(store):
    circuit = Circuit(store, None)
    assert circuit.count() == lt_count(store)
    assert circuit.count(cap=2) == min(lt_count(store), 2)
    assert circuit.size() == lt_size(store)
    assert {node: ranked_text(r) for node, r in best_expressions(store).items()} == {
        node: ranked_text(r) for node, r in lt_best_all(store).items()
    }


@given(stores(with_dags=True), st.data())
@settings(max_examples=150, deadline=None)
def test_semantic_structure_matches_reference(store, data):
    structure = SemanticStructure(store, data.draw(dags(list(range(len(store.vals))))))
    exact = lu_count(structure)
    assert count_expressions(structure) == exact
    assert Circuit(store, structure.dag).count(cap=2) == min(exact, 2)
    assert structure_size(structure) == lu_size(structure)
    assert str(best_program(structure)) == str(lu_best(structure))
    for k in (1, 2, 3):
        assert [ranked_text(r) for r in top_k_programs(structure, k)] == [
            ranked_text(r) for r in lu_top(structure, k)
        ]


@given(dags([0, 1]))
@settings(max_examples=100, deadline=None)
def test_syntactic_dag_matches_reference(dag):
    circuit = Circuit(None, dag, DEFAULT_CONFIG.weights)
    assert circuit.count() == ls_count(dag)
    assert circuit.count(cap=2) == min(ls_count(dag), 2)
    assert circuit.size() == ls_size(dag)
    best = circuit.best()
    assert str(None if best is None else best[1]) == str(ls_best(dag))
