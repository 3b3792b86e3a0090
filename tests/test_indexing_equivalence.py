"""Indexed hot paths vs naive oracles: identical structures and outputs.

Every ``use_*`` flag of :class:`SynthesisConfig` switches a hot path
between a purpose-built index and the original naive scan.  The flags
must never change *what* is computed: these tests pin indexed and naive
paths to byte-identical version-space structures, lookups and synthesis
results -- on randomized inputs (hypothesis) and on every benchsuite
problem.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Synthesizer
from repro.benchsuite import all_benchmarks, examples_needed
from repro.config import DEFAULT_CONFIG
from repro.lookup.dstruct import (
    GenPredicate,
    GenSelect,
    NodeStore,
    RowCondition,
    VarEntry,
    emptiness_fixpoint,
)
from repro.lookup.generate import generate_lookup
from repro.lookup.intersect import (
    intersect_lookup,
    valid_nodes_fixpoint as lookup_fixpoint,
    valid_nodes_fixpoint_naive as lookup_fixpoint_naive,
)
from repro.semantic.generate import generate_semantic
from repro.semantic.intersect import (
    intersect_semantic,
    valid_nodes_fixpoint as semantic_fixpoint,
    valid_nodes_fixpoint_naive as semantic_fixpoint_naive,
)
from repro.syntactic.dag import ConstAtom, Dag, RefAtom, SubStrAtom
from repro.syntactic.generate import generate_dag
from repro.tables.catalog import Catalog
from repro.tables.table import Table

INDEXED = DEFAULT_CONFIG
NAIVE = DEFAULT_CONFIG.without_indexes()


# -- structural keys (dags/conditions have no __eq__ across objects) --------
def dag_key(dag):
    if dag is None:
        return None
    return (
        dag.nodes,
        dag.source,
        dag.target,
        tuple(sorted((edge, tuple(atoms)) for edge, atoms in dag.edges.items())),
    )


def entry_key(entry):
    if isinstance(entry, VarEntry):
        return ("var", entry.index)
    assert isinstance(entry, GenSelect)
    return (
        "select",
        entry.column,
        entry.table,
        entry.cond.table,
        entry.cond.row,
        tuple(
            tuple(
                (p.column, p.constant, p.node, dag_key(p.dag))
                for p in predicates
            )
            for predicates in entry.cond.keys
        ),
    )


def store_key(store):
    return (
        tuple(store.vals),
        tuple(store.depths),
        store.target,
        tuple(tuple(entry_key(e) for e in progs) for progs in store.progs),
    )


def structure_key(structure):
    return (store_key(structure.store), dag_key(structure.dag))


# -- randomized inputs -------------------------------------------------------
ALPHABET = "ab1-"
cells = st.text(alphabet=ALPHABET, min_size=0, max_size=6)


@st.composite
def catalogs(draw):
    """1-2 small tables with a guaranteed unique Id key column."""
    tables = []
    for t in range(draw(st.integers(min_value=1, max_value=2))):
        n_rows = draw(st.integers(min_value=1, max_value=5))
        rows = [
            (f"k{t}{r}", draw(cells), draw(cells))
            for r in range(n_rows)
        ]
        tables.append(Table(f"T{t}", ["Id", "A", "B"], rows, keys=[("Id",)]))
    return Catalog(tables)


@st.composite
def tasks(draw):
    catalog = draw(catalogs())
    table = catalog.tables()[0]
    # Bias inputs toward strings overlapping real cells so reachability
    # actually fires; outputs toward reachable cells.
    row = table.rows[draw(st.integers(min_value=0, max_value=table.num_rows - 1))]
    state = (draw(cells) + row[0] + draw(cells),)
    output = row[draw(st.integers(min_value=0, max_value=2))] or "x"
    return catalog, state, output


class TestGenerateSemanticEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(task=tasks())
    def test_identical_structures(self, task):
        catalog, state, output = task
        indexed = generate_semantic(catalog, state, output, INDEXED)
        naive = generate_semantic(catalog, state, output, NAIVE)
        assert structure_key(indexed) == structure_key(naive)

    @settings(max_examples=30, deadline=None)
    @given(task=tasks())
    def test_identical_structures_equality_trigger(self, task):
        from dataclasses import replace

        catalog, state, output = task
        indexed = generate_semantic(
            catalog, state, output, replace(INDEXED, relaxed_reachability=False)
        )
        naive = generate_semantic(
            catalog, state, output, replace(NAIVE, relaxed_reachability=False)
        )
        assert structure_key(indexed) == structure_key(naive)


class TestGenerateLookupEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(task=tasks())
    def test_identical_stores(self, task):
        catalog, state, output = task
        # generate_lookup has no indexed/naive split of its own, but it
        # consumes the catalog's cached occurrence tuples; pin it anyway.
        indexed = generate_lookup(catalog, state, output, INDEXED)
        naive = generate_lookup(catalog, state, output, NAIVE)
        assert store_key(indexed) == store_key(naive)


class TestGenerateDagEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(
        sources=st.lists(
            st.text(alphabet=ALPHABET, max_size=8), min_size=0, max_size=4
        ),
        output=st.text(alphabet=ALPHABET, min_size=0, max_size=8),
    )
    def test_identical_dags(self, sources, output):
        numbered = list(enumerate(sources))
        indexed = generate_dag(numbered, output, INDEXED)
        naive = generate_dag(numbered, output, NAIVE)
        assert dag_key(indexed) == dag_key(naive)
        # Atom order inside each edge must match too (dag_key sorts edges
        # but keeps each option list in emission order).
        assert list(indexed.edges.keys()) == list(naive.edges.keys())

    def test_ref_atom_ablation_respected(self):
        from dataclasses import replace

        numbered = [(0, "ab")]
        indexed = generate_dag(numbered, "ab", replace(INDEXED, include_ref_atoms=False))
        naive = generate_dag(numbered, "ab", replace(NAIVE, include_ref_atoms=False))
        assert dag_key(indexed) == dag_key(naive)


class TestTableIndexEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(
        cell_rows=st.lists(
            st.tuples(cells, cells, cells), min_size=1, max_size=12
        ),
        query=st.tuples(cells, cells),
        data=st.data(),
    )
    def test_find_rows_and_lookup_match_naive(self, cell_rows, query, data):
        rows = [(f"id{i}",) + row for i, row in enumerate(cell_rows)]
        table = Table("T", ["Id", "A", "B", "C"], rows, keys=[("Id",)])
        # Mix real cell values into the query half the time.
        conditions = {"A": query[0], "B": query[1]}
        if data.draw(st.booleans()):
            row = rows[data.draw(st.integers(0, len(rows) - 1))]
            conditions = {"A": row[1], "B": row[2]}
        assert table.find_rows(conditions) == table.find_rows_naive(conditions)
        assert table.lookup("C", conditions) == table.lookup(
            "C", conditions, use_index=False
        )

    def test_empty_conditions_match(self):
        table = Table("T", ["A"], [("x",), ("y",)], keys=[("A",)])
        assert table.find_rows({}) == table.find_rows_naive({})

    def test_single_key_lookup_uses_posting(self):
        table = Table("T", ["Id", "V"], [("a", "1"), ("b", "2")], keys=[("Id",)])
        assert table.value_rows("Id", "b") == (1,)
        assert table.value_rows("Id", "zz") == ()
        assert table.lookup("V", {"Id": "b"}) == "2"

    def test_unknown_column_raises_like_naive(self):
        from repro.exceptions import UnknownColumnError

        table = Table("T", ["Id", "V"], [("a", "1"), ("b", "2")], keys=[("Id",)])
        # Even when another condition's posting is empty (which would
        # short-circuit to []), the unknown column must raise, matching
        # the naive scan's contract.
        for conditions in (
            {"Id": "missing-value", "Nope": "x"},
            {"Nope": "x", "Id": "missing-value"},
        ):
            with pytest.raises(UnknownColumnError):
                table.find_rows(conditions)
            with pytest.raises(UnknownColumnError):
                table.find_rows_naive(conditions)


class TestUseTableIndexWiring:
    """SynthesisConfig.use_table_index reaches Select evaluation."""

    def _catalog(self):
        return Catalog(
            [Table("T", ["Id", "V"], [("a", "1"), ("b", "2")], keys=[("Id",)])]
        )

    def test_synthesizer_stamps_catalog(self):
        assert Synthesizer(self._catalog()).catalog.use_table_index is True
        naive = Synthesizer(self._catalog(), config=NAIVE)
        assert naive.catalog.use_table_index is False

    def test_session_stamps_catalog(self):
        from repro.engine.session import SynthesisSession

        session = SynthesisSession(self._catalog(), config=NAIVE)
        assert session.catalog.use_table_index is False

    def test_select_evaluation_honors_flag(self, monkeypatch):
        from repro.core.exprs import Var
        from repro.lookup.ast import Select

        seen = []
        original = Table.find_rows

        def spy(self, conditions, use_index=True):
            seen.append(use_index)
            return original(self, conditions, use_index=use_index)

        monkeypatch.setattr(Table, "find_rows", spy)
        select = Select("V", "T", [("Id", Var(0))])
        for flag in (True, False):
            catalog = self._catalog()
            catalog.use_table_index = flag
            assert select.evaluate(("b",), catalog) == "2"
            assert seen[-1] is flag


class TestFixpointEquivalence:
    def _stores(self, task):
        catalog, state, output = task
        first = generate_semantic(catalog, state, output, INDEXED)
        second = generate_semantic(catalog, (state[0] + "-",), output, INDEXED)
        return first, second

    @settings(max_examples=30, deadline=None)
    @given(task=tasks())
    def test_semantic_worklist_matches_sweeps(self, task):
        first, second = self._stores(task)
        merged = intersect_semantic(first, second, INDEXED)
        if merged is None:
            return
        store = merged.store
        assert semantic_fixpoint(store) == semantic_fixpoint_naive(store)

    @settings(max_examples=30, deadline=None)
    @given(task=tasks())
    def test_lookup_worklist_matches_sweeps(self, task):
        catalog, state, output = task
        first = generate_lookup(catalog, state, output, INDEXED)
        second = generate_lookup(catalog, (state[0] + "-",), output, INDEXED)
        if first.target is None or second.target is None:
            return
        merged = intersect_lookup(first, second, INDEXED)
        if merged is None:
            return
        assert lookup_fixpoint(merged) == lookup_fixpoint_naive(merged)

    @settings(max_examples=30, deadline=None)
    @given(task=tasks())
    def test_intersection_identical_under_both_pruners(self, task):
        # Isolate the worklist flag: hold the product strategy constant
        # (lazy vs naive allocates different product-node slots, covered
        # semantically in test_lazy_intersection_equivalence.py).
        from dataclasses import replace

        sweeps = replace(INDEXED, use_worklist_pruning=False)
        first_i, second_i = self._stores(task)
        first_n, second_n = self._stores(task)
        merged_indexed = intersect_semantic(first_i, second_i, INDEXED)
        merged_naive = intersect_semantic(first_n, second_n, sweeps)
        if merged_indexed is None or merged_naive is None:
            assert merged_indexed is None and merged_naive is None
            return
        assert structure_key(merged_indexed) == structure_key(merged_naive)


# -- hand-built stores for the emptiness fixpoint ---------------------------
def build_store(num_nodes, variables, selects):
    """A store of ``num_nodes`` nodes: ``variables`` get a VarEntry and
    ``selects`` maps a node to the RowConditions of its GenSelects."""
    store = NodeStore()
    for node in range(num_nodes):
        store.new_node(f"n{node}")
    for node in variables:
        store.progs[node].append(VarEntry(0))
    for node, conditions in selects.items():
        for cond in conditions:
            store.progs[node].append(GenSelect("C", "T", cond))
    store.target = 0
    return store


def dag_pred(dag):
    return GenPredicate("C", dag=dag)


def chain_dag(*edge_atoms):
    """A path dag 0 -> 1 -> ... whose i-th edge carries ``edge_atoms[i]``."""
    length = len(edge_atoms)
    edges = {(i, i + 1): list(atoms) for i, atoms in enumerate(edge_atoms)}
    return Dag(range(length + 1), 0, length, edges)


def assert_semantic_oracle(store):
    valid = emptiness_fixpoint(store)
    assert valid == semantic_fixpoint_naive(store)
    assert semantic_fixpoint(store) == valid
    return valid


def assert_lookup_oracle(store):
    valid = emptiness_fixpoint(store)
    assert valid == lookup_fixpoint_naive(store)
    assert lookup_fixpoint(store) == valid
    return valid


@st.composite
def atoms(draw, num_nodes):
    kind = draw(st.sampled_from(["const", "ref", "substr"]))
    if kind == "const":
        return ConstAtom("c")
    source = draw(st.integers(0, num_nodes - 1))
    if kind == "ref":
        return RefAtom(source)
    return SubStrAtom(source, (), ())


@st.composite
def predicate_dags(draw, num_nodes):
    """Small dags with random forward edges; 0 vertices past the source
    gives the trivial-empty dag, and an edge may carry no atoms."""
    last = draw(st.integers(0, 4))
    edges = {}
    for i in range(last + 1):
        for j in range(i + 1, last + 1):
            if draw(st.booleans()):
                edges[(i, j)] = draw(st.lists(atoms(num_nodes), max_size=3))
    return Dag(range(last + 1), 0, last, edges)


def draw_store(draw, num_nodes, predicates):
    """Up to two variables and up to three selects per node, over 1-4
    shared conditions whose keys are drawn from ``predicates``."""
    conditions = [
        RowCondition(
            "T",
            row,
            draw(st.lists(st.lists(predicates, min_size=1, max_size=3), max_size=3)),
        )
        for row in range(draw(st.integers(1, 4)))
    ]
    nodes = range(num_nodes)
    variables = draw(st.sets(st.sampled_from(nodes), max_size=2))
    selects = {
        node: draw(st.lists(st.sampled_from(conditions), max_size=3))
        for node in nodes
    }
    return build_store(num_nodes, variables, selects)


@st.composite
def semantic_stores(draw):
    num_nodes = draw(st.integers(1, 7))
    dags = draw(st.lists(predicate_dags(num_nodes), min_size=1, max_size=4))
    # A None slot is a predicate without a dag, which never holds.
    return draw_store(draw, num_nodes, st.sampled_from(dags + [None]).map(dag_pred))


@st.composite
def lookup_stores(draw):
    num_nodes = draw(st.integers(1, 7))
    predicate = st.builds(
        lambda constant, node: GenPredicate("C", constant=constant, node=node),
        st.sampled_from([None, "s"]),
        st.none() | st.integers(0, num_nodes - 1),
    )
    return draw_store(draw, num_nodes, predicate)


class TestEmptinessFixpointShapes:
    """The counter-driven fixpoint against the naive sweeps on the store
    shapes where counting can go wrong."""

    @settings(max_examples=200, deadline=None)
    @given(store=semantic_stores())
    def test_random_semantic_stores(self, store):
        assert_semantic_oracle(store)

    @settings(max_examples=200, deadline=None)
    @given(store=lookup_stores())
    def test_random_lookup_stores(self, store):
        assert_lookup_oracle(store)

    @settings(max_examples=40, deadline=None)
    @given(
        sharers=st.integers(1, 12),
        width=st.integers(1, 4),
        base=st.sets(st.integers(0, 3), max_size=4),
        keys_per_cond=st.integers(1, 3),
    )
    def test_one_dag_shared_by_many_keys_selects_and_nodes(
        self, sharers, width, base, keys_per_cond
    ):
        # Nodes 0..3 are the atom sources of one multi-edge dag; sharers
        # 4.. each own a select whose every key names that dag.
        dag = chain_dag(*[[RefAtom(i % 4), RefAtom((i + 1) % 4)] for i in range(width)])
        conditions = [
            RowCondition("T", row, [[dag_pred(dag)] for _ in range(keys_per_cond)])
            for row in range(sharers)
        ]
        selects = {
            4 + index: [cond, conditions[(index + 1) % sharers]]
            for index, cond in enumerate(conditions)
        }
        store = build_store(4 + sharers, base, selects)
        valid = assert_semantic_oracle(store)
        enabled = all(i % 4 in base or (i + 1) % 4 in base for i in range(width))
        assert {node for node in valid if node >= 4} == (set(selects) if enabled else set())

    @settings(max_examples=40, deadline=None)
    @given(
        copies=st.integers(2, 4),
        source_valid=st.booleans(),
        other_dag=st.booleans(),
    )
    def test_key_listing_the_same_dag_twice(self, copies, source_valid, other_dag):
        # The key waits for one distinct dag, not ``copies`` of them: a
        # per-predicate count would never reach zero.
        dag = chain_dag([RefAtom(1)], [SubStrAtom(1, (), ())])
        key = [dag_pred(dag)] * copies
        if other_dag:
            key.append(dag_pred(chain_dag([ConstAtom("x")])))
        store = build_store(
            2, {1} if source_valid else set(), {0: [RowCondition("T", 0, [key])]}
        )
        valid = assert_semantic_oracle(store)
        assert (0 in valid) == source_valid

    @settings(max_examples=20, deadline=None)
    @given(referrers=st.integers(1, 5))
    def test_trivial_empty_dag_holds_without_any_valid_node(self, referrers):
        trivial = Dag((0,), 0, 0, {})
        cond = RowCondition("T", 0, [[dag_pred(trivial), dag_pred(trivial)]])
        store = build_store(referrers, set(), {n: [cond] for n in range(referrers)})
        assert assert_semantic_oracle(store) == set(range(referrers))

    @settings(max_examples=30, deadline=None)
    @given(
        length=st.integers(1, 5),
        broken=st.none() | st.integers(0, 4),
    )
    def test_paths_of_const_atoms_only(self, length, broken):
        # A const-only path holds with no valid node at all; an edge
        # with no atoms breaks it.
        edge_atoms = [[ConstAtom(str(i))] for i in range(length)]
        if broken is not None and broken < length:
            edge_atoms[broken] = []
        store = build_store(
            1, set(), {0: [RowCondition("T", 0, [[dag_pred(chain_dag(*edge_atoms))]])]}
        )
        valid = assert_semantic_oracle(store)
        assert valid == ({0} if broken is None or broken >= length else set())

    @settings(max_examples=20, deadline=None)
    @given(with_other_key=st.booleans())
    def test_semantic_predicate_without_dag_never_holds(self, with_other_key):
        keys = [[GenPredicate("C"), dag_pred(chain_dag([RefAtom(1)]))]]
        if with_other_key:
            keys.append([dag_pred(chain_dag([RefAtom(1)]))])
        store = build_store(2, {1}, {0: [RowCondition("T", 0, keys)]})
        assert assert_semantic_oracle(store) == ({0, 1} if with_other_key else {1})

    @settings(max_examples=20, deadline=None)
    @given(with_other_key=st.booleans())
    def test_lookup_predicate_without_constant_or_node_never_holds(self, with_other_key):
        keys = [[GenPredicate("C", constant="s"), GenPredicate("D")]]
        if with_other_key:
            keys.append([GenPredicate("C", node=1)])
        store = build_store(2, {1}, {0: [RowCondition("T", 0, keys)]})
        assert assert_lookup_oracle(store) == ({0, 1} if with_other_key else {1})

    @settings(max_examples=30, deadline=None)
    @given(cycle=st.integers(1, 5), language=st.sampled_from(["semantic", "lookup"]))
    def test_self_and_mutual_references_without_a_base_stay_invalid(
        self, cycle, language
    ):
        # Node i needs node (i + 1) mod cycle: a self-loop for cycle=1,
        # a ring otherwise; no VarEntry anywhere, so nothing is valid.
        selects = {}
        for node in range(cycle):
            successor = (node + 1) % cycle
            if language == "semantic":
                predicate = dag_pred(chain_dag([RefAtom(successor)]))
            else:
                predicate = GenPredicate("C", node=successor)
            selects[node] = [RowCondition("T", node, [[predicate]])]
        store = build_store(cycle, set(), selects)
        if language == "semantic":
            assert assert_semantic_oracle(store) == set()
        else:
            assert assert_lookup_oracle(store) == set()

    @settings(max_examples=30, deadline=None)
    @given(valid_first=st.booleans(), edges_before=st.integers(0, 3))
    def test_edge_with_two_sources_only_one_valid(self, valid_first, edges_before):
        # Node 1 is a variable, node 2 only references itself.  The
        # shared edge's atoms come from both; node 1 alone enables it.
        good, bad = RefAtom(1), SubStrAtom(2, (), ())
        mixed = [good, bad] if valid_first else [bad, good]
        edge_atoms = [[RefAtom(1)]] * edges_before + [mixed]
        dag = chain_dag(*edge_atoms)
        store = build_store(
            3,
            {1},
            {
                0: [RowCondition("T", 0, [[dag_pred(dag)]])],
                2: [RowCondition("T", 2, [[dag_pred(chain_dag([bad]))]])],
            },
        )
        assert assert_semantic_oracle(store) == {0, 1}


def test_benchsuite_fixpoint_matches_sweeps_at_every_step(monkeypatch):
    """Every store pruned in the §3.2 interaction of all 50 problems
    (Lu through ``semantic``, Lt also through ``lookup``) gets the naive
    sweeps' valid set, and the default path never walks a dag per check."""
    import repro.lookup.intersect as lookup_intersect
    import repro.semantic.intersect as semantic_intersect

    walks = []
    original_walk = semantic_intersect._dag_has_valid_path

    def counting_walk(dag, valid):
        walks.append(dag)
        return original_walk(dag, valid)

    monkeypatch.setattr(semantic_intersect, "_dag_has_valid_path", counting_walk)
    checked = {"semantic": 0, "lookup": 0}

    def oracle(module, language):
        default = module.valid_nodes_fixpoint

        def checked_fixpoint(store, use_worklist=True):
            assert use_worklist, "default config selects the counter propagation"
            walked = len(walks)
            valid = default(store)
            assert len(walks) == walked
            assert valid == module.valid_nodes_fixpoint_naive(store)
            checked[language] += 1
            return valid

        monkeypatch.setattr(module, "valid_nodes_fixpoint", checked_fixpoint)

    oracle(semantic_intersect, "semantic")
    oracle(lookup_intersect, "lookup")
    for bench in all_benchmarks():
        languages = ["semantic"] + (["lookup"] if bench.language_class == "Lt" else [])
        for language in languages:
            outcome = examples_needed(bench, language=language)
            assert outcome.converged or language == "lookup", bench.name
    # Problems needing one example prune nothing; the rest must be seen.
    assert checked["semantic"] >= 8
    assert checked["lookup"] >= 1


@pytest.mark.parametrize(
    "bench", all_benchmarks(), ids=lambda bench: bench.name
)
def test_benchsuite_problem_equivalence(bench):
    """Indexed and naive synthesis agree on every benchsuite problem."""
    catalog = bench.catalog()
    examples = list(bench.rows[:2])
    indexed = Synthesizer(catalog, config=INDEXED).synthesize(examples, k=3)
    naive = Synthesizer(catalog, config=NAIVE).synthesize(examples, k=3)
    assert str(indexed.program) == str(naive.program)
    assert indexed.consistent_count == naive.consistent_count
    assert indexed.structure_size == naive.structure_size
    assert [(c.rank, c.score, str(c.program)) for c in indexed.programs] == [
        (c.rank, c.score, str(c.program)) for c in naive.programs
    ]
