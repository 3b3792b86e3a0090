"""Unit tests for the Dag data structure and the reference dag walks.

Counting, sizing and best-path search run through
:mod:`repro.lookup.circuit`; the standalone walks in
``reference_measures`` are its equivalence oracles, checked here.
"""

import pytest

from reference_measures import best_path, count_paths, dag_structure_size
from repro.lookup.circuit import Circuit
from repro.syntactic.dag import ConstAtom, Dag, RefAtom


def linear_dag():
    """0 -a-> 1 -b-> 2 with an extra shortcut 0 -ab-> 2."""
    edges = {
        (0, 1): [ConstAtom("a")],
        (1, 2): [ConstAtom("b"), RefAtom(0)],
        (0, 2): [ConstAtom("ab")],
    }
    return Dag((0, 1, 2), 0, 2, edges)


class TestBasics:
    def test_out_neighbors(self):
        dag = linear_dag()
        assert dag.out_neighbors()[0] == [1, 2]
        assert dag.out_neighbors()[1] == [2]

    def test_topological_order(self):
        order = linear_dag().topological_order()
        assert order.index(0) < order.index(1) < order.index(2)

    def test_cycle_detection(self):
        dag = Dag((0, 1), 0, 1, {(0, 1): [ConstAtom("x")], (1, 0): [ConstAtom("y")]})
        with pytest.raises(ValueError):
            dag.topological_order()

    def test_has_path(self):
        assert linear_dag().has_path()

    def test_no_path(self):
        dag = Dag((0, 1, 2), 0, 2, {(0, 1): [ConstAtom("a")]})
        assert not dag.has_path()

    def test_trivial_empty_dag(self):
        dag = Dag((0,), 0, 0, {})
        assert dag.is_trivial_empty and dag.has_path()


class TestCountPaths:
    def test_two_paths(self):
        # Path 0-1-2 contributes 1*2 = 2; path 0-2 contributes 1.
        assert count_paths(linear_dag(), lambda atom: 1 if isinstance(atom, ConstAtom) else 1) == 3

    def test_atom_multiplicity(self):
        count = count_paths(linear_dag(),
            lambda atom: 5 if isinstance(atom, RefAtom) else 1
        )
        # 0-1-2: 1 * (1 + 5) = 6; 0-2: 1 -> total 7.
        assert count == 7

    def test_trivial_empty_counts_one(self):
        assert count_paths(Dag((0,), 0, 0, {}), lambda atom: 1) == 1

    def test_unreachable_target_counts_zero(self):
        dag = Dag((0, 1, 2), 0, 2, {(0, 1): [ConstAtom("a")]})
        assert count_paths(dag, lambda atom: 1) == 0

    def test_circuit_agrees(self):
        # Ls semantics: a reference is one expression, so 3 as above.
        assert Circuit(None, linear_dag()).count() == 3
        assert Circuit(None, linear_dag()).count(cap=2) == 2
        assert Circuit(None, Dag((0,), 0, 0, {})).count() == 1
        assert Circuit(None, Dag((0, 1, 2), 0, 2, {(0, 1): [ConstAtom("a")]})).count() == 0
        assert Circuit(None, linear_dag()).size() == 4


class TestStructureSize:
    def test_sums_atom_sizes(self):
        assert dag_structure_size(linear_dag(), lambda atom: 1) == 4

    def test_custom_sizer(self):
        size = dag_structure_size(linear_dag(),
            lambda atom: len(atom.text) if isinstance(atom, ConstAtom) else 10
        )
        assert size == 1 + (1 + 10) + 2


class TestBestPath:
    def test_picks_cheapest(self):
        def atom_best(atom):
            if isinstance(atom, ConstAtom):
                return (10.0, atom.text)
            return (1.0, "ref")

        cost, parts = best_path(linear_dag(), atom_best, edge_base=0.0)
        # 0-1-2 via ref: 10 + 1 = 11; 0-2 const: 10 -> shortcut wins.
        assert cost == 10.0
        assert parts == ["ab"]

    def test_edge_base_prefers_fewer_edges(self):
        def atom_best(atom):
            return (0.0, atom)

        cost, parts = best_path(linear_dag(), atom_best, edge_base=5.0)
        assert len(parts) == 1  # single-edge path

    def test_unrealizable_atoms_skipped(self):
        def atom_best(atom):
            if isinstance(atom, ConstAtom) and atom.text == "ab":
                return None
            return (1.0, atom)

        cost, parts = best_path(linear_dag(), atom_best, edge_base=0.0)
        assert len(parts) == 2

    def test_none_when_nothing_realizable(self):
        assert best_path(linear_dag(), lambda atom: None, edge_base=0.0) is None


class TestEnumerateAndPrune:
    def test_enumerate_paths(self):
        paths = list(linear_dag().enumerate_paths())
        assert [(0, 2)] in paths and [(0, 1), (1, 2)] in paths

    def test_enumerate_respects_limit(self):
        assert len(list(linear_dag().enumerate_paths(limit=1))) == 1

    def test_prune_keeps_valid(self):
        pruned = linear_dag().pruned(lambda atom: True)
        assert pruned is not None and len(pruned.edges) == 3

    def test_prune_drops_dead_branch(self):
        pruned = linear_dag().pruned(lambda atom: not isinstance(atom, ConstAtom))
        # Only RefAtom on (1,2) is valid; no complete path remains (0->1 died).
        assert pruned is None

    def test_prune_removes_off_path_nodes(self):
        edges = {
            (0, 1): [ConstAtom("a")],
            (1, 2): [ConstAtom("b")],
            (0, 3): [ConstAtom("c")],  # 3 is a dead end
        }
        dag = Dag((0, 1, 2, 3), 0, 2, edges)
        pruned = dag.pruned(lambda atom: True)
        assert pruned is not None
        assert 3 not in pruned.nodes


class TestMemoizedTraversalCaches:
    def test_topological_order_is_cached(self):
        dag = linear_dag()
        first = dag.topological_order()
        assert dag.topological_order() is first

    def test_edge_mutation_invalidates(self):
        dag = linear_dag()
        order = dag.topological_order()
        out = dag.out_neighbors()
        del dag.edges[(0, 2)]  # edge count changes
        assert dag.topological_order() is not order
        assert 2 not in dag.out_neighbors()[0]
        assert dag.out_neighbors() is not out

    def test_explicit_invalidation_for_same_count_mutations(self):
        dag = linear_dag()
        dag.out_neighbors()
        del dag.edges[(0, 1)]
        dag.edges[(0, 2)] = [ConstAtom("swap")]  # same count: needs the hook
        dag.invalidate_caches()
        assert 2 in dag.out_neighbors()[0]
        assert 1 not in dag.out_neighbors()[0]

    def test_count_paths_unchanged_by_caching(self):
        dag = linear_dag()
        first = count_paths(dag, lambda atom: 1)
        assert count_paths(dag, lambda atom: 1) == first
