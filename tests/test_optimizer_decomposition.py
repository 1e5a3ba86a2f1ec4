"""Tests for the rule-based optimizer (§3.3) and Algorithm 2."""

import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    OptimizerDecision,
    VariableGroup,
    choose_strategy,
    decompose,
    merge_groups,
)
from repro.core.decomposition import component_labels, group_subgraph, plan_groups
from repro.graph import FactorGraph, FactorGraphDelta
from repro.inference import ExactInference

from tests.helpers import chain_ising_graph, voting_graph
from tests.reference import factors as reference
from tests.test_incremental_compile import seed_graph
from tests.test_scan_plan import random_graph


class TestOptimizerRules:
    def test_rule1_no_structure_change(self):
        decision = choose_strategy(FactorGraphDelta(), samples_remaining=100)
        assert decision.strategy == "sampling"
        assert decision.rule == 1

    def test_rule2_evidence_goes_variational(self):
        delta = FactorGraphDelta(evidence_updates={3: True})
        decision = choose_strategy(delta, samples_remaining=100)
        assert decision.strategy == "variational"
        assert decision.rule == 2

    def test_rule2_beats_rule1_for_pure_supervision(self):
        """Supervision changes evidence but not structure: variational."""
        delta = FactorGraphDelta(evidence_updates={0: False})
        assert not delta.changes_structure
        assert choose_strategy(delta, 100).strategy == "variational"

    def test_rule3_new_features_go_sampling(self):
        delta = FactorGraphDelta(new_weight_entries=[("f", 0.0, False)])
        delta.new_factors.add_bias(0, 0)
        decision = choose_strategy(delta, samples_remaining=100)
        assert decision.strategy == "sampling"
        assert decision.rule == 3

    def test_rule4_exhaustion_goes_variational(self):
        decision = choose_strategy(FactorGraphDelta(), samples_remaining=0)
        assert decision.strategy == "variational"
        assert decision.rule == 4


def star_graph(num_leaves=6):
    """One active hub (0) with independent leaves — decomposes fully."""
    fg = FactorGraph()
    hub = fg.add_variable(name="hub")
    wid = fg.weights.intern("J", initial=0.5)
    for i in range(num_leaves):
        leaf = fg.add_variable(name=f"leaf{i}")
        fg.add_ising_factor(wid, hub, leaf)
    return fg


class TestDecomposition:
    def test_star_decomposes_into_leaves(self):
        fg = star_graph(5)
        groups = decompose(fg, active_vars=[0])
        assert len(groups) == 5
        for group in groups:
            assert group.active == frozenset({0})
            assert len(group.inactive) == 1

    def test_merge_collapses_identical_boundaries(self):
        fg = star_graph(5)
        groups = merge_groups(decompose(fg, active_vars=[0]))
        # All leaves share the hub boundary -> one merged group.
        assert len(groups) == 1
        assert len(groups[0].inactive) == 5

    def test_merge_nested_boundaries(self):
        a = VariableGroup(inactive=frozenset({10}), active=frozenset({0}))
        b = VariableGroup(inactive=frozenset({11}), active=frozenset({0, 1}))
        c = VariableGroup(inactive=frozenset({12}), active=frozenset({2}))
        merged = merge_groups([a, b, c])
        assert len(merged) == 2
        sizes = sorted(len(g.inactive) for g in merged)
        assert sizes == [1, 2]

    def test_chain_with_active_cut(self):
        """An active variable in the middle of a chain cuts it in two."""
        fg = chain_ising_graph(7)
        groups = decompose(fg, active_vars=[3])
        assert len(groups) == 2
        inactive_sets = sorted(sorted(g.inactive) for g in groups)
        assert inactive_sets == [[0, 1, 2], [4, 5, 6]]

    def test_groups_partition_inactive_vars(self):
        fg = chain_ising_graph(10)
        groups = plan_groups(fg, active_vars=[2, 7])
        seen = set()
        for g in groups:
            assert not (seen & g.inactive)
            seen |= g.inactive
        assert seen == set(range(10)) - {2, 7}

    def test_conditional_independence_of_groups(self):
        """Clamping the active boundary makes group marginals equal to the
        full-graph conditionals — the premise of per-group materialization."""
        fg = chain_ising_graph(5, coupling=0.8, bias=0.3)
        groups = decompose(fg, active_vars=[2])
        full = fg.copy()
        full.set_evidence(2, True)
        exact_full = ExactInference(full).marginals()
        for group in groups:
            sub, local_of = group_subgraph(fg, group)
            sub.set_evidence(local_of[2], True)
            exact_sub = ExactInference(sub).marginals()
            for v in group.inactive:
                assert exact_sub[local_of[v]] == pytest.approx(
                    exact_full[v], abs=1e-9
                )

    def test_group_subgraph_structure(self):
        fg = star_graph(4)
        groups = merge_groups(decompose(fg, active_vars=[0]))
        sub, local_of = group_subgraph(fg, groups[0])
        assert sub.num_vars == 5
        assert sub.num_factors == 4
        assert local_of[0] in range(5)

    def test_no_active_vars_single_group_per_component(self):
        fg = chain_ising_graph(4)
        groups = decompose(fg, active_vars=[])
        assert len(groups) == 1
        assert groups[0].active == frozenset()

    def test_active_id_outside_the_graph_raises(self):
        """An interest area naming a variable the graph does not have is a
        typed error naming the first such id, not a silently smaller
        interest area."""
        fg = chain_ising_graph(20)
        with pytest.raises(ValueError, match="active variable 999 "):
            decompose(fg, [3, 999, -5])
        with pytest.raises(ValueError, match="active variable -5 "):
            plan_groups(fg, np.array([-5, 3]))
        with pytest.raises(ValueError, match="active variable 20 "):
            decompose(fg, {20})


def union_find_labels(num_vars, pairs) -> list:
    """Each variable's component's smallest id, by union–find."""
    parent = list(range(num_vars))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in pairs:
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    return [find(v) for v in range(num_vars)]


class TestComponentLabels:
    @given(
        num_vars=st.integers(1, 60),
        edges=st.lists(st.tuples(st.integers(0, 59), st.integers(0, 59)), max_size=80),
    )
    @settings(max_examples=200, deadline=None)
    def test_labels_are_the_union_find_minimum(self, num_vars, edges):
        pairs = [(a, b) for a, b in edges if a < num_vars and b < num_vars]
        labels = component_labels(num_vars, np.array(pairs, dtype=np.int64))
        assert labels.tolist() == union_find_labels(num_vars, pairs)

    @pytest.mark.parametrize("order", ["forward", "backward", "shuffled"])
    def test_long_paths(self, order):
        n = 5000
        path = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
        if order == "backward":
            path = path[::-1, ::-1]
        elif order == "shuffled":
            path = np.random.default_rng(0).permutation(n)[path]
        assert not component_labels(n, path).any()


def decomposition_cases() -> dict:
    """This file's graphs (and two with rule factors) under the interest
    areas the tests above use."""
    return {
        "star5": (star_graph(5), [0]),
        "star4": (star_graph(4), [0]),
        "chain7": (chain_ising_graph(7), [3]),
        "chain10": (chain_ising_graph(10), [2, 7]),
        "chain5": (chain_ising_graph(5), [2]),
        "chain4": (chain_ising_graph(4), []),
        "voting": (voting_graph(3, 3), [0]),
        "mixed24": (seed_graph(0), [0, 5, 9, 13]),
    }


def shown(groups) -> list:
    return [(sorted(g.inactive), sorted(g.active)) for g in groups]


#: ``(decompose, merge_groups ∘ decompose)`` per case, as the
#: ``networkx`` implementation this one replaced returned them.
PINNED = {
    "star5": (
        [([1], [0]), ([2], [0]), ([3], [0]), ([4], [0]), ([5], [0])],
        [([1, 2, 3, 4, 5], [0])],
    ),
    "star4": (
        [([1], [0]), ([2], [0]), ([3], [0]), ([4], [0])],
        [([1, 2, 3, 4], [0])],
    ),
    "chain7": (
        [([0, 1, 2], [3]), ([4, 5, 6], [3])],
        [([0, 1, 2, 4, 5, 6], [3])],
    ),
    "chain10": (
        [([0, 1], [2]), ([3, 4, 5, 6], [2, 7]), ([8, 9], [7])],
        [([0, 1, 3, 4, 5, 6, 8, 9], [2, 7])],
    ),
    "chain5": ([([0, 1], [2]), ([3, 4], [2])], [([0, 1, 3, 4], [2])]),
    "chain4": ([([0, 1, 2, 3], [])], [([0, 1, 2, 3], [])]),
    "voting": (
        [([1, 2, 3], [0]), ([4, 5, 6], [0])],
        [([1, 2, 3, 4, 5, 6], [0])],
    ),
    "mixed24": (
        [
            (
                [1, 2, 3, 4, 6, 7, 8, 10, 11, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23],
                [0, 5, 9, 13],
            ),
            ([12], [0, 9]),
        ],
        [
            (
                [1, 2, 3, 4, 6, 7, 8, 10, 11, 12, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23],
                [0, 5, 9, 13],
            )
        ],
    ),
}


def check_pinned_decompositions() -> None:
    for name, (graph, active) in decomposition_cases().items():
        groups = decompose(graph, active)
        assert (shown(groups), shown(merge_groups(groups))) == PINNED[name], name


def assert_subgraph_is_the_record_walk(graph, group) -> None:
    ours, ours_local = group_subgraph(graph, group)
    theirs, their_local = reference.group_subgraph(graph, group)
    assert ours_local == their_local
    assert ours.num_vars == theirs.num_vars
    assert [ours.name_of(v) for v in range(ours.num_vars)] == [
        theirs.name_of(v) for v in range(theirs.num_vars)
    ]
    assert dict(ours.evidence) == dict(theirs.evidence)
    assert list(ours.weights.items()) == list(theirs.weights.items())
    expected = theirs.factor_table().columns()
    for name, column in ours.factor_table().columns().items():
        assert column.dtype == expected[name].dtype, name
        assert column.tolist() == expected[name].tolist(), name


class TestGroupSubgraphIsTheRecordWalk:
    """``group_subgraph`` takes the table rows whose scope lies inside a
    group and renumbers their variables: the same rows, in the same
    order, as the record walk in ``tests/reference/factors``."""

    @pytest.mark.parametrize("name", sorted(decomposition_cases()))
    def test_decomposition_cases(self, name):
        graph, active = decomposition_cases()[name]
        for group in decompose(graph, active) + plan_groups(graph, active):
            assert_subgraph_is_the_record_walk(graph, group)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_graphs_with_rule_factors(self, seed):
        rng = np.random.default_rng(seed)
        num_vars = int(rng.choice([6, 12, 40]))
        graph = random_graph(rng, num_vars, int(rng.integers(4, 30)))
        active = np.flatnonzero(rng.random(num_vars) < 0.3).tolist()
        groups = decompose(graph, active) + plan_groups(graph, active)
        assert groups
        for group in groups:
            assert_subgraph_is_the_record_walk(graph, group)


class TestCleanInstall:
    def test_pinned_outputs(self):
        check_pinned_decompositions()

    def test_package_imports_and_decomposes_without_networkx(self):
        """``pyproject.toml`` declares numpy and scipy: on a runner with
        nothing else, ``repro.core`` must import and Algorithm 2 must
        return what it returned through ``networkx``."""
        root = pathlib.Path(__file__).resolve().parents[1]
        script = textwrap.dedent(
            """
            import sys
            sys.modules["networkx"] = None  # any import of it now raises
            import repro.core
            from repro.core import IncrementalEngine  # the packaging smoke
            from tests.test_optimizer_decomposition import check_pinned_decompositions
            check_pinned_decompositions()
            assert "networkx" not in {name.split(".")[0] for name, m in sys.modules.items() if m}
            print("clean")
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=root,
            env={"PYTHONPATH": f"{root / 'src'}:{root}", "PATH": ""},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "clean"
