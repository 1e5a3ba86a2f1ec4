"""Unit and property tests for the factor-graph model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import FactorGraph, Semantics, WeightStore

from tests.helpers import implication_graph, random_factor, voting_graph
from tests.reference.factors import add_factor, factor_energy


class TestWeightStore:
    def test_intern_returns_stable_ids(self):
        store = WeightStore()
        a = store.intern("a", initial=1.5)
        b = store.intern("b", initial=-0.5)
        assert a != b
        assert store.intern("a") == a
        assert store.value(a) == 1.5

    def test_reintern_does_not_overwrite_value(self):
        store = WeightStore()
        a = store.intern("a", initial=1.0)
        store.set_value(a, 2.0)
        assert store.intern("a", initial=99.0) == a
        assert store.value(a) == 2.0

    def test_fixed_flag_excluded_from_learnable(self):
        store = WeightStore()
        a = store.intern("soft", initial=0.0)
        store.intern("hard", initial=10.0, fixed=True)
        assert store.learnable_ids() == [a]

    def test_copy_is_independent(self):
        store = WeightStore()
        a = store.intern("a", initial=1.0)
        clone = store.copy()
        clone.set_value(a, 5.0)
        assert store.value(a) == 1.0
        assert clone.value(a) == 5.0
        # New interning in the clone must not leak back.
        clone.intern("b")
        assert store.id_for("b") is None

    def test_values_array_roundtrip(self):
        store = WeightStore()
        store.intern("a", initial=1.0)
        store.intern("b", initial=2.0)
        arr = store.values_array()
        assert np.allclose(arr, [1.0, 2.0])
        store.set_values_array([3.0, 4.0])
        assert store.value(0) == 3.0

    def test_values_array_shape_checked(self):
        store = WeightStore()
        store.intern("a")
        with pytest.raises(ValueError):
            store.set_values_array([1.0, 2.0])

    def test_key_lookup(self):
        store = WeightStore()
        a = store.intern(("rule", "feat"), initial=0.5)
        assert store.key_for(a) == ("rule", "feat")
        assert store.id_for(("rule", "feat")) == a
        assert dict(store.items()) == {("rule", "feat"): 0.5}


class TestGraphConstruction:
    def test_variable_ids_sequential(self):
        fg = FactorGraph()
        assert fg.add_variable() == 0
        assert fg.add_variable() == 1
        assert list(fg.add_variables(3)) == [2, 3, 4]
        assert fg.num_vars == 5

    def test_evidence_tracking(self):
        fg = FactorGraph()
        v = fg.add_variable(evidence=True)
        u = fg.add_variable()
        assert fg.is_evidence(v) and not fg.is_evidence(u)
        assert fg.evidence_value(v) is True
        assert fg.free_variables() == [u]
        fg.clear_evidence(v)
        assert fg.free_variables() == [v, u]

    def test_evidence_mask(self):
        fg = FactorGraph()
        fg.add_variable(evidence=False)
        fg.add_variable()
        mask = fg.evidence_mask()
        assert mask.tolist() == [True, False]

    def test_initial_assignment_respects_evidence(self):
        fg = FactorGraph()
        fg.add_variable(evidence=True)
        fg.add_variable(evidence=False)
        fg.add_variable()
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = fg.initial_assignment(rng)
            assert x[0] and not x[1]

    def test_factor_var_range_checked(self):
        fg = FactorGraph()
        v = fg.add_variable()
        wid = fg.weights.intern("w")
        with pytest.raises(ValueError):
            fg.add_bias_factor(wid, v + 1)
        with pytest.raises(ValueError):
            fg.add_ising_factor(wid, v, v)
        with pytest.raises(ValueError):
            fg.add_rule_factor(wid, v, [[(v + 3, True)]], Semantics.LINEAR)

    def test_weight_id_checked(self):
        fg = FactorGraph()
        v = fg.add_variable()
        with pytest.raises(ValueError):
            fg.add_bias_factor(7, v)

    def test_copy_shares_nothing_mutable(self):
        fg = voting_graph(2, 2)
        clone = fg.copy()
        clone.add_variable()
        clone.set_evidence(0, True)
        clone.weights.set_value(0, 99.0)
        assert fg.num_vars == clone.num_vars - 1
        assert not fg.is_evidence(0)
        assert fg.weights.value(0) != 99.0

    def test_validate_passes_on_wellformed(self):
        implication_graph().validate()

    def test_neighbor_pairs_cover_factor_scopes(self):
        fg = implication_graph()
        pairs = set(map(tuple, fg.neighbor_pairs().tolist()))
        # q, a, b, c all co-occur in the single rule factor.
        assert (0, 1) in pairs and (1, 2) in pairs and (0, 3) in pairs
        assert all(a < b for a, b in pairs)


class TestEnergy:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_energy_is_the_record_energy(self, seed):
        """Bias, Ising and rule factors of all three semantics — repeated
        and contradictory literals, empty and missing groundings, the
        head in its own body — added through ``add_*_factor``: the table
        scorer equals the raw records' energies summed one by one."""
        rng = np.random.default_rng(seed)
        graph = FactorGraph()
        n = int(rng.integers(2, 8))
        graph.add_variables(n)
        for k in range(int(rng.integers(1, 5))):
            graph.weights.intern(("w", k), initial=float(rng.normal()))
        records = [
            random_factor(rng, n, int(rng.integers(len(graph.weights))))
            for _ in range(int(rng.integers(0, 12)))
        ]
        for record in records:
            add_factor(graph, record)
        worlds = rng.random((6, n)) < 0.5
        expected = [
            sum(factor_energy(f, world, graph.weights) for f in records)
            for world in worlds
        ]
        assert graph.energies(worlds) == pytest.approx(expected, abs=1e-12)
        for world, energy in zip(worlds, expected):
            assert graph.energy(world) == pytest.approx(energy, abs=1e-12)

    def test_bias_energy(self):
        fg = FactorGraph()
        v = fg.add_variable()
        wid = fg.weights.intern("b", initial=0.7)
        fg.add_bias_factor(wid, v)
        assert fg.energy(np.array([True])) == pytest.approx(0.7)
        assert fg.energy(np.array([False])) == pytest.approx(-0.7)

    def test_ising_energy(self):
        fg = FactorGraph()
        i = fg.add_variable()
        j = fg.add_variable()
        wid = fg.weights.intern("J", initial=0.5)
        fg.add_ising_factor(wid, i, j)
        assert fg.energy(np.array([True, True])) == pytest.approx(0.5)
        assert fg.energy(np.array([True, False])) == pytest.approx(-0.5)
        assert fg.energy(np.array([False, False])) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "semantics,expected_g2",
        [
            (Semantics.LINEAR, 2.0),
            (Semantics.RATIO, math.log(3)),
            (Semantics.LOGICAL, 1.0),
        ],
    )
    def test_rule_energy_uses_g_of_count(self, semantics, expected_g2):
        fg = voting_graph(2, 0, semantics=semantics, weight=1.0)
        # q true, both up voters true -> n = 2.
        x = np.array([True, True, True])
        assert fg.energy(x) == pytest.approx(expected_g2)
        # q false flips the sign.
        x = np.array([False, True, True])
        assert fg.energy(x) == pytest.approx(-expected_g2)

    def test_rule_energy_counts_only_satisfied_groundings(self):
        fg = voting_graph(3, 0, semantics=Semantics.LINEAR)
        x = np.array([True, True, False, True])  # q, up0, up1, up2
        assert fg.energy(x) == pytest.approx(2.0)

    def test_empty_grounding_is_vacuously_satisfied(self):
        fg = FactorGraph()
        q = fg.add_variable()
        wid = fg.weights.intern("w", initial=1.5)
        fg.add_rule_factor(wid, q, [()], Semantics.LINEAR)
        assert fg.energy(np.array([True])) == pytest.approx(1.5)
        assert fg.energy(np.array([False])) == pytest.approx(-1.5)

    def test_negated_literal(self):
        fg = FactorGraph()
        q = fg.add_variable()
        a = fg.add_variable()
        wid = fg.weights.intern("w", initial=1.0)
        fg.add_rule_factor(wid, q, [[(a, False)]], Semantics.LOGICAL)
        assert fg.energy(np.array([True, False])) == pytest.approx(1.0)
        assert fg.energy(np.array([True, True])) == pytest.approx(-0.0)

    def test_energy_shape_checked(self):
        fg = voting_graph(1, 1)
        with pytest.raises(ValueError):
            fg.energy(np.array([True, False]))

    @given(st.integers(min_value=0, max_value=255))
    @settings(max_examples=32, deadline=None)
    def test_voting_energy_closed_form(self, bits):
        """W = g(|Up ∩ I|) − g(|Down ∩ I|) with sign(q) (Ex. 2.5)."""
        fg = voting_graph(4, 4, semantics=Semantics.RATIO, weight=1.0)
        x = np.zeros(9, dtype=bool)
        x[0] = bool(bits & 1)
        for k in range(8):
            x[1 + k] = bool((bits >> k) & 1)
        n_up = int(x[1:5].sum())
        n_down = int(x[5:9].sum())
        sign = 1.0 if x[0] else -1.0
        expected = sign * (math.log1p(n_up) - math.log1p(n_down))
        assert fg.energy(x) == pytest.approx(expected)
