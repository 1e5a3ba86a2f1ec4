"""Tests for FactorGraphDelta: application, classification, composition,
and the ``DeltaEvaluator`` table scorer against its one-world record
oracle (``tests.reference.delta_energy.OneWorldEvaluator``)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    BiasFactor,
    FactorGraph,
    FactorGraphDelta,
    IsingFactor,
    RuleFactor,
    Semantics,
)
from repro.graph import delta as delta_module
from repro.graph.delta import FactorTable, compose_deltas
from repro.graph.delta_energy import DeltaEvaluator

from tests.helpers import chain_ising_graph, mixed_case, random_pairwise_graph
from tests.reference.delta_energy import OneWorldEvaluator
from tests.reference.factors import lower_factors


class TestDeltaApply:
    def test_add_variables_and_factors(self):
        fg = chain_ising_graph(3)
        delta = FactorGraphDelta(num_new_vars=2, new_var_names=["a", "b"])
        delta.new_weight_entries.append(("new", 0.5, False))
        wid = len(fg.weights)
        delta.new_factors.add_bias(wid, 3)
        delta.new_factors.add_ising(wid, 3, 4)
        updated = delta.apply(fg)
        assert updated.num_vars == 5
        assert updated.num_factors == fg.num_factors + 2
        assert updated.name_of(3) == "a"
        assert fg.num_vars == 3  # base untouched

    def test_remove_factors(self):
        fg = chain_ising_graph(3)
        delta = FactorGraphDelta(removed_factor_ids={0})
        updated = delta.apply(fg)
        assert updated.num_factors == fg.num_factors - 1

    def test_evidence_updates(self):
        fg = chain_ising_graph(3)
        fg.set_evidence(0, True)
        delta = FactorGraphDelta(evidence_updates={0: None, 1: False})
        updated = delta.apply(fg)
        assert not updated.is_evidence(0)
        assert updated.evidence_value(1) is False

    def test_new_var_evidence(self):
        fg = chain_ising_graph(2)
        delta = FactorGraphDelta(num_new_vars=1, new_var_evidence={0: True})
        updated = delta.apply(fg)
        assert updated.evidence_value(2) is True

    def test_weight_changes(self):
        fg = chain_ising_graph(2, coupling=0.5)
        delta = FactorGraphDelta(changed_weight_values={0: 2.0})
        updated = delta.apply(fg)
        assert updated.weights.value(0) == 2.0
        assert fg.weights.value(0) == 0.5

    def test_classification_flags(self):
        assert FactorGraphDelta().is_empty
        assert FactorGraphDelta(num_new_vars=1).changes_structure
        assert FactorGraphDelta(evidence_updates={0: True}).changes_evidence
        assert FactorGraphDelta(
            new_weight_entries=[("k", 0.0, False)]
        ).adds_features
        assert not FactorGraphDelta(evidence_updates={0: True}).changes_structure


class TestDeltaEvaluator:
    def test_delta_energy_matches_graph_difference(self):
        fg = chain_ising_graph(4, coupling=0.7, bias=0.2)
        delta = FactorGraphDelta(removed_factor_ids={0})
        delta.new_weight_entries.append(("extra", 1.1, False))
        delta.new_factors.add_bias(len(fg.weights), 2)
        evaluator = OneWorldEvaluator(fg, delta)
        updated = delta.apply(fg)
        rng = np.random.default_rng(0)
        for _ in range(20):
            world = rng.random(4) < 0.5
            assert evaluator.delta_energy(world) == pytest.approx(
                updated.energy(world) - fg.energy(world)
            )

    def test_delta_energy_with_new_vars(self):
        fg = chain_ising_graph(2, coupling=0.5, bias=0.0)
        delta = FactorGraphDelta(num_new_vars=1)
        delta.new_weight_entries.append(("J", 0.9, False))
        delta.new_factors.add_ising(len(fg.weights), 1, 2)
        evaluator = OneWorldEvaluator(fg, delta)
        updated = delta.apply(fg)
        rng = np.random.default_rng(1)
        for _ in range(10):
            world = rng.random(3) < 0.5
            base_world = world[:2]
            assert evaluator.delta_energy(world) == pytest.approx(
                updated.energy(world) - fg.energy(base_world)
            )

    def test_reweighted_factor_shift(self):
        fg = chain_ising_graph(2, coupling=0.5, bias=0.3)
        delta = FactorGraphDelta(changed_weight_values={0: 1.5})
        evaluator = OneWorldEvaluator(fg, delta)
        updated = delta.apply(fg)
        world = np.array([True, False])
        assert evaluator.delta_energy(world) == pytest.approx(
            updated.energy(world) - fg.energy(world)
        )

    def test_evidence_violation_detected(self):
        fg = chain_ising_graph(2)
        delta = FactorGraphDelta(evidence_updates={0: True})
        evaluator = OneWorldEvaluator(fg, delta)
        assert evaluator.violates_evidence(np.array([False, True]))
        assert not evaluator.violates_evidence(np.array([True, False]))
        assert evaluator.log_density_ratio(np.array([False, True])) == float(
            "-inf"
        )

    def test_extend_world_respects_new_evidence(self):
        fg = chain_ising_graph(2)
        delta = FactorGraphDelta(num_new_vars=2, new_var_evidence={1: True})
        evaluator = OneWorldEvaluator(fg, delta)
        rng = np.random.default_rng(0)
        world = evaluator.extend_world(np.array([True, False]), rng)
        assert len(world) == 4
        assert world[3] == True  # noqa: E712 — clamped new var


def assert_kernel_matches_oracle(evaluator, worlds):
    energies = evaluator.delta_energies(worlds)
    violations = evaluator.violations(worlds)
    assert energies.shape == (len(worlds),) and energies.dtype == np.float64
    assert violations.shape == (len(worlds),) and violations.dtype == bool
    for s, world in enumerate(worlds):
        assert energies[s] == pytest.approx(
            evaluator.delta_energy(world), abs=1e-9
        )
        assert violations[s] == evaluator.violates_evidence(world)


class TestLoweredKernelMatchesOracle:
    @given(st.integers(0, 100_000), st.integers(0, 9))
    @settings(max_examples=150, deadline=None)
    def test_random_mixed_deltas(self, seed, num_worlds):
        base, delta = mixed_case(seed)
        evaluator = OneWorldEvaluator(base, delta)
        rng = np.random.default_rng(seed + 1)
        worlds = rng.random((num_worlds, evaluator.total_vars)) < 0.5
        assert_kernel_matches_oracle(evaluator, worlds)

    @given(st.integers(0, 100_000), st.sampled_from([1, 3]))
    @settings(max_examples=40, deadline=None)
    def test_row_chunks(self, seed, rows_per_chunk):
        """A batch over the cell budget is scored piecewise (one row at a
        time when a single world already exceeds it)."""
        base, delta = mixed_case(seed)
        evaluator = OneWorldEvaluator(base, delta)
        rng = np.random.default_rng(seed + 1)
        worlds = rng.random((23, evaluator.total_vars)) < 0.5
        terms = evaluator.terms
        widest = max(
            1,
            terms.lit_var.size,
            terms.grounding_ri.size,
            terms.bias_var.size,
            terms.ising_i.size,
        )
        budget = 1 if rows_per_chunk == 1 else 3 * widest
        with mock.patch.object(delta_module, "_SCORE_CELLS", budget), \
                mock.patch.object(
                    FactorTable,
                    "_energies",
                    autospec=True,
                    side_effect=FactorTable._energies,
                ) as score:
            evaluator.delta_energies(worlds)
            assert score.call_count == -(-len(worlds) // rows_per_chunk)
            assert_kernel_matches_oracle(evaluator, worlds)

    def test_grid_is_covered(self):
        """The generator reaches every term kind the kernel lowers."""
        reached = set()
        for seed in range(200):
            raw = []
            base, delta = mixed_case(seed, records=raw)
            evaluator = OneWorldEvaluator(base, delta)
            rules = [f for f in raw if isinstance(f, RuleFactor)]
            terms = evaluator.terms
            cells = {
                "bias": terms.bias_var.size > 0,
                "ising": terms.ising_i.size > 0,
                "mixed semantics": len(set(terms.rule_sem.tolist())) == 3,
                "no groundings": any(not f.groundings for f in rules),
                "empty grounding": any(() in f.groundings for f in rules),
                "contradictory": any(
                    {(v, True), (v, False)} <= set(g)
                    for f in rules
                    for g in f.groundings
                    for v, _ in g
                ),
                "duplicated": any(
                    len(g) != len(set(g)) for f in rules for g in f.groundings
                ),
                "head in body": any(
                    f.head in {v for v, _ in g}
                    for f in rules
                    for g in f.groundings
                ),
                "removed": bool(evaluator.removed_factors),
                "reweighted": bool(evaluator.reweighted),
                "new weights": bool(delta.new_weight_entries),
                "new vars": delta.num_new_vars > 0
                and not delta.new_var_evidence,
                "new var evidence": bool(delta.new_var_evidence),
                "evidence set": any(
                    v is not None and not base.is_evidence(var)
                    for var, v in delta.evidence_updates.items()
                ),
                "evidence flipped": any(
                    v is not None and base.evidence_value(var) == (not v)
                    for var, v in delta.evidence_updates.items()
                ),
                "evidence cleared": None in delta.evidence_updates.values(),
            }
            reached.update(name for name, hit in cells.items() if hit)
        assert reached == set(cells)

    def test_empty_delta_and_empty_batch(self):
        fg = chain_ising_graph(3)
        evaluator = DeltaEvaluator(fg, FactorGraphDelta())
        worlds = np.array([[True, False, True], [False, False, False]])
        assert evaluator.delta_energies(worlds).tolist() == [0.0, 0.0]
        assert evaluator.violations(worlds).tolist() == [False, False]
        assert evaluator.delta_energies(worlds[:0]).shape == (0,)
        assert evaluator.violations(worlds[:0]).shape == (0,)
        assert evaluator.extend_worlds(worlds[:0], None).shape == (0, 3)

    def test_batch_shape_is_checked(self):
        evaluator = DeltaEvaluator(chain_ising_graph(3), FactorGraphDelta())
        for bad in (np.zeros(3, dtype=bool), np.zeros((2, 4), dtype=bool)):
            with pytest.raises(ValueError, match="worlds must be"):
                evaluator.delta_energies(bad)
            with pytest.raises(ValueError, match="worlds must be"):
                evaluator.violations(bad)

    @given(st.integers(0, 100_000), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_extend_worlds_is_extend_world_row_by_row(self, seed, num_worlds):
        """Same worlds, same generator state afterwards — whatever part of
        the appended columns the stored rows already carry."""
        base, delta = mixed_case(seed)
        evaluator = OneWorldEvaluator(base, delta)
        rng = np.random.default_rng(seed + 1)
        have = int(rng.integers(base.num_vars, evaluator.total_vars + 1))
        stored = rng.random((num_worlds, have)) < 0.5
        batch_rng = np.random.default_rng(seed)
        row_rng = np.random.default_rng(seed)
        batch = evaluator.extend_worlds(stored, batch_rng)
        rows = [evaluator.extend_world(row, row_rng) for row in stored]
        assert batch.shape == (num_worlds, evaluator.total_vars)
        assert batch.dtype == bool
        assert np.array_equal(batch, np.array(rows).reshape(batch.shape))
        assert batch_rng.bit_generator.state == row_rng.bit_generator.state
        with pytest.raises(ValueError, match="stored worlds have"):
            evaluator.extend_worlds(
                np.zeros((1, evaluator.total_vars + 1), dtype=bool), batch_rng
            )


def rule(weight_id, head, *groundings):
    return RuleFactor(weight_id, head, tuple(groundings), Semantics.RATIO)


class TestUnknownIdsFailAtConstruction:
    """A delta naming a variable, weight or factor outside the updated
    graph is a ``ValueError`` from the constructor — it used to be an
    ``IndexError`` on the first world that reached the term or, for a
    negative id, the energy of the wrong variable."""

    # chain_ising_graph(3): 3 variables, 2 weights, 5 factors; the deltas
    # below append one variable and one weight.
    @pytest.mark.parametrize(
        "factor, message",
        [
            (BiasFactor(0, 4), r"bias factor \(weight id 0, variable 4\).*variable id 4"),
            (BiasFactor(0, -1), r"variable id -1, outside \[0, 4\)"),
            (IsingFactor(1, 0, 4), r"Ising factor.*variable id 4"),
            (IsingFactor(1, -2, 0), r"variable id -2"),
            (rule(0, 4), r"rule factor \(weight id 0, head 4, 0 groundings\)"),
            (rule(0, 0, ((1, True), (9, False))), r"1 groundings.*variable id 9"),
            (rule(0, 0, ((-1, True),)), r"variable id -1"),
            (BiasFactor(3, 0), r"weight id 3, outside \[0, 3\)"),
            (rule(-1, 0), r"weight id -1"),
        ],
    )
    def test_new_factor(self, factor, message):
        delta = FactorGraphDelta(num_new_vars=1, new_factors=lower_factors([factor]))
        delta.new_weight_entries.append(("new", 0.5, False))
        with pytest.raises(ValueError, match=message):
            DeltaEvaluator(chain_ising_graph(3), delta)

    @pytest.mark.parametrize("fi", [5, -1])
    def test_removed_factor(self, fi):
        delta = FactorGraphDelta(removed_factor_ids={fi})
        with pytest.raises(ValueError, match=rf"factor id {fi}, outside \[0, 5\)"):
            DeltaEvaluator(chain_ising_graph(3), delta)

    @pytest.mark.parametrize(
        "delta, message",
        [
            (FactorGraphDelta(evidence_updates={3: True}), "variable id 3"),
            (FactorGraphDelta(evidence_updates={-1: False}), "variable id -1"),
            (
                FactorGraphDelta(num_new_vars=1, new_var_evidence={1: True}),
                r"offset 1, outside \[0, 1\)",
            ),
            (
                FactorGraphDelta(num_new_vars=1, new_var_evidence={-1: True}),
                "offset -1",
            ),
        ],
    )
    def test_evidence(self, delta, message):
        with pytest.raises(ValueError, match=message):
            DeltaEvaluator(chain_ising_graph(3), delta)

    def test_ids_at_the_edge_of_the_range_are_accepted(self):
        delta = FactorGraphDelta(num_new_vars=1, removed_factor_ids={0, 4})
        delta.new_weight_entries.append(("new", 0.5, False))
        delta.new_factors = lower_factors(
            [BiasFactor(2, 3), rule(2, 3, ((0, True), (3, False)))]
        )
        delta.evidence_updates[2] = None
        delta.new_var_evidence[0] = True
        evaluator = OneWorldEvaluator(chain_ising_graph(3), delta)
        assert_kernel_matches_oracle(
            evaluator, np.array([[True, False, True, True]])
        )


def random_delta(fg, seed):
    """A random delta against ``fg`` touching several dimensions."""
    rng = np.random.default_rng(seed)
    delta = FactorGraphDelta()
    if rng.random() < 0.6 and fg.num_factors:
        delta.removed_factor_ids = set(
            int(i)
            for i in rng.choice(
                fg.num_factors, size=min(2, fg.num_factors), replace=False
            )
        )
    delta.num_new_vars = int(rng.integers(0, 3))
    next_wid = len(fg.weights)
    if rng.random() < 0.8:
        delta.new_weight_entries.append((("w", seed), float(rng.normal()), False))
        var = int(rng.integers(fg.num_vars + delta.num_new_vars))
        delta.new_factors.add_bias(next_wid, var)
    if rng.random() < 0.5:
        delta.evidence_updates[int(rng.integers(fg.num_vars))] = bool(
            rng.integers(2)
        )
    if rng.random() < 0.4:
        delta.changed_weight_values[int(rng.integers(len(fg.weights)))] = float(
            rng.normal()
        )
    return delta


class TestComposition:
    @given(st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_composed_equals_sequential(self, seed):
        """base ⊕ compose(d1, d2) == (base ⊕ d1) ⊕ d2."""
        base = random_pairwise_graph(5, density=0.4, seed=seed)
        d1 = random_delta(base, seed * 2 + 1)
        mid = d1.apply(base)
        d2 = random_delta(mid, seed * 2 + 2)
        final_sequential = d2.apply(mid)
        composed = compose_deltas(base, d1, d2)
        final_composed = composed.apply(base)

        assert final_composed.num_vars == final_sequential.num_vars
        assert final_composed.evidence == final_sequential.evidence
        rng = np.random.default_rng(seed)
        for _ in range(10):
            world = rng.random(final_sequential.num_vars) < 0.5
            assert final_composed.energy(world) == pytest.approx(
                final_sequential.energy(world), abs=1e-9
            )

    def test_composed_classification_is_union(self):
        base = chain_ising_graph(3)
        d1 = FactorGraphDelta(evidence_updates={0: True})
        d2 = FactorGraphDelta(num_new_vars=1)
        composed = compose_deltas(base, d1, d2)
        assert composed.changes_evidence and composed.changes_structure
