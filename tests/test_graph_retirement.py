"""The compiled substrate is the single source of truth for graph state.

This PR retires the mutable ``FactorGraph`` middle layer: grounding and
engines patch ``CompiledFactorGraph`` directly, and ``FactorGraph`` is a
lazily-materialized oracle view (``FactorGraph.from_compiled`` /
``CompiledGraphView``).  The suite checks the retirement's contract:

* compiled-direct updates ≡ the legacy materialize-a-copy path, under
  randomized delta sequences (canonical graph equality via the view);
* the default engine update path materializes **zero** oracle views;
* ``compose_deltas`` has no O(#factors) ``index_mapping`` to build;
* snapshot/rollback re-derives the lazy view from the rolled-back
  substrate instead of resurrecting a stale materialized graph.
"""

import pickle

import numpy as np
import pytest

from repro.core import EngineConfig, IncrementalEngine, RerunEngine
from repro.graph import FactorGraph, FactorGraphDelta
from repro.graph.compiled import CompiledFactorGraph
from repro.graph.delta import compose_deltas
from repro.graph.factor_graph import BiasFactor, CompiledGraphView, IsingFactor
from repro.grounding import IncrementalGrounder
from repro.inference import ExactInference
from repro.reliability.faults import Fault, FaultInjected, FaultPlan, inject_faults
from repro.util.stats import max_marginal_error

from tests.helpers import chain_ising_graph
from tests.test_incremental_compile import random_delta, seed_graph
from tests.test_incremental_grounding import canonical_form
from tests.test_grounding import spouse_db, spouse_program


def assert_graphs_equal(a: FactorGraph, b: FactorGraph) -> None:
    """Strict structural equality (ids, names, factors, weights, evidence)."""
    assert a.num_vars == b.num_vars
    assert list(a._names) == list(b._names)
    assert dict(a.evidence) == dict(b.evidence)
    assert list(a.factors) == list(b.factors)
    assert len(a.weights) == len(b.weights)
    np.testing.assert_allclose(
        a.weights.values_array(), b.weights.values_array(), rtol=0, atol=1e-12
    )
    for wid in range(len(a.weights)):
        assert a.weights.key_for(wid) == b.weights.key_for(wid)
        assert a.weights.is_fixed(wid) == b.weights.is_fixed(wid)


def config(**overrides):
    base = dict(
        materialization_samples=400,
        inference_steps=300,
        inference_samples=200,
        seed=0,
    )
    base.update(overrides)
    return EngineConfig(**base)


class TestCompiledDirectEquivalence:
    """Compiled-direct ground/update ≡ the legacy materialized path."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_randomized_sequence_matches_legacy_apply(self, seed):
        rng = np.random.default_rng(300 + seed)
        source = seed_graph(seed)
        legacy = source.copy()  # detach before the substrate takes ownership
        compiled = CompiledFactorGraph(source)
        for step in range(8):
            delta = random_delta(legacy, rng, step)
            legacy = delta.apply(legacy)
            # Alternate pure patching with threshold compaction.
            compiled.apply_delta(
                delta, compact_threshold=0.2 if step % 4 == 3 else 1.0
            )
            view = FactorGraph.from_compiled(compiled)
            assert_graphs_equal(view, legacy)

    def test_view_is_cached_until_structure_changes(self):
        graph = seed_graph(0)
        compiled = CompiledFactorGraph(graph)
        assert compiled.views_materialized == 0
        f1 = compiled.materialized_factors()
        assert compiled.views_materialized == 1
        # Same structure version: the cached list is reused.
        assert compiled.materialized_factors() is f1
        assert compiled.views_materialized == 1
        delta = FactorGraphDelta()
        delta.new_weight_entries.append((("nv",), 0.3, False))
        delta.new_factors.append(
            BiasFactor(weight_id=len(compiled.weights), var=0)
        )
        compiled.apply_delta(delta, compact_threshold=1.0)
        f2 = compiled.materialized_factors()
        assert f2 is not f1 and len(f2) == len(f1) + 1
        assert compiled.views_materialized == 2

    def test_substrate_patched_by_grounder_deltas_equals_grounder_graph(self):
        updates = [
            {"inserts": {"PersonCandidate": [("s3", "m5"), ("s3", "m6")]}},
            {"inserts": {"PhraseFeature": [("m5", "m6", "new feat")]}},
            {"deletes": {"PhraseFeature": [("m3", "m4", "friend of")]}},
            {"inserts": {"Married": [("barack", "hillary")]}},
        ]
        grounder = IncrementalGrounder.from_scratch(
            spouse_program(), spouse_db(spouse_program())
        )
        substrate = CompiledFactorGraph(grounder.graph.copy())
        for update in updates:
            substrate.apply_delta(grounder.apply_update(**update).delta)
        # The substrate's graph is its lazy view; the grounder keeps its own.
        assert isinstance(substrate.graph, CompiledGraphView)
        assert not isinstance(grounder.graph, CompiledGraphView)
        a = canonical_form(FactorGraph.from_compiled(substrate))
        b = canonical_form(grounder.graph)
        assert a == b

    def test_engine_marginals_match_exact_over_sequence(self):
        fg = chain_ising_graph(6, coupling=0.4, bias=0.1)
        engine = RerunEngine(fg, config())
        for step in range(3):
            delta = FactorGraphDelta()
            delta.new_weight_entries.append(((f"f{step}",), 0.5, False))
            delta.new_factors.append(
                BiasFactor(
                    weight_id=len(engine.current_graph.weights), var=step
                )
            )
            out = engine.apply_update(delta)
            exact = ExactInference(
                FactorGraph.from_compiled(engine.resident.compiled)
            ).marginals()
            assert max_marginal_error(out.marginals, exact) < 0.12
        assert engine.updates_recompiled == 1  # the one-time substrate compile
        assert engine.updates_patched == 2


class TestNoMaterializationOnDefaultPath:
    """The retired middle layer stays retired: zero oracle views built."""

    def test_rerun_default_path_materializes_no_views(self):
        fg = chain_ising_graph(8, coupling=0.3, bias=0.1)
        engine = RerunEngine(fg, config())
        for step in range(4):
            delta = FactorGraphDelta()
            delta.new_weight_entries.append(((f"f{step}",), 0.4, False))
            delta.new_factors.append(
                BiasFactor(
                    weight_id=len(engine.current_graph.weights), var=step
                )
            )
            engine.apply_update(delta)
        assert isinstance(engine.current_graph, CompiledGraphView)
        assert engine.current_graph is engine.resident.compiled.graph
        assert engine.resident.compiled.views_materialized == 0
        assert engine.resident.compiled.structure_version >= 4

    def test_incremental_sampling_path_materializes_no_views(self):
        fg = chain_ising_graph(6, coupling=0.4, bias=0.1)
        engine = IncrementalEngine(fg, config(strategies=("sampling",)))
        engine.materialize()
        for step in range(3):
            delta = FactorGraphDelta()
            delta.new_weight_entries.append(((f"f{step}",), 0.3, False))
            delta.new_factors.append(
                BiasFactor(
                    weight_id=len(engine.current_graph.weights), var=step
                )
            )
            outcome = engine.apply_update(delta)
            assert outcome.strategy == "sampling"
        assert engine.current_graph is engine.resident.compiled.graph
        assert engine.resident.compiled.views_materialized == 0


class TestComposeDeltasFastPath:
    """``compose_deltas`` maintenance is O(|Δ|): the O(#factors)
    ``index_mapping`` dict it once could build is gone."""

    def _chain(self, base, rng, steps):
        """Compose a random chain both ways; return (composed, sequential)."""
        graph = base.copy()
        composed = None
        for step in range(steps):
            delta = random_delta(graph, rng, step)
            graph = delta.apply(graph)
            composed = (
                delta
                if composed is None
                else compose_deltas(base, composed, delta)
            )
        return composed, graph

    def test_grow_only_composition_skips_index_mapping(self):
        base = seed_graph(1)
        first = FactorGraphDelta()
        first.new_weight_entries.append((("a",), 0.2, False))
        first.new_factors.append(BiasFactor(weight_id=len(base.weights), var=0))
        second = FactorGraphDelta(removed_factor_ids={1, base.num_factors})
        composed = compose_deltas(base, first, second)
        assert not hasattr(FactorGraphDelta, "index_mapping")
        assert composed.removed_factor_ids == {1}
        assert len(composed.new_factors) == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_removal_composition_matches_sequential(self, seed):
        rng = np.random.default_rng(700 + seed)
        base = seed_graph(seed)
        composed, sequential = self._chain(base, rng, 6)
        assert not hasattr(FactorGraphDelta, "index_mapping")
        assert_graphs_equal(composed.apply(base), sequential)

    def test_apply_in_place_matches_oracle(self):
        rng = np.random.default_rng(42)
        base = seed_graph(2)
        for step in range(5):
            delta = random_delta(base, rng, step)
            oracle = delta.apply(base)  # copies, validates
            delta.apply_in_place(base)  # splices the same graph in place
            assert_graphs_equal(base, oracle)


class TestSnapshotRollbackRederivesView:
    """Reliability bugfix: engine snapshots used to restore
    ``current_graph`` by reference; after the refactor a rollback must
    re-derive the lazy view from the rolled-back substrate."""

    def _grow_delta(self, engine, step):
        delta = FactorGraphDelta()
        delta.num_new_vars = 1
        delta.new_var_names.append(f"added-{step}")
        nw = len(engine.current_graph.weights)
        delta.new_weight_entries.append(((f"g{step}",), 0.4, False))
        delta.new_factors.append(
            BiasFactor(weight_id=nw, var=engine.current_graph.num_vars)
        )
        delta.evidence_updates[step] = True
        return delta

    def test_rerun_rollback_rederives_view(self):
        fg = chain_ising_graph(6, coupling=0.4, bias=0.1)
        engine = RerunEngine(fg, config(inference_samples=40))
        engine.apply_update(self._grow_delta(engine, 0))
        committed = FactorGraph.from_compiled(engine.resident.compiled)
        version = engine.resident.compiled.structure_version
        with inject_faults(FaultPlan([Fault(site="engine.update.inferred")])):
            with pytest.raises(FaultInjected):
                engine.apply_update(self._grow_delta(engine, 1))
        # The restored graph is the substrate's view, not a stale ref …
        assert isinstance(engine.current_graph, CompiledGraphView)
        assert engine.current_graph is engine.resident.compiled.graph
        assert engine.resident.compiled.structure_version == version
        # … and the failed update's vars/factors/evidence/names are gone.
        assert_graphs_equal(
            FactorGraph.from_compiled(engine.resident.compiled), committed
        )
        assert engine.current_graph.num_vars == committed.num_vars
        assert engine.current_graph.name_of(committed.num_vars - 1) == "added-0"

    def test_rerun_rollback_discards_stale_materialization(self):
        """A view materialized *during* the failed transaction carries a
        post-bump version stamp and must not survive the rollback."""
        fg = chain_ising_graph(6, coupling=0.4, bias=0.1)
        engine = RerunEngine(fg, config(inference_samples=40))
        engine.apply_update(self._grow_delta(engine, 0))
        before = engine.resident.compiled.num_factors

        class Boom(Exception):
            pass

        try:
            snap_delta = self._grow_delta(engine, 1)
            # Simulate a consumer materializing mid-transaction, then a
            # failure: patch, materialize, raise inside the txn body.
            from repro.reliability.snapshots import RelearnSnapshot

            snap = RelearnSnapshot(engine)
            engine.resident.compiled.apply_delta(snap_delta, compact_threshold=1.0)
            engine.resident.compiled.materialized_factors()  # stale after rollback
            raise Boom()
        except Boom:
            snap.restore()
        assert engine.resident.compiled.num_factors == before
        # The stale cache is version-stamped: the next oracle read
        # rebuilds against the rolled-back substrate.
        assert len(engine.resident.compiled.materialized_factors()) == before

    def test_incremental_rollback_rederives_view(self):
        fg = chain_ising_graph(6, coupling=0.4, bias=0.1)
        engine = IncrementalEngine(fg, config(strategies=("sampling",)))
        engine.materialize()
        engine.apply_update(self._grow_delta(engine, 0))
        committed = FactorGraph.from_compiled(engine.resident.compiled)
        with inject_faults(FaultPlan([Fault(site="engine.update.inferred")])):
            with pytest.raises(FaultInjected):
                engine.apply_update(self._grow_delta(engine, 1))
        assert engine.current_graph is engine.resident.compiled.graph
        assert_graphs_equal(
            FactorGraph.from_compiled(engine.resident.compiled), committed
        )

    def test_rollback_twin_parity(self):
        """After a rollback, retrying produces bit-identical marginals to
        a twin engine that never saw the failed transaction."""
        def make():
            return RerunEngine(
                chain_ising_graph(6, coupling=0.4, bias=0.1),
                config(inference_samples=40),
            )

        faulted, twin = make(), make()
        faulted.apply_update(self._grow_delta(faulted, 0))
        twin.apply_update(self._grow_delta(twin, 0))
        with inject_faults(FaultPlan([Fault(site="engine.update.inferred")])):
            with pytest.raises(FaultInjected):
                faulted.apply_update(self._grow_delta(faulted, 1))
        out_retry = faulted.apply_update(self._grow_delta(faulted, 1))
        out_fresh = twin.apply_update(self._grow_delta(twin, 1))
        assert np.array_equal(out_retry.marginals, out_fresh.marginals)
        assert_graphs_equal(
            FactorGraph.from_compiled(faulted.resident.compiled),
            FactorGraph.from_compiled(twin.resident.compiled),
        )


class TestViewSemantics:
    def test_view_rejects_structural_mutation(self):
        graph = seed_graph(0)
        compiled = CompiledFactorGraph(graph)
        compiled.apply_delta(FactorGraphDelta(), compact_threshold=1.0)
        view = compiled.graph
        assert isinstance(view, CompiledGraphView)
        with pytest.raises(TypeError):
            view.add_variable()
        with pytest.raises(TypeError):
            view.add_bias_factor(0, 0)
        # Evidence mutation is allowed (flows to the substrate's dict).
        view.set_evidence(0, True)
        assert compiled.evidence_dict[0] is True
        view.clear_evidence(0)
        assert 0 not in compiled.evidence_dict

    def test_view_copy_semantics(self):
        graph = seed_graph(1)
        compiled = CompiledFactorGraph(graph)
        compiled.apply_delta(FactorGraphDelta(), compact_threshold=1.0)
        view = compiled.graph
        twin = view.copy(share_weights=True)
        assert isinstance(twin, CompiledGraphView)
        assert twin.compiled is compiled
        twin.set_evidence(1, False)  # private evidence dict
        assert 1 not in view.evidence
        detached = view.copy(share_weights=False)
        assert not isinstance(detached, CompiledGraphView)
        assert detached.weights is not compiled.weights
        assert_graphs_equal(detached, FactorGraph.from_compiled(compiled))

    def test_pickle_roundtrip_of_substrate_and_view(self):
        graph = seed_graph(2)
        compiled = CompiledFactorGraph(graph)
        delta = FactorGraphDelta()
        delta.new_weight_entries.append((("p",), 0.3, False))
        delta.new_factors.append(
            BiasFactor(weight_id=len(compiled.weights), var=0)
        )
        compiled.apply_delta(delta, compact_threshold=1.0)
        clone = pickle.loads(pickle.dumps(compiled))
        assert isinstance(clone.graph, CompiledGraphView)
        assert clone.graph.compiled is clone
        assert_graphs_equal(
            FactorGraph.from_compiled(clone),
            FactorGraph.from_compiled(compiled),
        )
