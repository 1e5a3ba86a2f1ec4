"""The variational strategy lives on one patched substrate and one warm chain.

``VariationalMaterialization`` compiles the approximated graph once,
lowers every update to an append-only delta over that substrate and
warm-starts one persistent Gibbs chain across the patches.  The suite
checks the contract of that replacement:

* the patched substrate is canonically equal to the copy-splice it
  replaced (kept below as the reference), over randomized delta
  sequences that cross the compaction threshold;
* marginals track exact inference on small graphs;
* N updates cost one substrate construction plus compactions, and no
  oracle factor view — retractions included;
* rollback → retry and checkpoint → restore are bit-identical to a
  never-failed twin with the warm chain in the snapshot.
"""

import dataclasses
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EngineConfig, IncrementalEngine, VariationalMaterialization
from repro.graph import BiasFactor, FactorGraphDelta, IsingFactor
from repro.graph.compiled import CompiledFactorGraph
from repro.graph.factor_graph import RuleFactor
from repro.graph.semantics import Semantics
from repro.inference import ExactInference
from repro.reliability.faults import Fault, FaultInjected, FaultPlan, inject_faults
from repro.util.stats import max_marginal_error

from tests.helpers import chain_ising_graph, random_pairwise_graph
from tests.reference.delta_energy import OneWorldEvaluator
from tests.reference.factors import add_factor, as_factor_list, lower_factors
from tests.test_incremental_compile import seed_graph


def reference_splice(current, base, delta, counter):
    """The copy-splice ``apply_update`` replaced: copy the approximated
    graph, re-intern the delta's weights by key, append new factors
    as-is, removed ones negated and reweighted ones shifted."""
    evaluator = OneWorldEvaluator(base, delta)
    updated = current.copy()
    records = list(updated.factors)
    for offset in range(delta.num_new_vars):
        names = delta.new_var_names
        vid = updated.add_variable(name=names[offset] if offset < len(names) else None)
        if offset in delta.new_var_evidence:
            updated.set_evidence(vid, delta.new_var_evidence[offset])
    for var, value in delta.evidence_updates.items():
        if value is None:
            updated.clear_evidence(var)
        else:
            updated.set_evidence(var, value)
    new_weights, old_weights = evaluator.new_weights, evaluator.old_weights
    for factor in delta.new_factors:
        wid = updated.weights.intern(
            new_weights.key_for(factor.weight_id),
            initial=new_weights.value(factor.weight_id),
            fixed=new_weights.is_fixed(factor.weight_id),
        )
        records.append(dataclasses.replace(factor, weight_id=wid))
    for factor in evaluator.removed_factors:
        counter += 1
        wid = updated.weights.intern(
            ("spliced-removal", counter),
            initial=-old_weights.value(factor.weight_id),
            fixed=True,
        )
        records.append(dataclasses.replace(factor, weight_id=wid))
    for factor, shift in evaluator.reweighted:
        counter += 1
        wid = updated.weights.intern(
            ("spliced-reweight", counter), initial=shift, fixed=True
        )
        records.append(dataclasses.replace(factor, weight_id=wid))
    updated.factors = as_factor_list(records)
    updated.validate()
    return updated, counter


def canonical(graph):
    """Names, evidence and the factor multiset with weight keys *and
    values* (weight ids are an interning artefact)."""
    factors = Counter(
        (
            dataclasses.replace(factor, weight_id=0),
            graph.weights.key_for(factor.weight_id),
            graph.weights.value(factor.weight_id),
        )
        for factor in graph.factors
    )
    return list(graph._names), dict(graph.evidence), factors


def draw_delta(data, graph, step):
    """One hypothesis-drawn delta against ``graph``: new variables with
    and without evidence, bias/Ising/rule appends on new or existing
    weights, removals, a reweight, evidence set/flip/clear."""
    draw = data.draw
    delta = FactorGraphDelta()
    delta.num_new_vars = draw(st.integers(0, 2), label="new vars")
    delta.new_var_names = [f"n{step}_{k}" for k in range(delta.num_new_vars)]
    for offset in range(delta.num_new_vars):
        value = draw(st.sampled_from([None, True, False]), label="new var evidence")
        if value is not None:
            delta.new_var_evidence[offset] = value
    total = graph.num_vars + delta.num_new_vars
    num_old = len(graph.weights)
    weight_value = st.floats(-1.0, 1.0, allow_nan=False)
    delta.new_weight_entries.append(((f"w{step}",), draw(weight_value), False))
    var = st.integers(0, total - 1)
    for _ in range(draw(st.integers(0, 3), label="new factors")):
        wid = draw(st.integers(0, num_old), label="weight id")
        kind = draw(st.sampled_from(["bias", "ising", "rule"]))
        a, b, c = draw(
            st.lists(var, min_size=3, max_size=3, unique=True), label="scope"
        )
        if kind == "bias":
            delta.new_factors.add_bias(wid, a)
        elif kind == "ising":
            delta.new_factors.add_ising(wid, a, b)
        else:
            add_factor(
                delta.new_factors,
                RuleFactor(
                    weight_id=wid,
                    head=a,
                    groundings=(((b, True),), ((b, False), (c, True))),
                    semantics=Semantics.RATIO,
                )
            )
    if graph.num_factors > 6:
        delta.removed_factor_ids = draw(
            st.sets(st.integers(0, graph.num_factors - 1), max_size=2), label="removed"
        )
    delta.evidence_updates = draw(
        st.dictionaries(
            st.integers(0, graph.num_vars - 1),
            st.sampled_from([True, False, None]),
            max_size=2,
        ),
        label="evidence",
    )
    if draw(st.booleans(), label="reweight"):
        delta.changed_weight_values[draw(st.integers(0, num_old - 1))] = draw(
            weight_value
        )
    return delta


class TestSubstrateEqualsCopySplice:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_randomized_sequences(self, data):
        seed = data.draw(st.integers(0, 3), label="graph seed")
        source = seed_graph(seed)
        mat = VariationalMaterialization(source, lam=0.05, seed=0)
        mat.materialize(num_samples=40)
        mat.infer(num_samples=2, burn_in=1)  # start the warm chain
        reference, counter = mat.current.copy(), 0
        # The engine side, twice: a materialized oracle for the reference
        # and the compiled substrate whose lazy view the splice reads.
        legacy = source.copy()
        engine_side = CompiledFactorGraph(source.copy())
        for step in range(data.draw(st.integers(4, 10), label="steps")):
            delta = draw_delta(data, legacy, step)
            mat.apply_update(engine_side.graph, delta)
            reference, counter = reference_splice(reference, legacy, delta, counter)
            legacy = delta.apply(legacy)
            engine_side.apply_delta(delta, compact_threshold=1.0)
            assert mat.num_factors == reference.num_factors
        assert engine_side.views_materialized == 0
        assert canonical(mat.current) == canonical(reference)
        assert mat.approximation.graph is mat.current
        sampler = mat.resident.chain
        assert sampler.state.shape == (reference.num_vars,)
        sampler.cache.refresh_weights(sampler.state)
        sampler.cache.check_consistency(sampler.state)
        for var, value in reference.evidence.items():
            assert bool(sampler.state[var]) == value

    def test_sequence_crosses_compaction_threshold(self):
        """Enough single-factor appends flag a quarter of the variables
        as patched: the substrate recompiles itself and stays equal."""
        source = chain_ising_graph(12, coupling=0.4, bias=0.1)
        mat = VariationalMaterialization(source, lam=0.05, seed=0)
        mat.materialize(num_samples=40)
        mat.infer(num_samples=2, burn_in=1)
        reference, counter = mat.current.copy(), 0
        legacy = source.copy()
        compacted = False
        for step in range(6):
            delta = FactorGraphDelta(
                new_weight_entries=[((f"w{step}",), 0.3, False)],
                new_factors=lower_factors([BiasFactor(weight_id=len(legacy.weights), var=step)]),
            )
            mat.apply_update(legacy, delta)
            compacted |= not mat.resident.compiled.has_patches
            reference, counter = reference_splice(reference, legacy, delta, counter)
            legacy = delta.apply(legacy)
        assert compacted
        assert canonical(mat.current) == canonical(reference)


def variational_config(**overrides):
    base = dict(
        materialization_samples=600,
        variational_lam=0.05,
        variational_inference_samples=400,
        strategies=("variational",),
        seed=0,
    )
    base.update(overrides)
    return EngineConfig(**base)


def update_sequence(graph):
    """Append, evidence, new clamped + free variables, retraction —
    each delta relative to the graph the previous ones produced."""
    num_weights, num_vars = len(graph.weights), graph.num_vars
    yield FactorGraphDelta(
        new_weight_entries=[("f1", 0.9, False)],
        new_factors=lower_factors([BiasFactor(weight_id=num_weights, var=2)]),
    )
    yield FactorGraphDelta(evidence_updates={1: True})
    yield FactorGraphDelta(
        num_new_vars=2,
        new_var_evidence={0: True},
        new_weight_entries=[("f2", 0.7, False)],
        new_factors=lower_factors([
            IsingFactor(weight_id=num_weights + 1, i=num_vars, j=3),
            IsingFactor(weight_id=num_weights + 1, i=num_vars + 1, j=0),
        ]),
    )
    yield FactorGraphDelta(removed_factor_ids={0}, evidence_updates={1: None})


class TestMarginalsTrackExact:
    @pytest.mark.parametrize(
        "graph",
        [
            chain_ising_graph(6, coupling=0.5, bias=0.1),
            random_pairwise_graph(8, density=0.3, seed=3, weight_range=0.4),
        ],
        ids=["chain6", "random8"],
    )
    def test_warm_chain_tracks_exact_marginals(self, graph):
        engine = IncrementalEngine(graph, variational_config())
        engine.materialize()
        for delta in update_sequence(graph):
            outcome = engine.apply_update(delta)
            assert outcome.strategy == "variational"
            assert engine.current_graph.num_vars <= 12
            exact = ExactInference(engine.current_graph).marginals()
            assert max_marginal_error(outcome.marginals, exact) < 0.12


class TestOneConstructionPerEngine:
    def test_updates_patch_one_substrate(self, monkeypatch):
        constructed, built = [], []
        original_init = CompiledFactorGraph.__init__
        original_build = CompiledFactorGraph._build

        def counting_init(self, graph):
            constructed.append(self)
            original_init(self, graph)

        def counting_build(self, table, num_vars):
            built.append(self)
            original_build(self, table, num_vars)

        monkeypatch.setattr(CompiledFactorGraph, "__init__", counting_init)
        monkeypatch.setattr(CompiledFactorGraph, "_build", counting_build)
        graph = random_pairwise_graph(30, density=0.1, seed=1)
        engine = IncrementalEngine(
            graph, variational_config(variational_inference_samples=5, burn_in=2)
        )
        engine.materialize()
        substrate = engine.variational.resident.compiled
        rng = np.random.default_rng(0)
        updates = 12
        for step in range(updates):
            current = engine.current_graph
            delta = FactorGraphDelta(
                new_weight_entries=[((f"w{step}",), 0.2, False)],
                new_factors=lower_factors([
                    BiasFactor(
                        weight_id=len(current.weights),
                        var=int(rng.integers(current.num_vars)),
                    )
                ]),
            )
            if step % 3 == 2:
                delta.removed_factor_ids.add(int(rng.integers(current.num_factors)))
            engine.apply_update(delta)
        assert engine.variational.resident.compiled is substrate
        # A compaction re-runs the array build in place: the substrate
        # is constructed once, however often it is rebuilt.
        compactions = sum(1 for c in built if c is substrate) - 1
        assert 0 < compactions < updates
        assert sum(1 for c in constructed if c is substrate) == 1
        # Everything else the engine compiled, once each: its own current
        # graph's substrate, with the engine, and the sampling bundle's.
        assert len(constructed) == 3
        assert sum(1 for c in constructed if c is engine.resident.compiled) == 1
        assert substrate.views_materialized == 0

    def test_below_threshold_is_one_construction(self, monkeypatch):
        builds = Counter()
        original = CompiledFactorGraph.__init__

        def counting(self, graph):
            builds[id(self)] += 1
            original(self, graph)

        monkeypatch.setattr(CompiledFactorGraph, "__init__", counting)
        graph = random_pairwise_graph(30, density=0.1, seed=1)
        engine = IncrementalEngine(
            graph, variational_config(variational_inference_samples=5, burn_in=2)
        )
        engine.materialize()
        for step in range(3):
            delta = FactorGraphDelta(
                new_weight_entries=[((f"w{step}",), 0.2, False)],
                new_factors=lower_factors([
                    BiasFactor(weight_id=len(engine.current_graph.weights), var=step)
                ]),
            )
            engine.apply_update(delta)
        engine.apply_update(FactorGraphDelta(removed_factor_ids={0, 5}))
        assert builds[id(engine.variational.resident.compiled)] == 1
        assert engine.variational.resident.compiled.views_materialized == 0
        assert builds[id(engine.resident.compiled)] == 1


class TestRollbackAndCheckpointParity:
    def make(self):
        graph = chain_ising_graph(7, coupling=0.5, bias=0.2)
        engine = IncrementalEngine(
            graph, variational_config(variational_inference_samples=60, burn_in=5)
        )
        engine.materialize()
        return graph, engine

    def test_fault_after_patch_then_retry_matches_twin(self):
        graph, faulted = self.make()
        _, twin = self.make()
        deltas = list(update_sequence(graph))
        for delta in deltas[:2]:  # the warm chain exists from here on
            faulted.apply_update(delta)
            twin.apply_update(delta)
        variational = faulted.variational
        state_before = variational.resident.chain.state.copy()
        factors_before = variational.num_factors
        with inject_faults(FaultPlan([Fault(site="engine.update.patched")])):
            with pytest.raises(FaultInjected):
                faulted.apply_update(deltas[2])
        assert faulted.rollbacks == 1
        assert variational.num_factors == factors_before
        assert np.array_equal(variational.resident.chain.state, state_before)
        for delta in deltas[2:]:
            retried = faulted.apply_update(delta)
            fresh = twin.apply_update(delta)
            assert np.array_equal(retried.marginals, fresh.marginals)

    def test_pickle_round_trip_mid_sequence(self):
        graph, engine = self.make()
        deltas = list(update_sequence(graph))
        for delta in deltas[:3]:
            engine.apply_update(delta)
        restored = pickle.loads(pickle.dumps(engine))
        assert restored.variational.resident.chain.compiled is restored.variational.resident.compiled
        live = engine.apply_update(deltas[3])
        replayed = restored.apply_update(deltas[3])
        assert np.array_equal(live.marginals, replayed.marginals)

    def test_unpickled_substrate_keeps_patch_flags_across_appends(self):
        """numpy pickles an array view as a detached copy; the substrate
        re-derives its growable views on load, or a flag written after a
        restore would vanish at the next append."""
        live = CompiledFactorGraph(random_pairwise_graph(12, seed=0))
        restored = pickle.loads(pickle.dumps(live))
        for substrate in (live, restored):
            substrate.apply_delta(
                FactorGraphDelta(
                    new_weight_entries=[("f", 0.5, False)],
                    new_factors=lower_factors([
                        BiasFactor(weight_id=len(substrate.weights), var=5)
                    ]),
                ),
                compact_threshold=None,
            )
            substrate.apply_delta(
                FactorGraphDelta(num_new_vars=1), compact_threshold=None
            )
        assert restored.var_patched[5]
        assert np.array_equal(restored.var_patched, live.var_patched)

