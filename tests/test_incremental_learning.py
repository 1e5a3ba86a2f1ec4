"""Persistent incremental learning on the patched substrate.

The tentpole invariants of the patchable learner:

* the compiled, vectorised gradient aggregation
  (``CompiledFactorGraph.weight_statistics`` + live per-weight factor
  counts) must equal the per-factor Python loop of
  ``tests/reference/learning.py`` on random graphs and worlds — including
  after arbitrary ``apply_delta`` sequences and compactions;
* a learner carried across a patch with ``SGDLearner.apply_patch`` must
  behave like a freshly constructed learner on the patched graph
  (identical gradients for identical worlds; loss trajectories within
  tolerance);
* the live-cache pseudo-NLL must match the reference that builds a
  fresh cache per call.
"""

import numpy as np
import pytest

import repro.core.resident
from repro.core import EngineConfig, IncrementalEngine, RerunEngine
from repro.graph import FactorGraph, FactorGraphDelta, Semantics
from repro.graph.compiled import CompiledFactorGraph
from repro.learning import SGDLearner
from repro.learning.gradient import (
    factor_counts_per_weight,
    weight_gradient,
    weight_statistics,
)

from tests.helpers import counting
from tests.reference import learning as reference
from tests.test_incremental_compile import random_delta, seed_graph


def labeled_bias_graph(p_true=0.8, n=40, extra_free=5):
    """Labelled examples tied to one bias weight, plus free probes."""
    fg = FactorGraph()
    wid = fg.weights.intern("bias", initial=0.0)
    num_pos = int(round(p_true * n))
    for i in range(n):
        v = fg.add_variable(evidence=i < num_pos)
        fg.add_bias_factor(wid, v)
    for _ in range(extra_free):
        v = fg.add_variable()
        fg.add_bias_factor(wid, v)
    return fg, wid


def new_examples_delta(graph, step, k=10, pos=7):
    """An F2+S2-style update: a new feature weight + new labelled vars."""
    delta = FactorGraphDelta()
    nw = len(graph.weights)
    delta.new_weight_entries.append((("feat", step), 0.0, False))
    delta.num_new_vars = k
    for j in range(k):
        delta.new_factors.add_bias(nw, graph.num_vars + j)
        delta.new_var_evidence[j] = j < pos
    return delta


class TestCompiledWeightStatistics:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_python_loop_on_random_graph(self, seed):
        graph = seed_graph(seed=seed)
        # A head-in-body rule (head appears in its own body).
        w = graph.weights.intern(("self", seed), initial=0.2)
        graph.add_rule_factor(
            w, 4, [[(4, True), (8, True)], [(9, False)]], Semantics.LOGICAL
        )
        compiled = CompiledFactorGraph(graph)
        rng = np.random.default_rng(seed)
        worlds = rng.random((6, graph.num_vars)) < 0.5
        fast = weight_statistics(compiled, worlds)
        slow = reference.weight_statistics(graph, worlds)
        assert np.allclose(fast, slow, rtol=1e-9, atol=1e-9)
        assert np.array_equal(
            factor_counts_per_weight(compiled),
            reference.factor_counts_per_weight(graph),
        )

    def test_single_world_vector_accepted(self):
        graph = seed_graph(seed=1)
        compiled = CompiledFactorGraph(graph)
        world = np.zeros(graph.num_vars, dtype=bool)
        assert np.allclose(
            weight_statistics(compiled, world),
            reference.weight_statistics(graph, world),
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_after_random_patches(self, seed):
        """Patched flat arrays (tombstones + appends + compactions) keep
        the compiled statistics equal to the Python loop on the updated
        graph."""
        rng = np.random.default_rng(100 + seed)
        graph = seed_graph(seed=seed)
        compiled = CompiledFactorGraph(graph)
        for step in range(6):
            delta = random_delta(graph, rng, step)
            updated = delta.apply(graph)
            # Alternate between pure patching and threshold compaction.
            threshold = 1.0 if step % 3 else 0.2
            compiled.apply_delta(delta, compact_threshold=threshold)
            graph = updated
            worlds = rng.random((4, graph.num_vars)) < 0.5
            assert np.allclose(
                weight_statistics(compiled, worlds),
                reference.weight_statistics(graph, worlds),
                rtol=1e-9,
                atol=1e-9,
            )
            assert np.array_equal(
                factor_counts_per_weight(compiled),
                reference.factor_counts_per_weight(graph),
            )

    def test_gradient_parity_with_l2_and_fixed_weights(self):
        graph = seed_graph(seed=2)
        hard = graph.weights.intern("hard", initial=2.0, fixed=True)
        graph.add_bias_factor(hard, 3)
        compiled = CompiledFactorGraph(graph)
        rng = np.random.default_rng(2)
        cond = rng.random((5, graph.num_vars)) < 0.5
        free = rng.random((5, graph.num_vars)) < 0.5
        fast = weight_gradient(compiled, cond, free, l2=0.01)
        slow = reference.weight_gradient(graph, cond, free, l2=0.01)
        assert np.allclose(fast, slow, rtol=1e-9, atol=1e-9)
        assert fast[hard] == 0.0


class TestPatchedLearnerEquivalence:
    def test_gradient_parity_after_patch_sequence(self):
        """The learner's patched compilation produces the same gradients
        as a fresh compile of the final graph."""
        rng = np.random.default_rng(7)
        graph = seed_graph(seed=7)
        for v in range(0, 12, 3):
            graph.set_evidence(v, bool(rng.integers(2)))
        compiled = CompiledFactorGraph(graph)
        learner = SGDLearner(graph, seed=0, compiled=compiled)
        for step in range(4):
            delta = random_delta(graph, rng, step)
            updated = delta.apply(graph)
            patch = compiled.apply_delta(delta, compact_threshold=1.0)
            learner.apply_patch(patch)
            graph = updated
            learner.fit(2, record_loss=False)  # exercise warm chains
        assert learner.graph is compiled.graph
        assert not learner.free_graph.evidence
        assert learner.free_graph.num_vars == graph.num_vars
        fresh = CompiledFactorGraph(graph)
        cond = rng.random((6, graph.num_vars)) < 0.5
        free = rng.random((6, graph.num_vars)) < 0.5
        assert np.allclose(
            weight_gradient(compiled, cond, free),
            weight_gradient(fresh, cond, free),
            rtol=1e-9,
            atol=1e-9,
        )

    def test_loss_trajectory_matches_fresh_learner(self):
        """Warm patched learner ≈ freshly constructed learner on the
        patched graph (same pretrained weights): the loss trajectories
        agree within sampling noise."""
        fg, wid = labeled_bias_graph()
        learner = SGDLearner(fg, step_size=0.3, seed=0, l2=0.0)
        learner.fit(40, record_loss=False)

        delta = new_examples_delta(learner.graph, 0)
        updated = delta.apply(learner.graph)
        patch = learner.compiled.apply_delta(delta)
        learner.apply_patch(patch)

        fresh = SGDLearner(updated.copy(), step_size=0.3, seed=1, l2=0.0)
        warm_hist = learner.fit(25)
        fresh_hist = fresh.fit(25)
        assert abs(warm_hist.losses[0] - fresh_hist.losses[0]) < 0.05
        assert abs(warm_hist.final_loss() - fresh_hist.final_loss()) < 0.05
        # Both land near the same learned weights.
        for w in range(len(updated.weights)):
            assert abs(
                learner.graph.weights.value(w) - fresh.graph.weights.value(w)
            ) < 0.25

    def test_chain_pair_survives_patch_and_learns_the_new_weight(self):
        """The learner's two chains are carried across the patch, not
        rebuilt, keep learning, and the conditioned one stays clamped."""
        fg, wid = labeled_bias_graph(n=30, extra_free=2)
        learner = SGDLearner(fg, step_size=0.3, seed=0, l2=0.0)
        learner.fit(20, record_loss=False)
        chains = (learner._conditioned, learner._free)
        delta = new_examples_delta(learner.graph, 0, k=8, pos=6)
        updated = delta.apply(learner.graph)
        learner.apply_patch(learner.compiled.apply_delta(delta))
        learner.fit(40, record_loss=False)
        assert (learner._conditioned, learner._free) == chains
        # New feature weight learned towards its MLE
        # (sigmoid(2w) = 6/8 → w ≈ 0.55).
        nw = len(updated.weights) - 1
        assert learner.graph.weights.value(nw) == pytest.approx(0.55, abs=0.3)
        state = learner._conditioned.state
        assert state.shape == (updated.num_vars,)
        for var, val in learner.graph.evidence.items():
            assert bool(state[var]) == val

class TestEvidencePseudoNLL:
    def test_live_cache_matches_fresh_path(self):
        """The O(|evidence|) live-cache scorer returns the same value as
        the reference that builds a cache per call."""
        fg, _ = labeled_bias_graph()
        learner = SGDLearner(fg, step_size=0.3, seed=0, l2=0.0)
        learner.fit(5, record_loss=False)
        live = learner.evidence_pseudo_nll()
        fresh = reference.evidence_pseudo_nll(learner)
        assert live == pytest.approx(fresh, abs=1e-9)
        # After a weight mutation between epochs the scorer must refresh.
        fg.weights.set_value(0, fg.weights.value(0) + 0.3)
        assert learner.evidence_pseudo_nll() == pytest.approx(
            reference.evidence_pseudo_nll(learner), abs=1e-9
        )

    def test_live_cache_matches_on_structured_graph(self):
        rng = np.random.default_rng(5)
        graph = seed_graph(seed=5)
        for v in range(0, 16, 2):
            graph.set_evidence(v, bool(rng.integers(2)))
        learner = SGDLearner(graph, seed=0)
        learner.fit(3, record_loss=False)
        assert learner.evidence_pseudo_nll() == pytest.approx(
            reference.evidence_pseudo_nll(learner), abs=1e-8
        )

    def test_live_cache_matches_after_patch(self):
        fg, _ = labeled_bias_graph()
        learner = SGDLearner(fg, step_size=0.3, seed=0, l2=0.0)
        learner.fit(5, record_loss=False)
        delta = new_examples_delta(learner.graph, 0)
        updated = delta.apply(learner.graph)
        patch = learner.compiled.apply_delta(delta)
        learner.apply_patch(patch)
        assert learner.evidence_pseudo_nll() == pytest.approx(
            reference.evidence_pseudo_nll(learner), abs=1e-9
        )

    def test_loss_recording_builds_no_fresh_cache(self, monkeypatch):
        """Regression (perf): ``fit(record_loss=True)`` used to construct
        a fresh O(graph) GibbsCache per epoch just to score the loss; it
        must now reuse the conditioned chain's live cache."""
        from repro.graph.compiled import GibbsCache

        fg, _ = labeled_bias_graph()
        learner = SGDLearner(fg, step_size=0.3, seed=0, l2=0.0)
        builds = []
        real_init = GibbsCache.__init__

        def counting_init(cache, compiled, assignment):
            builds.append(1)
            real_init(cache, compiled, assignment)

        monkeypatch.setattr(
            "repro.graph.compiled.GibbsCache.__init__", counting_init
        )
        learner.fit(5, record_loss=True)
        assert not builds

class TestEngineRelearn:
    def _delta(self, graph, step):
        return new_examples_delta(graph, step, k=8, pos=6)

    def test_rerun_engine_warm_relearn(self):
        fg, wid = labeled_bias_graph()
        with RerunEngine(
            fg, EngineConfig(seed=0, inference_samples=5, burn_in=2)
        ) as engine:
            engine.relearn(30, record_loss=False)
            assert (engine.learns_warm, engine.learns_cold) == (0, 1)
            with counting(CompiledFactorGraph, "__init__") as builds:
                engine.apply_update(self._delta(engine.current_graph, 0))
            assert builds["__init__"] == 0  # the update patched
            hist = engine.relearn(15)
            assert (engine.learns_warm, engine.learns_cold) == (1, 1)
            assert hist.final_loss() < 0.75
            # Learned weights visible on the engine's live graph.
            assert engine.current_graph.weights.value(wid) > 0.3

    def test_rerun_engine_cold_lesion_zeroes_weights(self):
        fg, wid = labeled_bias_graph()
        with RerunEngine(
            fg,
            EngineConfig(
                seed=0, inference_samples=5, burn_in=2, warm_learning=False
            ),
        ) as engine:
            engine.relearn(30, record_loss=False)
            learned = engine.current_graph.weights.value(wid)
            assert learned > 0.3
            engine.apply_update(self._delta(engine.current_graph, 0))
            engine.relearn(1, record_loss=False)
            # The cold restart re-zeroed the pretrained weight first.
            assert (engine.learns_warm, engine.learns_cold) == (0, 2)
            assert abs(engine.current_graph.weights.value(wid)) < learned

    def test_incremental_engine_warm_relearn_across_updates(self):
        fg, wid = labeled_bias_graph()
        cfg = EngineConfig(
            seed=0, materialization_samples=40, inference_steps=10, burn_in=2
        )
        with IncrementalEngine(fg, cfg) as engine:
            engine.materialize()
            engine.relearn(30, record_loss=False)
            for step in range(3):
                engine.apply_update(self._delta(engine.current_graph, step))
                engine.relearn(8, record_loss=False)
            assert (engine.learns_warm, engine.learns_cold) == (3, 1)
            assert engine.resident.compiled.num_vars == engine.current_graph.num_vars
            # Every interned feature weight moved towards its MLE sign.
            for step in range(3):
                wid_step = engine.current_graph.weights.id_for(("feat", step))
                assert engine.current_graph.weights.value(wid_step) > 0.0

    @pytest.mark.parametrize("compact_threshold", [0.0, 1.0])
    def test_relearn_across_a_retraction_keeps_the_engine_sampler_in_step(
        self, compact_threshold, monkeypatch
    ):
        """A retraction either compacts the substrate or leaves
        tombstones; relearning on it, then updating again, must leave the
        engine's chain indexing the layout it is on."""
        fg, wid = labeled_bias_graph(n=24, extra_free=4)
        w_rule = fg.weights.intern("rule", initial=0.3)
        # Two rules: removing the first shifts the survivor's compiled
        # rule/grounding ids when a compaction lands.
        rule_fi = fg.add_rule_factor(
            w_rule, 25, [[(0, True)], [(1, True)]], Semantics.RATIO
        )
        fg.add_rule_factor(
            w_rule, 26, [[(2, True), (3, True)], [(27, False)]], Semantics.RATIO
        )
        monkeypatch.setattr(repro.core.resident, "COMPACT_THRESHOLD", compact_threshold)
        config = EngineConfig(seed=0, inference_samples=5, burn_in=2)
        with RerunEngine(fg, config) as engine:
            engine.apply_update(FactorGraphDelta())  # prime compile
            engine.apply_update(FactorGraphDelta(removed_factor_ids={rule_fi}))
            assert engine.resident.compiled.has_patches == (compact_threshold == 1.0)
            engine.relearn(3, record_loss=False)
            out = engine.apply_update(self._delta(engine.current_graph, 0))
            assert out.marginals.shape[0] == engine.current_graph.num_vars
            chain = engine.resident.chain
            chain.cache.check_consistency(chain.state)
            engine.relearn(3, record_loss=False)
            for chain in (engine.resident.learner._conditioned, engine.resident.learner._free):
                chain.cache.refresh_weights(chain.state)
                chain.cache.check_consistency(chain.state)

    def test_incremental_engine_relearn_does_not_touch_base_graph(self):
        fg, wid = labeled_bias_graph()
        cfg = EngineConfig(
            seed=0, materialization_samples=40, inference_steps=10, burn_in=2
        )
        with IncrementalEngine(fg, cfg) as engine:
            engine.materialize()
            engine.relearn(20, record_loss=False)
            assert engine.base_graph.weights.value(wid) == 0.0
            assert engine.current_graph.weights.value(wid) > 0.2
