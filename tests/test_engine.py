"""End-to-end tests for the Incremental vs Rerun engines."""

import numpy as np
import pytest

from repro.core import EngineConfig, IncrementalEngine, RerunEngine
from repro.core.costmodel import CostInputs, all_costs
from repro.graph import FactorGraph, FactorGraphDelta
from repro.inference import ExactInference
from repro.util.stats import max_marginal_error

from tests.helpers import chain_ising_graph, random_pairwise_graph


def feature_delta(fg_weights_len, var, weight, key):
    delta = FactorGraphDelta()
    delta.new_weight_entries.append((key, weight, False))
    delta.new_factors.add_bias(fg_weights_len, var)
    return delta


def config(**overrides):
    base = dict(
        materialization_samples=600,
        inference_steps=400,
        inference_samples=300,
        variational_lam=0.05,
        variational_inference_samples=400,
        seed=0,
    )
    base.update(overrides)
    return EngineConfig(**base)


class TestIncrementalEngine:
    def test_requires_materialization(self):
        engine = IncrementalEngine(chain_ising_graph(4), config())
        with pytest.raises(RuntimeError):
            engine.apply_update(FactorGraphDelta())

    def test_materialize_reports_stats(self):
        engine = IncrementalEngine(chain_ising_graph(4), config())
        stats = engine.materialize()
        assert stats["samples"] == 600
        # Bit-packed bundle: 4 variables round up to one byte per sample.
        assert stats["bundle_bits"] == 600 * 8
        assert stats["approx_factors"] > 0

    def test_empty_update_uses_sampling_rule1(self):
        engine = IncrementalEngine(chain_ising_graph(5, 0.5, 0.2), config())
        engine.materialize()
        outcome = engine.apply_update(FactorGraphDelta())
        assert outcome.strategy == "sampling"
        assert outcome.decision.rule == 1
        assert outcome.acceptance_rate == 1.0

    def test_evidence_update_uses_variational_rule2(self):
        engine = IncrementalEngine(chain_ising_graph(5, 0.5, 0.2), config())
        engine.materialize()
        outcome = engine.apply_update(FactorGraphDelta(evidence_updates={1: True}))
        assert outcome.strategy == "variational"
        assert outcome.decision.rule == 2
        assert outcome.marginals[1] == 1.0

    def test_feature_update_uses_sampling_rule3(self):
        fg = chain_ising_graph(5, 0.5, 0.2)
        engine = IncrementalEngine(fg, config())
        engine.materialize()
        outcome = engine.apply_update(
            feature_delta(len(fg.weights), 2, 0.4, "f1")
        )
        assert outcome.strategy == "sampling"
        assert outcome.decision.rule == 3

    def test_marginals_track_updates(self):
        fg = chain_ising_graph(6, coupling=0.5, bias=0.1)
        engine = IncrementalEngine(fg, config())
        engine.materialize()
        delta = feature_delta(len(fg.weights), 3, 1.0, "f1")
        outcome = engine.apply_update(delta)
        exact = ExactInference(engine.current_graph).marginals()
        assert max_marginal_error(outcome.marginals, exact) < 0.12

    def test_successive_updates_compose(self):
        fg = chain_ising_graph(6, coupling=0.4, bias=0.0)
        engine = IncrementalEngine(fg, config())
        engine.materialize()
        d1 = feature_delta(len(fg.weights), 0, 0.5, "f1")
        engine.apply_update(d1)
        d2 = feature_delta(len(fg.weights) + 1, 5, 0.5, "f2")
        outcome = engine.apply_update(d2)
        assert engine.current_graph.num_factors == fg.num_factors + 2
        exact = ExactInference(engine.current_graph).marginals()
        assert max_marginal_error(outcome.marginals, exact) < 0.12

    def test_fallback_on_exhaustion(self):
        fg = chain_ising_graph(5, 0.5, 0.2)
        engine = IncrementalEngine(
            fg, config(materialization_samples=50, inference_steps=100)
        )
        engine.materialize()
        engine.apply_update(FactorGraphDelta())  # consumes the bundle
        outcome = engine.apply_update(FactorGraphDelta())
        assert outcome.strategy == "variational"
        assert outcome.fell_back or outcome.decision.rule == 4

    def test_lesion_no_sampling(self):
        fg = chain_ising_graph(5, 0.5, 0.2)
        engine = IncrementalEngine(fg, config(strategies=("variational",)))
        engine.materialize()
        outcome = engine.apply_update(FactorGraphDelta())
        assert outcome.strategy == "variational"

    def test_lesion_no_variational(self):
        fg = chain_ising_graph(5, 0.5, 0.2)
        engine = IncrementalEngine(fg, config(strategies=("sampling",)))
        engine.materialize()
        outcome = engine.apply_update(
            FactorGraphDelta(evidence_updates={0: True})
        )
        assert outcome.strategy == "sampling"

    def test_sampling_lesion_exhausted_keeps_last_marginals(self):
        """Regression (Fig. 11 lesion): with only the sampling strategy
        and a dry bundle, the engine used to run a 0-step MH pass and
        ship its artifact (an IndexError crash / all-zero marginals).
        It must ship the last known marginals, flagged exhausted."""
        fg = FactorGraph()
        bias = fg.weights.intern("b", initial=1.0)
        for v in range(6):
            fg.add_variable()
            fg.add_bias_factor(bias, v)
        fg.set_evidence(0, True)
        engine = IncrementalEngine(
            fg,
            config(
                materialization_samples=5,
                inference_steps=10,
                strategies=("sampling",),
            ),
        )
        engine.materialize()
        first = engine.apply_update(FactorGraphDelta(evidence_updates={1: True}))
        assert first.samples_used > 0
        # Bundle is now dry: the next update cannot execute a single step.
        outcome = engine.apply_update(
            FactorGraphDelta(evidence_updates={2: True})
        )
        assert outcome.details.get("exhausted") is True
        assert outcome.samples_used == 0
        # Positively-biased free variables keep a sensible marginal.
        for v in (3, 4, 5):
            assert outcome.marginals[v] > 0.5
        assert outcome.marginals[2] == 1.0  # new evidence still clamped

    def test_no_workload_info_baseline(self):
        fg = chain_ising_graph(5, 0.5, 0.2)
        engine = IncrementalEngine(fg, config(workload_aware=False))
        engine.materialize()
        # Evidence update would normally go variational; NoWorkloadInfo
        # still picks sampling while samples remain.
        outcome = engine.apply_update(
            FactorGraphDelta(evidence_updates={0: True})
        )
        assert outcome.strategy == "sampling"

    def test_incremental_matches_rerun_quality(self):
        """§4.2: the two systems deliver essentially the same marginals."""
        fg = random_pairwise_graph(8, density=0.3, seed=7, weight_range=0.4)
        incremental = IncrementalEngine(fg, config())
        incremental.materialize()
        rerun = RerunEngine(fg, config(inference_samples=1500))
        delta = feature_delta(len(fg.weights), 1, 0.6, "f1")
        out_inc = incremental.apply_update(delta)
        out_rerun = rerun.apply_update(delta)
        assert max_marginal_error(out_inc.marginals, out_rerun.marginals) < 0.15


class TestRerunEngine:
    def test_rerun_applies_and_infers(self):
        fg = chain_ising_graph(5, coupling=0.5, bias=0.2)
        engine = RerunEngine(fg, config(inference_samples=2000))
        outcome = engine.apply_update(FactorGraphDelta())
        exact = ExactInference(fg).marginals()
        assert max_marginal_error(outcome.marginals, exact) < 0.06
        assert outcome.strategy == "rerun"


class TestCostModel:
    def test_strawman_blows_up_with_size(self):
        small = CostInputs(10, 1, 20, 2, 0.5, 100, 200)
        large = CostInputs(40, 1, 80, 2, 0.5, 100, 200)
        s_small = next(c for c in all_costs(small) if c["strategy"] == "strawman")
        s_large = next(c for c in all_costs(large) if c["strategy"] == "strawman")
        assert s_large["mat_cost"] / s_small["mat_cost"] > 1e6

    def test_sampling_inference_scales_with_inverse_acceptance(self):
        fast = CostInputs(100, 10, 200, 20, 1.0, 100, 200)
        slow = CostInputs(100, 10, 200, 20, 0.01, 100, 200)
        c_fast = next(c for c in all_costs(fast) if c["strategy"] == "sampling")
        c_slow = next(c for c in all_costs(slow) if c["strategy"] == "sampling")
        assert c_slow["inference_cost"] == pytest.approx(
            c_fast["inference_cost"] * 100
        )

    def test_variational_insensitive_to_acceptance(self):
        a = CostInputs(100, 10, 200, 20, 1.0, 100, 200)
        b = CostInputs(100, 10, 200, 20, 0.001, 100, 200)
        va = next(c for c in all_costs(a) if c["strategy"] == "variational")
        vb = next(c for c in all_costs(b) if c["strategy"] == "variational")
        assert va["inference_cost"] == vb["inference_cost"]
