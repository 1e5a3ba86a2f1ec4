"""Tests for convergence measurement and MH edge cases."""

import numpy as np
import pytest

from repro.core import EngineConfig, IncrementalEngine
from repro.graph import FactorGraphDelta, Semantics
from repro.graph.compiled import CompiledFactorGraph
from repro.inference import GibbsSampler, IndependentMH
from repro.inference.convergence import sweeps_to_marginal
from repro.inference.exact import ExactInference
from repro.inference.gibbs import ChainStack
from repro.workloads import voting_program
from repro.workloads.systems import build_pipeline, workload_by_name

from tests.helpers import (
    chain_ising_graph,
    mixed_case,
    random_pairwise_graph,
    voting_graph,
)
from tests.reference.metropolis import reference_mh_run


class TestConvergenceMeasurement:
    def test_easy_graph_converges_quickly(self):
        fg = chain_ising_graph(4, coupling=0.2, bias=0.0)
        result = sweeps_to_marginal(
            fg, var=0, target=0.5, tol=0.15, num_chains=16, max_sweeps=200,
            seed=0,
        )
        assert result["converged"]
        assert result["sweeps"] < 200
        assert result["variable_updates"] == result["sweeps"] * 4

    def test_unreachable_target_hits_cap(self):
        fg = chain_ising_graph(3, coupling=0.0, bias=3.0)
        result = sweeps_to_marginal(
            fg, var=0, target=0.0, tol=0.01, num_chains=8, max_sweeps=20,
            seed=0,
        )
        assert not result["converged"]
        assert result["sweeps"] == 20

    def test_linear_voting_slower_than_ratio(self):
        """The Fig. 13 contrast at small scale, from worst-case starts."""
        n = 12
        worst = np.zeros(1 + 2 * n, dtype=bool)
        worst[: 1 + n] = True
        results = {}
        for sem in (Semantics.LINEAR, Semantics.RATIO):
            fg = voting_program(n, n, semantics=sem)
            results[sem] = sweeps_to_marginal(
                fg, var=0, target=0.5, tol=0.06, num_chains=32,
                max_sweeps=500, seed=1, initial=worst,
            )
        assert (
            results[Semantics.LINEAR]["sweeps"]
            >= results[Semantics.RATIO]["sweeps"]
        )


class TestEnsembleOnTheStack:
    """The convergence ensemble is one ``ChainStack`` of same-compilation
    chains drawing from one generator; it clamps evidence from the first
    state on and samples the exact distribution."""

    @staticmethod
    def stack(graph, num_chains, seed, initial=None) -> ChainStack:
        rng = np.random.default_rng(seed)
        compiled = CompiledFactorGraph(graph)
        return ChainStack(
            [
                GibbsSampler(graph, seed=rng, initial=initial, compiled=compiled)
                for _ in range(num_chains)
            ]
        )

    def test_initial_state_is_clamped_to_evidence(self):
        graph = chain_ising_graph(6, coupling=0.2)
        graph.set_evidence(2, True)
        initial = np.zeros(graph.num_vars, dtype=bool)
        expected = initial.copy()
        expected[2] = True
        for chain in self.stack(graph, 2, 0, initial).members:
            assert np.array_equal(chain.state, expected)
        # The clamped variable sits at its target from the first sweep.
        result = sweeps_to_marginal(
            graph, 2, 1.0, tol=0.0, num_chains=2, max_sweeps=10, seed=0,
            initial=initial,
        )
        assert (result["sweeps"], result["converged"]) == (3, True)

    def test_rule_graph_with_evidence_matches_exact(self):
        graph = voting_graph(4, 4, voter_bias=0.3)
        graph.set_evidence(1, True)
        exact = ExactInference(graph).marginals()
        worlds = self.stack(graph, 4, 9).sample_worlds(1000, burn_in=50)
        assert worlds[:, :, 1].all()
        estimate = worlds.reshape(-1, graph.num_vars).mean(axis=0)
        assert float(np.abs(estimate - exact).max()) < 0.05

    def test_all_evidence_graph(self):
        graph = chain_ising_graph(4, coupling=0.2)
        for v in range(4):
            graph.set_evidence(v, v % 2 == 0)
        evidence = [True, False, True, False]
        stack = self.stack(graph, 2, 0)
        for _ in range(3):
            stack.sweep()
        for chain in stack.members:
            assert chain.state.tolist() == evidence
        worlds = stack.sample_worlds(5)
        assert worlds.shape == (2, 5, 4)
        assert (worlds == np.array(evidence)).all()

    def test_deterministic_given_seed(self):
        graph = chain_ising_graph(16, coupling=0.4)
        runs = []
        for _ in range(2):
            stack = self.stack(graph, 4, 5)
            values = []
            for _ in range(5):
                stack.sweep()
                values.append([chain.state[3] for chain in stack.members])
            runs.append((np.array(values), stack.sample_worlds(30, thin=2)))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])

    def test_pairwise_graph_matches_exact(self):
        graph = random_pairwise_graph(10, density=0.3, seed=6)
        exact = ExactInference(graph).marginals()
        worlds = self.stack(graph, 4, 1).sample_worlds(1000, burn_in=200)
        estimate = worlds.reshape(-1, graph.num_vars).mean(axis=0)
        assert float(np.abs(estimate - exact).max()) < 0.05

    @pytest.mark.parametrize("semantics", list(Semantics), ids=lambda s: s.value)
    def test_voting_graph_matches_exact_under_each_semantics(self, semantics):
        graph = voting_graph(3, 3, semantics=semantics, voter_bias=-0.2)
        graph.set_evidence(2, True)
        exact = ExactInference(graph).marginals()
        worlds = self.stack(graph, 4, 3).sample_worlds(1000, burn_in=50)
        assert worlds[:, :, 2].all()
        estimate = worlds.reshape(-1, graph.num_vars).mean(axis=0)
        assert float(np.abs(estimate - exact).max()) < 0.05

    def test_weight_updates_reach_every_member(self):
        graph = chain_ising_graph(6, coupling=0.0, bias=0.0)
        bias = graph.weights.intern("strong_bias", initial=0.0)
        for var in range(graph.num_vars):
            graph.add_bias_factor(bias, var)
        stack = self.stack(graph, 4, 1)
        stack.sweep()
        graph.weights.set_value(bias, 40.0)
        stack.sweep()
        for chain in stack.members:
            assert chain.state.all()
            chain.cache.check_consistency(chain.state)

    def test_thinned_samples_end_at_the_members_states(self):
        graph = voting_graph(3, 3)
        stack = self.stack(graph, 5, 0)
        worlds = stack.sample_worlds(3, thin=4, burn_in=2)
        assert worlds.shape == (5, 3, graph.num_vars)
        for chain, last in zip(stack.members, worlds[:, -1]):
            assert np.array_equal(chain.state, last)
            assert chain.sweeps_done == 2 + 3 * 4

    def test_sweeps_to_marginal_is_deterministic_given_seed(self):
        graph = voting_graph(5, 5, semantics=Semantics.LINEAR)
        kw = dict(tol=0.05, num_chains=16, max_sweeps=200, seed=4)
        assert sweeps_to_marginal(graph, 0, 0.5, **kw) == sweeps_to_marginal(
            graph, 0, 0.5, **kw
        )


class TestIndependentMHEdgeCases:
    def test_shape_validation(self):
        fg = chain_ising_graph(3)
        with pytest.raises(ValueError):
            IndependentMH(fg, FactorGraphDelta(), np.zeros((5, 7), dtype=bool))

    def test_zero_steps(self):
        fg = chain_ising_graph(3)
        samples = np.zeros((10, 3), dtype=bool)
        mh = IndependentMH(fg, FactorGraphDelta(), samples, seed=0)
        result = mh.run(0)
        assert result.proposals_used == 0
        # Asking for zero steps is not exhaustion: samples remain.
        assert not result.exhausted

    def test_zero_steps_reports_initial_state_not_zeros(self):
        """Regression: a 0-step run used to return ``counts / 1`` — an
        all-zero marginal vector masquerading as a confident answer."""
        fg = chain_ising_graph(3, coupling=0.0, bias=2.0)
        samples = np.ones((4, 3), dtype=bool)
        mh = IndependentMH(fg, FactorGraphDelta(), samples, seed=0)
        result = mh.run(0)
        assert result.proposals_used == 0
        # Initial-state counts (the first stored world), not zeros.
        assert result.marginals.min() == 1.0

    def test_empty_bundle_raises_instead_of_fabricating(self):
        """Regression: MH over an empty bundle crashed with IndexError
        (or would return zeros); it must fail loudly so callers fall
        back."""
        fg = chain_ising_graph(3)
        empty = np.zeros((0, 3), dtype=bool)
        mh = IndependentMH(fg, FactorGraphDelta(), empty, seed=0)
        with pytest.raises(ValueError, match="no stored proposals"):
            mh.run(10)

    def test_keep_chain_shape(self):
        fg = chain_ising_graph(3)
        samples = np.zeros((10, 3), dtype=bool)
        mh = IndependentMH(fg, FactorGraphDelta(), samples, seed=0)
        result = mh.run(5, keep_chain=True)
        assert result.chain.shape == (5, 3)

    def test_contradictory_evidence_rejects_proposals(self):
        """Samples all-false; delta clamps a var true: proposals violate
        the evidence so only the (forced) initial state survives."""
        fg = chain_ising_graph(3, coupling=0.0, bias=0.0)
        samples = np.zeros((50, 3), dtype=bool)
        delta = FactorGraphDelta(evidence_updates={0: True})
        mh = IndependentMH(fg, delta, samples, seed=0)
        result = mh.run(50)
        assert result.acceptance_rate == 0.0
        assert result.marginals[0] == 1.0  # forced initial state kept

    def test_converges_to_updated_distribution_given_good_bundle(self):
        fg = chain_ising_graph(5, coupling=0.4, bias=0.1)
        from repro.inference import GibbsSampler

        bundle = GibbsSampler(fg, seed=0).sample_worlds(3000, burn_in=100)
        delta = FactorGraphDelta()
        delta.new_weight_entries.append(("b", 0.8, False))
        from repro.graph import BiasFactor

        delta.new_factors.append(
            BiasFactor(weight_id=len(fg.weights), var=2)
        )
        mh = IndependentMH(fg, delta, bundle, seed=1)
        result = mh.run(3000)
        exact = ExactInference(delta.apply(fg)).marginals()
        assert np.abs(result.marginals - exact).max() < 0.08


def assert_same_run(base, delta, stored, seed, num_steps, keep_chain=True):
    """``IndependentMH.run`` ≡ the per-proposal loop: same result, same
    generator state afterwards."""
    mh = IndependentMH(base, delta, stored, seed=np.random.default_rng(seed))
    got = mh.run(num_steps, keep_chain=keep_chain)
    ref_rng = np.random.default_rng(seed)
    want = reference_mh_run(base, delta, stored, ref_rng, num_steps, keep_chain)
    assert (got.accepted, got.proposals_used, got.exhausted) == (
        want.accepted,
        want.proposals_used,
        want.exhausted,
    )
    assert got.acceptance_rate == want.acceptance_rate
    assert got.marginals.dtype == want.marginals.dtype
    assert np.array_equal(got.marginals, want.marginals)  # bit for bit
    if keep_chain:
        assert got.chain.dtype == want.chain.dtype == bool
        assert got.chain.shape == want.chain.shape
        assert np.array_equal(got.chain, want.chain)
    else:
        assert got.chain is None and want.chain is None
    assert mh.rng.bit_generator.state == ref_rng.bit_generator.state
    return got


class TestBatchedRunMatchesStepLoop:
    """The batched ``run`` against ``tests/reference/metropolis.py``, the
    loop it replaced."""

    @pytest.mark.parametrize("new_vars", [0, 2])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_mixed_deltas(self, seed, new_vars):
        base, delta = mixed_case(seed, new_vars=new_vars)
        stored = np.random.default_rng(seed + 7).random((40, base.num_vars)) < 0.5
        assert_same_run(base, delta, stored, seed, num_steps=40)
        assert_same_run(base, delta, stored, seed, num_steps=25, keep_chain=False)

    def test_some_proposals_are_accepted_and_some_rejected(self):
        """The seeds above exercise both branches of the recurrence."""
        results = []
        for seed in range(12):
            base, delta = mixed_case(seed, new_vars=0)
            stored = (
                np.random.default_rng(seed + 7).random((40, base.num_vars)) < 0.5
            )
            results.append(IndependentMH(base, delta, stored, seed=seed).run(40))
        assert any(0 < r.accepted < r.proposals_used for r in results)

    def test_evidence_that_rejects_every_proposal(self):
        fg = chain_ising_graph(3, coupling=0.3, bias=0.1)
        stored = np.zeros((30, 3), dtype=bool)
        delta = FactorGraphDelta(evidence_updates={0: True})
        result = assert_same_run(fg, delta, stored, seed=3, num_steps=30)
        assert result.accepted == 0 and result.chain[:, 0].all()

    def test_exhaustion(self):
        base, delta = mixed_case(5, new_vars=1)
        stored = np.random.default_rng(0).random((9, base.num_vars)) < 0.5
        result = assert_same_run(base, delta, stored, seed=1, num_steps=20)
        assert result.exhausted and result.proposals_used == 9

    def test_zero_steps(self):
        base, delta = mixed_case(5, new_vars=2)
        stored = np.random.default_rng(0).random((4, base.num_vars)) < 0.5
        result = assert_same_run(base, delta, stored, seed=1, num_steps=0)
        assert result.chain.shape == (0, base.num_vars + 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_bundle_already_widened(self, seed):
        """Rows that ``extend_bundle`` already gave some of the appended
        columns: only the missing tail is drawn."""
        base, delta = mixed_case(seed, new_vars=3)
        stored = (
            np.random.default_rng(seed).random((30, base.num_vars + 2)) < 0.5
        )
        assert_same_run(base, delta, stored, seed, num_steps=30)
        full = np.random.default_rng(seed).random((30, base.num_vars + 3)) < 0.5
        assert_same_run(base, delta, full, seed, num_steps=30)

    def test_engine_updates_match_the_reference_loop(self, monkeypatch):
        """A1 → FE1 → FE2 → I1 on a KBC spouse system: every update's
        outcome equals the one recorded with the reference loop in
        ``IndependentMH.run``'s place (shared engine generator included:
        a drift in rng consumption would show in the next update)."""

        def devloop():
            pipeline = build_pipeline(workload_by_name("news"), scale=0.3, seed=0)
            grounder = pipeline.build_base()
            config = EngineConfig(
                materialization_samples=300,
                inference_steps=60,
                variational_inference_samples=40,
                burn_in=5,
                seed=0,
            )
            engine = IncrementalEngine(grounder.graph, config)
            engine.materialize()
            records = []
            for label, update in pipeline.snapshot_updates()[:4]:
                outcome = engine.apply_update(grounder.apply_update(**update).delta)
                assert outcome.strategy == "sampling", label
                records.append(
                    (
                        outcome.marginals,
                        outcome.acceptance_rate,
                        engine.sampling.samples_remaining,
                    )
                )
            return records

        batched = devloop()
        monkeypatch.setattr(
            IndependentMH,
            "run",
            lambda self, num_steps, keep_chain=False: reference_mh_run(
                self.base, self.delta, self.stored, self.rng, num_steps, keep_chain
            ),
        )
        recorded = devloop()
        assert [r[2] for r in batched] == [240, 180, 120, 60]
        for (marginals, rate, remaining), (ref_marginals, ref_rate, ref_remaining) in zip(
            batched, recorded
        ):
            assert np.array_equal(marginals, ref_marginals)
            assert rate == ref_rate and 0 < rate <= 1
            assert remaining == ref_remaining
