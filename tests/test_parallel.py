"""Parallel sampling: determinism, equivalence, and shard invariants.

The correctness contract of :mod:`repro.inference.parallel`:

* ``n_workers=1`` is *bit-identical* to the sequential kernel for the
  same seed (serial fallback short-circuits to ``GibbsSampler``);
* the shard partitioner never lets a factor span two different shards'
  interior blocks (the property that makes concurrent interior sweeps
  equivalent to a sequential scan order);
* both sharded sync modes and the chain ensemble reproduce
  exact-inference marginals on small graphs within sampling tolerance;
* the shared-memory export reconstructs a compiled graph whose kernels
  agree with the original.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import chain_ising_graph, random_pairwise_graph, voting_graph
from repro.graph.compiled import (
    CompiledFactorGraph,
    GibbsCache,
    partition_plan,
    shard_window,
)
from repro.graph.factor_graph import FactorGraph
from repro.graph.semantics import Semantics
from repro.inference.exact import ExactInference
from repro.inference.gibbs import GibbsSampler
from repro.inference.parallel import (
    ParallelChainEnsemble,
    ShardedGibbsSampler,
    SharedGraphExport,
    attach_compiled,
    measure_block_costs,
)


def mixed_graph() -> FactorGraph:
    """Ising chain + rule factors: exercises every incidence kind."""
    fg = chain_ising_graph(10, coupling=0.3, bias=0.1)
    wid = fg.weights.intern("rule", initial=0.6)
    fg.add_rule_factor(wid, 0, [[(3, True), (4, False)], [(5, True)]], Semantics.RATIO)
    wid2 = fg.weights.intern("rule2", initial=-0.4)
    fg.add_rule_factor(wid2, 7, [[(8, True), (9, True)]], Semantics.LOGICAL)
    return fg


# --------------------------------------------------------------------- #
# Shard partitioner
# --------------------------------------------------------------------- #


class TestPartitioner:
    @pytest.mark.parametrize("n_shards", [2, 3, 4])
    def test_no_factor_spans_two_interiors(self, n_shards):
        for graph in (
            chain_ising_graph(24, coupling=0.4),
            random_pairwise_graph(30, density=0.15, seed=1),
            voting_graph(5, 5, voter_bias=0.2),
            mixed_graph(),
        ):
            compiled = CompiledFactorGraph(graph)
            plan = compiled.plan()
            shard_plan = partition_plan(compiled, plan, n_shards)
            shard_plan.validate(compiled)

    def test_validate_rejects_bad_partition(self):
        graph = chain_ising_graph(8, coupling=0.4)
        compiled = CompiledFactorGraph(graph)
        plan = compiled.plan()
        shard_plan = partition_plan(compiled, plan, 2)
        # Adjacent chain variables share an Ising factor: forcing them
        # into different interiors must fail validation.
        bad = partition_plan(compiled, plan, 2)
        bad.shards = [np.array([0]), np.array([1])]
        bad.boundary = np.arange(2, plan.num_blocks)
        if plan.blocks[0].vars.size == 1 and plan.blocks[1].vars.size == 1:
            with pytest.raises(AssertionError):
                bad.validate(compiled)
        # and the partitioner's own output always passes
        shard_plan.validate(compiled)

    def test_partition_covers_all_blocks_once(self):
        graph = mixed_graph()
        compiled = CompiledFactorGraph(graph)
        plan = compiled.plan()
        sp = partition_plan(compiled, plan, 3)
        seen = np.concatenate([*sp.shards, sp.boundary])
        assert sorted(seen.tolist()) == list(range(plan.num_blocks))
        # owned_blocks covers boundary blocks exactly once across shards
        owned = np.concatenate([sp.owned_blocks(s) for s in range(3)])
        assert sorted(owned.tolist()) == list(range(plan.num_blocks))

    def test_measured_cost_model_accepted(self):
        graph = chain_ising_graph(20, coupling=0.3)
        compiled = CompiledFactorGraph(graph)
        plan = compiled.plan()
        costs = measure_block_costs(compiled, plan, repeats=1)
        assert costs.shape == (plan.num_blocks,)
        assert (costs >= 0).all()
        sp = partition_plan(compiled, plan, 2, block_costs=costs)
        sp.validate(compiled)

    def test_balance_on_chain(self):
        # A long chain should split into two comparable shards rather
        # than one shard plus everything-boundary.  Its default plan is
        # two colour classes — nothing to split — so the sharded sampler
        # cuts the narrower-window plan that ``shard_window`` names.
        graph = chain_ising_graph(60, coupling=0.3)
        compiled = CompiledFactorGraph(graph)
        assert compiled.plan().num_blocks == 2
        plan = compiled.plan(window=shard_window(compiled, 2))
        sp = partition_plan(compiled, plan, 2)
        sp.validate(compiled)
        sizes = [v.size for v in sp.shard_vars]
        assert min(sizes) > 0
        assert sp.boundary_fraction < 0.5


# --------------------------------------------------------------------- #
# Shared-memory export
# --------------------------------------------------------------------- #


class TestSharedExport:
    def test_roundtrip_and_kernel_parity(self):
        graph = mixed_graph()
        compiled = CompiledFactorGraph(graph)
        with SharedGraphExport(compiled) as export:
            attached, shm, _ = attach_compiled(export.spec())
            try:
                rng = np.random.default_rng(0)
                state = graph.initial_assignment(rng)
                a = GibbsCache(compiled, state.copy())
                b = GibbsCache(attached, state.copy())
                for var in range(graph.num_vars):
                    assert a.delta_energy(var, state) == pytest.approx(
                        b.delta_energy(var, state)
                    )
            finally:
                shm.close()

    def test_push_weights_visible_through_attachment(self):
        graph = chain_ising_graph(6)
        compiled = CompiledFactorGraph(graph)
        with SharedGraphExport(compiled) as export:
            attached, shm, _ = attach_compiled(export.spec())
            try:
                before = attached.graph.weights.version
                graph.weights.set_value(0, 9.5)
                export.push_weights(graph.weights)
                assert attached.graph.weights.version > before
                assert attached.graph.weights.value(0) == 9.5
            finally:
                shm.close()


# --------------------------------------------------------------------- #
# Sharded sampler
# --------------------------------------------------------------------- #


class TestShardedSampler:
    def test_single_worker_bit_identical_to_serial(self):
        for graph in (random_pairwise_graph(20, density=0.2, seed=4), mixed_graph()):
            serial = GibbsSampler(graph, seed=42)
            sharded = ShardedGibbsSampler(graph, n_workers=1, seed=42)
            a = serial.sample_worlds(40)
            b = sharded.sample_worlds(40)
            assert np.array_equal(a, b)
            assert np.array_equal(serial.state, sharded.state)

    @pytest.mark.parametrize("sync", ["serial", "stale"])
    def test_matches_exact_marginals(self, sync):
        graph = random_pairwise_graph(12, density=0.25, seed=2)
        exact = ExactInference(graph).marginals()
        with ShardedGibbsSampler(graph, n_workers=2, seed=3, sync=sync) as sampler:
            sampler.shard_plan.validate(sampler.compiled)
            estimate = sampler.estimate_marginals(4000, burn_in=200)
        assert float(np.abs(estimate - exact).max()) < 0.05

    @pytest.mark.parametrize("sync", ["serial", "stale"])
    def test_rule_graph_with_evidence(self, sync):
        graph = voting_graph(4, 4, voter_bias=0.3)
        graph.set_evidence(1, True)
        exact = ExactInference(graph).marginals()
        with ShardedGibbsSampler(graph, n_workers=2, seed=9, sync=sync) as sampler:
            estimate = sampler.estimate_marginals(4000, burn_in=200)
        assert float(np.abs(estimate - exact).max()) < 0.05
        # evidence stays clamped
        assert bool(sampler.state[1]) is True

    def test_deterministic_given_seed(self):
        graph = chain_ising_graph(16, coupling=0.4)
        runs = []
        for _ in range(2):
            with ShardedGibbsSampler(graph, n_workers=2, seed=5) as sampler:
                runs.append(sampler.run(30).copy())
        assert np.array_equal(runs[0], runs[1])

    def test_more_workers_than_blocks(self):
        graph = chain_ising_graph(4, coupling=0.2)
        with ShardedGibbsSampler(graph, n_workers=4, seed=0) as sampler:
            sampler.run(10)
            assert sampler.sweeps_done == 10

    def test_all_evidence_graph(self):
        # Zero free variables: the partition must still produce one
        # (empty) shard per worker and sweeps must be no-ops.
        graph = chain_ising_graph(4, coupling=0.2)
        for v in range(4):
            graph.set_evidence(v, v % 2 == 0)
        with ShardedGibbsSampler(graph, n_workers=2, seed=0) as sampler:
            sampler.run(3)
            assert np.array_equal(sampler.state, [True, False, True, False])


# --------------------------------------------------------------------- #
# Chain ensemble
# --------------------------------------------------------------------- #


class TestChainEnsemble:
    def test_ensemble_matches_exact_marginals(self):
        graph = random_pairwise_graph(10, density=0.3, seed=6)
        exact = ExactInference(graph).marginals()
        with ParallelChainEnsemble(graph, num_chains=4, n_workers=2, seed=1) as ens:
            ens.sweeps(200)
            packed, count = ens.sample_worlds_packed(num_samples=4000)
        worlds = np.unpackbits(packed, axis=1, count=graph.num_vars).astype(bool)
        assert count == 4000
        assert float(np.abs(worlds.mean(axis=0) - exact).max()) < 0.05

    def test_sweep_values_and_states(self):
        graph = voting_graph(3, 3)
        with ParallelChainEnsemble(graph, num_chains=5, n_workers=2, seed=0) as ens:
            values = ens.sweep_values(0)
            assert values.shape == (5,)
            states = ens.states()
            assert states.shape == (5, graph.num_vars)
            assert np.array_equal(states[:, 0], values)

    def test_time_budget_collection(self):
        graph = chain_ising_graph(8)
        with ParallelChainEnsemble(graph, num_chains=2, n_workers=2, seed=0) as ens:
            packed, count = ens.sample_worlds_packed(time_budget=0.2)
        assert count > 0
        assert packed.shape == (count, (graph.num_vars + 7) // 8)
