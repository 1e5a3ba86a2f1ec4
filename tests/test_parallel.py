"""Parallel sampling: the shared export and chain ensembles.

The correctness contract of :mod:`repro.inference.parallel`:

* the shared-memory export reconstructs a compiled graph whose kernels
  agree with the original, weight pushes reach the attachment, patches
  grow it in place until the capacity slack runs out, and ``verify``
  names exactly the scribbled regions;
* each ensemble chain is *bit-identical* to a serial ``GibbsSampler``
  seeded with its spawned generator, whatever the worker count;
* the chain ensemble reproduces exact-inference marginals on small
  graphs within sampling tolerance, with evidence clamped.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import chain_ising_graph, random_pairwise_graph, voting_graph
from repro.graph.compiled import CompiledFactorGraph, GibbsCache
from repro.graph.delta import FactorGraphDelta
from repro.graph.factor_graph import FactorGraph
from repro.graph.semantics import Semantics
from repro.inference.exact import ExactInference
from repro.inference.gibbs import GibbsSampler
from repro.inference.parallel import (
    _GROWABLE_EXPORT,
    ParallelChainEnsemble,
    SharedGraphExport,
    attach_compiled,
)
from repro.util.rng import spawn


def mixed_graph() -> FactorGraph:
    """Ising chain + rule factors: exercises every incidence kind."""
    fg = chain_ising_graph(10, coupling=0.3, bias=0.1)
    wid = fg.weights.intern("rule", initial=0.6)
    fg.add_rule_factor(wid, 0, [[(3, True), (4, False)], [(5, True)]], Semantics.RATIO)
    wid2 = fg.weights.intern("rule2", initial=-0.4)
    fg.add_rule_factor(wid2, 7, [[(8, True), (9, True)]], Semantics.LOGICAL)
    return fg


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

    def test_push_weights_past_capacity_raises(self):
        graph = chain_ising_graph(6)
        with SharedGraphExport(CompiledFactorGraph(graph)) as export:
            capacity = export.array("__weights__").shape[0]
            for k in range(capacity - len(graph.weights) + 1):
                graph.weights.intern(f"grown{k}", initial=0.1)
            with pytest.raises(ValueError, match="re-export"):
                export.push_weights(graph.weights)

    def test_verify_names_scribbled_regions_and_repair_restores_them(self):
        graph = mixed_graph()
        compiled = CompiledFactorGraph(graph)
        with SharedGraphExport(compiled) as export:
            assert export.verify() == []
            export.array("ising_row")[0] += 1
            export.array("__sizes__")[0] += 1
            assert sorted(export.verify()) == ["__sizes__", "ising_row"]
            assert sorted(export.verify_and_repair()) == ["__sizes__", "ising_row"]
            assert export.verify() == []
            assert np.array_equal(
                export.array("ising_row")[: compiled.ising_row.shape[0]],
                compiled.ising_row,
            )

    def test_unpushed_weight_update_is_not_corruption(self):
        graph = chain_ising_graph(6)
        with SharedGraphExport(CompiledFactorGraph(graph)) as export:
            graph.weights.set_value(0, 4.0)
            # The store moved past the published version: pending, not bad.
            assert export.verify() == []
            export.push_weights(graph.weights)
            export.array("__weights__")[0] = -4.0
            assert export.verify() == ["__weights__"]
            export.repair(["__weights__"])
            assert export.verify() == []
            assert export.array("__weights__")[0] == 4.0

    def test_apply_patch_grows_in_place_until_capacity(self):
        graph = chain_ising_graph(6)
        compiled = CompiledFactorGraph(graph)
        with SharedGraphExport(compiled) as export:
            sizes = dict(zip(_GROWABLE_EXPORT, export.array("__sizes__")))
            assert sizes["evidence_mask"] == 6
            patch = compiled.apply_delta(
                FactorGraphDelta(num_new_vars=2), compact_threshold=1.0
            )
            assert not patch.compacted
            assert export.apply_patch(compiled)
            assert export.array("__structure_version__")[0] == 1
            assert export.verify() == []
            sizes = dict(zip(_GROWABLE_EXPORT, export.array("__sizes__")))
            assert sizes["evidence_mask"] == 8
            # A delta past the slack leaves the segment alone: re-export.
            capacity = export.array("evidence_mask").shape[0]
            compiled.apply_delta(
                FactorGraphDelta(num_new_vars=capacity), compact_threshold=1.0
            )
            assert not export.fits(compiled)
            assert not export.apply_patch(compiled)
            assert export.array("__structure_version__")[0] == 1


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

    def test_single_worker_bit_identical_to_serial(self):
        # A worker chain makes the serial sampler's sweeps from the serial
        # sampler's draws: chain k equals GibbsSampler seeded with the k-th
        # spawned child of the ensemble's seed.
        for graph in (random_pairwise_graph(20, density=0.2, seed=4), mixed_graph()):
            serial = [
                GibbsSampler(graph, seed=rng)
                for rng in spawn(np.random.default_rng(42), 2)
            ]
            with ParallelChainEnsemble(graph, num_chains=2, n_workers=1, seed=42) as ens:
                ens.sweeps(7)
                for sampler in serial:
                    sampler.run(7)
                assert np.array_equal(
                    ens.states(), np.stack([s.state for s in serial])
                )
                packed, count = ens.sample_worlds_packed(num_samples=40, thin=2)
            worlds = np.unpackbits(packed, axis=1, count=graph.num_vars).astype(bool)
            expected = np.concatenate([s.sample_worlds(20, thin=2) for s in serial])
            assert count == 40
            assert np.array_equal(worlds, expected)

    def test_worker_count_does_not_change_the_chains(self):
        graph = random_pairwise_graph(16, density=0.2, seed=3)
        states = []
        for n_workers in (1, 2, 3):
            with ParallelChainEnsemble(
                graph, num_chains=3, n_workers=n_workers, seed=5
            ) as ens:
                ens.sweeps(10)
                states.append(ens.states())
        assert np.array_equal(states[0], states[1])
        assert np.array_equal(states[0], states[2])

    def test_deterministic_given_seed(self):
        graph = chain_ising_graph(16, coupling=0.4)
        runs = []
        for _ in range(2):
            with ParallelChainEnsemble(graph, num_chains=4, n_workers=2, seed=5) as ens:
                values = [ens.sweep_values(3) for _ in range(5)]
                packed, _ = ens.sample_worlds_packed(num_samples=30)
                runs.append((np.stack(values), packed))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])

    def test_rule_graph_with_evidence(self):
        graph = voting_graph(4, 4, voter_bias=0.3)
        graph.set_evidence(1, True)
        exact = ExactInference(graph).marginals()
        with ParallelChainEnsemble(graph, num_chains=4, n_workers=2, seed=9) as ens:
            packed, count = ens.sample_worlds_packed(num_samples=4000, burn_in=50)
            # evidence stays clamped in every chain
            assert ens.states()[:, 1].all()
        worlds = np.unpackbits(packed, axis=1, count=graph.num_vars).astype(bool)
        assert worlds[:, 1].all()
        assert float(np.abs(worlds.mean(axis=0) - exact).max()) < 0.05

    def test_initial_state_is_clamped_to_evidence(self):
        graph = chain_ising_graph(6, coupling=0.2)
        graph.set_evidence(2, True)
        initial = np.zeros(graph.num_vars, dtype=bool)
        with ParallelChainEnsemble(
            graph, num_chains=2, n_workers=2, seed=0, initial=initial
        ) as ens:
            expected = initial.copy()
            expected[2] = True
            assert np.array_equal(ens.states(), np.stack([expected, expected]))

    def test_pushed_weights_reach_every_chain(self):
        graph = chain_ising_graph(6, coupling=0.0, bias=0.0)
        bias = graph.weights.intern("strong_bias", initial=0.0)
        for var in range(graph.num_vars):
            graph.add_bias_factor(bias, var)
        with ParallelChainEnsemble(graph, num_chains=4, n_workers=2, seed=1) as ens:
            graph.weights.set_value(bias, 40.0)
            ens.push_weights(graph.weights)
            ens.sweeps(1)
            assert ens.states().all()

    def test_more_workers_than_chains(self):
        graph = chain_ising_graph(4, coupling=0.2)
        with ParallelChainEnsemble(graph, num_chains=2, n_workers=4, seed=0) as ens:
            assert ens.n_workers == 2
            assert len(ens.pool.pids()) == 2
            assert ens.sweep_values(0).shape == (2,)

    def test_all_evidence_graph(self):
        # Zero free variables: every sweep is a no-op and every sample is
        # the evidence.
        graph = chain_ising_graph(4, coupling=0.2)
        for v in range(4):
            graph.set_evidence(v, v % 2 == 0)
        with ParallelChainEnsemble(graph, num_chains=2, n_workers=2, seed=0) as ens:
            ens.sweeps(3)
            assert np.array_equal(ens.states(), [[True, False, True, False]] * 2)
            packed, count = ens.sample_worlds_packed(num_samples=5)
        worlds = np.unpackbits(packed, axis=1, count=4).astype(bool)
        assert count == 5
        assert np.array_equal(worlds, [[True, False, True, False]] * 5)

    def test_quota_splits_unevenly_across_chains(self):
        graph = chain_ising_graph(5)
        with ParallelChainEnsemble(graph, num_chains=3, n_workers=2, seed=0) as ens:
            packed, count = ens.sample_worlds_packed(num_samples=7)
            assert count == 7 and packed.shape == (7, 1)
            with pytest.raises(ValueError, match="num_samples or time_budget"):
                ens.sample_worlds_packed()

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="n_workers must be >= 1"):
            ParallelChainEnsemble(chain_ising_graph(4), num_chains=2, n_workers=0)
