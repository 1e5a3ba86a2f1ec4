"""Correctness of the three materialization strategies (§3.2).

Each strategy must converge to the *updated* distribution; the exact
oracle on the updated graph is the reference.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import (
    SampleMaterialization,
    StrawmanMaterialization,
    VariationalMaterialization,
    learn_approximation,
    solve_logdet_blocks,
)
from repro.core.variational import ComponentBlocks, covariance_blocks
from repro.graph import FactorGraph, FactorGraphDelta, IsingFactor
from repro.inference import ExactInference
from repro.inference.gibbs import GibbsSampler
from repro.util.stats import max_marginal_error

from tests.helpers import chain_ising_graph, random_pairwise_graph
from tests.reference.factors import factor_energy
from tests.reference.variational import dense, solve_logdet


def feature_delta(fg, var=0, weight=1.2, key="new-feature"):
    """A delta adding one bias factor (a new feature on one variable)."""
    delta = FactorGraphDelta()
    delta.new_weight_entries.append((key, weight, False))
    delta.new_factors.add_bias(len(fg.weights), var)
    return delta


def evidence_delta(var=0, value=True):
    return FactorGraphDelta(evidence_updates={var: value})


class TestStrawman:
    def test_reproduces_base_marginals_on_empty_delta(self):
        fg = chain_ising_graph(5, coupling=0.6, bias=0.2)
        strawman = StrawmanMaterialization(fg, seed=0)
        exact = ExactInference(fg).marginals()
        est = strawman.infer(FactorGraphDelta(), num_sweeps=600, burn_in=50)
        assert max_marginal_error(est, exact) < 0.05

    def test_tracks_updated_distribution(self):
        fg = chain_ising_graph(5, coupling=0.6, bias=0.2)
        strawman = StrawmanMaterialization(fg, seed=0)
        delta = feature_delta(fg, var=2, weight=1.5)
        exact = ExactInference(delta.apply(fg)).marginals()
        est = strawman.infer(delta, num_sweeps=600, burn_in=50)
        assert max_marginal_error(est, exact) < 0.05

    def test_new_variable_in_delta(self):
        fg = chain_ising_graph(3, coupling=0.5)
        strawman = StrawmanMaterialization(fg, seed=1)
        delta = FactorGraphDelta(num_new_vars=1)
        delta.new_weight_entries.append(("J-new", 0.8, False))
        delta.new_factors.add_ising(len(fg.weights), 2, 3)
        exact = ExactInference(delta.apply(fg)).marginals()
        est = strawman.infer(delta, num_sweeps=800, burn_in=80)
        assert max_marginal_error(est, exact) < 0.06

    def test_evidence_update(self):
        fg = chain_ising_graph(4, coupling=1.0)
        strawman = StrawmanMaterialization(fg, seed=2)
        delta = evidence_delta(0, True)
        exact = ExactInference(delta.apply(fg)).marginals()
        est = strawman.infer(delta, num_sweeps=600, burn_in=50)
        assert est[0] == 1.0
        assert max_marginal_error(est, exact) < 0.06

    def test_world_count_is_exponential(self):
        fg = chain_ising_graph(4)
        strawman = StrawmanMaterialization(fg)
        assert strawman.materialized_worlds == 16

    def test_refuses_large_graphs(self):
        fg = FactorGraph()
        fg.add_variables(25)
        with pytest.raises(ValueError, match="exponential"):
            StrawmanMaterialization(fg)


class TestSamplingStrategy:
    def test_empty_delta_full_acceptance(self):
        """Fig. 9 rule A1: distribution unchanged → 100% acceptance."""
        fg = chain_ising_graph(6, coupling=0.5, bias=0.2)
        mat = SampleMaterialization(fg, seed=0)
        mat.materialize(num_samples=400, burn_in=50)
        result = mat.infer(FactorGraphDelta())
        assert result.acceptance_rate == 1.0
        exact = ExactInference(fg).marginals()
        assert max_marginal_error(result.marginals, exact) < 0.06

    def test_small_update_high_acceptance(self):
        fg = chain_ising_graph(6, coupling=0.5, bias=0.2)
        mat = SampleMaterialization(fg, seed=0)
        mat.materialize(num_samples=600, burn_in=50)
        delta = feature_delta(fg, var=3, weight=0.3)
        result = mat.infer(delta)
        assert result.acceptance_rate > 0.5
        exact = ExactInference(delta.apply(fg)).marginals()
        assert max_marginal_error(result.marginals, exact) < 0.08

    def test_large_update_low_acceptance(self):
        """The bigger the distribution change, the lower the acceptance."""
        fg = chain_ising_graph(6, coupling=0.5, bias=0.0)
        mat = SampleMaterialization(fg, seed=0)
        mat.materialize(num_samples=800, burn_in=50)
        small = mat.probe_acceptance(feature_delta(fg, weight=0.2), probe=100)
        big = mat.probe_acceptance(feature_delta(fg, weight=3.0), probe=100)
        assert big < small

    def test_evidence_delta_still_converges(self):
        fg = chain_ising_graph(5, coupling=0.8, bias=0.0)
        mat = SampleMaterialization(fg, seed=3)
        mat.materialize(num_samples=1500, burn_in=50)
        delta = evidence_delta(0, True)
        result = mat.infer(delta)
        exact = ExactInference(delta.apply(fg)).marginals()
        assert result.marginals[0] == 1.0
        assert max_marginal_error(result.marginals, exact) < 0.12

    def test_cursor_consumes_bundle(self):
        fg = chain_ising_graph(4)
        mat = SampleMaterialization(fg, seed=0)
        mat.materialize(num_samples=100)
        mat.infer(FactorGraphDelta(), num_steps=60)
        assert mat.samples_remaining == 40
        result = mat.infer(FactorGraphDelta(), num_steps=60)
        assert result.exhausted
        assert mat.samples_remaining == 0

    def test_time_budget_materialization(self):
        fg = chain_ising_graph(4)
        mat = SampleMaterialization(fg, seed=0)
        collected = mat.materialize(time_budget=0.2)
        assert collected > 0
        assert mat.materialization_seconds <= 1.0

    def test_empty_rematerialization_keeps_cursor(self):
        """Regression: a failed/empty re-materialization (here a zero
        time budget) kept the old bundle but reset the cursor, silently
        reviving already-consumed samples as MH proposals."""
        fg = chain_ising_graph(4)
        mat = SampleMaterialization(fg, seed=0)
        mat.materialize(num_samples=10, burn_in=5)
        mat.infer(FactorGraphDelta(), num_steps=6)
        assert mat.samples_remaining == 4
        collected = mat.materialize(time_budget=0.0)
        assert collected == 10  # old bundle retained...
        assert mat.samples_remaining == 4  # ...cursor too
        result = mat.infer(FactorGraphDelta(), num_steps=10)
        assert result.proposals_used == 4  # only the unconsumed tail
        # A *successful* re-materialization does replace bundle + cursor.
        mat.materialize(num_samples=5, burn_in=1)
        assert mat.samples_remaining == 5

    def test_storage_is_bit_packed(self):
        # The bundle is genuinely bit-packed: 8 variables per byte, the
        # final byte of each row padded — so 7 variables cost 1 byte/row.
        fg = chain_ising_graph(7)
        mat = SampleMaterialization(fg, seed=0)
        mat.materialize(num_samples=50)
        assert mat.storage_bits() == 50 * 8
        assert mat._packed.dtype == np.uint8
        assert mat.samples.shape == (50, 7)
        # 17 variables need 3 bytes/row (24 bits).
        fg = chain_ising_graph(17)
        mat = SampleMaterialization(fg, seed=0)
        mat.materialize(num_samples=10)
        assert mat.storage_bits() == 10 * 24
        assert mat.samples.shape == (10, 17)


def component_graph(seed, num_vars=30, evidence=0.15):
    """A graph of several random pairwise components, isolated variables
    and clamped evidence variables."""
    rng = np.random.default_rng(seed)
    fg = FactorGraph()
    fg.add_variables(num_vars)
    cuts = np.sort(rng.choice(np.arange(1, num_vars), size=num_vars // 5, replace=False))
    for part in np.split(rng.permutation(num_vars), cuts):
        for a_pos, a in enumerate(part.tolist()):
            for b in part[a_pos + 1 :].tolist():
                if rng.random() < 0.6:
                    wid = fg.weights.intern(("J", a, b), initial=rng.uniform(-0.8, 0.8))
                    fg.add_ising_factor(wid, a, b)
    for v in range(num_vars):
        wid = fg.weights.intern(("h", v), initial=rng.uniform(-0.5, 0.5))
        fg.add_bias_factor(wid, v)
        if rng.random() < evidence:
            fg.set_evidence(v, bool(rng.random() < 0.5))
    return fg


def centered_spins(samples):
    spins = np.where(np.asarray(samples, dtype=bool), 1.0, -1.0)
    return spins - spins.mean(axis=0)


def check_constraints(fg):
    """Algorithm 1's constraints, block by block: X_kk = M_kk + 1/3,
    |X_kj − M_kj| ≤ λ on NZ, X_kj = 0 off NZ; symmetric and PD."""
    samples = GibbsSampler(fg, seed=0).sample_worlds(400, burn_in=20)
    lam = 0.05
    approx = learn_approximation(fg, lam=lam, samples=samples)
    centered = centered_spins(samples)
    cov = centered.T @ centered / len(samples)
    nz_pairs = {tuple(pair) for pair in fg.neighbor_pairs().tolist()}
    assert len(approx.precision.members) > 1  # singletons and larger
    for ids, blocks in zip(approx.precision.members, approx.precision.values):
        for members, X in zip(ids.tolist(), blocks):
            M = cov[np.ix_(members, members)]
            in_nz = np.array(
                [[(a, b) in nz_pairs or (b, a) in nz_pairs for b in members]
                 for a in members]
            )
            # Symmetric, PD, and box-constrained.
            assert np.array_equal(X, X.T)
            assert np.all(np.linalg.eigvalsh(X) > 0)
            assert np.allclose(np.diag(X), np.diag(M) + 1.0 / 3.0, rtol=0, atol=1e-12)
            assert np.all(np.abs(X - M)[in_nz] <= lam + 1e-12)
            off = ~in_nz & ~np.eye(len(members), dtype=bool)
            assert np.all(X[off] == 0.0)


class TestVariationalStrategy:
    def test_solve_logdet_respects_constraints(self):
        for seed in range(4):
            check_constraints(component_graph(seed))

    @pytest.mark.parametrize("seed", range(12))
    def test_per_component_solve_is_the_dense_solve(self, seed):
        """Algorithm 1 separates over NZ's components: the block solve
        equals the dense oracle on the whole matrix."""
        num_vars = int(np.random.default_rng(seed).integers(8, 40))
        fg = component_graph(seed, num_vars=num_vars)
        samples = GibbsSampler(fg, seed=seed).sample_worlds(300, burn_in=20)
        centered = centered_spins(samples)
        n = fg.num_vars
        pairs = fg.neighbor_pairs()
        nz_mask = np.eye(n, dtype=bool)
        nz_mask[pairs[:, 0], pairs[:, 1]] = nz_mask[pairs[:, 1], pairs[:, 0]] = True
        cov_full = centered.T @ centered / len(samples)
        cov_dense = cov_full * nz_mask
        cov_dense[np.diag_indices(n)] = np.diag(cov_full) + 1.0 / 3.0
        cov, nz = covariance_blocks(centered, pairs)
        assert np.allclose(dense(cov, n), cov_dense, rtol=0, atol=1e-12)
        assert np.array_equal(dense(ComponentBlocks(cov.members, nz), n), nz_mask)
        for lam in (0.01, 0.05, 0.2):
            ours = dense(solve_logdet_blocks(cov, nz, lam), n)
            oracle = solve_logdet(cov_dense, nz_mask, lam)
            assert np.allclose(ours, oracle, rtol=0, atol=1e-8), lam

    def test_materialization_allocates_no_n_by_n_array(self):
        """1 200 variables in components of six: the solve's traced peak
        stays under one ``n × n`` float64 matrix."""
        n = 1200
        fg = FactorGraph()
        fg.add_variables(n)
        rng = np.random.default_rng(0)
        for start in range(0, n, 6):
            for a in range(start, start + 5):
                wid = fg.weights.intern(("J", a), initial=rng.uniform(-0.8, 0.8))
                fg.add_ising_factor(wid, a, a + 1)
        samples = GibbsSampler(fg, seed=0).sample_worlds(200, burn_in=5)
        tracemalloc.start()
        try:
            approx = learn_approximation(fg, lam=0.05, samples=samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert approx.kept_pairs > 0
        assert peak < n * n * 8, peak

    def test_lambda_controls_sparsity(self):
        """Fig. 6: larger λ → fewer factors."""
        fg = random_pairwise_graph(10, density=0.6, seed=1)
        dense = learn_approximation(fg, lam=0.01, num_samples=500, seed=0)
        sparse = learn_approximation(fg, lam=0.5, num_samples=500, seed=0)
        assert sparse.kept_pairs <= dense.kept_pairs

    def test_huge_lambda_drops_all_pairs(self):
        fg = random_pairwise_graph(8, density=0.5, seed=2)
        approx = learn_approximation(fg, lam=10.0, num_samples=300, seed=0)
        assert approx.kept_pairs == 0

    def test_approximation_marginals_close_for_small_lambda(self):
        fg = random_pairwise_graph(7, density=0.4, seed=3, weight_range=0.4)
        mat = VariationalMaterialization(fg, lam=0.02, seed=0)
        mat.materialize(num_samples=1500)
        est = mat.infer(num_samples=1500, burn_in=50)
        exact = ExactInference(fg).marginals()
        assert max_marginal_error(est, exact) < 0.12

    def test_splice_new_factor_shifts_marginal(self):
        fg = random_pairwise_graph(6, density=0.4, seed=4)
        mat = VariationalMaterialization(fg, lam=0.05, seed=0)
        mat.materialize(num_samples=800)
        before = mat.infer(num_samples=800, burn_in=50)[0]
        mat.apply_update(fg, feature_delta(fg, var=0, weight=2.0))
        after = mat.infer(num_samples=800, burn_in=50)[0]
        assert after > before + 0.1

    def test_splice_evidence(self):
        fg = random_pairwise_graph(5, density=0.4, seed=5)
        mat = VariationalMaterialization(fg, lam=0.05, seed=0)
        mat.materialize(num_samples=400)
        mat.apply_update(fg, evidence_delta(2, True))
        est = mat.infer(num_samples=200)
        assert est[2] == 1.0

    def test_splice_removed_factor_cancels_energy(self):
        """Removed factors are spliced as negated copies: the spliced
        graph's energy difference equals the delta's."""
        fg = chain_ising_graph(4, coupling=0.8, bias=0.1)
        mat = VariationalMaterialization(fg, lam=0.05, seed=0)
        mat.materialize(num_samples=300)
        approx_before = mat.current
        delta = FactorGraphDelta(removed_factor_ids={0})
        mat.apply_update(fg, delta)
        rng = np.random.default_rng(0)
        removed = fg.factors[0]
        for _ in range(10):
            world = rng.random(4) < 0.5
            spliced_shift = mat.current.energy(world) - approx_before.energy(world)
            assert spliced_shift == pytest.approx(
                -factor_energy(removed, world, fg.weights)
            )

    def test_evidence_vars_get_no_couplings(self):
        fg = chain_ising_graph(5, coupling=0.9)
        fg.set_evidence(2, True)
        approx = learn_approximation(fg, lam=0.05, num_samples=300, seed=0)
        for factor in approx.graph.factors:
            if isinstance(factor, IsingFactor):
                assert 2 not in (factor.i, factor.j)
