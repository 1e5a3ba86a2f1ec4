"""Correctness tests for the Gibbs samplers against the exact oracle."""

import numpy as np
import pytest

from repro.graph import FactorGraph, Semantics
from repro.inference import ChromaticGibbsSampler, ExactInference, GibbsSampler
from repro.util.stats import max_marginal_error

from tests.helpers import (
    chain_ising_graph,
    implication_graph,
    random_pairwise_graph,
    single_bias_graph,
    voting_graph,
)


class TestGibbsSampler:
    def test_single_variable_conditional(self):
        fg = single_bias_graph(weight=0.7)
        sampler = GibbsSampler(fg, seed=0)
        exact = ExactInference(fg).marginal(0)
        assert sampler.conditional_probability(0) == pytest.approx(exact)

    def test_marginals_match_exact_on_chain(self):
        fg = chain_ising_graph(5, coupling=0.6, bias=0.3)
        exact = ExactInference(fg).marginals()
        sampler = GibbsSampler(fg, seed=1)
        est = sampler.estimate_marginals(4000, burn_in=100)
        assert max_marginal_error(est, exact) < 0.04

    def test_marginals_match_exact_on_rule_graph(self):
        fg = implication_graph(Semantics.RATIO)
        exact = ExactInference(fg).marginals()
        sampler = GibbsSampler(fg, seed=2)
        est = sampler.estimate_marginals(6000, burn_in=200)
        assert max_marginal_error(est, exact) < 0.04

    def test_marginals_match_exact_on_voting(self):
        fg = voting_graph(3, 2, semantics=Semantics.RATIO, voter_bias=0.4)
        exact = ExactInference(fg).marginals()
        sampler = GibbsSampler(fg, seed=3)
        est = sampler.estimate_marginals(6000, burn_in=200)
        assert max_marginal_error(est, exact) < 0.04

    def test_evidence_never_flipped(self):
        fg = chain_ising_graph(4, coupling=2.0)
        fg.set_evidence(0, True)
        fg.set_evidence(3, False)
        sampler = GibbsSampler(fg, seed=4)
        worlds = sampler.sample_worlds(200)
        assert worlds[:, 0].all()
        assert not worlds[:, 3].any()

    def test_evidence_propagates_through_coupling(self):
        fg = chain_ising_graph(3, coupling=1.5, bias=0.0)
        fg.set_evidence(0, True)
        sampler = GibbsSampler(fg, seed=5)
        est = sampler.estimate_marginals(3000, burn_in=100)
        exact = ExactInference(fg).marginals()
        assert est[1] > 0.8
        assert max_marginal_error(est, exact) < 0.05

    def test_deterministic_given_seed(self):
        fg = chain_ising_graph(5)
        a = GibbsSampler(fg, seed=42).sample_worlds(50)
        b = GibbsSampler(fg, seed=42).sample_worlds(50)
        assert np.array_equal(a, b)

    def test_initial_state_respected(self):
        fg = chain_ising_graph(4)
        init = np.array([True, True, False, False])
        sampler = GibbsSampler(fg, seed=0, initial=init)
        assert np.array_equal(sampler.state, init)

    def test_sweep_counter(self):
        fg = chain_ising_graph(3)
        sampler = GibbsSampler(fg, seed=0)
        sampler.run(7)
        assert sampler.sweeps_done == 7

    def test_head_in_body_rule_sampled_correctly(self):
        # Self-referential rule: q :- q (head in body, closed form).
        fg = FactorGraph()
        q = fg.add_variable()
        wid = fg.weights.intern("w", initial=0.8)
        fg.add_rule_factor(wid, q, [[(q, True)]], Semantics.LOGICAL)
        exact = ExactInference(fg).marginal(0)
        est = GibbsSampler(fg, seed=6).estimate_marginals(6000)[0]
        assert est == pytest.approx(exact, abs=0.03)


class TestChromaticGibbs:
    def test_coloring_is_proper(self):
        fg = random_pairwise_graph(30, density=0.2, seed=1)
        sampler = ChromaticGibbsSampler(fg, seed=0)
        color_of = {}
        for c, cls in enumerate(sampler.color_classes):
            for v in cls:
                color_of[int(v)] = c
        for f in fg.factors:
            if hasattr(f, "i") and hasattr(f, "j"):
                assert color_of[f.i] != color_of[f.j]

    def test_coloring_covers_all_free_vars(self):
        fg = chain_ising_graph(5)
        fg.set_evidence(1, True)
        sampler = ChromaticGibbsSampler(fg, seed=0)
        covered = sorted(int(v) for cls in sampler.color_classes for v in cls)
        assert covered == [0, 2, 3, 4]

    def test_marginals_match_exact(self):
        fg = random_pairwise_graph(8, density=0.4, seed=2)
        exact = ExactInference(fg).marginals()
        sampler = ChromaticGibbsSampler(fg, seed=0)
        est = sampler.estimate_marginals(6000, burn_in=200)
        assert max_marginal_error(est, exact) < 0.04

    def test_matches_sequential_gibbs(self):
        fg = random_pairwise_graph(10, density=0.3, seed=3)
        seq = GibbsSampler(fg, seed=1).estimate_marginals(5000, burn_in=100)
        chrom = ChromaticGibbsSampler(fg, seed=2).estimate_marginals(
            5000, burn_in=100
        )
        assert max_marginal_error(seq, chrom) < 0.05

    def test_rejects_rule_factors(self):
        fg = voting_graph(2, 2)
        with pytest.raises(TypeError):
            ChromaticGibbsSampler(fg)

    def test_evidence_respected(self):
        fg = random_pairwise_graph(6, density=0.5, seed=4)
        fg.set_evidence(2, True)
        sampler = ChromaticGibbsSampler(fg, seed=0)
        worlds = sampler.sample_worlds(100)
        assert worlds[:, 2].all()
