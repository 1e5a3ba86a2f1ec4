"""Tests for the exact enumeration oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import FactorGraph, Semantics
from repro.inference import ExactInference
from repro.inference.exact import MAX_FREE_VARS

from tests.helpers import mixed_case, single_bias_graph, voting_graph
from tests.reference.exact import reference_enumeration


def sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


class TestExactInference:
    def test_single_bias_marginal(self):
        fg = single_bias_graph(weight=0.7)
        exact = ExactInference(fg)
        # P(x=1) = e^w / (e^w + e^-w) = sigmoid(2w)
        assert exact.marginal(0) == pytest.approx(sigmoid(1.4))

    def test_distribution_sums_to_one(self):
        fg = voting_graph(2, 2)
        exact = ExactInference(fg)
        assert exact.distribution().sum() == pytest.approx(1.0)

    def test_evidence_clamps_marginal(self):
        fg = single_bias_graph(weight=-3.0)
        fg.set_evidence(0, True)
        exact = ExactInference(fg)
        assert exact.marginal(0) == pytest.approx(1.0)

    def test_voting_closed_form(self):
        """Pr[q] = e^W/(e^W + e^-W) with W = g(|Up|) − g(|Down|) (Ex. 2.5)."""
        for sem, g in [
            (Semantics.LINEAR, lambda n: n),
            (Semantics.RATIO, lambda n: math.log1p(n)),
            (Semantics.LOGICAL, lambda n: 1.0 if n else 0.0),
        ]:
            fg = voting_graph(3, 1, semantics=sem, clamp_voters=True)
            exact = ExactInference(fg)
            w = g(3) - g(1)
            expected = math.exp(w) / (math.exp(w) + math.exp(-w))
            assert exact.marginal(0) == pytest.approx(expected), sem

    def test_logical_semantics_ignores_vote_strength(self):
        """Ex. 2.5: logical gives exactly 0.5 whenever both sides non-empty."""
        for up, down in [(1, 1), (5, 1), (100, 3)]:
            fg = voting_graph(up, down, semantics=Semantics.LOGICAL, clamp_voters=True)
            assert ExactInference(fg).marginal(0) == pytest.approx(0.5)

    def test_linear_semantics_sharpens_with_margin(self):
        """Ex. 2.5: linear semantics saturates with the raw vote margin."""
        fg = voting_graph(8, 4, semantics=Semantics.LINEAR, clamp_voters=True)
        p_linear = ExactInference(fg).marginal(0)
        fg = voting_graph(8, 4, semantics=Semantics.RATIO, clamp_voters=True)
        p_ratio = ExactInference(fg).marginal(0)
        assert p_linear > 0.999
        assert 0.5 < p_ratio < p_linear

    def test_world_log_prob_consistency(self):
        fg = voting_graph(2, 1)
        exact = ExactInference(fg)
        total = sum(
            math.exp(exact.world_log_prob(world)) for world in exact.worlds
        )
        assert total == pytest.approx(1.0)

    def test_world_log_prob_rejects_evidence_violation(self):
        fg = single_bias_graph()
        fg.set_evidence(0, True)
        exact = ExactInference(fg)
        assert exact.world_log_prob(np.array([False])) == float("-inf")

    def test_pairwise_marginal(self):
        fg = FactorGraph()
        i = fg.add_variable()
        j = fg.add_variable()
        wid = fg.weights.intern("J", initial=2.0)
        fg.add_ising_factor(wid, i, j)
        exact = ExactInference(fg)
        # Strong positive coupling: mass concentrates on agreement.
        assert exact.pairwise_marginal(i, j) == pytest.approx(
            math.exp(2) / (2 * math.exp(2) + 2 * math.exp(-2))
        )

    def test_covariance_positive_for_coupled_pair(self):
        fg = FactorGraph()
        i = fg.add_variable()
        j = fg.add_variable()
        wid = fg.weights.intern("J", initial=1.0)
        fg.add_ising_factor(wid, i, j)
        cov = ExactInference(fg).covariance_matrix()
        assert cov[0, 1] > 0.1
        assert cov[0, 0] == pytest.approx(0.25)  # marginal is 0.5

    def test_refuses_oversized_graph(self):
        fg = FactorGraph()
        fg.add_variables(30)
        with pytest.raises(ValueError):
            ExactInference(fg)


class TestEnumerationIsTheRecordLoop:
    """The world matrix is built with bit operations and scored in one
    chunked call of the table scorer; the reference enumerates with
    ``itertools.product`` and scores each world record by record."""

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=80, deadline=None)
    def test_log_probs_equal_the_reference_enumeration(self, seed):
        graph, _delta = mixed_case(seed)
        exact = ExactInference(graph)
        worlds, log_probs = reference_enumeration(graph)
        assert np.array_equal(exact.worlds, worlds)
        assert exact.log_probs == pytest.approx(log_probs, abs=1e-12)
        for world, log_prob in zip(worlds, log_probs):
            assert exact.world_log_prob(world) == pytest.approx(log_prob, abs=1e-12)

    def test_free_variable_limit(self):
        assert MAX_FREE_VARS == 24
        graph = FactorGraph()
        graph.add_variables(MAX_FREE_VARS + 1)
        with pytest.raises(ValueError, match="limited to 24 free variables"):
            ExactInference(graph)
