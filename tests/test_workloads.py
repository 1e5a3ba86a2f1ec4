"""Tests for the evaluation workloads: five systems, voting, synthetic."""

import math

import pytest

from repro.core import SampleMaterialization
from repro.graph import IsingFactor, Semantics
from repro.inference import ExactInference
from repro.workloads import (
    ALL_SYSTEMS,
    build_pipeline,
    delta_with_acceptance,
    random_delta_factors,
    synthetic_pairwise_graph,
    voting_program,
    workload_by_name,
)


class TestSystems:
    def test_five_systems_declared(self):
        names = {s.name for s in ALL_SYSTEMS}
        assert names == {
            "Adversarial",
            "News",
            "Genomics",
            "Pharma.",
            "Paleontology",
        }

    def test_lookup_by_prefix(self):
        assert workload_by_name("news").name == "News"
        with pytest.raises(KeyError):
            workload_by_name("nope")

    def test_build_pipeline_grounds(self):
        spec = workload_by_name("genomics")
        pipeline = build_pipeline(spec, scale=0.5, seed=0)
        grounder = pipeline.build_base()
        assert grounder.graph.num_vars > 0
        assert grounder.graph.num_factors > 0

    def test_adversarial_noisier_than_paleontology(self):
        adv = workload_by_name("adversarial")
        paleo = workload_by_name("paleo")
        assert adv.noise_level > paleo.noise_level
        assert adv.cue_reliability < paleo.cue_reliability

    def test_pharma_uses_agreement_i1(self):
        assert workload_by_name("pharma").i1_style == "agreement"

    def test_pharma_i1_inflates_graph(self):
        """§4.2: Pharma's I1 makes the graph ~1.4× larger."""
        pipeline = build_pipeline(workload_by_name("pharma"), scale=0.4, seed=0)
        grounder = pipeline.build_base()
        updates = dict(
            (label, u) for label, u in pipeline.snapshot_updates()
        )
        before = grounder.graph.num_factors
        grounder.apply_update(**updates["I1"])
        after = grounder.graph.num_factors
        assert after > before * 1.1


class TestVotingProgram:
    def test_symmetric_voting_marginal_half(self):
        for sem in Semantics:
            fg = voting_program(3, 3, semantics=sem)
            assert ExactInference(fg).marginal(0) == pytest.approx(0.5)

    def test_clamped_closed_form(self):
        fg = voting_program(4, 1, semantics="ratio", clamp_voters=True)
        w = math.log(5) - math.log(2)
        expected = math.exp(w) / (math.exp(w) + math.exp(-w))
        assert ExactInference(fg).marginal(0) == pytest.approx(expected)

    def test_voter_weight_biases_voters(self):
        fg = voting_program(2, 2, voter_weight=1.0)
        marginals = ExactInference(fg).marginals()
        assert marginals[1] > 0.6


class TestSynthetic:
    def test_graph_shape(self):
        fg = synthetic_pairwise_graph(50, sparsity=0.5, seed=0)
        assert fg.num_vars == 50
        ising = [f for f in fg.factors if isinstance(f, IsingFactor)]
        assert len(ising) >= 49  # at least the ring

    def test_sparsity_controls_nonzero_weights(self):
        dense = synthetic_pairwise_graph(60, sparsity=1.0, seed=1)
        sparse = synthetic_pairwise_graph(60, sparsity=0.1, seed=1)

        def nonzero(fg):
            return sum(
                1
                for f in fg.factors
                if isinstance(f, IsingFactor)
                and fg.weights.value(f.weight_id) != 0.0
            )

        assert nonzero(sparse) < nonzero(dense)

    def test_delta_factors_added(self):
        fg = synthetic_pairwise_graph(30, seed=2)
        delta = random_delta_factors(fg, magnitude=0.5, num_factors=4, seed=0)
        assert len(delta.new_factors) == 4
        assert delta.adds_features

    def test_acceptance_calibration_monotone(self):
        fg = synthetic_pairwise_graph(40, seed=3)
        mat = SampleMaterialization(fg, seed=0)
        mat.materialize(num_samples=600, burn_in=30)
        _, high = delta_with_acceptance(fg, mat, target_acceptance=0.9, seed=1)
        _, low = delta_with_acceptance(fg, mat, target_acceptance=0.1, seed=1)
        assert high > low

    @pytest.mark.parametrize(
        "target, num_factors", [(0.5, 5), (0.1, 5), (0.02, 40)]
    )
    def test_acceptance_calibration_is_relative(self, target, num_factors):
        """Within 1.5× of the target — an absolute ±0.08 let "ρ = 0.1" be
        0.02 and "ρ = 0.02" anything up to 0.1."""
        fg = synthetic_pairwise_graph(150, sparsity=0.5, seed=0)
        mat = SampleMaterialization(fg, seed=0)
        mat.materialize(num_samples=600, burn_in=30)
        delta, measured = delta_with_acceptance(
            fg, mat, target_acceptance=target, num_factors=num_factors, seed=2
        )
        assert target / 1.5 <= measured <= target * 1.5
        assert len(delta.new_factors) == num_factors
        assert mat.samples_remaining == 600  # probing consumes nothing

    def test_full_acceptance_is_empty_delta(self):
        fg = synthetic_pairwise_graph(20, seed=4)
        mat = SampleMaterialization(fg, seed=0)
        mat.materialize(num_samples=100)
        delta, rate = delta_with_acceptance(fg, mat, target_acceptance=1.0)
        assert delta.is_empty and rate == 1.0
