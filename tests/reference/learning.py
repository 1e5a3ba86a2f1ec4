"""Per-factor Python loops the compiled learning kernels are checked
against: the gradient statistics walk ``graph.factors`` world by world,
the pseudo-NLL builds a fresh O(graph) cache per call.
"""

from __future__ import annotations

import math

import numpy as np

from repro.graph.compiled import GibbsCache


def weight_statistics(graph, worlds) -> np.ndarray:
    """Mean summed unit energy per weight id over ``worlds``."""
    worlds = np.atleast_2d(np.asarray(worlds, dtype=bool))
    totals = np.zeros(len(graph.weights))
    for world in worlds:
        for factor in graph.factors:
            totals[factor.weight_id] += factor.unit_energy(world)
    return totals / len(worlds)


def factor_counts_per_weight(graph) -> np.ndarray:
    counts = np.zeros(len(graph.weights))
    for factor in graph.factors:
        counts[factor.weight_id] += 1
    return counts


def weight_gradient(graph, conditioned_worlds, free_worlds, l2=0.0) -> np.ndarray:
    """``repro.learning.gradient.weight_gradient`` (normalized) on the
    loops above."""
    grad = weight_statistics(graph, conditioned_worlds) - weight_statistics(
        graph, free_worlds
    )
    grad = grad / np.maximum(factor_counts_per_weight(graph), 1.0)
    grad -= l2 * graph.weights.values_array()
    grad[graph.weights.fixed_mask()] = 0.0
    return grad


def evidence_pseudo_nll(learner) -> float:
    """``SGDLearner.evidence_pseudo_nll`` scored on a cache built from
    scratch over the conditioned chain's current state."""
    graph = learner.graph
    state = learner._conditioned.state.copy()
    ev_vars, ev_vals = graph.evidence_arrays()
    state[ev_vars] = ev_vals
    cache = GibbsCache(learner._compiled, state)
    total = 0.0
    for var, value in graph.evidence.items():
        # sigmoid(Δ), in the form that cannot overflow
        p_true = 0.5 * (1.0 + math.tanh(0.5 * cache.delta_energy(var, state)))
        total -= math.log(max(p_true if value else 1.0 - p_true, 1e-12))
    return total / len(graph.evidence)


def reference_epoch_worlds(learner) -> tuple:
    """The serial epoch's worlds as two calls, the conditioned chain's and
    then the free chain's: what ``SGDLearner.epoch`` gets from its
    ``ChainStack`` in one."""
    return (
        learner._conditioned.sample_worlds(
            learner.samples_per_epoch, thin=learner.sweeps_per_epoch
        ),
        learner._free.sample_worlds(
            learner.samples_per_epoch, thin=learner.sweeps_per_epoch
        ),
    )


def two_pass_gradient(compiled, conditioned_worlds, free_worlds, l2=0.0) -> np.ndarray:
    """``repro.learning.gradient.weight_gradient`` (normalized) with one
    ``weight_statistics`` call per chain."""
    weights = compiled.graph.weights
    grad = compiled.weight_statistics(conditioned_worlds) - compiled.weight_statistics(
        free_worlds
    )
    grad = grad / np.maximum(compiled.factor_counts_per_weight(), 1.0)
    if l2:
        grad -= l2 * weights.values_array()
    grad[weights.fixed_mask()] = 0.0
    return grad


def reference_epoch(learner) -> float:
    """One epoch of a serial ``SGDLearner`` on the two-call worlds and the
    two-pass gradient; returns the gradient norm."""
    grad = two_pass_gradient(
        learner._compiled, *reference_epoch_worlds(learner), l2=learner.l2
    )
    weights = learner.graph.weights
    weights.set_values_array(weights.values_array() + learner.step_size * grad)
    return float(np.linalg.norm(grad))
