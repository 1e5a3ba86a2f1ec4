"""World enumeration one world at a time, through the record energy.

``reference_enumeration`` is ``ExactInference``'s enumeration as the
package ran it before it scored the world matrix in one call of the
table scorer: an ``itertools.product`` loop over the free variables,
each world scored by summing its factors' energies record by record
(:func:`tests.reference.factors.factor_energy`).
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.special import logsumexp

from tests.reference.factors import factor_energy


def reference_enumeration(graph) -> tuple:
    """``(worlds, log_probs)`` of every world consistent with the
    evidence, in ``itertools.product`` order over the free variables."""
    free = graph.free_variables()
    base = graph.initial_assignment()
    records = list(graph.factors)
    worlds, log_weights = [], []
    for bits in itertools.product((False, True), repeat=len(free)):
        world = base.copy()
        world[free] = bits
        worlds.append(world)
        log_weights.append(sum(factor_energy(f, world, graph.weights) for f in records))
    log_weights = np.array(log_weights, dtype=np.float64)
    return np.array(worlds).reshape(-1, graph.num_vars), log_weights - logsumexp(log_weights)
