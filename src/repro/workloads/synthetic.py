"""Synthetic pairwise factor graphs for the tradeoff study (§3.2.4).

The paper controls three axes over random pairwise graphs:

1. number of variables,
2. amount of change — expressed through the MH acceptance rate,
3. sparsity of correlations — the fraction of non-zero factor weights.

``delta_with_acceptance`` calibrates an update's perturbation magnitude
(by bisection against an acceptance-rate probe, to within a factor 1.5
of the target) so a benchmark can dial in the paper's
{1.0, 0.5, 0.1, 0.01} acceptance levels.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.sampling import SampleMaterialization
from repro.graph.delta import FactorGraphDelta
from repro.graph.factor_graph import FactorGraph
from repro.util.rng import as_generator


def synthetic_pairwise_graph(
    num_vars: int,
    sparsity: float = 1.0,
    weight_range: float = 0.5,
    degree: int = 3,
    seed: int = 0,
) -> FactorGraph:
    """A random pairwise graph in the style of Figure 5's study.

    ``degree`` bounds edges per variable (ring + random chords);
    ``sparsity`` is the fraction of factors with non-zero weight — the
    rest are kept with weight 0 (structure present, correlation absent),
    matching the paper's "set their weight to zero" protocol.
    """
    rng = as_generator(seed)
    graph = FactorGraph()
    variables = [graph.add_variable() for _ in range(num_vars)]
    edges = set()
    for i in range(num_vars - 1):
        edges.add((i, i + 1))
    target_edges = max(0, (degree * num_vars) // 2 - len(edges))
    attempts = 0
    while len(edges) < target_edges + num_vars - 1 and attempts < 20 * num_vars:
        attempts += 1
        i, j = rng.choice(num_vars, size=2, replace=False)
        edges.add((min(int(i), int(j)), max(int(i), int(j))))
    for i, j in sorted(edges):
        nonzero = rng.random() < sparsity
        w = float(rng.uniform(-weight_range, weight_range)) if nonzero else 0.0
        wid = graph.weights.intern(("J", i, j), initial=w)
        graph.add_ising_factor(wid, variables[i], variables[j])
    for v in variables:
        w = float(rng.uniform(-weight_range, weight_range))
        wid = graph.weights.intern(("h", v), initial=w)
        graph.add_bias_factor(wid, v)
    return graph


def random_delta_factors(
    graph: FactorGraph,
    magnitude: float,
    num_factors: int = 5,
    seed: int = 0,
) -> FactorGraphDelta:
    """A delta adding ``num_factors`` bias factors of the given magnitude.

    Larger magnitudes shift the distribution more, lowering the MH
    acceptance rate — the "amount of change" axis.
    """
    rng = as_generator(seed)
    delta = FactorGraphDelta()
    targets = rng.choice(graph.num_vars, size=min(num_factors, graph.num_vars), replace=False)
    for k, var in enumerate(targets):
        sign = 1.0 if rng.random() < 0.5 else -1.0
        delta.new_weight_entries.append(
            (("delta-bias", int(var), k), sign * magnitude, False)
        )
        delta.new_factors.add_bias(len(graph.weights) + k, var)
    return delta


#: A calibrated delta's probed acceptance rate lies within this factor of
#: its target.  The criterion is relative because the axis is: an
#: absolute ±0.08 accepts any ρ ≤ 0.09 for a target of 0.01.
ACCEPTANCE_RATIO = 1.5

#: Stored rows one calibration probe proposes (the whole remaining bundle
#: when it is smaller).  A probe of ``n`` rows cannot read much below
#: ``ln(n) / n`` — however sharp the target, every new record-high ``δW``
#: among the proposals is one acceptance — which is ≈ 0.02 at 400 rows.
PROBE_ROWS = 400


def delta_with_acceptance(
    graph: FactorGraph,
    materialization: SampleMaterialization,
    target_acceptance: float,
    num_factors: int = 5,
    seed: int = 0,
    max_rounds: int = 18,
) -> tuple:
    """Bisect the perturbation magnitude to hit a target acceptance rate.

    Returns ``(delta, measured acceptance)`` — the first probe within a
    factor :data:`ACCEPTANCE_RATIO` of the target, or the closest one seen
    in ``max_rounds`` (a target under the probe's floor, see
    :data:`PROBE_ROWS`, gets the floor).  A handful of bias factors cannot
    push ρ much below ``2^-num_factors`` — the stored worlds that already
    agree with all of them are accepted — so low targets need more
    factors.
    ``target_acceptance=1.0`` returns the empty delta (the A1 "analysis"
    case).
    """
    if target_acceptance >= 1.0:
        return FactorGraphDelta(), 1.0
    lo, hi = 0.0, 8.0
    best, best_error = None, math.inf
    for _ in range(max_rounds):
        mid = (lo + hi) / 2.0
        delta = random_delta_factors(graph, mid, num_factors, seed)
        measured = materialization.probe_acceptance(delta, probe=PROBE_ROWS)
        error = (
            abs(math.log(measured / target_acceptance)) if measured > 0 else math.inf
        )
        if best is None or error < best_error:
            best, best_error = (delta, measured), error
        if error <= math.log(ACCEPTANCE_RATIO):
            break
        if measured > target_acceptance:
            lo = mid  # too gentle: increase the change
        else:
            hi = mid
    return best
