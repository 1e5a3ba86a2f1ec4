"""The per-proposal independent-MH loop ``IndependentMH.run`` is checked
against: every proposal extended, checked and scored world by world
through :class:`DeltaEvaluator`'s scalar methods, the chain advanced one
step at a time.
"""

from __future__ import annotations

import numpy as np

from repro.graph.delta_energy import DeltaEvaluator
from repro.inference.metropolis import MHResult
from repro.util.rng import as_generator


def reference_mh_run(base, delta, stored, seed, num_steps, keep_chain=False) -> MHResult:
    """``IndependentMH(base, delta, stored, seed).run(num_steps, keep_chain)``."""
    evaluator = DeltaEvaluator(base, delta)
    stored = np.asarray(stored, dtype=bool)
    rng = as_generator(seed)
    total_vars = evaluator.total_vars

    def initial_state():
        world = evaluator.extend_world(stored[0], rng)
        for var, val in evaluator.evidence_constraints.items():
            world[var] = val
        return world, evaluator.delta_energy(world)

    steps = min(num_steps, len(stored))
    exhausted = steps < num_steps
    if steps == 0:
        if len(stored) == 0:
            raise ValueError("no stored proposals available (bundle exhausted)")
        current, _ = initial_state()
        return MHResult(
            marginals=current.astype(float),
            acceptance_rate=0.0,
            proposals_used=0,
            accepted=0,
            exhausted=exhausted,
            chain=np.zeros((0, total_vars), dtype=bool) if keep_chain else None,
        )
    current, current_delta = initial_state()

    counts = np.zeros(total_vars, dtype=np.int64)
    chain = np.empty((steps, total_vars), dtype=bool) if keep_chain else None
    accepted = 0
    uniforms = rng.random(steps)
    for step in range(steps):
        proposal = evaluator.extend_world(stored[step], rng)
        if evaluator.violates_evidence(proposal):
            log_alpha = float("-inf")
            proposal_delta = float("-inf")
        else:
            proposal_delta = evaluator.delta_energy(proposal)
            log_alpha = proposal_delta - current_delta
        if log_alpha >= 0 or uniforms[step] < np.exp(log_alpha):
            current = proposal
            current_delta = proposal_delta
            accepted += 1
        counts += current
        if keep_chain:
            chain[step] = current

    marginals = counts / max(steps, 1)
    return MHResult(
        marginals=marginals,
        acceptance_rate=accepted / max(steps, 1),
        proposals_used=steps,
        accepted=accepted,
        exhausted=exhausted,
        chain=chain,
    )
