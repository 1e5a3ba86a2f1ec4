"""Independent Metropolis–Hastings over materialized samples (§3.2.2).

The materialization phase stored worlds drawn from the original
distribution ``Pr⁰``.  To infer under the updated distribution ``Pr^∆``,
each stored world is proposed in turn; because the proposal density *is*
``Pr⁰``, the acceptance ratio collapses to ``exp(δW(y) − δW(x))`` which
:class:`~repro.graph.delta_energy.DeltaEvaluator` computes from the delta
``(∆V, ∆F)`` alone.  Worlds that contradict evidence introduced by the
delta have zero target density and are always rejected — this is why
supervision updates crater the acceptance rate (§4.3).

A proposal does not depend on the chain's state, so :meth:`IndependentMH.run`
extends and scores every proposal of a run up front, as one batch through
the evaluator's lowered Δ; what is left of the chain is a recurrence over
precomputed floats.  The generator is consumed in the order a
step-by-step chain would consume it — the initial state's extension, the
acceptance uniforms, then the proposals' extensions row by row — so a
seeded run gives the result of the per-proposal loop kept in
``tests/reference/metropolis.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.graph.delta import FactorGraphDelta
from repro.graph.delta_energy import DeltaEvaluator
from repro.graph.factor_graph import FactorGraph
from repro.util.rng import as_generator


@dataclass
class MHResult:
    """Outcome of an independent-MH inference run."""

    marginals: np.ndarray
    acceptance_rate: float
    proposals_used: int
    accepted: int
    exhausted: bool
    chain: np.ndarray | None = None


class IndependentMH:
    """Reuse stored samples as proposals for the updated distribution.

    Parameters
    ----------
    base:
        The factor graph the samples were drawn from.
    delta:
        The change set defining the updated distribution.
    stored_samples:
        ``(S, base.num_vars)`` boolean matrix of worlds from ``Pr⁰``.
    """

    def __init__(
        self,
        base: FactorGraph,
        delta: FactorGraphDelta,
        stored_samples: np.ndarray,
        seed=None,
    ) -> None:
        self.base = base
        self.delta = delta
        self.evaluator = DeltaEvaluator(base, delta)
        self.stored = np.asarray(stored_samples, dtype=bool)
        total = self.evaluator.total_vars
        if self.stored.ndim != 2 or not (
            base.num_vars <= self.stored.shape[1] <= total
        ):
            raise ValueError(
                f"stored samples must be (S, w) with {base.num_vars} <= w "
                f"<= {total}; got {self.stored.shape}"
            )
        self.rng = as_generator(seed)

    # ------------------------------------------------------------------ #

    def run(self, num_steps: int, keep_chain: bool = False) -> MHResult:
        """Run up to ``num_steps`` MH steps (one stored proposal each).

        Stops early — with ``exhausted=True`` — if the stored samples run
        out, signalling the engine to fall back to another strategy
        (optimizer rule 4, §3.3).
        """
        evaluator = self.evaluator
        steps = min(num_steps, len(self.stored))
        exhausted = steps < num_steps
        if len(self.stored) == 0:
            # Never fabricate an all-zero marginal vector: callers are
            # expected to fall back *before* running MH on an empty
            # bundle.
            raise ValueError(
                "no stored proposals available (bundle exhausted); "
                "fall back to another strategy instead of running MH"
            )
        # A support-positive starting world: the first stored sample with
        # the delta's evidence forced (only the *initial* state may be
        # forced — proposals are never modified, they are rejected
        # instead).  Row 0 of ``worlds``; proposal ``s`` is row ``s + 1``.
        initial = evaluator.extend_worlds(self.stored[:1], self.rng)
        initial[:, evaluator.ev_vars] = evaluator.ev_vals
        if steps == 0:
            # Nothing to propose: report the initial-state counts.
            return MHResult(
                marginals=initial[0].astype(float),
                acceptance_rate=0.0,
                proposals_used=0,
                accepted=0,
                exhausted=exhausted,
                chain=initial[:0] if keep_chain else None,
            )
        uniforms = self.rng.random(steps).tolist()
        worlds = np.concatenate(
            [initial, evaluator.extend_worlds(self.stored[:steps], self.rng)]
        )
        energies = evaluator.delta_energies(worlds)
        energies[1:][evaluator.violations(worlds[1:])] = -np.inf
        energies = energies.tolist()

        # The accept/reject recurrence is sequential but only touches the
        # precomputed floats; ``state[t]`` is the row of ``worlds`` the
        # chain sits on after step ``t``.
        state = np.empty(steps, dtype=np.int64)
        current, current_delta, accepted = 0, energies[0], 0
        for step in range(steps):
            log_alpha = energies[step + 1] - current_delta
            if log_alpha >= 0 or uniforms[step] < math.exp(log_alpha):
                current, current_delta = step + 1, energies[step + 1]
                accepted += 1
            state[step] = current

        chain = worlds[state]
        return MHResult(
            marginals=chain.sum(axis=0) / steps,
            acceptance_rate=accepted / steps,
            proposals_used=steps,
            accepted=accepted,
            exhausted=exhausted,
            chain=chain if keep_chain else None,
        )

    def estimate_acceptance_rate(self, probe: int = 50) -> float:
        """Cheap acceptance-rate probe on a prefix of the stored samples.

        Used by the engine to decide whether the sampling approach is
        viable before committing to it.
        """
        probe = min(probe, len(self.stored))
        if probe == 0:
            return 0.0
        return self.run(probe).acceptance_rate
