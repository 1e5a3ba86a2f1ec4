"""Strawman: complete materialization (§3.2.1).

The materialization phase stores ``Pr⁰[I]`` for **every** possible world —
exponential space and time, feasible only on small graphs, but a useful
baseline: the inference phase never touches the original factors.  It
runs Gibbs sampling where each conditional is computed from two stored
world probabilities plus the delta energies of the changed factors ∆F.
"""

from __future__ import annotations

import numpy as np

from repro.graph.delta import FactorGraphDelta
from repro.graph.delta_energy import DeltaEvaluator
from repro.graph.factor_graph import FactorGraph
from repro.inference.exact import ExactInference
from repro.util.rng import as_generator

#: Strawman hard limit — 2^18 worlds is already generous.
MAX_STRAWMAN_VARS = 18


class StrawmanMaterialization:
    """Stores every world's log-probability of the original distribution."""

    def __init__(self, graph: FactorGraph, seed=None) -> None:
        free = graph.free_variables()
        if len(free) > MAX_STRAWMAN_VARS:
            raise ValueError(
                f"strawman materialization is exponential; refusing "
                f"{len(free)} free variables (max {MAX_STRAWMAN_VARS})"
            )
        self.graph = graph
        self.rng = as_generator(seed)
        self._free = free
        exact = ExactInference(graph)
        self.base_marginals = exact.marginals()
        # World table keyed by the packed values of the base free vars.
        self._log_probs: dict = {}
        for world, logp in zip(exact.worlds, exact.log_probs):
            self._log_probs[self._key(world)] = float(logp)
        self.materialized_worlds = len(self._log_probs)

    def _key(self, world) -> bytes:
        return np.asarray(world, dtype=bool)[self._free].tobytes()

    def stored_log_prob(self, world) -> float:
        """``log Pr⁰[I]``, looked up — never recomputed from factors."""
        return self._log_probs.get(self._key(world), float("-inf"))

    # ------------------------------------------------------------------ #

    def infer(
        self, delta: FactorGraphDelta, num_sweeps: int = 200, burn_in: int = 20
    ) -> np.ndarray:
        """Marginals of the updated distribution via lookup-Gibbs.

        The conditional for a variable ``v`` needs
        ``Pr⁰[I|v=1]/Pr⁰[I|v=0] · exp(δW(I|v=1) − δW(I|v=0))`` — two table
        lookups plus the delta factors; the original graph's factors are
        never fetched (the strawman's selling point).
        """
        if any(v is None for v in delta.evidence_updates.values()):
            raise NotImplementedError(
                "strawman cannot relax evidence (stored worlds exclude it)"
            )
        evaluator = DeltaEvaluator(self.graph, delta)
        # Materialized oracle path: the strawman is an exponential-space
        # baseline, deliberately outside the compiled-substrate fast path,
        # so the validated ``delta.apply`` copy is acceptable here.
        updated = delta.apply(self.graph)
        world = updated.initial_assignment(self.rng)
        # Start from a stored-support world for the base variables.
        base_init = self.graph.initial_assignment(self.rng)
        world[: self.graph.num_vars] = base_init
        for var, value in updated.evidence.items():
            world[var] = value

        free = [v for v in range(updated.num_vars) if not updated.is_evidence(v)]
        counts = np.zeros(updated.num_vars, dtype=np.int64)
        total = 0
        for sweep in range(num_sweeps):
            for var in free:
                # The flip's two candidate worlds, ``var`` true then false.
                pair = np.repeat(world[None, :], 2, axis=0)
                pair[:, var] = (True, False)
                log_p1, log_p0 = self._lookup_plus_delta(pair, evaluator)
                if log_p1 == float("-inf") and log_p0 == float("-inf"):
                    raise RuntimeError(
                        "no stored world is consistent with the update"
                    )
                p_true = 1.0 / (1.0 + np.exp(np.clip(log_p0 - log_p1, -700, 700)))
                world[var] = self.rng.random() < p_true
            if sweep >= burn_in:
                counts += world
                total += 1
        marginals = counts / max(total, 1)
        for var, value in updated.evidence.items():
            marginals[var] = 1.0 if value else 0.0
        return marginals

    def _lookup_plus_delta(self, worlds, evaluator: DeltaEvaluator) -> list:
        """``log Pr⁰`` looked up plus ``δW`` for each row of ``worlds``:
        the rows are scored in one ``delta_energies`` call."""
        base = [
            self._log_probs.get(row[self._free].tobytes(), float("-inf"))
            for row in worlds[:, : self.graph.num_vars]
        ]
        return (np.array(base) + evaluator.delta_energies(worlds)).tolist()
