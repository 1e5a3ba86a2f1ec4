"""Exact inference by world enumeration.

Marginal computation on factor graphs is #P-hard in general (§2.5), but
for graphs with ≲ 20 free variables brute force is feasible and serves two
roles here:

1. the correctness oracle against which every sampler is tested, and
2. the materialization phase of the *strawman* approach (§3.2.1), which
   stores ``Pr[I]`` for every possible world.
"""

from __future__ import annotations

import numpy as np

from repro.graph.factor_graph import FactorGraph

#: Enumerating beyond this many free variables is refused (2^24 worlds).
MAX_FREE_VARS = 24


class ExactInference:
    """Enumerate all worlds consistent with evidence.

    Parameters
    ----------
    graph:
        The factor graph.  Evidence variables are clamped; the remaining
        free variables are enumerated.
    """

    def __init__(self, graph: FactorGraph) -> None:
        self.graph = graph
        self.free = graph.free_variables()
        if len(self.free) > MAX_FREE_VARS:
            raise ValueError(
                f"exact inference limited to {MAX_FREE_VARS} free variables, "
                f"graph has {len(self.free)}"
            )
        self._enumerate()

    def _enumerate(self) -> None:
        """Every world consistent with the evidence, scored in one call
        of the table scorer (``graph.energies``).  World ``k`` sets free
        variable ``free[j]`` to bit ``num_free − 1 − j`` of ``k`` — the
        first free variable is the most significant bit."""
        from scipy.special import logsumexp  # on first use: see the package docstring

        graph = self.graph
        num_free = len(self.free)
        codes = np.arange(1 << num_free, dtype=np.uint32)
        worlds = np.repeat(graph.initial_assignment()[None, :], codes.shape[0], axis=0)
        for j, var in enumerate(self.free):
            worlds[:, var] = (codes >> (num_free - 1 - j)) & 1
        log_weights = graph.energies(worlds)
        self.log_partition = float(logsumexp(log_weights))
        self.log_probs = log_weights - self.log_partition
        self.worlds = worlds

    # ------------------------------------------------------------------ #

    def marginals(self) -> np.ndarray:
        """P(X_v = 1) for every variable (evidence vars are 0/1 exactly)."""
        probs = np.exp(self.log_probs)
        return probs @ self.worlds.astype(float)

    def marginal(self, var: int) -> float:
        return float(self.marginals()[var])

    def world_log_prob(self, world) -> float:
        """``log Pr[I]`` of a specific world (must match evidence)."""
        world = np.asarray(world, dtype=bool)
        for var, value in self.graph.evidence.items():
            if bool(world[var]) != value:
                return float("-inf")
        return float(self.graph.energy(world)) - self.log_partition

    def distribution(self) -> np.ndarray:
        """Probabilities of the enumerated worlds, in enumeration order."""
        return np.exp(self.log_probs)

    def pairwise_marginal(self, i: int, j: int) -> float:
        """P(X_i = 1, X_j = 1)."""
        probs = np.exp(self.log_probs)
        both = self.worlds[:, i] & self.worlds[:, j]
        return float(probs[both].sum())

    def covariance_matrix(self) -> np.ndarray:
        """Exact covariance of the indicator variables."""
        probs = np.exp(self.log_probs)
        x = self.worlds.astype(float)
        mean = probs @ x
        centered = x - mean
        return (centered * probs[:, None]).T @ centered
