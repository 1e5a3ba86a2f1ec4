"""Chromatic (graph-coloured) Gibbs sampling for pairwise graphs.

The variational approach materializes a graph containing *only* binary
potentials (Algorithm 1), and the tradeoff-study synthetic graphs (§3.2.4)
are pairwise too.  For such graphs, variables within one colour class of a
proper colouring are conditionally independent given the rest, so a whole
class can be resampled in a single vectorised numpy step — this is what
makes "inference on the sparser approximated graph is faster" measurable
at Python speed.

The sampler is built directly on the flat CSR incidence arrays of
:class:`~repro.graph.compiled.CompiledFactorGraph` — the per-variable
Ising slices *are* the adjacency structure, so both the coupling matrix
and the colouring reuse them with no per-factor traversal.

Only ``IsingFactor`` and ``BiasFactor`` graphs are supported; a graph with
rule factors must use :class:`~repro.inference.gibbs.GibbsSampler`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph.compiled import CompiledFactorGraph
from repro.graph.factor_graph import FactorGraph
from repro.util.rng import as_generator


def _greedy_coloring_csr(indptr, indices, num_vars: int) -> np.ndarray:
    """Greedy colouring over a CSR adjacency; returns the colour vector."""
    colors = np.full(num_vars, -1, dtype=np.int64)
    degrees = np.diff(indptr)
    # Highest-degree-first ordering keeps the colour count low.
    order = np.argsort(-degrees, kind="stable")
    for v in order:
        v = int(v)
        neighbor_colors = colors[indices[indptr[v] : indptr[v + 1]]]
        used = {int(c) for c in neighbor_colors[neighbor_colors >= 0]}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors


class ChromaticGibbsSampler:
    """Vectorised Gibbs sampler for Ising/bias-only factor graphs.

    Energy model: ``E(σ) = σᵀ J σ / ... + hᵀ σ`` with ``σ ∈ {−1, +1}``;
    the conditional is ``P(σ_v = +1 | rest) = sigmoid(2(h_v + Σ_j J_vj σ_j))``.
    """

    def __init__(
        self,
        graph: FactorGraph,
        seed=None,
        initial=None,
        compiled: CompiledFactorGraph | None = None,
    ) -> None:
        self.graph = graph
        self.rng = as_generator(seed)
        self.compiled = compiled if compiled is not None else CompiledFactorGraph(graph)
        if not self.compiled.is_pairwise:
            raise TypeError(
                "ChromaticGibbsSampler supports only pairwise graphs; "
                "found rule factors"
            )
        self._build(graph)
        if initial is None:
            state = graph.initial_assignment(self.rng)
        else:
            state = np.array(initial, dtype=bool)
            ev_vars, ev_vals = graph.evidence_arrays()
            state[ev_vars] = ev_vals
        self.spins = np.where(state, 1.0, -1.0)
        self.sweeps_done = 0

    def _build(self, graph: FactorGraph) -> None:
        compiled = self.compiled
        n = graph.num_vars
        weights = np.asarray(graph.weights.values_array(), dtype=np.float64)
        # The per-variable Ising CSR slices already list every edge from
        # both endpoints, so they form the symmetric coupling matrix
        # directly (duplicate column entries sum under matvec, matching
        # parallel edges).
        self.coupling = sp.csr_matrix(
            (
                weights[compiled.ising_wid],
                compiled.ising_other,
                compiled.ising_indptr,
            ),
            shape=(n, n),
        )
        if compiled.bias_wid.size:
            self.field = np.bincount(
                compiled.bias_var,
                weights=weights[compiled.bias_wid],
                minlength=n,
            )
        else:
            self.field = np.zeros(n, dtype=np.float64)
        colors = _greedy_coloring_csr(
            compiled.ising_indptr, compiled.ising_other, n
        )
        evidence_mask = graph.evidence_mask()
        self.color_classes = []
        for c in range(int(colors.max()) + 1 if n else 0):
            cls = np.flatnonzero(colors == c)
            cls = cls[~evidence_mask[cls]]
            if len(cls):
                self.color_classes.append(cls)
        self.num_colors = len(self.color_classes)
        self._evidence_mask = evidence_mask

    # ------------------------------------------------------------------ #

    @property
    def state(self) -> np.ndarray:
        """Current world as a boolean vector."""
        return self.spins > 0

    def sweep(self) -> None:
        """Resample every free variable once, one colour class at a time."""
        for cls in self.color_classes:
            local = self.coupling[cls] @ self.spins + self.field[cls]
            p_up = 1.0 / (1.0 + np.exp(-2.0 * local))
            flips = self.rng.random(len(cls)) < p_up
            self.spins[cls] = np.where(flips, 1.0, -1.0)
        self.sweeps_done += 1

    def run(self, num_sweeps: int) -> np.ndarray:
        for _ in range(num_sweeps):
            self.sweep()
        return self.state

    def iter_worlds(self, num_samples: int, thin: int = 1, burn_in: int = 0):
        """``burn_in`` sweeps, then yield the state after every ``thin``
        more, ``num_samples`` times."""
        self.run(burn_in)
        for _ in range(num_samples):
            yield self.run(thin)

    def sample_worlds(self, num_samples: int, thin: int = 1, burn_in: int = 0) -> np.ndarray:
        out = np.empty((num_samples, self.graph.num_vars), dtype=bool)
        for s, world in enumerate(self.iter_worlds(num_samples, thin, burn_in)):
            out[s] = world
        return out

    def estimate_marginals(
        self, num_samples: int, thin: int = 1, burn_in: int = 0
    ) -> np.ndarray:
        worlds = self.sample_worlds(num_samples, thin=thin, burn_in=burn_in)
        return worlds.mean(axis=0)
