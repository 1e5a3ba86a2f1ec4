"""Gradient of the evidence log-likelihood w.r.t. tied weights.

For the exponential-family model ``Pr[I] ∝ exp(Σ_f w_f · u_f(I))`` the
gradient of ``log Pr[E]`` w.r.t. a tied weight ``w_k`` is

    E_{I | evidence}[U_k(I)]  −  E_I[U_k(I)]

where ``U_k(I) = Σ_{f : weight(f)=k} u_f(I)`` sums the *unit energies*
(``sign·g(n)``, ``σ_i σ_j``, or ``σ_v``) of the factors tied to ``w_k``.
Both expectations are estimated with Gibbs samples: a chain with evidence
clamped and a free chain.

Two implementations of the statistics accumulation coexist:

* the **compiled** path (pass ``compiled=``) batches the whole ``(S, n)``
  world matrix against the flat CSR arrays of
  :class:`~repro.graph.compiled.CompiledFactorGraph` — the learning hot
  path, and the one that stays O(live factors) across ``apply_delta``
  patches;
* the **Python slow path** below walks ``graph.factors`` per world; it is
  the randomized-equivalence reference for the compiled kernel.
"""

from __future__ import annotations

import numpy as np

from repro.graph.factor_graph import FactorGraph


def weight_statistics(
    graph: FactorGraph, worlds: np.ndarray, compiled=None
) -> np.ndarray:
    """Mean unit-energy vector ``E[U_k]`` over ``worlds``.

    Returns an array of length ``len(graph.weights)``; entry ``k`` is the
    average over worlds of the summed unit energies of factors tied to
    weight ``k``.  With ``compiled`` (a
    :class:`~repro.graph.compiled.CompiledFactorGraph` over the same
    structure) the accumulation is vectorised over the flat arrays.
    """
    if compiled is not None:
        return compiled.weight_statistics(worlds)
    worlds = np.asarray(worlds, dtype=bool)
    if worlds.ndim == 1:
        worlds = worlds[None, :]
    totals = np.zeros(len(graph.weights))
    for world in worlds:
        for factor in graph.factors:
            totals[factor.weight_id] += factor.unit_energy(world)
    return totals / worlds.shape[0]


def factor_counts_per_weight(graph: FactorGraph, compiled=None) -> np.ndarray:
    """Number of factors tied to each weight id."""
    if compiled is not None:
        return compiled.factor_counts_per_weight()
    counts = np.zeros(len(graph.weights))
    for factor in graph.factors:
        counts[factor.weight_id] += 1
    return counts


def weight_gradient(
    graph: FactorGraph,
    conditioned_worlds: np.ndarray,
    free_worlds: np.ndarray,
    l2: float = 0.0,
    normalize: bool = True,
    compiled=None,
) -> np.ndarray:
    """Estimated ∇ log Pr[E] (zero for ``fixed`` weights).

    ``conditioned_worlds`` are samples with evidence clamped;
    ``free_worlds`` samples from the unconstrained model.

    With ``normalize=True`` (default) each component is divided by the
    number of factors tied to that weight, so heavily-tied weights (which
    otherwise receive O(#groundings)-scale gradients) take comparably
    sized steps to rare features — the usual per-feature scaling.

    ``compiled`` routes both statistics passes and the normalizer through
    the compiled aggregation arrays (see module docstring).
    """
    grad = weight_statistics(
        graph, conditioned_worlds, compiled=compiled
    ) - weight_statistics(graph, free_worlds, compiled=compiled)
    if normalize:
        counts = factor_counts_per_weight(graph, compiled=compiled)
        grad = grad / np.maximum(counts, 1.0)
    if l2:
        grad -= l2 * graph.weights.values_array()
    grad[graph.weights.fixed_mask()] = 0.0
    return grad


def _sigmoid_vec(x: np.ndarray) -> np.ndarray:
    """Numerically stable element-wise sigmoid."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class EvidenceScorer:
    """Pseudo-NLL of the evidence against a *live* :class:`GibbsCache`.

    Scores ``−mean log P(x_v = label | rest)`` over the evidence
    variables without rebuilding any O(graph) state per call: the caller
    hands in a maintained cache (typically the conditioned persistent
    chain's), and the scorer only evaluates the per-variable conditionals.
    Variables free of slow-path factors batch through
    ``delta_energy_block`` when that pays; the rest go through the scalar
    kernel.  Rebuild the scorer when the evidence set or the compiled
    structure changes (it precomputes gather arrays over both).
    """

    def __init__(self, compiled, evidence) -> None:
        items = sorted((int(v), bool(val)) for v, val in evidence.items())
        self.vars = np.array([v for v, _ in items], dtype=np.int64)
        self.vals = np.array([val for _, val in items], dtype=bool)
        has_slow = np.array(
            [bool(compiled.py_slow[v]) for v in self.vars], dtype=bool
        )
        block = compiled.gather_block(self.vars[~has_slow])
        self.block = block if block.use_batch else None
        self.fast_idx = np.flatnonzero(~has_slow)
        self.scalar_idx = (
            np.flatnonzero(has_slow)
            if self.block is not None
            else np.arange(self.vars.size)
        )

    def nll(self, cache, state: np.ndarray) -> float:
        """The pseudo-NLL under ``cache``/``state`` (evidence clamped)."""
        if not self.vars.size:
            return 0.0
        cache.refresh_weights(state)
        deltas = np.empty(self.vars.size, dtype=np.float64)
        if self.block is not None:
            deltas[self.fast_idx] = cache.delta_energy_block(self.block, state)
        for k in self.scalar_idx:
            deltas[k] = cache.delta_energy(int(self.vars[k]), state)
        p = _sigmoid_vec(deltas)
        p = np.where(self.vals, p, 1.0 - p)
        return float(-np.log(np.maximum(p, 1e-12)).mean())
