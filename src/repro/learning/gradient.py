"""Gradient of the evidence log-likelihood w.r.t. tied weights.

For the exponential-family model ``Pr[I] ∝ exp(Σ_f w_f · u_f(I))`` the
gradient of ``log Pr[E]`` w.r.t. a tied weight ``w_k`` is

    E_{I | evidence}[U_k(I)]  −  E_I[U_k(I)]

where ``U_k(I) = Σ_{f : weight(f)=k} u_f(I)`` sums the *unit energies*
(``sign·g(n)``, ``σ_i σ_j``, or ``σ_v``) of the factors tied to ``w_k``.
Both expectations are estimated with Gibbs samples: a chain with evidence
clamped and a free chain.

The statistics are accumulated on the compiled substrate only:
:class:`~repro.graph.compiled.CompiledFactorGraph` batches the whole
``(S, n)`` world matrix against its flat CSR arrays and stays O(live
factors) across ``apply_delta`` patches.  The per-factor Python loop it
must agree with is a test reference (``tests/reference/learning.py``).
"""

from __future__ import annotations

import numpy as np


def weight_statistics(compiled, worlds: np.ndarray) -> np.ndarray:
    """Mean unit-energy vector ``E[U_k]`` over ``worlds``.

    Returns an array of length ``len(weights)``; entry ``k`` is the
    average over worlds of the summed unit energies of factors tied to
    weight ``k``.
    """
    return compiled.weight_statistics(worlds)


def factor_counts_per_weight(compiled) -> np.ndarray:
    """Number of live factors tied to each weight id."""
    return compiled.factor_counts_per_weight()


def weight_gradient(
    compiled,
    conditioned_worlds: np.ndarray,
    free_worlds: np.ndarray,
    l2: float = 0.0,
    normalize: bool = True,
) -> np.ndarray:
    """Estimated ∇ log Pr[E] (zero for ``fixed`` weights).

    ``conditioned_worlds`` are samples with evidence clamped;
    ``free_worlds`` samples from the unconstrained model; ``compiled`` is
    the :class:`~repro.graph.compiled.CompiledFactorGraph` both were
    drawn over.

    With ``normalize=True`` (default) each component is divided by the
    number of factors tied to that weight, so heavily-tied weights (which
    otherwise receive O(#groundings)-scale gradients) take comparably
    sized steps to rare features — the usual per-feature scaling.
    """
    weights = compiled.graph.weights
    # One pass over both chains' worlds, each half reduced by itself.
    conditioned, free = compiled.weight_statistics(
        np.concatenate([conditioned_worlds, free_worlds]),
        counts=(len(conditioned_worlds), len(free_worlds)),
    )
    grad = conditioned - free
    if normalize:
        grad = grad / np.maximum(compiled.factor_counts_per_weight(), 1.0)
    if l2:
        grad -= l2 * weights.values_array()
    grad[weights.fixed_mask()] = 0.0
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
    chain's), and the scorer only evaluates the per-variable conditionals,
    in one ``delta_energy_block`` call.  Rebuild the scorer when the
    evidence set or the compiled structure changes (it precomputes gather
    arrays over both).
    """

    def __init__(self, compiled, evidence) -> None:
        items = sorted((int(v), bool(val)) for v, val in evidence.items())
        self.vars = np.array([v for v, _ in items], dtype=np.int64)
        self.vals = np.array([val for _, val in items], dtype=bool)
        self.block = compiled.gather_block(self.vars)

    def nll(self, cache, state: np.ndarray) -> float:
        """The pseudo-NLL under ``cache``/``state`` (evidence clamped)."""
        if not self.vars.size:
            return 0.0
        cache.refresh_weights(state)
        p = _sigmoid_vec(cache.delta_energy_block(self.block, state))
        p = np.where(self.vals, p, 1.0 - p)
        return float(-np.log(np.maximum(p, 1e-12)).mean())
