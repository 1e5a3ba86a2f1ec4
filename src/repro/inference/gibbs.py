"""Systematic-scan Gibbs sampling (the paper's inference workhorse, §2.5).

Each sweep visits every free variable once and resamples it from its
conditional.  The hot path runs over the flat-array compilation of
:mod:`repro.graph.compiled`: the scan goes colour class by colour class
(within windows of consecutive ids) of a colouring the substrate
maintains, so every block holds mutually factor-independent variables
and is resampled — conditionals and cache commit — in a handful of array
operations.  The order is fixed by the substrate, not by variable ids.
Evidence variables stay clamped, which is exactly how the E-step
("conditioned chain") of weight learning is run as well.
"""

from __future__ import annotations

import math

import numpy as np

from repro.graph.compiled import CompiledFactorGraph, GibbsCache, bias_init_values
from repro.graph.factor_graph import FactorGraph
from repro.util.rng import as_generator


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def sweep_blocks(cache, state, blocks, uniforms) -> None:
    """Resample every variable of ``blocks`` in scan order, in place.

    ``uniforms`` must hold one uniform draw per variable, concatenated in
    block order.  This is the sweep kernel shared by :class:`GibbsSampler`
    and the shard workers of :mod:`repro.inference.parallel`; both must
    consume randomness identically for the serial/parallel equivalence
    guarantees to hold.  A draw ``u`` sets its variable to 1 iff
    ``u < σ(Δ)``, evaluated as ``logit(u) < Δ`` so the whole sweep takes
    its logarithms at once and no kernel exponentiates.
    """
    with np.errstate(divide="ignore"):  # u == 0 ⇒ −inf: always 1
        logits = np.log(uniforms) - np.log1p(-uniforms)
    offset = 0
    for block in blocks:
        size = block.vars.size
        logit_u = logits[offset : offset + size]
        offset += size
        if block.use_batch:
            cache.commit_block(
                block, logit_u < cache.delta_energy_block(block, state), state
            )
        else:
            for k, var in enumerate(block.vars.tolist()):
                new_value = bool(logit_u[k] < cache.delta_energy(var, state))
                if new_value != bool(state[var]):
                    cache.commit_flip(var, new_value, state)


class GibbsSampler:
    """Markov-chain Gibbs sampler over a factor graph.

    Parameters
    ----------
    graph:
        Factor graph (or an already compiled view via ``compiled=``).
    seed:
        RNG seed / generator.
    initial:
        Optional starting world; defaults to random consistent with
        evidence.
    compiled:
        Optional shared :class:`CompiledFactorGraph`.  It may have been
        compiled from a *different* graph object as long as the factor
        structure is identical (e.g. the conditioned/free chain pair of
        SGD learning shares one compilation); the scan plan is derived
        from ``graph``'s own evidence.
    """

    def __init__(
        self,
        graph: FactorGraph,
        seed=None,
        initial=None,
        compiled: CompiledFactorGraph | None = None,
    ) -> None:
        self.graph = graph
        self.compiled = compiled if compiled is not None else CompiledFactorGraph(graph)
        self.plan = self.compiled.plan(graph)
        self.rng = as_generator(seed)
        if initial is None:
            self.state = graph.initial_assignment(self.rng)
        else:
            self.state = np.array(initial, dtype=bool)
            ev_vars, ev_vals = graph.evidence_arrays()
            self.state[ev_vars] = ev_vals
        self.cache = GibbsCache(self.compiled, self.state)
        self.sweeps_done = 0

    # ------------------------------------------------------------------ #

    def _grow_state(self, patch) -> None:
        """Append the patch's new variables to the chain state.

        New free variables are drawn from their bias-only conditional
        (``P(x=1) = σ(2·Σ w_bias)``); clamped new variables take their
        evidence values."""
        k = patch.num_new_vars
        if not k:
            return
        old_n = patch.old_num_vars
        new_vals = bias_init_values(
            k, old_n, patch.bias_add, self.compiled.graph.weights, self.rng
        )
        for var, val in patch.evidence_sets:
            if var >= old_n:
                new_vals[var - old_n] = val
        self.state = np.concatenate([self.state, new_vals])

    def apply_patch(self, patch, graph: FactorGraph | None = None) -> None:
        """Warm-start this chain across a compiled-graph patch.

        The assignment of surviving variables is kept (the paper's
        incremental-inference premise: ``Pr^∆`` is close to ``Pr⁰``, so a
        stationary state of the old chain is a near-stationary start for
        the new one); new variables are initialized from their bias and
        re-clamped evidence flows through the cache.

        ``graph`` overrides the post-patch graph this chain samples:
        pass a structure-identical twin with its own evidence (e.g. the
        evidence-free chain of SGD learning) to keep the chain's clamping
        independent of the compiled graph's — only evidence the override
        graph actually clamps is re-applied."""
        compiled = self.compiled
        self._grow_state(patch)
        self.graph = graph if graph is not None else compiled.graph
        clamps = [
            (var, val)
            for var, val in patch.evidence_sets
            if self.graph.evidence_value(var) is not None
        ]
        if patch.compacted:
            # Full recompaction invalidated blocks and caches: re-derive
            # them; the warm assignment is all that carries over.
            for var, val in clamps:
                self.state[var] = val
            self.plan = compiled.plan(self.graph)
            self.cache = GibbsCache(compiled, self.state)
            return
        self.cache.apply_patch(patch, self.state)
        self.plan = compiled.plan(self.graph)
        for var, val in clamps:
            if bool(self.state[var]) != val:
                self.cache.commit_flip(int(var), bool(val), self.state)

    # ------------------------------------------------------------------ #

    def sweep(self) -> None:
        """One full pass over the free variables."""
        cache = self.cache
        state = self.state
        cache.refresh_weights(state)
        uniforms = self.rng.random(len(self.plan.free_vars))
        sweep_blocks(cache, state, self.plan.blocks, uniforms)
        self.sweeps_done += 1

    def run(self, num_sweeps: int) -> np.ndarray:
        """Run ``num_sweeps`` sweeps; returns the final state (a view)."""
        for _ in range(num_sweeps):
            self.sweep()
        return self.state

    def sample_worlds(self, num_samples: int, thin: int = 1, burn_in: int = 0) -> np.ndarray:
        """Collect ``num_samples`` worlds, one per ``thin`` sweeps.

        Returns a ``(num_samples, num_vars)`` boolean matrix — the "tuple
        bundle" stored by the sampling materialization approach (one bit
        per variable per sample, as in MCDB).
        """
        for _ in range(burn_in):
            self.sweep()
        out = np.empty((num_samples, self.graph.num_vars), dtype=bool)
        for s in range(num_samples):
            for _ in range(thin):
                self.sweep()
            out[s] = self.state
        return out

    def estimate_marginals(
        self, num_samples: int, thin: int = 1, burn_in: int = 0
    ) -> np.ndarray:
        """Monte-Carlo marginal estimates P(X_v = 1)."""
        worlds = self.sample_worlds(num_samples, thin=thin, burn_in=burn_in)
        return worlds.mean(axis=0)

    def close(self) -> None:
        """Nothing to release: the chain lives in this process.  Present
        so an owner closes serial and pool-backed chains the same way."""

    def conditional_probability(self, var: int) -> float:
        """P(X_var = 1 | rest of current state) — exposed for tests."""
        return _sigmoid(self.cache.delta_energy(var, self.state))
