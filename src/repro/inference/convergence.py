"""Empirical convergence measurement for Gibbs chains (App. A, Fig. 13).

The paper measures, for the voting program under each semantics, how many
Gibbs iterations are needed until the chain's marginal for the query
variable is within 1% of the correct value.  We estimate ``P_k[Q = 1]``
(the *distribution at sweep k*, not a single chain's running average) by
running an ensemble of independent chains from worst-case initial states
and averaging the query variable across chains at each sweep.

The ensemble is one :class:`~repro.inference.gibbs.ChainStack`: its
chains share the compilation and the scan plan, so a sweep of all of
them is one block evaluation per plan block instead of one per block per
chain — the states, and the result, of sweeping them one after the
other.
"""

from __future__ import annotations

import numpy as np

from repro.graph.compiled import CompiledFactorGraph
from repro.graph.factor_graph import FactorGraph
from repro.inference.gibbs import ChainStack, GibbsSampler
from repro.util.rng import as_generator


def _result(sweep: int, converged: bool, num_free: int) -> dict:
    return {
        "sweeps": sweep,
        "converged": converged,
        "variable_updates": sweep * num_free,
    }


def sweeps_to_marginal(
    graph: FactorGraph,
    var: int,
    target: float,
    tol: float = 0.01,
    num_chains: int = 32,
    max_sweeps: int = 10_000,
    patience: int = 3,
    seed=None,
    initial=None,
    compiled: CompiledFactorGraph | None = None,
) -> dict:
    """Sweeps until the ensemble marginal of ``var`` stays within ``tol``.

    Parameters
    ----------
    initial:
        Optional worst-case initial world applied to every chain (e.g.
        "all Up voters and Q true", the slow-mixing corner of the linear
        semantics lower-bound proof).  Defaults to independent random
        initial states.
    compiled:
        Optional shared (possibly incrementally patched)
        :class:`CompiledFactorGraph` to reuse instead of compiling
        ``graph`` from scratch — callers measuring convergence across
        incremental updates keep one compilation alive.

    Returns a dict with ``sweeps`` (or ``max_sweeps`` if never converged),
    ``converged``, and ``variable_updates`` (sweeps × free variables — the
    unit of the paper's Figure 13 y-axis).
    """
    num_free = len(graph.free_variables())
    rng = as_generator(seed)
    # One flat-array compilation (and one cached scan plan) shared by the
    # whole ensemble; each chain keeps only its own sampler state, and
    # all of them draw from ``rng``, in chain order, sweep by sweep.
    if compiled is None:
        compiled = CompiledFactorGraph(graph)
    chains = [
        GibbsSampler(graph, seed=rng, initial=initial, compiled=compiled)
        for _ in range(num_chains)
    ]
    ensemble = ChainStack(chains)
    hits = 0
    for sweep in range(1, max_sweeps + 1):
        ensemble.sweep()
        estimate = float(np.mean([chain.state[var] for chain in chains]))
        if abs(estimate - target) <= tol:
            hits += 1
            if hits >= patience:
                return _result(sweep, True, num_free)
        else:
            hits = 0
    return _result(max_sweeps, False, num_free)
