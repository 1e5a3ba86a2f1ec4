"""Algorithm 1 densely, and its NZ set and coupling emission pair by pair
(§3.2.3).

:func:`solve_logdet` is the dense solver the package ran before it
solved per component: projected gradient ascent over the whole ``n × n``
iterate, inverting and Cholesky-testing it at every backtracking step.
The package's :func:`~repro.core.variational.solve_logdet_blocks` must
equal it block by block (to rounding: LAPACK on a block against LAPACK on
the dense matrix).

:func:`reference_learn_approximation` is ``learn_approximation`` as the
package ran it before it read the factor table: ``NZ`` from a walk over
the graph's factor objects (each factor's sorted variable set, every
pair of it once), and the kept couplings from a loop over all ``n²/2``
pairs, interning and adding one Ising factor per kept pair in row-major
order, each bias summed over its row's couplings in column order.  Its
covariance blocks and solution come from the package's per-component
routines, so the package's array form must equal it bit for bit: the
same blocks, weight store and factor list.
"""

from __future__ import annotations

import numpy as np

from repro.core.variational import (
    ComponentBlocks,
    VariationalApproximation,
    covariance_blocks,
    solve_logdet_blocks,
)
from repro.graph.factor_graph import FactorGraph


def _is_positive_definite(matrix: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(matrix)
        return True
    except np.linalg.LinAlgError:
        return False


def solve_logdet(
    cov: np.ndarray,
    nz_mask: np.ndarray,
    lam: float,
    max_iter: int = 40,
    tol: float = 1e-5,
    step: float = 0.25,
) -> np.ndarray:
    """Algorithm 1's optimization step (line 4), over the dense matrix.

    ``cov`` is the masked covariance with the ``+1/3`` diagonal boost
    already applied; ``nz_mask`` marks allowed off-diagonal entries.
    """
    n = cov.shape[0]
    if cov.shape != (n, n) or nz_mask.shape != (n, n):
        raise ValueError("cov and nz_mask must be square and same shape")
    diag = np.diag(cov).copy()
    if (diag <= 0).any():
        raise ValueError("boosted diagonal must be positive")
    off_mask = nz_mask.astype(bool) & ~np.eye(n, dtype=bool)
    # Masked-out entries get a degenerate [0, 0] box, i.e. they stay zero.
    lower = (cov - lam) * off_mask
    upper = (cov + lam) * off_mask

    def project(x: np.ndarray) -> np.ndarray:
        off = np.clip(x, lower, upper) * off_mask
        out = off + np.diag(diag)
        return (out + out.T) / 2.0

    x = np.diag(diag)
    x = project(x)
    if not _is_positive_definite(x):
        # Fall back to the always-feasible diagonal start.
        x = np.diag(diag)
    for _ in range(max_iter):
        gradient = np.linalg.inv(x)
        alpha = step
        candidate = x
        while alpha > 1e-9:
            trial = project(x + alpha * gradient)
            if _is_positive_definite(trial):
                candidate = trial
                break
            alpha /= 2.0
        if np.abs(candidate - x).max() < tol:
            x = candidate
            break
        x = candidate
    return x


def dense(blocks: ComponentBlocks, n: int) -> np.ndarray:
    """The ``n × n`` matrix ``blocks`` stands for (zero between
    components)."""
    out = np.zeros((n, n), dtype=blocks.values[0].dtype if blocks.values else float)
    for ids, values in zip(blocks.members, blocks.values):
        out[ids[:, :, None], ids[:, None, :]] = values
    return out


def object_neighbor_pairs(graph) -> list:
    """Each unordered co-occurring pair ``(a, b)``, ``a < b``, in the
    order a walk over ``graph.factors`` first meets it."""
    seen: dict = {}
    for factor in graph.factors:
        variables = sorted(factor.variables())
        for a_pos, a in enumerate(variables):
            for b in variables[a_pos + 1 :]:
                seen.setdefault((a, b), None)
    return list(seen)


def reference_learn_approximation(
    graph, lam: float, samples, max_iter: int = 40, weight_threshold: float = 1e-8
) -> VariationalApproximation:
    spins = np.where(np.asarray(samples, dtype=bool), 1.0, -1.0)
    means = spins.mean(axis=0)
    centered = spins - means

    n = graph.num_vars
    nz_mask = np.eye(n, dtype=bool)
    candidate_pairs = 0
    pairs = object_neighbor_pairs(graph)
    for i, j in pairs:
        nz_mask[i, j] = nz_mask[j, i] = True
        candidate_pairs += 1
    cov, nz = covariance_blocks(centered, np.array(pairs, dtype=np.int64))
    blocks = solve_logdet_blocks(cov, nz, lam, max_iter=max_iter)
    precision = dense(blocks, n)

    approx = FactorGraph()
    for v in range(n):
        approx.add_variable(name=graph.name_of(v))
    for var, value in graph.evidence.items():
        approx.set_evidence(var, value)

    kept = 0
    couplings = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            w = precision[i, j]
            if nz_mask[i, j] and abs(w) > weight_threshold:
                wid = approx.weights.intern(("J", i, j), initial=w, fixed=True)
                approx.add_ising_factor(wid, i, j)
                couplings[i, j] = couplings[j, i] = w
                kept += 1
    safe_means = np.clip(means, -0.999999, 0.999999)
    for v in range(n):
        if graph.is_evidence(v):
            continue
        field = 0.0
        for j in np.flatnonzero(couplings[v]).tolist():
            field += float(couplings[v, j]) * float(means[j])
        bias = float(np.arctanh(safe_means[v])) - field
        wid = approx.weights.intern(("h", v), initial=bias, fixed=True)
        approx.add_bias_factor(wid, v)

    return VariationalApproximation(
        graph=approx,
        means=means,
        precision=blocks,
        lam=lam,
        candidate_pairs=candidate_pairs,
        kept_pairs=kept,
    )
