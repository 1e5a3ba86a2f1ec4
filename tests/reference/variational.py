"""Algorithm 1's NZ set and coupling emission, pair by pair (§3.2.3).

:func:`reference_learn_approximation` is ``learn_approximation`` as the
package ran it before it read the factor table: ``NZ`` from a walk over
the graph's factor objects (each factor's sorted variable set, every
pair of it once), and the kept couplings from a loop over all ``n²/2``
pairs, interning and adding one Ising factor per kept pair in row-major
order.  The package's array form must equal it bit for bit: the same
mask, precision, weight store and factor list.
"""

from __future__ import annotations

import numpy as np

from repro.core.variational import VariationalApproximation, solve_logdet
from repro.graph.factor_graph import FactorGraph


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
    cov_full = centered.T @ centered / max(len(spins), 1)

    n = graph.num_vars
    nz_mask = np.eye(n, dtype=bool)
    candidate_pairs = 0
    for i, j in object_neighbor_pairs(graph):
        nz_mask[i, j] = nz_mask[j, i] = True
        candidate_pairs += 1
    cov = cov_full * nz_mask
    cov[np.diag_indices(n)] = np.diag(cov_full) + 1.0 / 3.0

    precision = solve_logdet(cov, nz_mask, lam, max_iter=max_iter)

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
    biases = np.arctanh(safe_means) - couplings @ means
    for v in range(n):
        if graph.is_evidence(v):
            continue
        wid = approx.weights.intern(("h", v), initial=float(biases[v]), fixed=True)
        approx.add_bias_factor(wid, v)

    return VariationalApproximation(
        graph=approx,
        means=means,
        precision=precision,
        lam=lam,
        candidate_pairs=candidate_pairs,
        kept_pairs=kept,
    )
