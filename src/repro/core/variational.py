"""Variational materialization: log-determinant relaxation (§3.2.3, Alg. 1).

Materialization learns a *sparser* factor graph approximating the
original distribution: estimate the (spin) covariance matrix from Gibbs
samples, mask it to pairs that co-occur in some factor (the ``NZ`` set),
then solve

    max  log det X
    s.t. X_kk = M_kk + 1/3,   |X_kj − M_kj| ≤ λ,   X_kj = 0 off NZ

by projected gradient ascent with a Cholesky-guarded backtracking step.
Entries with ``|M_kj| ≤ λ`` project to zero — λ directly controls the
sparsity of the approximation (Fig. 6).  Each non-zero off-diagonal
becomes a pairwise (Ising) factor with weight ``X̂_ij``; unary bias
factors are calibrated mean-field-style so the approximate graph
reproduces the materialized marginals (the paper leaves the unary
treatment unspecified — see DESIGN.md).

The inference phase splices updates into the approximated graph in
*energy space*: new factors are added as-is, removed factors are added
back with negated weights, reweighted factors as shifted copies — so the
spliced graph's energy tracks ``W_approx + δW`` exactly.  Every splice is
an append, so the approximated graph lives in one
:class:`~repro.core.resident.ResidentGraph`: a compiled substrate patched
in place and one persistent Gibbs chain that warm-starts across the
patches (``Pr^Δ ≈ Pr⁰``) — per-update work scales with ``|Δ|``, not the
graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.resident import ResidentGraph
from repro.core.sampling import make_sampler
from repro.graph.delta import (
    KIND_BIAS,
    KIND_ISING,
    FactorGraphDelta,
    FactorList,
    FactorTable,
)
from repro.graph.factor_graph import FactorGraph
from repro.util.rng import as_generator


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
    """Algorithm 1's optimization step (line 4).

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


@dataclass
class VariationalApproximation:
    """Output of Algorithm 1 plus bookkeeping.

    Under a :class:`VariationalMaterialization`, ``graph`` follows the
    spliced approximation (the compiled substrate's lazy view)."""

    graph: FactorGraph
    means: np.ndarray
    precision: np.ndarray
    lam: float
    candidate_pairs: int
    kept_pairs: int

    @property
    def sparsity(self) -> float:
        """Kept fraction of candidate pairwise factors."""
        if self.candidate_pairs == 0:
            return 0.0
        return self.kept_pairs / self.candidate_pairs


def learn_approximation(
    graph: FactorGraph,
    lam: float,
    num_samples: int = 300,
    samples: np.ndarray | None = None,
    seed=None,
    max_iter: int = 40,
    weight_threshold: float = 1e-8,
) -> VariationalApproximation:
    """Algorithm 1: original graph → sparse pairwise approximation."""
    rng = as_generator(seed)
    if samples is None:
        sampler = make_sampler(graph, seed=rng)
        samples = sampler.sample_worlds(num_samples, burn_in=20)
    spins = np.where(np.asarray(samples, dtype=bool), 1.0, -1.0)
    means = spins.mean(axis=0)
    centered = spins - means
    cov_full = centered.T @ centered / max(len(spins), 1)

    n = graph.num_vars
    nz_mask = np.eye(n, dtype=bool)
    pairs = graph.neighbor_pairs()
    nz_mask[pairs[:, 0], pairs[:, 1]] = nz_mask[pairs[:, 1], pairs[:, 0]] = True
    cov = cov_full * nz_mask
    cov[np.diag_indices(n)] = np.diag(cov_full) + 1.0 / 3.0

    precision = solve_logdet(cov, nz_mask, lam, max_iter=max_iter)

    approx = FactorGraph()
    approx.add_named_variables([graph.name_of(v) for v in range(n)])
    for var, value in graph.evidence.items():
        approx.set_evidence(var, value)

    # Kept couplings in row-major order: one Ising factor each, then one
    # bias per free variable — the approximate graph is born lowered.
    ii, jj = np.nonzero(np.triu(nz_mask & (np.abs(precision) > weight_threshold), 1))
    couplings = np.zeros((n, n))
    couplings[ii, jj] = couplings[jj, ii] = precision[ii, jj]
    intern = approx.weights.intern
    ising_wid = [
        intern(("J", i, j), initial=w, fixed=True)
        for i, j, w in zip(ii.tolist(), jj.tolist(), precision[ii, jj].tolist())
    ]
    # Mean-field bias calibration: anchor each variable's marginal.
    safe_means = np.clip(means, -0.999999, 0.999999)
    biases = np.arctanh(safe_means) - couplings @ means
    free = np.flatnonzero(~graph.evidence_mask())
    bias_wid = [
        intern(("h", v), initial=b, fixed=True)
        for v, b in zip(free.tolist(), biases[free].tolist())
    ]
    approx.factors = FactorList.from_table(
        FactorTable(
            kind=np.repeat([KIND_ISING, KIND_BIAS], [len(ising_wid), len(bias_wid)]),
            ising_i=ii,
            ising_j=jj,
            ising_wid=ising_wid,
            bias_var=free,
            bias_wid=bias_wid,
        )
    )

    return VariationalApproximation(
        graph=approx,
        means=means,
        precision=precision,
        lam=lam,
        candidate_pairs=len(pairs),
        kept_pairs=len(ising_wid),
    )


class VariationalMaterialization:
    """Owns an evolving approximated graph and answers updated queries.

    The approximated graph is a :class:`ResidentGraph`:
    :meth:`materialize` compiles it once, :meth:`apply_update` patches it
    in place with the (append-only) splice, and :meth:`infer` samples its
    persistent chain, which keeps its assignment across patches.
    ``compact_threshold`` is the patched density above which the
    substrate recompiles itself (see ``CompiledFactorGraph.apply_delta``).
    """

    def __init__(
        self,
        graph: FactorGraph,
        lam: float = 0.05,
        seed=None,
        compact_threshold: float = 0.25,
    ) -> None:
        self.base_graph = graph
        self.lam = lam
        self.rng = as_generator(seed)
        self.compact_threshold = compact_threshold
        self.approximation: VariationalApproximation | None = None
        self.materialization_seconds = 0.0
        self.resident: ResidentGraph | None = None
        self._splice_counter = 0

    # ------------------------------------------------------------------ #

    def materialize(
        self, num_samples: int = 300, samples: np.ndarray | None = None
    ) -> VariationalApproximation:
        start = time.perf_counter()
        self.approximation = learn_approximation(
            self.base_graph,
            self.lam,
            num_samples=num_samples,
            samples=samples,
            seed=self.rng,
        )
        self.resident = ResidentGraph(
            self.approximation.graph,
            self.rng,
            compact_threshold=self.compact_threshold,
        )
        self.resident.compile()
        self.approximation.graph = self.resident.graph
        self.materialization_seconds = time.perf_counter() - start
        return self.approximation

    @property
    def current(self) -> FactorGraph | None:
        """The spliced approximated graph (the substrate's lazy view)."""
        return self.resident.graph if self.resident is not None else None

    @property
    def num_factors(self) -> int:
        return self.resident.compiled.num_factors if self.resident is not None else 0

    # ------------------------------------------------------------------ #

    def apply_update(self, base_for_delta: FactorGraph, delta: FactorGraphDelta) -> None:
        """Splice ``delta`` (relative to ``base_for_delta``) into the
        approximated graph, preserving the update's energy difference."""
        if self.resident is None:
            raise RuntimeError("materialize() before apply_update()")
        # Compaction buys back the fast CSR kernels for sweeps: while no
        # chain is running it waits for the first ``infer``.
        self.resident.apply_delta(
            self._lower(base_for_delta, delta),
            compact=self.resident.chain is not None,
        )
        self.approximation.graph = self.resident.graph

    def _lower(self, base: FactorGraph, delta: FactorGraphDelta) -> FactorGraphDelta:
        """``delta`` as an append-only delta over the approximated graph.

        Variables and evidence carry over unchanged.  Factors are
        re-pointed at the approximation's own weight store, which tracks
        the engine's weights by *key*: a new factor interns its key with
        the post-update value, a removed factor comes back under a fresh
        fixed weight of the negated pre-update value, and a surviving
        factor whose weight changed gains a copy weighted by the shift.
        All three are remaps of a factor table's weight columns.
        """
        weights = self.resident.compiled.weights
        old_weights = base.weights
        num_old = len(old_weights)
        changed = delta.changed_weight_values

        # New factors: one intern per distinct weight id, in the order
        # the factors first mention them.
        new = delta.new_factors.table
        wids = new.weight_ids().tolist()
        interned = {}
        for wid in dict.fromkeys(wids):
            if wid < num_old:
                key = old_weights.key_for(wid)
                value = old_weights.value(wid)
                fixed = old_weights.is_fixed(wid)
            else:
                key, value, fixed = delta.new_weight_entries[wid - num_old]
            interned[wid] = weights.intern(
                key, initial=changed.get(wid, value), fixed=fixed
            )
        tables = [
            new.with_weights(
                np.fromiter(map(interned.__getitem__, wids), np.int64, len(wids))
            )
        ]

        def spliced(table, kind, values):
            """``table``, each factor under a fresh fixed weight."""
            fresh = np.empty(len(table), dtype=np.int64)
            for row, value in enumerate(values.tolist()):
                self._splice_counter += 1
                fresh[row] = weights.intern(
                    (kind, self._splice_counter), initial=value, fixed=True
                )
            return table.with_weights(fresh)

        removed, reweighted, shift = delta.base_terms(base)
        if len(removed):
            gone = -old_weights.values_array()[removed.weight_ids()]
            tables.append(spliced(removed, "spliced-removal", gone))
        if len(reweighted):
            moved = shift[reweighted.weight_ids()]
            tables.append(spliced(reweighted, "spliced-reweight", moved))
        return FactorGraphDelta(
            num_new_vars=delta.num_new_vars,
            new_var_names=delta.new_var_names,
            new_var_evidence=delta.new_var_evidence,
            new_factors=FactorList.from_table(FactorTable.concat(tables)),
            evidence_updates=delta.evidence_updates,
        )

    def infer(self, num_samples: int = 200, burn_in: int = 20) -> np.ndarray:
        """Marginals of the (updated) approximated graph, from the warm
        chain (evidence stays clamped in its state)."""
        if self.resident is None:
            raise RuntimeError("materialize() before infer()")
        return self.resident.marginals(num_samples, burn_in)

    # ------------------------------------------------------------------ #

    def snapshot(self) -> tuple:
        """Pre-update capture for :meth:`restore`: ``apply_update`` patches
        the substrate in place and warm-starts the chain across the patch,
        so both roll back exactly (the chain is serial)."""
        resident = self.resident.snapshot() if self.resident is not None else None
        return self._splice_counter, resident

    def restore(self, snap: tuple, verify: bool = False) -> None:
        self._splice_counter, resident = snap
        if resident is not None:
            self.resident.restore(resident, verify=verify)
            self.approximation.graph = self.resident.graph
