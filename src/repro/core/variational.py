"""Variational materialization: log-determinant relaxation (§3.2.3, Alg. 1).

Materialization learns a *sparser* factor graph approximating the
original distribution: estimate the (spin) covariance matrix from Gibbs
samples, mask it to pairs that co-occur in some factor (the ``NZ`` set),
then solve

    max  log det X
    s.t. X_kk = M_kk + 1/3,   |X_kj − M_kj| ≤ λ,   X_kj = 0 off NZ

by projected gradient ascent with a Cholesky-guarded backtracking step.
Entries with ``|M_kj| ≤ λ`` project to zero — λ directly controls the
sparsity of the approximation (Fig. 6).  Every entry off ``NZ`` is zero,
so X is block-diagonal over the connected components of ``NZ`` and the
problem is solved per component (:class:`ComponentBlocks`): cost grows
with component size, not with ``n²`` memory and ``n³`` time.  Each
non-zero off-diagonal becomes a pairwise (Ising) factor with weight
``X̂_ij``; unary bias factors are calibrated mean-field-style so the
approximate graph reproduces the materialized marginals
(:func:`calibrated_biases`).

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

from repro.core.decomposition import component_labels
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


@dataclass(frozen=True)
class ComponentBlocks:
    """A symmetric ``n × n`` matrix that is zero between the connected
    components of ``NZ``, kept as one square block per component.

    Components of equal size ``s`` are stacked: ``members[g]`` is a
    ``(k, s)`` array of variable ids (one component per row, ids
    ascending, rows in order of their smallest id) and ``values[g]`` the
    matching ``(k, s, s)`` blocks.  Groups run by ascending ``s``, and
    every variable sits in exactly one row."""

    members: tuple
    values: tuple


def _component_members(labels: np.ndarray) -> tuple:
    """The variables of each component of ``labels`` (as
    :func:`~repro.core.decomposition.component_labels` returns them),
    stacked by component size: the ``members`` of :class:`ComponentBlocks`."""
    order = np.argsort(labels, kind="stable")
    ordered = labels[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])[: len(order)]
    sizes = np.diff(np.r_[starts, len(order)])
    return tuple(
        order[starts[sizes == size, None] + np.arange(size)]
        for size in np.unique(sizes).tolist()
    )


def covariance_blocks(centered: np.ndarray, pairs: np.ndarray) -> tuple:
    """Algorithm 1 lines 1–3, one block per connected component of ``NZ``.

    ``centered`` is the ``(samples, n)`` centred spin matrix and ``pairs``
    the ``NZ`` set as ``(k, 2)`` variable pairs.  Returns ``(cov, nz)``:
    ``cov`` the sample covariance masked to ``NZ`` with the ``+1/3``
    diagonal boost, as :class:`ComponentBlocks`, and ``nz[g]`` the
    ``(k, s, s)`` mask of ``cov.values[g]``'s allowed entries (the
    diagonal included).  Nothing here has ``n²`` entries: a component's
    block is its own columns' product."""
    num_samples, n = centered.shape
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    members = _component_members(component_labels(n, pairs))
    group = np.empty(n, dtype=np.int64)
    row = np.empty(n, dtype=np.int64)
    pos = np.empty(n, dtype=np.int64)
    for g, ids in enumerate(members):
        group[ids] = g
        row[ids] = np.arange(ids.shape[0])[:, None]
        pos[ids] = np.arange(ids.shape[1])
    a, b = pairs[:, 0], pairs[:, 1]
    values, nz = [], []
    for g, ids in enumerate(members):
        k, size = ids.shape
        # (k, samples, s): each component's columns, one gemm per block.
        columns = np.moveaxis(centered[:, ids], 0, 1)
        cov = columns.transpose(0, 2, 1) @ columns / max(num_samples, 1)
        mask = np.zeros((k, size, size), dtype=bool)
        diagonal = np.arange(size)
        mask[:, diagonal, diagonal] = True
        here = group[a] == g
        at, bt = a[here], b[here]
        mask[row[at], pos[at], pos[bt]] = mask[row[at], pos[bt], pos[at]] = True
        boosted = np.diagonal(cov, axis1=1, axis2=2) + 1.0 / 3.0
        cov *= mask
        cov[:, diagonal, diagonal] = boosted
        values.append(cov)
        nz.append(mask)
    return ComponentBlocks(members, tuple(values)), tuple(nz)


def _feasible(blocks: list) -> bool:
    """Whether every block is positive definite (its Cholesky succeeds)."""
    try:
        for block in blocks:
            np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        return False
    return True


def solve_logdet_blocks(
    cov: ComponentBlocks,
    nz: tuple,
    lam: float,
    max_iter: int = 40,
    tol: float = 1e-5,
    step: float = 0.25,
) -> ComponentBlocks:
    """Algorithm 1's optimization step (line 4), one block per component.

    ``cov`` is the masked covariance with the ``+1/3`` diagonal boost
    already applied and ``nz[g]`` marks the allowed entries of
    ``cov.values[g]`` (as :func:`covariance_blocks` returns them).  X is
    zero between components, so log det X is the sum of its blocks' and
    the problem separates exactly.  The blocks still run one schedule —
    one backtracking step size for all, a trial step feasible only when
    every block's Cholesky succeeds, the diagonal start for all when any
    block's projected start is not positive definite, and a stop when the
    largest entry change over all blocks is below ``tol`` — so the
    solution is the dense projected gradient ascent's, block by block.
    A one-variable block is its fixed diagonal: it never moves and never
    fails, so only larger blocks iterate.
    """
    for block, mask in zip(cov.values, nz):
        k, size = block.shape[:2]
        if block.shape != (k, size, size) or mask.shape != block.shape:
            raise ValueError("cov and nz blocks must be square and same shape")
        if (np.diagonal(block, axis1=1, axis2=2) <= 0).any():
            raise ValueError("boosted diagonal must be positive")
    moving = [g for g, block in enumerate(cov.values) if block.shape[1] > 1]
    starts, off, lower, upper = [], [], [], []
    for g in moving:
        block = cov.values[g]
        eye = np.eye(block.shape[1], dtype=bool)
        off_mask = np.asarray(nz[g], dtype=bool) & ~eye
        starts.append(np.where(eye, block, 0.0))
        off.append(off_mask)
        # Masked-out entries get a degenerate [0, 0] box, i.e. they stay zero.
        lower.append((block - lam) * off_mask)
        upper.append((block + lam) * off_mask)

    def project(blocks: list) -> list:
        projected = []
        for x, off_mask, low, high, start in zip(blocks, off, lower, upper, starts):
            out = np.clip(x, low, high) * off_mask + start
            projected.append((out + out.transpose(0, 2, 1)) / 2.0)
        return projected

    x = project(starts)
    if not _feasible(x):
        # Fall back to the always-feasible diagonal start.
        x = starts
    for _ in range(max_iter if moving else 0):
        gradient = [np.linalg.inv(block) for block in x]
        alpha = step
        candidate = x
        while alpha > 1e-9:
            trial = project([b + alpha * d for b, d in zip(x, gradient)])
            if _feasible(trial):
                candidate = trial
                break
            alpha /= 2.0
        change = max(np.abs(c - b).max() for c, b in zip(candidate, x))
        x = candidate
        if change < tol:
            break
    values = list(cov.values)
    for g, block in zip(moving, x):
        values[g] = block
    return ComponentBlocks(cov.members, tuple(values))


@dataclass
class VariationalApproximation:
    """Output of Algorithm 1 plus bookkeeping.

    ``precision`` is the solution X̂ as per-component blocks.  Under a
    :class:`VariationalMaterialization`, ``graph`` follows the spliced
    approximation (the compiled substrate's lazy view)."""

    graph: FactorGraph
    means: np.ndarray
    precision: ComponentBlocks
    lam: float
    candidate_pairs: int
    kept_pairs: int


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
    centered = np.where(np.asarray(samples, dtype=bool), 1.0, -1.0)
    means = centered.mean(axis=0)
    centered -= means

    n = graph.num_vars
    pairs = graph.neighbor_pairs()
    cov, nz = covariance_blocks(centered, pairs)
    del centered  # the largest array left: free it before the solve
    precision = solve_logdet_blocks(cov, nz, lam, max_iter=max_iter)

    approx = FactorGraph()
    approx.add_named_variables([graph.name_of(v) for v in range(n)])
    for var, value in graph.evidence.items():
        approx.set_evidence(var, value)

    # Kept couplings in row-major order: one Ising factor each, then one
    # bias per free variable — the approximate graph is born lowered.
    ii, jj, ww = _kept_couplings(precision, nz, weight_threshold)
    intern = approx.weights.intern
    ising_wid = [
        intern(("J", i, j), initial=w, fixed=True)
        for i, j, w in zip(ii.tolist(), jj.tolist(), ww.tolist())
    ]
    biases = calibrated_biases(means, ii, jj, ww)
    free = np.flatnonzero(~graph.evidence_mask())
    bias_wid = [
        intern(("h", v), initial=b, fixed=True)
        for v, b in zip(free.tolist(), biases[free].tolist())
    ]
    approx.factors = FactorList(
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


def _kept_couplings(
    precision: ComponentBlocks, nz: tuple, weight_threshold: float
) -> tuple:
    """``(ii, jj, ww)``: every ``NZ`` pair ``i < j`` whose solved entry
    exceeds ``weight_threshold`` in magnitude, with that entry, in
    row-major ``(i, j)`` order over the whole graph."""
    ii, jj, ww = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for ids, block, mask in zip(precision.members, precision.values, nz):
        upper_i, upper_j = np.triu_indices(ids.shape[1], 1)
        w = block[:, upper_i, upper_j]
        kept = mask[:, upper_i, upper_j] & (np.abs(w) > weight_threshold)
        ii.append(ids[:, upper_i][kept])
        jj.append(ids[:, upper_j][kept])
        ww.append(w[kept])
    ii, jj, ww = map(np.concatenate, (ii, jj, ww))
    order = np.lexsort((jj, ii))
    return ii[order], jj[order], ww[order]


def calibrated_biases(
    means: np.ndarray, ii: np.ndarray, jj: np.ndarray, ww: np.ndarray
) -> np.ndarray:
    """Each variable's unary weight ``h_v = artanh(m_v) − Σ_j J_vj m_j``.

    Algorithm 1 learns only the couplings; the paper leaves the unary
    factors unspecified.  A mean-field fixed point of the approximate
    graph satisfies ``m_v = tanh(h_v + Σ_j J_vj m_j)``, so solving it for
    ``h_v`` anchors every variable's mean-field marginal at its sampled
    one, and with all couplings pruned (``λ`` large) ``h_v`` is the exact
    independent-variable weight.  ``(ii, jj, ww)`` are the kept
    couplings, ``i < j``; each row's sum runs over its own component's
    couplings in column order, so a row's bias does not depend on the
    rest of the graph.
    """
    rows = np.concatenate([ii, jj])
    cols = np.concatenate([jj, ii])
    weights = np.concatenate([ww, ww])
    order = np.lexsort((cols, rows))
    field = np.bincount(
        rows[order],
        weights=weights[order] * means[cols[order]],
        minlength=len(means),
    )
    # Clipping keeps a variable that never changed (evidence, or a
    # saturated marginal) at a finite weight.
    safe_means = np.clip(means, -0.999999, 0.999999)
    return np.arctanh(safe_means) - field


class VariationalMaterialization:
    """Owns an evolving approximated graph and answers updated queries.

    The approximated graph is a :class:`ResidentGraph`:
    :meth:`materialize` compiles it once, :meth:`apply_update` patches it
    in place with the (append-only) splice, and :meth:`infer` samples its
    persistent chain, which keeps its assignment across patches.
    """

    def __init__(self, graph: FactorGraph, lam: float = 0.05, seed=None) -> None:
        self.base_graph = graph
        self.lam = lam
        self.rng = as_generator(seed)
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
        self.resident = ResidentGraph(self.approximation.graph, self.rng)
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
        old_values, old_fixed = old_weights.values_array(), old_weights.fixed_mask()
        changed = delta.changed_weight_values

        # New factors: one intern per distinct weight id, in the order
        # the factors first mention them.
        new = delta.new_factors.table
        wids = new.weight_ids().tolist()
        interned = {}
        for wid in dict.fromkeys(wids):
            if wid < num_old:
                key = old_weights.key_for(wid)
                value, fixed = old_values[wid], old_fixed[wid]
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
            new_factors=FactorTable.concat(tables),
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
