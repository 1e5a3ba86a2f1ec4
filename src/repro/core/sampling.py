"""Sampling materialization: tuple bundles + independent MH (§3.2.2).

The materialization phase draws worlds from the original distribution
with Gibbs sampling and stores them as a bit-matrix (the MCDB-style
"tuple bundle": one bit per variable per sample — 100 samples cost <5% of
the factor graph, per the paper).  The bundle really is bit-packed
(``np.packbits``: 8 variables per byte), so :meth:`storage_bits` reports
true storage.  The inference phase replays the worlds as independent
Metropolis–Hastings proposals against the updated distribution — each
:meth:`SampleMaterialization.infer` unpacks the rows its run may consume
as one matrix and :class:`IndependentMH` extends and scores them as one
batch; samples are *consumed* across successive updates, and exhaustion
triggers the optimizer's fallback rule.

The bundle is drawn by one in-process chain: filling it from chains in
worker processes never reached the 1.3× over this chain that a pool has
to show (README, *Why every chain is in-process*).
"""

from __future__ import annotations

import time

import numpy as np

from repro.graph.compiled import CompiledFactorGraph
from repro.graph.delta import FactorGraphDelta
from repro.graph.factor_graph import FactorGraph
from repro.inference.chromatic import ChromaticGibbsSampler
from repro.inference.gibbs import GibbsSampler
from repro.inference.metropolis import IndependentMH, MHResult
from repro.util.rng import as_generator


def make_sampler(
    graph: FactorGraph,
    seed=None,
    compiled=None,
    incremental: bool = False,
):
    """The fastest applicable sampler for ``graph``: chromatic for
    pairwise graphs, block-planned Gibbs otherwise.  Passing an existing
    :class:`CompiledFactorGraph` skips recompilation (callers that sample
    the same graph repeatedly should reuse one).

    ``incremental=True`` restricts the choice to samplers supporting
    ``apply_patch`` (warm-starting across ``CompiledFactorGraph.apply_delta``)
    — the chromatic sampler's colouring is not patchable, so pairwise
    graphs get the block-planned kernel instead.  Since that kernel scans
    colour classes of the substrate's own (patchable) colouring the two
    are in the same throughput class: 0.82 vs 0.84 ms/sweep on the
    synthetic pairwise graph at n = 10 000 (under the id-run plan it
    replaced, where every variable was a singleton block, 19 vs 0.75).
    """
    if compiled is None:
        compiled = CompiledFactorGraph(graph)
    if not incremental and graph.num_vars and compiled.is_pairwise:
        return ChromaticGibbsSampler(graph, seed=seed, compiled=compiled)
    return GibbsSampler(graph, seed=seed, compiled=compiled)


class SampleMaterialization:
    """Materialized worlds of ``Pr⁰`` plus a consumption cursor."""

    def __init__(self, graph: FactorGraph, seed=None) -> None:
        self.graph = graph
        self.rng = as_generator(seed)
        #: Stored width of the bundle rows.  Starts at the materialized
        #: graph's width and grows via :meth:`extend_bundle` when updates
        #: append variables (the patched-bundle path of incremental
        #: inference) — so it can exceed ``graph.num_vars``.
        self.width = graph.num_vars
        self._packed = np.zeros((0, self._row_bytes), dtype=np.uint8)
        self.base_marginals = np.zeros(graph.num_vars)
        self._cursor = 0
        self._compiled = None
        self.materialization_seconds = 0.0

    # ------------------------------------------------------------------ #

    @property
    def _row_bytes(self) -> int:
        return (self.width + 7) // 8

    @property
    def samples(self) -> np.ndarray:
        """The bundle as a ``(S, width)`` boolean matrix (unpacked view)."""
        return self._unpack(self._packed)

    def _unpack(self, packed: np.ndarray) -> np.ndarray:
        if packed.shape[0] == 0:
            return np.zeros((0, self.width), dtype=bool)
        return np.unpackbits(packed, axis=1, count=self.width).astype(bool)

    def materialize(
        self,
        num_samples: int | None = None,
        time_budget: float | None = None,
        thin: int = 1,
        burn_in: int = 20,
    ) -> int:
        """Draw samples until ``num_samples`` or ``time_budget`` seconds.

        DeepDive's best-effort policy (§3.3): generate as many samples as
        possible within the budget.  Returns the number collected.
        """
        if num_samples is None and time_budget is None:
            raise ValueError("need num_samples or time_budget")
        if self._compiled is None:
            self._compiled = CompiledFactorGraph(self.graph)
        start = time.perf_counter()
        packed, collected = self._draw(num_samples, time_budget, thin, burn_in, start)
        self.materialization_seconds = time.perf_counter() - start
        if collected:
            # The cursor is only reset together with a *replaced* bundle:
            # an empty harvest (e.g. a zero time budget) keeps the old
            # bundle and its consumption point, so already-proposed
            # samples are never silently revived.
            self._packed = packed
            self.base_marginals = self.samples.mean(axis=0)
            self._cursor = 0
        return self.samples_total

    def _draw(self, num_samples, time_budget, thin, burn_in, start):
        sampler = make_sampler(self.graph, seed=self.rng, compiled=self._compiled)
        if num_samples is not None and time_budget is None:
            # Known quota: preallocate the packed matrix, no list growth,
            # and the whole call's sweeps ride one draw stream.
            packed = np.empty((num_samples, self._row_bytes), dtype=np.uint8)
            for s, world in enumerate(sampler.iter_worlds(num_samples, thin, burn_in)):
                packed[s] = np.packbits(world)
            return packed, num_samples
        sampler.run(burn_in)
        rows = []
        while True:
            if num_samples is not None and len(rows) >= num_samples:
                break
            if time_budget is not None and time.perf_counter() - start >= time_budget:
                break
            sampler.run(thin)
            rows.append(np.packbits(sampler.state))
        if not rows:
            return np.zeros((0, self._row_bytes), dtype=np.uint8), 0
        return np.stack(rows), len(rows)

    # ------------------------------------------------------------------ #

    @property
    def samples_total(self) -> int:
        return len(self._packed)

    @property
    def samples_remaining(self) -> int:
        return max(0, len(self._packed) - self._cursor)

    def storage_bits(self) -> int:
        """True bundle storage: bit-packed rows, 8 variables per byte
        (the final byte of each row is padded)."""
        return self._packed.size * 8

    def extend_bundle(self, num_new_vars: int) -> None:
        """Patch the stored bundle with columns for appended variables.

        The paper's sampling approach extends each proposal world to the
        updated variable set on the fly; when an update appends only a
        small fraction of variables it is cheaper to extend the *bundle*
        once — every remaining stored row gains uniform draws for the new
        variables (the same extension distribution ``IndependentMH`` uses
        per proposal, drawn eagerly), and the rows repack in place.
        Rows before the consumption cursor are never proposed again, so
        they are dropped rather than repacked — the patch costs
        O(remaining rows × width), not O(bundle)."""
        if num_new_vars <= 0:
            return
        new_width = self.width + int(num_new_vars)
        if self._cursor:
            self._packed = self._packed[self._cursor :]
            self._cursor = 0
        if self._packed.shape[0]:
            worlds = self._unpack(self._packed)
            tail = self.rng.random((worlds.shape[0], int(num_new_vars))) < 0.5
            self._packed = np.packbits(
                np.concatenate([worlds, tail], axis=1), axis=1
            )
        self.width = new_width

    def infer(
        self,
        delta: FactorGraphDelta,
        num_steps: int | None = None,
        keep_chain: bool = False,
    ) -> MHResult:
        """Independent MH against ``Pr^∆`` consuming stored samples.

        ``delta`` must be relative to the *materialized* graph (compose
        successive updates first).  Consumes up to ``num_steps`` stored
        samples from the cursor; ``result.exhausted`` signals fallback.
        """
        if num_steps is None:
            num_steps = self.samples_remaining
        # Unpack only the rows this run can consume: handing IndependentMH
        # exactly ``num_steps`` rows preserves its exhaustion semantics
        # (``exhausted`` iff fewer rows than requested steps remain).
        available = self._unpack(
            self._packed[self._cursor : self._cursor + num_steps]
        )
        if available.shape[0] == 0:
            # Exhausted bundle: no MH step can execute.  Report the
            # materialized base marginals (0.5 for variables appended
            # since) as an explicitly-exhausted result instead of letting
            # MH run zero steps — the engine ships its own last-known
            # marginals or falls back to the variational strategy.
            total = self.graph.num_vars + delta.num_new_vars
            marginals = np.full(total, 0.5)
            base = self.base_marginals
            marginals[: min(base.shape[0], total)] = base[:total]
            return MHResult(
                marginals=marginals,
                acceptance_rate=0.0,
                proposals_used=0,
                accepted=0,
                exhausted=True,
                chain=None,
            )
        mh = IndependentMH(self.graph, delta, available, seed=self.rng)
        result = mh.run(num_steps, keep_chain=keep_chain)
        self._cursor += result.proposals_used
        return result

    def probe_acceptance(self, delta: FactorGraphDelta, probe: int = 30) -> float:
        """Estimate the acceptance rate without consuming the bundle."""
        if self.samples_remaining == 0:
            return 0.0
        available = self._unpack(
            self._packed[self._cursor : self._cursor + probe]
        )
        mh = IndependentMH(self.graph, delta, available, seed=self.rng)
        return mh.estimate_acceptance_rate(probe)
