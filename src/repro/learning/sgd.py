"""Factor-graph weight learning by SGD with persistent Gibbs chains.

This is DeepDive's standard learner: inference is the inner subroutine of
learning (§1), run as two persistent chains — one conditioned on the
evidence, one free — whose sample statistics estimate the gradient
(contrastive-divergence style).  *Warmstart* (App. B.3) simply means the
weight store is left at its previous values instead of being zeroed.

The learner is **persistent and patchable**: :meth:`SGDLearner.apply_patch`
carries both chains, the compiled gradient aggregation and the evidence
scorer across a :meth:`CompiledFactorGraph.apply_delta` patch, so
re-learning after a development-loop update (the F2+S2 iterations of
Fig. 16) pays O(|Δ|) setup instead of recompiling the graph and
restarting the chains.  Gradient statistics run on the compiled flat
arrays (:meth:`CompiledFactorGraph.weight_statistics`), batched over both
chains' ``(S, n)`` world matrices in one pass.

The serial learner's two chains share one substrate and one colouring, so
an epoch advances them as one :class:`~repro.inference.gibbs.ChainStack`:
one block evaluation per plan block per sweep instead of one per chain —
the worlds, chain states and generator of the conditioned chain's
``sample_worlds`` call followed by the free chain's
(``tests/reference/learning.py`` keeps that two-call epoch as the
oracle).  The chains stay plain :class:`GibbsSampler` objects between
epochs: patches, snapshots and the evidence scorer address them
directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.graph.compiled import CompiledFactorGraph
from repro.graph.factor_graph import FactorGraph
from repro.inference.gibbs import ChainStack, GibbsSampler
from repro.learning.gradient import EvidenceScorer, weight_gradient
from repro.reliability.errors import WorkerCrashError
from repro.reliability.faults import maybe_fire
from repro.util.rng import as_generator


@dataclass
class LearningHistory:
    """Per-epoch trace of a learning run."""

    losses: list = field(default_factory=list)
    times: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)

    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


class SGDLearner:
    """Learn the non-fixed weights of ``graph`` from its evidence.

    Parameters
    ----------
    graph:
        Factor graph whose evidence variables carry the training labels.
        Weights are updated **in place** in ``graph.weights``.
    step_size:
        SGD step size (constant schedule; the paper grid-searches this).
    sweeps_per_epoch:
        Gibbs sweeps advanced on each persistent chain per epoch.
    samples_per_epoch:
        Worlds per chain used for the gradient estimate.
    warmstart:
        When False, all learnable weights are zeroed before training
        (the "SGD-Warmstart" baseline of Fig. 16); when True the current
        values are kept.
    n_workers:
        With ``n_workers >= 2`` the conditioned and free persistent
        chains live in two worker processes (sharing the compiled arrays
        through shared memory) and advance **concurrently** each epoch;
        weight updates are pushed to the workers between epochs.  ``1``
        (default) keeps both chains in-process.  Call :meth:`close` (or
        use the learner as a context manager) when workers were used.
    compiled:
        Optional shared (possibly incrementally patched) compilation —
        re-learning after a delta shares the engine's patched substrate
        instead of recompiling.
    """

    def __init__(
        self,
        graph: FactorGraph,
        step_size: float = 0.5,
        sweeps_per_epoch: int = 2,
        samples_per_epoch: int = 5,
        l2: float = 1e-4,
        warmstart: bool = True,
        seed=None,
        n_workers: int = 1,
        compiled: CompiledFactorGraph | None = None,
    ) -> None:
        self.graph = graph
        self.step_size = step_size
        self.sweeps_per_epoch = sweeps_per_epoch
        self.samples_per_epoch = samples_per_epoch
        self.l2 = l2
        self.rng = as_generator(seed)
        if not warmstart:
            for wid in self.graph.weights.learnable_ids():
                self.graph.weights.set_value(wid, 0.0)

        self.free_graph = graph.free_twin()

        # Both chains share one flat-array compilation (identical factor
        # structure; each sampler derives its own scan plan from its
        # graph's evidence).  Weight updates land via the per-sweep
        # weights-vector refresh, so no recompilation is ever needed.  An
        # externally supplied (possibly incrementally patched) compilation
        # is reused as-is — re-learning after a delta shares the engine's
        # patched substrate instead of recompiling.
        self._compiled = compiled if compiled is not None else CompiledFactorGraph(graph)
        self._scorer = None
        self._pool = None
        self._conditioned = self._free = self._chains = None
        self.degradations = 0
        if n_workers >= 2:
            from repro.inference.parallel import GibbsWorkerPool
            from repro.util.rng import spawn

            self._pool = GibbsWorkerPool(self._compiled, 2)
            cond_rng, free_rng = spawn(self.rng, 2)
            # Worker 0: conditioned chain (export's default evidence);
            # worker 1: free chain (no clamping).
            self._pool.call(0, "chain_init", chain_id=0, rng=cond_rng)
            self._pool.call(
                1, "chain_init", chain_id=0, rng=free_rng, evidence={}
            )
        else:
            self._start_serial_chains()

    def _start_serial_chains(self) -> None:
        """The in-process chain pair, both seeded from the learner's one
        generator, and the stack that advances them together."""
        self._conditioned = GibbsSampler(
            self.graph, seed=self.rng, compiled=self._compiled
        )
        self._free = GibbsSampler(
            self.free_graph, seed=self.rng, compiled=self._compiled
        )
        self._chains = ChainStack((self._conditioned, self._free))

    # ------------------------------------------------------------------ #

    def apply_patch(self, patch) -> None:
        """Warm-start the learner across a compiled-graph patch.

        Both persistent chains keep their assignments (new variables
        start from their bias-only conditional; re-clamped evidence flows
        through the caches), the weight store's growth flows through the
        capacity-slack weight region of the shared export, and the
        compiled gradient aggregation is already patched (it lives in the
        same flat arrays).  The free chain keeps its evidence-free twin
        of the updated structure.

        ``patch`` is the :class:`~repro.graph.compiled.CompiledPatch`
        returned by ``apply_delta`` on this learner's compilation — the
        caller (typically an engine) owns applying the delta.
        """
        compiled = self._compiled
        self.graph = compiled.graph
        self.free_graph = self.graph.free_twin()
        self._scorer = None
        if self._pool is not None:
            in_place = (
                not patch.compacted and self._pool.export.apply_patch(compiled)
            )
            if in_place:
                # Segment grown in place: workers replay the ops and
                # warm-patch their chains; the processes never respawn.
                self._pool.graph_patch(compiled, patch)
            else:
                # Capacity overflow or compaction: fresh segment, same
                # worker processes, chain states carried over.
                if compiled.has_patches:
                    compiled.compact()
                    patch.compacted = True
                self._pool.reexport(compiled, ops=patch.ops)
        else:
            self._conditioned.apply_patch(patch)
            self._free.apply_patch(patch, graph=self.free_graph)

    # ------------------------------------------------------------------ #

    def epoch(self) -> float:
        """One SGD epoch; returns the gradient norm.

        A chain worker crashing mid-epoch degrades the learner to serial
        chains (``degradations`` counter) and reruns the epoch there —
        learning continues instead of losing the fit."""
        maybe_fire("learn.epoch")
        if self._pool is not None:
            try:
                cond_worlds, free_worlds = self._epoch_worlds_parallel()
            except WorkerCrashError:
                self._degrade_to_serial()
        if self._pool is None:
            # Both chains in one stacked call: the worlds, states and
            # generator of the conditioned chain's call followed by the
            # free chain's, in half the block evaluations.
            cond_worlds, free_worlds = self._chains.sample_worlds(
                self.samples_per_epoch, thin=self.sweeps_per_epoch
            )
        grad = weight_gradient(
            self._compiled, cond_worlds, free_worlds, l2=self.l2
        )
        values = self.graph.weights.values_array() + self.step_size * grad
        self.graph.weights.set_values_array(values)
        return float(np.linalg.norm(grad))

    def _degrade_to_serial(self) -> None:
        """Permanent fallback after a chain worker crash: abandon the
        pool and continue with in-process chains over the same (shared)
        compilation.  Chain states restart fresh — the persistent-chain
        warm start is lost, but the fit proceeds."""
        self.degradations += 1
        pool, self._pool = self._pool, None
        try:
            pool.close()
        except OSError:
            pass
        self._start_serial_chains()

    def _epoch_worlds_parallel(self):
        """Advance both persistent chains concurrently; gather worlds."""
        pool = self._pool
        pool.push_weights(self.graph.weights)
        for worker in (0, 1):
            pool.send(
                worker,
                "chain_sample_worlds",
                chain_id=0,
                num_samples=self.samples_per_epoch,
                thin=self.sweeps_per_epoch,
            )
        worlds = []
        for worker in (0, 1):
            packed, count = pool.recv(worker)
            worlds.append(
                np.unpackbits(packed, axis=1, count=self.graph.num_vars).astype(
                    bool
                )
            )
        return worlds[0], worlds[1]

    def close(self) -> None:
        """Shut down chain workers (no-op for the serial learner)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def fit(self, num_epochs: int, record_loss: bool = True) -> LearningHistory:
        """Run ``num_epochs`` epochs; optionally record pseudo-NLL."""
        history = LearningHistory()
        start = time.perf_counter()
        for _ in range(num_epochs):
            grad_norm = self.epoch()
            history.grad_norms.append(grad_norm)
            history.times.append(time.perf_counter() - start)
            if record_loss:
                history.losses.append(self.evidence_pseudo_nll())
        return history

    # ------------------------------------------------------------------ #

    def evidence_pseudo_nll(self) -> float:
        """Negative pseudo-log-likelihood of the evidence variables.

        For each evidence variable v we score
        ``−log P(x_v = label | rest)`` on the *unclamped* graph, with the
        rest of the world taken from the conditioned chain's state.  This
        is the standard tractable loss proxy for MRF learning.

        Scored against the conditioned chain's *live* cache (in-process,
        or inside worker 0 for the pool learner), so per-epoch loss
        recording never rebuilds O(graph) cache state.
        """
        evidence = self.graph.evidence
        if not evidence:
            return 0.0
        if self._pool is not None:
            # Workers read weights from the shared region: publish any
            # between-epoch update before scoring there.
            self._pool.push_weights(self.graph.weights)
            return float(self._pool.call(0, "chain_pseudo_nll", chain_id=0))
        if self._scorer is None:
            self._scorer = EvidenceScorer(self._compiled, evidence)
        return self._scorer.nll(self._conditioned.cache, self._conditioned.state)
