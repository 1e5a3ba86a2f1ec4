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

The learner's two chains share one substrate and one colouring, so
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
        through the caches), and the compiled gradient aggregation is already patched (it lives in the
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
        self._conditioned.apply_patch(patch)
        self._free.apply_patch(patch, graph=self.free_graph)

    # ------------------------------------------------------------------ #

    def epoch(self) -> float:
        """One SGD epoch; returns the gradient norm."""
        maybe_fire("learn.epoch")
        # Both chains in one stacked call: the worlds, states and
        # generator of the conditioned chain's call followed by the free
        # chain's, in half the block evaluations.
        cond_worlds, free_worlds = self._chains.sample_worlds(
            self.samples_per_epoch, thin=self.sweeps_per_epoch
        )
        grad = weight_gradient(
            self._compiled, cond_worlds, free_worlds, l2=self.l2
        )
        values = self.graph.weights.values_array() + self.step_size * grad
        self.graph.weights.set_values_array(values)
        return float(np.linalg.norm(grad))

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

        Scored against the conditioned chain's *live* cache, so per-epoch
        loss recording never rebuilds O(graph) cache state.
        """
        evidence = self.graph.evidence
        if not evidence:
            return 0.0
        if self._scorer is None:
            self._scorer = EvidenceScorer(self._compiled, evidence)
        return self._scorer.nll(self._conditioned.cache, self._conditioned.state)
