"""One owner for an evolving factor graph (§2.5, §3.2).

The paper has one inference primitive — Gibbs over a factor graph
modified by ``(ΔV, ΔF)``, warm because ``Pr^Δ ≈ Pr⁰`` — and Rerun, the
variational strategy's inference phase (§3.2.3) and SGD+Warmstart
(App. B.3) are that primitive over three different graphs.
:class:`ResidentGraph` is the one place that owns such a graph's
compiled substrate, the followers (a Gibbs chain, an SGD learner) that
ride its patches, and their transactional snapshot:
:class:`~repro.core.engine.RerunEngine` and
:class:`~repro.core.engine.IncrementalEngine` each hold one over the
current graph, :class:`~repro.core.variational.VariationalMaterialization`
one over the approximated graph.

A resident compiles its graph once, when it is built, and every delta
patches that substrate in O(|Δ|), the chain and then the learner riding
the patch — so an ``IncrementalEngine``'s learner warm-starts each
relearn from chains that kept pace with every update since.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.core.sampling import make_sampler
from repro.graph.compiled import CompiledFactorGraph, CompiledPatch
from repro.graph.delta import FactorGraphDelta
from repro.graph.factor_graph import FactorGraph
from repro.learning.sgd import SGDLearner
from repro.reliability.snapshots import LearnerSnapshot, SerialSamplerSnapshot


#: Tombstone/patched density above which a resident substrate recompiles
#: itself (``CompiledFactorGraph.apply_delta``; a full recompile,
#: amortized across updates).
COMPACT_THRESHOLD = 0.25


class ResidentGraph:
    """A factor graph compiled once and patched in place by every delta.

    The substrate is compiled from a *copy* of the constructor's graph:
    compiling hands graph state (weights, evidence, names) to the
    substrate, which mutates it in place from then on, and the source
    stays frozen (it may be a materialized ``Pr⁰``).  ``graph`` is the
    substrate's view; callers read it, they do not mutate it.

    ``chain`` (a serial :class:`~repro.inference.gibbs.GibbsSampler`,
    started by the first :meth:`marginals`) and ``learner`` (started by
    :meth:`warm_learner`) keep their assignments across every patch.  The
    substrate recompiles itself past :data:`COMPACT_THRESHOLD`.
    """

    def __init__(self, graph: FactorGraph, rng: np.random.Generator) -> None:
        self.compiled = CompiledFactorGraph(graph.copy())
        self.rng = rng
        self.chain = None
        self.learner: SGDLearner | None = None

    @property
    def graph(self) -> FactorGraph:
        """The current graph: the substrate's view."""
        return self.compiled.graph

    def apply_delta(
        self, delta: FactorGraphDelta, compact: bool = True
    ) -> CompiledPatch:
        """Patch the substrate in O(|Δ|); the chain, then the learner,
        ride the patch.  A removed factor outside the graph, or a new one
        naming no variable or weight, is a ``ValueError`` before anything
        moves.

        ``compact=False`` defers a threshold compaction (an owner whose
        chain has not started yet has no sweeps to buy back; the chain's
        start compacts instead)."""
        patch = self.compiled.apply_delta(
            delta, compact_threshold=COMPACT_THRESHOLD if compact else None
        )
        if self.chain is not None:
            self.chain.apply_patch(patch)
        if self.learner is not None:
            self.learner.apply_patch(patch)
        return patch

    def marginals(self, num_samples: int, burn_in: int) -> np.ndarray:
        """Monte-Carlo marginals from the persistent chain, started here
        on first use."""
        if self.chain is None:
            compiled = self.compiled
            # Only a deferred compaction (``apply_delta(compact=False)``)
            # leaves the substrate over the threshold, and no such owner
            # has a learner to tell.
            if compiled.patch_fraction() > COMPACT_THRESHOLD:
                compiled.compact()
            self.chain = make_sampler(
                self.graph, seed=self.rng, compiled=compiled, incremental=True
            )
        return self.chain.estimate_marginals(num_samples, burn_in=burn_in)

    def warm_learner(self, warm: bool) -> bool:
        """Make ``learner`` ready to fit the current graph: keep or build
        it.

        True when the existing learner is reused — its chains and weight
        store rode every patch (App. B.3's SGD+Warmstart).  False when
        one was built: the first call, after a cold restore, and always
        under ``warm=False`` (Fig. 16's SGD-cold lesion, which also
        zeroes the weights)."""
        if warm and self.learner is not None:
            return True
        self.learner = SGDLearner(
            self.graph, warmstart=warm, seed=self.rng, compiled=self.compiled
        )
        return False

    # ------------------------------------------------------------------ #
    # Transactions

    def snapshot(self) -> SimpleNamespace:
        """Bounded pre-transaction capture: the substrate (O(touched),
        ``CompiledFactorGraph.snapshot_state``) and its followers."""
        chain = self.chain
        return SimpleNamespace(
            substrate=self.compiled.snapshot_state(),
            chain_state=None if chain is None else SerialSamplerSnapshot(chain),
            learner_state=LearnerSnapshot(self.learner),
        )

    def restore(self, snap: SimpleNamespace, verify: bool = True) -> None:
        """Roll back to ``snap`` (single use).

        The substrate, the chain and the learner restore bit-exactly, so a
        retried transaction matches a never-failed one (``verify``
        re-checks their caches from scratch)."""
        self.compiled.restore_state(snap.substrate)
        chain = snap.chain_state
        self.chain = None if chain is None else chain.restore(verify=verify)
        self.learner = snap.learner_state.restore(verify=verify)

    def close(self) -> None:
        """Drop the followers."""
        self.chain = None
        self.learner = None
