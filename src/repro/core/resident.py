"""One owner for an evolving factor graph (§2.5, §3.2).

The paper has one inference primitive — Gibbs over a factor graph
modified by ``(ΔV, ΔF)``, warm because ``Pr^Δ ≈ Pr⁰`` — and Rerun, the
variational strategy's inference phase (§3.2.3) and SGD+Warmstart
(App. B.3) are that primitive over three different graphs.
:class:`ResidentGraph` is the one place that decides who owns such a
graph's compiled substrate, the followers (a Gibbs chain, an SGD learner)
that ride its patches, and their transactional snapshot:
:class:`~repro.core.engine.RerunEngine` and
:class:`~repro.core.engine.IncrementalEngine` each hold one over the
current graph, :class:`~repro.core.variational.VariationalMaterialization`
one over the approximated graph.

A substrate is compiled for its first follower, not before: until
something sweeps the graph, an update costs the O(F) in-place splice of
the lowered graph, not a patch of arrays nobody reads.  So an
``IncrementalEngine`` that never relearns never compiles its current
graph; ``RerunEngine`` (whose chain starts in its first update) and the
variational materialization (compiled at ``materialize()``) compile as
early as ever.
"""

from __future__ import annotations

import pickle
from types import SimpleNamespace

import numpy as np

from repro.core.sampling import make_sampler
from repro.graph.compiled import CompiledFactorGraph, CompiledPatch
from repro.graph.delta import FactorGraphDelta
from repro.graph.factor_graph import FactorGraph
from repro.learning.sgd import SGDLearner
from repro.reliability.snapshots import (
    GraphSnapshot,
    LearnerSnapshot,
    SerialSamplerSnapshot,
)


#: Tombstone/patched density above which a resident substrate recompiles
#: itself (``CompiledFactorGraph.apply_delta``; a full recompile,
#: amortized across updates).
COMPACT_THRESHOLD = 0.25


class ResidentGraph:
    """A factor graph compiled at its first follower and patched in place
    from then on.

    Before the first :meth:`compile`, ``graph`` is the current graph
    lowered: the frozen source until the first :meth:`apply_delta`, then
    a private copy each delta advances in place
    (``FactorGraphDelta.apply_in_place``), while the deltas since the
    source are held pickled.  :meth:`compile` compiles the source and
    replays them as :meth:`apply_delta` would have patched them, so the
    substrate — and every world a follower draws from it — is the one
    patching from the start builds; ``graph`` is its lazy view from
    then on.  Callers read the lowered graph, they do not mutate it.

    ``chain`` (a serial :class:`~repro.inference.gibbs.GibbsSampler`,
    started by the first :meth:`marginals`) and ``learner`` (started by
    :meth:`warm_learner`) keep their assignments across every
    :meth:`apply_delta`.  The substrate recompiles itself past
    :data:`COMPACT_THRESHOLD`.
    """

    def __init__(self, graph: FactorGraph, rng: np.random.Generator) -> None:
        self.graph = graph
        self.rng = rng
        self.compiled: CompiledFactorGraph | None = None
        self.chain = None
        self.learner: SGDLearner | None = None
        #: until the first compile: the frozen source, and the deltas
        #: since it, pickled
        self._source: FactorGraph | None = graph
        self._held: list = []

    def compile(self) -> CompiledFactorGraph:
        """The substrate, compiled on first use from a *copy* of the
        source graph, with the held deltas replayed onto it.

        Compiling hands graph state (weights, evidence, names) to the
        substrate, which mutates it in place from then on.  The source
        stays frozen: it may be a materialized ``Pr⁰``, and a transaction
        that compiled and then failed rolls back by dropping the
        substrate."""
        if self.compiled is None:
            compiled = CompiledFactorGraph(self._source.copy())
            for blob in self._held:
                compiled.apply_delta(
                    pickle.loads(blob), compact_threshold=COMPACT_THRESHOLD
                )
            self.compiled, self.graph = compiled, compiled.graph
            self._source, self._held = None, []
        return self.compiled

    def apply_delta(
        self, delta: FactorGraphDelta, compact: bool = True
    ) -> CompiledPatch | None:
        """Patch the substrate in O(|Δ|); the chain, then the learner,
        ride the patch.  Before the first compile, splice ``delta`` into
        the lowered graph instead and hold it (returns ``None``).

        ``compact=False`` defers a threshold compaction (an owner whose
        chain has not started yet has no sweeps to buy back; the chain's
        start compacts instead).  A held delta replays with compaction
        on: the one owner that defers compiles before its first delta."""
        if self.compiled is None:
            self._hold(delta)
            return None
        patch = self.compiled.apply_delta(
            delta, compact_threshold=COMPACT_THRESHOLD if compact else None
        )
        self.graph = self.compiled.graph
        if self.chain is not None:
            self.chain.apply_patch(patch)
        if self.learner is not None:
            self.learner.apply_patch(patch)
        return patch

    def _hold(self, delta: FactorGraphDelta) -> None:
        """Advance the lowered graph by ``delta`` and keep it for the
        compile; a factor naming no variable or weight is a
        ``ValueError`` now, as a patch would raise it."""
        if self.graph is self._source:
            self.graph = self._source.copy()
        delta.apply_in_place(self.graph)
        delta.new_factors.table.check_ids(self.graph.num_vars, len(self.graph.weights))
        self._held.append(pickle.dumps(delta, pickle.HIGHEST_PROTOCOL))

    def marginals(self, num_samples: int, burn_in: int) -> np.ndarray:
        """Monte-Carlo marginals from the persistent chain, started here
        on first use."""
        if self.chain is None:
            compiled = self.compile()
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
        """Make ``learner`` ready to fit the current graph.

        True when the existing learner is reused — its chains and weight
        store rode every patch (App. B.3's SGD+Warmstart).  False when
        one was built: the first call, after a cold restore, and always
        under ``warm=False`` (Fig. 16's SGD-cold lesion, which also
        zeroes the weights)."""
        if warm and self.learner is not None:
            return True
        compiled = self.compile()  # the substrate's view becomes self.graph
        self.learner = SGDLearner(
            self.graph, warmstart=warm, seed=self.rng, compiled=compiled
        )
        return False

    # ------------------------------------------------------------------ #
    # Transactions

    def snapshot(self) -> SimpleNamespace:
        """Bounded pre-transaction capture — O(touched), see
        ``CompiledFactorGraph.snapshot_state`` and, before the first
        compile, :class:`~repro.reliability.snapshots.GraphSnapshot` of
        the lowered graph beside the number of held deltas."""
        compiled, graph = self.compiled, self.graph
        return SimpleNamespace(
            graph=graph,
            compiled=compiled,
            substrate=None if compiled is None else compiled.snapshot_state(),
            lowered=None
            if compiled is not None or graph is self._source
            else GraphSnapshot(graph),
            source=self._source,
            held=self._held,
            num_held=len(self._held),
            chain=self.chain,
            chain_state=None if self.chain is None else SerialSamplerSnapshot(self.chain),
            learner=self.learner,
            learner_state=LearnerSnapshot(self.learner),
        )

    def restore(self, snap: SimpleNamespace, verify: bool = True) -> None:
        """Roll back to ``snap`` (single use).

        The substrate, the chain and the learner restore bit-exactly, so a
        retried transaction matches a never-failed one (``verify``
        re-checks their caches from scratch)."""
        if snap.substrate is not None:
            snap.compiled.restore_state(snap.substrate)
        if snap.lowered is not None:
            snap.lowered.restore()
        del snap.held[snap.num_held :]
        self.compiled, self._source, self._held = snap.compiled, snap.source, snap.held
        # The lazy view is re-derived from the rolled-back substrate: the
        # captured reference may be a facade swapped in, or a graph
        # materialized, during the failed transaction.
        self.graph = snap.graph if snap.compiled is None else snap.compiled.graph
        self.chain = (
            None if snap.chain_state is None else snap.chain_state.restore(verify=verify)
        )
        self.learner = snap.learner_state.restore(verify=verify)

    def close(self) -> None:
        """Drop the followers."""
        self.chain = None
        self.learner = None
