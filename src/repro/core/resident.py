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

A substrate is patched while a chain follows it, and otherwise holds.
A chain sweeps between updates, so each update patches the substrate it
sweeps.  A learner reads the substrate only when it fits, and fitting
brings the substrate current first; until then, and until the first
follower compiles anything, an update costs the O(F) in-place splice of
the lowered current graph, not a patch of arrays and chains nobody reads,
and its delta is held for the next compile to replay.  So an
``IncrementalEngine``, whose current graph only a learner follows,
compiles it at its first relearn and patches it at relearns only, one
held delta after the other; ``RerunEngine`` (whose chain starts in its
first update) and the variational materialization (compiled at
``materialize()`` for the chain its first ``infer`` starts) patch every
update.
"""

from __future__ import annotations

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
    """A factor graph compiled at its first follower, patched in place
    while a chain follows it, and otherwise holding its deltas.

    It holds before the first :meth:`compile`, and while a learner but no
    chain follows the substrate (one compiled with no follower at all is
    compiled for the chain about to start, and patches).  While it
    holds, ``graph`` is the current graph lowered: the frozen source (or
    the substrate's view) until the first held delta, then a private copy
    each delta advances in place (``FactorGraphDelta.apply_in_place``).
    The deltas are held as they arrived (a delta is a value: nothing
    writes one after it is applied), each beside the initial values the
    learner's chains drew for its new variables when it arrived — they
    share the owner's generator, so they draw in stream order, not at
    replay.  :meth:`compile` compiles the source if there is no substrate
    yet and replays the held deltas as :meth:`apply_delta` would have
    patched them, the learner riding each patch on its early draws, so
    the substrate — and every world a follower draws from it — is the one
    eager patching builds; ``graph`` is its lazy view until the next
    hold.  Callers read the lowered graph, they do not mutate it.

    ``chain`` (a serial :class:`~repro.inference.gibbs.GibbsSampler`,
    started by the first :meth:`marginals`) and ``learner`` (started by
    :meth:`warm_learner`) keep their assignments across every patch.  The
    substrate recompiles itself past :data:`COMPACT_THRESHOLD`.
    """

    def __init__(self, graph: FactorGraph, rng: np.random.Generator) -> None:
        self.graph = graph
        self.rng = rng
        self.compiled: CompiledFactorGraph | None = None
        self.chain = None
        self.learner: SGDLearner | None = None
        #: until the first compile, the frozen source
        self._source: FactorGraph | None = graph
        #: the deltas since the source or the substrate, each with the
        #: learner's draws for its new variables (or ``None``)
        self._held: list = []

    @property
    def held_updates(self) -> int:
        """How many held deltas the next :meth:`compile` replays."""
        return len(self._held)

    def _holds(self) -> bool:
        """Whether :meth:`apply_delta` holds now (see the class)."""
        if self.chain is not None:
            return False
        return self.compiled is None or self.learner is not None

    def compile(self) -> CompiledFactorGraph:
        """The substrate, current: compiled on first use from a *copy* of
        the source graph, with the held deltas replayed onto it.

        Compiling hands graph state (weights, evidence, names) to the
        substrate, which mutates it in place from then on.  The source
        stays frozen: it may be a materialized ``Pr⁰``, and a transaction
        that compiled and then failed rolls back by dropping the
        substrate.  A held delta replays with compaction on: the one
        owner that defers compaction (the variational materialization)
        compiles before its first delta and patches every one."""
        if self.compiled is None:
            self.compiled = CompiledFactorGraph(self._source.copy())
            self._source = None
        held, self._held = self._held, []
        for delta, drawn in held:
            self._patch(delta, COMPACT_THRESHOLD, drawn)
        self.graph = self.compiled.graph
        return self.compiled

    def apply_delta(
        self, delta: FactorGraphDelta, compact: bool = True
    ) -> CompiledPatch | None:
        """Patch the substrate in O(|Δ|); the chain, then the learner,
        ride the patch.  While the resident holds (see the class), splice
        ``delta`` into the lowered graph instead and hold it (returns
        ``None``).

        ``compact=False`` defers a threshold compaction (an owner whose
        chain has not started yet has no sweeps to buy back; the chain's
        start compacts instead)."""
        if self._holds():
            self._hold(delta)
            return None
        return self._patch(delta, COMPACT_THRESHOLD if compact else None)

    def _patch(self, delta, compact_threshold, drawn=None) -> CompiledPatch:
        patch = self.compiled.apply_delta(delta, compact_threshold=compact_threshold)
        self.graph = self.compiled.graph
        if self.chain is not None:
            self.chain.apply_patch(patch)
        if self.learner is not None:
            self.learner.apply_patch(patch, drawn)
        return patch

    def _hold(self, delta: FactorGraphDelta) -> None:
        """Advance the lowered graph by ``delta`` and keep it for the next
        compile, with the learner's draws for its new variables.  A
        removed factor outside the graph, or a new one naming no variable
        or weight, is a ``ValueError`` before anything moves, as a patch
        would raise it."""
        graph = self.graph
        delta.removed_ids(graph.num_factors)
        delta.check_ids(graph.num_vars, graph.weights)
        if not self._held:
            # The source, or the substrate's view: advance a private copy.
            graph = graph.copy() if self.compiled is None else self.compiled.lowered()
            self.graph = graph
        old_num_vars = graph.num_vars
        delta.apply_in_place(graph)
        drawn = None
        if self.learner is not None and delta.num_new_vars:
            table = delta.new_factors.table
            drawn = self.learner.draw_new_values(
                delta.num_new_vars,
                old_num_vars,
                np.column_stack((table.bias_var, table.bias_wid)),
                graph.weights,
            )
        self._held.append((delta, drawn))

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
        """Make ``learner`` ready to fit the current graph: replay the
        held deltas (the learner rides them), then keep or build it.

        True when the existing learner is reused — its chains and weight
        store rode every patch (App. B.3's SGD+Warmstart).  False when
        one was built: the first call, after a cold restore, and always
        under ``warm=False`` (Fig. 16's SGD-cold lesion, which also
        zeroes the weights)."""
        compiled = self.compile()  # the substrate's view becomes self.graph
        if warm and self.learner is not None:
            return True
        self.learner = SGDLearner(
            self.graph, warmstart=warm, seed=self.rng, compiled=compiled
        )
        return False

    # ------------------------------------------------------------------ #
    # Transactions

    def snapshot(self, replays: bool = True) -> SimpleNamespace:
        """Bounded pre-transaction capture: the number of held deltas and,
        when a held delta advanced it, the lowered graph
        (:class:`~repro.reliability.snapshots.GraphSnapshot`); the
        substrate (O(touched), ``CompiledFactorGraph.snapshot_state``) and
        its followers too, unless ``replays=False`` while the resident
        holds — a transaction that only applies deltas then touches
        neither."""
        compiled = self.compiled
        followers = replays or not self._holds()
        return SimpleNamespace(
            graph=self.graph,
            lowered=GraphSnapshot(self.graph) if self._held else None,
            source=self._source,
            held=self._held,
            num_held=len(self._held),
            compiled=compiled,
            followers=followers,
            substrate=None
            if compiled is None or not followers
            else compiled.snapshot_state(),
            chain_state=None
            if self.chain is None or not followers
            else SerialSamplerSnapshot(self.chain),
            learner_state=LearnerSnapshot(self.learner) if followers else None,
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
        if snap.followers:
            chain = snap.chain_state
            self.chain = None if chain is None else chain.restore(verify=verify)
            self.learner = snap.learner_state.restore(verify=verify)
        # With nothing held, the lazy view is re-derived from the
        # rolled-back substrate: the captured reference may be a facade
        # swapped in, or a graph materialized, during the failed
        # transaction.
        if self.compiled is None or self._held:
            self.graph = snap.graph
        else:
            self.graph = self.compiled.graph

    def close(self) -> None:
        """Drop the followers."""
        self.chain = None
        self.learner = None
