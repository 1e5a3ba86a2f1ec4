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
    """A factor graph compiled once and patched in place from then on.

    ``graph`` is the frozen source until the first :meth:`compile` and the
    substrate's lazy view afterwards.  ``chain`` (a serial
    :class:`~repro.inference.gibbs.GibbsSampler`, started by the first
    :meth:`marginals`) and
    ``learner`` (started by :meth:`warm_learner`) keep their assignments
    across every :meth:`apply_delta`.  The substrate recompiles itself
    past :data:`COMPACT_THRESHOLD`.
    """

    def __init__(self, graph: FactorGraph, rng: np.random.Generator) -> None:
        self.graph = graph
        self.rng = rng
        self.compiled: CompiledFactorGraph | None = None
        self.chain = None
        self.learner: SGDLearner | None = None

    def compile(self) -> CompiledFactorGraph:
        """The substrate, compiled on first use from a *copy* of the
        source graph.

        Compiling hands graph state (weights, evidence, names) to the
        substrate, which mutates it in place from then on.  The source
        stays frozen: it may be a materialized ``Pr⁰``, and a transaction
        that compiled and then failed rolls back by dropping the
        substrate."""
        if self.compiled is None:
            self.compiled = CompiledFactorGraph(self.graph.copy())
            self.graph = self.compiled.graph
        return self.compiled

    def apply_delta(self, delta: FactorGraphDelta, compact: bool = True) -> CompiledPatch:
        """Patch the substrate in O(|Δ|); the chain, then the learner,
        ride the patch.

        ``compact=False`` defers a threshold compaction (an owner whose
        chain has not started yet has no sweeps to buy back; the chain's
        start compacts instead)."""
        compiled = self.compile()
        patch = compiled.apply_delta(
            delta, compact_threshold=COMPACT_THRESHOLD if compact else None
        )
        self.graph = compiled.graph
        if self.chain is not None:
            self.chain.apply_patch(patch)
        if self.learner is not None:
            self.learner.apply_patch(patch)
        return patch

    def marginals(self, num_samples: int, burn_in: int) -> np.ndarray:
        """Monte-Carlo marginals from the persistent chain, started here
        on first use."""
        if self.chain is None:
            compiled = self.compile()
            patched = compiled.has_patches
            if compiled.patch_fraction() > COMPACT_THRESHOLD:
                compiled.compact()
            self.chain = make_sampler(
                self.graph, seed=self.rng, compiled=compiled, incremental=True
            )
            if patched and not compiled.has_patches and self.learner is not None:
                # The substrate compacted outside a patch, so no patch
                # told the learner: it re-derives plans and caches around
                # its warm state, through an empty compacted patch.
                self.learner.apply_patch(
                    CompiledPatch(ops=None, old_num_vars=compiled.num_vars, compacted=True)
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
        ``CompiledFactorGraph.snapshot_state``."""
        return SimpleNamespace(
            graph=self.graph,
            compiled=self.compiled,
            substrate=None if self.compiled is None else self.compiled.snapshot_state(),
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
        self.compiled = snap.compiled
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
