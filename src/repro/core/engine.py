"""The Incremental and Rerun engines compared throughout §4.

:class:`IncrementalEngine` implements the paper's full pipeline:

* **materialize once** — draw the sample bundle (best-effort within a
  budget, §3.3) and learn the variational approximation *from the same
  samples* (drawing them is the dominant materialization cost, so both
  strategies share it);
* **per development iteration** — receive a
  :class:`~repro.graph.delta.FactorGraphDelta` from incremental
  grounding, let the rule-based optimizer pick a strategy, run it, and
  fall back from sampling to variational when the bundle runs dry.

:class:`RerunEngine` is the baseline: apply the delta and run Gibbs on
the whole updated graph from scratch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.optimizer import (
    SAMPLING,
    VARIATIONAL,
    OptimizerDecision,
    choose_strategy,
)
from repro.core.sampling import SampleMaterialization, make_sampler
from repro.core.variational import VariationalMaterialization
from repro.graph.delta import FactorGraphDelta, compose_deltas
from repro.graph.factor_graph import FactorGraph
from repro.reliability.faults import maybe_fire
from repro.reliability.snapshots import (
    IncrementalUpdateSnapshot,
    RelearnSnapshot,
    RerunUpdateSnapshot,
)
from repro.reliability.wal import DeltaLog
from repro.util.rng import as_generator


@dataclass
class EngineConfig:
    """Tuning knobs; the defaults are scaled-down but proportionate to the
    paper's settings (1000 inference / 2000 materialization samples)."""

    materialization_samples: int | None = 500
    materialization_time_budget: float | None = None
    inference_steps: int = 300
    inference_samples: int = 200
    variational_lam: float = 0.1
    variational_inference_samples: int = 150
    burn_in: int = 20
    seed: int | None = None
    #: Sampling parallelism: >1 fills the materialization bundle with
    #: parallel chains and runs Rerun inference on a sharded sampler
    #: (see ``repro.inference.parallel``); 1 is the serial fallback.
    n_workers: int = 1
    #: Incremental compilation (Rerun): keep one CompiledFactorGraph and
    #: patch it with each delta (``apply_delta``) instead of recompiling —
    #: with ``n_workers > 1`` the worker pool and its shared-memory export
    #: survive updates instead of respawning.  False restores the
    #: recompile-per-update baseline (the O(graph) setup cost the paper's
    #: Rerun system pays; kept for the update-latency benchmark).
    reuse_compilation: bool = True
    #: Warm-start (Rerun): persistent chains keep their assignments
    #: across updates; new variables initialize from their bias and
    #: evidence is re-clamped through the caches.  False draws a fresh
    #: chain per update.
    warm_start: bool = True
    #: Burn-in for warm-started updates; ``None`` falls back to
    #: ``burn_in``.  Warm chains start near the updated distribution's
    #: typical set (Pr^Δ ≈ Pr⁰), so a shorter burn-in usually suffices.
    incremental_burn_in: int | None = None
    #: Patch (rather than extend-per-proposal) the materialized tuple
    #: bundle when an update appends at most this fraction of the
    #: graph's variables (§3.2.2's sampling approach, applied to the
    #: bundle itself).
    bundle_patch_fraction: float = 0.25
    #: Tombstone/patched density above which the compiled factor graph
    #: recompacts (full recompile, amortized across updates).
    compact_threshold: float = 0.25
    #: Persistent incremental learning: keep one :class:`SGDLearner`
    #: whose chains, compiled gradient substrate and weight store are
    #: patched across ``apply_update`` calls, so ``relearn()`` warm-starts
    #: (App. B.3's SGD+Warmstart).  False is the lesion reproducing the
    #: SGD-cold baseline of Fig. 16: every ``relearn()`` constructs a
    #: fresh learner with zeroed weights and fresh chains (still over the
    #: engine's patched compilation).
    warm_learning: bool = True
    #: Transactional updates: every ``apply_update``/``relearn`` runs
    #: under a bounded snapshot of the touched state plus a delta WAL —
    #: a failure anywhere in the patch → infer → relearn pipeline rolls
    #: the engine back to its pre-update state (caches verified
    #: consistent) and the WAL records the rolled-back transaction.
    #: False removes the snapshot/WAL overhead (trusted callers).
    transactional: bool = True
    #: File path for the delta WAL; ``None`` keeps it in memory.  A
    #: file-backed WAL survives the process, so committed updates can be
    #: replayed onto a rebuilt engine after a crash.
    wal_path: str | None = None
    #: Lesion knobs — remove a strategy to reproduce Fig. 11.
    strategies: tuple = (SAMPLING, VARIATIONAL)
    #: False reproduces the NoWorkloadInfo baseline: sampling until the
    #: bundle is exhausted, then variational, ignoring the delta's type.
    workload_aware: bool = True


@dataclass
class InferenceOutcome:
    """Result of evaluating one update."""

    marginals: np.ndarray
    strategy: str
    seconds: float
    decision: OptimizerDecision | None = None
    acceptance_rate: float | None = None
    samples_used: int = 0
    fell_back: bool = False
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ReadSnapshot:
    """A consistent, zero-copy view of an engine's answered marginals.

    Engines *replace* their marginal array on every committed update
    (``_last_marginals`` is never mutated in place), so a snapshot is a
    read-only numpy view over the committed array: holding it costs
    nothing and stays bit-exact while later updates commit underneath —
    snapshot isolation by immutability.  ``txn`` counts the engine's
    committed updates at capture time; the service re-stamps snapshots
    with its WAL transaction id.

    ``chain_state`` (optional) reuses the live chain assignment —
    zero-copy out of the sharded sampler's shared-memory export when one
    is running.  Unlike ``marginals`` it views live (mutated-in-place)
    buffers: it is consistent at update boundaries, not across them.
    """

    marginals: np.ndarray
    txn: int
    num_vars: int
    chain_state: np.ndarray | None = None


def _read_only(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


def _relearn(engine, compiled, num_epochs: int, record_loss: bool, learner_kwargs):
    """Shared persistent-relearn step of both engines.

    Reuses the engine's patched learner when it is warm and current
    (``learns_warm``); otherwise constructs a fresh one over ``compiled``
    (``learns_cold``) — with zeroed weights under the
    ``warm_learning=False`` lesion.  ``learner_kwargs`` only apply at
    construction time."""
    from repro.learning.sgd import SGDLearner

    cfg = engine.config
    if cfg.warm_learning and engine._learner is not None and not engine._learner_stale:
        engine.learns_warm += 1
    else:
        if engine._learner is not None:
            engine._learner.close()
        was_patched = compiled is not None and compiled.has_patches
        engine._learner = SGDLearner(
            engine.current_graph,
            warmstart=cfg.warm_learning,
            seed=engine.rng,
            compiled=compiled,
            **learner_kwargs,
        )
        if was_patched and not compiled.has_patches:
            # A pool-backed learner's shared export compacted the
            # compilation: any other holder (RerunEngine's persistent
            # sampler) must re-derive its plan/cache.
            resync = getattr(engine, "_resync_sampler", None)
            if resync is not None:
                resync()
        engine._learner_stale = False
        engine.learns_cold += 1
    return engine._learner.fit(num_epochs, record_loss=record_loss)


class IncrementalEngine:
    """Materialize once, evaluate many updates incrementally."""

    def __init__(self, graph: FactorGraph, config: EngineConfig | None = None):
        self.config = config or EngineConfig()
        # Snapshot: the materialized distribution must not drift if the
        # caller keeps mutating weights.
        self.base_graph = graph.copy()
        self.current_graph = self.base_graph
        self.cumulative_delta: FactorGraphDelta | None = None
        self.rng = as_generator(self.config.seed)
        self.sampling = SampleMaterialization(
            self.base_graph, seed=self.rng, n_workers=self.config.n_workers
        )
        self.variational = VariationalMaterialization(
            self.base_graph,
            lam=self.config.variational_lam,
            seed=self.rng,
            compact_threshold=self.config.compact_threshold,
        )
        self.materialized = False
        self._last_marginals = None
        # Persistent-learning state: a compiled view of the *current*
        # graph, patched with every delta once learning starts, plus the
        # learner whose chains warm-start across those patches.
        self._learn_compiled = None
        self._learner = None
        self._learner_stale = False
        self.learns_warm = 0
        self.learns_cold = 0
        self.wal = DeltaLog(self.config.wal_path) if self.config.transactional else None
        self.rollbacks = 0
        self.committed_updates = 0

    # ------------------------------------------------------------------ #

    def read_snapshot(self) -> ReadSnapshot | None:
        """Zero-copy snapshot of the last committed marginals (or None
        before the first inference).  See :class:`ReadSnapshot`."""
        if self._last_marginals is None:
            return None
        marginals = _read_only(self._last_marginals)
        return ReadSnapshot(
            marginals=marginals,
            txn=self.committed_updates,
            num_vars=int(marginals.shape[0]),
        )

    # ------------------------------------------------------------------ #

    def materialize(self) -> dict:
        """Run both materializations; returns timing/size stats."""
        cfg = self.config
        start = time.perf_counter()
        collected = self.sampling.materialize(
            num_samples=cfg.materialization_samples,
            time_budget=cfg.materialization_time_budget,
            burn_in=cfg.burn_in,
        )
        sampling_seconds = time.perf_counter() - start
        start = time.perf_counter()
        if VARIATIONAL in cfg.strategies:
            # Reuse the bundle: drawing samples dominates materialization.
            self.variational.materialize(samples=self.sampling.samples)
        variational_seconds = time.perf_counter() - start
        self.materialized = True
        return {
            "samples": collected,
            "sampling_seconds": sampling_seconds,
            "variational_seconds": variational_seconds,
            "approx_factors": self.variational.num_factors,
            "bundle_bits": self.sampling.storage_bits(),
        }

    # ------------------------------------------------------------------ #

    def _decide(self, delta: FactorGraphDelta) -> OptimizerDecision:
        cfg = self.config
        if SAMPLING not in cfg.strategies:
            return OptimizerDecision(VARIATIONAL, 0, "sampling disabled (lesion)")
        if VARIATIONAL not in cfg.strategies:
            return OptimizerDecision(SAMPLING, 0, "variational disabled (lesion)")
        if not cfg.workload_aware:
            if self.sampling.samples_remaining > 0:
                return OptimizerDecision(
                    SAMPLING, 0, "NoWorkloadInfo: samples remain"
                )
            return OptimizerDecision(
                VARIATIONAL, 0, "NoWorkloadInfo: bundle exhausted"
            )
        return choose_strategy(
            self.cumulative_delta if self.cumulative_delta is not None else delta,
            self.sampling.samples_remaining,
        )

    def apply_update(self, delta: FactorGraphDelta) -> InferenceOutcome:
        """Evaluate one update (delta relative to the *current* graph).

        Transactional by default (``EngineConfig.transactional``): the
        delta is WAL-logged before anything mutates, and a failure
        anywhere in splice → patch → infer restores the engine —
        materializations, compiled substrate, learner chains, rng — to
        its pre-update state, so the retried apply matches a never-failed
        one exactly (serial components; pool-backed ones rebuild cold)."""
        if not self.config.transactional:
            outcome = self._apply_update_inner(delta)
            self.committed_updates += 1
            return outcome
        snap = IncrementalUpdateSnapshot(self)
        txn = self.wal.begin(delta)
        try:
            maybe_fire("engine.update.start")
            outcome = self._apply_update_inner(delta)
        except Exception as exc:
            self.rollbacks += 1
            snap.restore()
            self.wal.rollback(txn, reason=repr(exc))
            raise
        self.wal.commit(txn)
        self.committed_updates += 1
        return outcome

    def _apply_update_inner(self, delta: FactorGraphDelta) -> InferenceOutcome:
        if not self.materialized:
            raise RuntimeError("materialize() before apply_update()")
        cfg = self.config
        started = time.perf_counter()

        if delta.is_empty:
            # No-op update: the distribution is unchanged, so skip the
            # bookkeeping (variational splice, delta composition, substrate
            # patch) and go straight to the strategy — which still
            # consumes the bundle, exactly as a non-short-circuited empty
            # update would.
            if self.cumulative_delta is None:
                self.cumulative_delta = delta
            decision = self._decide(delta)
            outcome = self._run_strategy(decision)
            outcome.seconds = time.perf_counter() - started
            outcome.details["short_circuit"] = "empty delta"
            self._last_marginals = outcome.marginals
            return outcome

        # Keep the variational substrate in sync (an O(|Δ|) patch)
        # regardless of the strategy chosen for this update, so a later
        # fallback works.
        if VARIATIONAL in cfg.strategies:
            self.variational.apply_update(self.current_graph, delta)

        if self.cumulative_delta is None:
            self.cumulative_delta = delta
        else:
            self.cumulative_delta = compose_deltas(
                self.base_graph, self.cumulative_delta, delta
            )

        # The compiled substrate is the source of truth for the current
        # graph: the first structural update compiles once (detaching
        # from the frozen Pr⁰ snapshot), every later update is an O(|Δ|)
        # patch, and ``current_graph`` is the substrate's lazy view — no
        # ``delta.apply`` materialization on this path.  When a
        # persistent learner exists its chains warm-start across the
        # same patch.
        if self._learn_compiled is None:
            from repro.graph.compiled import CompiledFactorGraph

            if self.current_graph is self.base_graph:
                # The substrate owns graph state (weights, evidence,
                # names) from compile time on; detach so Pr⁰ stays
                # frozen.
                self.current_graph = self.base_graph.copy()
            self._learn_compiled = CompiledFactorGraph(self.current_graph)
        learn_patch = self._learn_compiled.apply_delta(
            delta, compact_threshold=cfg.compact_threshold
        )
        self.current_graph = self._learn_compiled.graph
        if self._learner is not None:
            if cfg.warm_learning:
                self._learner.apply_patch(learn_patch)
            else:
                self._learner_stale = True

        # Patch the tuple bundle in place for small variable appends so
        # the sampling strategy proposes full-width worlds without
        # per-proposal extension work.  Columns are positional (base
        # variables then appended variables in cumulative order), so the
        # bundle must have kept pace with every prior append — once one
        # oversized update is skipped, later ones extend per proposal.
        if (
            delta.num_new_vars
            and SAMPLING in cfg.strategies
            and self.sampling.width
            == self.current_graph.num_vars - delta.num_new_vars
            and delta.num_new_vars
            <= cfg.bundle_patch_fraction * max(self.current_graph.num_vars, 1)
        ):
            self.sampling.extend_bundle(delta.num_new_vars)
        maybe_fire("engine.update.patched")

        decision = self._decide(delta)
        outcome = self._run_strategy(decision)
        maybe_fire("engine.update.inferred")
        outcome.seconds = time.perf_counter() - started
        self._last_marginals = outcome.marginals
        return outcome

    # ------------------------------------------------------------------ #

    def relearn(self, num_epochs: int, record_loss: bool = True, **learner_kwargs):
        """Re-learn the weights of the *current* graph, persistently.

        The first call compiles the current graph once; every subsequent
        ``apply_update`` patches that compilation in place, and with
        ``EngineConfig.warm_learning`` (default) the learner's persistent
        chains and weight store ride along — so each relearn is the
        paper's SGD+Warmstart step (App. B.3) with O(|Δ|) setup.  Weights
        are updated in place on ``current_graph.weights``.  Returns the
        :class:`~repro.learning.sgd.LearningHistory` of this run.

        Transactional (``EngineConfig.transactional``): a failure mid-fit
        restores the weight store, the learner's chains and the rng.
        """
        if self.config.transactional:
            snap = RelearnSnapshot(self)
            try:
                maybe_fire("engine.relearn.start")
                return self._relearn_inner(num_epochs, record_loss, learner_kwargs)
            except Exception:
                self.rollbacks += 1
                snap.restore()
                raise
        return self._relearn_inner(num_epochs, record_loss, learner_kwargs)

    def _relearn_inner(self, num_epochs, record_loss, learner_kwargs):
        if self._learn_compiled is None:
            from repro.graph.compiled import CompiledFactorGraph

            if self.current_graph is self.base_graph:
                # Learning mutates weights in place; detach from the
                # materialized snapshot so Pr⁰ stays frozen.
                self.current_graph = self.base_graph.copy()
            self._learn_compiled = CompiledFactorGraph(self.current_graph)
        return _relearn(
            self, self._learn_compiled, num_epochs, record_loss, learner_kwargs
        )

    def close(self) -> None:
        """Release the persistent learner (worker pools, if any)."""
        if self._learner is not None:
            self._learner.close()
            self._learner = None
        if self.wal is not None:
            self.wal.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _exhausted_marginals(self, fallback: np.ndarray) -> np.ndarray:
        """Best available marginals when no inference step can run.

        Prefers the previous update's answer (the chain of truth under
        the sampling-only lesion) over ``fallback`` — the exhausted
        result's base-marginal padding built by
        :meth:`SampleMaterialization.infer`.  Evidence re-clamping
        happens in :meth:`_clamp`."""
        n = self.current_graph.num_vars
        out = np.asarray(fallback, dtype=float).copy()
        if self._last_marginals is not None:
            last = self._last_marginals
            out[: min(last.shape[0], n)] = last[:n]
        return out

    def _run_strategy(self, decision: OptimizerDecision) -> InferenceOutcome:
        cfg = self.config
        if decision.strategy == SAMPLING:
            result = self.sampling.infer(
                self.cumulative_delta, num_steps=cfg.inference_steps
            )
            if (
                result.exhausted
                and result.proposals_used == 0
                and VARIATIONAL not in cfg.strategies
            ):
                # Sampling-only lesion with a dry bundle: zero MH steps
                # executed, so ``result.marginals`` carries no evidence
                # about the updated distribution — ship the last known
                # marginals (flagged exhausted) instead of an artifact.
                return InferenceOutcome(
                    marginals=self._clamp(self._exhausted_marginals(result.marginals)),
                    strategy=SAMPLING,
                    seconds=0.0,
                    decision=decision,
                    acceptance_rate=result.acceptance_rate,
                    samples_used=0,
                    details={"exhausted": True},
                )
            if result.exhausted and VARIATIONAL in cfg.strategies:
                marginals = self.variational.infer(
                    num_samples=cfg.variational_inference_samples,
                    burn_in=cfg.burn_in,
                )
                return InferenceOutcome(
                    marginals=self._clamp(marginals),
                    strategy=VARIATIONAL,
                    seconds=0.0,
                    decision=decision,
                    acceptance_rate=result.acceptance_rate,
                    samples_used=result.proposals_used,
                    fell_back=True,
                )
            return InferenceOutcome(
                marginals=self._clamp(result.marginals),
                strategy=SAMPLING,
                seconds=0.0,
                decision=decision,
                acceptance_rate=result.acceptance_rate,
                samples_used=result.proposals_used,
            )
        marginals = self.variational.infer(
            num_samples=cfg.variational_inference_samples, burn_in=cfg.burn_in
        )
        return InferenceOutcome(
            marginals=self._clamp(marginals),
            strategy=VARIATIONAL,
            seconds=0.0,
            decision=decision,
        )

    def _clamp(self, marginals: np.ndarray) -> np.ndarray:
        marginals = np.asarray(marginals, dtype=float).copy()
        ev_vars, ev_vals = self.current_graph.evidence_arrays()
        marginals[ev_vars] = np.where(ev_vals, 1.0, 0.0)
        return marginals


class RerunEngine:
    """The Rerun baseline: full Gibbs on the updated graph, every time.

    The *inference* cost stays O(graph) per update — that is the paper's
    baseline semantics.  The *setup* cost no longer is: by default the
    engine keeps one :class:`CompiledFactorGraph` and patches it with
    each delta (``apply_delta``), warm-starts its persistent sampler
    (chains keep their assignments; with ``n_workers > 1`` the worker
    pool and shared-memory export survive the update instead of
    respawning).  ``EngineConfig.reuse_compilation=False`` restores the
    recompile-per-update behaviour for baseline measurements.
    """

    def __init__(self, graph: FactorGraph, config: EngineConfig | None = None):
        self.config = config or EngineConfig()
        self.current_graph = graph.copy()
        self.rng = as_generator(self.config.seed)
        self._compiled = None
        self._sampler = None
        self._last_marginals = None
        self.updates_patched = 0
        self.updates_recompiled = 0
        self._learner = None
        self._learner_stale = False
        self.learns_warm = 0
        self.learns_cold = 0
        self.wal = DeltaLog(self.config.wal_path) if self.config.transactional else None
        self.rollbacks = 0
        self.committed_updates = 0

    def read_snapshot(self) -> ReadSnapshot | None:
        """Zero-copy snapshot of the last committed marginals (or None
        before the first inference).

        When the persistent sampler is sharded, ``chain_state`` reuses
        the shared-memory export's published state buffer directly
        (:meth:`ShardedGibbsSampler.state_view`) — no pool round-trip, no
        copy; see :class:`ReadSnapshot` for its consistency caveat."""
        if self._last_marginals is None:
            return None
        marginals = _read_only(self._last_marginals)
        chain_state = None
        view = getattr(self._sampler, "state_view", None)
        if view is not None:
            chain_state = view()
        elif self._sampler is not None:
            chain_state = _read_only(self._sampler.state)
        return ReadSnapshot(
            marginals=marginals,
            txn=self.committed_updates,
            num_vars=int(marginals.shape[0]),
            chain_state=chain_state,
        )

    def _fresh_sampler(self):
        from repro.graph.compiled import CompiledFactorGraph

        if self._sampler is not None and hasattr(self._sampler, "close"):
            self._sampler.close()
        self._compiled = CompiledFactorGraph(self.current_graph)
        self._sampler = make_sampler(
            self.current_graph,
            seed=self.rng,
            compiled=self._compiled,
            n_workers=self.config.n_workers,
            incremental=self.config.reuse_compilation,
        )
        self.updates_recompiled += 1

    def apply_update(self, delta: FactorGraphDelta) -> InferenceOutcome:
        """Apply one delta and re-run inference (transactional: a failure
        in patch → sample rolls the compiled substrate, the persistent
        sampler and the rng back to the pre-update state)."""
        if not self.config.transactional:
            outcome = self._apply_update_inner(delta)
            self.committed_updates += 1
            return outcome
        snap = RerunUpdateSnapshot(self)
        txn = self.wal.begin(delta)
        try:
            maybe_fire("engine.update.start")
            outcome = self._apply_update_inner(delta)
        except Exception as exc:
            self.rollbacks += 1
            snap.restore()
            self.wal.rollback(txn, reason=repr(exc))
            raise
        self.wal.commit(txn)
        self.committed_updates += 1
        return outcome

    def _apply_update_inner(self, delta: FactorGraphDelta) -> InferenceOutcome:
        started = time.perf_counter()
        cfg = self.config
        if delta.is_empty and self._last_marginals is not None:
            # No-op update: the distribution is unchanged — reuse the
            # previous marginals instead of recompiling, respawning and
            # re-running inference.
            return InferenceOutcome(
                marginals=self._last_marginals.copy(),
                strategy="rerun",
                seconds=time.perf_counter() - started,
                details={"short_circuit": "empty delta"},
            )
        if not cfg.reuse_compilation:
            # Recompile lesion / rerun baseline: materialize the updated
            # graph and rebuild everything from scratch.  This is the
            # only engine path that still pays the O(#factors)
            # ``delta.apply`` copy.
            self.current_graph = delta.apply(self.current_graph)
            self._fresh_sampler()
            burn = cfg.burn_in
            if self._learner is not None:
                # The compilation was thrown away: the learner cannot be
                # patched onto it and is rebuilt at the next relearn.
                self._learner_stale = True
        else:
            incremental = self._compiled is not None
            if not incremental:
                from repro.graph.compiled import CompiledFactorGraph

                # First update: compile the pre-delta graph once.  The
                # substrate owns graph state from here on; this update
                # and every later one apply as O(|Δ|) patches and
                # ``current_graph`` is the substrate's lazy view.
                self._compiled = CompiledFactorGraph(self.current_graph)
            patch = self._compiled.apply_delta(
                delta, compact_threshold=cfg.compact_threshold
            )
            self.current_graph = self._compiled.graph
            if self._sampler is None or not incremental:
                # First update, or compilation primed by an early
                # relearn(): start the persistent sampler on the patched
                # substrate.
                if self._sampler is not None and hasattr(self._sampler, "close"):
                    self._sampler.close()
                self._sampler = make_sampler(
                    self.current_graph,
                    seed=self.rng,
                    compiled=self._compiled,
                    n_workers=cfg.n_workers,
                    incremental=True,
                )
            elif cfg.warm_start:
                self._sampler.apply_patch(patch)
            else:
                # Fresh chains over the *patched* compilation (no
                # recompile; the warm-start lesion only resets state).
                if hasattr(self._sampler, "close"):
                    self._sampler.close()
                self._sampler = make_sampler(
                    self.current_graph,
                    seed=self.rng,
                    compiled=self._compiled,
                    n_workers=cfg.n_workers,
                    incremental=True,
                )
            if incremental:
                burn = (
                    cfg.incremental_burn_in
                    if cfg.incremental_burn_in is not None
                    else cfg.burn_in
                )
                self.updates_patched += 1
            else:
                # Counter/burn-in parity with the historical first-update
                # recompile: the one-time substrate compile is accounted
                # as a recompiled update and burns in from scratch.
                burn = cfg.burn_in
                self.updates_recompiled += 1
            # Sampler setup may have compacted the substrate underneath
            # the patch (sharded samplers need a clean CSR snapshot);
            # later patch consumers must then rebuild, not splice.
            if patch.structural and not self._compiled.has_patches:
                patch.compacted = True
            # The persistent learner rides the same patch (warm), or is
            # marked for a cold rebuild under the warm_learning lesion.
            if self._learner is not None:
                if cfg.warm_learning:
                    was_compacted = patch.compacted
                    self._learner.apply_patch(patch)
                    if patch.compacted and not was_compacted:
                        # The learner's pool escalated to a compaction
                        # after the sampler had already spliced the
                        # patch: re-derive the sampler's state too.
                        self._resync_sampler()
                else:
                    self._learner_stale = True
        maybe_fire("engine.update.patched")
        marginals = self._sampler.estimate_marginals(
            cfg.inference_samples, burn_in=burn
        )
        maybe_fire("engine.update.inferred")
        if not cfg.reuse_compilation:
            # Baseline mode keeps the original throwaway lifecycle.
            if hasattr(self._sampler, "close"):
                self._sampler.close()
            self._sampler = None
            self._compiled = None
        ev_vars, ev_vals = self.current_graph.evidence_arrays()
        marginals[ev_vars] = np.where(ev_vals, 1.0, 0.0)
        self._last_marginals = marginals
        return InferenceOutcome(
            marginals=marginals,
            strategy="rerun",
            seconds=time.perf_counter() - started,
        )

    def _resync_sampler(self) -> None:
        """Re-derive the persistent sampler after an external compaction.

        A pool-backed learner compacts the shared compilation when it
        exports it (or when a patch outgrows its segment); the sampler's
        cache/plan then index a layout that no longer exists.  The warm
        chain assignment is preserved — only derived state is rebuilt."""
        sampler = self._sampler
        if sampler is None:
            return
        from repro.graph.compiled import GibbsCache
        from repro.inference.gibbs import GibbsSampler

        if isinstance(sampler, GibbsSampler):
            sampler.plan = self._compiled.plan(sampler.graph)
            sampler.cache = GibbsCache(self._compiled, sampler.state)
            return
        # Sharded sampler: its worker pool is attached to a stale export;
        # rebuild it on the compacted compilation from the warm state.
        from repro.inference.parallel import ShardedGibbsSampler

        state = np.array(sampler.state, copy=True)
        if hasattr(sampler, "close"):
            sampler.close()
        self._sampler = ShardedGibbsSampler(
            self.current_graph,
            n_workers=self.config.n_workers,
            seed=self.rng,
            initial=state,
            compiled=self._compiled,
        )

    def relearn(self, num_epochs: int, record_loss: bool = True, **learner_kwargs):
        """Re-learn the weights of the current graph, persistently.

        Shares the engine's (patched) compilation with the learner when
        ``reuse_compilation`` is on, so after each ``apply_update`` the
        warm learner resumes with O(|Δ|) setup; under
        ``warm_learning=False`` (or ``reuse_compilation=False``) each
        call pays the cold restart the Fig. 16 baselines measure.
        Weight updates land in place and are picked up by the persistent
        sampler's version-gated weight refresh.

        Transactional (``EngineConfig.transactional``): a failure mid-fit
        restores the weight store, the learner's chains and the rng."""
        if self.config.transactional:
            snap = RelearnSnapshot(self)
            try:
                maybe_fire("engine.relearn.start")
                return self._relearn_inner(num_epochs, record_loss, learner_kwargs)
            except Exception:
                self.rollbacks += 1
                snap.restore()
                raise
        return self._relearn_inner(num_epochs, record_loss, learner_kwargs)

    def _relearn_inner(self, num_epochs, record_loss, learner_kwargs):
        cfg = self.config
        compiled = None
        if cfg.reuse_compilation:
            if self._compiled is None:
                from repro.graph.compiled import CompiledFactorGraph

                self._compiled = CompiledFactorGraph(self.current_graph)
            compiled = self._compiled
        return _relearn(self, compiled, num_epochs, record_loss, learner_kwargs)

    def close(self) -> None:
        """Release the persistent sampler (worker pool, shared memory)."""
        if self._sampler is not None and hasattr(self._sampler, "close"):
            self._sampler.close()
        self._sampler = None
        if self._learner is not None:
            self._learner.close()
            self._learner = None
        if self.wal is not None:
            self.wal.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
