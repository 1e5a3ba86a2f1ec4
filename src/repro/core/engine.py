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
the whole updated graph.

Both hold their current graph as one
:class:`~repro.core.resident.ResidentGraph` — compiled once, patched in
place by every delta, with the chains that ride the patches — and run
every ``apply_update`` / ``relearn`` through one transaction shell
(:meth:`_Engine._transaction`): snapshot → fault points → commit, or
restore — and the update's snapshot is kept until the next one begins
(:meth:`_Engine.rollback`).  Engines keep no log of their own: the
durable record of an update is its *input*, in the pipeline's /
service's WAL (:mod:`repro.reliability.pipeline`), which is what
recovery replays.
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
from repro.core.resident import ResidentGraph
from repro.core.sampling import SampleMaterialization
from repro.core.variational import VariationalMaterialization
from repro.graph.delta import FactorGraphDelta, compose_deltas
from repro.graph.factor_graph import FactorGraph
from repro.reliability.faults import maybe_fire
from repro.reliability.snapshots import IncrementalUpdateSnapshot, RelearnSnapshot
from repro.util.rng import as_generator

#: Patch (rather than extend-per-proposal) the materialized tuple bundle
#: when an update appends at most this fraction of the graph's variables
#: (§3.2.2's sampling approach, applied to the bundle itself).
BUNDLE_PATCH_FRACTION = 0.25


@dataclass
class EngineConfig:
    """Tuning knobs; the defaults are scaled-down but proportionate to the
    paper's settings (1000 inference / 2000 materialization samples).

    Ten fields in two groups.  The lesions that reproduce a paper
    figure are fields (``strategies`` / ``workload_aware`` for Fig. 11,
    ``warm_learning`` for Fig. 16); whether updates are transactional is
    not — they always are."""

    # -- sampling ------------------------------------------------------- #
    materialization_samples: int = 500
    inference_steps: int = 300
    inference_samples: int = 200
    variational_lam: float = 0.1
    variational_inference_samples: int = 150
    burn_in: int = 20
    seed: int | None = None
    #: Lesion knobs — remove a strategy to reproduce Fig. 11.
    strategies: tuple = (SAMPLING, VARIATIONAL)
    #: False reproduces the NoWorkloadInfo baseline: sampling until the
    #: bundle is exhausted, then variational, ignoring the delta's type.
    workload_aware: bool = True

    # -- learning ------------------------------------------------------- #
    #: Persistent incremental learning: keep one :class:`SGDLearner`
    #: whose chains, compiled gradient substrate and weight store are
    #: patched across ``apply_update`` calls, so ``relearn()`` warm-starts
    #: (App. B.3's SGD+Warmstart).  False is the lesion reproducing the
    #: SGD-cold baseline of Fig. 16: every ``relearn()`` constructs a
    #: fresh learner with zeroed weights and fresh chains (still over the
    #: engine's patched compilation).
    warm_learning: bool = True


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
    """

    marginals: np.ndarray
    txn: int
    num_vars: int


class _Engine:
    """What the two engines share: the resident current graph with its
    persistent learner, the transaction shell, and the read path."""

    def __init__(self, graph: FactorGraph, config: EngineConfig | None) -> None:
        self.config = config or EngineConfig()
        self.rng = as_generator(self.config.seed)
        self.resident = ResidentGraph(graph, self.rng)
        self._last_marginals = None
        self.learns_warm = 0
        self.learns_cold = 0
        self.rollbacks = 0
        self.committed_updates = 0
        #: the last committed update's snapshot, until the next begins
        self._undo = None

    def __getstate__(self) -> dict:
        # A checkpoint follows a commit: the snapshot does not travel.
        state = dict(self.__dict__)
        state["_undo"] = None
        return state

    @property
    def current_graph(self) -> FactorGraph:
        """The graph all updates so far produced: the substrate's lazy
        view once anything compiled it, the constructor's graph before."""
        return self.resident.graph

    def read_snapshot(self) -> ReadSnapshot | None:
        """Zero-copy snapshot of the last committed marginals (or None
        before the first inference)."""
        if self._last_marginals is None:
            return None
        marginals = self._last_marginals.view()
        marginals.flags.writeable = False
        return ReadSnapshot(
            marginals=marginals,
            txn=self.committed_updates,
            num_vars=int(marginals.shape[0]),
        )

    def _transaction(self, snap, site: str, body):
        """Run ``body()`` as one transaction.

        ``snap`` is a bounded snapshot taken before anything mutates.  A
        failure anywhere in ``body`` restores the engine — substrate,
        chains, learner, materializations, rng — to its pre-transaction
        state, so the retried call matches a never-failed one exactly."""
        try:
            maybe_fire(site)
            return body()
        except Exception:
            snap.restore()
            self.rollbacks += 1
            raise

    def _apply_update(self, snapshot, delta: FactorGraphDelta) -> InferenceOutcome:
        self._undo = None  # dropped before the next snapshot is taken
        snap = snapshot(self)
        outcome = self._transaction(
            snap, "engine.update.start", lambda: self._apply_update_inner(delta)
        )
        self.committed_updates += 1
        self._undo = snap
        return outcome

    def rollback(self) -> None:
        """Undo the last committed ``apply_update``, and any ``relearn``
        since, from the snapshot its transaction took — a no-op once the
        next update has begun, or after a rollback."""
        snap, self._undo = self._undo, None
        if snap is not None:
            rollbacks = self.rollbacks  # a relearn's since counts too
            snap.restore()
            self.rollbacks = rollbacks + 1

    def _relearn(self, num_epochs: int, record_loss: bool):
        """Shared body of both engines' ``relearn``.

        The first call compiles the current graph once; every later
        ``apply_update`` patches that compilation in place and, with
        ``EngineConfig.warm_learning`` (default), the learner's
        persistent chains and weight store ride along — so each relearn
        is the paper's SGD+Warmstart step (App. B.3) with O(|Δ|) setup
        (``learns_warm``).  Under the lesion every call pays the cold
        restart the Fig. 16 baselines measure (``learns_cold``) and no
        learner is kept between calls.  Weights are updated in place on
        ``current_graph.weights``; a persistent chain picks them up
        through its version-gated weight refresh."""

        def body():
            warm = self.config.warm_learning
            if self.resident.warm_learner(warm):
                self.learns_warm += 1
            else:
                self.learns_cold += 1
            history = self.resident.learner.fit(num_epochs, record_loss=record_loss)
            if not warm:
                self.resident.learner = None
            return history

        return self._transaction(RelearnSnapshot(self), "engine.relearn.start", body)

    def _clamp(self, marginals: np.ndarray) -> np.ndarray:
        marginals = np.asarray(marginals, dtype=float).copy()
        ev_vars, ev_vals = self.current_graph.evidence_arrays()
        marginals[ev_vars] = np.where(ev_vals, 1.0, 0.0)
        return marginals

    def close(self) -> None:
        """Release the persistent chain and learner."""
        self.resident.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class IncrementalEngine(_Engine):
    """Materialize once, evaluate many updates incrementally."""

    def __init__(self, graph: FactorGraph, config: EngineConfig | None = None):
        # Snapshot: the materialized distribution must not drift if the
        # caller keeps mutating weights.
        self.base_graph = graph.copy()
        super().__init__(self.base_graph, config)
        self.cumulative_delta: FactorGraphDelta | None = None
        self.sampling = SampleMaterialization(self.base_graph, seed=self.rng)
        self.variational = VariationalMaterialization(
            self.base_graph,
            lam=self.config.variational_lam,
            seed=self.rng,
        )
        self.materialized = False

    # ------------------------------------------------------------------ #

    def materialize(self) -> dict:
        """Run both materializations; returns timing/size stats."""
        cfg = self.config
        start = time.perf_counter()
        collected = self.sampling.materialize(
            num_samples=cfg.materialization_samples, burn_in=cfg.burn_in
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
        """Evaluate one update (delta relative to the *current* graph),
        as one transaction (see :meth:`_Engine._transaction`)."""
        return self._apply_update(IncrementalUpdateSnapshot, delta)

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

        # The first structural update compiles the current graph once
        # (detached from the frozen Pr⁰ snapshot), every later one is an
        # O(|Δ|) patch the persistent learner rides — no ``delta.apply``
        # materialization on this path.
        self.resident.apply_delta(delta)

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
            <= BUNDLE_PATCH_FRACTION * max(self.current_graph.num_vars, 1)
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

    def relearn(self, num_epochs: int, record_loss: bool = True):
        """Re-learn the weights of the *current* graph, persistently and
        transactionally (see :meth:`_Engine._relearn`): a failure mid-fit
        restores the weight store, the learner's chains and the rng.
        Returns the :class:`~repro.learning.sgd.LearningHistory` of this
        run."""
        return self._relearn(num_epochs, record_loss)

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


class RerunEngine(_Engine):
    """The Rerun baseline: full Gibbs on the updated graph, every time.

    The *inference* cost stays O(graph) per update — that is the paper's
    baseline semantics.  The *setup* cost does not: the resident graph is
    compiled by the first update and patched by every later one, and its
    serial chain keeps its assignment across the patches.  The
    recompile-per-update baseline is a fresh engine on
    ``delta.apply(graph)``.
    """

    def __init__(self, graph: FactorGraph, config: EngineConfig | None = None):
        super().__init__(graph.copy(), config)
        self.updates_patched = 0
        self.updates_recompiled = 0

    def apply_update(self, delta: FactorGraphDelta) -> InferenceOutcome:
        """Apply one delta and re-run inference, as one transaction (see
        :meth:`_Engine._transaction`)."""
        return self._apply_update(RelearnSnapshot, delta)

    def _apply_update_inner(self, delta: FactorGraphDelta) -> InferenceOutcome:
        started = time.perf_counter()
        cfg = self.config
        if delta.is_empty and self._last_marginals is not None:
            # No-op update: the distribution is unchanged — reuse the
            # previous marginals instead of re-running inference.
            return InferenceOutcome(
                marginals=self._last_marginals.copy(),
                strategy="rerun",
                seconds=time.perf_counter() - started,
                details={"short_circuit": "empty delta"},
            )
        if self.resident.compiled is None:
            # The update that pays the one-time O(graph) compile.
            self.updates_recompiled += 1
        else:
            self.updates_patched += 1
        self.resident.apply_delta(delta)
        maybe_fire("engine.update.patched")
        marginals = self._clamp(
            self.resident.marginals(cfg.inference_samples, cfg.burn_in)
        )
        maybe_fire("engine.update.inferred")
        self._last_marginals = marginals
        return InferenceOutcome(
            marginals=marginals,
            strategy="rerun",
            seconds=time.perf_counter() - started,
        )

    def relearn(self, num_epochs: int, record_loss: bool = True):
        """Re-learn the weights of the current graph, persistently and
        transactionally (see :meth:`_Engine._relearn`); the learner shares
        the substrate the chain samples."""
        return self._relearn(num_epochs, record_loss)
