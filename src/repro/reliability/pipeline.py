"""WAL-backed ground → infer → relearn update pipeline.

:class:`ReliableUpdatePipeline` strings an
:class:`~repro.grounding.incremental.IncrementalGrounder` and an engine
(Incremental or Rerun) together under a :class:`DeltaLog`: every update
is logged *before* it runs, retried under a :class:`RetryPolicy`, and
committed only once inference (and optional relearning) succeeded.

An attempt is all-or-nothing.  The grounder and the engine each keep
their last update revocable until the next one begins
(``IncrementalGrounder.rollback``, ``engine.rollback``) and roll a
failed call back themselves; when an attempt fails after grounding, the
pipeline rolls back whatever already succeeded.  Every attempt therefore
starts from the pre-update stack, and a retry grounds the update again.

After a crash, :meth:`DeltaLog.pending` names the updates that began but
never committed, and :meth:`replay` re-applies the committed history
onto a fresh grounder/engine pair.  What survives is the log's contract
(D1–D3 in :mod:`repro.reliability.wal`): a transaction whose
``apply_update`` returned is committed (D1); one whose ``begin`` was
logged is committed, rolled back or pending, never silently gone (D2);
and the surviving frames are a prefix (D3).  A committed transaction
costs two synced frames — ``begin`` and ``commit``; the stage marks in
between (``grounded``, ``inferred``, ``relearned``) are progress notes
for a post-mortem, ride the commit's sync, and are never read back by
recovery.
"""

from __future__ import annotations

from repro.reliability.retry import RetryPolicy
from repro.reliability.wal import DeltaLog


def replay_payload(grounder, engine, payload):
    """Re-apply one logged update payload onto a grounder/engine pair.

    The WAL payload records the *inputs* of an update (relation rows,
    rule changes, relearn epochs); re-grounding them reproduces the delta
    and the engine's marginals deterministically.  Shared by
    :meth:`ReliableUpdatePipeline.replay` (full-history replay onto a
    fresh stack) and the service's checkpoint recovery (tail replay onto
    a restored stack)."""
    kwargs = {
        k: v
        for k, v in payload.items()
        if k not in ("relearn_epochs",) and v is not None
    }
    result = grounder.apply_update(**kwargs)
    outcome = engine.apply_update(result.delta)
    if payload.get("relearn_epochs"):
        engine.relearn(payload["relearn_epochs"], record_loss=False)
    return outcome


class ReliableUpdatePipeline:
    """Transactional driver for one grounder + one engine."""

    def __init__(self, grounder, engine, wal: DeltaLog | None = None,
                 retry: RetryPolicy | None = None) -> None:
        self.grounder = grounder
        self.engine = engine
        self.wal = wal if wal is not None else DeltaLog()
        self.retry = retry if retry is not None else RetryPolicy()
        self.updates = 0
        self.retries = 0
        self.rollbacks = 0
        #: Transaction id of the most recently committed update — the
        #: staleness stamp the service attaches to read snapshots.
        self.last_txn = 0
        #: The engine's :class:`InferenceOutcome` for that update (which
        #: strategy the optimizer picked, the MH acceptance rate) — what
        #: ``KBService.status()`` reports; ``None`` until one commits.
        self.last_outcome = None

    def apply_update(
        self,
        inserts: dict | None = None,
        deletes: dict | None = None,
        relearn_epochs: int = 0,
        **ground_kwargs,
    ):
        """One logged, retried, committed development iteration.

        Returns the engine's :class:`InferenceOutcome`.  On unrecoverable
        failure the stack has been rolled back, the transaction is rolled
        back in the WAL, and the final exception re-raises — at once,
        without a retry, when the grounder rejected the input
        (:class:`~repro.reliability.errors.UpdateRejected`)."""
        payload = {
            "inserts": inserts,
            "deletes": deletes,
            "relearn_epochs": relearn_epochs,
            **ground_kwargs,
        }
        txn = self.wal.begin(payload)

        def attempt(n):
            if n > 1:
                self.retries += 1
            result = self.grounder.apply_update(
                inserts=inserts, deletes=deletes, **ground_kwargs
            )
            outcome = None
            try:
                self.wal.mark(txn, "grounded", result.summary)
                outcome = self.engine.apply_update(result.delta)
                self.wal.mark(txn, "inferred")
                if relearn_epochs:
                    self.engine.relearn(relearn_epochs, record_loss=False)
                    self.wal.mark(txn, "relearned")
            except Exception:
                if outcome is not None:  # else the engine rolled itself back
                    self.engine.rollback()
                self.grounder.rollback()
                raise
            return outcome

        try:
            outcome = self.retry.call(attempt)
        except Exception as exc:
            self.rollbacks += 1
            self.wal.rollback(txn, reason=repr(exc))
            raise
        self.wal.commit(txn)
        self.updates += 1
        self.last_txn = txn
        self.last_outcome = outcome
        return outcome

    # ------------------------------------------------------------------ #

    def replay(self, grounder, engine) -> list:
        """Re-apply the committed history onto a fresh grounder/engine.

        The WAL payload records the *inputs* of each update (relation
        rows, rule changes), so replay reproduces the grounding and the
        engine's marginals on a rebuilt stack — the crash-recovery path
        for a persisted :class:`DeltaLog`."""
        outcomes = []
        for _txn, payload in self.wal.committed():
            outcomes.append(replay_payload(grounder, engine, payload))
        return outcomes
