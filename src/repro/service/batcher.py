"""Background batcher: drains the admission queue through the pipeline.

One daemon thread owns the entire write path — grounder, engine, WAL and
checkpoint store are only ever touched from here, so the service needs
no lock around the stack itself.  The read path stays consistent
because the engines *replace* (never mutate) their marginal arrays: a
reader's snapshot keeps pointing at the pre-commit array while the
batcher installs the post-commit one.

Ordering matters for the staleness bound: the new snapshot is installed
(``service._on_commit``) *before* ``processed`` is incremented, so a
reader that observes a low lag is guaranteed the matching snapshot is
already visible — lag can transiently over-count, never under-count.

Nobody polls for that outcome.  After every processed payload — the
counters moved first — the batcher notifies the ``progress`` condition,
as do a crash and ``stop()``; ``join_idle`` (``KBService.drain``) and a
``KBService.read`` waiting out its ``deadline=`` test their predicate
*while holding* the condition and sleep on it, so a commit landing
between the test and the wait cannot be missed.  The only timed wake-up
left is ``LIVENESS_RECHECK_S``: a waiter's guard against a batcher
thread that died without saying so.

Failure handling mirrors the health state machine:

* an ``Exception`` escaping ``pipeline.apply_update`` means the
  pipeline's own retries were exhausted and the engine rolled back —
  the payload is recorded as failed, the service degrades, and the
  batcher moves on (one poisoned update must not wedge the queue) —
  unless the grounder had already committed its relation delta: then
  grounder and engine are diverged, the service crashes itself and the
  batcher stops *there*: what is left of the drained batch is recorded
  as failed and touches neither the stack nor the WAL (``stop()`` after
  its drain timed out ends a batch the same way, and fails whatever is
  still queued);
* a :class:`~repro.reliability.errors.ProcessCrash` is the simulated
  SIGKILL: it is caught only here, at the outermost boundary, the
  service transitions to ``crashed`` and the thread exits with
  whatever durable state (WAL, checkpoints) already hit disk — exactly
  what a real kill would leave behind for ``KBService.restore``.
"""

from __future__ import annotations

import threading
import time

from repro.reliability.errors import ProcessCrash
from repro.reliability.faults import maybe_fire

#: Longest a ``join_idle`` waiter sleeps before re-checking that the
#: batcher thread is still alive.  Progress is signalled, never polled
#: for; this only bounds the wait on a thread that can no longer signal.
LIVENESS_RECHECK_S = 0.1


class UpdateBatcher:
    """Daemon thread pumping queue → pipeline → snapshot → checkpoint."""

    def __init__(self, service, poll_interval: float = 0.02) -> None:
        self.service = service
        self.poll_interval = poll_interval
        self.in_flight = 0
        self.commits = 0
        self.failures = 0
        self.failed: list[tuple[int, str]] = []
        self.commits_since_checkpoint = 0
        #: Notified after every processed payload, on crash and on stop.
        self.progress = threading.Condition()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="kb-batcher", daemon=True
        )

    @property
    def processed(self) -> int:
        """Payloads whose outcome (commit or terminal failure) is
        visible.  ``queue.accepted - processed`` is the exact number of
        admitted updates a read served right now would be missing."""
        return self.commits + self.failures

    def start(self) -> None:
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the thread after the payload in hand.  What it leaves
        behind — the rest of its batch, whatever is still queued — is
        recorded as failed: every admitted payload ends with an outcome
        and the lag stays exact.  (``KBService.stop`` drains first, so on
        a healthy service nothing is left.)"""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout)
        if not self._thread.is_alive():
            queue = self.service.queue
            self._abandon(queue.drain(max_batch=queue.maxsize, timeout=0), "service stopped")
        self.notify_progress()

    def _abandon(self, items, reason: str) -> None:
        """Account admitted payloads that will never be grounded, logged
        or applied."""
        for seq, _payload in items:
            self.failed.append((seq, f"not applied: {reason}"))
            self.failures += 1

    def notify_progress(self) -> None:
        """Wake every ``progress`` waiter to re-test its predicate.
        Callers change the state the predicates read *before* this."""
        with self.progress:
            self.progress.notify_all()

    def join_idle(self, timeout: float = 10.0) -> bool:
        """Block until every admitted payload has been processed (or the
        batcher thread is gone, or ``timeout`` seconds passed)."""
        deadline = time.monotonic() + timeout
        with self.progress:
            while True:
                if self.processed >= self.service.queue.accepted:
                    return True
                if not self._thread.is_alive():
                    return self.processed >= self.service.queue.accepted
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self.progress.wait(min(remaining, LIVENESS_RECHECK_S))

    # ------------------------------------------------------------------ #

    def _run(self) -> None:
        svc = self.service
        try:
            while not self._stop.is_set():
                batch = svc.queue.drain(
                    max_batch=svc.config.batch_max, timeout=self.poll_interval
                )
                for done, (seq, payload) in enumerate(batch, 1):
                    self.in_flight += 1
                    try:
                        diverged = self._apply_one(seq, payload)
                    finally:
                        self.in_flight -= 1
                    halted = diverged or (self._stop.is_set() and "service stopped")
                    if halted:
                        # Fail-stop means now: the rest of the drained
                        # batch is never grounded, logged or applied on
                        # the diverged stack (nor after ``stop()`` gave
                        # up waiting).  It has left the queue, so it is
                        # accounted failed and the lag stays exact.
                        self._abandon(batch[done:], halted)
                    self.notify_progress()
                    if halted:
                        break
        except ProcessCrash as crash:
            # Simulated SIGKILL: no cleanup, no rollback — only durable
            # state survives.  Mark the service crashed so reads fail
            # fast instead of serving an abandoned snapshot forever.
            self.in_flight = 0
            svc._on_crash(str(crash))

    def _apply_one(self, seq: int, payload: dict) -> str | None:
        """Apply one payload.  Returns the reason when the failure left
        the write stack diverged (the batcher must stop), else ``None``."""
        svc = self.service
        maybe_fire("service.batch.start", seq=seq)
        marker = svc.pipeline.grounder.last_result
        try:
            svc.pipeline.apply_update(**payload)
        except Exception as exc:  # noqa: BLE001 — pipeline retries exhausted
            self.failed.append((seq, repr(exc)))
            diverged = None
            if svc.pipeline.grounder.last_result is not marker:
                # The grounder committed its (non-idempotent) relation
                # delta but the engine never applied the result: the
                # write stack is diverged and every later update would
                # build on the inconsistency.  Fail-stop — restore()
                # rebuilds a consistent pair from the WAL, in which this
                # transaction was rolled back.
                diverged = f"grounder/engine diverged on seq={seq}: {exc!r}"
                svc._on_crash(diverged)
                self._stop.set()
            else:
                svc.health.record_failure(f"update seq={seq} failed: {exc!r}")
            # A terminally failed payload will never reach the snapshot;
            # counting it processed removes it from the lag bound.
            self.failures += 1
            return diverged
        svc.health.record_commit()
        # Snapshot first, then account: see module docstring.
        svc._on_commit(svc.pipeline.last_txn)
        maybe_fire("service.batch.commit", seq=seq, txn=svc.pipeline.last_txn)
        self.commits_since_checkpoint += 1
        every = svc.config.checkpoint_every
        if every and self.commits_since_checkpoint >= every:
            svc.checkpoint()
            self.commits_since_checkpoint = 0
        # Incremented last: when join_idle() observes this payload as
        # processed, its snapshot AND its periodic checkpoint are done —
        # "drained" means fully applied and durable.  (_run notifies
        # ``progress`` right after.)
        self.commits += 1
        return None
