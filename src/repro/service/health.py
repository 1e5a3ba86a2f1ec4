"""Service health / degradation state machine.

States::

    healthy ──failure──▶ degraded ──clean streak──▶ recovering ──▶ healthy
       ▲                                                │
       └────────────────────────────────────────────────┘
    (any state) ──ProcessCrash──▶ crashed   (terminal until restore())

``healthy``
    Normal operation; batches commit on the configured stack.
``degraded``
    A batch failed (after the pipeline's own retries) and was rolled
    back — the service keeps running on the last committed state and
    advertises the failure.  Nothing is reconfigured here.
``recovering``
    Enough consecutive clean commits have passed; one more confirms
    ``healthy``.
``crashed``
    A :class:`~repro.reliability.errors.ProcessCrash` flew past every
    handler — only :meth:`~repro.service.server.KBService.restore`
    (checkpoint + WAL replay in a new process/service) leaves this
    state.

Transitions are recorded with a reason so the status endpoint can show
*why* the service degraded, not just that it did.
"""

from __future__ import annotations

import threading

HEALTHY = "healthy"
DEGRADED = "degraded"
RECOVERING = "recovering"
CRASHED = "crashed"

STATES = (HEALTHY, DEGRADED, RECOVERING, CRASHED)


class HealthMonitor:
    """Tracks commit/failure streaks and derives the service state."""

    def __init__(self, recover_after: int = 3) -> None:
        #: Consecutive clean commits needed to leave ``degraded``.
        self.recover_after = recover_after
        self.state = HEALTHY
        self.reason = ""
        self.clean_streak = 0
        self.failures = 0
        self.transitions: list[tuple[str, str, str]] = []
        self._lock = threading.Lock()

    def _transition(self, new: str, reason: str) -> None:
        if new != self.state:
            self.transitions.append((self.state, new, reason))
            self.state = new
            self.reason = reason

    def record_commit(self) -> None:
        with self._lock:
            if self.state == CRASHED:
                return
            self.clean_streak += 1
            if self.state == DEGRADED and self.clean_streak >= self.recover_after:
                self._transition(
                    RECOVERING,
                    f"{self.clean_streak} clean commits after failure",
                )
            elif self.state == RECOVERING:
                self._transition(HEALTHY, "recovery confirmed by commit")

    def record_failure(self, reason: str) -> None:
        with self._lock:
            if self.state == CRASHED:
                return
            self.failures += 1
            self.clean_streak = 0
            self._transition(DEGRADED, reason)

    def record_crash(self, reason: str) -> None:
        with self._lock:
            self.clean_streak = 0
            self._transition(CRASHED, reason)

    def reset(self, reason: str = "restored from checkpoint") -> None:
        """Fresh start after :meth:`KBService.restore` — the restored
        state was verified against the WAL, so the service is healthy."""
        with self._lock:
            self.clean_streak = 0
            self._transition(HEALTHY, reason)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "state": self.state,
                "reason": self.reason,
                "failures": self.failures,
                "clean_streak": self.clean_streak,
                "transitions": list(self.transitions),
            }
