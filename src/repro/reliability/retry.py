"""Seeded retry/backoff policy for pipeline and service retries.

Kept free of any engine imports so the whole stack (and tests) can
share one policy object.  The jitter stream is seeded: two runs with the
same policy sleep the same durations, which keeps crash-recovery tests
deterministic end to end.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.reliability.errors import UpdateRejected


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with seeded jitter.

    ``max_attempts`` counts the first try: ``max_attempts=3`` means one
    initial attempt plus up to two retries.  Delay before retry *k*
    (1-based) is ``min(base_delay * multiplier**(k-1), max_delay)``
    scaled by a jitter factor in ``[1, 1 + jitter]``.
    """

    max_attempts: int = 3
    base_delay: float = 0.02
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.25
    seed: int = 0

    def delays(self):
        """Yield the (jittered) sleep before each retry, in order."""
        rng = random.Random(self.seed)
        delay = self.base_delay
        for _ in range(max(self.max_attempts - 1, 0)):
            scale = 1.0 + self.jitter * rng.random() if self.jitter else 1.0
            yield min(delay, self.max_delay) * scale
            delay *= self.multiplier

    def call(
        self, fn, *, retryable=(Exception,), on_retry=None, sleep=time.sleep
    ):
        """Run ``fn(attempt)`` under this policy.

        ``fn`` receives the 1-based attempt number.  On a retryable
        exception the optional ``on_retry(attempt, exc)`` hook runs (e.g.
        to count the retry) before backing off; the final failure, and
        any :class:`~repro.reliability.errors.UpdateRejected` (the same
        input fails the same way again), is re-raised unchanged.
        """
        delays = self.delays()
        for attempt in range(1, max(self.max_attempts, 1) + 1):
            try:
                return fn(attempt)
            except retryable as exc:
                if attempt >= max(self.max_attempts, 1) or isinstance(exc, UpdateRejected):
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc)
                pause = next(delays, 0.0)
                if pause > 0:
                    sleep(pause)
        raise AssertionError("unreachable")
