"""Bounded admission queue for the online KB service.

The write path is intentionally lossy at the edge, not in the middle:
a full queue rejects the *submitting* client with
:class:`~repro.service.server.BackpressureError` instead of buffering
without bound.  Short of a crash (the queue is in memory; durability
starts at the WAL's ``begin``) everything that was admitted is
eventually applied or explicitly failed by the batcher, so the queue
depth — together with the batcher's in-flight count — is an exact upper
bound on how stale a read snapshot can be, which is what lets the
service offer bounded staleness instead of "eventual".
"""

from __future__ import annotations

import threading
from collections import deque

from repro.reliability.faults import maybe_fire


class QueueFull(Exception):
    """Internal signal: the queue rejected a submission.

    The service re-raises it as the client-facing
    :class:`~repro.service.server.BackpressureError` with admission
    stats attached."""


class BoundedUpdateQueue:
    """Thread-safe FIFO of update payloads with a hard depth cap.

    ``submit`` assigns a monotonically increasing sequence number to
    each accepted payload (the service's admission order, distinct from
    the WAL transaction id it will eventually commit under).
    """

    def __init__(self, maxsize: int = 64) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._seq = 0
        self.accepted = 0
        self.rejected = 0
        self.high_water = 0
        #: set by :meth:`close`; a closed queue rejects every submission
        #: (the service answers those as unavailable, not as backpressure).
        self.closed = False

    def submit(self, payload: dict) -> int:
        """Admit one update payload; returns its sequence number.

        Raises :class:`QueueFull` when the queue is at capacity — the
        admission-control decision happens here, synchronously, so the
        caller learns immediately rather than after a buffered payload
        is eventually dropped."""
        with self._not_empty:
            if self.closed:
                raise QueueFull("queue closed")
            maybe_fire("service.queue.put", depth=len(self._items))
            if len(self._items) >= self.maxsize:
                self.rejected += 1
                raise QueueFull(
                    f"queue at capacity ({self.maxsize}); "
                    f"{self.rejected} rejected so far"
                )
            self._seq += 1
            self._items.append((self._seq, payload))
            self.accepted += 1
            self.high_water = max(self.high_water, len(self._items))
            self._not_empty.notify()
            return self._seq

    def drain(self, max_batch: int = 8, timeout: float = 0.05) -> list:
        """Pop up to ``max_batch`` payloads, waiting ``timeout`` seconds
        for the first one.  Returns ``[(seq, payload), ...]`` (possibly
        empty)."""
        with self._not_empty:
            if not self._items:
                self._not_empty.wait(timeout)
            batch = []
            while self._items and len(batch) < max_batch:
                batch.append(self._items.popleft())
            return batch

    def depth(self) -> int:
        with self._lock:
            return len(self._items)

    def close(self) -> None:
        """Stop admitting; wake any drain() waiter."""
        with self._not_empty:
            self.closed = True
            self._not_empty.notify_all()

    def stats(self) -> dict:
        with self._lock:
            return {
                "depth": len(self._items),
                "maxsize": self.maxsize,
                "accepted": self.accepted,
                "rejected": self.rejected,
                "high_water": self.high_water,
            }
