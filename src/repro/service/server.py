"""The long-lived KB service: bounded-staleness reads over a durable
write pipeline.

:class:`KBService` wires the PR-6 reliability stack into an online
server shape (ROADMAP open item 1, the regime §5 of the paper
describes):

* **writes** enter a :class:`~repro.service.queue.BoundedUpdateQueue`
  (admission control: a full queue rejects with
  :class:`BackpressureError` instead of buffering unboundedly) and are
  drained by a background :class:`~repro.service.batcher.UpdateBatcher`
  through a :class:`~repro.reliability.pipeline.ReliableUpdatePipeline`
  — ground → patch → relearn per committed WAL transaction;
* **reads** serve zero-copy
  :class:`~repro.core.engine.ReadSnapshot` views of the last committed
  marginals, stamped with the WAL transaction they reflect, under an
  explicit staleness bound: ``lag`` (admitted-but-unapplied updates)
  must not exceed ``max_staleness``, or the read is rejected
  (:class:`StalenessExceeded`) / waits until its deadline
  (:class:`DeadlineExceeded`);
* **durability**: periodic checkpoints
  (:class:`~repro.service.checkpoint.CheckpointStore` — atomic write,
  sha256) truncate the WAL; :meth:`KBService.restore` rebuilds the
  committed state from newest-valid-checkpoint + WAL-tail replay and
  re-applies transactions that had begun but never committed (the
  WAL's D1–D3; an update still in the in-memory queue is not covered).

:class:`ServiceServer` is a thin asyncio JSON-lines front end over a
``KBService`` for network clients; the service itself is synchronous
and thread-safe (one writer thread, any number of reader threads).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from repro.reliability.errors import ReliabilityError
from repro.reliability.faults import maybe_fire
from repro.reliability.pipeline import ReliableUpdatePipeline, replay_payload
from repro.reliability.retry import RetryPolicy
from repro.reliability.wal import DeltaLog
from repro.service.batcher import UpdateBatcher
from repro.service.checkpoint import CheckpointStore
from repro.service.health import HealthMonitor
from repro.service.queue import BoundedUpdateQueue, QueueFull


class ServiceError(ReliabilityError):
    """Base for client-facing service failures."""


class BackpressureError(ServiceError):
    """The admission queue is full — retry after the backlog drains."""


class StalenessExceeded(ServiceError):
    """The snapshot lags the write stream beyond the read's bound."""


class DeadlineExceeded(ServiceError):
    """The read could not be served within its deadline (load shed)."""


class ServiceUnavailable(ServiceError):
    """The service is crashed/stopped/unprimed — no snapshot to serve."""


@dataclass(frozen=True)
class StampedRead:
    """One served read: a zero-copy marginal view plus its guarantees.

    ``txn`` is the WAL transaction id of the last update the marginals
    reflect; ``lag`` is how many admitted updates had not yet committed
    when the read was served — by construction ``lag <=`` the caller's
    ``max_staleness``."""

    marginals: np.ndarray
    txn: int
    lag: int
    num_vars: int


@dataclass
class ServiceConfig:
    """Tuning knobs for :class:`KBService`."""

    #: Admission-queue capacity; submissions beyond it get
    #: :class:`BackpressureError`.
    queue_depth: int = 64
    #: Max payloads the batcher applies per drain.
    batch_max: int = 8
    #: Checkpoint every N commits (0 disables periodic checkpoints).
    checkpoint_every: int = 0
    #: Checkpoints retained on disk.
    checkpoint_keep: int = 3
    #: How often an *idle* batcher re-checks its stop flag, seconds (a
    #: submission wakes it at once).  Delays no commit, no ``drain()``
    #: and no read: those wake on the batcher's progress signal.
    poll_interval: float = 0.01
    #: fsync policy for the service WAL (see ``wal.FSYNC_POLICIES``).
    wal_fsync: str = "always"
    #: Clean-commit streak that lifts ``degraded`` (health machine).
    recover_after: int = 3


class KBService:
    """One grounder + one engine behind a queue, a WAL and checkpoints."""

    def __init__(
        self,
        grounder,
        engine,
        config: ServiceConfig | None = None,
        wal: DeltaLog | None = None,
        wal_path=None,
        checkpoint_dir=None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        if wal is None:
            wal = DeltaLog(wal_path, fsync=self.config.wal_fsync)
        self.pipeline = ReliableUpdatePipeline(
            grounder, engine, wal=wal, retry=retry
        )
        self.queue = BoundedUpdateQueue(self.config.queue_depth)
        self.health = HealthMonitor(recover_after=self.config.recover_after)
        self.batcher = UpdateBatcher(
            self, poll_interval=self.config.poll_interval
        )
        self.checkpoints = (
            CheckpointStore(checkpoint_dir, keep=self.config.checkpoint_keep)
            if checkpoint_dir is not None
            else None
        )
        self.reads = 0
        self.reads_shed = 0
        self.reads_stale_rejected = 0
        #: Populated by :meth:`restore` with how recovery went.
        self.recovery: dict = {}
        self._committed: tuple = (None, 0)  # (ReadSnapshot, wal txn)
        self._started = False
        self._crashed_reason: str | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle

    def start(self):
        """Start the background batcher; returns self for chaining."""
        if not self._started:
            self.batcher.start()
            self._started = True
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful shutdown: stop admitting, drain, stop the batcher.

        Every update admitted before the call is applied, logged and
        readable when it returns — unless draining takes longer than
        ``timeout`` seconds: then the batcher finishes the payload in
        hand and the rest is recorded in ``batcher.failed`` (counted in
        ``status()``), never silently dropped."""
        self.queue.close()
        if self._started:
            self.batcher.join_idle(timeout)
            self.batcher.stop()
            self._started = False
        self.pipeline.wal.close()

    def prime(self):
        """Run one empty update through the pipeline so reads have a
        snapshot before any real update arrives.  Synchronous (call
        before :meth:`start`); logged in the WAL like any transaction,
        so recovery replays it identically."""
        self.pipeline.apply_update()
        self._on_commit(self.pipeline.last_txn)
        return self._committed[0]

    def drain(self, timeout: float = 10.0) -> bool:
        """Block until every admitted update is applied (or timeout).
        Woken by the commit itself, not by a poll."""
        return self.batcher.join_idle(timeout)

    # ------------------------------------------------------------------ #
    # Write path

    def submit(
        self,
        inserts: dict | None = None,
        deletes: dict | None = None,
        relearn_epochs: int = 0,
        **ground_kwargs,
    ) -> int:
        """Admit one update; returns its queue sequence number.

        Raises :class:`BackpressureError` when the queue is full and
        :class:`ServiceUnavailable` when the service crashed or was
        stopped."""
        if self._crashed_reason is not None:
            raise ServiceUnavailable(f"service crashed: {self._crashed_reason}")
        payload = {
            "inserts": inserts,
            "deletes": deletes,
            "relearn_epochs": relearn_epochs,
            **ground_kwargs,
        }
        try:
            return self.queue.submit(payload)
        except QueueFull as exc:
            if self.queue.closed:
                # Not backpressure: no backlog will ever drain again.
                raise ServiceUnavailable("service stopped") from exc
            raise BackpressureError(str(exc)) from exc

    # Batcher callbacks (single writer thread) ------------------------- #

    def _on_commit(self, txn: int) -> None:
        snap = self.pipeline.engine.read_snapshot()
        # Atomic tuple swap: readers holding the old snapshot keep a
        # bit-exact view (engines replace, never mutate, the array).
        self._committed = (snap, txn)

    def _on_crash(self, reason: str) -> None:
        self._crashed_reason = reason
        self.health.record_crash(reason)
        self.batcher.notify_progress()

    # ------------------------------------------------------------------ #
    # Read path

    def lag(self) -> int:
        """Admitted-but-unapplied updates: the staleness of a read
        served right now.

        Computed from monotonic counters (``queue.accepted`` minus the
        batcher's processed count) rather than live queue depth, so the
        bound can transiently over-count an update whose snapshot is
        already installed but never under-count one that isn't."""
        return max(0, self.queue.accepted - self.batcher.processed)

    def read(
        self,
        max_staleness: int | None = None,
        deadline: float | None = None,
    ) -> StampedRead:
        """Serve the committed marginals under an explicit bound.

        ``max_staleness`` caps the lag a served read may carry (``None``
        = unbounded: serve whatever snapshot is committed).  With a
        ``deadline`` (seconds) the read *waits* for the backlog to drain
        below the bound and is
        load-shed with :class:`DeadlineExceeded` when time runs out;
        without one an over-stale read fails fast with
        :class:`StalenessExceeded`."""
        start = time.perf_counter()
        maybe_fire("service.read.start")
        stamped = self._serve(max_staleness, deadline, start)
        if stamped is None:
            # Over-stale with a deadline: sleep on the batcher's progress
            # signal.  The predicate is re-tested holding the condition,
            # so a commit between the test and the wait is not missed;
            # the fast path above never touches the lock.
            progress = self.batcher.progress
            with progress:
                while (
                    stamped := self._serve(max_staleness, deadline, start)
                ) is None:
                    elapsed = time.perf_counter() - start
                    progress.wait(max(deadline - elapsed, 0.0))
        return stamped

    def _serve(
        self, max_staleness: int | None, deadline: float | None, start: float
    ) -> StampedRead | None:
        """One attempt at :meth:`read`: the stamped snapshot, a typed
        refusal, or ``None`` when the caller should wait for progress
        (over-stale, deadline not yet reached)."""
        if self._crashed_reason is not None:
            raise ServiceUnavailable(
                f"service crashed: {self._crashed_reason}"
            )
        snap, txn = self._committed
        if snap is None:
            raise ServiceUnavailable("no committed snapshot (prime first)")
        lag = self.lag()
        if deadline is not None and time.perf_counter() - start > deadline:
            self.reads_shed += 1
            raise DeadlineExceeded(
                f"read not served within {deadline}s (lag={lag})"
            )
        if max_staleness is None or lag <= max_staleness:
            self.reads += 1
            return StampedRead(
                marginals=snap.marginals,
                txn=txn,
                lag=lag,
                num_vars=snap.num_vars,
            )
        if deadline is None:
            self.reads_stale_rejected += 1
            raise StalenessExceeded(
                f"lag {lag} exceeds max_staleness {max_staleness}"
            )
        return None

    def read_fact(self, var: int, **read_kwargs) -> tuple[float, StampedRead]:
        """Marginal probability of one variable, plus its read stamp."""
        stamped = self.read(**read_kwargs)
        if not 0 <= var < stamped.num_vars:
            raise IndexError(
                f"variable {var} out of range [0, {stamped.num_vars})"
            )
        return float(stamped.marginals[var]), stamped

    # ------------------------------------------------------------------ #
    # Durability

    def checkpoint(self) -> str | None:
        """Write a durable checkpoint at the current committed
        transaction and truncate the WAL up to it.  Call from the
        batcher (it does, every ``checkpoint_every`` commits) or from
        outside after :meth:`drain` — never concurrently with an
        in-flight update."""
        if self.checkpoints is None:
            return None
        txn = self.pipeline.last_txn
        state = {
            "grounder": self.pipeline.grounder,
            "engine": self.pipeline.engine,
            "txn": txn,
        }
        path = self.checkpoints.save(state, txn)
        # Truncate only past the *oldest retained* checkpoint: if the
        # newest one is later found corrupt, recovery falls back to an
        # older one and still needs the WAL tail between them.
        retained = self.checkpoints.list_txns()
        if retained:
            self.pipeline.wal.truncate(min(retained))
        return path

    def status(self) -> dict:
        """The health/throughput view a monitoring endpoint would poll."""
        snap, txn = self._committed
        return {
            "health": self.health.snapshot(),
            "queue": self.queue.stats(),
            "lag": self.lag(),
            "snapshot_txn": txn,
            "primed": snap is not None,
            "batcher": {
                "commits": self.batcher.commits,
                "failures": self.batcher.failures,
                "in_flight": self.batcher.in_flight,
            },
            "pipeline": {
                "updates": self.pipeline.updates,
                "retries": self.pipeline.retries,
                "rollbacks": self.pipeline.rollbacks,
                "last_txn": self.pipeline.last_txn,
            },
            "inference": self._inference_status(),
            "reads": {
                "served": self.reads,
                "shed": self.reads_shed,
                "stale_rejected": self.reads_stale_rejected,
            },
            "checkpoints": {
                "saved": self.checkpoints.saved if self.checkpoints else 0,
                "corrupt_skipped": (
                    self.checkpoints.corrupt_skipped if self.checkpoints else 0
                ),
            },
            "recovery": self.recovery,
        }

    def _inference_status(self) -> dict | None:
        """What the optimizer did with the last committed update (``None``
        before the first commit and after a restore that replayed
        nothing).  ``samples_remaining`` is the engine's bundle now; a
        Rerun engine has no bundle and no decision."""
        outcome = self.pipeline.last_outcome
        if outcome is None:
            return None
        decision = outcome.decision
        sampling = getattr(self.pipeline.engine, "sampling", None)
        return {
            "strategy": outcome.strategy,
            "rule": decision.rule if decision is not None else None,
            "reason": decision.reason if decision is not None else None,
            "acceptance_rate": outcome.acceptance_rate,
            "samples_used": outcome.samples_used,
            "fell_back": outcome.fell_back,
            "samples_remaining": (
                sampling.samples_remaining if sampling is not None else None
            ),
        }

    # ------------------------------------------------------------------ #
    # Crash recovery

    @classmethod
    def restore(
        cls,
        wal_path,
        factory,
        checkpoint_dir=None,
        config: ServiceConfig | None = None,
        retry: RetryPolicy | None = None,
        force_cold: bool = False,
    ) -> "KBService":
        """Rebuild a service from its durable state after a crash.

        ``factory`` returns a fresh, materialized ``(grounder, engine)``
        pair — the cold-start recipe.  Recovery prefers the newest
        *valid* checkpoint (corrupt ones are detected by checksum and
        skipped) and replays only the WAL tail past it; with no usable
        checkpoint (or ``force_cold=True``) it replays the full
        committed history onto the factory pair.  Transactions that
        began but never committed (``pending`` in the WAL) are rolled
        back in the log and re-applied through the fresh pipeline.

        What that recovers is the WAL's contract (D1–D3 in
        :mod:`repro.reliability.wal`), from only the bytes that were
        fsync'd: every update whose commit was observed (``drain()``
        returned, a read carried its ``txn``) is restored (D1); every
        update the batcher had *begun* is restored, re-applied, or was
        rolled back as terminally failed (D2); and the log is a prefix
        of what was written (D3).  An update that ``submit()`` admitted
        but the batcher had not begun lives only in the in-memory
        queue and is **lost** by any crash — admission is not a
        durability acknowledgement; a committed read stamp is.

        Deterministic serial stacks make the result bit-exact: the
        restored marginals equal a never-crashed twin's."""
        config = config or ServiceConfig()
        maybe_fire("service.recover.start")
        wal = DeltaLog(wal_path, fsync=config.wal_fsync)
        store = (
            CheckpointStore(checkpoint_dir, keep=config.checkpoint_keep)
            if checkpoint_dir is not None
            else None
        )
        state, ckpt_txn = (None, 0)
        if store is not None and not force_cold:
            state, ckpt_txn = store.load()
        if state is not None:
            grounder, engine = state["grounder"], state["engine"]
            mode = "checkpoint"
        else:
            grounder, engine = factory()
            ckpt_txn = 0
            mode = "cold"
        floor = wal.truncated_below()
        if floor > ckpt_txn:
            # Checkpointing truncated the WAL below ``floor``: the
            # committed prefix up to that transaction exists only inside
            # a checkpoint.  Replaying the remaining tail onto a state
            # older than the floor would silently rebuild a *partial*
            # history — refuse instead.
            raise ServiceUnavailable(
                f"WAL {wal_path} is truncated below txn {floor} but "
                f"recovery starts at txn {ckpt_txn} "
                f"({mode}); a checkpoint at or past the floor is "
                f"required — cold replay would lose transactions "
                f"1..{floor}"
            )
        replayed = 0
        last_txn = ckpt_txn
        last_outcome = None
        for txn, payload in wal.committed():
            if txn <= ckpt_txn:
                continue
            last_outcome = replay_payload(grounder, engine, payload)
            replayed += 1
            last_txn = max(last_txn, txn)
        # Admitted-but-uncommitted transactions: close them in the log
        # (their partial effects never committed — the engine rolled
        # back or the process died first) and re-apply them cleanly.
        pending = wal.pending()
        for txn, _payload in pending:
            wal.rollback(txn, reason="superseded by recovery")
        service = cls(
            grounder,
            engine,
            config=config,
            wal=wal,
            checkpoint_dir=checkpoint_dir,
            retry=retry,
        )
        if store is not None:
            # Keep the store that performed the load so its
            # ``corrupt_skipped`` accounting survives into status().
            service.checkpoints = store
        service.pipeline.last_txn = last_txn
        service.pipeline.last_outcome = last_outcome
        reapplied = 0
        for _txn, payload in pending:
            service.pipeline.apply_update(
                **{k: v for k, v in payload.items() if v}
            )
            reapplied += 1
        service._on_commit(service.pipeline.last_txn)
        service.health.reset(
            f"restored ({mode}) at txn {ckpt_txn}, replayed {replayed}, "
            f"re-applied {reapplied} pending"
        )
        service.recovery = {
            "mode": mode,
            "checkpoint_txn": ckpt_txn,
            "replayed": replayed,
            "pending_reapplied": reapplied,
            "last_txn": service.pipeline.last_txn,
        }
        return service


# --------------------------------------------------------------------- #
# Network front end

#: Longest request line the front end reads, in bytes.  asyncio's
#: default (64 KiB) is smaller than one update carrying a document
#: batch (6 000 ``PersonCandidate`` rows are ≈ 118 KB of JSON).
REQUEST_LINE_LIMIT = 16 * 1024 * 1024


class ServiceServer:
    """Asyncio JSON-lines TCP front end over a :class:`KBService`.

    One request per line, one JSON response per line::

        {"op": "update", "inserts": {...}}    -> {"ok": true, "seq": 3}
        {"op": "read", "max_staleness": 2}    -> {"ok": true, "txn": ..}
        {"op": "fact", "var": 7}              -> {"ok": true, "p": 0.93}
        {"op": "status"}                      -> {"ok": true, "status": ..}

    Blocking service calls run in the default executor so slow reads
    (deadline waits) never stall the event loop.  Errors come back as
    ``{"ok": false, "error": "<ExceptionName>", "detail": "..."}`` —
    backpressure and staleness rejections and malformed requests are
    protocol answers, not connection failures.  A line longer than
    :data:`REQUEST_LINE_LIMIT` is answered with a ``ValueError`` and
    then the connection closes: where the stream stands after an
    overrun is undefined.

    asyncio is imported by the methods that run the server, so a
    process that serves a :class:`KBService` in-process never loads it.
    """

    def __init__(self, service: KBService, host: str = "127.0.0.1") -> None:
        self.service = service
        self.host = host
        self.port: int | None = None
        self._server = None  # an asyncio.Server while started

    async def start(self) -> int:
        import asyncio

        self.service.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, 0, limit=REQUEST_LINE_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(self, reader, writer) -> None:
        import asyncio

        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # the line overran REQUEST_LINE_LIMIT
                    overrun = ValueError(
                        f"request line exceeds {REQUEST_LINE_LIMIT} bytes"
                    )
                    writer.write(json.dumps(_error(overrun)).encode() + b"\n")
                    await writer.drain()
                    break
                if not line:
                    break
                try:
                    request = json.loads(line)
                    response = await loop.run_in_executor(
                        None, self._dispatch, request
                    )
                except Exception as exc:  # noqa: BLE001 — protocol boundary
                    response = _error(exc)
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
        finally:
            writer.close()

    def _dispatch(self, request) -> dict:
        if not isinstance(request, dict):
            raise ValueError(
                f"a request must be a JSON object, got {type(request).__name__}"
            )
        op = request.get("op")
        if op == "update":
            seq = self.service.submit(
                inserts=_rows("inserts", request.get("inserts")),
                deletes=_rows("deletes", request.get("deletes")),
                relearn_epochs=_number(request, "relearn_epochs", int, default=0),
            )
            return {"ok": True, "seq": seq}
        if op == "read":
            stamped = self.service.read(**_read_bounds(request))
            return {
                "ok": True,
                "txn": stamped.txn,
                "lag": stamped.lag,
                "num_vars": stamped.num_vars,
                "mean_marginal": float(stamped.marginals.mean()),
            }
        if op == "fact":
            p, stamped = self.service.read_fact(
                _number(request, "var", int, minimum=None), **_read_bounds(request)
            )
            return {"ok": True, "p": p, "txn": stamped.txn, "lag": stamped.lag}
        if op == "status":
            return {"ok": True, "status": _jsonable(self.service.status())}
        raise ValueError(f"unknown op {op!r}")


def _error(exc: Exception) -> dict:
    return {"ok": False, "error": type(exc).__name__, "detail": str(exc)}


_REQUIRED = object()


def _number(request: dict, field: str, kind, default=_REQUIRED, minimum=0):
    """``request[field]`` as a JSON number of ``kind`` (``int``, or
    ``(int, float)``; never a bool) at least ``minimum``, or ``default``
    when it is absent or null.  Anything else is a ``ValueError`` naming
    ``field``."""
    value = request.get(field)
    if value is None:
        if default is _REQUIRED:
            raise ValueError(f"{field!r} is required")
        return default
    if (
        isinstance(value, bool)
        or not isinstance(value, kind)
        or (minimum is not None and not value >= minimum)
    ):
        what = "an integer" if kind is int else "a number"
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{field!r} must be {what}{bound}, got {value!r}")
    return value


def _read_bounds(request: dict) -> dict:
    """A read request's staleness and deadline bounds, checked."""
    return {
        "max_staleness": _number(request, "max_staleness", int, default=None),
        "deadline": _number(request, "deadline", (int, float), default=None),
    }


def _rows(field: str, relations) -> dict | None:
    """JSON arrays → the tuple rows the grounder expects.  ``field``
    must map relation names to arrays of arrays; anything else is a
    ``ValueError`` naming it."""
    if relations is None:
        return None
    if not isinstance(relations, dict):
        raise ValueError(
            f"{field!r} must map relation names to arrays of rows, "
            f"got {type(relations).__name__}"
        )
    rows_by_name = {}
    for name, rows in relations.items():
        if not isinstance(rows, list) or not all(
            isinstance(row, list) for row in rows
        ):
            raise ValueError(f"{field}[{name!r}] must be an array of arrays")
        rows_by_name[name] = [tuple(row) for row in rows]
    return rows_by_name


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj
