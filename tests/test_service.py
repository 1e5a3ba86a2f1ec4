"""Online KB service suite: admission control, bounded staleness,
snapshot isolation, crash recovery.

Layered like the service itself:

* Unit: :class:`BoundedUpdateQueue` admission, :class:`HealthMonitor`
  transitions, :class:`CheckpointStore` atomicity/corruption fallback.
* Service: reads are stamped and zero-copy isolated (a held snapshot
  stays bit-exact while writes commit), staleness bounds reject or
  load-shed, failed batches degrade health, a simulated kill mid-batch
  leaves durable state from which :meth:`KBService.restore` rebuilds
  marginals **bit-identical** to a never-crashed twin — from a
  checkpoint + WAL tail, from an older checkpoint when the newest is
  corrupt, and cold from the full WAL.
* Front end: the asyncio JSON-lines server round-trips update / read /
  fact / status and returns protocol errors, not broken connections.
"""

import asyncio
import dataclasses
import json
import pathlib
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from repro.core import IncrementalEngine
from repro.grounding import IncrementalGrounder
from repro.kbc.pipeline import KBCPipeline
from repro.reliability import DeltaLog, Fault, FaultPlan, inject_faults
from repro.service import (
    CRASHED,
    DEGRADED,
    HEALTHY,
    RECOVERING,
    BackpressureError,
    BoundedUpdateQueue,
    CheckpointError,
    CheckpointStore,
    DeadlineExceeded,
    HealthMonitor,
    KBService,
    QueueFull,
    ServiceConfig,
    ServiceServer,
    ServiceUnavailable,
    StalenessExceeded,
)
from repro.service import server as server_module

from repro.workloads.systems import build_pipeline, workload_by_name

from tests.helpers import stack_state
from tests.test_grounding import spouse_db, spouse_program
from tests.test_reliability import FAST_RETRY, STACK_SITES, small_config

UPDATE_A = {
    "inserts": {
        "PersonCandidate": [("s3", "m5"), ("s3", "m6")],
        "PhraseFeature": [("m5", "m6", "and his wife")],
    }
}
UPDATE_B = {
    "inserts": {
        "PersonCandidate": [("s4", "m7"), ("s4", "m8")],
        "PhraseFeature": [("m7", "m8", "married")],
    }
}


def make_stack():
    program = spouse_program()
    db = spouse_db(program)
    grounder = IncrementalGrounder.from_scratch(program, db)
    engine = IncrementalEngine(grounder.graph, small_config())
    engine.materialize()
    return grounder, engine


def make_service(config=None, **kw):
    grounder, engine = make_stack()
    cfg = config or ServiceConfig(poll_interval=0.005)
    return KBService(grounder, engine, config=cfg, retry=FAST_RETRY, **kw)


def twin_marginals(updates, relearn_epochs=0):
    """Marginals of a never-faulted stack: prime + each update, applied
    directly through an identical pipeline."""
    svc = make_service()
    svc.prime()
    for update in updates:
        svc.pipeline.apply_update(relearn_epochs=relearn_epochs, **update)
    svc._on_commit(svc.pipeline.last_txn)
    return svc.read(max_staleness=None).marginals.copy()


# --------------------------------------------------------------------- #
# Unit layer


class TestBoundedUpdateQueue:
    def test_fifo_with_sequence_numbers(self):
        q = BoundedUpdateQueue(maxsize=4)
        assert q.submit({"u": 1}) == 1
        assert q.submit({"u": 2}) == 2
        batch = q.drain(max_batch=8, timeout=0)
        assert batch == [(1, {"u": 1}), (2, {"u": 2})]
        assert q.depth() == 0

    def test_full_queue_rejects(self):
        q = BoundedUpdateQueue(maxsize=2)
        q.submit({})
        q.submit({})
        with pytest.raises(QueueFull):
            q.submit({})
        stats = q.stats()
        assert stats["rejected"] == 1
        assert stats["accepted"] == 2
        assert stats["high_water"] == 2
        # Draining frees capacity again.
        q.drain(max_batch=1, timeout=0)
        assert q.submit({}) == 3

    def test_drain_respects_batch_limit(self):
        q = BoundedUpdateQueue(maxsize=8)
        for u in range(5):
            q.submit({"u": u})
        assert len(q.drain(max_batch=3, timeout=0)) == 3
        assert q.depth() == 2

    def test_closed_queue_rejects(self):
        q = BoundedUpdateQueue(maxsize=2)
        q.close()
        with pytest.raises(QueueFull):
            q.submit({})


class TestHealthMonitor:
    def test_degrade_recover_cycle(self):
        h = HealthMonitor(recover_after=2)
        assert h.state == HEALTHY
        h.record_failure("boom")
        assert h.state == DEGRADED
        h.record_commit()
        assert h.state == DEGRADED
        h.record_commit()
        assert h.state == RECOVERING
        h.record_commit()
        assert h.state == HEALTHY
        states = [(old, new) for old, new, _ in h.transitions]
        assert states == [
            (HEALTHY, DEGRADED),
            (DEGRADED, RECOVERING),
            (RECOVERING, HEALTHY),
        ]

    def test_failure_resets_clean_streak(self):
        h = HealthMonitor(recover_after=2)
        h.record_failure("a")
        h.record_commit()
        h.record_failure("b")
        assert h.clean_streak == 0
        assert h.failures == 2
        assert h.state == DEGRADED

    def test_crash_is_terminal_until_reset(self):
        h = HealthMonitor()
        h.record_crash("killed")
        h.record_commit()
        h.record_failure("ignored")
        assert h.state == CRASHED
        h.reset()
        assert h.state == HEALTHY


class TestCheckpointStore:
    def test_roundtrip_and_retention(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        for txn in (1, 2, 3):
            store.save({"txn": txn, "data": list(range(txn))}, txn)
        assert store.list_txns() == [2, 3]  # oldest evicted
        state, txn = store.load()
        assert txn == 3
        assert state == {"txn": 3, "data": [0, 1, 2]}

    def test_corrupt_newest_falls_back(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=3)
        store.save({"txn": 1}, 1)
        path2 = store.save({"txn": 2}, 2)
        with open(path2, "r+b") as fh:
            fh.seek(30)
            fh.write(b"\xff" * 16)
        state, txn = store.load()
        assert (state, txn) == ({"txn": 1}, 1)
        assert store.corrupt_skipped == 1
        # The damaged file moved out of the checkpoint namespace.
        assert store.list_txns() == [1]

    def test_older_format_is_skipped_like_a_corrupt_file(self, tmp_path):
        """A checkpoint written before the pickled state changed
        shape (magic ``CKPT0016``) is valid by its own checksum and must
        still not be unpickled: it fails typed at load, not with an
        ``AttributeError`` at the first ``apply_delta`` after recovery."""
        store = CheckpointStore(tmp_path, keep=3)
        store.save({"txn": 1}, 1)
        path2 = store.save({"txn": 2}, 2)
        with open(path2, "r+b") as fh:
            assert fh.read(8) == b"CKPT0017"
            fh.seek(0)
            fh.write(b"CKPT0016")
        with pytest.raises(CheckpointError, match="bad magic"):
            store._read(path2)
        assert store.load() == ({"txn": 1}, 1)
        assert store.corrupt_skipped == 1
        assert store.list_txns() == [1]
        # With nothing older to fall back to, recovery is the WAL's.
        only = CheckpointStore(tmp_path / "only")
        path = only.save({"txn": 7}, 7)
        with open(path, "r+b") as fh:
            fh.write(b"CKPT0008")
        assert only.load() == (None, 0) and only.corrupt_skipped == 1

    def test_empty_store(self, tmp_path):
        assert CheckpointStore(tmp_path).load() == (None, 0)


# --------------------------------------------------------------------- #
# Service layer


class TestKBServiceReads:
    def test_prime_then_stamped_read(self):
        svc = make_service()
        with pytest.raises(ServiceUnavailable):
            svc.read()
        svc.prime()
        stamped = svc.read()
        assert stamped.txn == 1  # prime's WAL transaction
        assert stamped.lag == 0
        assert stamped.num_vars == stamped.marginals.shape[0] > 0
        # Snapshots are read-only views: a client cannot corrupt the
        # committed marginals.
        with pytest.raises(ValueError):
            stamped.marginals[0] = 0.5

    def test_read_fact_bounds(self):
        svc = make_service()
        svc.prime()
        p, stamped = svc.read_fact(0)
        assert 0.0 <= p <= 1.0
        assert stamped.txn == 1
        with pytest.raises(IndexError):
            svc.read_fact(stamped.num_vars)

    def test_snapshot_isolation_across_commit(self):
        # Satellite regression: a reader holding a snapshot must see the
        # pre-transaction marginals bit-exact while a write commits.
        svc = make_service().start()
        svc.prime()
        held = svc.read()
        frozen = held.marginals.copy()
        svc.submit(**UPDATE_A)
        assert svc.drain(timeout=30)
        fresh = svc.read()
        assert fresh.txn > held.txn
        # The held view is untouched — the engine replaced, not mutated,
        # its marginal array.
        np.testing.assert_array_equal(held.marginals, frozen)
        assert not np.shares_memory(held.marginals, fresh.marginals)
        assert fresh.marginals.shape[0] > held.marginals.shape[0]
        svc.stop()

    def test_concurrent_reader_sees_monotonic_txns(self):
        svc = make_service().start()
        svc.prime()
        seen = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                stamped = svc.read()
                seen.append(stamped.txn)

        t = threading.Thread(target=reader, daemon=True)
        t.start()
        for update in (UPDATE_A, UPDATE_B):
            svc.submit(**update)
        assert svc.drain(timeout=60)
        stop.set()
        t.join(5)
        assert seen, "reader never ran"
        assert all(a <= b for a, b in zip(seen, seen[1:]))
        svc.stop()

    def test_service_matches_direct_pipeline(self):
        svc = make_service().start()
        svc.prime()
        svc.submit(**UPDATE_A)
        svc.submit(**UPDATE_B)
        assert svc.drain(timeout=60)
        stamped = svc.read(max_staleness=0)
        expected = twin_marginals([UPDATE_A, UPDATE_B])
        np.testing.assert_array_equal(stamped.marginals, expected)
        assert stamped.txn == 3
        svc.stop()


class TestAdmissionAndStaleness:
    def test_backpressure_when_queue_full(self):
        svc = make_service(config=ServiceConfig(queue_depth=2))
        svc.prime()
        # Batcher not started: nothing drains.
        svc.submit(**UPDATE_A)
        svc.submit(**UPDATE_B)
        with pytest.raises(BackpressureError):
            svc.submit(**UPDATE_A)
        assert svc.status()["queue"]["rejected"] == 1

    def test_submit_after_stop_is_unavailable_not_backpressure(self):
        """A stopped service never drains again: "retry after the backlog
        drains" (BackpressureError) would be the wrong answer."""
        svc = make_service()
        svc.prime()
        svc.start()
        svc.stop()
        with pytest.raises(ServiceUnavailable, match="stopped"):
            svc.submit(**UPDATE_A)
        assert svc.status()["queue"]["rejected"] == 0  # not a full queue

    def test_stale_read_rejected_or_served_by_bound(self):
        svc = make_service()
        svc.prime()
        svc.submit(**UPDATE_A)  # admitted, never applied (no batcher)
        assert svc.lag() == 1
        with pytest.raises(StalenessExceeded):
            svc.read(max_staleness=0)
        stamped = svc.read(max_staleness=1)
        assert stamped.lag == 1
        assert stamped.txn == 1  # still the primed snapshot

    def test_deadline_read_sheds_when_backlog_never_drains(self):
        svc = make_service()
        svc.prime()
        svc.submit(**UPDATE_A)
        with pytest.raises(DeadlineExceeded):
            svc.read(max_staleness=0, deadline=0.05)
        assert svc.reads_shed == 1

    def test_deadline_read_served_once_backlog_drains(self):
        svc = make_service().start()
        svc.prime()
        svc.submit(**UPDATE_A)
        stamped = svc.read(max_staleness=0, deadline=30)
        assert stamped.lag == 0
        assert stamped.txn == 2
        svc.stop()

    def test_slow_read_fault_sheds_by_deadline(self):
        svc = make_service()
        svc.prime()
        plan = FaultPlan(
            [Fault(site="service.read.start", action="delay", delay=0.08)]
        )
        with inject_faults(plan):
            with pytest.raises(DeadlineExceeded):
                svc.read(deadline=0.02)
        assert plan.fired_sites() == ["service.read.start"]
        # Without the injected latency the same read serves instantly.
        assert svc.read(deadline=0.02).txn == 1


class TestHealthDegradation:
    def test_failed_batch_degrades_then_recovers(self):
        svc = make_service(
            config=ServiceConfig(poll_interval=0.005, recover_after=1)
        ).start()
        svc.prime()
        # Every retry attempt of the first update fails: the pipeline
        # exhausts its attempts, rolls back, and the batcher records a
        # terminal failure instead of wedging the queue.  (A failure
        # after grounding does the same — see TestCrashRecovery.)
        plan = FaultPlan(
            [Fault(site="ground.update.start", at=1, repeat=True)]
        )
        with inject_faults(plan):
            svc.submit(**UPDATE_A)
            assert svc.drain(timeout=60)
        status = svc.status()
        assert status["health"]["state"] == DEGRADED
        assert status["batcher"]["failures"] == 1
        assert svc.pipeline.rollbacks == 1
        # The failed update left no snapshot change and no lag debt.
        assert svc.lag() == 0
        assert svc.read(max_staleness=0).txn == 1
        # Clean commits walk health back to healthy.
        svc.submit(**UPDATE_B)
        assert svc.drain(timeout=60)
        svc.submit(**UPDATE_A)
        assert svc.drain(timeout=60)
        assert svc.status()["health"]["state"] == HEALTHY
        svc.stop()

    def test_rejected_payload_is_not_retried_and_the_batcher_goes_on(self):
        svc = make_service().start()
        svc.prime()
        svc.submit(inserts={"NoSuchRelation": [("x",)]})
        svc.submit(**UPDATE_A)
        svc.submit(**UPDATE_B)
        assert svc.drain(timeout=60)
        pipeline = svc.pipeline
        assert pipeline.retries == 0
        assert pipeline.rollbacks == 1
        assert [seq for seq, _ in svc.batcher.failed] == [1]
        assert "RejectedKeyError" in svc.batcher.failed[0][1]
        assert svc.status()["batcher"]["failures"] == 1
        assert svc.lag() == 0
        assert svc.read(max_staleness=0).txn == pipeline.last_txn
        np.testing.assert_array_equal(
            svc.read().marginals, twin_marginals([UPDATE_A, UPDATE_B])
        )
        svc.stop()


class TestWakeOnCommit:
    """``drain()`` and deadline reads sleep on the batcher's progress
    signal.  A two-second ``poll_interval`` makes any leftover timed poll
    on those paths show up as a two-second wait."""

    SLOW_POLL = 2.0

    def make(self):
        svc = make_service(
            config=ServiceConfig(poll_interval=self.SLOW_POLL)
        ).start()
        svc.prime()
        return svc

    @staticmethod
    def stamp_calls(obj, name):
        """Wrap ``obj.name`` to record ``time.monotonic()`` after each call."""
        stamps = []
        inner = getattr(obj, name)

        def stamped(*args, **kwargs):
            out = inner(*args, **kwargs)
            stamps.append(time.monotonic())
            return out

        setattr(obj, name, stamped)
        return stamps

    def test_drain_returns_with_the_commit(self):
        svc = self.make()
        start = time.monotonic()
        svc.submit(**UPDATE_A)
        assert svc.drain(timeout=30)
        assert time.monotonic() - start < 1.0
        assert svc.read(max_staleness=0).txn == 2
        svc.stop()

    def test_deadline_read_returns_with_the_commit(self):
        svc = self.make()
        committed_at = self.stamp_calls(svc, "_on_commit")
        # Hold the update in flight so the read is issued against lag 1
        # and has to wait for the commit.
        plan = FaultPlan(
            [Fault(site="service.batch.start", action="delay", delay=0.3)]
        )
        with inject_faults(plan):
            svc.submit(**UPDATE_A)
            stamped = svc.read(max_staleness=0, deadline=30)
            served_at = time.monotonic()
        assert plan.fired_sites() == ["service.batch.start"]
        assert (stamped.txn, stamped.lag) == (2, 0)
        assert len(committed_at) == 1
        assert served_at - committed_at[0] < 0.5
        svc.stop()

    def test_crash_wakes_blocked_drain_and_read(self):
        svc = self.make()
        crashed_at = self.stamp_calls(svc, "_on_crash")
        outcomes = {}

        def blocked(name, call):
            try:
                outcomes[name] = call()
            except Exception as exc:  # noqa: BLE001 — the outcome under test
                outcomes[name] = exc
            outcomes[name + "_at"] = time.monotonic()

        plan = FaultPlan(
            [
                # Held long enough for both waiters to block first.
                Fault(site="service.batch.start", action="delay", delay=0.3),
                Fault(site="engine.update.inferred", action="crash"),
            ]
        )
        with inject_faults(plan):
            svc.submit(**UPDATE_A)
            threads = [
                threading.Thread(
                    target=blocked,
                    args=("drain", lambda: svc.drain(timeout=30)),
                ),
                threading.Thread(
                    target=blocked,
                    args=(
                        "read",
                        lambda: svc.read(max_staleness=0, deadline=30),
                    ),
                ),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10)
        assert not any(t.is_alive() for t in threads)
        assert len(crashed_at) == 1
        assert outcomes["drain"] is False
        assert isinstance(outcomes["read"], ServiceUnavailable)
        assert outcomes["drain_at"] - crashed_at[0] < 1.0
        assert outcomes["read_at"] - crashed_at[0] < 1.0

    def test_terminal_failure_wakes_drain(self):
        svc = self.make()
        plan = FaultPlan(
            [Fault(site="ground.update.start", at=1, repeat=True)]
        )
        with inject_faults(plan):
            start = time.monotonic()
            svc.submit(**UPDATE_A)
            assert svc.drain(timeout=30)
            assert time.monotonic() - start < 1.0
        assert svc.status()["batcher"]["failures"] == 1
        assert svc.lag() == 0
        svc.stop()

    def test_no_lost_wakeup_under_thread_contention(self):
        # More waiters than cores, a 10 µs switch interval: a wake-up lost
        # between a waiter's predicate test and its wait would leave a
        # read asleep until its deadline, where it is shed.
        svc = self.make()
        done = threading.Event()
        served = [0] * 4
        errors = []

        def reader(slot):
            while not done.is_set():
                try:
                    stamped = svc.read(max_staleness=0, deadline=5.0)
                except Exception as exc:  # noqa: BLE001 — reported below
                    errors.append(exc)
                    return
                assert stamped.lag == 0
                served[slot] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=reader, args=(slot,))
                for slot in range(len(served))
            ]
            for t in threads:
                t.start()
            start = time.monotonic()
            for _ in range(40):
                svc.submit()  # an empty update: the cheapest transaction
                assert svc.drain(timeout=30)
            elapsed = time.monotonic() - start
            done.set()
            for t in threads:
                t.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert svc.reads_shed == 0
        assert all(served)
        assert svc.status()["batcher"]["commits"] == 40
        assert elapsed < 20.0
        svc.stop()


# --------------------------------------------------------------------- #
# Crash recovery


class TestStopDrains:
    """``stop()`` promises "stop admitting, drain, stop the batcher":
    every admitted update has an outcome when it returns."""

    UPDATES = (UPDATE_A, UPDATE_B, UPDATE_A)

    def test_admitted_updates_are_committed_logged_and_restorable(self, tmp_path):
        # ``batch_max=1`` and no wait between the submits and ``stop()``:
        # two payloads are still queued when the batcher is told to stop.
        wal_path = tmp_path / "service.wal"
        cfg = ServiceConfig(poll_interval=0.005, batch_max=1)
        svc = make_service(config=cfg, wal_path=wal_path).start()
        svc.prime()
        for update in self.UPDATES:
            svc.submit(**update)
        svc.stop()
        assert svc.batcher.commits == 3 and svc.batcher.failed == []
        assert svc.batcher.processed == svc.queue.accepted and svc.queue.depth() == 0
        expected = twin_marginals(self.UPDATES)
        np.testing.assert_array_equal(svc._committed[0].marginals, expected)
        with DeltaLog(wal_path) as audit:
            assert len(audit.committed()) == 4  # prime + the three
            assert audit.pending() == []
        restored = KBService.restore(
            wal_path, make_stack, config=cfg, retry=FAST_RETRY
        )
        np.testing.assert_array_equal(
            restored.read(max_staleness=0).marginals, expected
        )
        restored.stop()

    @pytest.mark.parametrize("batch_max", [1, 8])
    def test_what_outlasts_the_timeout_is_failed_not_lost(self, batch_max):
        """A slow apply and a short ``timeout``: the payload in hand
        finishes, the rest — still queued, or already drained into the
        batcher's batch — is recorded as failed."""
        cfg = ServiceConfig(poll_interval=0.005, batch_max=batch_max)
        svc = make_service(config=cfg).start()
        svc.prime()
        plan = FaultPlan(
            [Fault(site="service.batch.start", action="delay", delay=0.4, repeat=True)]
        )
        with inject_faults(plan):
            seqs = [svc.submit(**update) for update in self.UPDATES]
            svc.stop(timeout=0.05)
        assert not svc.batcher._thread.is_alive()
        assert svc.batcher.commits == 1
        assert [seq for seq, _ in svc.batcher.failed] == seqs[1:]
        assert all("not applied: service stopped" in why for _, why in svc.batcher.failed)
        assert svc.batcher.processed == svc.queue.accepted and svc.lag() == 0
        assert svc.status()["batcher"]["failures"] == 2
        np.testing.assert_array_equal(
            svc._committed[0].marginals, twin_marginals(self.UPDATES[:1])
        )

    def test_stop_after_a_crash_returns_at_once(self):
        cfg = ServiceConfig(poll_interval=0.005, batch_max=1)
        svc = make_service(config=cfg).start()
        svc.prime()
        plan = FaultPlan([Fault(site="service.batch.start", action="crash")])
        with inject_faults(plan):
            svc.submit(**UPDATE_A)
            svc.submit(**UPDATE_B)
            assert not svc.drain(timeout=5)
        start = time.monotonic()
        svc.stop(timeout=30)
        assert time.monotonic() - start < 1.0
        # The killed payload has no outcome; the one still queued does.
        assert [why for _, why in svc.batcher.failed] == ["not applied: service stopped"]

    def test_batcher_stop_wakes_a_parked_batcher(self):
        """``batcher.stop()`` wakes a batcher parked in ``queue.drain``
        instead of leaving it to sit out its ``poll_interval``."""
        svc = make_service(config=ServiceConfig(poll_interval=5.0)).start()
        time.sleep(0.1)  # the idle batcher parks in queue.drain
        start = time.monotonic()
        svc.batcher.stop(timeout=30)
        assert time.monotonic() - start < 1.0
        assert not svc.batcher._thread.is_alive()


class TestCrashRecovery:
    def test_kill_mid_batch_then_restore_matches_twin(self, tmp_path):
        wal_path = tmp_path / "service.wal"
        svc = make_service(wal_path=wal_path).start()
        svc.prime()
        svc.submit(**UPDATE_A)
        assert svc.drain(timeout=60)
        # Simulated SIGKILL after inference, before commit: the WAL keeps
        # the begin frame, the engine state dies with the process.
        plan = FaultPlan(
            [Fault(site="engine.update.inferred", action="crash")]
        )
        with inject_faults(plan):
            svc.submit(**UPDATE_B)
            deadline = time.monotonic() + 60
            while (
                svc.status()["health"]["state"] != CRASHED
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
        assert svc.status()["health"]["state"] == CRASHED
        with pytest.raises(ServiceUnavailable):
            svc.read()
        with pytest.raises(ServiceUnavailable):
            svc.submit(**UPDATE_A)
        # Durable state: prime + UPDATE_A committed, UPDATE_B pending.
        with DeltaLog(wal_path) as audit:
            assert len(audit.committed()) == 2
            assert len(audit.pending()) == 1

        restored = KBService.restore(
            wal_path,
            make_stack,
            config=ServiceConfig(poll_interval=0.005),
            retry=FAST_RETRY,
        )
        assert restored.recovery["mode"] == "cold"
        assert restored.recovery["replayed"] == 2
        assert restored.recovery["pending_reapplied"] == 1
        assert restored.status()["health"]["state"] == HEALTHY
        stamped = restored.read(max_staleness=0)
        expected = twin_marginals([UPDATE_A, UPDATE_B])
        np.testing.assert_array_equal(stamped.marginals, expected)
        # The WAL is clean again: nothing pending, history intact.
        assert restored.pipeline.wal.pending() == []
        restored.stop()

    @pytest.mark.parametrize("site", STACK_SITES)
    def test_terminal_fault_degrades_and_leaves_the_twin(self, site, tmp_path):
        # A terminal failure anywhere in the grounder or the engine rolls
        # the whole stack back: the service degrades instead of crashing,
        # its stack equals a twin's that never saw the update, later
        # updates commit, and a restore from the WAL — where the failed
        # transaction was rolled back — answers what the live service
        # answers.
        wal_path = tmp_path / "service.wal"
        svc = make_service(wal_path=wal_path).start()
        svc.prime()
        twin = make_service()
        twin.prime()
        plan = FaultPlan([Fault(site=site, repeat=True)])
        with inject_faults(plan):
            svc.submit(relearn_epochs=1, **UPDATE_A)
            assert svc.drain(timeout=60)
        assert plan.fired_sites().count(site) == FAST_RETRY.max_attempts
        status = svc.status()
        assert status["health"]["state"] == DEGRADED
        assert status["batcher"]["failures"] == 1
        pipe = svc.pipeline
        assert stack_state(pipe.grounder, pipe.engine) == stack_state(
            twin.pipeline.grounder, twin.pipeline.engine
        )
        svc.submit(**UPDATE_B)
        assert svc.drain(timeout=60)
        assert svc.status()["batcher"]["commits"] == 1
        live = svc.read(max_staleness=0).marginals
        np.testing.assert_array_equal(live, twin_marginals([UPDATE_B]))
        svc.stop()

        restored = KBService.restore(
            wal_path,
            make_stack,
            config=ServiceConfig(poll_interval=0.005),
            retry=FAST_RETRY,
        )
        assert restored.recovery["pending_reapplied"] == 0
        np.testing.assert_array_equal(restored.read(max_staleness=0).marginals, live)
        restored.stop()

    def test_a_failed_update_does_not_stop_its_batch(self, tmp_path):
        # Three payloads drained as one batch, the first fails after
        # grounding on every attempt: it is rolled back and recorded, and
        # the other two commit on the unchanged stack.
        wal_path = tmp_path / "service.wal"
        svc = make_service(wal_path=wal_path).start()
        svc.prime()
        parked, gate = threading.Event(), threading.Event()
        real_drain = svc.queue.drain

        def gated_drain(**kwargs):
            parked.set()
            assert gate.wait(30)
            return real_drain(**kwargs)

        svc.queue.drain = gated_drain
        assert parked.wait(30)  # the batcher holds no payload and waits
        seqs = [svc.submit(**update) for update in (UPDATE_A, UPDATE_B, UPDATE_A)]
        attempts = FAST_RETRY.max_attempts
        # A raise that fires stops the visit, so each of these fires on
        # the next visit after the one before it: once per attempt.
        plan = FaultPlan([Fault(site="engine.update.start") for _ in range(attempts)])
        with inject_faults(plan):
            gate.set()
            assert svc.drain(timeout=60)
        assert plan.fired_sites() == ["engine.update.start"] * attempts
        health = svc.status()["health"]
        assert health["failures"] == 1
        assert [new for _, new, _ in health["transitions"]][0] == DEGRADED
        assert CRASHED not in [new for _, new, _ in health["transitions"]]
        assert [seq for seq, _ in svc.batcher.failed] == seqs[:1]
        assert svc.batcher.commits == 2 and svc.lag() == 0
        with DeltaLog(wal_path) as audit:
            assert len(audit.committed()) == 3  # prime, UPDATE_B, UPDATE_A
            assert audit.pending() == []
        live = svc.read(max_staleness=0).marginals
        np.testing.assert_array_equal(live, twin_marginals([UPDATE_B, UPDATE_A]))
        svc.stop()

        restored = KBService.restore(
            wal_path,
            make_stack,
            config=ServiceConfig(poll_interval=0.005),
            retry=FAST_RETRY,
        )
        assert restored.recovery["pending_reapplied"] == 0
        np.testing.assert_array_equal(restored.read(max_staleness=0).marginals, live)
        restored.stop()

    def test_checkpoint_recovery_skips_replayed_history(self, tmp_path):
        wal_path = tmp_path / "service.wal"
        ckpt_dir = tmp_path / "ckpt"
        cfg = ServiceConfig(poll_interval=0.005, checkpoint_every=1)
        svc = make_service(
            config=cfg, wal_path=wal_path, checkpoint_dir=ckpt_dir
        ).start()
        svc.prime()
        svc.submit(**UPDATE_A)
        svc.submit(**UPDATE_B)
        assert svc.drain(timeout=60)
        svc.stop()
        assert svc.checkpoints.list_txns() == [2, 3]

        restored = KBService.restore(
            wal_path,
            make_stack,
            checkpoint_dir=ckpt_dir,
            config=cfg,
            retry=FAST_RETRY,
        )
        assert restored.recovery["mode"] == "checkpoint"
        assert restored.recovery["checkpoint_txn"] == 3
        assert restored.recovery["replayed"] == 0
        assert restored.status()["inference"] is None  # nothing ran here
        expected = twin_marginals([UPDATE_A, UPDATE_B])
        np.testing.assert_array_equal(
            restored.read(max_staleness=0).marginals, expected
        )
        restored.stop()

    def test_corrupt_checkpoint_falls_back_to_older(self, tmp_path):
        wal_path = tmp_path / "service.wal"
        ckpt_dir = tmp_path / "ckpt"
        cfg = ServiceConfig(poll_interval=0.005, checkpoint_every=1)
        svc = make_service(
            config=cfg, wal_path=wal_path, checkpoint_dir=ckpt_dir
        ).start()
        svc.prime()
        svc.submit(**UPDATE_A)
        assert svc.drain(timeout=60)
        # The second checkpoint write is corrupted on disk by the fault
        # harness (seeded scribble over the durable file).
        plan = FaultPlan(
            [Fault(site="service.checkpoint.write", action="corrupt", at=1)]
        )
        with inject_faults(plan):
            svc.submit(**UPDATE_B)
            assert svc.drain(timeout=60)
        svc.stop()
        assert plan.fired_sites() == ["service.checkpoint.write"]

        restored = KBService.restore(
            wal_path,
            make_stack,
            checkpoint_dir=ckpt_dir,
            config=cfg,
            retry=FAST_RETRY,
        )
        # Newest (txn 3) was corrupt: detected by checksum, skipped;
        # recovery used txn 2's checkpoint and replayed txn 3 from the
        # WAL tail (kept because truncation only passes the oldest
        # retained checkpoint).
        assert restored.recovery["mode"] == "checkpoint"
        assert restored.recovery["checkpoint_txn"] == 2
        assert restored.recovery["replayed"] == 1
        # The replayed txn 3 found the 120-sample bundle used up.
        assert restored.status()["inference"]["rule"] == 4
        assert restored.checkpoints.corrupt_skipped == 1
        expected = twin_marginals([UPDATE_A, UPDATE_B])
        np.testing.assert_array_equal(
            restored.read(max_staleness=0).marginals, expected
        )
        restored.stop()

    def test_cold_replay_refused_on_truncated_wal(self, tmp_path):
        """Checkpointing truncates the WAL; a cold replay of what is
        left would silently lose the truncated prefix, so restore must
        refuse rather than rebuild partial state."""
        wal_path = tmp_path / "service.wal"
        ckpt_dir = tmp_path / "ckpt"
        cfg = ServiceConfig(poll_interval=0.005, checkpoint_every=1)
        svc = make_service(
            config=cfg, wal_path=wal_path, checkpoint_dir=ckpt_dir
        ).start()
        svc.prime()
        svc.submit(**UPDATE_A)
        assert svc.drain(timeout=60)
        svc.stop()
        assert DeltaLog(wal_path).truncated_below() > 0
        with pytest.raises(ServiceUnavailable, match="truncated below"):
            KBService.restore(
                wal_path,
                make_stack,
                checkpoint_dir=ckpt_dir,
                config=cfg,
                retry=FAST_RETRY,
                force_cold=True,
            )

    def test_force_cold_matches_checkpoint_recovery(self, tmp_path):
        wal_path = tmp_path / "service.wal"
        svc = make_service(wal_path=wal_path).start()
        svc.prime()
        svc.submit(**UPDATE_A)
        assert svc.drain(timeout=60)
        svc.stop()
        restored = KBService.restore(
            wal_path,
            make_stack,
            config=ServiceConfig(poll_interval=0.005),
            retry=FAST_RETRY,
            force_cold=True,
        )
        assert restored.recovery["mode"] == "cold"
        expected = twin_marginals([UPDATE_A])
        np.testing.assert_array_equal(
            restored.read(max_staleness=0).marginals, expected
        )
        restored.stop()


class TestInferenceStatus:
    def test_status_names_the_strategy_and_the_acceptance_rate(self):
        """``status()["inference"]``: which optimizer rule routed the last
        committed update, and how the bundle took it."""
        spec = workload_by_name("news")
        corpus = build_pipeline(spec, scale=0.3, seed=0).corpus
        base = dataclasses.replace(corpus, documents=corpus.documents[:-1])
        kbc = KBCPipeline(base, i1_style=spec.i1_style, seed=0)
        grounder = kbc.build_base()
        engine = IncrementalEngine(
            grounder.graph, small_config(materialization_samples=400)
        )
        engine.materialize()
        svc = KBService(
            grounder,
            engine,
            config=ServiceConfig(poll_interval=0.005),
            retry=FAST_RETRY,
        )
        assert svc.status()["inference"] is None
        svc.prime()
        svc.start()
        try:
            # A structural insert: the one held-back document.
            rows = KBCPipeline(
                dataclasses.replace(corpus, documents=corpus.documents[-1:]),
                i1_style=spec.i1_style,
            ).corpus_rows()
            rows.pop("KnownRel")
            svc.submit(inserts=rows)
            assert svc.drain()
            inference = svc.status()["inference"]
            assert (inference["strategy"], inference["rule"]) == ("sampling", 3)
            assert "structural" in inference["reason"]
            assert 0 < inference["acceptance_rate"] <= 1
            assert inference["samples_used"] == 80
            assert not inference["fell_back"]
            assert inference["samples_remaining"] == 400 - 2 * 80

            # An evidence flip: a gold pair the KB did not know labels its
            # candidates.
            known = {tuple(sorted(pair)) for pair in kbc._known_initial}
            e1, e2 = sorted(corpus.gold_pairs - known)[0]
            svc.submit(inserts={"KnownRel": [(e1, e2), (e2, e1)]})
            assert svc.drain()
            assert grounder.last_result.delta.changes_evidence
            inference = svc.status()["inference"]
            assert (inference["strategy"], inference["rule"]) == ("variational", 2)
            assert inference["acceptance_rate"] is None
            assert inference["samples_remaining"] == 400 - 2 * 80
        finally:
            svc.stop()


# --------------------------------------------------------------------- #
# Front end


class TestServiceServer:
    def test_json_lines_roundtrip(self):
        svc = make_service()
        svc.prime()

        async def scenario():
            server = ServiceServer(svc)
            port = await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def rpc(obj):
                writer.write(json.dumps(obj).encode() + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())

            status = await rpc({"op": "status"})
            assert status["ok"] and status["status"]["primed"]
            assert status["status"]["inference"]["strategy"] == "sampling"

            up = await rpc({"op": "update", "inserts": UPDATE_A["inserts"]})
            assert up["ok"] and up["seq"] == 1

            served = await rpc(
                {"op": "read", "max_staleness": 0, "deadline": 30}
            )
            assert served["ok"]
            assert served["txn"] == 2 and served["lag"] == 0
            assert 0.0 <= served["mean_marginal"] <= 1.0

            fact = await rpc({"op": "fact", "var": 0})
            assert fact["ok"] and 0.0 <= fact["p"] <= 1.0

            bad = await rpc({"op": "nope"})
            assert not bad["ok"] and bad["error"] == "ValueError"

            writer.close()
            await server.stop()

        asyncio.run(scenario())
        svc.stop()

    def test_update_to_a_stopped_service_answers_unavailable(self):
        svc = make_service()
        svc.prime()

        async def scenario():
            server = ServiceServer(svc)
            port = await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            svc.stop()  # the front end outlives the service behind it
            writer.write(
                json.dumps({"op": "update", "inserts": UPDATE_A["inserts"]}).encode()
                + b"\n"
            )
            await writer.drain()
            answer = json.loads(await reader.readline())
            assert answer["ok"] is False
            assert answer["error"] == "ServiceUnavailable"
            writer.close()
            await server.stop()

        asyncio.run(scenario())

    def test_staleness_rejection_is_a_protocol_answer(self):
        svc = make_service()  # batcher never started: backlog persists
        svc.prime()

        async def scenario():
            server = ServiceServer(svc)
            server.service._started = True  # skip batcher for this test
            port = await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def rpc(obj):
                writer.write(json.dumps(obj).encode() + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())

            await rpc({"op": "update", "inserts": UPDATE_A["inserts"]})
            rejected = await rpc({"op": "read", "max_staleness": 0})
            assert not rejected["ok"]
            assert rejected["error"] == "StalenessExceeded"
            # The connection survives the rejection.
            ok = await rpc({"op": "read"})
            assert ok["ok"] and ok["txn"] == 1

            writer.close()
            await server.stop()

        asyncio.run(scenario())

    def test_a_document_batch_fits_on_one_request_line(self):
        """One update of 6 000 candidate rows is ≈ 118 KB of JSON: past
        asyncio's default 64 KiB line limit, inside the front end's."""
        svc = make_service()
        svc.prime()
        update = {
            "op": "update",
            "inserts": {
                "PersonCandidate": [[f"s{i}", f"m{i}"] for i in range(6000)]
            },
        }
        line = json.dumps(update).encode() + b"\n"
        assert len(line) > 64 * 1024

        async def scenario():
            server = ServiceServer(svc)
            server.service._started = True  # the answer is all this checks
            port = await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(line)
            await writer.drain()
            answer = json.loads(await reader.readline())
            assert answer == {"ok": True, "seq": 1}
            writer.close()
            await server.stop()

        asyncio.run(scenario())

    def test_a_line_past_the_limit_is_answered_then_closed(self, monkeypatch):
        monkeypatch.setattr(server_module, "REQUEST_LINE_LIMIT", 4096)
        svc = make_service()
        svc.prime()

        async def scenario():
            server = ServiceServer(svc)
            server.service._started = True
            port = await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(json.dumps({"op": "status", "pad": "x" * 5000}).encode() + b"\n")
            await writer.drain()
            answer = json.loads(await reader.readline())
            assert answer["ok"] is False and answer["error"] == "ValueError"
            assert "4096" in answer["detail"]
            assert await reader.readline() == b""  # the server closed it
            writer.close()
            await server.stop()

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "request_, field",
        [
            ([1, 2], "object"),
            (5, "object"),
            ({"op": "update", "inserts": [1]}, "inserts"),
            ({"op": "update", "inserts": {"PersonCandidate": [1]}}, "inserts"),
            ({"op": "update", "deletes": {"PersonCandidate": "ab"}}, "deletes"),
            ({"op": "fact", "var": 1.5}, "var"),
            ({"op": "fact", "var": True}, "var"),
            ({"op": "fact"}, "var"),
            ({"op": "update", "relearn_epochs": -1}, "relearn_epochs"),
            ({"op": "update", "relearn_epochs": 2.5}, "relearn_epochs"),
            ({"op": "update", "relearn_epochs": "3"}, "relearn_epochs"),
            ({"op": "read", "max_staleness": "2"}, "max_staleness"),
            ({"op": "read", "max_staleness": -1}, "max_staleness"),
            ({"op": "fact", "var": 0, "max_staleness": 1.0}, "max_staleness"),
            ({"op": "read", "deadline": "1"}, "deadline"),
            ({"op": "read", "deadline": -0.5}, "deadline"),
            ({"op": "fact", "var": 0, "deadline": False}, "deadline"),
        ],
    )
    def test_malformed_requests_are_value_errors_naming_the_field(
        self, request_, field
    ):
        svc = make_service()
        svc.prime()

        async def scenario():
            server = ServiceServer(svc)
            server.service._started = True
            port = await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def rpc(obj):
                writer.write(json.dumps(obj).encode() + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())

            bad = await rpc(request_)
            assert bad["ok"] is False and bad["error"] == "ValueError"
            assert field in bad["detail"]
            assert svc.queue.accepted == 0
            # The connection survives the rejection.
            assert (await rpc({"op": "status"}))["ok"]
            writer.close()
            await server.stop()

        asyncio.run(scenario())


class TestLeanServingPath:
    def test_serving_path_loads_neither_scipy_nor_asyncio(self):
        """Ground → engine → :class:`KBService` → WAL / checkpoint /
        restore never calls scipy or asyncio, so neither is imported;
        ``numpy.ma`` comes with the package (numpy 2.x imports it at the
        first ``np.unique``), and nothing at all is first imported
        between ``prime()`` and the end of the restore."""
        root = pathlib.Path(__file__).resolve().parents[1]
        script = textwrap.dedent(
            """
            import sys
            sys.modules["scipy"] = None  # any import of it now raises
            sys.modules["asyncio"] = None
            import repro, repro.service
            assert "numpy.ma" in sys.modules
            import tempfile
            from pathlib import Path
            from repro.core import IncrementalEngine
            from repro.grounding import IncrementalGrounder
            from repro.service import KBService, ServiceConfig
            from tests.test_grounding import spouse_db, spouse_program
            from tests.test_reliability import FAST_RETRY, small_config

            def make_stack():
                program = spouse_program()
                grounder = IncrementalGrounder.from_scratch(program, spouse_db(program))
                engine = IncrementalEngine(grounder.graph, small_config())
                engine.materialize()
                return grounder, engine

            update_a = {"PersonCandidate": [("s3", "m5"), ("s3", "m6")],
                        "PhraseFeature": [("m5", "m6", "and his wife")]}
            update_b = {"PersonCandidate": [("s4", "m7"), ("s4", "m8")],
                        "PhraseFeature": [("m7", "m8", "married")]}
            with tempfile.TemporaryDirectory() as tmp:
                wal, ckpt = Path(tmp) / "service.wal", Path(tmp) / "ckpt"
                cfg = ServiceConfig(poll_interval=0.005, checkpoint_every=1)
                grounder, engine = make_stack()
                svc = KBService(grounder, engine, config=cfg, retry=FAST_RETRY,
                                wal_path=wal, checkpoint_dir=ckpt).start()
                before = set(sys.modules)
                svc.prime()
                svc.submit(inserts=update_a)
                svc.submit(inserts=update_b, relearn_epochs=1)
                assert svc.drain(timeout=60)
                served = svc.read(max_staleness=0)
                svc.stop()
                assert svc.batcher.commits == 2 and svc.batcher.failed == []
                restored = KBService.restore(wal, make_stack, checkpoint_dir=ckpt,
                                             config=cfg, retry=FAST_RETRY)
                assert (restored.read(max_staleness=0).marginals == served.marginals).all()
                restored.stop()
                assert set(sys.modules) == before, sorted(set(sys.modules) - before)
            loaded = {name.split(".")[0] for name, m in sys.modules.items() if m}
            assert not loaded & {"scipy", "asyncio"}
            print("lean")
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=root,
            env={"PYTHONPATH": f"{root / 'src'}:{root}", "PATH": ""},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "lean"
