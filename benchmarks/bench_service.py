"""Online KB service throughput, read latency and recovery time.

The service regime the paper motivates (§1, §5 — development loops over
a living KB) is only usable if reads stay fast and bounded-stale while
updates stream in, and if a crash costs bounded recovery time.  This
benchmark measures all three on a scaled spouse-extraction workload:

* ``mixed_load`` — a burst of updates pumped through the admission queue
  and batcher end to end (ground → patch → infer per WAL transaction)
  while a reader spins: committed updates/sec with backpressure retries
  counted, and read p50/p99 latency served from zero-copy snapshots
  while the batcher commits underneath.
* ``sustained`` — the closed loop a development session runs (submit one
  update, ``drain()``, repeat) through a file WAL, with a one-second
  ``poll_interval``: updates/sec, ``fsyncs_per_txn`` (two — ``begin``
  and ``commit``) and how long after the WAL commit the blocked
  ``drain()`` returns (``drain_wake_p50_ms`` / ``_p99_ms``; a timed poll
  anywhere on that path would read as hundreds of milliseconds).
* ``recovery`` — after a simulated kill mid-batch, wall-clock to
  :meth:`KBService.restore` from newest-checkpoint + WAL tail, vs the
  cold restart it replaces (rebuild stack + full-history replay).

``--check`` runs the CI chaos smoke instead: the spouse workload under
a seeded :class:`FaultPlan` — (A) kill mid-batch + process restart with
a concurrent bounded-staleness reader, (B) queue-full overflow, (C) a
corrupted newest checkpoint — each must recover to marginals
**bit-identical** to an unfaulted twin, with zero reads served beyond
their staleness bound — and (D) the ``sustained`` loop must cost exactly
two fsyncs per transaction and wake ``drain()`` within 5 ms of the
commit.  (Pool worker-kill recovery is ``bench_recovery.py --check``'s
job; service engines are serial so their state is checkpointable.)

Run: ``PYTHONPATH=src python benchmarks/bench_service.py
[--scale tiny|small|medium] [--check] [--baseline RECORD.json]``
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import threading
import time
from unittest import mock

import numpy as np

from repro.core import EngineConfig, IncrementalEngine
from repro.datalog import Atom, Program, Var, WeightSpec
from repro.grounding import IncrementalGrounder
from repro.reliability import Fault, FaultPlan, RetryPolicy, inject_faults
from repro.service import (
    CRASHED,
    BackpressureError,
    KBService,
    ServiceConfig,
    ServiceUnavailable,
)

from _helpers import emit_json

SCALES = {
    "tiny": {"base_sentences": 4, "updates": 6, "read_seconds": 1.0},
    "small": {"base_sentences": 10, "updates": 16, "read_seconds": 2.0},
    "medium": {"base_sentences": 30, "updates": 40, "read_seconds": 4.0},
}

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.01)

PHRASES = ("and his wife", "married", "friend of", "wed", "spouse of")


def spouse_program() -> Program:
    """The paper's running example (Fig. 2), as in the test fixtures."""
    program = Program(default_semantics="ratio")
    program.add_relation("PersonCandidate", ("s", "m"))
    program.add_relation("EL", ("m", "e"))
    program.add_relation("Married", ("e1", "e2"))
    program.add_relation("MarriedCandidate", ("m1", "m2"))
    program.add_relation("PhraseFeature", ("m1", "m2", "f"))
    program.declare_variable_relation("MarriedMentions", ("m1", "m2"))
    program.add_derivation_rule(
        "r1",
        Atom("MarriedCandidate", (Var("m1"), Var("m2"))),
        [
            Atom("PersonCandidate", (Var("s"), Var("m1"))),
            Atom("PersonCandidate", (Var("s"), Var("m2"))),
        ],
    )
    program.add_derivation_rule(
        "vars",
        Atom("MarriedMentions", (Var("m1"), Var("m2"))),
        [Atom("MarriedCandidate", (Var("m1"), Var("m2")))],
    )
    program.add_derivation_rule(
        "s1",
        Atom("MarriedMentions_Ev", (Var("m1"), Var("m2"), True)),
        [
            Atom("MarriedCandidate", (Var("m1"), Var("m2"))),
            Atom("EL", (Var("m1"), Var("e1"))),
            Atom("EL", (Var("m2"), Var("e2"))),
            Atom("Married", (Var("e1"), Var("e2"))),
        ],
    )
    program.add_inference_rule(
        "fe1",
        Atom("MarriedMentions", (Var("m1"), Var("m2"))),
        [
            Atom("MarriedCandidate", (Var("m1"), Var("m2"))),
            Atom("PhraseFeature", (Var("m1"), Var("m2"), Var("f"))),
        ],
        weight=WeightSpec(tied_on=("f",)),
    )
    return program


def sentence_rows(idx: int) -> dict:
    """Relation rows for one new document/sentence ``s<idx>``."""
    m1, m2 = f"m{2 * idx}", f"m{2 * idx + 1}"
    return {
        "PersonCandidate": [(f"s{idx}", m1), (f"s{idx}", m2)],
        "PhraseFeature": [(m1, m2, PHRASES[idx % len(PHRASES)])],
    }


def make_stack(base_sentences: int = 4):
    """Fresh, materialized (grounder, engine) over ``base_sentences``."""
    program = spouse_program()
    db = program.create_database()
    for idx in range(base_sentences):
        for rel, rows in sentence_rows(idx).items():
            db.insert_all(rel, rows)
    db.insert_all("EL", [("m0", "barack"), ("m1", "michelle")])
    db.insert_all("Married", [("barack", "michelle")])
    grounder = IncrementalGrounder.from_scratch(program, db)
    engine = IncrementalEngine(
        grounder.graph,
        EngineConfig(
            materialization_samples=120,
            inference_steps=60,
            inference_samples=40,
            variational_inference_samples=60,
            burn_in=5,
            seed=0,
        ),
    )
    engine.materialize()
    return grounder, engine


def updates_for(base_sentences: int, count: int) -> list:
    return [
        {"inserts": sentence_rows(base_sentences + step)}
        for step in range(count)
    ]


def twin_marginals(base_sentences: int, updates: list) -> np.ndarray:
    """Never-faulted reference: prime + each update, applied directly."""
    grounder, engine = make_stack(base_sentences)
    svc = KBService(grounder, engine, retry=FAST_RETRY)
    svc.prime()
    for update in updates:
        svc.pipeline.apply_update(**update)
    svc._on_commit(svc.pipeline.last_txn)
    return svc.read().marginals.copy()


def submit_with_backpressure(svc, update) -> int:
    """Retry a rejected submission until admitted; counts rejections."""
    rejections = 0
    while True:
        try:
            svc.submit(**update)
            return rejections
        except BackpressureError:
            rejections += 1
            time.sleep(0.002)


# --------------------------------------------------------------------- #


def measure_mixed_load(base_sentences: int, count: int, read_seconds: float) -> dict:
    """Sustained update throughput + read latency under mixed load."""
    grounder, engine = make_stack(base_sentences)
    svc = KBService(
        grounder,
        engine,
        config=ServiceConfig(queue_depth=8),
        retry=FAST_RETRY,
    ).start()
    svc.prime()

    latencies: list[float] = []
    lags: list[int] = []
    stop_readers = threading.Event()

    def reader() -> None:
        while not stop_readers.is_set():
            start = time.perf_counter()
            stamped = svc.read()
            latencies.append(time.perf_counter() - start)
            lags.append(stamped.lag)

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    rejections = 0
    start = time.perf_counter()
    for update in updates_for(base_sentences, count):
        rejections += submit_with_backpressure(svc, update)
    assert svc.drain(timeout=600), "batcher never drained"
    write_elapsed = time.perf_counter() - start
    # Keep reading a little past the write burst for a steady-state tail.
    deadline = time.perf_counter() + max(read_seconds - write_elapsed, 0.1)
    while time.perf_counter() < deadline:
        time.sleep(0.01)
    stop_readers.set()
    thread.join(5)
    status = svc.status()
    svc.stop()
    lat_ms = np.asarray(latencies) * 1e3
    return {
        "base_sentences": base_sentences,
        "updates": count,
        "num_vars": int(svc.pipeline.engine.current_graph.num_vars),
        "write_seconds": write_elapsed,
        "updates_per_second": count / write_elapsed,
        "backpressure_rejections": rejections,
        "queue_high_water": status["queue"]["high_water"],
        "reads_served": len(latencies),
        "read_p50_ms": float(np.percentile(lat_ms, 50)),
        "read_p99_ms": float(np.percentile(lat_ms, 99)),
        "max_observed_lag": int(max(lags, default=0)),
    }


def measure_commit_path(base_sentences: int, count: int) -> dict:
    """The closed submit → ``drain()`` loop through a file WAL: syncs per
    committed transaction, and WAL commit → ``drain()``-return latency."""
    # Far above a transaction's duration on purpose: it only paces an
    # idle batcher's stop-flag check, so nothing measured here may
    # depend on it.
    poll_interval = 1.0
    with tempfile.TemporaryDirectory() as tmp:
        grounder, engine = make_stack(base_sentences)
        svc = KBService(
            grounder,
            engine,
            config=ServiceConfig(queue_depth=8, poll_interval=poll_interval),
            wal_path=f"{tmp}/service.wal",
            retry=FAST_RETRY,
        ).start()
        svc.prime()
        wal = svc.pipeline.wal
        committed_at: list[float] = []
        wal_commit = wal.commit

        def stamped_commit(txn: int) -> None:
            wal_commit(txn)
            committed_at.append(time.perf_counter())

        wal.commit = stamped_commit
        wake_ms = []
        with mock.patch("os.fsync", wraps=os.fsync) as fsync:
            start = time.perf_counter()
            for update in updates_for(base_sentences, count):
                svc.submit(**update)
                assert svc.drain(timeout=600), "batcher never drained"
                wake_ms.append((time.perf_counter() - committed_at[-1]) * 1e3)
            elapsed = time.perf_counter() - start
            fsyncs = fsync.call_count
        svc.stop()
    assert len(committed_at) == count
    return {
        "base_sentences": base_sentences,
        "updates": count,
        "poll_interval": poll_interval,
        "updates_per_second": count / elapsed,
        "fsyncs_per_txn": fsyncs / count,
        "drain_wake_p50_ms": float(np.percentile(wake_ms, 50)),
        "drain_wake_p99_ms": float(np.percentile(wake_ms, 99)),
    }


def _crashed_service(
    base_sentences: int, count: int, wal_path: str, ckpt_dir, cfg
):
    """Run the deterministic workload, then kill mid-transaction on one
    final update: the WAL keeps its ``begin`` frame and the restored
    service must re-apply it."""
    grounder, engine = make_stack(base_sentences)
    svc = KBService(
        grounder,
        engine,
        config=cfg,
        wal_path=wal_path,
        checkpoint_dir=ckpt_dir,
        retry=FAST_RETRY,
    ).start()
    svc.prime()
    for update in updates_for(base_sentences, count):
        submit_with_backpressure(svc, update)
    assert svc.drain(timeout=600)
    plan = FaultPlan([Fault(site="engine.update.inferred", action="crash")])
    with inject_faults(plan):
        svc.submit(**updates_for(base_sentences + count, 1)[0])
        assert not svc.drain(timeout=60)  # woken by the crash
    assert svc.status()["health"]["state"] == CRASHED
    return svc


def measure_recovery(base_sentences: int, count: int) -> dict:
    """Restore-from-checkpoint vs cold restart after a kill mid-batch.

    Two twin runs of the same deterministic workload crash identically.
    The first checkpoints every few commits, so its restore loads the
    newest checkpoint and replays only the WAL tail (checkpointing also
    truncates the WAL — replaying it from scratch is impossible and
    ``restore`` refuses).  The second run keeps no checkpoints, leaving
    the full committed history in its WAL for a cold restart.  Both
    restores must land on bit-identical marginals."""
    with tempfile.TemporaryDirectory() as tmp:
        factory = lambda: make_stack(base_sentences)  # noqa: E731

        warm_cfg = ServiceConfig(queue_depth=8, checkpoint_every=5)
        warm_wal = f"{tmp}/warm.wal"
        ckpt_dir = f"{tmp}/ckpt"
        _crashed_service(base_sentences, count, warm_wal, ckpt_dir, warm_cfg)
        start = time.perf_counter()
        warm = KBService.restore(
            warm_wal, factory, checkpoint_dir=ckpt_dir, config=warm_cfg,
            retry=FAST_RETRY,
        )
        warm_seconds = time.perf_counter() - start
        warm_info = dict(warm.recovery)
        warm_marginals = warm.read().marginals.copy()
        warm.stop()

        cold_cfg = ServiceConfig(queue_depth=8)
        cold_wal = f"{tmp}/cold.wal"
        _crashed_service(base_sentences, count, cold_wal, None, cold_cfg)
        start = time.perf_counter()
        cold = KBService.restore(
            cold_wal, factory, config=cold_cfg, retry=FAST_RETRY,
        )
        cold_seconds = time.perf_counter() - start
        assert cold.recovery["mode"] == "cold"
        cold_marginals = cold.read().marginals.copy()
        cold.stop()
        assert np.array_equal(warm_marginals, cold_marginals), (
            "checkpoint and cold recovery disagree"
        )
        return {
            "base_sentences": base_sentences,
            "updates": count,
            "checkpoint_every": warm_cfg.checkpoint_every,
            "recovery_mode": warm_info["mode"],
            "checkpoint_txn": warm_info["checkpoint_txn"],
            "wal_tail_replayed": warm_info["replayed"],
            "pending_reapplied": warm_info["pending_reapplied"],
            "restore_seconds": warm_seconds,
            "cold_restart_seconds": cold_seconds,
            "speedup_vs_cold": cold_seconds / max(warm_seconds, 1e-9),
        }


def run(scale: str) -> dict:
    cfg = SCALES[scale]
    record = {"scale": scale}
    mixed = measure_mixed_load(
        cfg["base_sentences"], cfg["updates"], cfg["read_seconds"]
    )
    record["mixed_load"] = mixed
    print(
        f"mixed load n={mixed['num_vars']} vars: "
        f"{mixed['updates_per_second']:.1f} updates/s, read p50 "
        f"{mixed['read_p50_ms']:.2f} ms / p99 {mixed['read_p99_ms']:.2f} ms "
        f"({mixed['reads_served']} reads, max lag {mixed['max_observed_lag']})"
    )
    sustained = measure_commit_path(cfg["base_sentences"], cfg["updates"])
    record["sustained"] = sustained
    print(
        f"sustained (poll_interval {sustained['poll_interval']} s): "
        f"{sustained['updates_per_second']:.1f} updates/s, "
        f"{sustained['fsyncs_per_txn']:g} fsyncs/txn, drain wakes "
        f"{sustained['drain_wake_p50_ms']:.3f} ms (p50) / "
        f"{sustained['drain_wake_p99_ms']:.3f} ms (p99) after the commit"
    )
    rec = measure_recovery(cfg["base_sentences"], cfg["updates"])
    record["recovery"] = rec
    print(
        f"recovery ({rec['recovery_mode']}, ckpt txn {rec['checkpoint_txn']}, "
        f"tail {rec['wal_tail_replayed']}): restore "
        f"{rec['restore_seconds'] * 1e3:.0f} ms vs cold "
        f"{rec['cold_restart_seconds'] * 1e3:.0f} ms "
        f"({rec['speedup_vs_cold']:.2f}x)"
    )
    return record


# --------------------------------------------------------------------- #


def check() -> None:
    """CI chaos smoke: scripted kill-mid-batch, queue-full and
    checkpoint-corrupt runs must stay inside the staleness bound and
    recover bit-exactly to an unfaulted twin."""
    base = 4
    bound = 4

    # --- A: kill mid-batch + process restart, concurrent bounded reads.
    with tempfile.TemporaryDirectory() as tmp:
        wal_path = f"{tmp}/service.wal"
        cfg = ServiceConfig(queue_depth=8)
        grounder, engine = make_stack(base)
        svc = KBService(
            grounder, engine, config=cfg, wal_path=wal_path, retry=FAST_RETRY
        ).start()
        svc.prime()
        updates = updates_for(base, 3)
        violations = []
        reads = [0]
        stop = threading.Event()

        def reader() -> None:
            while not stop.is_set():
                try:
                    stamped = svc.read(max_staleness=bound, deadline=2.0)
                except ServiceUnavailable:
                    return  # crashed: reads must fail, not go stale
                except Exception:
                    continue  # shed by deadline under burst: allowed
                reads[0] += 1
                if stamped.lag > bound:
                    violations.append(stamped.lag)

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        svc.submit(**updates[0])
        assert svc.drain(timeout=120)
        svc.submit(**updates[1])
        assert svc.drain(timeout=120)
        plan = FaultPlan([Fault(site="engine.update.inferred", action="crash")])
        with inject_faults(plan):
            svc.submit(**updates[2])
            assert not svc.drain(timeout=60)  # woken by the crash
        stop.set()
        thread.join(5)
        assert svc.status()["health"]["state"] == CRASHED, "crash never landed"
        assert reads[0] > 0, "reader never served a request"
        assert not violations, f"reads beyond staleness bound: {violations}"
        restored = KBService.restore(
            wal_path, lambda: make_stack(base), config=cfg, retry=FAST_RETRY
        )
        assert restored.recovery["pending_reapplied"] == 1
        expected = twin_marginals(base, updates)
        assert np.array_equal(restored.read().marginals, expected), (
            "restored marginals diverged from unfaulted twin"
        )
        restored.stop()

    # --- B: queue-full overflow; accepted-prefix twin parity.
    grounder, engine = make_stack(base)
    svc = KBService(
        grounder,
        engine,
        config=ServiceConfig(queue_depth=2),
        retry=FAST_RETRY,
    )
    svc.prime()
    updates = updates_for(base, 3)
    accepted = []
    rejected = 0
    for update in updates:  # batcher not started: queue cannot drain
        try:
            svc.submit(**update)
            accepted.append(update)
        except BackpressureError:
            rejected += 1
    assert rejected == 1 and len(accepted) == 2, "admission control failed"
    svc.start()
    assert svc.drain(timeout=120)
    expected = twin_marginals(base, accepted)
    assert np.array_equal(svc.read(max_staleness=0).marginals, expected), (
        "post-backpressure marginals diverged from accepted-only twin"
    )
    svc.stop()

    # --- C: newest checkpoint corrupted on disk; fallback recovery.
    with tempfile.TemporaryDirectory() as tmp:
        wal_path = f"{tmp}/service.wal"
        ckpt_dir = f"{tmp}/ckpt"
        cfg = ServiceConfig(queue_depth=8, checkpoint_every=1)
        grounder, engine = make_stack(base)
        svc = KBService(
            grounder,
            engine,
            config=cfg,
            wal_path=wal_path,
            checkpoint_dir=ckpt_dir,
            retry=FAST_RETRY,
        ).start()
        svc.prime()
        updates = updates_for(base, 2)
        svc.submit(**updates[0])
        assert svc.drain(timeout=120)
        plan = FaultPlan(
            [Fault(site="service.checkpoint.write", action="corrupt", at=1)]
        )
        with inject_faults(plan):
            svc.submit(**updates[1])
            assert svc.drain(timeout=120)
        svc.stop()
        assert plan.fired_sites() == ["service.checkpoint.write"]
        restored = KBService.restore(
            wal_path,
            lambda: make_stack(base),
            checkpoint_dir=ckpt_dir,
            config=cfg,
            retry=FAST_RETRY,
        )
        assert restored.checkpoints.corrupt_skipped == 1, (
            "corrupt checkpoint was not detected"
        )
        assert restored.recovery["replayed"] == 1  # WAL tail past older ckpt
        expected = twin_marginals(base, updates)
        assert np.array_equal(restored.read().marginals, expected), (
            "fallback recovery diverged from unfaulted twin"
        )
        restored.stop()

    # --- D: the commit path waits on nothing but its two syncs.
    sustained = measure_commit_path(base, 6)
    assert sustained["fsyncs_per_txn"] == 2, (
        f"a committed transaction cost {sustained['fsyncs_per_txn']} "
        f"fsyncs, expected begin + commit"
    )
    assert sustained["drain_wake_p50_ms"] < 5.0, (
        f"drain() woke {sustained['drain_wake_p50_ms']:.1f} ms after the "
        f"commit with poll_interval={sustained['poll_interval']} — "
        f"something on the path polls"
    )

    print(
        "service smoke ok: kill-mid-batch restored twin-exact, "
        "queue-full matched accepted-only twin, corrupt checkpoint "
        "fell back and matched; zero reads beyond the staleness bound; "
        f"{sustained['fsyncs_per_txn']:g} fsyncs/txn, drain() "
        f"{sustained['drain_wake_p50_ms']:.3f} ms behind the commit"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="small")
    parser.add_argument(
        "--check",
        action="store_true",
        help="run the service chaos smoke assertions only",
    )
    parser.add_argument(
        "--baseline",
        metavar="RECORD.json",
        help="a record this script wrote on another tree (e.g. the parent "
        "commit); embedded under 'parent' for side-by-side reading",
    )
    args = parser.parse_args()
    if args.check:
        check()
        return
    record = run(args.scale)
    if args.baseline:
        with open(args.baseline) as fh:
            record["parent"] = json.load(fh)
    emit_json("BENCH_service", record)


if __name__ == "__main__":
    main()
