"""Fault-injection and crash-recovery suite.

Layers, matching the reliability stack:

* Unit: :class:`RetryPolicy` backoff, :class:`DeltaLog` WAL framing
  (including torn final frames and legacy logs), durable renames,
  :class:`FaultPlan` visit semantics.
* Engine: for every engine-level injection point, a seeded raise rolls
  ``apply_update``/``relearn`` back to the pre-update state (caches
  verified consistent) and the retried call matches a never-faulted twin
  engine exactly; the WAL-backed pipeline never re-grounds a grounded
  update and replays its committed history onto a fresh stack.
"""

import os
import pickle
import stat

import numpy as np
import pytest

from repro.core import EngineConfig, IncrementalEngine, RerunEngine
from repro.graph import BiasFactor, FactorGraph, FactorGraphDelta
from repro.grounding import IncrementalGrounder
from repro.reliability import (
    DeltaLog,
    Fault,
    FaultInjected,
    FaultPlan,
    ProcessCrash,
    ReliableUpdatePipeline,
    RetryPolicy,
    WALCorruptionError,
    inject_faults,
    maybe_fire,
)

from tests.helpers import chain_ising_graph
from tests.test_grounding import spouse_db, spouse_program


FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.01)


# --------------------------------------------------------------------- #
# Unit layer


class TestRetryPolicy:
    def test_delays_deterministic_and_bounded(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.1, multiplier=2.0, max_delay=0.5, seed=7
        )
        a = list(policy.delays())
        b = list(policy.delays())
        assert a == b
        assert len(a) == 4  # one backoff between each pair of attempts
        assert all(d <= 0.5 * (1 + policy.jitter) for d in a)
        assert a[0] >= 0.1

    def test_call_retries_then_succeeds(self):
        calls = []

        def flaky(attempt):
            calls.append(attempt)
            if attempt < 3:
                raise ValueError("boom")
            return "ok"

        retried = []
        out = RetryPolicy(max_attempts=4, base_delay=0).call(
            flaky, on_retry=lambda n, exc: retried.append(n), sleep=lambda s: None
        )
        assert out == "ok"
        assert calls == [1, 2, 3]
        assert retried == [1, 2]

    def test_call_exhausts_and_reraises(self):
        def always(attempt):
            raise ValueError(f"attempt {attempt}")

        with pytest.raises(ValueError, match="attempt 2"):
            RetryPolicy(max_attempts=2, base_delay=0).call(
                always, sleep=lambda s: None
            )

    def test_non_retryable_raises_immediately(self):
        calls = []

        def fails(attempt):
            calls.append(attempt)
            raise KeyError("nope")

        with pytest.raises(KeyError):
            RetryPolicy(max_attempts=5, base_delay=0).call(
                fails, retryable=(ValueError,), sleep=lambda s: None
            )
        assert calls == [1]


class TestDeltaLog:
    def test_in_memory_lifecycle(self):
        wal = DeltaLog()
        t1 = wal.begin({"u": 1})
        wal.mark(t1, "grounded")
        wal.commit(t1)
        t2 = wal.begin({"u": 2})
        wal.rollback(t2, reason="boom")
        t3 = wal.begin({"u": 3})
        assert wal.committed() == [(t1, {"u": 1})]
        assert wal.pending() == [(t3, {"u": 3})]
        assert wal.stages(t1) == ["grounded"]

    def test_file_backed_survives_reopen(self, tmp_path):
        path = tmp_path / "updates.wal"
        with DeltaLog(path) as wal:
            t1 = wal.begin({"rows": [(1, 2)]})
            wal.commit(t1)
            wal.begin({"rows": [(3, 4)]})  # never closed: pending
        with DeltaLog(path) as wal2:
            assert wal2.committed() == [(t1, {"rows": [(1, 2)]})]
            assert [p for _t, p in wal2.pending()] == [{"rows": [(3, 4)]}]
            # Transaction ids keep counting past the reloaded history.
            assert wal2.begin({"rows": []}) > t1

    def test_torn_final_frame_discarded(self, tmp_path):
        path = tmp_path / "torn.wal"
        with DeltaLog(path) as wal:
            t1 = wal.begin({"u": 1})
            wal.commit(t1)
        with open(path, "ab") as fh:
            frame = pickle.dumps({"txn": 2, "event": "begin", "payload": {"u": 2}})
            fh.write(frame[: len(frame) // 2])  # crash mid-append
        with DeltaLog(path) as wal2:
            assert wal2.committed() == [(t1, {"u": 1})]
            assert wal2.pending() == []

    def test_torn_nonfinal_frame_detected(self, tmp_path):
        # Corruption *before* valid frames is in-place damage, not a
        # crash tail — replaying a silently truncated prefix would
        # resurrect pre-corruption state as if later commits never
        # happened, so reading must refuse.
        path = tmp_path / "midlog.wal"
        with DeltaLog(path) as wal:
            for u in range(3):
                t = wal.begin({"u": u})
                wal.commit(t)
        data = bytearray(path.read_bytes())
        # Flip a byte inside the first frame's payload (after the 8-byte
        # magic and the 8-byte length+CRC header).
        data[20] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(WALCorruptionError, match="non-final"):
            DeltaLog(path)

    def test_legacy_bare_pickle_log_readable(self, tmp_path):
        path = tmp_path / "legacy.wal"
        with open(path, "wb") as fh:
            for rec in (
                {"txn": 1, "event": "begin", "payload": {"u": 1}},
                {"txn": 1, "event": "commit"},
                {"txn": 2, "event": "begin", "payload": {"u": 2}},
            ):
                fh.write(pickle.dumps(rec))
        with DeltaLog(path) as wal:
            assert wal.committed() == [(1, {"u": 1})]
            assert wal.pending() == [(2, {"u": 2})]

    def test_appends_to_a_legacy_log_survive_reopen(self, tmp_path):
        # Framed records appended behind bare pickles used to stop the
        # legacy reader at their header: every later commit vanished.
        path = tmp_path / "legacy.wal"
        with open(path, "wb") as fh:
            for rec in (
                {"txn": 1, "event": "begin", "payload": "a"},
                {"txn": 1, "event": "commit"},
            ):
                fh.write(pickle.dumps(rec))
        with DeltaLog(path) as wal:
            wal.commit(wal.begin("b"))
        with DeltaLog(path) as wal:
            assert wal.committed() == [(1, "a"), (2, "b")]

    def test_opening_a_legacy_log_rewrites_it_framed(self, tmp_path):
        path = tmp_path / "legacy.wal"
        records = [
            {"txn": 1, "event": "begin", "payload": {"u": 1}},
            {"txn": 1, "event": "mark", "stage": "grounded", "payload": None},
            {"txn": 1, "event": "commit"},
        ]
        path.write_bytes(b"".join(pickle.dumps(rec) for rec in records))
        DeltaLog(path).close()
        assert path.read_bytes().startswith(b"DLOG0002")
        assert not (tmp_path / "legacy.wal.tmp").exists()
        with DeltaLog(path) as wal:
            assert wal.records() == records
            assert wal.stages(1) == ["grounded"]

    def test_legacy_pending_txn_commits_after_the_upgrade(self, tmp_path):
        path = tmp_path / "legacy.wal"
        path.write_bytes(
            pickle.dumps({"txn": 1, "event": "begin", "payload": "retry me"})
        )
        with DeltaLog(path) as wal:
            assert wal.pending() == [(1, "retry me")]
            wal.commit(1)
            assert wal.begin("next") == 2
        with DeltaLog(path) as wal:
            assert wal.committed() == [(1, "retry me")]
            assert wal.pending() == [(2, "next")]

    def test_legacy_torn_tail_is_cut_by_the_upgrade(self, tmp_path):
        path = tmp_path / "legacy.wal"
        torn = pickle.dumps({"txn": 2, "event": "begin", "payload": "lost"})
        path.write_bytes(
            pickle.dumps({"txn": 1, "event": "begin", "payload": "kept"})
            + pickle.dumps({"txn": 1, "event": "commit"})
            + torn[: len(torn) // 2]
        )
        with DeltaLog(path) as wal:
            assert wal.committed() == [(1, "kept")]
            assert wal.pending() == []
            wal.commit(wal.begin("after"))
        with DeltaLog(path) as wal:
            assert wal.committed() == [(1, "kept"), (2, "after")]

    def test_legacy_log_truncates_after_the_upgrade(self, tmp_path):
        path = tmp_path / "legacy.wal"
        path.write_bytes(
            b"".join(
                pickle.dumps(rec)
                for txn in (1, 2)
                for rec in (
                    {"txn": txn, "event": "begin", "payload": txn},
                    {"txn": txn, "event": "commit"},
                )
            )
        )
        with DeltaLog(path) as wal:
            assert wal.truncate(upto_txn=1) == 2
        with DeltaLog(path) as wal:
            assert wal.truncated_below() == 1
            assert wal.committed() == [(2, 2)]

    def test_empty_file_opens_as_a_new_log(self, tmp_path):
        path = tmp_path / "empty.wal"
        path.write_bytes(b"")
        with DeltaLog(path) as wal:
            assert wal.records() == []
            wal.commit(wal.begin("first"))
        assert path.read_bytes().startswith(b"DLOG0002")
        with DeltaLog(path) as wal:
            assert wal.committed() == [(1, "first")]

    def test_fsync_policy_validated(self):
        with pytest.raises(ValueError, match="fsync"):
            DeltaLog(fsync="sometimes")

    def test_fsync_on_commit_durable(self, tmp_path):
        path = tmp_path / "commit-sync.wal"
        with DeltaLog(path, fsync="commit") as wal:
            t1 = wal.begin({"u": 1})
            wal.mark(t1, "grounded")
            wal.commit(t1)
        with DeltaLog(path) as wal2:
            assert wal2.committed() == [(t1, {"u": 1})]
            assert wal2.stages(t1) == ["grounded"]

    def test_truncate_keeps_pending_and_later_txns(self, tmp_path):
        path = tmp_path / "trunc.wal"
        with DeltaLog(path) as wal:
            t1 = wal.begin({"u": 1})
            wal.commit(t1)
            t2 = wal.begin({"u": 2})  # pending: survives truncation
            t3 = wal.begin({"u": 3})
            wal.commit(t3)
            dropped = wal.truncate(upto_txn=t2)
            assert dropped == 2  # t1's begin+commit
            assert wal.truncate(upto_txn=t2) == 0
        with DeltaLog(path) as wal2:
            assert wal2.committed() == [(t3, {"u": 3})]
            assert wal2.pending() == [(t2, {"u": 2})]
            assert wal2.begin({"u": 4}) == t3 + 1

    def test_truncation_floor_recorded_and_durable(self, tmp_path):
        path = tmp_path / "floor.wal"
        with DeltaLog(path) as wal:
            assert wal.truncated_below() == 0
            for u in (1, 2, 3):
                txn = wal.begin({"u": u})
                wal.commit(txn)
            wal.truncate(upto_txn=2)
            assert wal.truncated_below() == 2
        # The floor marker is a log record: it survives reopen, so a
        # recovery path can tell "empty prefix" from "truncated prefix".
        with DeltaLog(path) as wal2:
            assert wal2.truncated_below() == 2
            assert [t for t, _ in wal2.committed()] == [3]


class RenameRecorder:
    """``os.fsync`` / ``os.replace`` / ``os.unlink`` wrapped to log, in
    order, what each did: a rename is durable only once the directory it
    changed was synced (a synced *file* does not carry its new name)."""

    def __init__(self, monkeypatch) -> None:
        self.events: list[tuple[str, bool | str]] = []
        real = {name: getattr(os, name) for name in ("fsync", "replace", "unlink")}

        def fsync(fd):
            self.events.append(("fsync", stat.S_ISDIR(os.fstat(fd).st_mode)))
            real["fsync"](fd)

        def replace(src, dst):
            real["replace"](src, dst)
            self.events.append(("replace", os.path.basename(dst)))

        def unlink(path):
            real["unlink"](path)
            self.events.append(("unlink", os.path.basename(path)))

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "unlink", unlink)

    def assert_every_replace_synced(self) -> None:
        renames = [i for i, (kind, _) in enumerate(self.events) if kind == "replace"]
        assert renames
        for i in renames:
            assert self.events[i + 1 : i + 2] == [("fsync", True)], self.events


class TestDurableRename:
    def test_wal_truncation_syncs_the_directory(self, tmp_path, monkeypatch):
        with DeltaLog(tmp_path / "trunc.wal") as wal:
            for u in range(3):
                wal.commit(wal.begin({"u": u}))
            recorder = RenameRecorder(monkeypatch)
            assert wal.truncate(upto_txn=2) == 4
        assert recorder.events[0] == ("fsync", False)  # the rewritten file
        recorder.assert_every_replace_synced()

    def test_legacy_upgrade_syncs_the_directory(self, tmp_path, monkeypatch):
        path = tmp_path / "legacy.wal"
        path.write_bytes(pickle.dumps({"txn": 1, "event": "begin", "payload": 1}))
        recorder = RenameRecorder(monkeypatch)
        DeltaLog(path).close()
        assert recorder.events[:2] == [("fsync", False), ("replace", "legacy.wal")]
        recorder.assert_every_replace_synced()

    def test_checkpoint_name_is_durable_before_retention_unlinks(
        self, tmp_path, monkeypatch
    ):
        from repro.service import CheckpointStore

        store = CheckpointStore(tmp_path, keep=1)
        store.save({"txn": 1}, 1)
        recorder = RenameRecorder(monkeypatch)
        store.save({"txn": 2}, 2)
        recorder.assert_every_replace_synced()
        # A power loss cannot keep the old checkpoint's unlink and lose
        # the new one's name: the directory sync comes first.
        assert recorder.events[-3:] == [
            ("replace", "ckpt-0000000002.bin"),
            ("fsync", True),
            ("unlink", "ckpt-0000000001.bin"),
        ]


class TestFaultPlan:
    @pytest.mark.parametrize(
        "site",
        [
            "service.batch.strat",  # typo'd site
            "sharded.sweep.start",  # the sharded sampler's, which is gone
        ],
    )
    def test_unknown_site_rejected_at_construction(self, site):
        with pytest.raises(ValueError, match="unknown injection site"):
            FaultPlan([Fault(site=site)])

    def test_crash_action_skips_exception_handlers(self):
        plan = FaultPlan([Fault(site="service.batch.start", action="crash")])
        with inject_faults(plan):
            with pytest.raises(ProcessCrash):
                try:
                    maybe_fire("service.batch.start")
                except Exception:  # noqa: BLE001 — must NOT catch the crash
                    pytest.fail("ProcessCrash was caught by except Exception")
        assert plan.fired_sites() == ["service.batch.start"]
    def test_fires_on_nth_visit_only(self):
        plan = FaultPlan([Fault(site="x", at=2)], extra_sites=("x",))
        with inject_faults(plan):
            from repro.reliability.faults import maybe_fire

            assert maybe_fire("x") is None
            with pytest.raises(FaultInjected):
                maybe_fire("x")
            assert maybe_fire("x") is None  # not repeating
        assert plan.fired_sites() == ["x"]

    def test_repeat_fires_on_every_later_visit(self):
        plan = FaultPlan(
            [Fault(site="x", action="delay", delay=0.0, at=2, repeat=True)],
            extra_sites=("x",),
        )
        with inject_faults(plan):
            assert maybe_fire("x") is None
            assert maybe_fire("x").action == "delay"
            assert maybe_fire("x").action == "delay"
        assert len(plan.fired) == 2

    def test_inactive_is_noop(self):
        from repro.reliability.faults import active_plan, maybe_fire

        assert active_plan() is None
        assert maybe_fire("anything", worker=3) is None

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            Fault(site="service.batch.start", action="kill")

    def test_corrupt_scribbles_the_file_deterministically(self, tmp_path):
        original = bytes(range(256)) * 2
        scribbled = []
        for _ in range(2):
            path = tmp_path / "blob.bin"
            path.write_bytes(original)
            plan = FaultPlan(
                [Fault(site="service.checkpoint.write", action="corrupt")], seed=3
            )
            with inject_faults(plan):
                assert maybe_fire("service.checkpoint.write", path=path).action == "corrupt"
            scribbled.append(path.read_bytes())
        assert scribbled[0] == scribbled[1]
        assert len(scribbled[0]) == len(original)
        assert scribbled[0] != original

    def test_corrupt_without_a_path_is_a_noop(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"untouched")
        plan = FaultPlan([Fault(site="service.checkpoint.write", action="corrupt")])
        with inject_faults(plan):
            assert maybe_fire("service.checkpoint.write").action == "corrupt"
        assert path.read_bytes() == b"untouched"
        assert plan.fired_sites() == ["service.checkpoint.write"]

    def test_nested_plans_restore_the_outer_one(self):
        from repro.reliability.faults import active_plan

        outer = FaultPlan([Fault(site="x", action="delay", delay=0.0)], extra_sites=("x",))
        inner = FaultPlan([Fault(site="y")], extra_sites=("y",))
        with inject_faults(outer):
            with inject_faults(inner):
                assert active_plan() is inner
                assert maybe_fire("x") is None
            assert active_plan() is outer
            assert maybe_fire("x").action == "delay"
        assert active_plan() is None
        assert outer.fired_sites() == ["x"] and inner.fired == []

    def test_dict_specs_and_fired_context(self):
        plan = FaultPlan([{"site": "ground.update.start", "at": 2, "note": "second"}])
        assert isinstance(plan.faults[0], Fault)
        with inject_faults(plan):
            maybe_fire("ground.update.start", txn=1)
            with pytest.raises(FaultInjected, match="second"):
                maybe_fire("ground.update.start", txn=2)
        assert plan.fired == [("ground.update.start", "raise", {"txn": 2})]

    def test_visits_count_per_fault_site(self):
        plan = FaultPlan(
            [
                Fault(site="x", action="delay", delay=0.0, at=2),
                Fault(site="y", action="delay", delay=0.0, at=1),
            ],
            extra_sites=("x", "y"),
        )
        with inject_faults(plan):
            assert maybe_fire("x") is None
            assert maybe_fire("y").action == "delay"
            assert maybe_fire("y") is None
            assert maybe_fire("x").action == "delay"
        assert plan.fired_sites() == ["y", "x"]


# --------------------------------------------------------------------- #
# Engine layer


def feature_delta(fg_weights_len, var, weight, key):
    delta = FactorGraphDelta()
    delta.new_weight_entries.append((key, weight, False))
    delta.new_factors.append(BiasFactor(weight_id=fg_weights_len, var=var))
    return delta


def small_config(**overrides):
    base = dict(
        materialization_samples=120,
        inference_steps=80,
        inference_samples=60,
        variational_inference_samples=80,
        burn_in=5,
        seed=0,
    )
    base.update(overrides)
    return EngineConfig(**base)


ENGINE_UPDATE_SITES = [
    "engine.update.start",
    "engine.update.patched",
    "engine.update.inferred",
]


def check_engine_caches(engine):
    """check_consistency on every live cache the engine holds (caches are
    brought current first — they may legitimately lag the weight store)."""
    sampler = engine.resident.chain
    if sampler is not None and hasattr(sampler, "cache"):
        sampler.cache.refresh_weights(sampler.state)
        sampler.cache.check_consistency(sampler.state)
    learner = engine.resident.learner
    if learner is not None:
        for chain in (learner._conditioned, learner._free):
            chain.cache.refresh_weights(chain.state)
            chain.cache.check_consistency(chain.state)


class TestIncrementalEngineRollback:
    def make(self):
        fg = chain_ising_graph(6, coupling=0.5, bias=0.2)
        engine = IncrementalEngine(fg, small_config())
        engine.materialize()
        return fg, engine

    def delta(self, fg):
        return feature_delta(len(fg.weights), 2, 0.6, "f_new")

    @pytest.mark.parametrize("site", ENGINE_UPDATE_SITES)
    def test_rollback_then_retry_matches_fresh_twin(self, site):
        fg1, faulted = self.make()
        fg2, twin = self.make()
        cursor_before = faulted.sampling._cursor
        with inject_faults(FaultPlan([Fault(site=site)])):
            with pytest.raises(FaultInjected):
                faulted.apply_update(self.delta(fg1))
        assert faulted.rollbacks == 1
        assert faulted.sampling._cursor == cursor_before
        assert faulted.current_graph.num_factors == fg1.num_factors
        assert faulted.wal.pending() == []
        out_retry = faulted.apply_update(self.delta(fg1))
        out_fresh = twin.apply_update(self.delta(fg2))
        assert out_retry.strategy == out_fresh.strategy
        assert np.array_equal(out_retry.marginals, out_fresh.marginals)
        assert len(faulted.wal.committed()) == 1

    def test_rollback_restores_variational_state(self):
        fg1, faulted = self.make()
        fg2, twin = self.make()
        with inject_faults(FaultPlan([Fault(site="engine.update.inferred")])):
            with pytest.raises(FaultInjected):
                faulted.apply_update(FactorGraphDelta(evidence_updates={1: True}))
        # The failed attempt patched the variational substrate in place;
        # the rollback leaves it equal to the never-updated twin's.
        rolled_back, untouched = faulted.variational.current, twin.variational.current
        assert dict(rolled_back.evidence) == dict(untouched.evidence)
        assert rolled_back.factors == untouched.factors
        np.testing.assert_array_equal(
            rolled_back.weights.values_array(), untouched.weights.values_array()
        )
        out_retry = faulted.apply_update(FactorGraphDelta(evidence_updates={1: True}))
        out_fresh = twin.apply_update(FactorGraphDelta(evidence_updates={1: True}))
        assert np.array_equal(out_retry.marginals, out_fresh.marginals)

    @pytest.mark.parametrize("site", ["engine.relearn.start", "learn.epoch"])
    def test_relearn_rollback_then_retry_matches_twin(self, site):
        _fg1, faulted = self.make()
        _fg2, twin = self.make()
        at = 2 if site == "learn.epoch" else 1
        weights_before = faulted.current_graph.weights.values_array().copy()
        with inject_faults(FaultPlan([Fault(site=site, at=at)])):
            with pytest.raises(FaultInjected):
                faulted.relearn(3)
        assert faulted.rollbacks == 1
        np.testing.assert_array_equal(
            faulted.current_graph.weights.values_array(), weights_before
        )
        check_engine_caches(faulted)
        h1 = faulted.relearn(3)
        h2 = twin.relearn(3)
        assert h1.losses == h2.losses
        np.testing.assert_array_equal(
            faulted.current_graph.weights.values_array(),
            twin.current_graph.weights.values_array(),
        )

    @pytest.mark.parametrize("at", [1, 3])
    def test_relearn_fault_at_any_epoch_after_an_update(self, at):
        """Every learner rolls back bit-exactly, whichever epoch fails —
        including one carried across a patch."""
        fg1, faulted = self.make()
        fg2, twin = self.make()
        for engine, fg in ((faulted, fg1), (twin, fg2)):
            engine.relearn(2, record_loss=False)
            engine.apply_update(self.delta(fg))
        with inject_faults(FaultPlan([Fault(site="learn.epoch", at=at)])):
            with pytest.raises(FaultInjected):
                faulted.relearn(3)
        assert faulted.rollbacks == 1
        check_engine_caches(faulted)
        assert faulted.relearn(3).losses == twin.relearn(3).losses
        np.testing.assert_array_equal(
            faulted.current_graph.weights.values_array(),
            twin.current_graph.weights.values_array(),
        )
        out_a = faulted.apply_update(FactorGraphDelta(evidence_updates={4: True}))
        out_b = twin.apply_update(FactorGraphDelta(evidence_updates={4: True}))
        assert np.array_equal(out_a.marginals, out_b.marginals)


class TestRerunEngineRollback:
    def make(self):
        fg = chain_ising_graph(6, coupling=0.5, bias=0.2)
        engine = RerunEngine(fg, small_config(inference_samples=40))
        return fg, engine

    @pytest.mark.parametrize("site", ENGINE_UPDATE_SITES)
    def test_rollback_then_retry_matches_fresh_twin(self, site):
        fg1, faulted = self.make()
        fg2, twin = self.make()
        d1 = lambda fg: feature_delta(len(fg.weights), 1, 0.3, "f1")
        out_a = faulted.apply_update(d1(fg1))
        out_b = twin.apply_update(d1(fg2))
        assert np.array_equal(out_a.marginals, out_b.marginals)

        def d2(engine):
            return feature_delta(
                len(engine.current_graph.weights), 3, -0.4, "f2"
            )

        with inject_faults(FaultPlan([Fault(site=site)])):
            with pytest.raises(FaultInjected):
                faulted.apply_update(d2(faulted))
        assert faulted.rollbacks == 1
        check_engine_caches(faulted)
        out_retry = faulted.apply_update(d2(faulted))
        out_fresh = twin.apply_update(d2(twin))
        assert np.array_equal(out_retry.marginals, out_fresh.marginals)
        assert faulted.updates_patched == twin.updates_patched

    def test_relearn_rollback_restores_learner_chains(self):
        fg1, faulted = self.make()
        fg2, twin = self.make()
        faulted.relearn(2, record_loss=False)
        twin.relearn(2, record_loss=False)
        with inject_faults(FaultPlan([Fault(site="learn.epoch", at=2)])):
            with pytest.raises(FaultInjected):
                faulted.relearn(3)
        assert faulted.rollbacks == 1
        check_engine_caches(faulted)
        h1 = faulted.relearn(3)
        h2 = twin.relearn(3)
        assert h1.grad_norms == h2.grad_norms
        np.testing.assert_array_equal(
            faulted.current_graph.weights.values_array(),
            twin.current_graph.weights.values_array(),
        )

    @pytest.mark.parametrize("at", [1, 3])
    def test_relearn_fault_at_any_epoch_matches_twin(self, at):
        fg1, faulted = self.make()
        fg2, twin = self.make()
        for engine, fg in ((faulted, fg1), (twin, fg2)):
            engine.apply_update(feature_delta(len(fg.weights), 2, 0.5, "f"))
        with inject_faults(FaultPlan([Fault(site="learn.epoch", at=at)])):
            with pytest.raises(FaultInjected):
                faulted.relearn(3)
        assert faulted.rollbacks == 1
        check_engine_caches(faulted)
        assert faulted.relearn(3).grad_norms == twin.relearn(3).grad_norms
        np.testing.assert_array_equal(
            faulted.current_graph.weights.values_array(),
            twin.current_graph.weights.values_array(),
        )

    def test_answers_are_a_function_of_the_seed(self):
        """The engine's one chain: two engines of one config answer an
        update history identically."""
        histories = []
        for _ in range(2):
            fg, engine = self.make()
            with engine:
                histories.append(
                    [
                        engine.apply_update(
                            feature_delta(
                                len(engine.current_graph.weights),
                                var,
                                0.3 - 0.2 * var,
                                f"f{var}",
                            )
                        ).marginals
                        for var in (1, 3, 4)
                    ]
                )
        for a, b in zip(*histories):
            assert np.array_equal(a, b)


# --------------------------------------------------------------------- #
# WAL pipeline layer


def make_stack(wal=None, retry=None):
    program = spouse_program()
    db = spouse_db(program)
    grounder = IncrementalGrounder.from_scratch(program, db)
    engine = IncrementalEngine(grounder.graph, small_config())
    engine.materialize()
    return grounder, engine, ReliableUpdatePipeline(
        grounder, engine, wal=wal, retry=retry or FAST_RETRY
    )


UPDATE = {
    "inserts": {
        "PersonCandidate": [("s3", "m5"), ("s3", "m6")],
        "PhraseFeature": [("m5", "m6", "and his wife")],
    }
}


class TestReliablePipeline:
    def test_clean_update_commits(self):
        _g, _e, pipe = make_stack()
        outcome = pipe.apply_update(**UPDATE)
        assert pipe.updates == 1
        assert pipe.retries == 0
        assert len(pipe.wal.committed()) == 1
        assert outcome.marginals.shape[0] == pipe.engine.current_graph.num_vars

    def test_fault_before_grounding_regrounds_safely(self):
        _g0, _e0, clean = make_stack()
        baseline = clean.apply_update(**UPDATE)
        grounder, _e, pipe = make_stack()
        with inject_faults(FaultPlan([Fault(site="ground.update.start")])):
            outcome = pipe.apply_update(**UPDATE)
        assert pipe.retries == 1
        assert pipe.regrounds_skipped == 0
        # Single application of the relation delta.
        assert grounder.db.relation("PersonCandidate").count(("s3", "m5")) == 1
        assert np.array_equal(outcome.marginals, baseline.marginals)

    @pytest.mark.parametrize(
        "site,skips",
        [
            # Raise after the grounder stashed its result: the retry
            # resumes from the stash (regrounds_skipped increments).
            ("ground.update.finish", 1),
            # Raise inside the engine: grounding completed inside this
            # same pipeline attempt, so the retry reuses it directly.
            ("engine.update.start", 0),
        ],
    )
    def test_fault_after_grounding_never_regrounds(self, site, skips):
        _g0, _e0, clean = make_stack()
        baseline = clean.apply_update(**UPDATE)
        grounder, _e, pipe = make_stack()
        with inject_faults(FaultPlan([Fault(site=site)])):
            outcome = pipe.apply_update(**UPDATE)
        assert pipe.retries == 1
        assert pipe.regrounds_skipped == skips
        # The relation delta landed exactly once despite the retry.
        assert grounder.db.relation("PersonCandidate").count(("s3", "m5")) == 1
        assert np.array_equal(outcome.marginals, baseline.marginals)

    def test_relearn_fault_does_not_reapply_engine_update(self, tmp_path):
        # A fault *after* the engine committed its update (mid-relearn)
        # must retry only the relearn: re-running apply_update would
        # double-apply the delta, silently diverging from a WAL replay.
        wal = DeltaLog(tmp_path / "relearn.wal")
        _g1, engine, pipe = make_stack(wal=wal)
        with inject_faults(FaultPlan([Fault(site="learn.epoch", at=1)])):
            outcome = pipe.apply_update(relearn_epochs=2, **UPDATE)
        assert pipe.retries == 1
        assert engine.rollbacks == 1  # the relearn rolled back, not the update
        assert len(engine.wal.committed()) == 1  # engine update applied once
        grounder2, engine2, _p2 = make_stack()
        outcomes = pipe.replay(grounder2, engine2)
        assert len(outcomes) == 1
        assert np.array_equal(outcomes[0].marginals, outcome.marginals)
        np.testing.assert_array_equal(
            engine.current_graph.weights.values_array(),
            engine2.current_graph.weights.values_array(),
        )

    def test_exhausted_retries_roll_back_wal(self):
        _g, _e, pipe = make_stack()
        plan = FaultPlan(
            [Fault(site="engine.update.start", at=1, repeat=True)]
        )
        with inject_faults(plan):
            with pytest.raises(FaultInjected):
                pipe.apply_update(**UPDATE)
        assert pipe.rollbacks == 1
        assert pipe.wal.committed() == []
        assert pipe.wal.pending() == []

    def test_replay_committed_history(self, tmp_path):
        wal = DeltaLog(tmp_path / "pipeline.wal")
        _g, engine, pipe = make_stack(wal=wal)
        baseline = pipe.apply_update(**UPDATE)
        grounder2, engine2, _pipe2 = make_stack()
        outcomes = pipe.replay(grounder2, engine2)
        assert len(outcomes) == 1
        assert np.array_equal(outcomes[0].marginals, baseline.marginals)
