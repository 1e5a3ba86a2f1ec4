"""Power-loss suite: what the WAL promises from only the fsync'd bytes.

The crash tests in ``test_reliability.py`` / ``test_service.py`` kill the
*process*, which keeps the OS cache — every flushed frame survives.  A
power loss does not: only bytes that were ``fsync``'d are guaranteed.
Here ``os.fsync`` *as seen from* ``repro.reliability.wal`` is replaced
by a recorder that notes the file's size at every sync; the **durable
image** of a log is its file truncated to the last size recorded for it.
Every image (one after each operation of a history, i.e. a cut at every
point) is reopened with :class:`DeltaLog` and held to the contract in the
``wal`` module docstring:

* D1 — ``commit()`` returned ⇒ in ``committed()`` (and ``rollback()``
  returned ⇒ not re-applied);
* D2 — ``begin()`` returned ⇒ committed, rolled back or pending;
* D3 — the image's frames are a prefix of the frames written, so a
  visible ``commit`` has its ``begin``;

and to never raising :class:`WALCorruptionError`, also when the cut lands
mid-frame (a disk may keep *more* than was synced, never less) and the
recovered log is appended to and reopened again.
"""

import os
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.reliability.wal as wal_module
from repro.reliability import DeltaLog, Fault, FaultPlan, inject_faults
from repro.service import CRASHED, KBService, ServiceConfig

from tests.test_reliability import FAST_RETRY, UPDATE
from tests.test_reliability import make_stack as make_pipeline_stack
from tests.test_service import UPDATE_A, UPDATE_B, make_service
from tests.test_service import make_stack as make_service_stack

#: Which of D1/D2/D3 each fsync policy promises.
GUARANTEES = {
    "always": ("D1", "D2", "D3"),
    "commit": ("D1", "D3"),
    "never": ("D3",),
}


class SyncRecorder:
    """The ``os`` module as ``wal.py`` sees it, with ``fsync`` replaced by
    a recorder: inode → file size at its last sync, plus a call count."""

    def __init__(self) -> None:
        self.synced: dict[int, int] = {}
        self.calls = 0

    def fsync(self, fd: int) -> None:
        stat = os.fstat(fd)
        self.synced[stat.st_ino] = stat.st_size
        self.calls += 1

    def __getattr__(self, name):
        return getattr(os, name)

    def durable_size(self, path) -> int:
        return self.synced.get(os.stat(path).st_ino, 0)

    def image(self, path, dest, size: int | None = None) -> str:
        """Write the durable image of ``path`` (or, with ``size``, the
        file cut at that byte) to ``dest``."""
        if size is None:
            size = self.durable_size(path)
        with open(path, "rb") as src, open(dest, "wb") as out:
            out.write(src.read()[:size])
        return os.fspath(dest)


@pytest.fixture
def recorder(monkeypatch):
    rec = SyncRecorder()
    monkeypatch.setattr(wal_module, "os", rec)
    return rec


class Model:
    """What the caller of a :class:`DeltaLog` knows: which calls returned."""

    def __init__(self) -> None:
        self.begun: list[int] = []
        self.open: list[int] = []
        self.committed: set[int] = set()
        self.rolled_back: set[int] = set()


def run_history(wal: DeltaLog, ops, after_each) -> None:
    """Drive ``wal`` through ``ops`` — ``(kind, pick)`` pairs, ``pick``
    choosing among the open transactions — calling ``after_each(model)``
    once every call has returned (the cut points)."""
    model = Model()
    after_each(model)
    for kind, pick in ops:
        if kind == "begin" or not model.open and kind != "truncate":
            txn = wal.begin({"u": len(model.begun), "pad": "x" * (pick % 40)})
            model.begun.append(txn)
            model.open.append(txn)
        elif kind == "mark":
            wal.mark(model.open[pick % len(model.open)], f"stage{pick}")
        elif kind == "commit":
            txn = model.open.pop(pick % len(model.open))
            wal.commit(txn)
            model.committed.add(txn)
        elif kind == "rollback":
            txn = model.open.pop(pick % len(model.open))
            wal.rollback(txn, reason="scripted")
            model.rolled_back.add(txn)
        else:
            wal.truncate(pick % (len(model.begun) + 1))
        after_each(model)


def check_image(image_path, model: Model, live_records, policy: str) -> None:
    """Reopen one durable image and hold it to the policy's guarantees."""
    guarantees = GUARANTEES[policy]
    with DeltaLog(image_path, fsync=policy) as image:  # must not raise
        records = image.records()
        floor = image.truncated_below()
        committed = {txn for txn, _ in image.committed()}
        pending = {txn for txn, _ in image.pending()}
        by_event = {
            event: {r["txn"] for r in records if r["event"] == event}
            for event in ("begin", "mark", "commit", "rollback")
        }
        rolled_back = by_event["rollback"]
        # D3: a prefix of what was written; no frame without its begin.
        assert records == live_records[: len(records)]
        for event in ("mark", "commit", "rollback"):
            assert by_event[event] <= by_event["begin"]
        if "D1" in guarantees:
            for txn in model.committed:
                assert txn in committed or txn <= floor, f"D1: lost {txn}"
            for txn in model.rolled_back:
                assert txn not in pending, f"rolled-back {txn} would re-apply"
        if "D2" in guarantees:
            for txn in model.begun:
                assert (
                    txn in committed | rolled_back | pending or txn <= floor
                ), f"D2: begun transaction {txn} vanished"
        # The recovered log keeps working: append, reopen, no corruption.
        txn = image.begin({"after": "recovery"})
        image.commit(txn)
    with DeltaLog(image_path) as again:
        assert txn in {t for t, _ in again.committed()}
        assert committed <= {t for t, _ in again.committed()}


def check_every_cut(tmp_path, recorder, ops, policy, torn_offsets=()):
    path = tmp_path / "history.wal"
    cuts = [0]

    def after_each(model):
        cuts[0] += 1
        live = wal.records()
        image = recorder.image(path, tmp_path / f"cut{cuts[0]}.wal")
        check_image(image, model, live, policy)
        # A disk may have kept more than was synced: any longer prefix of
        # the flushed file, frame-aligned or not, must read the same way.
        durable, full = recorder.durable_size(path), os.path.getsize(path)
        for offset in torn_offsets:
            size = durable + offset % (full - durable + 1)
            torn = recorder.image(path, tmp_path / "torn.wal", size=size)
            check_image(torn, model, live, policy)

    with DeltaLog(path, fsync=policy) as wal:
        run_history(wal, ops, after_each)
    return cuts[0]


SCRIPTED = [
    ("begin", 0),  # t1
    ("mark", 0),
    ("mark", 1),  # cut between two marks
    ("commit", 0),  # cut right after commit() returns
    ("begin", 3),  # t2 — cut between begin and commit
    ("begin", 5),  # t3, concurrent with t2
    ("mark", 1),
    ("rollback", 1),  # t3 rolled back
    ("truncate", 1),  # drops t1; t2 pending survives the rewrite
    ("mark", 0),
    ("commit", 0),  # t2
    ("begin", 7),  # t4
    ("truncate", 3),  # floor past a rolled-back transaction
    ("mark", 0),  # unsynced tail after a truncation
]


class TestPowerLossContract:
    @pytest.mark.parametrize("policy", sorted(GUARANTEES))
    def test_scripted_history_every_cut(self, tmp_path, recorder, policy):
        cuts = check_every_cut(
            tmp_path, recorder, SCRIPTED, policy, torn_offsets=range(0, 400, 7)
        )
        assert cuts == len(SCRIPTED) + 1

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(
                    ["begin", "mark", "mark", "commit", "rollback", "truncate"]
                ),
                st.integers(0, 63),
            ),
            max_size=24,
        ),
        policy=st.sampled_from(sorted(GUARANTEES)),
        torn=st.lists(st.integers(0, 10_000), max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_generated_histories_every_cut(self, ops, policy, torn):
        # hypothesis re-runs the body: build the per-example sandbox by
        # hand instead of through function-scoped fixtures.
        rec = SyncRecorder()
        with mock.patch.object(wal_module, "os", rec):
            with tempfile.TemporaryDirectory() as tmp:
                check_every_cut(Path(tmp), rec, ops, policy, torn_offsets=torn)

    def test_marks_are_flushed_but_not_synced(self, tmp_path, recorder):
        # The saving this suite guards: under "always" a mark costs no
        # sync, is visible to a reopen after a process kill (flushed),
        # and is simply absent — not corrupt — after a power loss.
        path = tmp_path / "marks.wal"
        with DeltaLog(path) as wal:
            txn = wal.begin({"u": 1})
            before = recorder.calls
            wal.mark(txn, "grounded")
            wal.mark(txn, "inferred")
            assert recorder.calls == before
            with DeltaLog(recorder.image(path, tmp_path / "lost.wal")) as lost:
                assert lost.stages(txn) == []
                assert [t for t, _ in lost.pending()] == [txn]
            wal.commit(txn)
            assert recorder.calls == before + 1
        killed = shutil.copy(path, tmp_path / "killed.wal")
        for survivor in (killed, recorder.image(path, tmp_path / "cut.wal")):
            with DeltaLog(survivor) as reopened:
                assert reopened.stages(txn) == ["grounded", "inferred"]
                assert [t for t, _ in reopened.committed()] == [txn]

    def test_torn_tail_is_cut_before_the_next_append(self, tmp_path):
        # Regression: the torn frame used to stay in the file, so the
        # first append after recovery turned it into a bad *non-final*
        # frame and the next open raised WALCorruptionError.
        path = tmp_path / "torn.wal"
        with DeltaLog(path) as wal:
            t1 = wal.begin({"u": 1})
            wal.commit(t1)
            wal.begin({"u": 2, "pad": "x" * 200})
        os.truncate(path, os.path.getsize(path) - 40)
        with DeltaLog(path) as recovered:
            assert recovered.pending() == []
            t3 = recovered.begin({"u": 3})
            recovered.commit(t3)
        with DeltaLog(path) as again:
            assert [t for t, _ in again.committed()] == [t1, t3]


class TestFsyncsPerTransaction:
    @pytest.mark.parametrize(
        "policy,expected", [("always", 2), ("commit", 1), ("never", 0)]
    )
    @pytest.mark.parametrize("relearn_epochs", [0, 1])  # 2 marks / 3 marks
    def test_committed_pipeline_transaction(
        self, tmp_path, recorder, policy, expected, relearn_epochs
    ):
        wal = DeltaLog(tmp_path / "pipeline.wal", fsync=policy)
        _g, _e, pipe = make_pipeline_stack(wal=wal)
        before = recorder.calls
        pipe.apply_update(relearn_epochs=relearn_epochs, **UPDATE)
        assert recorder.calls - before == expected
        assert len(wal.stages(pipe.last_txn)) == 2 + relearn_epochs
        wal.close()

    def test_bare_transaction_without_marks(self, tmp_path, recorder):
        with DeltaLog(tmp_path / "bare.wal") as wal:
            before = recorder.calls
            wal.commit(wal.begin({"u": 1}))
            assert recorder.calls - before == 2


def replay_twin(image_path) -> np.ndarray:
    """Marginals of a never-crashed stack that applied exactly the
    image's ``committed() ∪ pending()`` payloads, in log order."""
    with DeltaLog(image_path) as image:
        survivors = sorted(image.committed() + image.pending())
    twin = make_service()
    for _txn, payload in survivors:
        twin.pipeline.apply_update(**{k: v for k, v in payload.items() if v})
    twin._on_commit(twin.pipeline.last_txn)
    return twin.read().marginals.copy()


class TestServicePowerLoss:
    @pytest.mark.parametrize(
        "site,reapplied",
        [
            # Cut mid-transaction: begin is durable, the marks are not,
            # the commit never happened — recovery re-applies it.
            ("engine.update.inferred", 1),
            # Cut after admission, before begin: the payload only ever
            # lived in the in-memory queue and is gone (the sentence the
            # docs used to get wrong).
            ("service.batch.start", 0),
        ],
    )
    def test_restore_from_durable_image_matches_twin(
        self, tmp_path, recorder, site, reapplied
    ):
        wal_path = tmp_path / "service.wal"
        svc = make_service(wal_path=wal_path).start()
        svc.prime()
        svc.submit(**UPDATE_A)
        assert svc.drain(timeout=60)
        with inject_faults(FaultPlan([Fault(site=site, action="crash")])):
            svc.submit(**UPDATE_B)
            assert not svc.drain(timeout=60)
        assert svc.status()["health"]["state"] == CRASHED

        image = recorder.image(wal_path, tmp_path / "image.wal")
        svc.pipeline.wal.close()  # the dead process's handle
        if reapplied:
            # The cut really discarded flushed-but-unsynced bytes.
            assert os.path.getsize(image) < os.path.getsize(wal_path)
        expected = replay_twin(shutil.copy(image, tmp_path / "twin.wal"))

        restored = KBService.restore(
            image,
            make_service_stack,
            config=ServiceConfig(poll_interval=0.005),
            retry=FAST_RETRY,
        )
        assert restored.recovery["replayed"] == 2  # prime + UPDATE_A (D1)
        assert restored.recovery["pending_reapplied"] == reapplied  # D2
        np.testing.assert_array_equal(
            restored.read(max_staleness=0).marginals, expected
        )
        assert restored.pipeline.wal.pending() == []
        restored.stop()
