"""Write-ahead delta log.

A :class:`DeltaLog` records every update transaction *before* it is
applied: ``begin(payload)`` appends the update's description (its
relation rows, rule changes and relearn epochs — anything picklable),
``mark`` stamps intermediate pipeline stages, and ``commit``/``rollback``
close the transaction.
After a crash, :meth:`pending` returns the payloads of transactions that
began but never committed — exactly the updates that must be retried —
and :meth:`committed` replays the applied history onto a fresh engine.

Durability contract
-------------------
Stated for a log reopened from **only the bytes that had been
fsync'd** (power loss; a process kill keeps the OS cache and therefore
every flushed frame), under the default ``fsync="always"``:

* **D1** — every transaction whose :meth:`commit` returned is in
  :meth:`committed` (and one whose :meth:`rollback` returned stays
  rolled back: recovery does not re-apply an update that failed).
* **D2** — every transaction whose :meth:`begin` returned is in
  :meth:`committed`, rolled back, or in :meth:`pending` (recovery
  re-applies the pending ones, so an update that started is never
  silently dropped).
* **D3** — the surviving frames are a *prefix* of the frames written: a
  visible frame implies every earlier one (one append-only file, torn
  tail discarded), hence a visible ``commit`` implies its ``begin``.

D1 and D2 need exactly the frames a recovery decision reads to be
synced before the call returns: ``begin`` (the pending set),
``commit``/``rollback`` (the committed set) and the ``truncated`` floor
(:meth:`truncate` rewrites and syncs the whole file, then the directory
entry its rename changed).  ``mark`` frames
decide nothing at recovery — they are written and flushed like every
frame, and become durable with the next synced frame of the file,
normally their own transaction's closing frame.  Beyond D3 a mark
carries no guarantee.  ``fsync="commit"`` drops the ``begin`` sync and
with it D2 (a begun, uncommitted transaction may vanish); ``"never"``
keeps only D3.

An update that was handed to a caller *above* the log (e.g. sitting in
the service's in-memory admission queue) but whose ``begin`` has not
returned is outside this contract: it is lost on any crash.

On-disk format: an 8-byte magic header, then length-prefixed frames —
``u32 payload length | u32 CRC-32 | pickled record``.  The framing
distinguishes the two ways a log can be damaged:

* a **torn final frame** (crash mid-append) is discarded on read and cut
  off the file before the next append — safe, because a payload whose
  ``begin`` frame is incomplete was by construction never applied;
* a **bad non-final frame** (a frame that fails its CRC or is truncated
  while complete frames follow it) means the log was corrupted in place,
  and reading raises :class:`WALCorruptionError` instead of silently
  replaying a wrong prefix.

A file that is a proper prefix of the magic is a creation torn by a
crash before any frame was written, and opens as a new log; any other
file without the magic is not a log, and opening it raises
:class:`WALCorruptionError` and leaves it as it is.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib

from repro.reliability.errors import WALCorruptionError

_MAGIC = b"DLOG0002"
_HEADER = struct.Struct("<II")  # payload length, CRC-32 of the payload

#: The frames each ``fsync`` policy syncs before the appending call
#: returns.  "always" syncs the frames recovery decides on — two per
#: committed transaction — and gives D1–D3 of the module docstring;
#: "commit" syncs only the closing frame (D1 and D3); "never" leaves
#: durability to the OS (D3).  No policy syncs a ``mark`` on its own: it
#: rides the next synced frame.
_SYNCED_EVENTS = {
    "always": frozenset({"begin", "commit", "rollback"}),
    "commit": frozenset({"commit", "rollback"}),
    "never": frozenset(),
}
FSYNC_POLICIES = tuple(_SYNCED_EVENTS)


def replace_durably(src: str, dst: str) -> None:
    """``os.replace(src, dst)`` that survives a power loss once it
    returns.  A rename is an update of the containing directory, which
    syncing ``src`` does not cover: without a directory sync the new name
    may be lost while a later unlink or rewrite that relied on it
    persists."""
    os.replace(src, dst)
    fd = os.open(os.path.dirname(os.path.abspath(dst)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class DeltaLog:
    """Append-only transaction log, file-backed or in-memory.

    ``path=None`` keeps the log in memory (tests, ephemeral engines);
    with a path the file is opened append-mode and every record is
    flushed (and fsync'd per ``fsync`` policy) so the WAL survives the
    writing process.
    """

    def __init__(self, path=None, fsync: str = "always") -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self.path = os.fspath(path) if path is not None else None
        self.fsync = fsync
        self._records: list[dict] = []
        self._fh = None
        if self.path is not None:
            self._records, valid_end = self._read_frames(self.path)
            if valid_end is None:
                with open(self.path, "wb") as fh:
                    fh.write(_MAGIC)
                    fh.flush()
                    os.fsync(fh.fileno())
            elif valid_end < os.path.getsize(self.path):
                # Cut the torn tail off before appending: a frame written
                # after it would turn it into a bad *non-final* frame and
                # make the log unreadable.
                os.truncate(self.path, valid_end)
            self._fh = open(self.path, "ab")
        existing = [r["txn"] for r in self._records]
        self._next_txn = max(existing, default=0) + 1

    @classmethod
    def _read_frames(cls, path: str) -> tuple[list[dict], int | None]:
        """The log's records and the byte offset its valid prefix ends
        at (anything past it is a torn tail); ``([], None)`` when there
        is no log yet — no file, or a proper prefix of the magic."""
        if not os.path.exists(path):
            return [], None
        with open(path, "rb") as fh:
            data = fh.read()
        if not data.startswith(_MAGIC):
            if _MAGIC.startswith(data):
                return [], None
            raise WALCorruptionError(
                f"{path}: not a delta log (no {_MAGIC.decode()} header)"
            )
        records = []
        pos = len(_MAGIC)
        end = len(data)
        while pos < end:
            frame_ok = False
            if pos + _HEADER.size <= end:
                length, crc = _HEADER.unpack_from(data, pos)
                payload = data[pos + _HEADER.size : pos + _HEADER.size + length]
                if len(payload) == length and zlib.crc32(payload) == crc:
                    records.append(pickle.loads(payload))
                    pos += _HEADER.size + length
                    frame_ok = True
            if not frame_ok:
                # The frame at ``pos`` is damaged.  If any *complete,
                # valid* frame follows it the damage is mid-log — refuse
                # to replay; otherwise it is the torn tail of a crashed
                # append and everything from here on is discarded.
                if cls._valid_frame_after(data, pos, end):
                    raise WALCorruptionError(
                        f"{path}: torn non-final frame at byte {pos} "
                        f"(valid frames follow — the log was corrupted in "
                        f"place, not torn by a crash)"
                    )
                break
        return records, pos

    @staticmethod
    def _valid_frame_after(data: bytes, pos: int, end: int) -> bool:
        """True when any complete, CRC-valid frame starts past ``pos``.

        A linear probe over candidate offsets: frames are small (one
        pickled dict each) and this only runs on the error path."""
        for start in range(pos + 1, end - _HEADER.size):
            length, crc = _HEADER.unpack_from(data, start)
            stop = start + _HEADER.size + length
            if stop > end:
                continue
            payload = data[start + _HEADER.size : stop]
            if zlib.crc32(payload) == crc:
                try:
                    record = pickle.loads(payload)
                except Exception:
                    continue
                if isinstance(record, dict) and "event" in record:
                    return True
        return False

    def _append(self, record: dict) -> None:
        self._records.append(record)
        if self._fh is not None:
            payload = pickle.dumps(record)
            self._fh.write(_HEADER.pack(len(payload), zlib.crc32(payload)))
            self._fh.write(payload)
            self._fh.flush()
            if record["event"] in _SYNCED_EVENTS[self.fsync]:
                os.fsync(self._fh.fileno())

    # ------------------------------------------------------------------ #

    def begin(self, payload) -> int:
        """Log an update before applying it; returns the transaction id."""
        txn = self._next_txn
        self._next_txn += 1
        self._append({"txn": txn, "event": "begin", "payload": payload})
        return txn

    def mark(self, txn: int, stage: str, payload=None) -> None:
        """Stamp an intermediate stage (e.g. ``grounded``, ``patched``)."""
        self._append(
            {"txn": txn, "event": "mark", "stage": stage, "payload": payload}
        )

    def commit(self, txn: int) -> None:
        self._append({"txn": txn, "event": "commit"})

    def rollback(self, txn: int, reason: str = "") -> None:
        self._append({"txn": txn, "event": "rollback", "reason": reason})

    # ------------------------------------------------------------------ #

    def records(self) -> list[dict]:
        return list(self._records)

    def _status(self) -> dict:
        status: dict[int, str] = {}
        for rec in self._records:
            if rec["event"] == "begin":
                status.setdefault(rec["txn"], "pending")
            elif rec["event"] in ("commit", "rollback"):
                status[rec["txn"]] = rec["event"]
        return status

    def pending(self) -> list[tuple[int, object]]:
        """(txn, payload) of transactions begun but never closed."""
        status = self._status()
        return [
            (rec["txn"], rec["payload"])
            for rec in self._records
            if rec["event"] == "begin" and status.get(rec["txn"]) == "pending"
        ]

    def committed(self) -> list[tuple[int, object]]:
        """(txn, payload) of committed transactions, in apply order."""
        status = self._status()
        return [
            (rec["txn"], rec["payload"])
            for rec in self._records
            if rec["event"] == "begin" and status.get(rec["txn"]) == "commit"
        ]

    def truncated_below(self) -> int:
        """Highest transaction id dropped by :meth:`truncate` (0 if the
        log still holds its full history).  Committed transactions with
        ids at or below this floor are *not* in the log — replaying it
        from scratch yields a partial state unless a checkpoint at or
        past the floor supplies the missing prefix."""
        return max(
            (rec["txn"] for rec in self._records
             if rec["event"] == "truncated"),
            default=0,
        )

    def stages(self, txn: int) -> list[str]:
        return [
            rec["stage"]
            for rec in self._records
            if rec["event"] == "mark" and rec["txn"] == txn
        ]

    def truncate(self, upto_txn: int) -> int:
        """Drop all records of transactions ``<= upto_txn``; returns the
        number of records removed.

        Used after a durable checkpoint at transaction ``upto_txn``: the
        checkpoint supersedes the history it captured, so the log stays
        bounded by the checkpoint interval instead of growing forever.
        Open (pending) transactions are never truncated — a checkpoint
        taken while an update is in flight must keep its ``begin`` frame
        for crash recovery.  A ``truncated`` marker records the floor so
        a later *cold* replay (no checkpoint) can refuse instead of
        silently rebuilding from a partial history
        (:meth:`truncated_below`).  File-backed logs are rewritten
        atomically (tmp + fsync + rename + directory fsync)."""
        status = self._status()
        keep = [
            rec
            for rec in self._records
            if rec["txn"] > upto_txn or status.get(rec["txn"]) == "pending"
        ]
        dropped = len(self._records) - len(keep)
        if dropped == 0:
            return 0
        keep.insert(0, {"txn": upto_txn, "event": "truncated"})
        self._records = keep
        if self.path is not None:
            self._fh.close()
            self._rewrite(keep)
            self._fh = open(self.path, "ab")
        return dropped

    def _rewrite(self, records: list[dict]) -> None:
        """Replace the log file with ``records``, framed, atomically
        (tmp + fsync + rename + directory fsync)."""
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            for rec in records:
                payload = pickle.dumps(rec)
                fh.write(_HEADER.pack(len(payload), zlib.crc32(payload)))
                fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        replace_durably(tmp, self.path)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
