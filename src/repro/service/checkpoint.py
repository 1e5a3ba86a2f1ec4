"""Durable service checkpoints.

A checkpoint is the pickled (grounder, engine, bookkeeping) state of the
service at a committed transaction boundary, written atomically
(tmp file + fsync + ``os.replace`` + directory fsync) with a sha256
checksum so a torn or corrupted file is *detected* rather than loaded.
:meth:`CheckpointStore.load` walks checkpoints newest-first and falls
back past any that fail verification — a corrupt latest checkpoint
costs recovery time (a longer WAL tail to replay), never correctness.

File layout::

    CKPT0021 | u64 payload length | 32-byte sha256(payload) | payload

The magic is the format version of the *pickled state*, not only of the
header: it moves whenever a pickled class changes shape, so a file
written by an older tree fails verification here — skipped and counted
like a corrupt one, recovery falling back to an older checkpoint or the
WAL — instead of unpickling into an object that breaks at its first
update.  ``_SHAPE_DIGEST`` pins the shape the current magic names, and a
tier-1 test fails on a shape change until both move (CHANGES.md records
what each bump changed).

The store keeps the ``keep`` most recent checkpoints; after a checkpoint
at transaction ``txn`` the service truncates its WAL to ``txn``, so the
pair (newest valid checkpoint, WAL tail) is always a complete recipe for
rebuilding the live state.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import re
import struct

from repro.reliability.faults import maybe_fire
from repro.reliability.wal import replace_durably

_MAGIC = b"CKPT0022"
#: The shape of the state ``_MAGIC`` names: what a small service's
#: checkpoint pickles, hashed by ``tests/test_service.py``
#: (``checkpoint_shape``) — a shape change fails that test until the
#: magic moves and the new digest is pinned here.
_SHAPE_DIGEST = "01c9f6fd164fcdbaa1ceb9985b3041b17c1270eb26f123381661af61c581ea95"
_LEN = struct.Struct("<Q")
_NAME = re.compile(r"^ckpt-(\d{10})\.bin$")


class CheckpointError(Exception):
    """A checkpoint file failed verification (bad magic/length/digest)."""


class CheckpointStore:
    """Atomic, checksummed, retained checkpoints in one directory."""

    def __init__(self, directory, keep: int = 3) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = os.fspath(directory)
        self.keep = keep
        os.makedirs(self.directory, exist_ok=True)
        self.saved = 0
        self.corrupt_skipped = 0

    def _path(self, txn: int) -> str:
        return os.path.join(self.directory, f"ckpt-{txn:010d}.bin")

    def save(self, state, txn: int) -> str:
        """Write one checkpoint; returns its path.

        The write is atomic: a crash before ``os.replace`` leaves the
        previous checkpoint untouched, a crash after leaves a fully
        verified new one.  The directory is synced before the retention
        pass unlinks anything, so a power loss cannot keep the unlink of
        an older checkpoint and lose the new name.  The
        ``service.checkpoint.write`` injection point fires *after* the
        replace with the durable path in context, so a ``corrupt`` fault
        scribbles over exactly the file a later :meth:`load` must detect
        and skip."""
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).digest()
        path = self._path(txn)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(_LEN.pack(len(payload)))
            fh.write(digest)
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        replace_durably(tmp, path)
        self.saved += 1
        maybe_fire("service.checkpoint.write", path=path, txn=txn)
        self._retain()
        return path

    def _retain(self) -> None:
        txns = self.list_txns()
        for txn in txns[: -self.keep]:
            try:
                os.unlink(self._path(txn))
            except OSError:
                pass

    def list_txns(self) -> list[int]:
        """Transaction ids of stored checkpoints, oldest first."""
        txns = []
        for name in os.listdir(self.directory):
            m = _NAME.match(name)
            if m:
                txns.append(int(m.group(1)))
        return sorted(txns)

    def _read(self, path: str):
        with open(path, "rb") as fh:
            data = fh.read()
        if not data.startswith(_MAGIC):
            raise CheckpointError(f"{path}: bad magic")
        offset = len(_MAGIC)
        if len(data) < offset + _LEN.size + 32:
            raise CheckpointError(f"{path}: truncated header")
        (length,) = _LEN.unpack_from(data, offset)
        offset += _LEN.size
        digest = data[offset : offset + 32]
        payload = data[offset + 32 : offset + 32 + length]
        if len(payload) != length:
            raise CheckpointError(f"{path}: truncated payload")
        if hashlib.sha256(payload).digest() != digest:
            raise CheckpointError(f"{path}: checksum mismatch")
        # Unpickling allocates the whole state and frees nothing: a
        # generational collection in the middle of it walks the service's
        # heap to find no garbage (a load is 30 ms without one and 50–60
        # with, and which of the two a given load gets depends on how
        # many objects the process happened to allocate before it).
        collecting = gc.isenabled()
        gc.disable()
        try:
            return pickle.loads(payload)
        finally:
            if collecting:
                gc.enable()

    def load(self):
        """Load the newest checkpoint that verifies.

        Returns ``(state, txn)`` or ``(None, 0)`` when no valid
        checkpoint exists.  Corrupt checkpoints are counted in
        ``corrupt_skipped`` and skipped — recovery falls back to the
        next-older one (and ultimately to full WAL replay)."""
        for txn in reversed(self.list_txns()):
            path = self._path(txn)
            try:
                return self._read(path), txn
            except (CheckpointError, pickle.UnpicklingError, EOFError):
                self.corrupt_skipped += 1
                # Keep the corrupt file for post-mortems; rename it out
                # of the ckpt-* namespace so retention and later loads
                # ignore it.
                try:
                    os.replace(path, path + ".corrupt")
                except OSError:
                    pass
                continue
        return None, 0
