"""A relation: a columnar Z-set of facts with derivation counts.

Derived relations maintained by the counting algorithm (DRed's delta
relations, §3.1) need, for each tuple ``t``, the number of derivations
``t.count``; base relations simply have count 1 per inserted tuple.  A
tuple is *visible* while its count is positive.  A :class:`Relation`
stores that once, in the columns the vectorized join plans
(:mod:`repro.db.plan`) probe directly:

* the rows as an ``(n, arity)`` int32 matrix of codes from the
  database's :class:`~repro.db.columnar.Interner`;
* an int64 count column — slot ``i`` is visible while ``count[i] > 0``;
* an int64 vid column — in a variable relation, the variable id of the
  tuple at each slot (−1: no variable), written by the grounder;
* one packed-row → slot map;
* grouped hash indexes per probed key combination
  (:class:`~repro.db.columnar._TableIndex`).

Slots are append-only between compactions: a row whose count drops to
zero keeps its slot as a tombstone and reuses it if it reappears, so
indexes survive every delta and probes filter tombstones vectorized.
Past a dead fraction the live slots are repacked with their counts and
vids — once an update has begun, only when the next one begins
(:meth:`~repro.db.columnar.ColumnarStore.begin_update`), so a variable
removed by an update resolves until its retractions are joined, and the
update can be undone slot for slot until then.  Every write is logged
first (:meth:`~repro.db.columnar.ColumnarStore.log_write`): that log
undoes the update, and the open update's old-state
:class:`~repro.db.columnar.TableView`\\ s are read off it.

Tuples appear only at the edges: a ``{row: count}`` delta is encoded
once, and :meth:`Relation.rows`, :meth:`Relation.counts` and
:meth:`Relation.lookup` decode on demand.  Grounding hands code batches
in and gets code batches of visibility transitions back.
"""

from __future__ import annotations

import numpy as np

from repro.db.columnar import (
    ColumnarBatch,
    ColumnarStore,
    Interner,
    TableView,
    _TableIndex,
    cross_pairs,
    pack_row,
    pack_rows,
    row_keys,
)


class RawIds:
    """The values of a relation of raw ids — non-negative ints below
    2³¹, each its own code — so reads decode nothing and nothing is
    interned (a grounding table's variable and weight ids).  Such a
    relation takes code batches only."""

    def probe(self, value) -> int:
        return value

    def decode_rows(self, codes: np.ndarray) -> list:
        return list(map(tuple, codes.tolist()))


class Relation:
    """A named multiset of fixed-arity tuples with derivation counts.

    A database passes its interner and :class:`ColumnarStore` (counters,
    the write log) to every relation it creates; a standalone
    ``Relation(name, columns)`` gets private ones, and one over
    :class:`RawIds` stores its int values as they are.
    """

    _COMPACT_MIN_SLOTS = 256
    _COMPACT_DEAD_FRACTION = 0.5

    def __init__(
        self,
        name: str,
        columns,
        interner: Interner | RawIds | None = None,
        store: ColumnarStore | None = None,
    ) -> None:
        self.name = name
        self.columns = tuple(columns)
        self.arity = len(self.columns)
        self.interner = interner if interner is not None else Interner()
        self._store = store if store is not None else ColumnarStore(self.interner)
        # Capacity stays above the slot count, so slot -1 (an unknown
        # row) gathers the always-zero last count cell and the always
        # -1 last vid cell.
        self._codes = np.empty((16, self.arity), dtype=np.int32)
        self._count = np.zeros(16, dtype=np.int64)
        self._vid = np.full(16, -1, dtype=np.int64)
        self._n_slots = 0
        self._n_alive = 0
        self._slot_of: dict = {}  # packed code row -> slot
        self._index_on: dict = {}  # key positions -> _TableIndex
        # Memos of the visible rows, cleared whenever one flips: "alive"
        # -> the visible slots, key positions -> their distinct keys.
        self._visible: dict = {}
        self._store.serve(self)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def encode(self, rows, signs=None) -> ColumnarBatch:
        """``rows`` (each counted ``signs[i]``, default 1) as a grouped
        code batch; interns their values.  Raises ``ValueError`` on a row
        of the wrong arity before interning anything."""
        rows = list(rows)
        if rows and set(map(len, rows)) != {self.arity}:
            row = next(row for row in rows if len(row) != self.arity)
            raise ValueError(
                f"{self.name}: expected arity {self.arity}, got "
                f"{len(row)}: {tuple(row)!r}"
            )
        if signs is None:
            signs = np.ones(len(rows), dtype=np.int64)
        codes = self.interner.encode_rows(rows, self.arity)
        return ColumnarBatch(codes, signs).grouped()

    def apply_delta(self, delta):
        """Apply a signed delta and return its visibility transitions, in
        the delta's own form.

        ``delta`` is a ``{row: signed count}`` dict — the result is
        ``(appeared, disappeared)``, lists of tuples — or a
        :class:`ColumnarBatch` of *distinct* code rows with their
        non-zero signed counts (:meth:`ColumnarBatch.grouped`) — the
        result is a batch of the rows that became visible (sign +1) or
        stopped being visible (sign −1).  Everything is validated before
        anything changes: deleting more derivations than exist raises
        ``KeyError`` (the counting algorithm never does) and leaves the
        relation, interner included, as it was.
        """
        if isinstance(delta, ColumnarBatch):
            return self._apply(delta.codes, delta.signs)
        mark = len(self.interner)
        try:
            batch = self.encode(delta.keys(), np.fromiter(delta.values(), np.int64))
            flipped = self._apply(batch.codes, batch.signs)
        except BaseException:
            self.interner.truncate(mark)
            raise
        rows = self.interner.decode_rows(flipped.codes)
        signs = flipped.signs.tolist()
        return (
            [row for row, sign in zip(rows, signs) if sign > 0],
            [row for row, sign in zip(rows, signs) if sign < 0],
        )

    def insert(self, row, count: int = 1) -> bool:
        """Add ``count`` derivations of ``row``; True when it becomes
        newly visible."""
        if count <= 0:
            raise ValueError("insert count must be positive")
        return bool(self.apply_delta({tuple(row): count})[0])

    def delete(self, row, count: int = 1) -> bool:
        """Remove ``count`` derivations of ``row``; True when it stops
        being visible."""
        if count <= 0:
            raise ValueError("delete count must be positive")
        return bool(self.apply_delta({tuple(row): -count})[1])

    def _slots(self, codes: np.ndarray) -> tuple:
        """``(packed keys, slots)`` of code rows; slot −1 — the always-zero
        count cell past the last slot — for a row never stored."""
        keys = row_keys(codes)
        get = self._slot_of.get
        return keys, np.array([get(key, -1) for key in keys], dtype=np.int64)

    def rows_at(self, slots: np.ndarray) -> ColumnarBatch:
        """The code rows at ``slots`` with their derivation counts."""
        return ColumnarBatch(self._codes[slots], self._count[slots])

    def vids_of(self, codes: np.ndarray) -> np.ndarray:
        """Variable ids of code rows (−1 where absent or no variable)."""
        return self._vid[self._slots(codes)[1]]

    def set_vids(self, codes: np.ndarray, vids) -> None:
        """Write the variable ids of stored code rows (−1 clears one)."""
        slots = self._slots(codes)[1]
        if (slots < 0).any():  # the last cell must stay −1
            raise KeyError(f"{self.name}: no stored row to hold a variable id")
        self._store.log_write(self, "_vid", slots)
        self._vid[slots] = vids

    def clear_vids(self) -> None:
        """Mark every row no variable (a full ground renumbers them)."""
        slots = np.arange(self._n_slots)
        self._store.log_write(self, "_vid", slots)
        self._vid[slots] = -1

    def _apply(self, codes: np.ndarray, changes: np.ndarray) -> ColumnarBatch:
        keys, slots = self._slots(codes)
        old = self._count[slots]
        new = old + changes
        if (new < 0).any():
            i = int(np.argmin(new))
            (row,) = self.interner.decode_rows(codes[i : i + 1])
            raise KeyError(
                f"{self.name}: cannot delete {-int(changes[i])} derivations "
                f"of {row!r} (has {int(old[i])})"
            )
        self._store.log_write(self, "_count", slots)
        now = new > 0
        flips = np.flatnonzero((old > 0) != now)
        if not len(flips):
            self._count[slots] = new
            return ColumnarBatch(codes[:0], changes[:0])
        # A row never stored has a non-zero change, so it appears.
        fresh = np.flatnonzero(slots < 0)
        if len(fresh) == len(slots):
            slots = self._append(codes, keys)
        elif len(fresh):
            slots[fresh] = self._append(codes[fresh], [keys[i] for i in fresh.tolist()])
        self._count[slots] = new
        appeared = now[flips]
        self._n_alive += 2 * int(appeared.sum()) - len(flips)
        self._visible = {}
        transitions = ColumnarBatch(codes[flips], np.where(appeared, 1, -1))
        dead = self._n_slots - self._n_alive
        if (
            self._n_slots >= self._COMPACT_MIN_SLOTS
            and dead > self._COMPACT_DEAD_FRACTION * self._n_slots
        ):
            self._store.compact(self)
        return transitions

    def _append(self, codes: np.ndarray, keys: list) -> np.ndarray:
        """Store new code rows (count 0 until the caller sets it, no
        vid); keeps the capacity above the slot count."""
        start = self._n_slots
        end = start + len(codes)
        if end >= len(self._count):
            cap = max(16, 2 * len(self._count), end + 1)
            self._codes, self._count, self._vid = self._columns(slice(start), cap)
        self._codes[start:end] = codes
        self._n_slots = end
        slots = range(start, end)
        self._slot_of.update(zip(keys, slots))
        for positions, index in self._index_on.items():
            index.extend(row_keys(codes[:, positions]), slots)
        return np.arange(start, end, dtype=np.int64)

    def _undo(self, n_slots: int, n_alive: int, column: str, slots, old) -> None:
        """Invert one logged write (:meth:`ColumnarStore.log_write`): the
        old values back at ``slots``, no slot past ``n_slots``; the
        indexes rebuild at their next probe."""
        getattr(self, column)[slots] = old
        end = self._n_slots
        for key in row_keys(self._codes[n_slots:end]):
            del self._slot_of[key]
        self._count[n_slots:end], self._vid[n_slots:end] = 0, -1
        self._n_slots, self._n_alive = n_slots, n_alive
        self._index_on, self._visible = {}, {}

    def _compact(self) -> None:
        """Repack the live slots with their counts and vids (never inside
        an update, whose log and views address slots)."""
        self._store.stats["rebuilds"] += 1
        live = self.alive_slots()
        n = len(live)
        self._codes, self._count, self._vid = self._columns(live, max(16, 2 * n))
        self._n_slots = self._n_alive = n
        self._slot_of = dict(zip(pack_rows(self._codes[:n]).tolist(), range(n)))
        self._index_on, self._visible = {}, {}

    def _columns(self, slots, cap: int) -> tuple:
        """The code, count and vid columns at ``slots`` (an index array
        or a slice) packed into new arrays of capacity ``cap``: count 0
        and vid −1 past them."""
        kept = self._codes[slots]
        n = len(kept)
        codes = np.empty((cap, self.arity), dtype=np.int32)
        codes[:n] = kept
        count = np.zeros(cap, dtype=np.int64)
        count[:n] = self._count[slots]
        vid = np.full(cap, -1, dtype=np.int64)
        vid[:n] = self._vid[slots]
        return codes, count, vid

    def copy(self, interner: Interner, store: ColumnarStore) -> "Relation":
        """An independent copy over ``interner`` (a copy of this
        relation's, so codes carry over); indexes rebuild lazily."""
        clone = Relation(self.name, self.columns, interner, store)
        end = self._n_slots + 1  # capacity stays above the slot count
        clone._codes = self._codes[:end].copy()
        clone._count = self._count[:end].copy()
        clone._vid = self._vid[:end].copy()
        clone._n_slots, clone._n_alive = self._n_slots, self._n_alive
        clone._slot_of = dict(self._slot_of)
        return clone

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        end = self._n_slots + 1
        state["_codes"] = self._codes[:end]
        state["_count"] = self._count[:end]
        state["_vid"] = self._vid[:end]
        state["_visible"] = {}
        return state

    # ------------------------------------------------------------------ #
    # Reads (tuples, decoded on demand)
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._n_alive

    def __contains__(self, row) -> bool:
        return self.count(row) > 0

    def count(self, row) -> int:
        codes = [self.interner.probe(v) for v in row]
        if len(codes) != self.arity or min(codes, default=0) < 0:
            return 0
        slot = self._slot_of.get(pack_row(codes))
        return 0 if slot is None else int(self._count[slot])

    def rows(self) -> tuple:
        """All visible rows, in slot order."""
        return tuple(self.interner.decode_rows(self._codes[self.alive_slots()]))

    def counts(self) -> dict:
        """The ``{row: count}`` map of the visible rows."""
        slots = self.alive_slots()
        return dict(
            zip(
                self.interner.decode_rows(self._codes[slots]),
                self._count[slots].tolist(),
            )
        )

    def lookup(self, positions, values) -> tuple:
        """Visible rows whose ``positions`` columns equal ``values`` (an
        index probe).  An empty ``positions`` returns all rows."""
        positions = tuple(positions)
        if not positions:
            return self.rows()
        codes = [self.interner.probe(v) for v in values]
        if min(codes) < 0:
            return ()
        _, slots = self.probe(positions, np.array([codes], dtype=np.int32))
        return tuple(self.interner.decode_rows(self._codes[slots]))

    # ------------------------------------------------------------------ #
    # The plan-step table protocol
    # ------------------------------------------------------------------ #

    @property
    def num_rows(self) -> int:
        return self._n_alive

    def alive_slots(self) -> np.ndarray:
        cached = self._visible.get("alive")
        if cached is None:
            cached = np.flatnonzero(self._count[: self._n_slots] > 0)
            self._visible["alive"] = cached
        return cached

    def fan_out(self, positions: tuple) -> float:
        """Estimated visible rows a probe on ``positions`` matches: the
        visible rows over their distinct keys there, or all of them when
        no position is bound (what a join plan orders its atoms by)."""
        n = self._n_alive
        if not positions or not n:
            return float(n)
        distinct = self._visible.get(positions)
        if distinct is None:
            keys = pack_rows(self._codes[self.alive_slots()][:, positions])
            distinct = self._visible[positions] = len(np.unique(keys))
        return n / distinct

    def codes_at(self, slots: np.ndarray, position: int) -> np.ndarray:
        return self._codes[slots, position]

    def signs_of(self, slots: np.ndarray) -> np.ndarray:
        """Relations contribute each visible tuple once, positively."""
        return np.ones(len(slots), dtype=np.int64)

    def _index_keys(self, positions: tuple) -> np.ndarray:
        return pack_rows(self._codes[: self._n_slots][:, positions])

    def _matches(self, positions: tuple, key_rows: np.ndarray):
        """Raw index matches — no visibility filtering (shared by the
        live relation and its old-state views, which filter
        differently)."""
        self._store.stats["probes"] += 1
        index = self._index_on.get(positions)
        if index is None:
            self._store.stats["index_builds"] += 1
            index = self._index_on[positions] = _TableIndex(self._index_keys(positions))
        elif index.extra_size and (
            index.needs_merge(probe_size=len(key_rows)) or index.needs_merge()
        ):
            self._store.stats["index_merges"] += 1
            index.rebuild(self._index_keys(positions))
        return index.probe(pack_rows(key_rows))

    def probe(self, positions: tuple, key_rows: np.ndarray):
        """Match a batch of key rows against the index on ``positions``.

        ``key_rows`` is an ``(m, len(positions))`` int32 matrix (one key
        per binding).  Returns ``(probe_idx, slots)`` — parallel arrays of
        matching (binding row, visible slot) pairs.  Empty ``positions``
        is a cross product with every visible row.
        """
        if not positions:
            self._store.stats["probes"] += 1
            return cross_pairs(len(key_rows), self.alive_slots())
        probe_idx, slots = self._matches(positions, key_rows)
        if self._n_alive == self._n_slots:  # no tombstones: skip filter
            return probe_idx, slots
        keep = self._count[slots] > 0
        return probe_idx[keep], slots[keep]

    def _probe_view(self, view: TableView, positions: tuple, key_rows):
        if not positions:
            self._store.stats["probes"] += 1
            return cross_pairs(len(key_rows), np.flatnonzero(view._old_alive()))
        probe_idx, slots = self._matches(positions, key_rows)
        keep = slots < view._fence
        if not keep.all():
            probe_idx, slots = probe_idx[keep], slots[keep]
        alive = self._count[slots] > 0
        flipped = view._flipped
        if len(flipped):
            at = np.minimum(np.searchsorted(flipped, slots), len(flipped) - 1)
            alive ^= flipped[at] == slots
        return probe_idx[alive], slots[alive]

    def __repr__(self) -> str:
        return f"Relation({self.name}{self.columns}, rows={len(self)})"
