"""Columnar relation mirrors: interned int32 columns + bucketed hash indexes.

Grounding is joins, and joins over Python tuples pay per-tuple
interpreter overhead on every full ground and every delta.  This module
provides the columnar substrate the vectorized join plans
(:mod:`repro.db.plan`) — the package's only join engine — run on:

* :class:`Interner` — a database-wide dictionary mapping arbitrary
  hashable constants to dense ``int32`` codes, so joins compare machine
  integers instead of Python objects.
* :class:`ColumnarTable` — a numpy mirror of one :class:`Relation`:
  visible rows as an ``(n, arity)`` int32 code matrix with an alive mask,
  maintained *incrementally* from the relation's visibility transitions
  (appends + tombstones, threshold compaction — the PR 3 pattern applied
  to relations).  Per-key-column hash indexes are dictionaries from
  packed key bytes to contiguous slot arrays, grown in O(|Δ|) per update.
* :class:`ColumnarBatch` — a transient signed relation (delta relations,
  intermediate join results) with ephemeral sort-based indexes.
* :class:`TableView` — an immutable *old-state* snapshot of a
  :class:`ColumnarTable` taken at an ``apply_delta`` boundary: O(1) to
  capture (a slot fence + copy-on-write alive overrides, no row copies),
  so the fused k-term delta plans (:func:`repro.db.plan.compile_delta_plans`)
  can probe "the relation as of before this update" next to the live
  new state.
* :class:`ColumnarStore` — the per-:class:`Database` catalog of mirrors
  plus the shared interner, the join-plan and delta-plan caches, and the
  per-update registry of captured old-state views.

All probe results flow as ``(probe_row, slot)`` index-pair arrays so a
whole binding batch advances through a join step in a handful of numpy
operations.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ColumnarBatch",
    "ColumnarStore",
    "ColumnarTable",
    "Interner",
    "TableView",
    "expand_ranges",
    "pack_rows",
]


class Interner:
    """Hashable constants ↔ dense ``int32`` codes.

    Code equality must coincide with Python equality, which the backing
    dict guarantees (note this conflates ``True``/``1`` exactly like the
    tuple-keyed :class:`~repro.db.relation.Relation` does).
    :meth:`decode` returns the first representative interned for each
    code.
    """

    def __init__(self) -> None:
        self._code_of: dict = {}
        self._values: list = []

    def __len__(self) -> int:
        return len(self._values)

    def intern(self, value) -> int:
        code = self._code_of.get(value)
        if code is None:
            code = len(self._values)
            self._code_of[value] = code
            self._values.append(value)
        return code

    def probe(self, value) -> int:
        """The code of ``value`` or ``-1`` (without interning it)."""
        return self._code_of.get(value, -1)

    def encode_rows(self, rows) -> np.ndarray:
        """Intern an iterable of equal-length tuples into an int32 matrix."""
        rows = list(rows)
        if not rows:
            return np.empty((0, 0), dtype=np.int32)
        intern = self.intern
        flat = [intern(v) for row in rows for v in row]
        return np.asarray(flat, dtype=np.int32).reshape(len(rows), len(rows[0]))

    def decode(self, codes) -> list:
        """Codes (array or list) back to their representative values."""
        values = self._values
        return [values[c] for c in np.asarray(codes).tolist()]


def pack_rows(matrix: np.ndarray) -> np.ndarray:
    """Pack the rows of an int32 matrix into one comparable key per row.

    One- and two-column keys pack arithmetically into ``int64`` (codes
    are non-negative and < 2³¹), keeping ``searchsorted``/``unique`` on
    fast native dtypes; wider keys fall back to a void byte view (memcmp
    order — all the group-by machinery needs is a consistent order).
    Zero-width keys degenerate to a constant array: one group.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.int32)
    n, k = matrix.shape
    if k == 0:
        return np.zeros(n, dtype=np.int64)
    if k == 1:
        return matrix[:, 0].astype(np.int64)
    if k == 2:
        return (matrix[:, 0].astype(np.int64) << 32) | matrix[:, 1].astype(
            np.int64
        )
    return matrix.view(np.dtype((np.void, 4 * k))).ravel()


def pack_row(row_codes) -> "int | bytes":
    """Scalar key for one code row, matching :func:`pack_rows` exactly
    (``.tolist()`` of a packed array yields these values)."""
    k = len(row_codes)
    if k == 0:
        return 0
    if k == 1:
        return int(row_codes[0])
    if k == 2:
        return (int(row_codes[0]) << 32) | int(row_codes[1])
    return np.ascontiguousarray(row_codes, dtype=np.int32).tobytes()


def expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, s + c)`` for every (start, count) pair."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.cumsum(counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return np.repeat(starts, counts) + within


class _Bucket:
    """A growable contiguous slot array (one hash-index group)."""

    __slots__ = ("slots", "size")

    def __init__(self, initial) -> None:
        self.slots = np.asarray(initial, dtype=np.int64)
        self.size = len(self.slots)

    def append(self, slot: int) -> None:
        if self.size == len(self.slots):
            grown = np.empty(max(4, 2 * self.size), dtype=np.int64)
            grown[: self.size] = self.slots
            self.slots = grown
        self.slots[self.size] = slot
        self.size += 1

    def view(self) -> np.ndarray:
        return self.slots[: self.size]


class _TableIndex:
    """A grouped hash index on one key-position combination.

    The *base* is a contiguous group structure built in one vectorized
    pass (sorted distinct keys + CSR offsets into a slot permutation);
    probes are pure ``searchsorted`` — no per-key Python.  Appends land
    in a small *overflow* dict of buckets so deltas never rebuild the
    base; when the overflow outgrows a fraction of the base it is merged
    back in one vectorized rebuild (amortized O(1) per append).
    """

    __slots__ = (
        "base_uniq", "base_starts", "base_slots", "extra", "extra_size",
        "merge_fraction", "probe_merge_threshold",
    )

    #: merge the overflow into the base when it exceeds base/4 slots.
    _MERGE_FRACTION = 4
    #: probes larger than this force a merge first (vectorized probing
    #: beats a per-key overflow scan); delta-sized probes stay under it.
    _PROBE_MERGE_THRESHOLD = 256

    def __init__(
        self,
        keys: np.ndarray,
        merge_fraction: int | None = None,
        probe_merge_threshold: int | None = None,
    ) -> None:
        self.merge_fraction = (
            self._MERGE_FRACTION if merge_fraction is None else merge_fraction
        )
        self.probe_merge_threshold = (
            self._PROBE_MERGE_THRESHOLD
            if probe_merge_threshold is None
            else probe_merge_threshold
        )
        self.rebuild(keys)

    def rebuild(self, keys: np.ndarray) -> None:
        n = len(keys)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        if n:
            boundaries = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1])
            starts = np.concatenate(([0], boundaries + 1, [n]))
            self.base_uniq = sorted_keys[starts[:-1]]
        else:
            starts = np.zeros(1, dtype=np.int64)
            self.base_uniq = sorted_keys
        self.base_starts = starts.astype(np.int64, copy=False)
        self.base_slots = order.astype(np.int64, copy=False)
        self.extra: dict = {}
        self.extra_size = 0

    def append(self, key_bytes: bytes, slot: int) -> None:
        bucket = self.extra.get(key_bytes)
        if bucket is None:
            self.extra[key_bytes] = _Bucket([slot])
        else:
            bucket.append(slot)
        self.extra_size += 1

    def needs_merge(self, probe_size: int | None = None) -> bool:
        if not self.extra_size:
            return False
        if probe_size is not None:
            return probe_size >= self.probe_merge_threshold
        return (
            self.extra_size * self.merge_fraction
            > len(self.base_slots) + 16
        )

    def probe(self, probe_keys: np.ndarray) -> tuple:
        """``(probe_idx, slots)`` match pairs (alive filtering is the
        caller's job)."""
        m = len(probe_keys)
        g = len(self.base_uniq)
        if g:
            pos = np.searchsorted(self.base_uniq, probe_keys)
            pos_c = np.minimum(pos, g - 1)
            valid = (pos < g) & (self.base_uniq[pos_c] == probe_keys)
            starts = self.base_starts[pos_c]
            counts = (self.base_starts[pos_c + 1] - starts) * valid
            probe_idx = np.repeat(np.arange(m, dtype=np.int64), counts)
            slots = self.base_slots[expand_ranges(starts, counts)]
        else:
            probe_idx = np.empty(0, dtype=np.int64)
            slots = np.empty(0, dtype=np.int64)
        if self.extra:
            extra = self.extra
            extra_probe, extra_views = [], []
            for i, key in enumerate(probe_keys.tolist()):
                bucket = extra.get(key)
                if bucket is not None:
                    extra_probe.append(
                        np.full(bucket.size, i, dtype=np.int64)
                    )
                    extra_views.append(bucket.view())
            if extra_probe:
                probe_idx = np.concatenate([probe_idx, *extra_probe])
                slots = np.concatenate([slots, *extra_views])
        return probe_idx, slots


class ColumnarTable:
    """Columnar mirror of one relation's *visible* rows.

    Slots are append-only between compactions; a disappearing row flips
    its alive bit, a reappearing row flips it back (the slot — and every
    index bucket containing it — is reused).  Indexes therefore survive
    :meth:`Relation.apply_delta` without rebuilds; probes filter through
    the alive mask vectorized.
    """

    _COMPACT_MIN_SLOTS = 256
    _COMPACT_DEAD_FRACTION = 0.5

    def __init__(
        self,
        relation,
        interner: Interner,
        stats: dict,
        merge_fraction: int | None = None,
        probe_merge_threshold: int | None = None,
    ) -> None:
        self._relation = relation
        self._interner = interner
        self._stats = stats
        #: overflow-bucket merge tuning, passed to every _TableIndex.
        #: Old-state views pin a slot fence, not the index structure, so
        #: long-lived views never block these amortized merges.
        self._merge_fraction = merge_fraction
        self._probe_merge_threshold = probe_merge_threshold
        self._log: list = []
        relation.attach_mirror(self._log)
        self.arity = relation.arity
        self._codes = np.empty((0, self.arity), dtype=np.int32)
        self._alive = np.empty(0, dtype=bool)
        self._n_slots = 0
        self._n_alive = 0
        self._slot_of: dict = {}
        self._indexes: dict = {}  # positions tuple -> {key bytes: _Bucket}
        self._alive_slots_cache: np.ndarray | None = None
        self._views: list = []  # live TableView snapshots (copy-on-write)
        self._load(relation.rows())

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #

    def _load(self, rows) -> None:
        # Compaction (and clear-reload) reassigns every slot; live views
        # fence on slot numbers, so they detach first by materializing
        # their visible rows (O(view) — rare, and never blocks the merge
        # or compaction itself).
        if self._views:
            for view in self._views:
                view._materialize()
            self._views = []
        self._stats["rebuilds"] += 1
        codes = self._interner.encode_rows(rows)
        if codes.size == 0:
            codes = codes.reshape(0, self.arity)
        self._codes = codes.astype(np.int32, copy=False)
        self._n_slots = len(codes)
        self._n_alive = self._n_slots
        self._alive = np.ones(self._n_slots, dtype=bool)
        self._slot_of = {row: i for i, row in enumerate(rows)}
        self._indexes.clear()
        self._alive_slots_cache = None

    def _append_slot(self, row: tuple) -> int:
        slot = self._n_slots
        if slot == len(self._codes):
            cap = max(16, 2 * len(self._codes))
            grown = np.empty((cap, self.arity), dtype=np.int32)
            grown[:slot] = self._codes[:slot]
            self._codes = grown
            grown_alive = np.zeros(cap, dtype=bool)
            grown_alive[:slot] = self._alive[:slot]
            self._alive = grown_alive
        intern = self._interner.intern
        for pos, value in enumerate(row):
            self._codes[slot, pos] = intern(value)
        self._n_slots += 1
        self._slot_of[row] = slot
        for positions, index in self._indexes.items():
            index.append(pack_row(self._codes[slot, positions]), slot)
        return slot

    def sync(self) -> None:
        """Drain the relation's transition log into the mirror (O(|Δ|))."""
        if not self._log:
            return
        log, self._log[:] = list(self._log), []
        # Copy-on-write for old-state views: the first post-capture flip
        # of a pre-fence slot records its capture-time alive value in
        # every live view (slots are append-only between compactions, so
        # codes never need copying).
        views = [v for v in self._views if v._table is self]
        self._views = views
        for row, sign in log:
            if row is None:  # clear() sentinel
                self._load(self._relation.rows())
                views = []
                continue
            slot = self._slot_of.get(row)
            if sign > 0:
                if slot is None:
                    slot = self._append_slot(row)  # may reallocate _alive
                    self._alive[slot] = True
                    self._n_alive += 1
                elif not self._alive[slot]:
                    for view in views:
                        if slot < view._fence and slot not in view._overrides:
                            view._overrides[slot] = False
                    self._alive[slot] = True
                    self._n_alive += 1
            elif slot is not None and self._alive[slot]:
                for view in views:
                    if slot < view._fence and slot not in view._overrides:
                        view._overrides[slot] = True
                self._alive[slot] = False
                self._n_alive -= 1
        self._alive_slots_cache = None
        dead = self._n_slots - self._n_alive
        if (
            self._n_slots >= self._COMPACT_MIN_SLOTS
            and dead > self._COMPACT_DEAD_FRACTION * self._n_slots
        ):
            self._load(self._relation.rows())

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    @property
    def num_rows(self) -> int:
        return self._n_alive

    def alive_slots(self) -> np.ndarray:
        cached = self._alive_slots_cache
        if cached is None:
            cached = np.flatnonzero(self._alive[: self._n_slots])
            self._alive_slots_cache = cached
        return cached

    def codes_at(self, slots: np.ndarray, position: int) -> np.ndarray:
        return self._codes[slots, position]

    def signs_of(self, slots: np.ndarray) -> np.ndarray:
        """Relations contribute each visible tuple once, positively."""
        return np.ones(len(slots), dtype=np.int64)

    def _index_keys(self, positions: tuple) -> np.ndarray:
        return pack_rows(self._codes[: self._n_slots][:, positions])

    def _ensure_index(self, positions: tuple) -> _TableIndex:
        index = self._indexes.get(positions)
        if index is None:
            self._stats["index_builds"] += 1
            index = _TableIndex(
                self._index_keys(positions),
                merge_fraction=self._merge_fraction,
                probe_merge_threshold=self._probe_merge_threshold,
            )
            self._indexes[positions] = index
        return index

    def _matches(self, positions: tuple, key_rows: np.ndarray):
        """Raw index matches — no alive filtering (shared by the live
        table and its old-state views, which filter differently)."""
        self._stats["probes"] += 1
        index = self._ensure_index(positions)
        if index.extra_size and (
            index.needs_merge(probe_size=len(key_rows))
            or index.needs_merge()
        ):
            self._stats["index_merges"] += 1
            index.rebuild(self._index_keys(positions))
        return index.probe(pack_rows(key_rows))

    def probe(self, positions: tuple, key_rows: np.ndarray):
        """Match a batch of key rows against the index on ``positions``.

        ``key_rows`` is an ``(m, len(positions))`` int32 matrix (one key
        per binding).  Returns ``(probe_idx, slots)`` — parallel arrays of
        matching (binding row, alive table slot) pairs.  Empty
        ``positions`` is a cross product with every alive row.
        """
        m = len(key_rows)
        if not positions:
            self._stats["probes"] += 1
            alive = self.alive_slots()
            probe_idx = np.repeat(np.arange(m, dtype=np.int64), len(alive))
            return probe_idx, np.tile(alive, m)
        probe_idx, slots = self._matches(positions, key_rows)
        if self._n_alive == self._n_slots:  # no tombstones: skip filter
            return probe_idx, slots
        keep = self._alive[slots]
        return probe_idx[keep], slots[keep]

    # ------------------------------------------------------------------ #
    # Old-state views
    # ------------------------------------------------------------------ #

    def capture_view(self) -> "TableView":
        """O(1) snapshot of the current visible rows (see
        :class:`TableView`).  Syncs first so the fence reflects the
        relation's present state exactly."""
        self.sync()
        view = TableView(self, self._n_slots)
        self._views.append(view)
        return view

    def _old_alive_of(self, view: "TableView", slots: np.ndarray) -> np.ndarray:
        """Capture-time alive values for ``slots`` (all < the fence)."""
        alive = self._alive[slots]
        overrides = view._overrides
        if overrides:
            o_slots, o_vals = view._override_arrays()
            pos = np.searchsorted(o_slots, slots)
            pos_c = np.minimum(pos, len(o_slots) - 1)
            hit = (pos < len(o_slots)) & (o_slots[pos_c] == slots)
            alive = np.where(hit, o_vals[pos_c], alive)
        return alive

    def _probe_view(self, view: "TableView", positions: tuple, key_rows):
        m = len(key_rows)
        fence = view._fence
        if not positions:
            self._stats["probes"] += 1
            alive = self._alive[:fence].copy()
            for slot, value in view._overrides.items():
                alive[slot] = value
            old_slots = np.flatnonzero(alive)
            probe_idx = np.repeat(np.arange(m, dtype=np.int64), len(old_slots))
            return probe_idx, np.tile(old_slots, m)
        probe_idx, slots = self._matches(positions, key_rows)
        keep = slots < fence
        if not keep.all():
            probe_idx, slots = probe_idx[keep], slots[keep]
        keep = self._old_alive_of(view, slots)
        return probe_idx[keep], slots[keep]


class TableView:
    """An immutable snapshot of a table's visible rows at capture time.

    Capture is O(1): a *slot fence* (``_n_slots`` at capture — slots are
    append-only between compactions, so anything past the fence is new)
    plus a copy-on-write ``{slot: capture-time alive}`` override map the
    table fills in as post-capture transitions flip alive bits.  Probes
    go through the live table's indexes (including overflow-bucket
    merges, which reorder nothing) and filter by fence + old alive —
    no row copies, and concurrent ``apply_delta`` on the relation never
    perturbs the view.

    A compaction (or ``clear``) reassigns slots, so it first
    *materializes* every live view — copies its visible code rows into a
    standalone :class:`ColumnarBatch` with ephemeral sort indexes.  Views
    therefore pin nothing: merges and compactions proceed regardless of
    how long a view is held.

    Implements the plan-step table protocol (``probe`` / ``codes_at`` /
    ``signs_of``), so a join step can consume it interchangeably with a
    live :class:`ColumnarTable`.
    """

    __slots__ = (
        "_table", "_fence", "_overrides", "_override_cache", "_materialized",
    )

    def __init__(self, table: ColumnarTable, fence: int) -> None:
        self._table = table
        self._fence = fence
        self._overrides: dict = {}  # slot -> alive value at capture time
        self._override_cache: tuple | None = None
        self._materialized: ColumnarBatch | None = None

    @property
    def num_rows(self) -> int:
        materialized = self._resolve()
        if materialized is not None:
            return materialized.num_rows
        alive = int(np.count_nonzero(self._table._alive[: self._fence]))
        for slot, value in self._overrides.items():
            alive += (1 if value else -1) * (
                value != bool(self._table._alive[slot])
            )
        return alive

    def release(self) -> None:
        """Detach from the table: stop copy-on-write recording.  The
        view must not be probed afterwards."""
        self._table = None
        self._materialized = None
        self._overrides = {}

    def _override_arrays(self) -> tuple:
        cached = self._override_cache
        if cached is None or cached[0] != len(self._overrides):
            o_slots = np.fromiter(
                self._overrides.keys(), dtype=np.int64, count=len(self._overrides)
            )
            o_vals = np.fromiter(
                self._overrides.values(), dtype=bool, count=len(self._overrides)
            )
            order = np.argsort(o_slots)
            cached = (len(self._overrides), o_slots[order], o_vals[order])
            self._override_cache = cached
        return cached[1], cached[2]

    def _materialize(self) -> None:
        """Copy the view's visible rows out of the table (called by the
        table right before a compaction reassigns slots)."""
        if self._materialized is not None or self._table is None:
            return
        table = self._table
        fence = self._fence
        alive = table._alive[:fence].copy()
        for slot, value in self._overrides.items():
            alive[slot] = value
        slots = np.flatnonzero(alive)
        self._materialized = ColumnarBatch(
            table._codes[:fence][slots], np.ones(len(slots), dtype=np.int64)
        )
        self._table = None
        self._overrides = {}

    def _resolve(self):
        """Sync the backing table (recording any pending copy-on-write
        overrides — and possibly materializing this view if that sync
        compacts) and return the materialized batch or ``None``."""
        if self._materialized is None and self._table is not None:
            self._table.sync()
        return self._materialized

    def probe(self, positions: tuple, key_rows: np.ndarray):
        materialized = self._resolve()
        if materialized is not None:
            return materialized.probe(positions, key_rows)
        return self._table._probe_view(self, positions, key_rows)

    def codes_at(self, slots: np.ndarray, position: int) -> np.ndarray:
        if self._materialized is not None:
            return self._materialized.codes_at(slots, position)
        return self._table._codes[slots, position]

    def signs_of(self, slots: np.ndarray) -> np.ndarray:
        """Like relations, a view contributes each visible tuple once."""
        return np.ones(len(slots), dtype=np.int64)


class ColumnarBatch:
    """A transient signed columnar relation (delta / intermediate rows)."""

    def __init__(self, codes: np.ndarray, signs: np.ndarray) -> None:
        self.codes = np.ascontiguousarray(codes, dtype=np.int32)
        self.signs = np.asarray(signs, dtype=np.int64)
        self.arity = self.codes.shape[1] if self.codes.ndim == 2 else 0
        self._sorted: dict = {}

    @classmethod
    def from_signed_rows(cls, interner: Interner, signed_rows) -> "ColumnarBatch":
        """Build from an iterable of ``(row tuple, sign)`` pairs."""
        rows, signs = [], []
        for row, sign in signed_rows:
            rows.append(tuple(row))
            signs.append(sign)
        codes = interner.encode_rows(rows)
        return cls(codes, np.asarray(signs, dtype=np.int64))

    @property
    def num_rows(self) -> int:
        return len(self.signs)

    def codes_at(self, slots: np.ndarray, position: int) -> np.ndarray:
        return self.codes[slots, position]

    def signs_of(self, slots: np.ndarray) -> np.ndarray:
        return self.signs[slots]

    def probe(self, positions: tuple, key_rows: np.ndarray):
        """Sort-based ephemeral index probe (same contract as tables)."""
        m = len(key_rows)
        n = self.num_rows
        if not positions:
            probe_idx = np.repeat(np.arange(m, dtype=np.int64), n)
            return probe_idx, np.tile(np.arange(n, dtype=np.int64), m)
        cached = self._sorted.get(positions)
        if cached is None:
            keys = pack_rows(self.codes[:, positions])
            order = np.argsort(keys, kind="stable")
            cached = (keys[order], order)
            self._sorted[positions] = cached
        sorted_keys, order = cached
        probe_keys = pack_rows(key_rows)
        lo = np.searchsorted(sorted_keys, probe_keys, side="left")
        hi = np.searchsorted(sorted_keys, probe_keys, side="right")
        counts = hi - lo
        probe_idx = np.repeat(np.arange(m, dtype=np.int64), counts)
        slots = order[expand_ranges(lo, counts)]
        return probe_idx, slots


class ColumnarStore:
    """Per-database catalog of columnar mirrors + shared interner."""

    #: id-keyed plan entries are cleared past this point (ad-hoc atom
    #: sequences from one-shot callers must not pin memory forever).
    _PLAN_ID_CACHE_LIMIT = 4096

    #: every counter in :attr:`stats` (``Database.index_stats`` reports
    #: the same keys, zeroed, for a database that never built a store).
    STAT_KEYS = (
        "index_builds",
        "index_merges",
        "probes",
        "rebuilds",
        "view_captures",
        "delta_plan_hits",
        "delta_plan_misses",
        "delta_batch_builds",
    )

    def __init__(self) -> None:
        self.interner = Interner()
        self._tables: dict = {}
        # One two-level cache for both plan kinds (see _cached_plans).
        self._plans: dict = {}         # (kind, id(atoms)) -> compiled
        self._struct_plans: dict = {}  # (kind, atoms tuple) -> compiled
        self._plan_pins: dict = {}     # id(atoms) -> atoms (keeps ids stable)
        self._old_views: dict = {}  # relation name -> TableView (per update)
        #: overflow-bucket merge tuning applied to newly created mirrors
        #: (None = the _TableIndex class defaults).
        self.merge_fraction: int | None = None
        self.probe_merge_threshold: int | None = None
        self.stats = dict.fromkeys(self.STAT_KEYS, 0)

    def table(self, relation) -> ColumnarTable:
        mirror = self._tables.get(relation.name)
        if mirror is None or mirror._relation is not relation:
            mirror = ColumnarTable(
                relation,
                self.interner,
                self.stats,
                merge_fraction=self.merge_fraction,
                probe_merge_threshold=self.probe_merge_threshold,
            )
            self._tables[relation.name] = mirror
        else:
            mirror.sync()
        return mirror

    def drop(self, name: str) -> None:
        self._tables.pop(name, None)

    def delta_batch(self, transitions: dict) -> ColumnarBatch:
        """A signed batch from a ``{row: ±count}`` transition map."""
        self.stats["delta_batch_builds"] += 1
        return ColumnarBatch.from_signed_rows(
            self.interner, transitions.items()
        )

    # ------------------------------------------------------------------ #
    # Old-state views (one capture epoch per incremental update)
    # ------------------------------------------------------------------ #

    def begin_update(self) -> None:
        """Open a capture epoch (defensively releasing any stale one)."""
        if self._old_views:
            self.release_views()

    def capture_old(self, relation) -> TableView:
        """Snapshot ``relation``'s pre-update state — call *before* its
        ``apply_delta``.  Idempotent per epoch: the first capture (taken
        while the relation is still untouched) wins."""
        name = relation.name
        view = self._old_views.get(name)
        if view is None:
            view = self.table(relation).capture_view()
            self._old_views[name] = view
            self.stats["view_captures"] += 1
        return view

    def old_view(self, name: str) -> "TableView | None":
        """The captured old-state view for ``name``, or ``None`` (an
        unchanged relation's live table *is* its old state)."""
        return self._old_views.get(name)

    def release_views(self) -> None:
        """Close the capture epoch: detach every view from its table so
        later syncs stop paying copy-on-write recording."""
        for view in self._old_views.values():
            view.release()
        self._old_views = {}

    def _cached_plans(self, kind: str, atoms, compile_atoms) -> tuple:
        """``(compiled, compiled_now)`` from the two-level plan cache.

        The hot path keys on the *identity* of the atoms sequence (rule
        bodies are stable tuples), skipping re-hashing of nested atom
        dataclasses; a structural second level dedupes plans for
        one-shot callers that build fresh atom lists, and the id level
        (plus its pin map, which keeps ids from being recycled) is
        cleared past a size limit so such callers cannot pin memory
        without bound.  An id entry counts only while its pin *is* the
        sequence asked about: a store unpickled from a checkpoint carries
        ids of objects that no longer exist.
        """
        ident = id(atoms)
        found = self._plans.get((kind, ident))
        if found is not None and self._plan_pins.get(ident) is atoms:
            return found, False
        struct_key = (kind, tuple(atoms))
        found = self._struct_plans.get(struct_key)
        compiled_now = found is None
        if compiled_now:
            found = compile_atoms(atoms)
            if len(self._struct_plans) >= self._PLAN_ID_CACHE_LIMIT:
                self._struct_plans.clear()
            self._struct_plans[struct_key] = found
        if len(self._plans) >= self._PLAN_ID_CACHE_LIMIT:
            self._plans.clear()
            self._plan_pins.clear()
        self._plans[kind, ident] = found
        self._plan_pins[ident] = atoms
        return found, compiled_now

    def plan(self, atoms):
        """Cached compiled :class:`~repro.db.plan.JoinPlan` of a full
        body join (every atom probes its live relation)."""
        from repro.db.plan import JoinPlan

        return self._cached_plans("full", atoms, JoinPlan.compile)[0]

    def delta_plans(self, atoms) -> tuple:
        """Cached fused k-term delta plans for a rule body (one plan per
        body position — see :func:`repro.db.plan.compile_delta_plans`).
        The ``delta_plan_hits`` / ``delta_plan_misses`` counters make
        compile-per-update regressions visible in tests.
        """
        from repro.db.plan import compile_delta_plans

        plans, compiled_now = self._cached_plans(
            "delta", atoms, compile_delta_plans
        )
        self.stats["delta_plan_misses" if compiled_now else "delta_plan_hits"] += 1
        return plans
