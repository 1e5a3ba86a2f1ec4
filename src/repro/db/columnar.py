"""The columnar pieces relations and join plans are built from.

Grounding is joins, and joins over Python tuples pay per-tuple
interpreter overhead on every full ground and every delta.  A
:class:`~repro.db.relation.Relation` therefore *is* a columnar table
(interned code rows + a signed count column), and this module holds what
it and the vectorized join plans (:mod:`repro.db.plan`) — the package's
only join engine — share:

* :class:`Interner` — a database-wide dictionary mapping arbitrary
  hashable constants to dense ``int32`` codes, so joins compare machine
  integers instead of Python objects.
* :class:`_TableIndex` — a relation's grouped hash index on one key
  combination: sorted packed keys + CSR slot groups, with overflow
  buckets so deltas append in O(|Δ|).
* :class:`ColumnarBatch` — a transient signed relation (delta relations,
  visibility transitions, intermediate join results) with ephemeral
  sort-based indexes.
* :class:`TableView` — a relation's *old state* in the open update:
  the slot fence and visibility flips the update's write log implies,
  so the fused k-term delta plans
  (:func:`repro.db.plan.compile_delta_plans`) can probe "the relation
  as of before this update" next to the live new state.
* :class:`ColumnarStore` — the per-:class:`Database` join-plan and
  delta-plan caches (a plan's atom order is chosen from the fan-out of
  the relations the store serves, estimated when it compiles), the
  write log of the last update — which undoes it and is where old-state
  views are read from — and the counters every relation of the
  database bumps.

All probe results flow as ``(probe_row, slot)`` index-pair arrays so a
whole binding batch advances through a join step in a handful of numpy
operations.
"""

from __future__ import annotations

import struct
from functools import partial
from itertools import islice

import numpy as np

__all__ = [
    "ColumnarBatch",
    "ColumnarStore",
    "Interner",
    "TableView",
    "appearance_order",
    "expand_ranges",
    "group_rows",
    "pack_rows",
    "row_keys",
]

#: Batches below this many rows pack and group in Python: numpy's fixed
#: per-call costs dominate at that size.
_SMALL_BATCH = 64


class Interner:
    """Hashable constants ↔ dense ``int32`` codes.

    One per :class:`~repro.db.database.Database`, shared by all its
    relations; a value is interned when a row holding it is first
    stored, so codes follow insertion order.  Code equality must coincide
    with Python equality, which the backing dict guarantees (note this
    conflates ``True``/``1``, as any dict-keyed store would).
    :meth:`decode` returns the first representative interned for each
    code.
    """

    def __init__(self) -> None:
        self._code_of: dict = {}
        self._values: list = []

    def __len__(self) -> int:
        return len(self._values)

    def copy(self) -> "Interner":
        clone = Interner()
        clone._code_of = dict(self._code_of)
        clone._values = list(self._values)
        return clone

    def truncate(self, size: int) -> None:
        """Forget every code ``>= size`` (undoes the interning of a
        rejected update)."""
        for value in self._values[size:]:
            del self._code_of[value]
        del self._values[size:]

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

    def encode_rows(self, rows, width: int | None = None) -> np.ndarray:
        """Intern equal-length tuples into an ``(n, width)`` int32 matrix
        (``width`` defaults to the first row's length)."""
        rows = list(rows)
        if width is None:
            width = len(rows[0]) if rows else 0
        code_of = self._code_of
        known = len(code_of)
        setdefault = code_of.setdefault  # a new value gets the next code
        try:
            flat = [setdefault(v, len(code_of)) for row in rows for v in row]
        finally:  # even past an unhashable value, so truncate() can undo
            if len(code_of) > known:  # the new values sit at the dict's end
                added = islice(reversed(code_of), len(code_of) - known)
                self._values.extend(list(added)[::-1])
        return np.asarray(flat, dtype=np.int32).reshape(len(rows), width)

    def decode(self, codes) -> list:
        """Codes (array or list) back to their representative values."""
        values = self._values
        return [values[c] for c in np.asarray(codes).tolist()]

    def decode_rows(self, codes: np.ndarray) -> list:
        """A code matrix back to a list of value tuples."""
        if codes.shape[1] == 0:
            return [()] * len(codes)
        values = self._values
        return list(zip(*([values[c] for c in col] for col in codes.T.tolist())))


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
    if k == 2:
        return (int(row_codes[0]) << 32) | int(row_codes[1])
    if k == 1:
        return int(row_codes[0])
    if k == 0:
        return 0
    return struct.pack(f"={k}i", *row_codes)


def row_keys(matrix: np.ndarray) -> list:
    """``pack_rows(matrix).tolist()``; a small matrix packs row by row in
    Python, skipping numpy's fixed per-call costs."""
    if len(matrix) >= _SMALL_BATCH:
        return pack_rows(matrix).tolist()
    return [pack_row(row) for row in matrix.tolist()]


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


def cross_pairs(m: int, slots: np.ndarray) -> tuple:
    """``(probe_idx, slots)`` pairing each of ``m`` probe rows with every
    one of ``slots`` — what a probe on no key positions matches."""
    return np.repeat(np.arange(m, dtype=np.int64), len(slots)), np.tile(slots, m)


def group_rows(codes: np.ndarray) -> tuple:
    """``(first, inverse)`` of a code matrix's distinct rows, numbered in
    first-appearance order: ``first[g]`` is group ``g``'s first row and
    ``inverse[i]`` row ``i``'s group."""
    _, first, inverse = np.unique(
        pack_rows(codes), return_index=True, return_inverse=True
    )
    return appearance_order(first, inverse.ravel())


def appearance_order(first: np.ndarray, inverse: np.ndarray) -> tuple:
    """``np.unique``'s ``(first, inverse)`` renumbered so groups run in
    first-appearance order."""
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


class _TableIndex:
    """A grouped hash index on one key-position combination.

    The *base* is a contiguous group structure built in one vectorized
    pass (sorted distinct keys + CSR offsets into a slot permutation);
    probes are pure ``searchsorted`` — no per-key Python.  Appends land
    in a small *overflow* dict of slot lists so deltas never rebuild the
    base; when the overflow outgrows a fraction of the base it is merged
    back in one vectorized rebuild (amortized O(1) per append).
    Old-state views pin a slot fence, not the index structure, so
    long-lived views never block these merges.
    """

    __slots__ = ("base_uniq", "base_starts", "base_slots", "extra", "extra_size")

    #: merge the overflow into the base when it exceeds base/4 slots.
    _MERGE_FRACTION = 4
    #: probes larger than this force a merge first (vectorized probing
    #: beats a per-key overflow scan); delta-sized probes stay under it.
    _PROBE_MERGE_THRESHOLD = 256

    def __init__(self, keys: np.ndarray) -> None:
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

    def extend(self, keys: list, slots) -> None:
        """Append ``slots`` (parallel to their packed ``keys``) to the
        overflow buckets."""
        extra = self.extra
        for key, slot in zip(keys, slots):
            bucket = extra.get(key)
            if bucket is None:
                extra[key] = [slot]
            else:
                bucket.append(slot)
        self.extra_size += len(keys)

    def needs_merge(self, probe_size: int | None = None) -> bool:
        if not self.extra_size:
            return False
        if probe_size is not None:
            return probe_size >= self._PROBE_MERGE_THRESHOLD
        return self.extra_size * self._MERGE_FRACTION > len(self.base_slots) + 16

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
            extra_probe, extra_slots = [], []
            for i, key in enumerate(probe_keys.tolist()):
                bucket = extra.get(key)
                if bucket is not None:
                    extra_probe += [i] * len(bucket)
                    extra_slots += bucket
            if extra_probe:
                probe_idx = np.concatenate([probe_idx, extra_probe])
                slots = np.concatenate([slots, extra_slots])
        return probe_idx, slots


class TableView:
    """A relation's visible rows as they were when the open update began.

    Derived from the update's write log (:meth:`ColumnarStore.old_view`):
    a *slot fence* (the slot count before the update's first write —
    slots are append-only inside an update, so anything past the fence
    is new) plus the sorted slots below it whose visibility the update
    flipped.  Probes go through the live relation's indexes (including
    overflow-bucket merges, which reorder nothing) and filter by fence +
    old visibility — no row copies.  A view describes the relation up to
    its next write; the store builds a new one after that.

    Implements the plan-step table protocol (``probe`` / ``codes_at`` /
    ``signs_of``), so a join step can consume it interchangeably with a
    live :class:`~repro.db.relation.Relation`.
    """

    __slots__ = ("_table", "_fence", "_flipped")

    def __init__(self, table, fence: int, flipped: np.ndarray) -> None:
        self._table = table
        self._fence = fence
        self._flipped = flipped

    def _old_alive(self) -> np.ndarray:
        """Pre-update visibility of every slot below the fence."""
        alive = self._table._count[: self._fence] > 0
        alive[self._flipped] ^= True
        return alive

    @property
    def num_rows(self) -> int:
        return int(np.count_nonzero(self._old_alive()))

    def probe(self, positions: tuple, key_rows: np.ndarray):
        return self._table._probe_view(self, positions, key_rows)

    def codes_at(self, slots: np.ndarray, position: int) -> np.ndarray:
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

    @classmethod
    def concat(cls, batches) -> "ColumnarBatch":
        batches = list(batches)
        if len(batches) == 1:
            return batches[0]
        return cls(
            np.concatenate([b.codes for b in batches]),
            np.concatenate([b.signs for b in batches]),
        )

    def grouped(self) -> "ColumnarBatch":
        """Equal rows summed into one (first-appearance order), zero sums
        dropped: the batch as a Z-set."""
        m = self.num_rows
        if m == 0 or (m == 1 and self.signs[0]):
            return self
        if m < _SMALL_BATCH:
            sums: dict = {}
            first: dict = {}
            for i, (key, sign) in enumerate(zip(row_keys(self.codes), self.signs.tolist())):
                if key in sums:
                    sums[key] += sign
                else:
                    sums[key], first[key] = sign, i
            if len(sums) == m and all(sums.values()):
                return self
            keep = [(first[key], total) for key, total in sums.items() if total]
            rows = [row for row, _ in keep]
            return ColumnarBatch(
                self.codes[rows], np.array([total for _, total in keep], dtype=np.int64)
            )
        keys = np.sort(pack_rows(self.codes))
        if self.signs.all() and (keys[1:] != keys[:-1]).all():
            return self
        first, inverse = group_rows(self.codes)
        sums = np.rint(
            np.bincount(
                inverse, weights=self.signs.astype(np.float64), minlength=len(first)
            )
        ).astype(np.int64)
        keep = np.flatnonzero(sums)
        return ColumnarBatch(self.codes[first[keep]], sums[keep])

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
        if not positions:
            return cross_pairs(m, np.arange(self.num_rows, dtype=np.int64))
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
    """A database's plan caches, the write log of its last update and
    its counters.

    Every relation created over the store registers with it
    (:meth:`serve`), so a plan compiled here orders its atoms by their
    relations' estimated fan-out (:meth:`fan_out`).  :attr:`stats` is
    shared with every relation of the database, which bumps the index
    and compaction counters in it; plans count the binding rows their
    steps emit in ``join_rows``."""

    #: id-keyed plan entries are cleared past this point (ad-hoc atom
    #: sequences from one-shot callers must not pin memory forever).
    _PLAN_ID_CACHE_LIMIT = 4096

    #: every counter in :attr:`stats`.
    STAT_KEYS = (
        "index_builds",
        "index_merges",
        "probes",
        "rebuilds",
        "view_captures",
        "delta_plan_hits",
        "delta_plan_misses",
        "delta_batch_builds",
        "join_rows",
    )

    def __init__(self, interner: Interner) -> None:
        self.interner = interner
        self._relations: dict = {}  # name -> the relation served
        # One two-level cache for both plan kinds (see _cached_plans).
        self._plans: dict = {}         # (kind, id(atoms)) -> compiled
        self._struct_plans: dict = {}  # (kind, atoms tuple) -> compiled
        self._plan_pins: dict = {}     # id(atoms) -> atoms (keeps ids stable)
        #: relation name -> relation due a compaction, and relation ->
        #: its writes since the last update began; ``None`` before the
        #: first update (the log also after unpickling)
        self._to_compact: dict | None = None
        self._log: dict | None = None
        #: relation name -> its memoized old-state view (``None``: it has
        #: none) while an update is open; ``None`` when none is
        self._views: dict | None = None
        self.stats = dict.fromkeys(self.STAT_KEYS, 0)

    def serve(self, relation) -> None:
        """Register ``relation``: plans compiled here read its size."""
        self._relations[relation.name] = relation

    def fan_out(self, atom, positions: tuple) -> float:
        """The estimated rows ``atom``'s relation matches per probe on
        ``positions`` (:meth:`~repro.db.relation.Relation.fan_out`); an
        atom over no relation served here counts as empty."""
        relation = self._relations.get(atom.pred)
        return 0.0 if relation is None else relation.fan_out(positions)

    def __getstate__(self) -> dict:
        # A checkpoint follows a commit: the write log does not travel.
        state = dict(self.__dict__)
        state["_log"] = state["_views"] = None
        return state

    # ------------------------------------------------------------------ #
    # One update: its write log, old-state views, deferred compactions
    # ------------------------------------------------------------------ #

    def begin_update(self) -> None:
        """Open an update: the last one can no longer be undone, so the
        relations due a compaction compact now and a fresh write log
        starts."""
        for relation in (self._to_compact or {}).values():
            relation._compact()
        self._to_compact = {}
        self._log = {}
        self._views = {}

    def end_update(self) -> None:
        """Close the open update: no old-state view from here on, while
        its log stays to :meth:`rollback` it until the next begins."""
        self._views = None

    def log_write(self, relation, column: str, slots: np.ndarray) -> None:
        """Before ``relation`` writes ``column`` at ``slots``, log what
        inverts the write while an update can be undone: the old values,
        and the slot count past which (append-only) its new slots lie."""
        if self._log is not None:
            old = getattr(relation, column)[slots]
            write = (relation._n_slots, relation._n_alive, column, slots, old)
            self._log.setdefault(relation, []).append(write)
            if self._views:
                self._views.pop(relation.name, None)

    def rollback(self) -> None:
        """Invert every relation write since the last update began, each
        relation's last first (a write's inverse touches only its own
        relation), and forget the compactions those writes made due."""
        if self._log is None:
            return
        for relation, writes in self._log.items():
            for write in reversed(writes):
                relation._undo(*write)
        self._log, self._to_compact, self._views = {}, {}, None

    def old_view(self, name: str) -> "TableView | None":
        """Relation ``name`` as it was when the open update began, read
        off the update's log: the fence is the slot count at its first
        write, and a slot below it flipped when its first logged count
        and its live count differ in visibility.  ``None`` when no
        update is open or none of its rows changed visibility (the live
        table then *is* its old state).  Memoized until the relation
        writes again."""
        if self._views is None:
            return None
        if name in self._views:
            return self._views[name]
        relation = self._relations.get(name)
        writes = self._log.get(relation, ())
        counts = [(slots, old) for *_, column, slots, old in writes if column == "_count"]
        view = None
        if counts:
            fence = writes[0][0]
            slots, was = counts[0]
            if len(counts) > 1:  # a slot's first logged count is its old one
                slots, first = np.unique(
                    np.concatenate([slots for slots, _ in counts]), return_index=True
                )
                was = np.concatenate([old for _, old in counts])[first]
            below = (slots >= 0) & (slots < fence)
            slots, was = slots[below], was[below] > 0
            flipped = np.sort(slots[was != (relation._count[slots] > 0)])
            if len(flipped) or relation._count[fence : relation._n_slots].any():
                view = TableView(relation, fence, flipped)
                self.stats["view_captures"] += 1
        self._views[name] = view
        return view

    def compact(self, relation) -> None:
        """Repack ``relation``'s live slots now before the first update,
        else when the next one begins: until then the last update may be
        undone, and a variable it removed resolves through its slot."""
        if self._to_compact is None:
            relation._compact()
        else:
            self._to_compact[relation.name] = relation

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
        body join (every atom probes its live relation), its atoms
        ordered by the fan-out estimated when it compiles."""
        from repro.db.plan import JoinPlan

        compile_atoms = partial(JoinPlan.compile, fan_out=self.fan_out)
        return self._cached_plans("full", atoms, compile_atoms)[0]

    def delta_plans(self, atoms) -> tuple:
        """Cached fused k-term delta plans for a rule body (one plan per
        body position — see :func:`repro.db.plan.compile_delta_plans`).
        The ``delta_plan_hits`` / ``delta_plan_misses`` counters make
        compile-per-update regressions visible in tests.
        """
        from repro.db.plan import compile_delta_plans

        compile_atoms = partial(compile_delta_plans, fan_out=self.fan_out)
        plans, compiled_now = self._cached_plans("delta", atoms, compile_atoms)
        self.stats["delta_plan_misses" if compiled_now else "delta_plan_hits"] += 1
        return plans
