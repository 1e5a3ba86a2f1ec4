"""A relation with derivation counts and lazy hash indexes.

Derived relations maintained by the counting algorithm (DRed's delta
relations, §3.1) need, for each tuple ``t``, the number of derivations
``t.count``; base relations simply have count 1 per inserted tuple.  A
tuple is *visible* while its count is positive.

Point lookups (:meth:`Relation.lookup` — evidence resolution in the
incremental grounder, the tuple-at-a-time test oracle) use hash indexes
built lazily per bound-column combination and maintained on every
insert/delete; the join plans run on the columnar mirrors instead.
"""

from __future__ import annotations


class Relation:
    """A named multiset of fixed-arity tuples with derivation counts."""

    def __init__(self, name: str, columns) -> None:
        self.name = name
        self.columns = tuple(columns)
        self.arity = len(self.columns)
        self._counts: dict = {}
        self._indexes: dict = {}  # positions tuple -> {key tuple: set of rows}
        self._rows_cache: tuple | None = None  # invalidated on visibility change
        self._mirrors: list = []  # transition logs of columnar mirrors
        self.index_builds = 0  # lazy index constructions (not maintenance)
        self.index_probes = 0  # lookups answered from an index

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def _check(self, row) -> tuple:
        row = tuple(row)
        if len(row) != self.arity:
            raise ValueError(
                f"{self.name}: expected arity {self.arity}, got {len(row)}: {row!r}"
            )
        return row

    def insert(self, row, count: int = 1) -> bool:
        """Add ``count`` derivations of ``row``.

        Returns True when the tuple becomes newly visible.
        """
        if count <= 0:
            raise ValueError("insert count must be positive")
        row = self._check(row)
        old = self._counts.get(row, 0)
        self._counts[row] = old + count
        if old == 0:
            self._index_add(row)
            self._rows_cache = None
            self._notify(row, 1)
            return True
        return False

    def delete(self, row, count: int = 1) -> bool:
        """Remove ``count`` derivations of ``row``.

        Returns True when the tuple stops being visible.  Deleting more
        derivations than exist raises (the counting algorithm never does).
        """
        if count <= 0:
            raise ValueError("delete count must be positive")
        row = self._check(row)
        old = self._counts.get(row, 0)
        if old < count:
            raise KeyError(
                f"{self.name}: cannot delete {count} derivations of {row!r} "
                f"(has {old})"
            )
        new = old - count
        if new == 0:
            del self._counts[row]
            self._index_remove(row)
            self._rows_cache = None
            self._notify(row, -1)
            return True
        self._counts[row] = new
        return False

    def bulk_insert_counts(self, mapping: dict) -> None:
        """Insert a ``{row: positive count}`` map in one pass.

        Semantically ``insert(row, count)`` per entry (rows must already
        be tuples of the right arity); used by the columnar grounding
        engine to fold whole aggregated head batches into the relation
        without per-row call overhead.
        """
        counts = self._counts
        arity = self.arity
        # Validate everything before mutating anything: a mid-map raise
        # must not leave earlier rows inserted without index/mirror
        # maintenance.
        for row, count in mapping.items():
            if count <= 0:
                raise ValueError("insert count must be positive")
            if len(row) != arity:
                raise ValueError(
                    f"{self.name}: expected arity {arity}, got "
                    f"{len(row)}: {row!r}"
                )
        appeared = []
        for row, count in mapping.items():
            old = counts.get(row, 0)
            counts[row] = old + count
            if old == 0:
                appeared.append(row)
        if appeared:
            self._rows_cache = None
            for row in appeared:
                self._index_add(row)
                self._notify(row, 1)

    def apply_delta(self, delta: dict) -> tuple:
        """Apply a ``{row: signed count}`` delta.

        Returns ``(appeared, disappeared)`` — lists of tuples that became
        visible / stopped being visible.
        """
        appeared, disappeared = [], []
        for row, change in delta.items():
            if change > 0:
                if self.insert(row, change):
                    appeared.append(tuple(row))
            elif change < 0:
                if self.delete(row, -change):
                    disappeared.append(tuple(row))
        return appeared, disappeared

    def clear(self) -> None:
        self._counts.clear()
        self._indexes.clear()
        self._rows_cache = None
        self._notify(None, 0)  # reset sentinel: mirrors reload from scratch

    def attach_mirror(self, log: list) -> None:
        """Register a visibility-transition log (a columnar mirror's).

        Every subsequent visibility transition appends ``(row, ±1)`` to
        ``log``; :meth:`clear` appends the ``(None, 0)`` reset sentinel.
        Mirrors drain their log on sync, so maintenance is O(|Δ|).
        """
        self._mirrors.append(log)

    def _notify(self, row, sign: int) -> None:
        for log in self._mirrors:
            log.append((row, sign))
            # An orphaned mirror (attached once, never synced again)
            # must not accumulate the relation's whole mutation history:
            # past a multiple of the relation size, collapse the log to
            # the reset sentinel — the mirror reloads in full on its
            # next sync, which costs no more than replaying the log.
            if len(log) > 4 * len(self._counts) + 256:
                log[:] = [(None, 0)]

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, row) -> bool:
        return tuple(row) in self._counts

    def __iter__(self):
        return iter(self._counts)

    def count(self, row) -> int:
        return self._counts.get(tuple(row), 0)

    def rows(self) -> tuple:
        """All visible rows, as a tuple cached until the next
        visibility transition (so repeated full scans are free)."""
        cached = self._rows_cache
        if cached is None:
            cached = self._rows_cache = tuple(self._counts)
        return cached

    def counts(self) -> dict:
        """A copy of the full ``{row: count}`` map."""
        return dict(self._counts)

    def lookup(self, positions, values) -> tuple:
        """Rows whose ``positions`` columns equal ``values``.

        Builds (and thereafter maintains) a hash index on ``positions``.
        An empty ``positions`` returns all rows.  Always returns a tuple
        (matching :meth:`rows`); treat it as an unordered snapshot.
        """
        positions = tuple(positions)
        if not positions:
            return self.rows()
        index = self._indexes.get(positions)
        if index is None:
            self.index_builds += 1
            index = {}
            for row in self._counts:
                key = tuple(row[p] for p in positions)
                index.setdefault(key, set()).add(row)
            self._indexes[positions] = index
        self.index_probes += 1
        bucket = index.get(tuple(values))
        return tuple(bucket) if bucket else ()

    def index_stats(self) -> dict:
        """Lazy-index counters: builds are full constructions (deltas
        maintain existing indexes in place and must not bump this),
        probes are index-served lookups."""
        return {
            "indexes": len(self._indexes),
            "builds": self.index_builds,
            "probes": self.index_probes,
        }

    # ------------------------------------------------------------------ #
    # Index maintenance
    # ------------------------------------------------------------------ #

    def _index_add(self, row) -> None:
        for positions, index in self._indexes.items():
            key = tuple(row[p] for p in positions)
            index.setdefault(key, set()).add(row)

    def _index_remove(self, row) -> None:
        for positions, index in self._indexes.items():
            key = tuple(row[p] for p in positions)
            bucket = index.get(key)
            if bucket is not None:
                bucket.discard(row)
                if not bucket:
                    del index[key]

    def __repr__(self) -> str:
        return f"Relation({self.name}{self.columns}, rows={len(self)})"
