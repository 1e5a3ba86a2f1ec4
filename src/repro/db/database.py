"""The database: a catalog of named relations."""

from __future__ import annotations

from repro.db.relation import Relation


class Database:
    """Named relations plus convenience bulk operations.

    The database also owns the columnar substrate: a lazily created
    :class:`~repro.db.columnar.ColumnarStore` (shared constant interner,
    per-relation numpy mirrors, join-plan cache) that grounding's
    vectorized join plans run on.  Relations never touched columnarly pay
    nothing.
    """

    def __init__(self) -> None:
        self._relations: dict = {}
        self._columnar = None

    def create_relation(self, name: str, columns) -> Relation:
        if name in self._relations:
            raise ValueError(f"relation {name!r} already exists")
        relation = Relation(name, columns)
        self._relations[name] = relation
        return relation

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise KeyError(f"unknown relation {name!r}") from None

    def has_relation(self, name: str) -> bool:
        return name in self._relations

    def drop_relation(self, name: str) -> None:
        del self._relations[name]
        if self._columnar is not None:
            self._columnar.drop(name)

    @property
    def columnar(self):
        """The lazily created columnar store (mirrors + interner + plans)."""
        if self._columnar is None:
            from repro.db.columnar import ColumnarStore

            self._columnar = ColumnarStore()
        return self._columnar

    def index_stats(self) -> dict:
        """Aggregate index counters for benchmarks and regression tests.

        ``relation`` sums the relations' own lazy hash-index counters
        (:meth:`Relation.index_stats` — point lookups outside the join
        plans); ``columnar`` is the columnar store's counters
        (:attr:`ColumnarStore.stats`: bucket-index builds, batch probes,
        mirror (re)builds, delta-plan activity), all zero for a
        database that never built a store.  Both *build* counters must
        stay flat across ``apply_delta`` — indexes are maintained, never
        rebuilt, under deltas.
        """
        point = {"indexes": 0, "builds": 0, "probes": 0}
        for relation in self._relations.values():
            for key, value in relation.index_stats().items():
                point[key] += value
        if self._columnar is not None:
            columnar = dict(self._columnar.stats)
        else:
            from repro.db.columnar import ColumnarStore

            columnar = dict.fromkeys(ColumnarStore.STAT_KEYS, 0)
        return {"relation": point, "columnar": columnar}

    def relation_names(self) -> list:
        return list(self._relations)

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def insert_all(self, name: str, rows) -> int:
        """Bulk insert; returns how many tuples became newly visible."""
        relation = self.relation(name)
        return sum(1 for row in rows if relation.insert(row))

    def copy(self) -> "Database":
        """Independent copy of every relation (indexes rebuilt lazily)."""
        clone = Database()
        for name, relation in self._relations.items():
            fresh = clone.create_relation(name, relation.columns)
            for row, count in relation.counts().items():
                fresh.insert(row, count)
        return clone

    def stats(self) -> dict:
        return {name: len(rel) for name, rel in self._relations.items()}

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}:{len(r)}" for n, r in self._relations.items())
        return f"Database({parts})"
