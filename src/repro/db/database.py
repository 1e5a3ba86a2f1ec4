"""The database: a catalog of named relations."""

from __future__ import annotations

from repro.db.columnar import ColumnarStore, Interner
from repro.db.relation import Relation


class Database:
    """Named relations plus convenience bulk operations.

    The database owns the :class:`~repro.db.columnar.Interner` every
    relation it creates encodes its rows with, and a
    :class:`~repro.db.columnar.ColumnarStore` (join-plan caches, the
    per-update old-state views, the counters its relations bump).
    """

    def __init__(self) -> None:
        self._relations: dict = {}
        self.interner = Interner()
        self.columnar = ColumnarStore(self.interner)

    def create_relation(self, name: str, columns) -> Relation:
        if name in self._relations:
            raise ValueError(f"relation {name!r} already exists")
        relation = Relation(name, columns, self.interner, self.columnar)
        self._relations[name] = relation
        return relation

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise KeyError(f"unknown relation {name!r}") from None

    def has_relation(self, name: str) -> bool:
        return name in self._relations

    def index_stats(self) -> dict:
        """Index counters for benchmarks and regression tests.

        ``columnar`` is :attr:`ColumnarStore.stats`: bucket-index builds
        and merges, batch probes, compactions (``rebuilds``), old-state
        views built (``view_captures``) and delta-plan activity.  ``index_builds`` must stay
        flat across ``apply_delta`` — indexes are maintained, never
        rebuilt, under deltas.
        """
        return {"columnar": dict(self.columnar.stats)}

    def relation_names(self) -> list:
        return list(self._relations)

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def insert_all(self, name: str, rows) -> int:
        """Bulk insert; returns how many tuples became newly visible."""
        relation = self.relation(name)
        return relation.apply_delta(relation.encode(rows)).num_rows

    def copy(self) -> "Database":
        """Independent copy: the interner and every relation's columns
        (indexes rebuild lazily)."""
        clone = Database()
        clone.interner = self.interner.copy()
        clone.columnar = ColumnarStore(clone.interner)
        for name, relation in self._relations.items():
            clone._relations[name] = relation.copy(clone.interner, clone.columnar)
        return clone

    def stats(self) -> dict:
        return {name: len(rel) for name, rel in self._relations.items()}

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}:{len(r)}" for n, r in self._relations.items())
        return f"Database({parts})"
