"""In-memory relational store — the paper's Postgres/Greenplum substitute.

All data in DeepDive lives in a relational database (§2.2); grounding is a
sequence of SQL joins over it.  This package provides:

* :class:`~repro.db.relation.Relation` — tuples with *derivation counts*
  (the ``count`` column of DRed delta relations, §3.1) and lazily built
  hash indexes.
* :class:`~repro.db.database.Database` — a named catalog of relations.
* :mod:`~repro.db.query` — conjunctive-query syntax: atoms over
  variables and constants, and the static join order.
* :mod:`~repro.db.columnar` — numpy-backed columnar relation mirrors
  (interned int32 columns, bucketed hash indexes maintained in O(|Δ|)).
* :mod:`~repro.db.plan` — compiled vectorized join plans over the
  columnar mirrors: how every query is evaluated.
"""

from repro.db.columnar import ColumnarBatch, ColumnarStore
from repro.db.database import Database
from repro.db.plan import JoinPlan
from repro.db.relation import Relation

__all__ = [
    "ColumnarBatch",
    "ColumnarStore",
    "Database",
    "JoinPlan",
    "Relation",
]
