"""In-memory relational store — the paper's Postgres/Greenplum substitute.

All data in DeepDive lives in a relational database (§2.2); grounding is a
sequence of SQL joins over it.  This package provides:

* :class:`~repro.db.relation.Relation` — a columnar Z-set of facts:
  interned int32 code rows with a *derivation count* column (the
  ``count`` column of DRed delta relations, §3.1) and grouped hash
  indexes maintained in O(|Δ|).
* :class:`~repro.db.database.Database` — a named catalog of relations
  sharing one constant interner.
* :mod:`~repro.db.query` — conjunctive-query syntax: atoms over
  variables and constants, and the static join order.
* :mod:`~repro.db.columnar` — the interner, index, signed-batch and
  old-state-view pieces relations and plans share.
* :mod:`~repro.db.plan` — compiled vectorized join plans that probe the
  relations directly: how every query is evaluated.
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
