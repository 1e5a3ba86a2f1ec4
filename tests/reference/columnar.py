"""Signed binding counts through a compiled plan — the columnar twin of
:func:`tests.reference.query.binding_counts`.

``test_columnar.py`` compares the two on random queries, databases and
signed delta sources.  A query with sources compiles a one-off plan
(``JoinPlan.compile`` directly — the store caches full-body plans only).
"""

from __future__ import annotations

import numpy as np

from repro.db.columnar import ColumnarBatch, pack_rows
from repro.db.plan import JoinPlan


def grouped_counts(batch, names) -> tuple:
    """Group a binding batch by the named columns, summing signed counts:
    ``(distinct code rows, counts)`` with zero sums dropped."""
    matrix = batch.column_matrix(names)
    if batch.num_rows == 0:
        return matrix, np.empty(0, dtype=np.int64)
    _, first, inverse = np.unique(
        pack_rows(matrix), return_index=True, return_inverse=True
    )
    sums = np.rint(
        np.bincount(inverse, weights=batch.signs.astype(np.float64))
    ).astype(np.int64)
    keep = sums != 0
    return matrix[first[keep]], sums[keep]


def columnar_binding_counts(db, atoms, head_vars, sources=None) -> dict:
    """``sources`` maps atom index → ``[(row, sign), ...]`` or a
    pre-built :class:`ColumnarBatch`."""
    store = db.columnar
    if sources:
        sources = {
            i: src
            if isinstance(src, ColumnarBatch)
            else ColumnarBatch.from_signed_rows(store.interner, src)
            for i, src in sources.items()
        }
        plan = JoinPlan.compile(atoms, frozenset(sources))
    else:
        plan = store.plan(atoms)
    batch = plan.execute(store, db, sources=sources)
    head_vars = tuple(head_vars)
    rows, counts = grouped_counts(batch, head_vars)
    if not head_vars:
        return {(): int(counts[0])} if len(counts) else {}
    decoded = [store.interner.decode(rows[:, i]) for i in range(len(head_vars))]
    return dict(zip(zip(*decoded), counts.tolist()))
