"""The tuple-at-a-time conjunctive-query evaluator (grounding's oracle).

A backtracking join: atoms are processed in the query's static order
(:func:`repro.db.query.static_join_order` without estimates: most bound
positions first, then body order — the compiled plans order by their
relations' fan-out instead, which moves no canonical batch), each one
probing the relation's lazy hash index on whatever the partial binding
already fixes.  An atom can draw its rows from an
explicit signed list instead of the stored relation (*source
overrides*); the signs multiply through the join.

This was ``repro.db.query``'s evaluator half until the package kept only
compiled plans.  It is deliberately slow and obviously right.
"""

from __future__ import annotations

from repro.db.query import Var, static_join_order


def _match_row(atom, row, binding: dict):
    """Extend ``binding`` with ``row`` if consistent, else ``None``."""
    merged = binding
    copied = False
    for arg, value in zip(atom.args, row):
        if isinstance(arg, Var):
            if arg.name in merged:
                if merged[arg.name] != value:
                    return None
            else:
                if not copied:
                    merged = dict(merged)
                    copied = True
                merged[arg.name] = value
        elif arg != value:
            return None
    return merged


def _candidate_rows(db, atom, binding: dict, source):
    """Signed rows that could match ``atom`` under ``binding``."""
    if source is not None:
        return source  # explicit (row, sign) list — filtered by _match_row
    positions, values = [], []
    for pos, arg in enumerate(atom.args):
        if not isinstance(arg, Var):
            positions.append(pos)
            values.append(arg)
        elif arg.name in binding:
            positions.append(pos)
            values.append(binding[arg.name])
    rows = db.relation(atom.pred).lookup(positions, values)
    return [(row, 1) for row in rows]


def evaluate_query(db, atoms, initial_binding=None, sources=None):
    """Yield ``(binding, sign)`` for every derivation of the conjunction.

    ``initial_binding`` pre-binds variables; ``sources`` maps atom index
    → ``[(row, sign), ...]`` overrides, evaluated first.
    """
    atoms = list(atoms)
    initial_binding = dict(initial_binding or {})
    order = static_join_order(
        atoms, frozenset(sources or ()), frozenset(initial_binding)
    )

    def recurse(level: int, binding: dict, sign: int):
        if level == len(order):
            yield binding, sign
            return
        idx = order[level]
        source = sources.get(idx) if sources else None
        for row, row_sign in _candidate_rows(db, atoms[idx], binding, source):
            extended = _match_row(atoms[idx], row, binding)
            if extended is not None:
                yield from recurse(level + 1, extended, sign * row_sign)

    yield from recurse(0, initial_binding, 1)


def binding_counts(db, atoms, head_vars, sources=None) -> dict:
    """``{projection onto head_vars: signed derivation count}``, zeros
    dropped — the content (or delta) of ``head :- atoms``."""
    counts: dict = {}
    for binding, sign in evaluate_query(db, atoms, sources=sources):
        key = tuple(binding[v] for v in head_vars)
        counts[key] = counts.get(key, 0) + sign
    return {k: c for k, c in counts.items() if c != 0}
