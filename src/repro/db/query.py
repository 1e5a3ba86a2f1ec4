"""Conjunctive-query syntax: atoms, variables, and the join order.

Grounding in DeepDive is a set of SQL queries (§2.5); here those queries
are conjunctions of :class:`Atom` s over relations, compiled into
vectorized plans by :mod:`repro.db.plan`.  This module holds only what
every layer shares — the rule AST (:mod:`repro.datalog`), the KBC rule
builders and the plan compiler all import :class:`Var`, :class:`Atom`
and :func:`static_join_order` from here.  The package evaluates a query
one way, through a compiled plan; the tuple-at-a-time evaluator the
plans are checked against is a test oracle
(``tests/reference/query.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Atom", "Var", "static_join_order"]


@dataclass(frozen=True)
class Var:
    """A query variable (anything else in an atom is a constant)."""

    name: str

    def __repr__(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True)
class Atom:
    """``pred(args…)`` — args mix :class:`Var` and Python constants."""

    pred: str
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))

    def variables(self):
        return [a.name for a in self.args if isinstance(a, Var)]

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.pred}({inner})"


def static_join_order(
    atoms, source_positions=frozenset(), prebound=frozenset(), fan_out=None
):
    """The query's atom order, chosen greedily one atom at a time.

    Delta sources go first.  With ``fan_out`` — a callable
    ``(atom, bound positions) -> estimated matches per probe`` — each
    step then takes the atom with the smallest estimate; ties, and every
    choice without ``fan_out``, fall back to the ``bound_score``
    heuristic: the most bound argument positions, then the lowest body
    index.  Constants count as bound, a processed atom binds all its
    variables and ``prebound`` names variables bound from outside.
    Which positions are bound at any point depends only on *which atoms*
    were already processed — never on their values — so the order is
    fixed once per query: the plan compiler (:mod:`repro.db.plan`)
    computes it when a plan compiles, from estimates its store takes
    then, and the test oracle walks the order without estimates.
    """
    atoms = tuple(atoms)
    bound = set(prebound)
    remaining = list(range(len(atoms)))
    order = []

    def bound_score(idx: int) -> tuple:
        atom = atoms[idx]
        positions = tuple(
            pos
            for pos, arg in enumerate(atom.args)
            if not isinstance(arg, Var) or arg.name in bound
        )
        is_source = idx in source_positions
        cost = 0.0 if fan_out is None or is_source else -fan_out(atom, positions)
        return (is_source, cost, len(positions), -idx)

    while remaining:
        idx = max(remaining, key=bound_score)
        remaining.remove(idx)
        order.append(idx)
        for arg in atoms[idx].args:
            if isinstance(arg, Var):
                bound.add(arg.name)
    return tuple(order)
