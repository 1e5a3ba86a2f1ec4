"""Conjunctive-query syntax: atoms, variables, and the static join order.

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


def static_join_order(atoms, source_positions=frozenset(), prebound=frozenset()):
    """The query's static atom order under the ``bound_score`` heuristic.

    Greedy: delta sources first, then the atom with the most bound
    argument positions (constants count as bound; a processed atom binds
    all its variables; ``prebound`` names variables bound from outside).
    Which variables are bound at any point of a join depends only on
    *which atoms* were already processed — never on their values — so
    there is one static order per query: the plan compiler
    (:mod:`repro.db.plan`) computes it once per plan, and the test
    oracle's backtracking join walks the identical order.
    """
    atoms = tuple(atoms)
    bound = set(prebound)
    remaining = list(range(len(atoms)))
    order = []

    def bound_score(idx: int) -> tuple:
        atom = atoms[idx]
        count = sum(
            1
            for arg in atom.args
            if not isinstance(arg, Var) or arg.name in bound
        )
        return (idx in source_positions, count, -idx)

    while remaining:
        idx = max(remaining, key=bound_score)
        remaining.remove(idx)
        order.append(idx)
        for arg in atoms[idx].args:
            if isinstance(arg, Var):
                bound.add(arg.name)
    return tuple(order)
