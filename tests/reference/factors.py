"""Factor records as the oracle: lowering, and energy record by record.

The package keeps one factor representation, the
:class:`~repro.graph.delta.FactorTable`; the records a table decodes into
(:class:`~repro.graph.factor_graph.RuleFactor` / ``IsingFactor`` /
``BiasFactor``) carry no behaviour there.  This module gives them the
behaviour the table paths must equal, slow and obviously right:

* ``lower_factors`` — records → ``FactorTable``, one walk over factor
  kinds (rule groundings land canonical, as the package lands them);
* ``add_factor`` — a record appended to a graph or a ``FactorList``
  through the ``add_*`` appenders;
* ``unit_energy`` / ``factor_energy`` / ``graph_energy`` — Eq. 1 record
  by record, the oracle of ``FactorTable.energies``;
* ``relocalize`` / ``group_subgraph`` — the record walk that
  ``repro.core.decomposition.group_subgraph`` replaced by a ``take`` and
  a variable remap.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.graph.delta import (
    KIND_BIAS,
    KIND_ISING,
    KIND_RULE,
    FactorList,
    FactorTable,
    rule_table,
)
from repro.graph.factor_graph import BiasFactor, FactorGraph, IsingFactor, RuleFactor
from repro.graph.semantics import g_value, sem_code


def lower_factors(factors) -> FactorTable:
    """Factor records → :class:`FactorTable`."""
    kind = []
    bias_var, bias_wid = [], []
    ising_i, ising_j, ising_wid = [], [], []
    heads, wids, sems, groundings = [], [], [], []
    for factor in factors:
        if isinstance(factor, RuleFactor):
            kind.append(KIND_RULE)
            heads.append(factor.head)
            wids.append(factor.weight_id)
            sems.append(sem_code(factor.semantics))
            groundings.append(factor.groundings)
        elif isinstance(factor, IsingFactor):
            kind.append(KIND_ISING)
            ising_i.append(factor.i)
            ising_j.append(factor.j)
            ising_wid.append(factor.weight_id)
        elif isinstance(factor, BiasFactor):
            kind.append(KIND_BIAS)
            bias_var.append(factor.var)
            bias_wid.append(factor.weight_id)
        else:
            raise TypeError(f"unknown factor type {type(factor)!r}")
    columns = rule_table(heads, wids, sems, groundings).columns()
    columns.update(
        kind=kind,
        bias_var=bias_var,
        bias_wid=bias_wid,
        ising_i=ising_i,
        ising_j=ising_j,
        ising_wid=ising_wid,
    )
    return FactorTable(**columns)


def as_factor_list(factors) -> FactorList:
    """A :class:`FactorList` over the lowered records."""
    return FactorList(lower_factors(factors))


def add_factor(target, factor) -> int:
    """Append one record to ``target`` — a :class:`FactorGraph` through
    its range-checked ``add_*_factor``, a :class:`FactorList` through its
    unchecked ``add_*`` row appenders; returns its index."""
    suffix = "_factor" if isinstance(target, FactorGraph) else ""
    if isinstance(factor, RuleFactor):
        return getattr(target, "add_rule" + suffix)(
            factor.weight_id, factor.head, factor.groundings, factor.semantics
        )
    if isinstance(factor, IsingFactor):
        return getattr(target, "add_ising" + suffix)(factor.weight_id, factor.i, factor.j)
    if isinstance(factor, BiasFactor):
        return getattr(target, "add_bias" + suffix)(factor.weight_id, factor.var)
    raise TypeError(f"unknown factor type {type(factor)!r}")


def unit_energy(factor, assignment) -> float:
    """The energy per unit of weight: ``σ_v``, ``σ_i σ_j``, or
    ``sign(head) · g(n)`` with ``n`` the satisfied groundings."""
    def spin(var):
        return 1.0 if assignment[var] else -1.0

    if isinstance(factor, BiasFactor):
        return spin(factor.var)
    if isinstance(factor, IsingFactor):
        return spin(factor.i) * spin(factor.j)
    n = sum(
        1
        for grounding in factor.groundings
        if all(bool(assignment[var]) == pos for var, pos in grounding)
    )
    return spin(factor.head) * g_value(factor.semantics, n)


def factor_energy(factor, assignment, weights) -> float:
    """``w · unit_energy`` under ``assignment`` (bool array)."""
    return weights.value(factor.weight_id) * unit_energy(factor, assignment)


def graph_energy(graph, assignment) -> float:
    """``W(F, I)``: the sum over the graph's records, one at a time."""
    assignment = np.asarray(assignment, dtype=bool)
    return sum(factor_energy(f, assignment, graph.weights) for f in graph.factors)


def relocalize(factor, local_of: dict):
    """``factor`` with every variable ``v`` renamed ``local_of[v]``."""
    if isinstance(factor, BiasFactor):
        return dataclasses.replace(factor, var=local_of[factor.var])
    if isinstance(factor, IsingFactor):
        return dataclasses.replace(factor, i=local_of[factor.i], j=local_of[factor.j])
    groundings = tuple(
        tuple((local_of[v], pos) for v, pos in g) for g in factor.groundings
    )
    return dataclasses.replace(factor, head=local_of[factor.head], groundings=groundings)


def group_subgraph(graph, group) -> tuple:
    """The induced graph over ``group``'s variables by a walk over the
    records: every factor whose scope lies inside, relocalized."""
    variables = sorted(group.variables)
    local_of = {v: i for i, v in enumerate(variables)}
    sub = FactorGraph(graph.weights.copy())
    for v in variables:
        sub.add_variable(name=graph.name_of(v))
        if graph.is_evidence(v):
            sub.set_evidence(local_of[v], graph.evidence_value(v))
    sub.factors = as_factor_list(
        relocalize(factor, local_of)
        for factor in graph.factors
        if factor.variables() <= group.variables
    )
    return sub, local_of
