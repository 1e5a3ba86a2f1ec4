"""Inactive-variable decomposition (Appendix B.1, Algorithm 2).

The developer declares an *interest area*: the variables she will work on
next ("active").  Conditioned on the active variables, the inactive ones
split into independent groups; each group — its inactive variables plus
the minimal active boundary — can be materialized separately, and updates
that touch only some groups leave the others' materialized state valid.

Finding the optimal grouping is NP-hard (reduction from weighted set
cover); the paper's greedy heuristic merges two groups whenever one's
active boundary contains the other's
(``|V_j^a ∪ V_k^a| = max(|V_j^a|, |V_k^a|)``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from repro.graph.factor_graph import FactorGraph


@dataclass(frozen=True)
class VariableGroup:
    """One materialization unit: inactive variables + active boundary."""

    inactive: frozenset
    active: frozenset

    @property
    def variables(self) -> frozenset:
        return self.inactive | self.active

    def __len__(self) -> int:
        return len(self.inactive) + len(self.active)


def decompose(graph: FactorGraph, active_vars) -> list:
    """Algorithm 2 lines 1–3: split inactive variables into conditionally
    independent groups with their minimal active boundaries.

    Variables are adjacent iff they co-occur in some factor: the groups
    are the connected components of the adjacency restricted to inactive
    variables, each with the active variables adjacent to it, in order of
    their smallest variable."""
    n = graph.num_vars
    is_active = np.zeros(n, dtype=bool)
    is_active[[v for v in map(int, active_vars) if 0 <= v < n]] = True
    pairs = graph.neighbor_pairs()
    a, b = pairs[:, 0], pairs[:, 1]
    inner = ~is_active[a] & ~is_active[b]
    _, label = connected_components(
        coo_matrix((np.ones(inner.sum()), (a[inner], b[inner])), shape=(n, n)),
        directed=False,
    )
    # Boundary edges, inactive endpoint first.
    cross = is_active[a] != is_active[b]
    inside = np.where(is_active[a[cross]], b[cross], a[cross])
    outside = np.where(is_active[a[cross]], a[cross], b[cross])
    boundary: dict = {}
    for group, var in zip(label[inside].tolist(), outside.tolist()):
        boundary.setdefault(group, set()).add(var)
    inactive = np.flatnonzero(~is_active)
    inactive = inactive[np.argsort(label[inactive], kind="stable")]
    cuts = np.flatnonzero(np.diff(label[inactive])) + 1
    groups = [
        VariableGroup(
            inactive=frozenset(members.tolist()),
            active=frozenset(boundary.get(int(label[members[0]]), ())),
        )
        for members in np.split(inactive, cuts)
        if members.size
    ]
    return sorted(groups, key=lambda group: min(group.inactive))


def merge_groups(groups) -> list:
    """Algorithm 2 lines 4–6: greedily merge nested-boundary groups."""
    merged = list(groups)
    changed = True
    while changed:
        changed = False
        for j in range(len(merged)):
            for k in range(j + 1, len(merged)):
                a, b = merged[j], merged[k]
                union = a.active | b.active
                if len(union) == max(len(a.active), len(b.active)):
                    merged[j] = VariableGroup(
                        inactive=a.inactive | b.inactive, active=union
                    )
                    del merged[k]
                    changed = True
                    break
            if changed:
                break
    return merged


def plan_groups(graph: FactorGraph, active_vars) -> list:
    """Decompose then merge — the full Algorithm 2."""
    return merge_groups(decompose(graph, active_vars))


def group_subgraph(graph: FactorGraph, group: VariableGroup) -> tuple:
    """The induced factor graph over a group's variables.

    Returns ``(subgraph, local_of)`` where ``local_of`` maps original
    variable ids to the subgraph's ids.  Only factors whose full scope
    lies inside the group are included; by construction of the
    decomposition, every factor touching the group's inactive variables
    qualifies.
    """
    variables = sorted(group.variables)
    local_of = {v: i for i, v in enumerate(variables)}
    sub = FactorGraph(graph.weights.copy())
    for v in variables:
        sub.add_variable(name=graph.name_of(v))
        if graph.is_evidence(v):
            sub.set_evidence(local_of[v], graph.evidence_value(v))
    for factor in graph.factors:
        scope = factor.variables()
        if scope <= group.variables:
            sub.factors.append(_relocalize(factor, local_of))
    sub.validate()
    return sub, local_of


def _relocalize(factor, local_of: dict):
    import dataclasses

    from repro.graph.factor_graph import BiasFactor, IsingFactor, RuleFactor

    if isinstance(factor, BiasFactor):
        return dataclasses.replace(factor, var=local_of[factor.var])
    if isinstance(factor, IsingFactor):
        return dataclasses.replace(
            factor, i=local_of[factor.i], j=local_of[factor.j]
        )
    if isinstance(factor, RuleFactor):
        groundings = tuple(
            tuple((local_of[v], pos) for v, pos in g)
            for g in factor.groundings
        )
        return dataclasses.replace(
            factor, head=local_of[factor.head], groundings=groundings
        )
    raise TypeError(f"unknown factor type {type(factor)!r}")
