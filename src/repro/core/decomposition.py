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

from repro.graph.delta import FactorList
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


def component_labels(num_vars: int, pairs: np.ndarray) -> np.ndarray:
    """Each variable's connected component under the edges ``pairs``
    (a ``(k, 2)`` array), labelled by the component's smallest id.

    Min-label hooking with pointer jumping, in numpy: every round hooks
    each tree's root under the smallest root it shares an edge with, then
    jumps every pointer to its root.  Labels only fall and always name a
    variable of the same component, so at the fixed point (every edge's
    endpoints share a root) each root is its component's smallest id.
    A round costs a few passes over the edges; a path of n variables
    takes O(log n) rounds."""
    label = np.arange(num_vars, dtype=np.int64)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    a, b = pairs[:, 0], pairs[:, 1]
    while True:
        root_a, root_b = label[a], label[b]
        split = root_a != root_b
        if not split.any():
            return label
        root_a, root_b = root_a[split], root_b[split]
        low = np.minimum(root_a, root_b)
        np.minimum.at(label, np.concatenate([root_a, root_b]), np.concatenate([low, low]))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def decompose(graph: FactorGraph, active_vars) -> list:
    """Algorithm 2 lines 1–3: split inactive variables into conditionally
    independent groups with their minimal active boundaries.

    Variables are adjacent iff they co-occur in some factor: the groups
    are the connected components of the adjacency restricted to inactive
    variables, each with the active variables adjacent to it, in order of
    their smallest variable.  An active id outside the graph is a
    ``ValueError``."""
    n = graph.num_vars
    active = np.fromiter(map(int, active_vars), dtype=np.int64)
    unknown = (active < 0) | (active >= n)
    if unknown.any():
        raise ValueError(
            f"active variable {int(active[unknown.argmax()])} is not in the "
            f"graph's {n} variables"
        )
    is_active = np.zeros(n, dtype=bool)
    is_active[active] = True
    pairs = graph.neighbor_pairs()
    a, b = pairs[:, 0], pairs[:, 1]
    inner = ~is_active[a] & ~is_active[b]
    # An inactive variable's label is its group's smallest variable.
    label = component_labels(n, pairs[inner])
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
    return [
        VariableGroup(
            inactive=frozenset(members.tolist()),
            active=frozenset(boundary.get(int(members[0]), ())),
        )
        for members in np.split(inactive, cuts)
        if members.size
    ]


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
    lies inside the group are included — the rows of the graph's factor
    table, in order, with their variables renumbered; by construction of
    the decomposition, every factor touching the group's inactive
    variables qualifies.
    """
    variables = np.array(sorted(group.variables), dtype=np.int64)
    local_of = {v: i for i, v in enumerate(variables.tolist())}
    sub = FactorGraph(graph.weights.copy())
    sub.add_named_variables([graph.name_of(v) for v in local_of])
    for v, local in local_of.items():
        if graph.is_evidence(v):
            sub.set_evidence(local, graph.evidence_value(v))
    lookup = np.full(graph.num_vars, -1, dtype=np.int64)
    lookup[variables] = np.arange(variables.shape[0])
    table = graph.factor_table()
    outside = np.zeros(len(table), dtype=bool)
    outside[table.variable_owners()[lookup[table.variables()] < 0]] = True
    sub.factors = FactorList(table.take(~outside).with_variables(lookup))
    sub.validate()
    return sub, local_of
