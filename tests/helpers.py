"""Shared test fixtures: small factor graphs with known behaviour."""

from __future__ import annotations

import numpy as np

from repro.graph import (
    BiasFactor,
    FactorGraph,
    FactorGraphDelta,
    IsingFactor,
    RuleFactor,
    Semantics,
)


def single_bias_graph(weight: float = 0.7) -> FactorGraph:
    """One free variable with a bias factor; P(X=1) = sigmoid(2w)."""
    fg = FactorGraph()
    v = fg.add_variable(name="x")
    wid = fg.weights.intern("bias", initial=weight)
    fg.add_bias_factor(wid, v)
    return fg


def chain_ising_graph(n: int = 5, coupling: float = 0.5, bias: float = 0.2) -> FactorGraph:
    """A 1-D Ising chain with uniform coupling and bias."""
    fg = FactorGraph()
    variables = [fg.add_variable(name=f"x{i}") for i in range(n)]
    w_couple = fg.weights.intern("couple", initial=coupling)
    w_bias = fg.weights.intern("bias", initial=bias)
    for i in range(n - 1):
        fg.add_ising_factor(w_couple, variables[i], variables[i + 1])
    for v in variables:
        fg.add_bias_factor(w_bias, v)
    return fg


def voting_graph(
    num_up: int = 3,
    num_down: int = 3,
    semantics=Semantics.RATIO,
    weight: float = 1.0,
    voter_bias: float = 0.0,
    clamp_voters: bool = False,
) -> FactorGraph:
    """Example 2.5's voting program.

    Query variable ``q`` (id 0) plus ``num_up`` Up voters and ``num_down``
    Down voters.  Two rule factors: ``q :- Up(x)`` with weight ``+w`` and
    ``q :- Down(x)`` with weight ``−w``.
    """
    fg = FactorGraph()
    q = fg.add_variable(name="q")
    ups = [
        fg.add_variable(name=f"up{i}", evidence=True if clamp_voters else None)
        for i in range(num_up)
    ]
    downs = [
        fg.add_variable(name=f"down{i}", evidence=True if clamp_voters else None)
        for i in range(num_down)
    ]
    w_up = fg.weights.intern("up", initial=weight)
    w_down = fg.weights.intern("down", initial=-weight)
    if ups:
        fg.add_rule_factor(w_up, q, [[(u, True)] for u in ups], semantics)
    if downs:
        fg.add_rule_factor(w_down, q, [[(d, True)] for d in downs], semantics)
    if voter_bias and not clamp_voters:
        wb = fg.weights.intern("voter_bias", initial=voter_bias)
        for v in ups + downs:
            fg.add_bias_factor(wb, v)
    return fg


def random_pairwise_graph(
    n: int,
    density: float = 0.3,
    weight_range: float = 0.5,
    seed: int = 0,
) -> FactorGraph:
    """A random Ising graph in the style of the §3.2.4 synthetic study."""
    rng = np.random.default_rng(seed)
    fg = FactorGraph()
    variables = [fg.add_variable() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                w = rng.uniform(-weight_range, weight_range)
                wid = fg.weights.intern(("J", i, j), initial=w)
                fg.add_ising_factor(wid, variables[i], variables[j])
    for v in variables:
        w = rng.uniform(-weight_range, weight_range)
        wid = fg.weights.intern(("h", v), initial=w)
        fg.add_bias_factor(wid, v)
    return fg


def implication_graph(semantics=Semantics.LOGICAL) -> FactorGraph:
    """q :- a, b with two groundings sharing variable b.

    Groundings: (a ∧ b) and (c ∧ b).  Useful for exercising the grounding
    count cache.
    """
    fg = FactorGraph()
    q = fg.add_variable(name="q")
    a = fg.add_variable(name="a")
    b = fg.add_variable(name="b")
    c = fg.add_variable(name="c")
    wid = fg.weights.intern("rule", initial=0.8)
    fg.add_rule_factor(
        wid, q, [[(a, True), (b, True)], [(c, True), (b, True)]], semantics
    )
    return fg


def brute_force_delta(graph: FactorGraph, x, var: int) -> float:
    """``E(x | x_var=1) − E(x | x_var=0)`` by evaluating both worlds."""
    x1, x0 = x.copy(), x.copy()
    x1[var], x0[var] = True, False
    return graph.energy(x1) - graph.energy(x0)


SEMANTICS = (Semantics.LINEAR, Semantics.RATIO, Semantics.LOGICAL)


def random_rule(rng, num_vars, weight_id) -> RuleFactor:
    """A rule factor from the whole grid: any semantics, zero groundings,
    empty groundings, duplicated and contradictory literals, the head
    inside its own body."""
    head = int(rng.integers(num_vars))
    groundings = []
    for _ in range(int(rng.integers(0, 4))):
        lits = [
            (int(rng.integers(num_vars)), bool(rng.integers(2)))
            for _ in range(int(rng.integers(0, 4)))
        ]
        shape = int(rng.integers(5))
        if lits and shape == 0:
            lits.append(lits[0])
        elif lits and shape == 1:
            lits.append((lits[0][0], not lits[0][1]))
        elif shape == 2:
            lits.append((head, bool(rng.integers(2))))
        groundings.append(tuple(lits))
    return RuleFactor(
        weight_id, head, tuple(groundings), SEMANTICS[int(rng.integers(3))]
    )


def random_factor(rng, num_vars, weight_id):
    kind = int(rng.integers(3))
    if kind == 0 or num_vars < 2:
        return BiasFactor(weight_id, int(rng.integers(num_vars)))
    if kind == 1:
        i, j = (int(v) for v in rng.choice(num_vars, size=2, replace=False))
        return IsingFactor(weight_id, i, j)
    return random_rule(rng, num_vars, weight_id)


def mixed_case(seed, new_vars=None):
    """A random base graph and a delta against it that mixes every kind of
    term: bias / Ising / rule factors of all three semantics added and
    removed, reweighted survivors, new weights, appended variables with
    and without evidence, evidence set, flipped and cleared."""
    rng = np.random.default_rng(seed)
    base = FactorGraph()
    n = int(rng.integers(2, 7))
    for _ in range(n):
        clamp = rng.random() < 0.3
        base.add_variable(evidence=bool(rng.integers(2)) if clamp else None)
    for k in range(int(rng.integers(1, 5))):
        base.weights.intern(("w", k), initial=float(rng.normal()))
    for _ in range(int(rng.integers(0, 9))):
        base.factors.append(
            random_factor(rng, n, int(rng.integers(len(base.weights))))
        )

    delta = FactorGraphDelta()
    delta.num_new_vars = (
        int(rng.integers(0, 4)) if new_vars is None else int(new_vars)
    )
    total = n + delta.num_new_vars
    for offset in range(delta.num_new_vars):
        if rng.random() < 0.3:
            delta.new_var_evidence[offset] = bool(rng.integers(2))
    for k in range(int(rng.integers(0, 3))):
        delta.new_weight_entries.append((("new", k), float(rng.normal()), False))
    num_weights = len(base.weights) + len(delta.new_weight_entries)
    for _ in range(int(rng.integers(0, 7))):
        delta.new_factors.append(
            random_factor(rng, total, int(rng.integers(num_weights)))
        )
    for fi in range(base.num_factors):
        if rng.random() < 0.3:
            delta.removed_factor_ids.add(fi)
    for wid in range(len(base.weights)):
        if rng.random() < 0.4:
            delta.changed_weight_values[wid] = float(rng.normal())
    for var in range(n):
        if rng.random() < 0.25:
            delta.evidence_updates[var] = (None, True, False)[int(rng.integers(3))]
    return base, delta


def graph_fingerprint(graph) -> dict:
    """Everything observable about a factor graph, in exact order — two
    runs are bit-identical iff their fingerprints are equal (factors are
    frozen dataclasses and compare field by field).  Also imported by
    ``benchmarks/bench_recovery.py --check``."""
    return {
        "names": [graph.name_of(v) for v in range(graph.num_vars)],
        "evidence": dict(graph.evidence),
        "factors": list(graph.factors),
        "weights": list(graph.weights.items()),
        "fixed": [
            graph.weights.is_fixed(i) for i in range(len(graph.weights))
        ],
    }
