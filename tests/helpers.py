"""Shared test fixtures: small factor graphs with known behaviour."""

from __future__ import annotations

import numpy as np

from repro.graph import FactorGraph, Semantics


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
