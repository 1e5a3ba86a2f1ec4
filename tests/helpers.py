"""Shared test fixtures: small factor graphs with known behaviour."""

from __future__ import annotations

import contextlib
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.graph import (
    BiasFactor,
    FactorGraph,
    FactorGraphDelta,
    IsingFactor,
    RuleFactor,
    Semantics,
)
from repro.graph.compiled import GibbsCache, StackedCache
from repro.graph.delta import FactorTable

from tests.reference import gibbs as scalar
from tests.reference.factors import add_factor


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


def conditional(cache, var: int, x) -> float:
    """The package kernel's ``E(x | x_var=1) − E(x | x_var=0)`` for one
    variable: a one-variable block."""
    block = cache.compiled.gather_block([int(var)])
    return float(cache.delta_energy_block(block, x)[0])


def flip(cache, var: int, value: bool, x) -> None:
    """``x[var] := value`` through the package kernel, caches too: a
    one-variable block committed."""
    block = cache.compiled.gather_block([int(var)])
    cache.commit_block(block, np.array([bool(value)]), x)


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


def mixed_case(seed, new_vars=None, records=None):
    """A random base graph and a delta against it that mixes every kind of
    term: bias / Ising / rule factors of all three semantics added and
    removed, reweighted survivors, new weights, appended variables with
    and without evidence, evidence set, flipped and cleared.  The raw
    records drawn for the delta's new factors (before their groundings
    land canonical) are appended to ``records`` when given."""
    rng = np.random.default_rng(seed)
    base = FactorGraph()
    n = int(rng.integers(2, 7))
    for _ in range(n):
        clamp = rng.random() < 0.3
        base.add_variable(evidence=bool(rng.integers(2)) if clamp else None)
    for k in range(int(rng.integers(1, 5))):
        base.weights.intern(("w", k), initial=float(rng.normal()))
    for _ in range(int(rng.integers(0, 9))):
        add_factor(
            base.factors, random_factor(rng, n, int(rng.integers(len(base.weights))))
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
        factor = random_factor(rng, total, int(rng.integers(num_weights)))
        add_factor(delta.new_factors, factor)
        if records is not None:
            records.append(factor)
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
    decoded into frozen records, which compare field by field).  Also imported by
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


def vid_of(db, relation: str, row) -> int:
    """The variable id of ``row`` of variable relation ``relation``, read
    from the relation's vid column (−1 where it is no variable)."""
    codes = np.array([[db.interner.probe(value) for value in row]], dtype=np.int32)
    return int(db.relation(relation).vids_of(codes)[0])


@contextlib.contextmanager
def counting(cls, name, counts=None):
    """``cls.name`` counts its calls into ``counts[name]`` (a fresh
    ``Counter`` by default, yielded) while the block runs."""
    counts = Counter() if counts is None else counts
    original = getattr(cls, name)

    def wrapper(self, *args, **kwargs):
        counts[name] += 1
        return original(self, *args, **kwargs)

    setattr(cls, name, wrapper)
    try:
        yield counts
    finally:
        setattr(cls, name, original)


def decodes():
    """Counts ``FactorTable.factors()`` calls — factor records decoded
    from a table — under ``"factors"`` while the block runs."""
    return counting(FactorTable, "factors")


#: The substrate arrays :class:`tests.reference.gibbs.IncidenceLists`
#: walks.
_INCIDENCE_ARRAYS = (
    "ising_row",
    "ising_other",
    "ising_wid",
    "ising_alive",
    "rule_head",
    "rule_wid",
    "rule_sem",
    "rule_alive",
    "grounding_ri",
    "lit_gg",
    "lit_var",
    "lit_pos",
)


def block_chains(cache, block, assignment) -> list:
    """``(cache, assignment, variables, rows of the block)`` per chain a
    block spans: the one chain of a cache, or each member of a stacked
    one on its stretch of the flat arrays (its variables unshifted)."""
    if not isinstance(cache, StackedCache):
        return [(cache, assignment, block.vars, np.arange(block.vars.size))]
    c = cache.compiled
    n, G, R = c.num_vars, c.num_groundings, c.num_rules
    member = block.vars // n
    chains = []
    for k in np.unique(member).tolist():
        part = SimpleNamespace(
            compiled=c,
            weights_vec=cache.weights_vec,
            field=cache.field[k * n : (k + 1) * n],
            unsat=cache.unsat[k * G : (k + 1) * G],
            nsat=cache.nsat[k * R : (k + 1) * R],
        )
        at = np.flatnonzero(member == k)
        chains.append((part, assignment[k * n : (k + 1) * n], block.vars[at] - k * n, at))
    return chains


@contextlib.contextmanager
def scalar_checked():
    """While open, every block the kernel evaluates or commits is also
    run through the per-variable scalar oracle
    (:mod:`tests.reference.gibbs`, over lists walked off the substrate's
    arrays), chain by chain for a stacked cache: evaluations agree to
    1e-9 (the oracle sums in another order), commits leave the same
    ``state`` / ``field`` / ``unsat`` / ``nsat`` exactly.  Yields a
    ``Counter`` of the block shapes checked: ``one`` (a single
    variable), ``solo`` (a member of an oversized rule, scanning alone)
    and ``self`` (a member heading a rule it appears in)."""
    evaluate, commit = GibbsCache.delta_energy_block, GibbsCache.commit_block
    shapes = Counter()
    walked = {}

    def lists_of(compiled):
        """The oracle's lists, walked again whenever the arrays moved."""
        key = (id(compiled), compiled.num_vars) + tuple(
            getattr(compiled, name).tobytes() for name in _INCIDENCE_ARRAYS
        )
        if key not in walked:
            walked.clear()
            walked[key] = scalar.IncidenceLists(compiled)
        return walked[key]

    def record(cache, block) -> None:
        shapes["one"] += block.vars.size == 1
        shapes["solo"] += bool(
            cache.compiled._force_singleton[block.vars % cache.compiled.num_vars].any()
        )
        shapes["self"] += block.fseg_self is not None

    def checked_evaluate(self, block, assignment):
        got = evaluate(self, block, assignment)
        lists = lists_of(self.compiled)
        for part, state, vars_, at in block_chains(self, block, assignment):
            want = [scalar.delta_energy(part, lists, v, state) for v in vars_.tolist()]
            assert np.allclose(got[at], want, rtol=1e-9, atol=1e-9), (got[at], want)
        record(self, block)
        return got

    def checked_commit(self, block, new_values, assignment):
        chains = block_chains(self, block, assignment)
        twins = [
            (
                SimpleNamespace(
                    weights_vec=part.weights_vec,
                    field=part.field.copy(),
                    unsat=part.unsat.copy(),
                    nsat=part.nsat.copy(),
                ),
                state.copy(),
                vars_,
                at,
            )
            for part, state, vars_, at in chains
        ]
        commit(self, block, new_values, assignment)
        lists = lists_of(self.compiled)
        for (part, state, _, _), (twin, twin_state, vars_, at) in zip(chains, twins):
            for var, value in zip(vars_.tolist(), new_values[at].tolist()):
                scalar.commit_flip(twin, lists, var, value, twin_state)
            assert (state == twin_state).all() and (part.field == twin.field).all()
            assert (part.unsat == twin.unsat).all() and (part.nsat == twin.nsat).all()
        record(self, block)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GibbsCache, "delta_energy_block", checked_evaluate)
        patch.setattr(GibbsCache, "commit_block", checked_commit)
        yield shapes
