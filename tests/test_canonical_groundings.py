"""Every rule column is canonical: no grounding names a variable twice.

Eq. 1 counts satisfied groundings, and a grounding is a conjunction, so
``x ∧ x = x`` and ``x ∧ ¬x`` never holds.  ``graph.delta.rule_table``
builds every rule column in that form — a repeated literal keeps its
first occurrence, a contradictory grounding is dropped whole (never left
empty: an empty grounding is satisfied) — and the substrate has one rule
path.  Factor *records* built by hand stay raw, and their
record-by-record energies (``tests.reference.factors``) are the oracle:

* over raw graphs full of repeated, contradictory and empty groundings,
  every rule lands at ``KIND_RULE``; the scalar and batched conditionals
  and ``weight_statistics`` equal the raw objects' energies; a Gibbs
  chain's marginals match exact inference on the raw graph where single
  sites mix, and chains started from the exact distribution keep it and
  move every variable that is not near-deterministic;
* ``rule_table`` equals a per-literal Python canonicalization, which is
  the identity on groundings without a repeat.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.graph import CompiledFactorGraph, FactorGraph, Semantics
from repro.graph.compiled import GibbsCache
from repro.graph.delta import KIND_RULE, FactorTable, rule_table
from repro.graph.factor_graph import RuleFactor
from repro.graph.semantics import sem_code
from repro.inference.exact import ExactInference
from repro.inference.gibbs import ChainStack, GibbsSampler

from tests.helpers import SEMANTICS, conditional, random_factor
from tests.reference import gibbs as reference_gibbs
from tests.reference import learning as reference
from tests.reference.gibbs import IncidenceLists
from tests.reference.factors import as_factor_list, factor_energy, lower_factors


def raw_case(seed: int, max_vars: int = 6) -> tuple:
    """``(graph, records)``: a small graph of bias, Ising and rule factors
    whose rules have zero, empty, repeated and contradictory groundings —
    and always one rule with a repeated literal and a contradiction next
    to an empty grounding — and the raw records it was built from."""
    rng = np.random.default_rng(seed)
    fg = FactorGraph()
    n = int(rng.integers(2, max_vars + 1))
    fg.add_variables(n)
    for k in range(int(rng.integers(1, 4))):
        fg.weights.intern(("w", k), initial=float(rng.normal(0, 0.7)))
    records = [
        random_factor(rng, n, int(rng.integers(len(fg.weights))))
        for _ in range(int(rng.integers(1, 8)))
    ]
    a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
    records.append(
        RuleFactor(
            int(rng.integers(len(fg.weights))),
            int(rng.integers(n)),
            (((a, True), (b, False), (a, True)), ((b, True), (a, False), (b, False)), ()),
            SEMANTICS[int(rng.integers(3))],
        )
    )
    fg.factors = as_factor_list(records)
    for var in range(n):
        if rng.random() < 0.2:
            fg.set_evidence(var, bool(rng.integers(2)))
    return fg, records


def raw_graph(seed: int) -> FactorGraph:
    return raw_case(seed)[0]


def raw_delta(records, weights, x, var) -> float:
    """``E(x | x_var=1) − E(x | x_var=0)`` over the raw records."""
    x1, x0 = x.copy(), x.copy()
    x1[var], x0[var] = True, False
    return sum(factor_energy(f, x1, weights) for f in records) - sum(
        factor_energy(f, x0, weights) for f in records
    )


def single_site_relaxation_sweeps(exact: ExactInference) -> float:
    """Relaxation time, in sweeps, of single-site Gibbs on the exact
    distribution: ``1 / (1 − λ₂)`` of the random-scan kernel, whose step
    resamples one of the m free variables from its conditional, over m."""
    pi = exact.distribution()
    m = len(exact.free)
    if not m:
        return 0.0
    worlds = np.arange(pi.size)  # each bit of a world's index is one free variable
    kernel = np.zeros((pi.size, pi.size))
    for bit in range(m):
        flipped = worlds ^ (1 << bit)
        kernel[worlds, flipped] = pi[flipped] / (pi + pi[flipped]) / m
    kernel[worlds, worlds] = 1.0 - kernel.sum(axis=1)
    root = np.sqrt(pi)
    second = np.linalg.eigvalsh(root[:, None] * kernel / root[None, :])[-2]
    return 1.0 / (1.0 - second) / m


def canonical_groundings(groundings) -> list:
    """Per grounding, literal by literal: keep a variable's first
    literal, drop the grounding once a variable shows both polarities."""
    out = []
    for grounding in groundings:
        seen = {}
        for var, pos in grounding:
            if seen.setdefault(var, pos) != pos:
                break
        else:
            out.append(tuple(seen.items()))
    return out


def columns_of(groundings_per_rule) -> dict:
    """The rule columns of groundings taken as they are."""
    grounding_ri, lit_gg, lit_var, lit_pos = [], [], [], []
    for ri, groundings in enumerate(groundings_per_rule):
        for grounding in groundings:
            for var, pos in grounding:
                lit_gg.append(len(grounding_ri))
                lit_var.append(var)
                lit_pos.append(pos)
            grounding_ri.append(ri)
    return {
        "grounding_ri": grounding_ri,
        "lit_gg": lit_gg,
        "lit_var": lit_var,
        "lit_pos": lit_pos,
    }


class TestCanonicalSubstrateEqualsRawObjects:
    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=80, deadline=None)
    def test_kernels_and_statistics_match_the_raw_energies(self, seed):
        fg, records = raw_case(seed)
        compiled = CompiledFactorGraph(fg.copy())
        rules = [i for i, f in enumerate(fg.factors) if isinstance(f, RuleFactor)]
        assert (compiled._fkind[rules] == KIND_RULE).all()
        assert compiled.num_rules == len(rules)
        pairs = set(zip(compiled.lit_gg.tolist(), compiled.lit_var.tolist()))
        assert len(pairs) == compiled.lit_gg.size  # no grounding repeats a variable

        rng = np.random.default_rng(seed + 1)
        x = rng.random(fg.num_vars) < 0.5
        expected = [raw_delta(records, fg.weights, x, v) for v in range(fg.num_vars)]
        cache = GibbsCache(compiled, x)
        scalar = [
            reference_gibbs.delta_energy(cache, IncidenceLists(compiled), v, x)
            for v in range(fg.num_vars)
        ]
        assert scalar == pytest.approx(expected, abs=1e-9)
        block = compiled.gather_block(np.arange(fg.num_vars))
        assert cache.delta_energy_block(block, x) == pytest.approx(expected, abs=1e-9)

        worlds = rng.random((5, fg.num_vars)) < 0.5
        assert compiled.weight_statistics(worlds) == pytest.approx(
            reference.weight_statistics(fg, worlds, records), abs=1e-9
        )

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=10, deadline=None)
    def test_gibbs_marginals_match_exact_inference_on_the_raw_graph(self, seed):
        fg = raw_graph(seed)
        exact_inference = ExactInference(fg)
        exact = exact_inference.marginals()
        # One chain from its default start is held to the exact marginals
        # where single sites mix: 200-sweep batches span ≥ 10 relaxation
        # times, and no free variable is so near-deterministic that 8 000
        # sweeps see its rare value only a few times (batch means then
        # miss its variance).  The exact-start test below covers the rest.
        free_marginals = exact[exact_inference.free]
        assume(((free_marginals >= 1e-3) & (free_marginals <= 1 - 1e-3)).all())
        assume(single_site_relaxation_sweeps(exact_inference) <= 20)
        sampler = GibbsSampler(fg.copy(), seed=seed)
        rules = [i for i, f in enumerate(fg.factors) if isinstance(f, RuleFactor)]
        assert (sampler.compiled._fkind[rules] == KIND_RULE).all()
        num_batches, per_batch = 40, 200
        worlds = sampler.sample_worlds(num_batches * per_batch, burn_in=100)
        estimate = worlds.mean(axis=0)
        # Batch-means standard error (autocorrelation measured, not
        # assumed), z at a 1e-4 family-wise miss rate over the free
        # variables; one sample's worth of slack for a chain that sits
        # on a near-deterministic variable.
        free = sampler.plan.free_vars
        batch_means = worlds.reshape(num_batches, per_batch, -1).mean(axis=1)
        stderr = batch_means.std(axis=0, ddof=1) / np.sqrt(num_batches)
        z = NormalDist().inv_cdf(1.0 - 1e-4 / (2 * max(free.size, 1)))
        bound = z * stderr[free] + 1.0 / worlds.shape[0]
        assert (np.abs(estimate - exact)[free] <= bound).all(), (
            np.abs(estimate - exact)[free], bound
        )

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=10, deadline=None)
    def test_chains_started_from_the_exact_distribution_keep_it(self, seed):
        fg = raw_graph(seed)
        exact = ExactInference(fg)
        marginals = exact.marginals()
        # Independent chains started from the exact distribution: a sweep
        # leaves it invariant, so every sweep of every chain is an exact
        # draw, however slowly one chain would cross between the raw
        # graph's near-deterministic modes.  Starts are a systematic
        # sample, so each world gets ⌊K·π⌋ or ⌈K·π⌉ of the K chains: a
        # rare mode is missed or over-drawn by at most one chain.
        num_chains, num_sweeps = 4000, 20
        streams = np.random.SeedSequence(seed).spawn(num_chains + 1)
        cdf = np.cumsum(exact.distribution())
        u = (np.random.default_rng(streams[0]).random() + np.arange(num_chains)) / num_chains
        picks = np.searchsorted(cdf / cdf[-1], u, side="right")
        starts = exact.worlds[np.minimum(picks, cdf.size - 1)]
        graph = fg.copy()
        compiled = CompiledFactorGraph(graph)
        chains = [
            GibbsSampler(graph, seed=stream, initial=start, compiled=compiled)
            for stream, start in zip(streams[1:], starts)
        ]
        worlds = ChainStack(chains).sample_worlds(num_sweeps)
        free = chains[0].plan.free_vars
        # A sweep that skips a site keeps the distribution too, but leaves
        # the site at its start in every chain.
        movable = free[(marginals[free] >= 1e-3) & (marginals[free] <= 1 - 1e-3)]
        moved = (worlds[:, :, movable] != starts[:, None, movable]).any(axis=(0, 1))
        assert moved.all(), movable[~moved]
        chain_means = worlds.mean(axis=1)
        estimate = chain_means.mean(axis=0)
        # The chains draw independently from stratified starts, so the
        # spread of their means bounds the standard error from above
        # (autocorrelation within a chain needs no model); z at a 1e-4
        # family-wise miss rate over the free variables; one chain's worth
        # of slack for the rounding of the starts.
        stderr = chain_means.std(axis=0, ddof=1) / np.sqrt(num_chains)
        z = NormalDist().inv_cdf(1.0 - 1e-4 / (2 * max(free.size, 1)))
        bound = z * stderr[free] + 1.0 / num_chains
        assert (np.abs(estimate - marginals)[free] <= bound).all(), (
            np.abs(estimate - marginals)[free], bound
        )


class TestRuleTable:
    @given(
        rules=st.lists(
            st.lists(
                st.lists(st.tuples(st.integers(0, 4), st.booleans()), max_size=5),
                max_size=4,
            ),
            max_size=4,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_rule_table_canonicalizes_and_is_the_identity_without_repeats(self, rules):
        table = rule_table(
            list(range(len(rules))),
            [0] * len(rules),
            [sem_code(Semantics.RATIO)] * len(rules),
            rules,
        )
        got = {name: getattr(table, name).tolist() for name in columns_of([])}
        want = columns_of([canonical_groundings(groundings) for groundings in rules])
        assert got == want
        if all(len({v for v, _ in g}) == len(g) for groundings in rules for g in groundings):
            assert got == columns_of(rules)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_table_operations_keep_groundings_canonical(self, seed):
        """``take`` / ``concat`` / ``with_weights`` and the substrate's
        ``factor_table`` only move canonical rows around."""
        rng = np.random.default_rng(seed)
        graphs = [raw_graph(seed), raw_graph(seed + 1)]
        tables = [fg.factor_table() for fg in graphs]
        joined = FactorTable.concat(tables)
        picked = joined.take(rng.permutation(len(joined))[: len(joined) // 2 + 1])
        compiled = CompiledFactorGraph(graphs[0].copy())
        gathered = compiled.factor_table(rng.permutation(compiled.num_factors))
        for table in (joined, picked, picked.with_weights(picked.weight_ids()), gathered):
            pairs = set(zip(table.lit_gg.tolist(), table.lit_var.tolist()))
            assert len(pairs) == table.lit_gg.size
            assert table.factors() == lower_factors(table.factors()).factors()

    def test_a_contradiction_beside_an_empty_grounding(self):
        """Only the contradictory grounding goes: the empty one stays and
        is satisfied in every world, so the rule always counts one."""
        a, head = 0, 1
        table = rule_table(
            [head], [0], [sem_code(Semantics.LINEAR)], [[((a, True), (a, False)), ()]]
        )
        assert table.grounding_ri.tolist() == [0]
        assert table.lit_gg.size == 0
        fg = FactorGraph()
        fg.add_variables(2)
        wid = fg.weights.intern("w", initial=0.9)
        fg.add_rule_factor(wid, head, [[(a, True), (a, False)], []], Semantics.LINEAR)
        raw = [RuleFactor(wid, head, (((a, True), (a, False)), ()), Semantics.LINEAR)]
        compiled = CompiledFactorGraph(fg.copy())
        assert compiled.num_groundings == 1
        for bits in range(4):
            x = np.array([bits & 1, bits >> 1], dtype=bool)
            cache = GibbsCache(compiled, x)
            assert cache.nsat.tolist() == [1]
            for var in (a, head):
                assert conditional(cache, var, x) == pytest.approx(
                    raw_delta(raw, fg.weights, x, var), abs=1e-12
                )

    def test_repeats_keep_the_first_literal_and_renumber_the_rest(self):
        table = rule_table(
            [5, 6],
            [0, 1],
            [sem_code(Semantics.RATIO)] * 2,
            [
                [((2, True), (3, False), (2, True)), ((3, True), (2, False), (3, False))],
                [((4, False),), ((4, False), (4, False), (2, True))],
            ],
        )
        assert table.grounding_ri.tolist() == [0, 1, 1]
        assert table.lit_gg.tolist() == [0, 0, 1, 2, 2]
        assert table.lit_var.tolist() == [2, 3, 4, 4, 2]
        assert table.lit_pos.tolist() == [True, False, False, False, True]
