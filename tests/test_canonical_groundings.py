"""Every rule column is canonical: no grounding names a variable twice.

Eq. 1 counts satisfied groundings, and a grounding is a conjunction, so
``x ∧ x = x`` and ``x ∧ ¬x`` never holds.  ``graph.delta.rule_table``
builds every rule column in that form — a repeated literal keeps its
first occurrence, a contradictory grounding is dropped whole (never left
empty: an empty grounding is satisfied) — and the substrate has one rule
path.  Factor *objects* stay raw, and their brute-force energies are the
oracle:

* over raw graphs full of repeated, contradictory and empty groundings,
  every rule lands at ``KIND_RULE``; the scalar and batched conditionals
  and ``weight_statistics`` equal the raw objects' energies; Gibbs
  marginals match exact inference on the raw graph;
* ``rule_table`` equals a per-literal Python canonicalization, which is
  the identity on groundings without a repeat.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CompiledFactorGraph, FactorGraph, Semantics
from repro.graph.compiled import GibbsCache
from repro.graph.delta import KIND_RULE, FactorTable, lower_factors, rule_table
from repro.graph.factor_graph import RuleFactor
from repro.graph.semantics import sem_code
from repro.inference.exact import ExactInference
from repro.inference.gibbs import GibbsSampler

from tests.helpers import SEMANTICS, brute_force_delta, random_factor
from tests.reference import learning as reference


def raw_graph(seed: int, max_vars: int = 6) -> FactorGraph:
    """A small graph of bias, Ising and rule factors whose rules have
    zero, empty, repeated and contradictory groundings — and always one
    rule with a repeated literal and a contradiction next to an empty
    grounding."""
    rng = np.random.default_rng(seed)
    fg = FactorGraph()
    n = int(rng.integers(2, max_vars + 1))
    fg.add_variables(n)
    for k in range(int(rng.integers(1, 4))):
        fg.weights.intern(("w", k), initial=float(rng.normal(0, 0.7)))
    for _ in range(int(rng.integers(1, 8))):
        fg.factors.append(random_factor(rng, n, int(rng.integers(len(fg.weights)))))
    a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
    fg.add_rule_factor(
        int(rng.integers(len(fg.weights))),
        int(rng.integers(n)),
        [[(a, True), (b, False), (a, True)], [(b, True), (a, False), (b, False)], []],
        SEMANTICS[int(rng.integers(3))],
    )
    for var in range(n):
        if rng.random() < 0.2:
            fg.set_evidence(var, bool(rng.integers(2)))
    return fg


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
        fg = raw_graph(seed)
        compiled = CompiledFactorGraph(fg.copy())
        rules = [i for i, f in enumerate(fg.factors) if isinstance(f, RuleFactor)]
        assert (compiled._fkind[rules] == KIND_RULE).all()
        assert compiled.num_rules == len(rules)
        pairs = set(zip(compiled.lit_gg.tolist(), compiled.lit_var.tolist()))
        assert len(pairs) == compiled.lit_gg.size  # no grounding repeats a variable

        rng = np.random.default_rng(seed + 1)
        x = rng.random(fg.num_vars) < 0.5
        expected = [brute_force_delta(fg, x, v) for v in range(fg.num_vars)]
        cache = GibbsCache(compiled, x)
        scalar = [cache.delta_energy(v, x) for v in range(fg.num_vars)]
        assert scalar == pytest.approx(expected, abs=1e-9)
        block = compiled.gather_block(np.arange(fg.num_vars)).gathered(compiled)
        assert cache.delta_energy_block(block, x) == pytest.approx(expected, abs=1e-9)

        worlds = rng.random((5, fg.num_vars)) < 0.5
        assert compiled.weight_statistics(worlds) == pytest.approx(
            reference.weight_statistics(fg, worlds), abs=1e-9
        )

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=10, deadline=None)
    def test_gibbs_marginals_match_exact_inference_on_the_raw_graph(self, seed):
        fg = raw_graph(seed)
        exact = ExactInference(fg).marginals()
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
        tables = [lower_factors(fg.factors) for fg in graphs]
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
        compiled = CompiledFactorGraph(fg.copy())
        assert compiled.num_groundings == 1
        for bits in range(4):
            x = np.array([bits & 1, bits >> 1], dtype=bool)
            cache = GibbsCache(compiled, x)
            assert cache.nsat.tolist() == [1]
            for var in (a, head):
                assert cache.delta_energy(var, x) == pytest.approx(
                    brute_force_delta(fg, x, var), abs=1e-12
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
