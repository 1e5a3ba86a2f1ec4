"""Tests for the compiled incidence index and the Gibbs cache.

The key invariant: ``delta_energy`` computed from the caches must equal
the brute-force energy difference ``E(x|v=1) − E(x|v=0)``, for any graph,
any state, any variable — hypothesis hammers this.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CompiledFactorGraph, FactorGraph, Semantics
from repro.graph.compiled import GibbsCache
from repro.graph.delta import KIND_RULE

from tests.helpers import (
    brute_force_delta,
    chain_ising_graph,
    conditional,
    flip,
    implication_graph,
    random_pairwise_graph,
    voting_graph,
)


def random_rule_graph(
    seed: int,
    num_vars: int = 6,
    num_factors: int = 8,
    repeats: bool = False,
) -> FactorGraph:
    """Random graph mixing all three factor kinds and semantics.

    With ``repeats=True`` some rule factors deliberately put the head in
    their own body or repeat a literal's variable within one grounding
    (same or opposite polarity), which the substrate lands canonical.
    """
    rng = np.random.default_rng(seed)
    fg = FactorGraph()
    variables = [fg.add_variable() for _ in range(num_vars)]
    semantics = list(Semantics)
    for k in range(num_factors):
        wid = fg.weights.intern(("w", k), initial=float(rng.normal(0, 1)))
        kind = rng.integers(0, 3)
        if kind == 0:
            fg.add_bias_factor(wid, int(rng.integers(num_vars)))
        elif kind == 1:
            i, j = rng.choice(num_vars, size=2, replace=False)
            fg.add_ising_factor(wid, int(i), int(j))
        else:
            head = int(rng.integers(num_vars))
            groundings = []
            for _ in range(int(rng.integers(1, 4))):
                size = int(rng.integers(1, 4))
                lits = [
                    (int(rng.integers(num_vars)), bool(rng.integers(2)))
                    for _ in range(size)
                ]
                if repeats and rng.random() < 0.5:
                    if rng.random() < 0.5:
                        # Head appears in its own body.
                        lits.append((head, bool(rng.integers(2))))
                    else:
                        # Duplicated variable within one grounding.
                        dup = lits[int(rng.integers(len(lits)))][0]
                        lits.append((dup, bool(rng.integers(2))))
                groundings.append(lits)
            fg.add_rule_factor(
                wid, head, groundings, semantics[int(rng.integers(3))]
            )
    return fg


class TestCompiledStructure:
    def test_incidences_cover_all_factors(self):
        fg = implication_graph()
        compiled = CompiledFactorGraph(fg)
        # Variable q (0) is head of the single rule factor (dense rule 0).
        assert compiled.gather_block([0]).head_ri.tolist() == [0]
        assert compiled.gather_block([1, 2, 3]).head_ri.size == 0
        # a, b, c appear in bodies; all incidences belong to rule 0.
        assert compiled.gather_block([1]).fseg_ri.tolist() == [0]
        # b occurs in both groundings.
        block = compiled.gather_block([2])
        assert block.fseg_start.tolist() == [0] and block.body_gg.size == 2

    def test_flat_arrays_and_block_columns_consistent(self):
        fg = implication_graph()
        compiled = CompiledFactorGraph(fg)
        assert compiled.num_rules == 1
        assert compiled.num_groundings == 2
        assert compiled.grounding_ri.tolist() == [0, 0]
        assert compiled.lit_gg.size == compiled.lit_var.size == 4
        # Flat literal arrays and a variable's block columns agree.
        lits = list(
            zip(
                compiled.lit_var.tolist(),
                compiled.grounding_ri[compiled.lit_gg].tolist(),
                compiled.lit_gg.tolist(),
                compiled.lit_pos.tolist(),
            )
        )
        for var in range(fg.num_vars):
            block = compiled.gather_block([var])
            gathered = list(
                zip(block.body_ri.tolist(), block.body_gg.tolist(), block.body_pos.tolist())
            )
            assert gathered == [(ri, gg, pos) for v, ri, gg, pos in lits if v == var]

    def test_pairwise_flag(self):
        assert CompiledFactorGraph(chain_ising_graph(4)).is_pairwise
        assert not CompiledFactorGraph(voting_graph(2, 2)).is_pairwise

    def test_self_loop_rule_stays_on_fast_path(self):
        """A rule whose head sits in its own body compiles to the fast
        path (closed form ``w·(g(n₁) + g(n₀))``): only a body segment,
        no head incidence, conditional ≡ brute force."""
        fg = FactorGraph()
        q = fg.add_variable()
        a = fg.add_variable()
        wid = fg.weights.intern("w", initial=1.0)
        fg.add_rule_factor(
            wid, q, [[(q, True)], [(q, False), (a, True)]], Semantics.RATIO
        )
        compiled = CompiledFactorGraph(fg)
        assert compiled._fkind.tolist() == [KIND_RULE]
        block = compiled.gather_block([q])
        assert block.head_ri.size == 0 and block.fseg_ri.tolist() == [0]
        assert block.fseg_self.tolist() == [True]
        for bits in range(4):
            x = np.array([bits & 1, bits >> 1], dtype=bool)
            cache = GibbsCache(compiled, x)
            for var in (q, a):
                assert conditional(cache, var, x) == pytest.approx(
                    brute_force_delta(fg, x, var), abs=1e-12
                )

    def test_duplicate_var_in_grounding_lands_canonical(self):
        """A grounding that mentions a variable twice lands in its
        canonical form on the one rule path: ``a ∧ ¬a`` never holds, so
        that grounding goes and the head-in-body one stays."""
        fg = FactorGraph()
        q = fg.add_variable()
        a = fg.add_variable()
        wid = fg.weights.intern("w", initial=1.0)
        fg.add_rule_factor(
            wid, q, [[(a, True), (a, False)], [(q, True)]], Semantics.LOGICAL
        )
        compiled = CompiledFactorGraph(fg)
        assert compiled._fkind.tolist() == [KIND_RULE]
        assert compiled.num_rules == 1 and compiled.num_groundings == 1
        assert compiled.factor_table([0]).factors()[0].groundings == (((q, True),),)
        assert compiled.gather_block([a]).body_gg.size == 0
        assert compiled.gather_block([q]).head_ri.size == 0
        for bits in range(4):
            x = np.array([bits & 1, bits >> 1], dtype=bool)
            cache = GibbsCache(compiled, x)
            for var in (q, a):
                assert conditional(cache, var, x) == pytest.approx(
                    brute_force_delta(fg, x, var), abs=1e-12
                )

    def test_free_vars_exclude_evidence(self):
        fg = chain_ising_graph(4)
        fg.set_evidence(1, True)
        compiled = CompiledFactorGraph(fg)
        assert 1 not in compiled.free_vars.tolist()


class TestGibbsCacheCorrectness:
    @given(st.integers(min_value=0, max_value=500), st.data())
    @settings(max_examples=80, deadline=None)
    def test_delta_energy_matches_brute_force(self, seed, data):
        fg = random_rule_graph(seed)
        compiled = CompiledFactorGraph(fg)
        rng = np.random.default_rng(seed + 1)
        x = rng.random(fg.num_vars) < 0.5
        cache = GibbsCache(compiled, x)
        var = data.draw(st.integers(min_value=0, max_value=fg.num_vars - 1))
        assert conditional(cache, var, x) == pytest.approx(
            brute_force_delta(fg, x, var), abs=1e-9
        )

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_cache_stays_consistent_under_flips(self, seed):
        fg = random_rule_graph(seed)
        compiled = CompiledFactorGraph(fg)
        rng = np.random.default_rng(seed)
        x = rng.random(fg.num_vars) < 0.5
        cache = GibbsCache(compiled, x)
        for _ in range(30):
            var = int(rng.integers(fg.num_vars))
            new_value = bool(rng.integers(2))
            flip(cache, var, new_value, x)
            assert x[var] == new_value
        cache.check_consistency(x)

    def test_flip_to_same_value_is_noop(self):
        fg = voting_graph(2, 2)
        compiled = CompiledFactorGraph(fg)
        x = np.zeros(fg.num_vars, dtype=bool)
        cache = GibbsCache(compiled, x)
        flip(cache, 1, False, x)
        cache.check_consistency(x)

    def test_delta_energy_after_many_flips(self):
        fg = random_rule_graph(99, num_vars=8, num_factors=12)
        compiled = CompiledFactorGraph(fg)
        rng = np.random.default_rng(7)
        x = rng.random(fg.num_vars) < 0.5
        cache = GibbsCache(compiled, x)
        for _ in range(50):
            var = int(rng.integers(fg.num_vars))
            flip(cache, var, bool(rng.integers(2)), x)
        for var in range(fg.num_vars):
            assert conditional(cache, var, x) == pytest.approx(
                brute_force_delta(fg, x, var), abs=1e-9
            )

    def test_pairwise_graph_has_no_rule_state(self):
        fg = random_pairwise_graph(10, seed=3)
        compiled = CompiledFactorGraph(fg)
        x = np.zeros(10, dtype=bool)
        cache = GibbsCache(compiled, x)
        assert cache.unsat.size == 0 and cache.nsat.size == 0


class TestRandomizedEquivalence:
    """Randomized equivalence of the flat kernels against brute force on
    the raw factor objects, including head-in-body rules and repeated
    literals (which the substrate keeps canonical)."""

    @given(st.integers(min_value=0, max_value=300), st.data())
    @settings(max_examples=60, deadline=None)
    def test_delta_energy_matches_brute_force_with_repeats(self, seed, data):
        fg = random_rule_graph(seed, num_vars=7, num_factors=10, repeats=True)
        compiled = CompiledFactorGraph(fg)
        rng = np.random.default_rng(seed + 1)
        x = rng.random(fg.num_vars) < 0.5
        cache = GibbsCache(compiled, x)
        var = data.draw(st.integers(min_value=0, max_value=fg.num_vars - 1))
        assert conditional(cache, var, x) == pytest.approx(
            brute_force_delta(fg, x, var), abs=1e-9
        )

    @given(st.integers(min_value=0, max_value=150))
    @settings(max_examples=25, deadline=None)
    def test_hundred_random_flips_stay_consistent(self, seed):
        fg = random_rule_graph(seed, num_vars=8, num_factors=12, repeats=True)
        compiled = CompiledFactorGraph(fg)
        rng = np.random.default_rng(seed)
        x = rng.random(fg.num_vars) < 0.5
        cache = GibbsCache(compiled, x)
        for _ in range(100):
            var = int(rng.integers(fg.num_vars))
            flip(cache, var, bool(rng.integers(2)), x)
        cache.check_consistency(x)
        for var in range(fg.num_vars):
            assert conditional(cache, var, x) == pytest.approx(
                brute_force_delta(fg, x, var), abs=1e-9
            )

    def test_plan_blocks_match_brute_force(self):
        # Wide graph with disjoint rule factors so the plan forms real
        # multi-variable blocks, including head and body incidences.
        from repro.inference.gibbs import GibbsSampler

        rng = np.random.default_rng(11)
        fg = FactorGraph()
        num_groups = 40
        # Same-factor variables are spaced num_groups apart in id (scan)
        # order, so consecutive variables share no factor and the planner
        # forms large blocks with head AND body incidences.
        heads = list(fg.add_variables(num_groups))
        bodies = list(fg.add_variables(2 * num_groups))
        for g in range(num_groups):
            wid = fg.weights.intern(("r", g), initial=float(rng.normal(0, 0.8)))
            fg.add_rule_factor(
                wid,
                heads[g],
                [
                    [(bodies[g], bool(rng.integers(2)))],
                    [(bodies[num_groups + g], bool(rng.integers(2)))],
                ],
                list(Semantics)[g % 3],
            )
            wb = fg.weights.intern(("b", g), initial=float(rng.normal(0, 0.5)))
            for v in (heads[g], bodies[g], bodies[num_groups + g]):
                fg.add_bias_factor(wb, v)
        sampler = GibbsSampler(fg, seed=0)
        big = [b for b in sampler.plan.blocks if b.vars.size >= 5]
        assert any(b.head_ri.size for b in big) and any(b.body_gg.size for b in big)
        x = rng.random(fg.num_vars) < 0.5
        cache = GibbsCache(CompiledFactorGraph(fg), x)
        for block in sampler.plan.blocks:
            batched = cache.delta_energy_block(block, x)
            for k, var in enumerate(block.vars):
                assert batched[k] == pytest.approx(
                    brute_force_delta(fg, x, int(var)), abs=1e-9
                )

    def test_evidence_set_after_compilation_respected(self):
        from repro.inference.gibbs import GibbsSampler

        fg = chain_ising_graph(5, coupling=2.0)
        compiled = CompiledFactorGraph(fg)
        fg.set_evidence(0, True)
        sampler = GibbsSampler(fg, seed=0, compiled=compiled)
        assert 0 not in sampler.plan.free_vars.tolist()
        worlds = sampler.sample_worlds(50)
        assert worlds[:, 0].all()

    def test_sweep_leaves_cache_consistent(self):
        from repro.inference.gibbs import GibbsSampler

        fg = random_rule_graph(42, num_vars=10, num_factors=14, repeats=True)
        sampler = GibbsSampler(fg, seed=5)
        sampler.run(20)
        sampler.cache.check_consistency(sampler.state)

    def test_marginals_match_exact_inference(self):
        from repro.inference.exact import ExactInference
        from repro.inference.gibbs import GibbsSampler
        from repro.util.stats import max_marginal_error

        fg = random_rule_graph(7, num_vars=6, num_factors=9, repeats=True)
        exact = ExactInference(fg).marginals()
        est = GibbsSampler(fg, seed=3).estimate_marginals(8000, burn_in=300)
        assert max_marginal_error(est, exact) < 0.04
