"""Incremental compilation: apply_delta must equal a fresh compile.

The tentpole invariant of end-to-end incremental inference: after any
sequence of ``CompiledFactorGraph.apply_delta`` calls (variable appends,
factor inserts and retractions, rule add/remove, evidence flips), the
patched compiled view — and every piece of derived state repaired from
it (``GibbsCache``, ``SweepPlan``, warm samplers) — must behave
identically to compiling the updated graph from scratch.
"""

import numpy as np
import pytest

from repro.core import EngineConfig, IncrementalEngine, RerunEngine
from repro.graph import FactorGraph, FactorGraphDelta, Semantics
from repro.graph.compiled import CompiledFactorGraph, GibbsCache
from repro.graph.factor_graph import BiasFactor, IsingFactor, RuleFactor
from repro.inference.gibbs import GibbsSampler
from repro.learning.sgd import SGDLearner
from repro.util.stats import max_marginal_error

from tests.helpers import (
    brute_force_delta,
    chain_ising_graph,
    random_pairwise_graph,
    voting_graph,
)


def seed_graph(seed: int = 0, n: int = 24) -> FactorGraph:
    """Pairwise graph plus a couple of rule factors and evidence."""
    rng = np.random.default_rng(seed)
    fg = random_pairwise_graph(n, density=0.12, seed=seed)
    w = fg.weights.intern("rule-a", initial=0.4)
    fg.add_rule_factor(w, 0, [[(1, True), (2, False)], [(3, True)]], Semantics.RATIO)
    w2 = fg.weights.intern("rule-b", initial=-0.3)
    fg.add_rule_factor(w2, 5, [[(6, True)], [(7, False)]], Semantics.LINEAR)
    fg.set_evidence(int(rng.integers(n)), True)
    return fg


def random_delta(graph: FactorGraph, rng, step: int) -> FactorGraphDelta:
    """A mixed delta: appends, retractions, rule add/remove, evidence."""
    delta = FactorGraphDelta()
    delta.num_new_vars = int(rng.integers(0, 3))
    total = graph.num_vars + delta.num_new_vars
    nw = len(graph.weights)
    delta.new_weight_entries.append(((f"w{step}",), float(rng.normal(0, 0.5)), False))
    for _ in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(0, 3))
        a, b = (int(x) for x in rng.choice(total, size=2, replace=False))
        if kind == 0:
            delta.new_factors.append(BiasFactor(weight_id=nw, var=a))
        elif kind == 1:
            delta.new_factors.append(IsingFactor(weight_id=nw, i=a, j=b))
        else:
            c = int(rng.integers(total))
            delta.new_factors.append(
                RuleFactor(
                    weight_id=nw,
                    head=a,
                    groundings=(((b, True),), ((b, False), (c, True))) if b != c and a not in (b, c)
                    else (((b, True),),) if a != b
                    else (((c, True),),) if a != c
                    else ((((a + 1) % total, True),),),
                    semantics=Semantics.RATIO,
                )
            )
    if graph.num_factors > 4 and rng.random() < 0.8:
        delta.removed_factor_ids.add(int(rng.integers(graph.num_factors)))
    if rng.random() < 0.7:
        var = int(rng.integers(graph.num_vars))
        delta.evidence_updates[var] = (
            bool(rng.integers(2)) if rng.random() < 0.7 else None
        )
    if rng.random() < 0.3:
        wid = int(rng.integers(len(graph.weights)))
        if not graph.weights.is_fixed(wid):
            delta.changed_weight_values[wid] = float(rng.normal(0, 0.5))
    return delta


def assert_patched_equals_fresh(compiled, graph, seed=1):
    """Conditional parity: delta_energy of patched vs fresh, every var."""
    fresh = CompiledFactorGraph(graph.copy(share_weights=True))
    state = graph.initial_assignment(np.random.default_rng(seed))
    ca = GibbsCache(compiled, state.copy())
    cb = GibbsCache(fresh, state.copy())
    for var in range(graph.num_vars):
        da = ca.delta_energy(var, state)
        db = cb.delta_energy(var, state)
        assert da == pytest.approx(db, abs=1e-8), f"var {var}: {da} != {db}"


def assert_brute_force(compiled, graph, seed=2):
    """Patched conditionals ≡ the brute-force energy difference."""
    state = graph.initial_assignment(np.random.default_rng(seed))
    cache = GibbsCache(compiled, state)
    for var in range(graph.num_vars):
        assert cache.delta_energy(var, state) == pytest.approx(
            brute_force_delta(graph, state, var), abs=1e-9
        )


def assert_plan_valid(compiled, graph):
    """The (patched) plan partitions the free vars into independent blocks."""
    plan = compiled.plan(graph)
    seen = []
    for block in plan.blocks:
        seen.extend(int(v) for v in block.vars)
        members = set(int(v) for v in block.vars)
        for v in members:
            assert not (compiled._var_neighbors(v) & (members - {v})), (
                f"block members {sorted(members)} share a factor via {v}"
            )
    assert sorted(seen) == sorted(
        np.flatnonzero(~graph.evidence_mask()).tolist()
    )


class TestPatchVsFresh:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_delta_sequence(self, seed):
        rng = np.random.default_rng(seed + 100)
        graph = seed_graph(seed)
        compiled = CompiledFactorGraph(graph)
        compiled.plan(graph)  # cache a plan so apply_delta patches it
        for step in range(8):
            delta = random_delta(graph, rng, step)
            updated = delta.apply(graph)
            compiled.apply_delta(delta, compact_threshold=1.0)
            graph = updated
            assert_patched_equals_fresh(compiled, graph)
            assert_plan_valid(compiled, graph)

    def test_parallel_edge_removal_keeps_pair_coupled(self):
        """Deleting one of two parallel Ising edges must not decouple the
        pair in the block plan (neighbour counts are per incidence)."""
        fg = FactorGraph()
        a, b = fg.add_variable(), fg.add_variable()
        w1 = fg.weights.intern("w1", initial=0.5)
        w2 = fg.weights.intern("w2", initial=0.3)
        e1 = fg.add_ising_factor(w1, a, b)
        fg.add_ising_factor(w2, a, b)
        compiled = CompiledFactorGraph(fg)
        compiled.plan(fg)
        delta = FactorGraphDelta(removed_factor_ids={e1})
        updated = delta.apply(fg)
        compiled.apply_delta(delta, compact_threshold=1.0)
        assert b in compiled._var_neighbors(a)
        assert_plan_valid(compiled, updated)
        assert_patched_equals_fresh(compiled, updated)

    def test_repeated_literal_rule_add_and_remove(self):
        """Through apply_delta a head-in-body rule and a rule whose
        grounding names a variable twice both land on the one rule path,
        the second in canonical form; both retract cleanly."""
        graph = chain_ising_graph(8, 0.3, 0.1)
        compiled = CompiledFactorGraph(graph)
        compiled.plan(graph)
        nw = len(graph.weights)
        self_headed = RuleFactor(
            weight_id=nw,
            head=2,
            groundings=(((2, True), (3, True)), ((2, False),)),
            semantics=Semantics.RATIO,
        )
        duplicated = RuleFactor(
            weight_id=nw,
            head=5,
            groundings=(((6, True), (6, False)), ((5, True),)),
            semantics=Semantics.LOGICAL,
        )
        delta = FactorGraphDelta(
            new_weight_entries=[(("s",), 0.5, False)],
            new_factors=[self_headed, duplicated],
        )
        updated = delta.apply(graph)
        compiled.apply_delta(delta, compact_threshold=1.0)
        assert compiled.num_live_rules == 2
        # ``6 ∧ ¬6`` never holds: that grounding goes, ``5`` stays.
        canonical = RuleFactor(nw, 5, (((5, True),),), Semantics.LOGICAL)
        assert compiled.factor_table(
            [compiled.num_factors - 2, compiled.num_factors - 1]
        ).factors() == [self_headed, canonical]
        assert compiled.py_head[2] == [] and compiled.py_head[5] == []
        assert compiled.py_body[6] == []
        assert_patched_equals_fresh(compiled, updated)
        assert_brute_force(compiled, updated)
        assert_plan_valid(compiled, updated)
        assert not compiled._force_singleton.any()
        # And retract both again.
        removal = FactorGraphDelta(
            removed_factor_ids={updated.num_factors - 2, updated.num_factors - 1}
        )
        final = removal.apply(updated)
        compiled.apply_delta(removal, compact_threshold=1.0)
        assert compiled.num_live_rules == 0
        assert compiled.py_body[2] == [] and compiled.py_body[5] == []
        assert_patched_equals_fresh(compiled, final)
        assert_brute_force(compiled, final)
        assert_plan_valid(compiled, final)

    def test_compaction_threshold_recompiles(self):
        graph = chain_ising_graph(10, 0.3, 0.1)
        compiled = CompiledFactorGraph(graph)
        delta = FactorGraphDelta(removed_factor_ids={0, 1, 2, 3})
        updated = delta.apply(graph)
        patch = compiled.apply_delta(delta, compact_threshold=0.1)
        assert patch.compacted
        assert not compiled.has_patches
        assert_patched_equals_fresh(compiled, updated)

    def test_cache_consistency_after_patch_and_sweeps(self):
        rng = np.random.default_rng(7)
        graph = seed_graph(5)
        compiled = CompiledFactorGraph(graph)
        sampler = GibbsSampler(graph, seed=3, compiled=compiled)
        sampler.run(3)
        for step in range(6):
            delta = random_delta(graph, rng, step)
            updated = delta.apply(graph)
            patch = compiled.apply_delta(delta, compact_threshold=1.0)
            graph = updated
            sampler.apply_patch(patch)
            sampler.run(3)
            sampler.cache.check_consistency(sampler.state)
            for var, val in graph.evidence.items():
                assert bool(sampler.state[var]) == val

    def test_marginals_statistically_identical(self):
        """Patched compile and fresh compile sample the same distribution."""
        graph = chain_ising_graph(8, coupling=0.4, bias=0.1)
        compiled = CompiledFactorGraph(graph)
        sampler = GibbsSampler(graph, seed=0, compiled=compiled)
        w = None
        for step in range(3):
            delta = FactorGraphDelta()
            delta.num_new_vars = 1
            nw = len(graph.weights)
            delta.new_weight_entries.append(((f"x{step}",), 0.5, False))
            delta.new_factors.append(
                IsingFactor(weight_id=nw, i=graph.num_vars, j=step)
            )
            delta.removed_factor_ids.add(step)
            updated = delta.apply(graph)
            patch = compiled.apply_delta(delta, compact_threshold=1.0)
            graph = updated
            sampler.apply_patch(patch)
        patched = sampler.estimate_marginals(4000, burn_in=50)
        fresh = GibbsSampler(graph, seed=99).estimate_marginals(4000, burn_in=50)
        assert max_marginal_error(patched, fresh) < 0.05


class TestRerunEngineIncremental:
    def test_no_recompile_for_nonstructural_deltas(self):
        graph = chain_ising_graph(10, 0.4, 0.1)
        engine = RerunEngine(graph, EngineConfig(inference_samples=50, seed=0))
        engine.apply_update(FactorGraphDelta())  # first: compiles once
        for step in range(3):
            engine.apply_update(
                FactorGraphDelta(changed_weight_values={0: 0.4 + 0.01 * step})
            )
        engine.apply_update(FactorGraphDelta(evidence_updates={1: True}))
        assert engine.updates_recompiled == 1
        assert engine.updates_patched == 4
        engine.close()

    def test_structural_deltas_patch_not_recompile(self):
        graph = chain_ising_graph(10, 0.4, 0.1)
        engine = RerunEngine(graph, EngineConfig(inference_samples=50, seed=0))
        engine.apply_update(FactorGraphDelta())
        nw = len(engine.current_graph.weights)
        delta = FactorGraphDelta(
            num_new_vars=1,
            new_weight_entries=[(("f",), 0.5, False)],
            new_factors=[IsingFactor(weight_id=nw, i=10, j=0)],
        )
        engine.apply_update(delta)
        assert engine.updates_recompiled == 1
        assert engine.updates_patched == 1
        engine.close()

    def test_empty_delta_short_circuits(self):
        graph = chain_ising_graph(8, 0.4, 0.1)
        engine = RerunEngine(graph, EngineConfig(inference_samples=50, seed=0))
        first = engine.apply_update(FactorGraphDelta())
        second = engine.apply_update(FactorGraphDelta())
        assert second.details.get("short_circuit") == "empty delta"
        assert np.array_equal(first.marginals, second.marginals)
        assert engine.updates_recompiled == 1
        engine.close()

    def test_incremental_matches_baseline_quality(self):
        graph = chain_ising_graph(8, coupling=0.4, bias=0.1)
        nw = len(graph.weights)
        delta = FactorGraphDelta(
            num_new_vars=1,
            new_weight_entries=[(("f",), 0.6, False)],
            new_factors=[
                IsingFactor(weight_id=nw, i=8, j=0),
                BiasFactor(weight_id=nw, var=8),
            ],
        )
        inc = RerunEngine(
            graph, EngineConfig(inference_samples=2000, seed=0)
        )
        inc.apply_update(FactorGraphDelta())
        out_inc = inc.apply_update(delta)
        inc.close()
        # Baseline: a fresh engine (fresh compile, fresh chain) on the
        # materialized updated graph.
        base = RerunEngine(
            delta.apply(graph), EngineConfig(inference_samples=2000, seed=1)
        )
        out_base = base.apply_update(FactorGraphDelta())
        assert max_marginal_error(out_inc.marginals, out_base.marginals) < 0.08


class TestIncrementalEngineSatellites:
    def _config(self, **kw):
        base = dict(
            materialization_samples=300,
            inference_steps=150,
            inference_samples=150,
            variational_lam=0.05,
            seed=0,
        )
        base.update(kw)
        return EngineConfig(**base)

    def test_empty_delta_skips_compose(self):
        engine = IncrementalEngine(chain_ising_graph(6, 0.4, 0.1), self._config())
        engine.materialize()
        outcome = engine.apply_update(FactorGraphDelta())
        assert outcome.details.get("short_circuit") == "empty delta"
        assert outcome.strategy == "sampling"
        assert outcome.decision.rule == 1
        # The cumulative delta stays empty and the graph object untouched.
        assert engine.cumulative_delta.is_empty
        before = engine.current_graph
        engine.apply_update(FactorGraphDelta())
        assert engine.current_graph is before

    def test_bundle_patched_for_small_appends(self):
        fg = chain_ising_graph(8, 0.4, 0.1)
        engine = IncrementalEngine(fg, self._config())
        engine.materialize()
        assert engine.sampling.width == 8
        nw = len(fg.weights)
        delta = FactorGraphDelta(
            num_new_vars=1,
            new_weight_entries=[(("f",), 0.5, False)],
            new_factors=[IsingFactor(weight_id=nw, i=8, j=0)],
        )
        outcome = engine.apply_update(delta)
        assert engine.sampling.width == 9  # patched, not per-proposal
        assert outcome.strategy == "sampling"
        assert outcome.acceptance_rate > 0.2
        assert outcome.marginals.shape == (9,)

    def test_bundle_not_patched_for_large_appends(self):
        fg = chain_ising_graph(8, 0.4, 0.1)
        engine = IncrementalEngine(fg, self._config())
        engine.materialize()
        nw = len(fg.weights)
        delta = FactorGraphDelta(
            num_new_vars=4,
            new_weight_entries=[(("f",), 0.5, False)],
            new_factors=[IsingFactor(weight_id=nw, i=8, j=9)],
        )
        outcome = engine.apply_update(delta)
        assert engine.sampling.width == 8  # falls back to per-proposal
        assert outcome.marginals.shape == (12,)


class TestRelationLookup:
    def test_lookup_and_rows_return_tuples(self):
        from repro.db.relation import Relation

        rel = Relation("r", ("a", "b"))
        rel.insert(("x", 1))
        rel.insert(("y", 2))
        assert isinstance(rel.rows(), tuple)
        assert isinstance(rel.lookup((0,), ("x",)), tuple)
        assert isinstance(rel.lookup((0,), ("zzz",)), tuple)
        assert rel.lookup((), ()) == rel.rows()


class TestGrounderDeltasPatchASubstrate:
    def test_ground_update_x3_matches_fresh_compile(self):
        """CI smoke contract: ground → update ×3 → patched ≡ fresh."""
        from tests.test_grounding import spouse_db, spouse_program
        from repro.grounding import IncrementalGrounder

        program = spouse_program()
        db = spouse_db(program)
        grounder = IncrementalGrounder.from_scratch(program, db)
        compiled = CompiledFactorGraph(grounder.graph.copy())
        compiled.plan()
        updates = [
            dict(inserts={"PhraseFeature": [("m1", "m2", "his spouse")]}),
            dict(inserts={"PersonCandidate": [("s3", "m5"), ("s3", "m6")]}),
            dict(deletes={"PhraseFeature": [("m3", "m4", "friend of")]}),
        ]
        for update in updates:
            delta = grounder.apply_update(**update).delta
            compiled.apply_delta(delta, compact_threshold=1.0)
        assert_patched_equals_fresh(compiled, grounder.graph)
        assert_plan_valid(compiled, grounder.graph)
        patched = GibbsSampler(
            compiled.graph, seed=0, compiled=compiled
        ).estimate_marginals(2000, burn_in=50)
        fresh = GibbsSampler(grounder.graph, seed=1).estimate_marginals(
            2000, burn_in=50
        )
        assert max_marginal_error(patched, fresh) < 0.06


class TestLearnerFollowsUpdates:
    def test_conditioned_chain_follows_evidence_across_growth_and_compaction(self):
        """The learner's chains ride in-place growth and then a threshold
        compaction of the shared substrate: each keeps its sampler, sizes
        to the new graph, and the conditioned one follows the evidence."""
        graph = random_pairwise_graph(40, density=0.1, seed=2)
        compiled = CompiledFactorGraph(graph)
        learner = SGDLearner(graph, seed=0, compiled=compiled)
        chains = (learner._conditioned, learner._free)
        learner.fit(2, record_loss=False)
        for step in range(3):
            current = learner.graph
            delta = FactorGraphDelta()
            nw = len(current.weights)
            delta.num_new_vars = 1
            delta.new_weight_entries.append(((f"w{step}",), 0.4, False))
            delta.new_factors.append(
                IsingFactor(weight_id=nw, i=current.num_vars, j=step)
            )
            delta.evidence_updates[step] = True
            threshold = 0.0 if step == 2 else 1.0
            patch = compiled.apply_delta(delta, compact_threshold=threshold)
            assert patch.compacted == (step == 2)
            learner.apply_patch(patch)
            learner.fit(1, record_loss=False)
            assert (learner._conditioned, learner._free) == chains
            for chain in chains:
                assert chain.state.shape == (compiled.num_vars,)
                chain.cache.refresh_weights(chain.state)
                chain.cache.check_consistency(chain.state)
            for var, val in learner.graph.evidence.items():
                assert bool(learner._conditioned.state[var]) == val
