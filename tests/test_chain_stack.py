"""K chains over one substrate advance as one — and stay the K chains.

``ChainStack`` sweeps its members as one chain over K block-diagonal
replicas of their substrate.  The oracle is the members advanced one
after the other (``tests/reference/learning.py`` keeps the learner's
two-call epoch).  Here:

* **Bit identity** — after a stacked ``sample_worlds`` and after stacked
  ``sweep()``s, across random patch histories, every member's ``state`` /
  ``field`` / ``unsat`` / ``nsat`` / ``sweeps_done`` / generator state and
  the returned worlds equal (``==``) those of a same-seed member advanced
  alone; every stacked ``delta_energy_block`` returns, for each member
  whose own block batches, the floats that block evaluates to alone
  (``checked_stack``).  Members with different evidence (one lacking a
  whole plan key), shared and separate generators, mixed semantics,
  head-in-body rules on one member only, oversized rules, repeated literals,
  stacked blocks on both sides of the batching crossover.
* **The learner** — ``SGDLearner.fit`` over relearn → patch → relearn
  leaves the weights of the two-call, two-pass reference epoch; a
  rolled-back relearn followed by an epoch equals its never-faulted
  twin; the one-pass gradient equals the two-pass one.
* **Derived state** — the stack pickles without its plan and rebuilds it.
* **Work counts** — per epoch of the News learner: sweeps × stacked blocks
  block evaluations, one ``Generator.random`` call per member, no stacked
  plan built unless a patch came between, one ``GibbsSampler.sweep`` per
  stacked sweep.
"""

from __future__ import annotations

import contextlib
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.compiled as compiled_module
import repro.inference.gibbs as gibbs_module
from repro.graph import FactorGraph, FactorGraphDelta, Semantics
from repro.graph.compiled import (
    _BIG_FACTOR,
    CompiledFactorGraph,
    GibbsCache,
    StackedCache,
    StackedPlan,
)
from repro.graph.factor_graph import CompiledGraphView
from repro.inference.convergence import sweeps_to_marginal
from repro.inference.gibbs import ChainStack, GibbsSampler
from repro.learning import SGDLearner
from repro.learning.gradient import weight_gradient
from repro.reliability.snapshots import LearnerSnapshot, RngSnapshot
from repro.workloads import build_pipeline, workload_by_name

from tests.helpers import mixed_case, voting_graph
from tests.reference import learning as reference
from tests.test_incremental_compile import random_delta, seed_graph
from tests.test_scan_plan import head_in_body_graph, history_delta, random_graph
from tests.test_sweep_kernel import assert_same_chain, counting_rng

# --------------------------------------------------------------------- #
# Members and their sequential twins
# --------------------------------------------------------------------- #

#: Evidence of the first five members: the substrate's own (follows a
#: patch's evidence ops), none (the learner's free chain), a pinned
#: random subset, every variable of one plan key (the member lacks that
#: key), another pinned subset.
KINDS = ("own", "free", "pinned", "emptied", "pinned")


def member_graph(compiled, kind: str, rng):
    """The graph a member of ``kind`` samples: ``compiled``'s structure
    under that member's evidence."""
    if kind == "own":
        return compiled.graph
    evidence = {}
    if kind == "pinned":
        for var in rng.choice(compiled.num_vars, size=min(3, compiled.num_vars), replace=False):
            evidence[int(var)] = bool(rng.integers(2))
    elif kind == "emptied":
        free_plan = compiled.plan(CompiledGraphView(compiled, evidence={}))
        block = free_plan.blocks[int(rng.integers(len(free_plan.blocks)))]
        evidence = {int(var): bool(rng.integers(2)) for var in block.vars}
    return CompiledGraphView(compiled, evidence=evidence)


def ensembles(compiled, kinds, seed: int, shared: bool) -> tuple:
    """``(ours, theirs)``: two same-seed lists of chains over ``compiled``,
    one per kind — from one generator each side (``shared``) or one per
    member."""
    rng = np.random.default_rng(seed)
    graphs = [member_graph(compiled, kind, rng) for kind in kinds]
    sides = []
    for _ in range(2):
        one = np.random.default_rng(seed)
        sides.append(
            [
                GibbsSampler(
                    graph,
                    seed=one if shared else np.random.default_rng([seed, k]),
                    compiled=compiled,
                )
                for k, graph in enumerate(graphs)
            ]
        )
    return sides


def patch_all(chains, kinds, patch) -> None:
    for chain, kind in zip(chains, kinds):
        chain.apply_patch(patch, graph=None if kind == "own" else chain.graph)


def assert_same_members(ours, theirs) -> None:
    for mine, twin in zip(ours, theirs):
        assert_same_chain(mine, twin)


def advance(stack: ChainStack, theirs) -> None:
    """One stacked ``sample_worlds`` and K stacked ``sweep()``s against
    the members' twins advanced one after the other."""
    worlds = stack.sample_worlds(3, thin=2, burn_in=1)
    expected = [chain.sample_worlds(3, thin=2, burn_in=1) for chain in theirs]
    assert worlds.shape == (len(theirs), 3, theirs[0].graph.num_vars)
    for got, want in zip(worlds, expected):
        assert np.array_equal(got, want)
    assert_same_members(stack.members, theirs)
    for _ in theirs:
        stack.sweep()
        for chain in theirs:
            chain.sweep()
    assert_same_members(stack.members, theirs)
    assert stack.cache is None and stack.state is None  # nothing resident


@contextlib.contextmanager
def checked_stack(**constants):
    """While open, every stacked ``delta_energy_block`` is also evaluated
    member by member — each member's own block on that member's stretch
    of the flat arrays — and must return those floats wherever the
    member's block batches alone; yields ``[stacked, member]`` evaluation
    counts.  ``constants`` are ``repro.graph.compiled`` module constants
    to set meanwhile."""
    real = GibbsCache.delta_energy_block
    seen = [0, 0]

    def checked(self, block, assignment):
        got = real(self, block, assignment)
        if isinstance(self, StackedCache):
            seen[0] += 1
            at = 0
            for k, vars_ in block.parts:
                part, part_state = self.views[k]
                alone = self.compiled.gather_block(vars_)
                if alone.use_batch:
                    want = real(part, alone, part_state)
                    assert np.array_equal(got[at : at + len(vars_)], want)
                    seen[1] += 1
                at += len(vars_)
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GibbsCache, "delta_energy_block", checked)
        for name, value in constants.items():
            patch.setattr(compiled_module, name, value)
        yield seen


@contextlib.contextmanager
def counted_chain_work():
    """While open, count the sweep layer's work in the yielded ``Counter``:
    ``blocks`` evaluated by ``sweep_blocks`` (batched or scalar),
    ``sweeps`` entered through ``GibbsSampler.sweep`` (the span the e2e
    record wraps) and ``stacked_plans`` built."""
    counts = Counter()
    sweep_blocks = gibbs_module.sweep_blocks
    sweep = GibbsSampler.sweep
    build = StackedPlan.__init__

    def counted_blocks(cache, state, blocks, logits):
        counts["blocks"] += len(blocks)
        return sweep_blocks(cache, state, blocks, logits)

    def counted_sweep(self, *args, **kwargs):
        counts["sweeps"] += 1
        return sweep(self, *args, **kwargs)

    def counted_build(self, *args, **kwargs):
        counts["stacked_plans"] += 1
        return build(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gibbs_module, "sweep_blocks", counted_blocks)
        patch.setattr(GibbsSampler, "sweep", counted_sweep)
        patch.setattr(StackedPlan, "__init__", counted_build)
        yield counts


# --------------------------------------------------------------------- #
# Bit identity
# --------------------------------------------------------------------- #


class TestBitIdentity:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        ops=st.lists(
            st.sampled_from(("add", "remove", "evidence", "append", "compact")),
            min_size=1,
            max_size=5,
        ),
        size=st.sampled_from((1, 2, 3, 5)),
        shared=st.booleans(),
        batch_min=st.sampled_from((1, 2, 5, 8)),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_histories(self, seed, ops, size, shared, batch_min):
        """Warm members across appends, retractions, evidence flips and
        threshold compactions; ``random_graph`` draws head-in-body,
        oversized (solo) and duplicated-literal (canonicalized) rules in all
        three semantics; ``batch_min`` puts the small stacked blocks on
        either side of the crossover."""
        rng = np.random.default_rng(seed)
        kinds = KINDS[:size]
        with checked_stack(_BATCH_MIN=batch_min):
            graph = random_graph(rng, _BIG_FACTOR + 8, 30)
            compiled = CompiledFactorGraph(graph)
            ours, theirs = ensembles(compiled, kinds, seed, shared)
            stack = ChainStack(ours)
            advance(stack, theirs)
            for step, op in enumerate(ops):
                if op == "compact":
                    delta, threshold = FactorGraphDelta(), 0.0
                    if not compiled.has_patches:
                        continue
                else:
                    delta, threshold = history_delta(rng, compiled, op, step), 1.0
                patch = compiled.apply_delta(delta, compact_threshold=threshold)
                patch_all(ours, kinds, patch)
                patch_all(theirs, kinds, patch)
                advance(stack, theirs)
                for chain in ours:
                    chain.cache.check_consistency(chain.state)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        size=st.sampled_from((1, 2, 3, 5)),
        shared=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_mixed_case_deltas(self, seed, size, shared):
        """Every kind of term a delta carries on tiny graphs, the batched
        kernel forced on: each stacked evaluation is checked against the
        members' own."""
        base, delta = mixed_case(seed)
        kinds = KINDS[:size]
        with checked_stack(_BATCH_MIN=1):
            compiled = CompiledFactorGraph(base)
            ours, theirs = ensembles(compiled, kinds, seed, shared)
            stack = ChainStack(ours)
            advance(stack, theirs)
            patch = compiled.apply_delta(delta, compact_threshold=1.0)
            patch_all(ours, kinds, patch)
            patch_all(theirs, kinds, patch)
            advance(stack, theirs)

    @pytest.mark.parametrize(
        "semantics", list(Semantics) + [None], ids=lambda s: getattr(s, "value", "mixed")
    )
    def test_head_in_body_on_one_member_only(self, semantics):
        """A key whose block carries ``fseg_self`` in one member and not
        in the other (its head-in-body variables are that member's
        evidence)."""
        checked = 0
        for seed in range(4):
            graph = head_in_body_graph(np.random.default_rng(seed), semantics, 40)
            compiled = CompiledFactorGraph(graph)
            free = CompiledGraphView(compiled, evidence={})
            selfish = {
                int(var)
                for block in compiled.plan(free).blocks
                if block.use_batch and block.fseg_self is not None
                for var in block.fseg_var[block.fseg_self]
            }
            clamped = CompiledGraphView(compiled, evidence=dict.fromkeys(selfish, True))
            sides = [
                [
                    GibbsSampler(member, seed=rng, compiled=compiled)
                    for member in (free, clamped)
                ]
                for rng in (np.random.default_rng(seed), np.random.default_rng(seed))
            ]
            ours, theirs = sides
            assert all(
                b.fseg_self is None for b in ours[1].plan.blocks if b.use_batch
            )
            stack = ChainStack(ours)
            with checked_stack() as seen:
                advance(stack, theirs)
            assert any(b.use_batch and b.fseg_self is not None for b in stack.plan.blocks)
            checked += seen[1]
        assert checked

    def test_stacked_blocks_on_both_sides_of_the_crossover(self):
        """Four pairs: colour classes of four variables — scalar alone,
        batched from two members up.  A rule over ``_BIG_FACTOR`` makes
        its variables scan alone: a stack of two such blocks is still
        scalar, a stack of five batches.  (Its groundings repeat their
        literal: canonical, each names its variable once.)"""
        graph = FactorGraph()
        graph.add_variables(8 + _BIG_FACTOR + 2)
        for pair in range(4):
            wid = graph.weights.intern(("pair", pair), initial=0.4 * (pair + 1))
            graph.add_ising_factor(wid, 2 * pair, 2 * pair + 1)
        big = graph.weights.intern("big", initial=0.3)
        body = range(8, 8 + _BIG_FACTOR + 1)
        graph.add_rule_factor(
            big,
            8 + _BIG_FACTOR + 1,
            [((v, True), (v, True)) for v in body],
            Semantics.RATIO,
        )
        for size in (2, 5):
            compiled = CompiledFactorGraph(graph)
            kinds = ("free",) * size
            ours, theirs = ensembles(compiled, kinds, 7, shared=True)
            assert not any(b.use_batch for b in ours[0].plan.blocks)
            stack = ChainStack(ours)
            with checked_stack():
                advance(stack, theirs)
            shapes = {len(b.parts[0][1]): b.use_batch for b in stack.plan.blocks}
            assert shapes[4] is True
            assert shapes[1] is (size >= compiled_module._BATCH_MIN)

    def test_one_member_is_that_member(self):
        graph = random_graph(np.random.default_rng(3), 40, 35)
        ours, theirs = GibbsSampler(graph, seed=3), GibbsSampler(graph, seed=3)
        stack = ChainStack([ours])
        assert np.array_equal(
            stack.sample_worlds(4, thin=2, burn_in=3)[0],
            theirs.sample_worlds(4, thin=2, burn_in=3),
        )
        assert_same_chain(ours, theirs)

    def test_members_of_two_substrates_are_refused(self):
        graph = random_graph(np.random.default_rng(3), 12, 10)
        with pytest.raises(ValueError, match="one compiled substrate"):
            ChainStack([GibbsSampler(graph, seed=0), GibbsSampler(graph, seed=0)])

    def test_convergence_ensemble_is_the_chains_swept_in_turn(self):
        """``sweeps_to_marginal``'s serial ensemble is one stack; its
        result is that of sweeping the chains one after the other."""

        def in_turn(graph, var, target, seed, initial, **kw):
            rng = np.random.default_rng(seed)
            compiled = CompiledFactorGraph(graph)
            chains = [
                GibbsSampler(graph, seed=rng, initial=initial, compiled=compiled)
                for _ in range(kw["num_chains"])
            ]
            hits = 0
            for sweep in range(1, kw["max_sweeps"] + 1):
                for chain in chains:
                    chain.sweep()
                estimate = float(np.mean([chain.state[var] for chain in chains]))
                hits = hits + 1 if abs(estimate - target) <= kw["tol"] else 0
                if hits >= 3:
                    return sweep, True
            return kw["max_sweeps"], False

        for semantics in Semantics:
            graph = voting_graph(6, 6, semantics=semantics)
            initial = np.ones(graph.num_vars, dtype=bool)
            kw = dict(num_chains=24, max_sweeps=120, tol=0.03)
            got = sweeps_to_marginal(graph, 0, 0.5, seed=5, initial=initial, **kw)
            want = in_turn(graph, 0, 0.5, 5, initial, **kw)
            assert (got["sweeps"], got["converged"]) == want


# --------------------------------------------------------------------- #
# The learner
# --------------------------------------------------------------------- #


def learner_pair(seed: int) -> tuple:
    """Two same-seed serial learners over two compilations of one graph
    (each updates its own weight store)."""
    pair = []
    for _ in range(2):
        graph = seed_graph(seed=seed)
        rng = np.random.default_rng(seed)
        for v in range(0, 12, 3):
            graph.set_evidence(v, bool(rng.integers(2)))
        compiled = CompiledFactorGraph(graph)
        pair.append(SGDLearner(graph, seed=seed, compiled=compiled))
    return pair


def assert_same_learner(ours: SGDLearner, theirs: SGDLearner) -> None:
    assert np.array_equal(
        ours.graph.weights.values_array(), theirs.graph.weights.values_array()
    )
    assert_same_chain(ours._conditioned, theirs._conditioned)
    assert_same_chain(ours._free, theirs._free)
    assert ours.rng.bit_generator.state == theirs.rng.bit_generator.state


class TestLearner:
    @pytest.mark.parametrize("seed", range(4))
    def test_fit_equals_the_two_call_epoch_across_patches(self, seed):
        ours, theirs = learner_pair(seed)
        rng = np.random.default_rng(100 + seed)
        for step in range(4):
            norms = ours.fit(3, record_loss=False).grad_norms
            assert norms == [reference.reference_epoch(theirs) for _ in range(3)]
            assert_same_learner(ours, theirs)
            delta = random_delta(ours.graph, rng, step)
            threshold = 1.0 if step % 2 else 0.2
            for learner in (ours, theirs):
                patch = learner._compiled.apply_delta(delta, compact_threshold=threshold)
                learner.apply_patch(patch)
        assert not ours.free_graph.evidence
        assert ours.fit(2, record_loss=False).grad_norms == [
            reference.reference_epoch(theirs) for _ in range(2)
        ]
        assert_same_learner(ours, theirs)

    def test_rolled_back_relearn_then_epoch_equals_never_faulted_twin(self):
        ours, twin = learner_pair(5)
        for learner in (ours, twin):
            learner.fit(2, record_loss=False)
        weights = ours.graph.weights
        snaps = (LearnerSnapshot(ours), RngSnapshot(ours.rng), weights.snapshot_state())
        ours.fit(3, record_loss=False)  # the relearn that is rolled back
        assert snaps[0].restore(verify=True) is ours
        snaps[1].restore()
        weights.restore_state(snaps[2])
        assert ours.epoch() == twin.epoch()
        assert_same_learner(ours, twin)

    @pytest.mark.parametrize("seed", range(4))
    def test_one_pass_gradient_equals_two_passes(self, seed):
        graph = seed_graph(seed=seed)
        w = graph.weights.intern(("repeat", seed), initial=0.2)
        graph.add_rule_factor(
            w, 4, [[(4, True), (8, True)], [(9, False), (9, False)]], Semantics.LOGICAL
        )
        compiled = CompiledFactorGraph(graph)
        # ``9 ∧ 9`` lands as ``9``, on the one rule path.
        assert compiled.materialized_factors()[-1].groundings == (
            ((4, True), (8, True)),
            ((9, False),),
        )
        rng = np.random.default_rng(seed)
        for conditioned, free in ((5, 5), (3, 7), (1, 1)):
            cond = rng.random((conditioned, graph.num_vars)) < 0.5
            free = rng.random((free, graph.num_vars)) < 0.5
            assert np.array_equal(
                weight_gradient(compiled, cond, free, l2=0.01),
                reference.two_pass_gradient(compiled, cond, free, l2=0.01),
            )

    def test_free_twin_has_no_evidence_and_the_same_weights(self):
        graph = seed_graph(seed=2)
        graph.set_evidence(3, True)
        clamped = dict(graph.evidence)
        for source in (graph, CompiledGraphView(CompiledFactorGraph(graph))):
            twin = source.free_twin()
            assert not twin.evidence and twin.evidence_arrays()[0].size == 0
            assert twin.weights is source.weights
            assert twin.num_vars == source.num_vars and source.evidence == clamped
            assert type(twin) is type(source)


# --------------------------------------------------------------------- #
# Derived state
# --------------------------------------------------------------------- #


class TestDerivedState:
    def test_pickles_without_its_plan_and_rebuilds_it(self):
        graph = random_graph(np.random.default_rng(11), 40, 35)
        compiled = CompiledFactorGraph(graph)
        ours, theirs = ensembles(compiled, KINDS[:3], 11, shared=True)
        stack = ChainStack(ours)
        advance(stack, theirs)
        assert stack.plan is not None
        clone = pickle.loads(pickle.dumps(stack))
        assert clone.plan is None and stack.plan is not None
        assert len({id(member.compiled) for member in clone.members}) == 1
        assert len({id(member.rng) for member in clone.members}) == 1
        with counted_chain_work() as counts:
            advance(clone, theirs)
            assert counts["stacked_plans"] == 1
        assert len(pickle.dumps(clone)) - len(pickle.dumps(stack)) in range(-64, 64)

    def test_plan_survives_until_a_patch_moves_a_block(self):
        graph = random_graph(np.random.default_rng(12), 40, 35)
        compiled = CompiledFactorGraph(graph)
        kinds = KINDS[:2]
        ours, theirs = ensembles(compiled, kinds, 12, shared=False)
        stack = ChainStack(ours)
        with counted_chain_work() as counts:
            advance(stack, theirs)
            advance(stack, theirs)
            assert counts["stacked_plans"] == 1
            plan = stack.plan
            # A rollback puts the same block objects back: still covered.
            snap = compiled.snapshot_state()
            rng = np.random.default_rng(0)
            compiled.apply_delta(history_delta(rng, compiled, "add", 0), compact_threshold=1.0)
            compiled.restore_state(snap)
            for chain in (*ours, *theirs):
                chain.plan = compiled.plan(chain.graph)
            advance(stack, theirs)
            assert stack.plan is plan and counts["stacked_plans"] == 1
            patch = compiled.apply_delta(
                history_delta(rng, compiled, "append", 1), compact_threshold=1.0
            )
            patch_all(ours, kinds, patch)
            patch_all(theirs, kinds, patch)
            advance(stack, theirs)
            assert stack.plan is not plan and counts["stacked_plans"] == 2


# --------------------------------------------------------------------- #
# Work counts
# --------------------------------------------------------------------- #


def news_learner(rng) -> tuple:
    """``(learner, grounder, updates)``: a serial learner over the News
    base graph's bound substrate and the development-loop updates that
    patch it."""
    pipeline = build_pipeline(workload_by_name("news"), scale=0.6, seed=0)
    grounder = pipeline.build_base()
    compiled = grounder.compile(compact_threshold=1.0)
    learner = SGDLearner(grounder.graph, seed=rng, compiled=compiled)
    updates = [update for _label, update in pipeline.snapshot_updates() if update]
    return learner, grounder, updates


def assert_epoch_work_counts(learner, grounder, update) -> dict:
    """The work-count contract of a serial learner's epoch, around one
    patch; ``learner.rng`` counts its ``random`` calls.  Returns what it
    counted (the CI step prints it)."""
    stack = learner._chains
    sweeps = learner.samples_per_epoch * learner.sweeps_per_epoch
    with counted_chain_work() as counts:
        learner.fit(1, record_loss=False)
        warm = Counter(counts)
        learner.rng.calls = 0
        learner.fit(3, record_loss=False)
        assert counts["stacked_plans"] == warm["stacked_plans"], "rebuilt with no patch"
        learner.apply_patch(grounder.apply_update(**update).patch)
        before = Counter(counts)
        learner.rng.calls = 0
        learner.fit(1, record_loss=False)
        stacked = len(stack.plan.blocks)
        alone = sum(len(member.plan.blocks) for member in stack.members)
        assert counts["stacked_plans"] - before["stacked_plans"] == 1
        assert counts["sweeps"] - before["sweeps"] == sweeps
        assert counts["blocks"] - before["blocks"] == sweeps * stacked
        assert stacked < alone
        assert learner.rng.calls == len(stack.members)
        learner.fit(2, record_loss=False)
        assert counts["stacked_plans"] - before["stacked_plans"] == 1
    return {
        "sweeps_per_epoch": sweeps,
        "stacked_blocks": stacked,
        "member_blocks": alone,
        "draws_per_epoch": len(stack.members),
    }


class TestWorkCounts:
    def test_news_learner_epoch_after_a_patch(self):
        learner, grounder, updates = news_learner(counting_rng(0))
        for update in updates[:2]:
            counted = assert_epoch_work_counts(learner, grounder, update)
        assert counted["draws_per_epoch"] == 2
