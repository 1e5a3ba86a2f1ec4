"""The colour-class scan plan and the kernels that ride it.

* **Planner property test** — over random histories of factor adds and
  removals, evidence flips, appended variables, compactions, rolled-back
  transactions and pickle round-trips, the plan a chain takes at its
  next sampling call (a chain on the graph's own evidence and one on an
  evidence-free learner twin) is *valid* — its blocks partition the
  free variables exactly and no two members of a block share a live
  factor, judged against the decoded factor table and never against the
  planner's own neighbour index — and *pure*: equal, block for block, to
  a plan built from scratch on the patched substrate.  A rollback puts
  each chain's pre-transaction plan object back.  "Valid" is the
  predicate the id-run planner this one replaced satisfies; that planner
  is kept below as the reference.
* **Recolouring property test** — over random histories that include
  rule adds and Ising factors between two old variables of one colour,
  the colours a patch leaves — recoloured from the delta's own pairs —
  equal bit for bit those of the substrate-walk recolouring
  (``tests/reference/compiled.py::recolor``) of every touched variable,
  and stay a proper colouring of the live factors.
* **Kernel equivalence** — the kernel's and the scalar oracle's
  conditionals ≡ the brute-force energy difference with head-in-body
  rules under every semantics; a block commit ≡ the oracle's sequential
  ``commit_flip``.
* **Exactness** — colour-scan marginals vs ``ExactInference`` on an
  agreement-style graph, within a tolerance derived from the samples.
* **Shape guard** — on the five KBC systems and on a streamed graph the
  blocks partition the free variables and a sweep takes one block
  evaluation per block and at most one commit; patches landed between
  two sampling calls cost a chain one plan build.
"""

from __future__ import annotations

import dataclasses
import pickle
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.compiled as compiled_module
from repro.graph import FactorGraph, FactorGraphDelta, Semantics
from repro.graph.compiled import (
    _BIG_FACTOR,
    CompiledFactorGraph,
    GibbsCache,
    SweepPlan,
)
from repro.graph.factor_graph import BiasFactor, IsingFactor, RuleFactor
from repro.inference.exact import ExactInference
from repro.inference.gibbs import GibbsSampler, logit_rows, sweep_blocks
from repro.kbc.pipeline import KBCPipeline
from repro.reliability.snapshots import SerialSamplerSnapshot
from repro.workloads import ALL_SYSTEMS, build_pipeline, workload_by_name

from tests.helpers import brute_force_delta, counting, scalar_checked
from tests.reference import gibbs as reference_gibbs
from tests.reference.compiled import recolor
from tests.reference.factors import add_factor, lower_factors

SEMANTICS = list(Semantics)


# --------------------------------------------------------------------- #
# Reference planner and the validity predicate
# --------------------------------------------------------------------- #


def id_run_blocks(factors, free_vars) -> list:
    """The planner this PR replaced: walk the free variables in id order,
    extending the current block while the next variable shares no factor
    with any member.  Kept as the reference "valid" is compared with."""
    neighbours = {}
    for factor in factors:
        members = factor.variables()
        for v in members:
            neighbours.setdefault(v, set()).update(members - {v})
    blocks, current, blocked = [], [], set()
    for v in free_vars:
        if v in blocked:
            blocks.append(current)
            current, blocked = [], set()
        current.append(v)
        blocked |= neighbours.get(v, set())
    if current:
        blocks.append(current)
    return blocks


def assert_valid(blocks, factors, free_vars) -> None:
    """Blocks partition ``free_vars`` exactly; no factor has two of its
    variables inside one block."""
    seen = [v for block in blocks for v in block]
    assert sorted(seen) == sorted(free_vars)
    assert len(seen) == len(set(seen))
    block_of = {v: bi for bi, block in enumerate(blocks) for v in block}
    for factor in factors:
        inside = [block_of[v] for v in factor.variables() if v in block_of]
        assert len(inside) == len(set(inside)), (
            f"{factor} has two variables in one block"
        )


def plan_blocks(plan) -> list:
    return [block.vars.tolist() for block in plan.blocks]


def assert_plan_valid_and_pure(compiled, plan) -> None:
    factors = compiled._live_table().factors()
    free = np.flatnonzero(~plan.evidence_mask).tolist()
    assert plan.free_vars.tolist() == free
    assert_valid(plan_blocks(plan), factors, free)
    # The reference planner passes the same predicate on the same graph.
    assert_valid(id_run_blocks(factors, free), factors, free)
    fresh = SweepPlan(compiled, plan.evidence_mask, plan.window)
    assert plan_blocks(plan) == plan_blocks(fresh)
    assert [b.key for b in plan.blocks] == [b.key for b in fresh.blocks]


def sweep_and_check(compiled, plan, seed) -> None:
    """A sweep of ``plan`` leaves the caches consistent and moves no
    clamped variable."""
    rng = np.random.default_rng(seed)
    state = rng.random(compiled.num_vars) < 0.5
    before = state.copy()
    cache = GibbsCache(compiled, state)
    for logits in logit_rows(rng, plan.free_vars.size, 2):
        sweep_blocks(cache, state, plan.blocks, logits)
    cache.check_consistency(state)
    clamped = plan.evidence_mask
    assert np.array_equal(state[clamped], before[clamped])


# --------------------------------------------------------------------- #
# Random graphs and histories
# --------------------------------------------------------------------- #


def random_factor(rng, num_vars: int, weight_id: int):
    """One factor over ``num_vars`` variables: bias, Ising, or a rule that
    is plain, head-in-body, duplicated-literal (landed canonical) or
    oversized."""
    kind = int(rng.integers(7))
    if kind == 0:
        return BiasFactor(weight_id=weight_id, var=int(rng.integers(num_vars)))
    if kind == 1 and num_vars >= 2:
        i, j = (int(x) for x in rng.choice(num_vars, size=2, replace=False))
        return IsingFactor(weight_id=weight_id, i=i, j=j)
    head = int(rng.integers(num_vars))
    if kind == 6 and num_vars > _BIG_FACTOR + 2:
        body = rng.choice(num_vars, size=_BIG_FACTOR + 1, replace=False)
        groundings = tuple(((int(v), bool(rng.integers(2))),) for v in body)
    else:
        groundings = []
        for _ in range(int(rng.integers(1, 4))):
            size = min(int(rng.integers(1, 4)), num_vars)
            chosen = rng.choice(num_vars, size=size, replace=False)
            lits = [(int(v), bool(rng.integers(2))) for v in chosen]
            if kind == 4 and head not in chosen:
                lits.append((head, bool(rng.integers(2))))  # head in body
            if kind == 5:
                lits.append((lits[0][0], bool(rng.integers(2))))  # duplicated
            groundings.append(tuple(lits))
        groundings = tuple(groundings)
    semantics = SEMANTICS[int(rng.integers(3))]
    return RuleFactor(
        weight_id=weight_id, head=head, groundings=groundings, semantics=semantics
    )


def random_graph(
    rng, num_vars: int, num_factors: int, evidence: int = 3, records=None
) -> FactorGraph:
    """A random graph built through ``add_*_factor``; the raw records
    drawn for it are appended to ``records`` when given."""
    fg = FactorGraph()
    fg.add_variables(num_vars)
    for k in range(num_factors):
        wid = fg.weights.intern(("w", k), initial=float(rng.normal(0, 0.6)))
        factor = random_factor(rng, num_vars, wid)
        if records is not None:
            records.append(factor)
        if isinstance(factor, BiasFactor):
            fg.add_bias_factor(wid, factor.var)
        elif isinstance(factor, IsingFactor):
            fg.add_ising_factor(wid, factor.i, factor.j)
        else:
            fg.add_rule_factor(wid, factor.head, factor.groundings, factor.semantics)
    for var in rng.choice(num_vars, size=min(evidence, num_vars), replace=False):
        fg.set_evidence(int(var), bool(rng.integers(2)))
    return fg


def history_delta(rng, compiled, op: str, step: int) -> FactorGraphDelta:
    delta = FactorGraphDelta()
    n = compiled.num_vars
    if op == "append":
        delta.num_new_vars = int(rng.integers(1, 4))
        if rng.random() < 0.5:
            delta.new_var_evidence[0] = bool(rng.integers(2))
    total = n + delta.num_new_vars
    if op in ("add", "append"):
        wid = len(compiled.weights)
        delta.new_weight_entries.append(
            ((f"h{step}",), float(rng.normal(0, 0.6)), False)
        )
        for _ in range(int(rng.integers(1, 4))):
            add_factor(delta.new_factors, random_factor(rng, total, wid))
        if op == "append":
            # Tie the first new variable to an old one.
            delta.new_factors.add_ising(wid, n, int(rng.integers(n)))
    elif op == "remove" and compiled.num_factors:
        count = min(int(rng.integers(1, 4)), compiled.num_factors)
        delta.removed_factor_ids.update(
            int(f) for f in rng.choice(compiled.num_factors, size=count, replace=False)
        )
    elif op == "evidence":
        for var in rng.choice(n, size=min(2, n), replace=False):
            delta.evidence_updates[int(var)] = (
                None if rng.random() < 0.4 else bool(rng.integers(2))
            )
    return delta


def free_twin(compiled):
    """The evidence-free twin an SGD learner's free chain plans with."""
    return compiled.graph.free_twin()


#: ``CompiledFactorGraph.plan`` arguments for a chain of each evidence.
PLAN_ARGS = {
    "own": lambda compiled: (None,),
    "free": lambda compiled: (free_twin(compiled),),
}


def follower_chains(compiled, seed) -> dict:
    """A chain on the graph's own evidence and one on its free twin (an
    SGD learner's pair) over ``compiled``."""
    return {
        "own": GibbsSampler(compiled.graph, seed=seed, compiled=compiled),
        "free": GibbsSampler(free_twin(compiled), seed=seed, compiled=compiled),
    }


def follow(chains, compiled, patch) -> None:
    """Carry the chains across ``patch``, as an SGD learner carries its pair."""
    chains["own"].apply_patch(patch)
    chains["free"].apply_patch(patch, graph=free_twin(compiled))


def sweep_each(chains) -> None:
    """One sweep of every chain: each takes its plan here if a patch
    landed since it last did."""
    for chain in chains.values():
        chain.sweep()


OPS = ("add", "remove", "evidence", "append", "compact", "rollback", "pickle")


class TestPlannerProperties:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=10),
        narrow=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_the_plan_a_chain_takes_after_any_history_is_valid_and_pure(
        self, seed, ops, narrow
    ):
        # A 40-variable graph fits one default window; ``narrow`` windows
        # hold one id per colour, so the plans span many of them.
        cap = 1 if narrow else compiled_module._CHUNK_CAP
        with mock.patch.object(compiled_module, "_CHUNK_CAP", cap):
            self.check_history(seed, ops)

    def check_history(self, seed, ops):
        rng = np.random.default_rng(seed)
        compiled = CompiledFactorGraph(random_graph(rng, 40, 30))
        chains = follower_chains(compiled, seed)
        for step, op in enumerate(ops):
            if op == "pickle":
                before = {name: plan_blocks(chain.plan) for name, chain in chains.items()}
                compiled, chains = pickle.loads(pickle.dumps((compiled, chains)))
                assert {
                    name: plan_blocks(chain.plan) for name, chain in chains.items()
                } == before
            elif op == "rollback":
                snap = compiled.snapshot_state()
                captures = {name: SerialSamplerSnapshot(c) for name, c in chains.items()}
                before = {name: chain.plan for name, chain in chains.items()}
                for sub, kind in enumerate(("append", "add", "evidence", "remove")):
                    patch = compiled.apply_delta(
                        history_delta(rng, compiled, kind, 100 * step + sub),
                        # The last one compacts: rollback must cross it.
                        compact_threshold=0.0 if sub == 3 else 1.0,
                    )
                    follow(chains, compiled, patch)
                    if sub == 1:
                        sweep_each(chains)  # plans taken inside the transaction
                compiled.restore_state(snap)
                for capture in captures.values():
                    capture.restore(verify=True)
                for name, chain in chains.items():
                    assert chain.plan is before[name] and not chain._replan
            else:
                kind = "add" if op == "compact" else op
                patch = compiled.apply_delta(
                    history_delta(rng, compiled, kind, step),
                    compact_threshold=0.0 if op == "compact" else 1.0,
                )
                assert patch.compacted == (op == "compact")
                follow(chains, compiled, patch)
            sweep_each(chains)
            assert (compiled._color >= 0).all()
            for name, chain in chains.items():
                assert_plan_valid_and_pure(compiled, chain.plan)
                if op not in ("rollback", "pickle"):
                    # Taken after a patch: the one the substrate gives
                    # every chain of this evidence.
                    assert compiled.plan(*PLAN_ARGS[name](compiled)) is chain.plan
                sweep_and_check(compiled, chain.plan, seed + step)

    def test_scan_order_is_colour_within_window_then_solo(self):
        fg = FactorGraph()
        fg.add_variables(10 + _BIG_FACTOR + 1)
        w = fg.weights.intern("w", initial=0.3)
        for i in range(9):
            fg.add_ising_factor(w, i, i + 1)
        # Variable 10 and every later one sit under one oversized rule: solo.
        big = range(11, fg.num_vars)
        fg.add_rule_factor(w, 10, [[(v, True)] for v in big], Semantics.LINEAR)
        compiled = CompiledFactorGraph(fg)
        assert compiled._color.tolist()[:10] == [0, 1] * 5
        solo = [[v] for v in range(10, fg.num_vars)]
        plan = SweepPlan(compiled, fg.evidence_mask(), 4)
        assert plan_blocks(plan) == [
            [0, 2], [1, 3], [4, 6], [5, 7], [8], [9], *solo,
        ]
        assert plan_blocks(compiled.plan()) == [
            [0, 2, 4, 6, 8], [1, 3, 5, 7, 9], *solo,
        ]

    def test_evidence_masks_classes_without_recolouring(self):
        compiled = CompiledFactorGraph(random_graph(np.random.default_rng(3), 30, 25))
        compiled.plan()
        colours = compiled._color.copy()
        delta = FactorGraphDelta(evidence_updates={4: True, 9: False})
        compiled.apply_delta(delta, compact_threshold=1.0)
        assert np.array_equal(compiled._color, colours)
        assert not {4, 9} & set(compiled.plan().free_vars.tolist())


def assert_proper(compiled) -> None:
    """No two variables of one live factor of at most ``_BIG_FACTOR``
    variables share a colour — judged against the decoded factor table."""
    colour = compiled._color.tolist()
    assert min(colour, default=0) >= 0
    for factor in compiled.graph.factor_table().factors():
        members = sorted(factor.variables())
        if len(members) > _BIG_FACTOR:
            continue
        colours = [colour[v] for v in members]
        assert len(set(colours)) == len(colours), (factor, colours)


def clash_delta(rng, compiled, step: int) -> tuple:
    """A rule or an Ising factor between two old variables of one colour,
    and the pair — ``(None, None)`` when every colour class is a single
    variable."""
    colour = compiled._color
    classes = [
        np.flatnonzero(colour == c) for c in range(int(colour.max()) + 1)
    ]
    classes = [members for members in classes if members.size >= 2]
    if not classes:
        return None, None
    members = classes[int(rng.integers(len(classes)))]
    a, b = (int(v) for v in rng.choice(members, size=2, replace=False))
    delta = FactorGraphDelta()
    wid = len(compiled.weights)
    delta.new_weight_entries.append(((f"c{step}",), float(rng.normal(0, 0.6)), False))
    if rng.random() < 0.5:
        delta.new_factors.add_ising(wid, a, b)
    else:
        body = [(b, bool(rng.integers(2)))]
        other = int(rng.integers(compiled.num_vars))
        if other not in (a, b) and rng.random() < 0.5:
            body.append((other, True))
        delta.new_factors.add_rule(wid, a, [body], SEMANTICS[int(rng.integers(3))])
    return delta, (a, b)


#: ``clash`` twice: most histories must make old variables clash.
RECOLOUR_OPS = (
    "clash",
    "clash",
    "add",
    "append",
    "remove",
    "evidence",
    "compact",
    "rollback",
    "pickle",
)


class TestRecolouringFromTheDelta:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        ops=st.lists(st.sampled_from(RECOLOUR_OPS), min_size=1, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_colours_equal_the_substrate_walk_after_any_history(self, seed, ops):
        rng = np.random.default_rng(seed)
        compiled = CompiledFactorGraph(random_graph(rng, 40, 30))
        for step, op in enumerate(ops):
            if op == "pickle":
                colours = compiled._color.tolist()
                compiled = pickle.loads(pickle.dumps(compiled))
                assert compiled._color.tolist() == colours
            elif op == "rollback":
                colours = compiled._color.tolist()
                snap = compiled.snapshot_state()
                for sub, kind in enumerate(("append", "clash", "remove")):
                    self.patch_and_check(compiled, rng, kind, 100 * step + sub)
                compiled.restore_state(snap)
                assert compiled._color.tolist() == colours
            else:
                self.patch_and_check(compiled, rng, op, step)
            assert_proper(compiled)

    @staticmethod
    def patch_and_check(compiled, rng, op, step) -> None:
        if op == "clash":
            delta, pair = clash_delta(rng, compiled, step)
            if delta is None:
                return
        else:
            delta = history_delta(rng, compiled, "add" if op == "compact" else op, step)
        before = compiled._color.copy()
        patch = compiled.apply_delta(
            delta, compact_threshold=0.0 if op == "compact" else 1.0
        )
        assert patch.compacted == (op == "compact")
        if patch.compacted:
            return
        # The oracle: the pre-patch colours, −1 for the appended
        # variables, recoloured by walking every touched variable's
        # neighbours on the patched substrate.
        expected = np.concatenate(
            [before, np.full(patch.num_new_vars, -1, dtype=np.int32)]
        )
        touched = np.union1d(
            patch.dirty_vars, np.arange(patch.old_num_vars, compiled.num_vars)
        )
        recolor(expected, compiled._neighbours, touched)
        assert compiled._color.tolist() == expected.tolist()
        if op == "clash":
            # The pair clashed before the patch, and no longer does.
            a, b = pair
            assert before[a] == before[b] and compiled._color[a] != compiled._color[b]


# --------------------------------------------------------------------- #
# Kernel equivalence
# --------------------------------------------------------------------- #


def head_in_body_graph(rng, semantics, num_vars: int = 14) -> FactorGraph:
    """Every rule's head also sits in some of its groundings; no literal
    is duplicated.  ``semantics`` of ``None`` mixes all three."""
    fg = FactorGraph()
    fg.add_variables(num_vars)
    for k in range(num_vars):
        head = int(rng.integers(num_vars))
        groundings = []
        for gi in range(int(rng.integers(2, 5))):
            others = [v for v in rng.choice(num_vars, size=3, replace=False) if v != head]
            lits = [(int(v), bool(rng.integers(2))) for v in others[: int(rng.integers(1, 3))]]
            if gi % 2 == 0:
                lits.append((head, bool(rng.integers(2))))
            groundings.append(lits)
        wid = fg.weights.intern(("r", k), initial=float(rng.normal(0, 0.8)))
        fg.add_rule_factor(
            wid, head, groundings, semantics or SEMANTICS[k % 3]
        )
        fg.add_bias_factor(
            fg.weights.intern(("b", k), initial=float(rng.normal(0, 0.4))), k
        )
    for i in range(num_vars - 1):
        if rng.random() < 0.3:
            fg.add_ising_factor(
                fg.weights.intern(("i", i), initial=float(rng.normal(0, 0.4))), i, i + 1
            )
    return fg


@pytest.mark.parametrize("semantics", SEMANTICS + [None], ids=lambda s: getattr(s, "value", "mixed"))
class TestKernelsMatchBruteForce:
    def test_scalar_oracle_and_kernel_conditionals(self, semantics):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            fg = head_in_body_graph(rng, semantics)
            compiled = CompiledFactorGraph(fg)
            assert (np.unique(compiled.rule_sem).size > 1) == (semantics is None)
            x = rng.random(fg.num_vars) < 0.5
            cache = GibbsCache(compiled, x)
            expected = [brute_force_delta(fg, x, v) for v in range(fg.num_vars)]
            lists = reference_gibbs.IncidenceLists(compiled)
            scalar = [
                reference_gibbs.delta_energy(cache, lists, v, x)
                for v in range(fg.num_vars)
            ]
            assert scalar == pytest.approx(expected, abs=1e-12)
            block = compiled.gather_block(np.arange(fg.num_vars))
            assert block.fseg_self is not None
            assert cache.delta_energy_block(block, x) == pytest.approx(
                expected, abs=1e-12
            )

    def test_block_commit_equals_sequential_flips(self, semantics):
        for seed in range(4):
            rng = np.random.default_rng(100 + seed)
            fg = head_in_body_graph(rng, semantics, num_vars=30)
            compiled = CompiledFactorGraph(fg)
            for patched in (False, True):
                if patched:
                    wid = len(compiled.weights)
                    delta = FactorGraphDelta(
                        num_new_vars=2,
                        new_weight_entries=[(("p",), 0.4, False)],
                        new_factors=lower_factors(
                            [
                                IsingFactor(weight_id=wid, i=30, j=3),
                                RuleFactor(
                                    weight_id=wid,
                                    head=31,
                                    groundings=(((31, True), (5, False)), ((7, True),)),
                                    semantics=semantics or Semantics.RATIO,
                                ),
                            ]
                        ),
                        removed_factor_ids={0, 7},
                    )
                    compiled.apply_delta(delta, compact_threshold=1.0)
                    assert compiled.has_patches
                n = compiled.num_vars
                lists = reference_gibbs.IncidenceLists(compiled)
                # One block per colour class: members share no factor.
                for colour in range(int(compiled._color.max()) + 1):
                    block = compiled.gather_block(
                        np.flatnonzero(compiled._color == colour)
                    )
                    x = rng.random(n) < 0.5
                    a_state, b_state = x.copy(), x.copy()
                    a, b = GibbsCache(compiled, a_state), GibbsCache(compiled, b_state)
                    new_values = rng.random(block.vars.size) < 0.5
                    a.commit_block(block, new_values, a_state)
                    for v, value in zip(block.vars.tolist(), new_values.tolist()):
                        reference_gibbs.commit_flip(b, lists, v, value, b_state)
                    assert np.array_equal(a_state, b_state)
                    assert np.array_equal(a.unsat, b.unsat)
                    assert np.array_equal(a.nsat, b.nsat)
                    assert np.array_equal(a.field, b.field)
                    a.check_consistency(a_state)


# --------------------------------------------------------------------- #
# Exactness
# --------------------------------------------------------------------- #


def agreement_graph() -> FactorGraph:
    """Pharma's I1 in miniature: within each group of mentions sharing an
    entity pair, every mention votes for every mention — itself included
    (the rule has no m ≠ m′ guard), so each factor's head is in its own
    body."""
    rng = np.random.default_rng(5)
    fg = FactorGraph()
    groups = [list(fg.add_variables(4)), list(fg.add_variables(3)), list(fg.add_variables(4))]
    w_agree = fg.weights.intern("agree", initial=0.35)
    for group in groups:
        for head in group:
            fg.add_rule_factor(
                w_agree, head, [[(m, True)] for m in group], Semantics.RATIO
            )
    for var in range(fg.num_vars):
        fg.add_bias_factor(
            fg.weights.intern(("bias", var), initial=float(rng.normal(0, 0.5))), var
        )
    fg.add_ising_factor(fg.weights.intern("link", initial=-0.3), 3, 4)
    fg.set_evidence(8, True)
    return fg


@pytest.mark.parametrize("cap", [None, 1], ids=["classes", "narrow"])
def test_colour_scan_marginals_match_exact_inference(cap, monkeypatch):
    # Exact inference caps the graph at a dozen variables: one window
    # holds whole colour classes, or — one id per colour per window —
    # blocks of one or two variables.
    if cap is not None:
        monkeypatch.setattr(compiled_module, "_CHUNK_CAP", cap)
    fg = agreement_graph()
    exact = ExactInference(fg).marginals()
    sampler = GibbsSampler(fg, seed=12)
    sizes = [b.vars.size for b in sampler.plan.blocks]
    assert max(sizes) > 2 if cap is None else min(sizes) == 1
    with scalar_checked() as shapes:
        sampler.run(5)
    assert shapes["self"] and bool(shapes["one"]) == (cap is not None)
    # Cliques of 4 need 4 colours: the scan is genuinely multi-class.
    assert sampler.plan.num_blocks >= 4
    num_batches, per_batch = 40, 250
    worlds = sampler.sample_worlds(num_batches * per_batch, burn_in=100)
    estimate = worlds.mean(axis=0)
    # Batch-means standard error: autocorrelation is measured, not
    # assumed.  z is the two-sided normal quantile at a 1e-4 family-wise
    # miss rate over the free variables.
    batch_means = worlds.reshape(num_batches, per_batch, -1).mean(axis=1)
    stderr = batch_means.std(axis=0, ddof=1) / np.sqrt(num_batches)
    free = sampler.plan.free_vars
    z = NormalDist().inv_cdf(1.0 - 1e-4 / (2 * free.size))
    assert (np.abs(estimate - exact)[free] <= z * stderr[free]).all(), (
        np.abs(estimate - exact)[free] / stderr[free]
    )
    assert stderr[free].max() < 0.01  # the bound above is not vacuous
    assert estimate[8] == 1.0


# --------------------------------------------------------------------- #
# Shape guard
# --------------------------------------------------------------------- #


def full_program_grounder(pipeline: KBCPipeline):
    grounder = pipeline.build_base()
    for _label, update in pipeline.snapshot_updates():
        if update:
            grounder.apply_update(**update)
    return grounder


def assert_one_kernel_shape(compiled, plan) -> None:
    """The blocks partition the free variables, and a sweep takes one
    block evaluation per block and at most one commit."""
    members = np.concatenate([b.vars for b in plan.blocks])
    assert np.array_equal(np.sort(members), plan.free_vars)
    rng = np.random.default_rng(0)
    state = rng.random(compiled.num_vars) < 0.5
    state[plan.evidence_mask] = False
    cache = GibbsCache(compiled, state)
    with counting(GibbsCache, "delta_energy_block") as counts:
        with counting(GibbsCache, "commit_block", counts):
            for logits in logit_rows(rng, plan.free_vars.size, 2):
                sweep_blocks(cache, state, plan.blocks, logits)
    assert counts["delta_energy_block"] == 2 * len(plan.blocks)
    assert counts["commit_block"] <= 2 * len(plan.blocks)


@pytest.mark.parametrize("spec", ALL_SYSTEMS, ids=lambda spec: spec.name)
def test_kbc_systems_sweep_block_by_block(spec):
    grounder = full_program_grounder(build_pipeline(spec, scale=1.0, seed=0))
    compiled = CompiledFactorGraph(grounder.graph)
    assert_one_kernel_shape(compiled, compiled.plan())
    assert_one_kernel_shape(compiled, compiled.plan(free_twin(compiled)))


def test_streamed_graph_keeps_its_block_shape():
    """≥ 30 one-document patches on a substrate, a chain of each evidence
    following them: the plan each takes at its next sampling call keeps
    its shape and equals a from-scratch plan, and two patches landed
    between two sampling calls cost each evidence mask one plan build."""
    spec = workload_by_name("adversarial")
    corpus = build_pipeline(spec, scale=0.5, seed=0).corpus
    num_base = len(corpus.documents) - 32
    assert num_base >= 10
    base = dataclasses.replace(corpus, documents=corpus.documents[:num_base])
    grounder = full_program_grounder(KBCPipeline(base, i1_style=spec.i1_style, seed=0))
    compiled = CompiledFactorGraph(grounder.graph.copy())
    chains = follower_chains(compiled, 0)

    def stream(doc, change: str, **threshold):
        rows = KBCPipeline(
            dataclasses.replace(corpus, documents=(doc,)), i1_style=spec.i1_style
        ).corpus_rows()
        rows.pop("KnownRel")
        delta = grounder.apply_update(**{change: rows}).delta
        return compiled.apply_delta(delta, **threshold)

    for doc in corpus.documents[num_base:]:
        patch = stream(doc, "inserts", compact_threshold=1.0)
        assert not patch.compacted
        follow(chains, compiled, patch)
        sweep_each(chains)
    assert compiled.has_patches
    for chain in chains.values():
        assert_one_kernel_shape(compiled, chain.plan)
        assert_plan_valid_and_pure(compiled, chain.plan)
    # Two patches nobody sweeps between: one build per evidence mask, at
    # the chains' next sampling call.
    held = {name: chain.plan for name, chain in chains.items()}
    for doc in corpus.documents[num_base - 2 : num_base]:
        follow(chains, compiled, stream(doc, "deletes"))
    assert compiled.graph.evidence
    with counting(SweepPlan, "__init__") as builds:
        sweep_each(chains)
    assert builds["__init__"] == len(chains)
    for name, chain in chains.items():
        assert chain.plan is not held[name]
        assert_plan_valid_and_pure(compiled, chain.plan)
