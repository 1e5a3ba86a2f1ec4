"""A delta lands as arrays — and lands exactly where the objects did.

``tests/reference/compiled.py`` keeps the substrate this repository had
while ∆F was a list of factor objects: a record-walking compile, a patch
applied one factor at a time, a compaction decided *after* the patch and
run through the decoded records.  Over random histories — bias,
Ising and rule factors of all three semantics, head-in-body, duplicated
literals (landed canonical), more than ``_BIG_FACTOR`` members, removals
(parallel edges included), appended variables with and without evidence,
evidence set / flipped / cleared, the empty delta — these tests hold the
array paths to it:

* the spliced patch ≡ the per-factor patch, **array for array**;
* every plan block gathers from the arrays the columns the reference
  walks off the per-variable lists it keeps, the colouring read off
  the rows ≡ the reference's neighbour-multiset recolouring, and the
  plans either substrate gives after a patch are the same;
* the build decided before patching ≡ patch-then-compact ≡ a fresh
  compile of ``delta.apply(graph)``, and the same calls compact;
* ``snapshot_state`` → either branch → ``restore_state`` ≡ never touched,
  also for a capture older than the latest;
* the tables built as tables (grounder, ``compose_deltas``, the
  variational splice) ≡ ``lower_factors`` of the records the old code
  built;

and count the work: array appends per ``apply_delta`` do not grow with
|∆|, nothing on the update path decodes a factor record, and a delta
that crosses the threshold runs the build once and the splice never.
"""

from __future__ import annotations

import contextlib
import dataclasses
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.resident import ResidentGraph
from repro.core.variational import VariationalMaterialization
from repro.graph import FactorGraph, FactorGraphDelta
from repro.graph.compiled import (
    _BIG_FACTOR,
    _BLOCK_COLUMNS,
    _GROWABLE_NAMES,
    CompiledFactorGraph,
    GibbsCache,
    _Growable,
)
from repro.graph.delta import FactorList, FactorTable, compose_deltas
from repro.graph.factor_graph import BiasFactor, IsingFactor, RuleFactor
from repro.graph.semantics import Semantics, sem_code
from repro.workloads import ALL_SYSTEMS, build_pipeline

from tests.helpers import chain_ising_graph, counting, decodes, mixed_case
from tests.reference.compiled import ReferenceCompiledFactorGraph
from tests.reference.factors import add_factor, lower_factors
from tests.test_scan_plan import PLAN_ARGS, history_delta, random_graph

# --------------------------------------------------------------------- #
# The whole observable state of a substrate
# --------------------------------------------------------------------- #

_SCALARS = (
    "num_vars",
    "num_rules",
    "num_groundings",
    "num_live_rules",
    "rule_nmax",
    "_patched",
    "_scan_window",
)
#: The build's per-variable offsets (fixed between compactions).
_STATIC = CompiledFactorGraph._SNAP_STATIC
#: A block's gather columns.
_COLUMNS = _BLOCK_COLUMNS


def block_state(block) -> dict:
    """A block's members, key and gather columns."""
    state = {"vars": block.vars.tolist(), "key": block.key}
    for name in _COLUMNS:
        column = getattr(block, name)
        state[name] = None if column is None else column.tolist()
    return state


def plan_state(plan) -> dict:
    return {
        "blocks": [block_state(b) for b in plan.blocks],
        "evidence_mask": plan.evidence_mask.tolist(),
        "free_vars": plan.free_vars.tolist(),
    }


def current_plans(c) -> dict:
    """The plan ``c`` gives now for each evidence of ``PLAN_ARGS``."""
    return {name: c.plan(*args(c)) for name, args in PLAN_ARGS.items()}


def substrate_state(c, handles: bool = True) -> dict:
    """Everything a kernel, a planner, a learner or a later patch reads."""
    state = {name: getattr(c, name).tolist() for name in _GROWABLE_NAMES + _STATIC}
    state.update({name: getattr(c, name) for name in _SCALARS})
    # Per variable, its own block's columns: every live row a kernel
    # reads of it.
    state["columns"] = [
        block_state(b) for b in c.gather_blocks([[v] for v in range(c.num_vars)])
    ]
    if handles:
        state.update(
            fkind=c._fkind.tolist(),
            fh1=c._fh1.tolist(),
            fh2=c._fh2.tolist(),
            weight_factor_counts=c.factor_counts_per_weight().tolist(),
            weights=list(c.weights.items()),
            names=list(c.names),
        )
    # What the recolouring reads: from the rows here, from the neighbour
    # multiset on the reference.
    state["neighbours"] = [
        sorted(found) for found in c._neighbours(np.arange(c.num_vars))
    ]
    state["evidence"] = dict(c.graph.evidence)
    state["free_vars"] = c.free_vars.tolist()
    # Counted as patches land here, scanned from the arrays there.
    state["patch_fraction"] = c.patch_fraction()
    state["plans"] = {
        name: plan_state(plan) for name, plan in current_plans(c).items()
    }
    return state


def canonical(factors) -> list:
    """The factor records as the substrate keeps them: every grounding
    canonical (what ``rule_table`` makes of it)."""
    return lower_factors(factors).factors()


def live(compiled) -> list:
    """A substrate's current factor list, decoded."""
    return compiled._live_table().factors()


def assert_same(left: dict, right: dict, skip=()) -> None:
    assert left.keys() == right.keys()
    for name in left:
        if name not in skip:
            assert left[name] == right[name], name


def patch_state(patch) -> dict:
    state = {
        f.name: getattr(patch, f.name)
        for f in dataclasses.fields(patch)
        if f.name != "ops"
    }
    for name, value in state.items():
        if isinstance(value, np.ndarray):
            state[name] = value.tolist()
    state["evidence_ops"] = sorted(patch.ops["evidence"].items())
    return state


OPS = ("add", "remove", "evidence", "append", "empty")


def delta_for(rng, compiled, op, step) -> FactorGraphDelta:
    if op == "empty":
        return FactorGraphDelta()
    return history_delta(rng, compiled, op, step)


def twins(seed: int, num_vars: int):
    """The same random graph compiled by the package and the reference."""
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, num_vars, 30 if num_vars > 8 else 12)
    new = CompiledFactorGraph(graph.copy())
    ref = ReferenceCompiledFactorGraph(graph.copy())
    return rng, graph, new, ref


histories = given(
    seed=st.integers(min_value=0, max_value=10_000),
    # 40 variables reach the oversized rules; 6 make parallel edges and
    # repeated removals of one variable's factors likely.
    num_vars=st.sampled_from([6, 40]),
    ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=8),
)


# --------------------------------------------------------------------- #
# Compile, patch, build
# --------------------------------------------------------------------- #


class TestArrayPathsEqualTheReference:
    @given(seed=st.integers(0, 10_000), num_vars=st.sampled_from([6, 40]))
    @settings(max_examples=40, deadline=None)
    def test_array_build_equals_the_record_walking_compile(self, seed, num_vars):
        _, graph, new, ref = twins(seed, num_vars)
        assert_same(substrate_state(new), substrate_state(ref))
        assert live(new) == canonical(graph.factors)
        order = np.random.default_rng(seed).permutation(graph.num_factors)
        assert new.factor_table(order).factors() == canonical(
            [graph.factors[i] for i in order]
        )

    @histories
    @settings(max_examples=60, deadline=None)
    def test_spliced_patch_equals_the_per_factor_patch(self, seed, num_vars, ops):
        rng, graph, new, ref = twins(seed, num_vars)
        for step, op in enumerate(ops):
            delta = delta_for(rng, new, op, step)
            graph = delta.apply(graph)
            a = new.apply_delta(delta, compact_threshold=1.0)
            b = ref.apply_delta(pickle.loads(pickle.dumps(delta)), compact_threshold=1.0)
            assert not a.compacted and not b.compacted
            assert_same(patch_state(a), patch_state(b))
            assert_same(substrate_state(new), substrate_state(ref))
            assert live(new) == canonical(graph.factors)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=120, deadline=None)
    def test_mixed_deltas_splice_like_the_reference(self, seed):
        """``mixed_case``: every term kind in one delta, on graphs small
        enough that a variable is touched several ways at once."""
        base, delta = mixed_case(seed)
        new = CompiledFactorGraph(base.copy())
        ref = ReferenceCompiledFactorGraph(base.copy())
        a = new.apply_delta(delta, compact_threshold=1.0)
        b = ref.apply_delta(delta, compact_threshold=1.0)
        assert_same(patch_state(a), patch_state(b))
        assert_same(substrate_state(new), substrate_state(ref))
        assert live(new) == canonical(delta.apply(base).factors)

    @histories
    @settings(max_examples=60, deadline=None)
    def test_build_decided_before_patching_equals_patch_then_compact(
        self, seed, num_vars, ops
    ):
        rng, graph, new, ref = twins(seed, num_vars)
        for step, op in enumerate(ops):
            delta = delta_for(rng, new, op, step)
            graph = delta.apply(graph)
            threshold = (0.0, 0.25, 0.25, 1.0)[int(rng.integers(4))]
            a = new.apply_delta(delta, compact_threshold=threshold)
            b = ref.apply_delta(delta, compact_threshold=threshold)
            # The same calls compact, and leave the same substrate ...
            assert a.compacted == b.compacted
            assert_same(patch_state(a), patch_state(b))
            assert_same(substrate_state(new), substrate_state(ref))
            if a.compacted:
                # ... which is the fresh compile of the oracle graph.
                fresh = CompiledFactorGraph(graph.copy())
                assert_same(substrate_state(new), substrate_state(fresh))

    @histories
    @settings(max_examples=40, deadline=None)
    def test_compact_equals_the_reference_compaction(self, seed, num_vars, ops):
        rng, graph, new, ref = twins(seed, num_vars)
        for step, op in enumerate(ops):
            delta = delta_for(rng, new, op, step)
            new.apply_delta(delta, compact_threshold=None)
            ref.apply_delta(delta, compact_threshold=None)
        new.compact()
        ref.compact()
        assert_same(substrate_state(new), substrate_state(ref))

    def test_removing_one_of_two_parallel_edges(self):
        fg = FactorGraph()
        a, b = fg.add_variable(), fg.add_variable()
        w = fg.weights.intern("w", initial=0.5)
        fg.add_ising_factor(w, a, b)
        fg.add_ising_factor(w, b, a)
        fg.add_rule_factor(w, a, [[(b, True)]], Semantics.RATIO)
        new = CompiledFactorGraph(fg.copy())
        ref = ReferenceCompiledFactorGraph(fg.copy())
        for removed in ({0}, {1}):  # after the first, the rule is factor 1
            delta = FactorGraphDelta(removed_factor_ids=removed)
            new.apply_delta(delta, compact_threshold=1.0)
            ref.apply_delta(delta, compact_threshold=1.0)
            assert_same(substrate_state(new), substrate_state(ref))
        assert new._neighbours(np.array([a]))[0] == {b}


def two_factor_graph() -> FactorGraph:
    graph = FactorGraph()
    graph.add_variables(2)
    wid = graph.weights.intern("w", initial=0.5)
    graph.add_ising_factor(wid, 0, 1)
    graph.add_bias_factor(wid, 1)
    return graph


def graph_state(graph) -> tuple:
    return (
        graph.num_vars,
        dict(graph.evidence),
        list(graph.weights.items()),
        {name: column.tolist() for name, column in graph.factor_table().columns().items()},
    )


def columns_from_lists(ref, vars_) -> dict:
    """The gather columns of a block over ``vars_``, walked member by
    member off the reference's own per-variable lists — the former
    block gather (``_incidence_rows``) — as :func:`block_state` has
    them."""
    vars_ = list(vars_)
    ising_seg, ising_other, ising_wid = [], [], []
    head_seg, head_ri = [], []
    body_seg, body_gg, body_pos, body_ri = [], [], [], []
    fseg_start, fseg_pos, fseg_ri = [], [], []
    for p, v in enumerate(vars_):
        for other, wid in ref.py_ising[v]:
            ising_seg.append(p)
            ising_other.append(other)
            ising_wid.append(wid)
        for ri in ref.py_head[v]:
            head_seg.append(p)
            head_ri.append(ri)
        for ri, lits in ref.py_body[v]:
            fseg_start.append(len(body_gg))
            fseg_pos.append(p)
            fseg_ri.append(ri)
            for gg, pos in lits:
                body_seg.append(p)
                body_gg.append(gg)
                body_pos.append(pos)
                body_ri.append(ri)
    wid, head = ref._rule_wid_l, ref._rule_head_l
    sem = [sem_code(semantics) for semantics in ref._rule_sem_l]
    fseg_self = [head[ri] == vars_[p] for p, ri in zip(fseg_pos, fseg_ri)]
    return {
        "vars": vars_,
        "ising_seg": ising_seg,
        "ising_other": ising_other,
        "ising_wid": ising_wid,
        "head_seg": head_seg,
        "head_ri": head_ri,
        "head_wid": [wid[ri] for ri in head_ri],
        "head_sem": [sem[ri] for ri in head_ri],
        "body_seg": body_seg,
        "body_var": [vars_[p] for p in body_seg],
        "body_gg": body_gg,
        "body_pos": body_pos,
        "body_ri": body_ri,
        "fseg_start": fseg_start,
        "fseg_pos": fseg_pos,
        "fseg_var": [vars_[p] for p in fseg_pos],
        "fseg_ri": fseg_ri,
        "fseg_wid": [wid[ri] for ri in fseg_ri],
        "fseg_sem": [sem[ri] for ri in fseg_ri],
        "fseg_head": [head[ri] for ri in fseg_ri],
        "fseg_self": fseg_self if any(fseg_self) else None,
    }


class TestOneIncidenceRepresentation:
    """The arrays are the substrate's one incidence representation: over
    random histories — Ising and rule inserts and retractions
    (head-in-body, more than ``_BIG_FACTOR`` members), evidence set and
    cleared, appended variables, threshold compactions, snapshot and
    restore — every block of every cached plan gathers, from the arrays,
    the columns the reference walks off the per-variable lists it keeps
    factor by factor, and the colouring read off the rows is the one the
    reference's neighbour multiset gives."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        ops=st.lists(
            st.sampled_from(OPS + ("compact", "rollback")), min_size=1, max_size=8
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_block_columns_equal_the_reference_lists(self, seed, ops):
        rng, _, new, ref = twins(seed, 40)
        self.check(new, ref)
        for step, op in enumerate(ops):
            if op == "rollback":
                snaps = new.snapshot_state(), ref.snapshot_state()
                delta = delta_for(rng, new, "add", step)
                threshold = 0.0 if rng.random() < 0.5 else 1.0
                new.apply_delta(delta, compact_threshold=threshold)
                ref.apply_delta(delta, compact_threshold=threshold)
                new.restore_state(snaps[0])
                ref.restore_state(snaps[1])
            else:
                delta = delta_for(rng, new, "add" if op == "compact" else op, step)
                threshold = 0.0 if op == "compact" else 1.0
                a = new.apply_delta(delta, compact_threshold=threshold)
                b = ref.apply_delta(delta, compact_threshold=threshold)
                assert a.compacted == b.compacted == (op == "compact")
            self.check(new, ref)

    @staticmethod
    def check(new, ref) -> None:
        assert new._color.tolist() == ref._color.tolist()
        for plan in current_plans(new).values():
            for block in plan.blocks:
                want = columns_from_lists(ref, block.vars.tolist())
                got = block_state(block)
                del got["key"]
                assert got == want


class TestRemovedIdsAreChecked:
    """A removed factor id outside ``[0, num_factors)`` is a ``ValueError``
    from every consumer before anything moves.  A negative id used to
    drop the last factor; one past the end vanished in ``delta.apply``
    and surfaced as numpy's ``IndexError`` from ``apply_delta``."""

    @pytest.mark.parametrize("consumer", ["apply", "apply_in_place", "apply_delta"])
    @pytest.mark.parametrize("position", ["-1", "num_factors"])
    def test_out_of_range_ids_raise_before_anything_moves(self, consumer, position):
        graph = two_factor_graph()
        bad = -1 if position == "-1" else graph.num_factors
        delta = FactorGraphDelta(
            num_new_vars=1,
            removed_factor_ids={0, bad},
            evidence_updates={0: True},
            new_weight_entries=[("new", 0.3, False)],
            changed_weight_values={0: 2.0},
        )
        delta.new_factors.add_bias(1, 2)
        compiled = CompiledFactorGraph(graph.copy())
        before = graph_state(graph), substrate_state(compiled), graph_state(compiled.graph)
        message = rf"removed factor id {bad}, outside \[0, 2\)"
        with pytest.raises(ValueError, match=message):
            if consumer == "apply":
                delta.apply(graph)
            elif consumer == "apply_in_place":
                delta.apply_in_place(graph)
            else:
                compiled.apply_delta(delta)
        assert graph.num_factors == compiled.num_factors == 2
        after = graph_state(graph), substrate_state(compiled), graph_state(compiled.graph)
        assert after == before


class TestNewFactorIdsAreChecked:
    """A new factor naming a weight or variable that will not exist is a
    ``ValueError`` from the substrate and from a resident alike, before
    anything moves — the resident's chain and learner included — also
    when every variable it names exists (a bias factor on weight 7 of a
    2-weight graph used to splice in)."""

    @staticmethod
    def bad_delta(what: str) -> FactorGraphDelta:
        delta = FactorGraphDelta(
            num_new_vars=1,
            evidence_updates={0: True},
            new_weight_entries=[("new", 0.3, False)],
            changed_weight_values={0: 2.0},
        )
        delta.new_factors.add_bias(2, 4)  # the new weight, the new variable
        if what == "weight":
            delta.new_factors.add_bias(7, 1)
        else:
            delta.new_factors.add_ising(0, 1, 5)
        return delta

    @pytest.mark.parametrize("what, bad", [("weight", 7), ("variable", 5)])
    def test_the_substrate_raises_before_anything_moves(self, what, bad):
        compiled = CompiledFactorGraph(chain_ising_graph(4))
        before = substrate_state(compiled), graph_state(compiled.graph)
        with pytest.raises(ValueError, match=f"unknown {what} {bad}"):
            compiled.apply_delta(self.bad_delta(what))
        assert (substrate_state(compiled), graph_state(compiled.graph)) == before

    @pytest.mark.parametrize("what", ["weight", "variable"])
    @pytest.mark.parametrize("followers", ["chain", "learner", "chain+learner"])
    def test_a_resident_and_its_followers_raise_before_anything_moves(
        self, what, followers
    ):
        resident = ResidentGraph(chain_ising_graph(4), np.random.default_rng(0))
        chains = []
        if "chain" in followers.split("+"):
            resident.marginals(5, burn_in=2)  # starts the persistent chain
            chains.append(resident.chain)
        if "learner" in followers.split("+"):
            resident.warm_learner(True)
            chains += [resident.learner._conditioned, resident.learner._free]
        chain, learner = resident.chain, resident.learner

        def state():
            return (
                substrate_state(resident.compiled),
                graph_state(resident.graph),
                [
                    (chain.state.tolist(), chain.cache.field.tolist())
                    for chain in chains
                ],
                resident.rng.bit_generator.state,
            )

        graph, before = resident.graph, state()
        with pytest.raises(ValueError, match=f"unknown {what}"):
            resident.apply_delta(self.bad_delta(what))
        assert resident.graph is graph
        assert resident.chain is chain and resident.learner is learner
        assert state() == before


# --------------------------------------------------------------------- #
# Rollback and replay
# --------------------------------------------------------------------- #


class TestRollbackAndReplay:
    @histories
    @settings(max_examples=40, deadline=None)
    def test_snapshot_restore_across_both_branches(self, seed, num_vars, ops):
        rng, graph, new, _ = twins(seed, num_vars)
        new.apply_delta(delta_for(rng, new, "add", -1), compact_threshold=1.0)
        for step, op in enumerate(ops):
            before = substrate_state(new)
            snap = new.snapshot_state()
            threshold = 0.0 if rng.random() < 0.5 else 1.0
            patch = new.apply_delta(
                delta_for(rng, new, op, step), compact_threshold=threshold
            )
            assert patch.compacted == (threshold == 0.0)
            new.restore_state(snap)
            assert_same(substrate_state(new), before)

    @pytest.mark.parametrize("compact", [False, True], ids=["spliced", "compacted"])
    def test_an_older_capture_restores_exactly(self, compact):
        """Capture A, patch, capture B, patch, (compact), restore A: the
        substrate is A's again — variables 10 and 20 hold no edge between
        them, whether or not a compaction came between."""
        compiled = CompiledFactorGraph(chain_ising_graph(40))
        at_a = substrate_state(compiled)
        captures = []
        for i, j in ((0, 5), (10, 20)):
            captures.append(compiled.snapshot_state())
            delta = FactorGraphDelta()
            delta.new_factors.add_ising(0, i, j)
            compiled.apply_delta(delta, compact_threshold=1.0)
        if compact:
            compiled.compact()
        compiled.restore_state(captures[0])
        assert_same(substrate_state(compiled), at_a)
        assert compiled.gather_block([10]).ising_other.tolist() == [9, 11]

    def test_followers_ride_either_branch(self):
        """A warm cache spliced from the array patch ≡ one rebuilt."""
        rng = np.random.default_rng(7)
        new = CompiledFactorGraph(random_graph(rng, 40, 30))
        state = rng.random(new.num_vars) < 0.5
        ev_vars, ev_vals = new.graph.evidence_arrays()
        state[ev_vars] = ev_vals
        cache = GibbsCache(new, state)
        for step, op in enumerate(("add", "remove", "append", "add", "remove")):
            patch = new.apply_delta(
                history_delta(rng, new, op, step), compact_threshold=1.0
            )
            grown = np.concatenate([state, np.zeros(patch.num_new_vars, dtype=bool)])
            cache.apply_patch(patch, grown)
            state = grown
            cache.check_consistency(state)


# --------------------------------------------------------------------- #
# Built as tables ≡ lower(records)
# --------------------------------------------------------------------- #


def assert_same_table(table: FactorTable, factors: list) -> None:
    expected = lower_factors(factors).columns()
    for name, column in table.columns().items():
        assert column.dtype == expected[name].dtype, name
        assert column.tolist() == expected[name].tolist(), name
    assert table.factors() == canonical(factors)


def factors_from_tables(grounder, delta) -> list:
    """The delta's new factors as records built from the grounder's
    grounding tables: per factor, its rule's rows with its head and
    weight, each repeated by its count, in table order."""
    graph, program = grounder.graph, grounder.program
    rules = {rule.name: rule for rule in program.inference_rules}
    factors = []
    table = delta.new_factors.table
    for head, wid in zip(table.rule_head.tolist(), table.rule_wid.tolist()):
        rule = rules[graph.weights.key_for(wid)[0]]
        positives = [
            pos not in rule.negated_positions
            for pos, atom in enumerate(rule.body)
            if atom.pred in program.variable_relations
        ]
        groundings = [
            tuple(zip(lits, positives))
            for (h, w, *lits), count in grounder.grounding_tables[rule.name].counts().items()
            if (h, w) == (head, wid)
            for _ in range(count)
        ]
        factors.append(
            RuleFactor(
                weight_id=wid,
                head=head,
                groundings=tuple(groundings),
                semantics=program.semantics_of(rule),
            )
        )
    return factors


class TestBuiltAsTables:
    @pytest.mark.parametrize("spec", ALL_SYSTEMS[:2], ids=lambda s: s.name)
    def test_grounder_deltas(self, spec, decodes):
        pipeline = build_pipeline(spec, scale=0.2, seed=0)
        grounder = pipeline.build_base()
        compiled = CompiledFactorGraph(grounder.graph.copy())
        for _label, update in pipeline.snapshot_updates():
            delta = grounder.apply_update(**update).delta
            compiled.apply_delta(delta)
            assert not decodes["factors"]
            assert_same_table(
                delta.new_factors.table, factors_from_tables(grounder, delta)
            )
            decodes.clear()
        assert compiled.views_materialized == 0

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=80, deadline=None)
    def test_composed_deltas(self, seed):
        base, first = mixed_case(seed)
        middle = first.apply(base)
        rng = np.random.default_rng(seed + 1)
        second = history_delta(
            rng, CompiledFactorGraph(middle.copy()), ("add", "remove", "append")[seed % 3], 0
        )
        with decodes() as calls:
            composed = compose_deltas(base, first, second)
        assert not calls
        survivors = base.num_factors - len(first.removed_factor_ids)
        dropped = {r - survivors for r in second.removed_factor_ids if r >= survivors}
        assert_same_table(
            composed.new_factors.table,
            [f for i, f in enumerate(first.new_factors) if i not in dropped]
            + list(second.new_factors),
        )
        assert canonical(composed.apply(base).factors) == canonical(
            second.apply(middle).factors
        )

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_variational_splice(self, seed):
        base, delta = mixed_case(seed)
        materialization = VariationalMaterialization(base, seed=0)
        materialization.materialize(num_samples=20)
        weights = materialization.resident.compiled.weights
        twin = weights.copy()
        with decodes() as calls:
            lowered = materialization._lower(base, delta)
        assert not calls
        assert not lowered.removed_factor_ids and not lowered.new_weight_entries
        assert_same_table(
            lowered.new_factors.table, object_splice(base, delta, twin)
        )
        assert list(weights.items()) == list(twin.items())
        assert weights.fixed_mask().tolist() == twin.fixed_mask().tolist()

    def test_appended_rows_land_at_the_next_table_read(self):
        factors = [BiasFactor(0, 1), IsingFactor(0, 0, 1)]
        delta = FactorGraphDelta(new_factors=lower_factors(factors))
        assert isinstance(delta.new_factors, FactorList)
        table = delta.new_factors.table
        assert delta.new_factors.table is table
        delta.new_factors.add_bias(0, 0)
        delta.new_factors.add_rule(0, 1, [[(0, True), (0, True)]], "ratio")
        assert len(delta.new_factors) == 4 and delta.new_factors.table is not table
        grown = delta.new_factors.table
        assert delta.new_factors.table is grown
        assert_same_table(
            grown,
            factors
            + [BiasFactor(0, 0), RuleFactor(0, 1, (((0, True),),), Semantics.RATIO)],
        )
        with pytest.raises(TypeError, match="wraps a FactorTable"):
            FactorGraphDelta(new_factors=factors)

    def test_len_copy_and_pickle_never_decode(self, decodes):
        rows = FactorList(lower_factors([BiasFactor(0, 1), IsingFactor(0, 0, 1)]))
        rows.add_bias(0, 0)
        clone = rows.copy()
        clone.add_ising(0, 1, 0)
        assert len(rows) == 3 and bool(rows) and len(clone) == 4
        restored = pickle.loads(pickle.dumps(rows))
        assert restored.table.columns().keys() and len(restored) == 3
        assert not decodes["factors"]
        assert list(restored) == list(rows) and rows[-1] == BiasFactor(0, 0)
        assert decodes["factors"]


def object_splice(base, delta, weights) -> list:
    """``VariationalMaterialization._lower`` as it was: one
    ``dataclasses.replace`` per factor, interning into ``weights``."""
    old = base.weights
    changed = delta.changed_weight_values
    counter = 0
    factors = []
    for factor in delta.new_factors:
        wid = factor.weight_id
        if wid < len(old):
            key, value, fixed = old.key_for(wid), old.value(wid), old.is_fixed(wid)
        else:
            key, value, fixed = delta.new_weight_entries[wid - len(old)]
        wid = weights.intern(key, initial=changed.get(wid, value), fixed=fixed)
        factors.append(dataclasses.replace(factor, weight_id=wid))
    for fi in sorted(delta.removed_factor_ids):
        factor = list(base.factors)[fi]
        counter += 1
        wid = weights.intern(
            ("spliced-removal", counter), initial=-old.value(factor.weight_id), fixed=True
        )
        factors.append(dataclasses.replace(factor, weight_id=wid))
    for fi, factor in enumerate(base.factors):
        change = changed.get(factor.weight_id)
        if fi in delta.removed_factor_ids or change is None:
            continue
        shift = change - old.value(factor.weight_id)
        if shift != 0.0:
            counter += 1
            wid = weights.intern(("spliced-reweight", counter), initial=shift, fixed=True)
            factors.append(dataclasses.replace(factor, weight_id=wid))
    return factors


# --------------------------------------------------------------------- #
# Work counts
# --------------------------------------------------------------------- #


@pytest.fixture(name="decodes")
def decodes_fixture():
    with decodes() as counts:
        yield counts


@pytest.fixture
def work():
    """Counts of the calls a delta must not multiply."""
    with contextlib.ExitStack() as stack:
        counts = Counter()
        stack.enter_context(counting(_Growable, "append", counts))
        stack.enter_context(counting(FactorTable, "factors", counts))
        for name in ("_build", "_splice"):
            stack.enter_context(counting(CompiledFactorGraph, name, counts))
        yield counts


def bulk_delta(compiled, num_factors: int, seed: int = 0) -> FactorGraphDelta:
    """``num_factors`` factors of every kind over two appended and the
    existing variables."""
    rng = np.random.default_rng(seed)
    delta = FactorGraphDelta(num_new_vars=2)
    delta.new_weight_entries.append((("bulk", seed), 0.3, False))
    wid, total = len(compiled.weights), compiled.num_vars + 2
    for k in range(num_factors):
        a, b, c = (int(v) for v in rng.choice(total, size=3, replace=False))
        add_factor(
            delta.new_factors,
            (
                BiasFactor(wid, a),
                IsingFactor(wid, a, b),
                RuleFactor(wid, a, (((b, True), (c, False)), ((c, True),)), Semantics.RATIO),
                RuleFactor(wid, a, (((a, True), (b, True)),), Semantics.LOGICAL),
            )[k % 4]
        )
    return delta


class TestWorkCounts:
    @pytest.mark.parametrize("num_factors", [8, 200])
    def test_appends_per_patch_do_not_grow_with_the_delta(self, work, num_factors):
        compiled = CompiledFactorGraph(chain_ising_graph(300))
        compiled.plan()
        delta = bulk_delta(compiled, num_factors)
        delta.removed_factor_ids.update({0, 5})
        work.clear()
        patch = compiled.apply_delta(delta, compact_threshold=1.0)
        assert not patch.compacted
        assert 0 < work["append"] <= len(_GROWABLE_NAMES)
        assert work["_splice"] == 1 and not work["_build"]
        assert not work["factors"]
        assert compiled.num_factors == 599 - 2 + num_factors

    def test_a_delta_over_the_threshold_builds_once_and_never_splices(self, work):
        compiled = CompiledFactorGraph(chain_ising_graph(40))
        compiled.plan()
        work.clear()
        patch = compiled.apply_delta(bulk_delta(compiled, 200), compact_threshold=0.25)
        assert patch.compacted and not compiled.has_patches
        assert work["_build"] == 1 and not work["_splice"]
        assert not work["append"] and not work["factors"]
        # ... and one under it splices and never builds.
        work.clear()
        patch = compiled.apply_delta(bulk_delta(compiled, 2, seed=1), compact_threshold=0.25)
        assert not patch.compacted
        assert work["_splice"] == 1 and not work["_build"]

    def test_compaction_never_decodes_a_factor_record(self, work):
        compiled = CompiledFactorGraph(chain_ising_graph(40))
        compiled.apply_delta(bulk_delta(compiled, 30), compact_threshold=None)
        assert compiled.has_patches
        work.clear()
        compiled.compact()
        assert work["_build"] == 1 and not compiled.has_patches
        assert not work["factors"] and compiled.views_materialized == 0

    def test_oversized_rules_are_reached(self):
        """The generator the equivalence tests draw from does produce
        rules over ``_BIG_FACTOR`` variables and groundings that name a
        variable twice (which land canonical)."""
        big = repeated = 0
        for seed in range(30):
            records = []
            graph = random_graph(np.random.default_rng(seed), 40, 30, records=records)
            compiled = CompiledFactorGraph(graph)
            big += int(compiled._force_singleton.any())
            repeated += sum(
                len({var for var, _ in grounding}) < len(grounding)
                for factor in records
                if isinstance(factor, RuleFactor)
                for grounding in factor.groundings
            )
        assert big and repeated and _BIG_FACTOR == 32
