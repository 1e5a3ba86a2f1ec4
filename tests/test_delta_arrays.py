"""A delta lands as arrays — and lands exactly where the objects did.

``tests/reference/compiled.py`` keeps the substrate this repository had
while ∆F was a list of factor objects: an object-walking compile, a patch
applied one factor at a time, a compaction decided *after* the patch and
run through ``materialized_factors()``.  Over random histories — bias,
Ising and rule factors of all three semantics, head-in-body, duplicated
literals (landed canonical), more than ``_BIG_FACTOR`` members, removals
(parallel edges included), appended variables with and without evidence,
evidence set / flipped / cleared, the empty delta — these tests hold the
array paths to it:

* the spliced patch ≡ the per-factor patch, **array for array**;
* the build decided before patching ≡ patch-then-compact ≡ a fresh
  compile of ``delta.apply(graph)``, and the same calls compact;
* ``snapshot_state`` → either branch → ``restore_state`` ≡ never touched;
* the tables born lowered (grounder, ``compose_deltas``, the variational
  splice) ≡ ``lower_factors`` of the objects the old code built;

and count the work: array appends per ``apply_delta`` do not grow with
|∆|, nothing on the update path materializes a factor list, and a delta
that crosses the threshold runs the build once and the splice never.
"""

from __future__ import annotations

import dataclasses
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.variational import VariationalMaterialization
from repro.graph import FactorGraph, FactorGraphDelta
from repro.graph.compiled import (
    _BIG_FACTOR,
    _GROWABLE_NAMES,
    _MIRROR_NAMES,
    CompiledFactorGraph,
    GibbsCache,
    _Growable,
)
from repro.graph.delta import (
    FactorList,
    FactorTable,
    compose_deltas,
    lower_factors,
)
from repro.graph.factor_graph import BiasFactor, IsingFactor, RuleFactor
from repro.graph.semantics import Semantics
from repro.workloads import ALL_SYSTEMS, build_pipeline

from tests.helpers import chain_ising_graph, mixed_case
from tests.reference.compiled import ReferenceCompiledFactorGraph
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
    "_csr_num_vars",
    "_scan_window",
)
_LISTS = ("_rule_head_l", "_rule_wid_l", "_rule_sem_l")
#: Per-variable CSR snapshot (fixed between compactions).
_STATIC = tuple(
    name for name in CompiledFactorGraph._SNAP_STATIC if name != "_nbr_idx"
)


def plan_state(plan) -> dict:
    return {
        "blocks": [
            (b.vars.tolist(), b.key, b.use_batch) for b in plan.blocks
        ],
        "evidence_mask": plan.evidence_mask.tolist(),
        "free_vars": plan.free_vars.tolist(),
        "block_of": plan._block_of.tolist(),
    }


def substrate_state(c, handles: bool = True) -> dict:
    """Everything a kernel, a planner, a learner or a later patch reads."""
    state = {name: getattr(c, name).tolist() for name in _GROWABLE_NAMES + _STATIC}
    state.update({name: getattr(c, name) for name in _SCALARS})
    state.update({name: list(getattr(c, name)) for name in _LISTS})
    # A patch mutates a touched variable's mirror rows in place: copy them.
    state.update({name: [list(row) for row in getattr(c, name)] for name in _MIRROR_NAMES})
    if handles:
        state.update(
            fkind=c._fkind.tolist(),
            fh1=c._fh1.tolist(),
            fh2=c._fh2.tolist(),
            weight_factor_counts=c.factor_counts_per_weight().tolist(),
            weights=list(c.weights.items()),
            names=list(c.names),
        )
    # The neighbour multiset: the compile-time rows per variable (their
    # order inside a row is not observable) and the patch on top.
    ptr = c._nbr_indptr.tolist()
    state["nbr_rows"] = [
        sorted(c._nbr_idx[lo:hi].tolist()) for lo, hi in zip(ptr, ptr[1:])
    ]
    state["nbr_patch"] = {
        var: {o: n for o, n in sorted(counts.items()) if n}
        for var, counts in sorted(c._nbr_patch.items())
        if any(counts.values())
    }
    state["neighbours"] = [sorted(c._var_neighbors(v)) for v in range(c.num_vars)]
    state["evidence"] = dict(c.graph.evidence)
    state["free_vars"] = c.free_vars.tolist()
    state["plans"] = {
        tuple(sorted(dict(evidence).items())): plan_state(plan)
        for evidence, plan in c._plan_cache.items()
    }
    return state


def canonical(factors) -> list:
    """The factor objects as the substrate keeps them: every grounding
    canonical (what ``rule_table`` makes of it)."""
    return lower_factors(factors).factors()


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


def cached_plans(compiled) -> None:
    """Ask for every cached plan (so patches keep repairing them)."""
    for args in PLAN_ARGS.values():
        compiled.plan(*args(compiled))


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
    cached_plans(new)
    cached_plans(ref)
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
    def test_array_build_equals_the_object_walking_compile(self, seed, num_vars):
        _, graph, new, ref = twins(seed, num_vars)
        assert_same(substrate_state(new), substrate_state(ref))
        assert new.materialized_factors() == canonical(graph.factors)
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
            assert new.materialized_factors() == canonical(graph.factors)
            cached_plans(new)
            cached_plans(ref)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=120, deadline=None)
    def test_mixed_deltas_splice_like_the_reference(self, seed):
        """``mixed_case``: every term kind in one delta, on graphs small
        enough that a variable is touched several ways at once."""
        base, delta = mixed_case(seed)
        new = CompiledFactorGraph(base.copy())
        ref = ReferenceCompiledFactorGraph(base.copy())
        cached_plans(new)
        cached_plans(ref)
        a = new.apply_delta(delta, compact_threshold=1.0)
        b = ref.apply_delta(delta, compact_threshold=1.0)
        assert_same(patch_state(a), patch_state(b))
        assert_same(substrate_state(new), substrate_state(ref))
        assert new.materialized_factors() == canonical(delta.apply(base).factors)

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
            cached_plans(new)
            cached_plans(ref)

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
        assert new._var_neighbors(a) == {b}


# --------------------------------------------------------------------- #
# Rollback and replay
# --------------------------------------------------------------------- #


class TestRollbackAndReplay:
    @histories
    @settings(max_examples=40, deadline=None)
    def test_snapshot_restore_across_both_branches(self, seed, num_vars, ops):
        rng, graph, new, _ = twins(seed, num_vars)
        new.apply_delta(delta_for(rng, new, "add", -1), compact_threshold=1.0)
        cached_plans(new)
        for step, op in enumerate(ops):
            before = substrate_state(new)
            blocks = {key: list(plan.blocks) for key, plan in new._plan_cache.items()}
            snap = new.snapshot_state()
            threshold = 0.0 if rng.random() < 0.5 else 1.0
            patch = new.apply_delta(
                delta_for(rng, new, op, step), compact_threshold=threshold
            )
            assert patch.compacted == (threshold == 0.0)
            new.restore_state(snap)
            assert_same(substrate_state(new), before)
            for key, plan in new._plan_cache.items():
                assert all(x is y for x, y in zip(plan.blocks, blocks[key]))

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
# Born lowered ≡ lower(objects)
# --------------------------------------------------------------------- #


def assert_same_table(table: FactorTable, factors: list) -> None:
    expected = lower_factors(factors).columns()
    for name, column in table.columns().items():
        assert column.dtype == expected[name].dtype, name
        assert column.tolist() == expected[name].tolist(), name
    assert table.factors() == canonical(factors)


class TestBornLowered:
    @pytest.mark.parametrize("spec", ALL_SYSTEMS[:2], ids=lambda s: s.name)
    def test_grounder_deltas(self, spec):
        pipeline = build_pipeline(spec, scale=0.2, seed=0)
        grounder = pipeline.build_base()
        compiled = grounder.compile()
        for _label, update in pipeline.snapshot_updates():
            delta = grounder.apply_update(**update).delta
            assert not delta.new_factors.materialized
            count = len(delta.new_factors)
            keys = grounder._factor_keys[len(grounder._factor_keys) - count :]
            records = [grounder.records[key] for key in keys]
            assert_same_table(
                delta.new_factors.table,
                [
                    RuleFactor(
                        weight_id=r.weight_id,
                        head=r.head_var,
                        groundings=r.groundings.as_tuple(),
                        semantics=r.semantics,
                    )
                    for r in records
                ],
            )
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
        composed = compose_deltas(base, first, second)
        assert not composed.new_factors.materialized
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
        lowered = materialization._lower(base, delta)
        assert not lowered.new_factors.materialized
        assert not lowered.removed_factor_ids and not lowered.new_weight_entries
        assert_same_table(
            lowered.new_factors.table, object_splice(base, delta, twin)
        )
        assert list(weights.items()) == list(twin.items())
        assert weights.fixed_mask().tolist() == twin.fixed_mask().tolist()

    def test_a_list_of_objects_lowers_on_first_use_and_len_never_does(self):
        factors = [BiasFactor(0, 1), IsingFactor(0, 0, 1)]
        delta = FactorGraphDelta(new_factors=factors)
        assert isinstance(delta.new_factors, FactorList)
        assert delta.new_factors._table is None
        table = delta.new_factors.table
        assert delta.new_factors.table is table
        delta.new_factors.append(BiasFactor(0, 0))
        assert delta.new_factors.table is not table and len(delta.new_factors) == 3
        born = FactorList.from_table(table)
        assert len(born) == 2 and bool(born) and not born.materialized
        assert pickle.loads(pickle.dumps(born)).table.columns().keys()
        assert not born.materialized
        assert list(born) == factors and born.materialized


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
        factor = base.factors[fi]
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


@pytest.fixture
def work(monkeypatch):
    """Counts of the calls a delta must not multiply."""
    counts = Counter()

    def counting(cls, name):
        original = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            counts[name] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counting(_Growable, "append")
    for name in ("materialized_factors", "_build", "_splice"):
        counting(CompiledFactorGraph, name)
    return counts


def bulk_delta(compiled, num_factors: int, seed: int = 0) -> FactorGraphDelta:
    """``num_factors`` factors of every kind over two appended and the
    existing variables."""
    rng = np.random.default_rng(seed)
    delta = FactorGraphDelta(num_new_vars=2)
    delta.new_weight_entries.append((("bulk", seed), 0.3, False))
    wid, total = len(compiled.weights), compiled.num_vars + 2
    for k in range(num_factors):
        a, b, c = (int(v) for v in rng.choice(total, size=3, replace=False))
        delta.new_factors.append(
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
        assert not work["materialized_factors"]
        assert compiled.num_factors == 599 - 2 + num_factors

    def test_a_delta_over_the_threshold_builds_once_and_never_splices(self, work):
        compiled = CompiledFactorGraph(chain_ising_graph(40))
        compiled.plan()
        work.clear()
        patch = compiled.apply_delta(bulk_delta(compiled, 200), compact_threshold=0.25)
        assert patch.compacted and not compiled.has_patches
        assert work["_build"] == 1 and not work["_splice"]
        assert not work["append"] and not work["materialized_factors"]
        # ... and one under it splices and never builds.
        work.clear()
        patch = compiled.apply_delta(bulk_delta(compiled, 2, seed=1), compact_threshold=0.25)
        assert not patch.compacted
        assert work["_splice"] == 1 and not work["_build"]

    def test_compaction_never_materializes_a_factor_list(self, work):
        compiled = CompiledFactorGraph(chain_ising_graph(40))
        compiled.apply_delta(bulk_delta(compiled, 30), compact_threshold=None)
        assert compiled.has_patches
        work.clear()
        compiled.compact()
        assert work["_build"] == 1 and not compiled.has_patches
        assert not work["materialized_factors"] and compiled.views_materialized == 0

    def test_oversized_rules_are_reached(self):
        """The generator the equivalence tests draw from does produce
        rules over ``_BIG_FACTOR`` variables and groundings that name a
        variable twice (which land canonical)."""
        big = repeated = 0
        for seed in range(30):
            graph = random_graph(np.random.default_rng(seed), 40, 30)
            compiled = CompiledFactorGraph(graph)
            big += int(compiled._force_singleton.any())
            repeated += sum(
                len({var for var, _ in grounding}) < len(grounding)
                for factor in graph.factors
                if isinstance(factor, RuleFactor)
                for grounding in factor.groundings
            )
        assert big and repeated and _BIG_FACTOR == 32
