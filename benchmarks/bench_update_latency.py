"""End-to-end update latency: incremental compilation vs recompile.

The paper's central product metric for a deployed KBC system is the cost
of one development-loop update (§1, Fig. 15): it should scale with the
*delta*, not the system.  PR 3 carried the ΔV/ΔF objects of incremental
grounding down into the CSR substrate (``CompiledFactorGraph.apply_delta``
+ warm-started samplers + surviving worker pools); this benchmark tracks
what that buys on the Rerun engine's ``apply_update`` wall-clock:

* ``delta_axis`` — fixed graph size, growing delta size: the *patched*
  path (one long-lived engine) should grow with |Δ|, the *recompile*
  baseline (a fresh engine on ``delta.apply(graph)`` per update) should
  be flat-and-high (it pays O(graph) regardless of |Δ|).
* ``graph_axis`` — fixed delta size, growing graph size: the patched
  path should stay near-flat (sublinear in graph size) while the
  recompile baseline grows with the graph.
* ``graph_layer`` — the graph layer alone, no engine or sampler: raw
  ``CompiledFactorGraph.apply_delta`` (compiled-direct, the default
  path after the FactorGraph middle layer was retired) vs the legacy
  ``delta.apply`` materialized copy, at fixed |Δ| across graph sizes.
  The patched series should be flat in graph size; the materialized
  baseline is linear (it copies every factor per update).

Inference work is pinned to a few sweeps on both paths so the
measurement isolates update *setup* cost (compile + plan + chain
(re)start) — the part this PR makes O(|Δ|) — on top of identical
sampling work.

``--check`` runs the CI smoke contract instead: ground the paper's
spouse program, patch each of three incremental updates' deltas into a
substrate compiled from a copy of the grounded graph (as the engines'
``ResidentGraph`` does), and assert the patched compilation's marginals
agree with a from-scratch compile of the grounder's graph; then drive a
variational-only ``IncrementalEngine`` through three appends and a
retraction and assert that its current graph was compiled once, at
construction, that its approximate substrate was constructed once and
gathered no whole factor list, and that the warm chain's marginals agree
with a freshly compiled sampler over the spliced graph; then relearn an
``IncrementalEngine``, apply three updates and assert that they made
exactly three ``apply_delta`` calls on its substrate, three
``SGDLearner.apply_patch`` calls and no oracle view; then count the
substrate's work per delta (array appends independent of |Δ|, no factor
record decoded or built by patch, build or compaction, a threshold delta
= one build and no splice, no scan plan built and no block gathered by a
patch, one plan built at a chain's first sweep after three patches; the
recolouring reads the delta — no neighbour walk for a one-document
append, one batched walk for a rule add that makes three old variables
clash — and a plan build calls no ``np.isin``).

Run: ``PYTHONPATH=src python benchmarks/bench_update_latency.py
[--scale tiny|small|medium] [--check]``
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.core import EngineConfig, RerunEngine
from repro.graph import FactorGraph, FactorGraphDelta

from _helpers import emit_json

SCALES = {
    "tiny": {"graph_sizes": [200, 400], "fixed_graph": 400, "delta_sizes": [1, 4, 16]},
    "small": {
        "graph_sizes": [500, 1000, 2000],
        "fixed_graph": 2000,
        "delta_sizes": [1, 8, 32, 128],
    },
    "medium": {
        "graph_sizes": [1000, 3000, 9000],
        "fixed_graph": 9000,
        "delta_sizes": [1, 8, 64, 256],
    },
}

#: Sampling work per update — identical on both paths, small enough that
#: setup cost (the thing this benchmark isolates) stays visible.
INFERENCE_SAMPLES = 3
BURN_IN = 2


def build_graph(num_vars: int, seed: int = 0) -> FactorGraph:
    """Random Ising graph with biases (§3.2.4 style)."""
    rng = np.random.default_rng(seed)
    fg = FactorGraph()
    fg.add_variables(num_vars)
    for k in range(num_vars * 2):
        i, j = int(rng.integers(num_vars)), int(rng.integers(num_vars))
        if i == j:
            continue
        wid = fg.weights.intern(("J", k), initial=float(rng.normal(0, 0.3)))
        fg.add_ising_factor(wid, i, j)
    bias = fg.weights.intern("h", initial=0.1)
    for v in range(num_vars):
        fg.add_bias_factor(bias, v)
    return fg


def make_delta(graph: FactorGraph, size: int, rng, step: int) -> FactorGraphDelta:
    """A development-iteration delta touching ~``size`` factors."""
    delta = FactorGraphDelta()
    n = graph.num_vars
    nw = len(graph.weights)
    delta.new_weight_entries.append((("upd", step), float(rng.normal(0, 0.3)), False))
    for _ in range(size):
        i, j = int(rng.integers(n)), int(rng.integers(n))
        if i == j:
            j = (j + 1) % n
        delta.new_factors.add_ising(nw, i, j)
    for _ in range(max(size // 4, 1)):
        delta.removed_factor_ids.add(int(rng.integers(graph.num_factors)))
    delta.evidence_updates[int(rng.integers(n))] = bool(rng.integers(2))
    return delta


def engine_config() -> EngineConfig:
    return EngineConfig(
        inference_samples=INFERENCE_SAMPLES,
        burn_in=BURN_IN,
        seed=0,
    )


def measure_updates(num_vars: int, delta_size: int, path: str, updates: int = 4) -> dict:
    """Median per-update seconds for one configuration.

    ``patched`` updates one long-lived engine.  ``recompile`` is what a
    system without incremental compilation pays per update: materialize
    the updated graph (``delta.apply``), then a fresh engine compiles it
    and starts a fresh chain."""
    graph = build_graph(num_vars)
    engine = RerunEngine(graph, engine_config())
    # Prime: the first update starts the chain on both paths.
    engine.apply_update(FactorGraphDelta())
    rng = np.random.default_rng(7)
    seconds = []
    for step in range(updates):
        if path == "patched":
            delta = make_delta(engine.current_graph, delta_size, rng, step)
            start = time.perf_counter()
            engine.apply_update(delta)
        else:
            delta = make_delta(graph, delta_size, rng, step)
            engine.close()
            start = time.perf_counter()
            graph = delta.apply(graph)
            engine = RerunEngine(graph, engine_config())
            engine.apply_update(FactorGraphDelta())
        seconds.append(time.perf_counter() - start)
    engine.close()
    return {
        "num_vars": num_vars,
        "delta_size": delta_size,
        "path": path,
        "median_seconds": float(np.median(seconds)),
        "min_seconds": float(np.min(seconds)),
    }


def measure_graph_layer(num_vars: int, delta_size: int, updates: int = 6) -> dict:
    """Raw graph-layer update cost, no engine/sampler in the loop.

    The same delta sequence is applied two ways: patched into one
    long-lived compiled substrate (O(|Δ|)) and through the legacy
    ``delta.apply`` materialized-copy path (O(#factors)).  Validation is
    off on the legacy side so the baseline times only the copy+splice.
    """
    from repro.graph.compiled import CompiledFactorGraph

    source = build_graph(num_vars)
    legacy = source.copy()  # detach before the substrate takes ownership
    compiled = CompiledFactorGraph(source)
    rng = np.random.default_rng(11)
    patched_s, materialized_s = [], []
    for step in range(updates):
        delta = make_delta(legacy, delta_size, rng, step)
        start = time.perf_counter()
        compiled.apply_delta(delta, compact_threshold=1.0)
        patched_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        legacy = delta.apply(legacy, validate=False)
        materialized_s.append(time.perf_counter() - start)
    return {
        "num_vars": num_vars,
        "delta_size": delta_size,
        "patched_median_seconds": float(np.median(patched_s)),
        "materialized_median_seconds": float(np.median(materialized_s)),
        # Whole-list gathers during patching — 0 proves the compiled
        # path never reads the factor list whole.
        "views_materialized": compiled.views_materialized,
    }


def run(scale: str) -> dict:
    cfg = SCALES[scale]
    record = {
        "scale": scale,
        "delta_axis": [],
        "graph_axis": [],
        "graph_layer": [],
    }
    for delta_size in cfg["delta_sizes"]:
        for path in ("patched", "recompile"):
            row = measure_updates(cfg["fixed_graph"], delta_size, path)
            record["delta_axis"].append(row)
            print(
                f"delta_axis n={row['num_vars']} |Δ|={delta_size:>4} "
                f"{path:>9}: {row['median_seconds'] * 1e3:8.1f} ms/update"
            )
    fixed_delta = cfg["delta_sizes"][1] if len(cfg["delta_sizes"]) > 1 else 1
    for num_vars in cfg["graph_sizes"]:
        for path in ("patched", "recompile"):
            row = measure_updates(num_vars, fixed_delta, path)
            record["graph_axis"].append(row)
            print(
                f"graph_axis n={num_vars:>6} |Δ|={fixed_delta} "
                f"{path:>9}: {row['median_seconds'] * 1e3:8.1f} ms/update"
            )
    for num_vars in cfg["graph_sizes"]:
        row = measure_graph_layer(num_vars, fixed_delta)
        record["graph_layer"].append(row)
        print(
            f"graph_layer n={num_vars:>6} |Δ|={fixed_delta} "
            f"patched: {row['patched_median_seconds'] * 1e6:8.1f} µs  "
            f"materialized: {row['materialized_median_seconds'] * 1e6:8.1f} µs"
        )
    # Headline: at the largest fixed graph, patched vs recompile latency.
    patched = [r for r in record["delta_axis"] if r["path"] == "patched"]
    recompile = [r for r in record["delta_axis"] if r["path"] == "recompile"]
    record["speedup_at_smallest_delta"] = (
        recompile[0]["median_seconds"] / max(patched[0]["median_seconds"], 1e-9)
    )
    gl = record["graph_layer"]
    record["graph_layer_speedup_at_largest"] = (
        gl[-1]["materialized_median_seconds"]
        / max(gl[-1]["patched_median_seconds"], 1e-9)
    )
    return record


def check() -> None:
    """CI smoke: ground → update ×3 → patched ≡ fresh-compile marginals."""
    import sys

    sys.path.insert(0, ".")
    from tests.test_grounding import spouse_db, spouse_program

    from repro.graph.compiled import CompiledFactorGraph
    from repro.grounding import IncrementalGrounder
    from repro.inference.gibbs import GibbsSampler
    from repro.util.stats import max_marginal_error

    program = spouse_program()
    db = spouse_db(program)
    grounder = IncrementalGrounder.from_scratch(program, db)
    # The substrate takes its graph's weights, names and evidence, so it
    # is compiled from a copy: the grounder keeps splicing its own graph.
    compiled = CompiledFactorGraph(grounder.graph.copy())
    updates = [
        dict(inserts={"PhraseFeature": [("m1", "m2", "his spouse")]}),
        dict(inserts={"PersonCandidate": [("s3", "m5"), ("s3", "m6")]}),
        dict(deletes={"PhraseFeature": [("m3", "m4", "friend of")]}),
    ]
    for update in updates:
        compiled.apply_delta(grounder.apply_update(**update).delta, compact_threshold=1.0)
    assert compiled.num_vars == grounder.graph.num_vars
    # Graph-layer contract: the deltas land straight in the compiled
    # substrate — zero oracle FactorGraph views are built.
    assert compiled.views_materialized == 0, (
        f"update path materialized {compiled.views_materialized} oracle views"
    )
    patched = GibbsSampler(
        compiled.graph, seed=0, compiled=compiled
    ).estimate_marginals(3000, burn_in=50)
    fresh = GibbsSampler(grounder.graph, seed=1).estimate_marginals(
        3000, burn_in=50
    )
    err = max_marginal_error(patched, fresh)
    assert err < 0.06, f"patched vs fresh marginal disagreement: {err:.3f}"
    print(f"incremental smoke ok: ground → update ×3, max marginal err {err:.3f}")


def check_variational() -> None:
    """CI smoke: the variational strategy patches one approximate
    substrate — 3 appends + 1 retraction, one construction, zero oracle
    views, warm-chain marginals ≡ a fresh compile of the spliced graph —
    and the engine's own current graph, with no follower, compiles
    nothing."""
    from collections import Counter

    from repro.core import IncrementalEngine
    from repro.graph.compiled import CompiledFactorGraph
    from repro.inference.gibbs import GibbsSampler
    from repro.util.stats import max_marginal_error

    builds = Counter()
    original_init = CompiledFactorGraph.__init__

    def counting_init(self, graph):
        builds[id(self)] += 1
        original_init(self, graph)

    CompiledFactorGraph.__init__ = counting_init
    try:
        engine = IncrementalEngine(
            build_graph(60),
            EngineConfig(
                materialization_samples=400,
                variational_inference_samples=3000,
                burn_in=50,
                strategies=("variational",),
                seed=0,
            ),
        )
        engine.materialize()
        materialized = len(builds)
        num_weights = len(engine.current_graph.weights)
        deltas = []
        for step in range(3):
            delta = FactorGraphDelta(new_weight_entries=[(("upd", step), 0.6, False)])
            delta.new_factors.add_bias(num_weights + step, step)
            deltas.append(delta)
        deltas.append(FactorGraphDelta(removed_factor_ids={0, 7}))
        for delta in deltas:
            outcome = engine.apply_update(delta)
            assert outcome.strategy == "variational", outcome.strategy
    finally:
        CompiledFactorGraph.__init__ = original_init
    assert builds[id(engine.resident.compiled)] == 1, (
        "the engine's current graph was not compiled once, at construction"
    )
    assert len(builds) == materialized, (
        f"the updates compiled {len(builds) - materialized} substrates"
    )
    substrate = engine.variational.current.compiled
    assert builds[id(substrate)] == 1, (
        f"approximate substrate constructed {builds[id(substrate)]} times"
    )
    assert substrate.views_materialized == 0, (
        f"approximate substrate materialized {substrate.views_materialized} oracle views"
    )
    spliced = FactorGraph.from_compiled(substrate)
    fresh = GibbsSampler(spliced, seed=1).estimate_marginals(3000, burn_in=50)
    err = max_marginal_error(outcome.marginals, fresh)
    assert err < 0.06, f"warm chain vs fresh compile marginal disagreement: {err:.3f}"
    print(
        "variational smoke ok: append ×3 + retract on one substrate, "
        f"the engine's compiled once, max marginal err {err:.3f}"
    )


def check_updates_patch() -> None:
    """CI smoke: after a relearn an ``IncrementalEngine``'s current graph
    has a substrate and a learner but no chain, and each of three updates
    patches the substrate once (``apply_delta``), the learner riding the
    patch (``SGDLearner.apply_patch``), with no oracle view gathered."""
    from repro.core import IncrementalEngine

    graph = build_graph(60)
    for var in range(0, 60, 6):
        graph.set_evidence(var, var % 12 == 0)
    engine = IncrementalEngine(
        graph,
        EngineConfig(
            materialization_samples=200,
            inference_steps=40,
            variational_inference_samples=50,
            burn_in=5,
            seed=0,
        ),
    )
    engine.materialize()
    engine.relearn(2, record_loss=False)
    resident = engine.resident
    calls = {"apply_delta": 0, "apply_patch": 0}
    spied = ((resident.compiled, "apply_delta"), (resident.learner, "apply_patch"))
    for target, name in spied:
        original = getattr(target, name)

        def spy(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        setattr(target, name, spy)
    for step in range(3):
        current = engine.current_graph
        delta = FactorGraphDelta(
            num_new_vars=1,
            new_weight_entries=[(("upd", step), 0.4, False)],
            evidence_updates={6 * step + 1: step % 2 == 0},
        )
        delta.new_factors.add_bias(len(current.weights), current.num_vars)
        delta.new_factors.add_ising(0, step, current.num_vars)
        engine.apply_update(delta)
    assert calls == {"apply_delta": 3, "apply_patch": 3}, (
        f"3 updates after a relearn: {calls}"
    )
    views = resident.compiled.views_materialized
    assert views == 0, f"the updates gathered {views} oracle views"
    print(
        "update smoke ok: 3 updates after a relearn, 3 substrate patches, "
        "3 learner patches, 0 oracle views"
    )


def check_work_counts() -> None:
    """CI smoke, deterministic: what a delta costs the substrate is a
    count of calls, not a time.  Array appends per ``apply_delta`` stay
    within one per growable array whether the delta has 8 factors or 200;
    patch, pre-decided build and ``compact()`` never materialize a factor
    list; a delta over the threshold runs the array build once and the
    splice never; a patch builds no scan plan and gathers no block, and a
    chain's first sweep after three patches builds one plan.  The
    recolouring reads the delta: a one-document append walks no
    neighbour list, a rule add whose new pairs make several old
    variables clash walks them in one batch; and a plan build calls no
    ``np.isin``."""
    import sys
    from collections import Counter

    sys.path.insert(0, ".")
    from tests.test_grounding import spouse_db, spouse_program

    from repro.grounding import IncrementalGrounder

    import repro.graph.compiled as compiled_module
    from repro.graph.compiled import (
        _GROWABLE_NAMES,
        CompiledFactorGraph,
        SweepPlan,
        _Growable,
    )
    from repro.graph.delta import FactorTable
    from repro.graph.factor_graph import BiasFactor, IsingFactor, RuleFactor
    from repro.inference.gibbs import GibbsSampler

    counts = Counter()
    originals = {}

    def counting(owner, name, key=None):
        originals[owner, name] = original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key or name] += 1
            return original(*args, **kwargs)

        setattr(owner, name, wrapper)

    def bulk(compiled, num_factors):
        delta = FactorGraphDelta(num_new_vars=2)
        delta.new_weight_entries.append((("bulk", compiled.num_factors), 0.3, False))
        wid, total = len(compiled.weights), compiled.num_vars + 2
        for k in range(num_factors):
            i, j = k % total, (7 * k + 3) % total
            if k % 2 or i == j:
                delta.new_factors.add_bias(wid, i)
            else:
                delta.new_factors.add_ising(wid, i, j)
        delta.removed_factor_ids.update({0, 5})
        return delta

    counting(_Growable, "append")
    for name in ("_build", "_splice"):
        counting(CompiledFactorGraph, name)
    # Factor records decoded from a table, or built at all.
    counting(FactorTable, "factors")
    for record in (RuleFactor, IsingFactor, BiasFactor):
        counting(record, "__init__")
    counting(SweepPlan, "__init__", "plans")
    counting(compiled_module, "_gather_blocks")
    counting(CompiledFactorGraph, "_neighbours")
    counting(np, "isin")
    try:
        appends = {}
        for num_factors in (8, 200):
            compiled = CompiledFactorGraph(build_graph(400))
            counts.clear()
            patch = compiled.apply_delta(bulk(compiled, num_factors), compact_threshold=1.0)
            assert not patch.compacted and counts["_splice"] == 1 and not counts["_build"]
            appends[num_factors] = counts["append"]
            assert 0 < counts["append"] <= len(_GROWABLE_NAMES), (
                f"{counts['append']} array appends for a {num_factors}-factor delta"
            )
        compiled = CompiledFactorGraph(build_graph(60))
        counts.clear()
        patch = compiled.apply_delta(bulk(compiled, 200), compact_threshold=0.25)
        assert patch.compacted and not compiled.has_patches
        assert counts["_build"] == 1 and not counts["_splice"], (
            f"threshold delta: {counts['_build']} builds, {counts['_splice']} splices"
        )
        compiled.apply_delta(bulk(compiled, 40), compact_threshold=None)
        compiled.compact()
        assert not counts["factors"] and not counts["__init__"], (
            "patch / build / compact decoded or built a factor record"
        )
        assert compiled.views_materialized == 0, "patch / build / compact gathered a view"
        # A chain follows three patches and sweeps after the last: the
        # patches build no plan and gather no block; the sweep builds one.
        compiled = CompiledFactorGraph(build_graph(400))
        chain = GibbsSampler(compiled.graph, seed=0, compiled=compiled)
        for _ in range(3):
            counts.clear()
            patch = compiled.apply_delta(bulk(compiled, 8), compact_threshold=1.0)
            assert not counts["plans"] and not counts["_gather_blocks"], (
                f"a patch built {counts['plans']} plans and gathered "
                f"{counts['_gather_blocks']} times"
            )
            chain.apply_patch(patch)
        counts.clear()
        chain.sweep()
        assert counts["plans"] == 1, f"first sweep after 3 patches: {counts['plans']} plans"
        assert not counts["isin"], f"a plan build called np.isin {counts['isin']} times"

        # Recolouring from the delta.  A one-document append: its new
        # variables' neighbours are its own rows, and it adds no pair
        # between two old variables.
        program = spouse_program()
        grounder = IncrementalGrounder.from_scratch(program, spouse_db(program))
        compiled = CompiledFactorGraph(grounder.graph.copy())
        compiled.plan()
        document = {
            "PersonCandidate": [("s3", "m5"), ("s3", "m6")],
            "PhraseFeature": [("m5", "m6", "and his wife")],
        }
        delta = grounder.apply_update(inserts=document).delta
        counts.clear()
        patch = compiled.apply_delta(delta, compact_threshold=1.0)
        assert patch.num_new_vars and not patch.compacted
        assert not counts["_neighbours"], (
            f"a one-document append walked neighbours {counts['_neighbours']} times"
        )
        # A rule over three old variables of one colour: three clash, one
        # walk reads all their neighbours.
        compiled = CompiledFactorGraph(build_graph(400))
        colour = compiled._color
        head, *body = np.flatnonzero(colour == colour[0])[:3].tolist()
        delta = FactorGraphDelta()
        delta.new_weight_entries.append((("clash",), 0.4, False))
        delta.new_factors.add_rule(
            len(compiled.weights), head, [[(v, True) for v in body]], "linear"
        )
        counts.clear()
        compiled.apply_delta(delta, compact_threshold=1.0)
        assert counts["_neighbours"] == 1, (
            f"3 clashing variables walked neighbours {counts['_neighbours']} times"
        )
        assert len({int(colour[v]) for v in (head, *body)}) == 3
        counts.clear()
        compiled.plan()
        assert not counts["isin"], f"a plan build called np.isin {counts['isin']} times"
    finally:
        for (cls, name), original in originals.items():
            setattr(cls, name, original)
    print(
        f"work-count smoke ok: {appends[8]} / {appends[200]} array appends for an "
        "8- / 200-factor delta, threshold delta = 1 build + 0 splices, "
        "0 factor records decoded or built, 0 plans built and 0 gathers per "
        "patch, 1 plan at a chain's first sweep after 3 patches, 0 neighbour "
        "walks for a one-document append, 1 for a rule add making 3 old "
        "variables clash, 0 np.isin calls per plan build"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="small")
    parser.add_argument(
        "--check",
        action="store_true",
        help="run the incremental-compilation, variational, update-patch and "
        "work-count smoke assertions only",
    )
    args = parser.parse_args()
    if args.check:
        check()
        check_variational()
        check_updates_patch()
        check_work_counts()
        return
    record = run(args.scale)
    emit_json("BENCH_update", record)


if __name__ == "__main__":
    main()
