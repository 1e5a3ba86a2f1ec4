"""Gibbs sweep throughput: flat-array kernel vs. the seed implementation.

The paper's end-to-end wins (§2.5, §3.2.3) require inference to be
bounded by graph size, not interpreter overhead.  This benchmark tracks
raw sweep throughput of :class:`~repro.inference.gibbs.GibbsSampler`
on two workload families at three scales each:

* ``pairwise`` — random Ising + bias graphs (the variational output of
  Algorithm 1 and the §3.2.4 synthetic study);
* ``rules``    — head variables with multi-grounding rule factors over a
  shared body pool (the general Eq. 1 shape).

For each (workload, scale) it reports sweeps/sec, variable-updates/sec
and a vars·factors/sec rate, plus the speedup over ``NaiveGibbsSampler``
— a faithful copy of the seed's dict/list kernel kept here as the
reference point.  Results are written to
``benchmark_results/BENCH_inference.json`` via ``_helpers.emit_json`` so
the performance trajectory is tracked; a ``--check`` run asserts and
writes nothing, like every other ``--check`` smoke.

Run: ``PYTHONPATH=src python benchmarks/bench_inference_throughput.py
[--scale tiny|small|medium|large] [--check]``
"""

from __future__ import annotations

import argparse
import math
import time
from collections import Counter

import numpy as np

from repro.graph.factor_graph import FactorGraph
from repro.graph.semantics import Semantics, g_value
from repro.inference.gibbs import GibbsSampler
from repro.util.rng import as_generator

from _helpers import emit_json

# (name, pairwise: (num_vars, mean_degree), rules: num_heads)
SCALES = {
    "tiny": {"pairwise": (200, 8), "rules": 100},
    "small": {"pairwise": (1000, 10), "rules": 400},
    "medium": {"pairwise": (3000, 12), "rules": 1200},
    "large": {"pairwise": (8000, 16), "rules": 3000},
}
#: Scales included per --scale choice (each prefix of this order).
SCALE_ORDER = ["tiny", "small", "medium", "large"]


# --------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------- #


def pairwise_workload(num_vars: int, mean_degree: int, seed: int = 0) -> FactorGraph:
    """Random Ising graph with biases, §3.2.4 style."""
    rng = np.random.default_rng(seed)
    fg = FactorGraph()
    fg.add_variables(num_vars)
    for k in range(num_vars * mean_degree // 2):
        i, j = int(rng.integers(num_vars)), int(rng.integers(num_vars))
        if i == j:
            continue
        wid = fg.weights.intern(("J", k), initial=float(rng.normal(0, 0.3)))
        fg.add_ising_factor(wid, i, j)
    for v in range(num_vars):
        wid = fg.weights.intern(("h", v), initial=float(rng.normal(0, 0.3)))
        fg.add_bias_factor(wid, v)
    return fg


def rule_workload(
    num_heads: int, groundings_per_head: int = 3, literals: int = 3, seed: int = 0
) -> FactorGraph:
    """Rule factors (RATIO semantics) over a shared body-variable pool."""
    rng = np.random.default_rng(seed)
    fg = FactorGraph()
    num_body = num_heads * 2
    heads = fg.add_variables(num_heads)
    bodies = fg.add_variables(num_body)
    bias = fg.weights.intern("bias", initial=0.1)
    for v in range(fg.num_vars):
        fg.add_bias_factor(bias, v)
    for h in heads:
        wid = fg.weights.intern(("rule", h), initial=float(rng.normal(0, 0.5)))
        factor_groundings = []
        for _ in range(groundings_per_head):
            chosen = rng.choice(num_body, size=literals, replace=False)
            factor_groundings.append(
                [(int(bodies[0] + c), bool(rng.integers(2))) for c in chosen]
            )
        fg.add_rule_factor(wid, h, factor_groundings, Semantics.RATIO)
    return fg


# --------------------------------------------------------------------- #
# Reference implementation (the seed's dict/list kernel, verbatim logic)
# --------------------------------------------------------------------- #


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


class _NaiveCompiled:
    def __init__(self, graph: FactorGraph) -> None:
        from repro.graph.factor_graph import BiasFactor, IsingFactor, RuleFactor

        n = graph.num_vars
        self.graph = graph
        self.bias_of = [[] for _ in range(n)]
        self.ising_of = [[] for _ in range(n)]
        self.head_of = [[] for _ in range(n)]
        self.body_of = [[] for _ in range(n)]
        self.rule_factors = {}
        for fi, factor in enumerate(graph.factors):
            if isinstance(factor, BiasFactor):
                self.bias_of[factor.var].append(factor.weight_id)
            elif isinstance(factor, IsingFactor):
                self.ising_of[factor.i].append((factor.j, factor.weight_id))
                self.ising_of[factor.j].append((factor.i, factor.weight_id))
            elif isinstance(factor, RuleFactor):
                self.rule_factors[fi] = factor
                self.head_of[factor.head].append(fi)
                for gi, grounding in enumerate(factor.groundings):
                    for var, pos in grounding:
                        self.body_of[var].append((fi, gi, pos))
        self.free_vars = np.asarray(graph.free_variables(), dtype=np.int64)


class NaiveGibbsSampler:
    """The seed kernel: per-incidence Python loops + ``weights.value``."""

    def __init__(self, graph: FactorGraph, seed=None) -> None:
        self.graph = graph
        self.compiled = _NaiveCompiled(graph)
        self.rng = as_generator(seed)
        self.state = graph.initial_assignment(self.rng)
        self.unsat = {}
        self.nsat = {}
        for fi, factor in self.compiled.rule_factors.items():
            counts, satisfied = [], 0
            for grounding in factor.groundings:
                unsat = sum(
                    1 for var, pos in grounding if bool(self.state[var]) != pos
                )
                counts.append(unsat)
                if unsat == 0:
                    satisfied += 1
            self.unsat[fi] = counts
            self.nsat[fi] = satisfied
        self.sweeps_done = 0

    def delta_energy(self, var: int) -> float:
        compiled = self.compiled
        weights = self.graph.weights
        state = self.state
        current = bool(state[var])
        delta = 0.0
        for wid in compiled.bias_of[var]:
            delta += 2.0 * weights.value(wid)
        for other, wid in compiled.ising_of[var]:
            delta += 2.0 * weights.value(wid) * (1.0 if state[other] else -1.0)
        for fi in compiled.head_of[var]:
            factor = compiled.rule_factors[fi]
            g = g_value(factor.semantics, self.nsat[fi])
            delta += 2.0 * weights.value(factor.weight_id) * g
        per_factor = {}
        for fi, gi, pos in compiled.body_of[var]:
            unsat_others = self.unsat[fi][gi] - (0 if current == pos else 1)
            sat_if_true = pos and unsat_others == 0
            sat_if_false = (not pos) and unsat_others == 0
            sat_now = self.unsat[fi][gi] == 0
            up, down, now = per_factor.get(fi, (0, 0, 0))
            per_factor[fi] = (
                up + (1 if sat_if_true else 0),
                down + (1 if sat_if_false else 0),
                now + (1 if sat_now else 0),
            )
        for fi, (up, down, now) in per_factor.items():
            factor = compiled.rule_factors[fi]
            base = self.nsat[fi] - now
            sign = 1.0 if state[factor.head] else -1.0
            g1 = g_value(factor.semantics, base + up)
            g0 = g_value(factor.semantics, base + down)
            delta += weights.value(factor.weight_id) * sign * (g1 - g0)
        return delta

    def commit_flip(self, var: int, new_value: bool) -> None:
        old_value = bool(self.state[var])
        if old_value == bool(new_value):
            return
        self.state[var] = bool(new_value)
        for fi, gi, pos in self.compiled.body_of[var]:
            if old_value == pos:
                if self.unsat[fi][gi] == 0:
                    self.nsat[fi] -= 1
                self.unsat[fi][gi] += 1
            else:
                self.unsat[fi][gi] -= 1
                if self.unsat[fi][gi] == 0:
                    self.nsat[fi] += 1

    def sweep(self) -> None:
        uniforms = self.rng.random(len(self.compiled.free_vars))
        for u, var in zip(uniforms, self.compiled.free_vars):
            new_value = u < _sigmoid(self.delta_energy(var))
            if new_value != self.state[var]:
                self.commit_flip(var, new_value)
        self.sweeps_done += 1

    def run(self, num_sweeps: int) -> None:
        for _ in range(num_sweeps):
            self.sweep()

    def estimate_marginals(self, num_samples: int, burn_in: int = 0) -> np.ndarray:
        self.run(burn_in)
        totals = np.zeros(self.graph.num_vars)
        for _ in range(num_samples):
            self.sweep()
            totals += self.state
        return totals / num_samples


# --------------------------------------------------------------------- #
# Measurement
# --------------------------------------------------------------------- #


def _time_sweeps(sampler, min_seconds: float = 0.5, max_sweeps: int = 400) -> float:
    """Sweeps per second, measured over >= min_seconds of sampling."""
    sampler.run(2)  # warm caches / JIT-ish numpy paths
    done = 0
    start = time.perf_counter()
    while True:
        sampler.run(5)
        done += 5
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds or done >= max_sweeps:
            return done / elapsed


def measure(workload: str, scale: str, compare_naive: bool = True) -> dict:
    if workload == "pairwise":
        num_vars, degree = SCALES[scale]["pairwise"]
        graph = pairwise_workload(num_vars, degree)
    else:
        graph = rule_workload(SCALES[scale]["rules"])
    fast = GibbsSampler(graph, seed=1)
    fast_rate = _time_sweeps(fast)
    num_free = len(fast.plan.free_vars)
    record = {
        "workload": workload,
        "scale": scale,
        "num_vars": graph.num_vars,
        "num_factors": graph.num_factors,
        "num_blocks": fast.plan.num_blocks,
        **plan_shape(fast),
        "sweeps_per_sec": round(fast_rate, 2),
        "var_updates_per_sec": round(fast_rate * num_free, 1),
        "vars_factors_per_sec": round(
            fast_rate * graph.num_vars * graph.num_factors, 1
        ),
    }
    if compare_naive:
        naive = NaiveGibbsSampler(graph, seed=1)
        naive_rate = _time_sweeps(naive, min_seconds=0.5, max_sweeps=60)
        record["naive_sweeps_per_sec"] = round(naive_rate, 2)
        record["speedup_vs_naive"] = round(fast_rate / naive_rate, 2)
    return record


def plan_shape(sampler) -> dict:
    """One sweep of ``sampler``'s plan, counted: whether its blocks
    partition the free variables, and the fewest / most
    ``delta_energy_block`` and the most ``commit_block`` calls any block
    took."""
    from repro.graph.compiled import GibbsCache

    plan = sampler.plan
    members = np.concatenate([b.vars for b in plan.blocks] + [np.zeros(0, np.int64)])
    calls = {"delta_energy_block": Counter(), "commit_block": Counter()}
    real = {name: getattr(GibbsCache, name) for name in calls}

    def counted(name):
        def wrapper(self, block, *args):
            calls[name][id(block)] += 1
            return real[name](self, block, *args)

        return wrapper

    for name in calls:
        setattr(GibbsCache, name, counted(name))
    try:
        sampler.sweep()
    finally:
        for name, method in real.items():
            setattr(GibbsCache, name, method)
    evaluations = [calls["delta_energy_block"][id(b)] for b in plan.blocks]
    commits = [calls["commit_block"][id(b)] for b in plan.blocks]
    return {
        "blocks_partition_free_vars": bool(
            np.array_equal(np.sort(members), plan.free_vars)
        ),
        "evaluations_per_block": [min(evaluations, default=0), max(evaluations, default=0)],
        "max_commits_per_block": max(commits, default=0),
    }


def assert_shape(name: str, shape: dict) -> None:
    """A sweep visits every free variable through exactly one block
    evaluation per block and at most one commit."""
    if not shape["blocks_partition_free_vars"]:
        raise AssertionError(f"{name}: the blocks do not partition the free variables")
    if shape["evaluations_per_block"] != [1, 1]:
        raise AssertionError(
            f"{name}: block evaluations per sweep {shape['evaluations_per_block']}, "
            "expected exactly one per block"
        )
    if shape["max_commits_per_block"] > 1:
        raise AssertionError(
            f"{name}: a block committed {shape['max_commits_per_block']} times in a sweep"
        )


def full_program_graph(spec):
    """``spec``'s factor graph with all six rules installed."""
    from repro.workloads import build_pipeline

    pipeline = build_pipeline(spec, scale=1.0, seed=0)
    grounder = pipeline.build_base()
    for _label, update in pipeline.snapshot_updates():
        if update:
            grounder.apply_update(**update)
    return grounder.graph


def check_shape(rows) -> dict:
    """A sweep is one block evaluation per block.

    On every measured workload and on the five KBC systems (full six-rule
    program): the blocks partition the free variables, and one sweep
    takes exactly one ``delta_energy_block`` and at most one
    ``commit_block`` per block."""
    from repro.workloads import ALL_SYSTEMS

    shapes = {f"{row['workload']}/{row['scale']}": row for row in rows}
    for spec in ALL_SYSTEMS:
        shapes[spec.name] = plan_shape(GibbsSampler(full_program_graph(spec), seed=0))
    for name, shape in shapes.items():
        assert_shape(name, shape)
    return {
        name: {key: shape[key] for key in ("num_blocks", *SHAPE_KEYS) if key in shape}
        for name, shape in shapes.items()
    }


SHAPE_KEYS = ("blocks_partition_free_vars", "evaluations_per_block", "max_commits_per_block")


class _CountingGenerator(np.random.Generator):
    """A generator that counts its ``random`` calls."""

    calls = 0

    def random(self, *args, **kwargs):
        self.calls += 1
        return super().random(*args, **kwargs)


def check_work_counts() -> dict:
    """The sweep layer's interpreter steps, counted rather than timed.

    On Pharma's full-program graph (the one system whose plan has small
    blocks): a sweep is one block evaluation per block; one
    ``sample_worlds`` / ``materialize`` call draws its uniforms once per
    chunk of ``_DRAW_CHUNK`` doubles, not once per sweep; and a block
    evaluation takes no logarithm (``g`` is a table lookup)."""
    import repro.inference.gibbs as gibbs_module
    from repro.core.sampling import SampleMaterialization
    from repro.graph.compiled import CompiledFactorGraph
    from repro.workloads import workload_by_name

    graph = full_program_graph(workload_by_name("pharma"))
    compiled = CompiledFactorGraph(graph)
    plan = compiled.plan()
    shape = plan_shape(GibbsSampler(graph, seed=0, compiled=compiled))
    assert_shape("Pharma", shape)
    width = plan.free_vars.size

    def chunks(sweeps: int) -> int:
        # A chunk holds whole sweeps.
        return math.ceil(sweeps / max(1, gibbs_module._DRAW_CHUNK // width))

    rng = _CountingGenerator(np.random.PCG64(0))
    sampler = GibbsSampler(graph, seed=rng, compiled=compiled)
    rng.calls = 0
    sampler.sample_worlds(20, thin=2, burn_in=5)
    sample_draws = rng.calls
    if sample_draws > chunks(45):
        raise AssertionError(
            f"sample_worlds(20, thin=2, burn_in=5) drew {sample_draws} times, "
            f"expected ≤ {chunks(45)}"
        )

    calls = []
    real_log1p = np.log1p

    def counted(*args, **kwargs):
        calls.append(1)
        return real_log1p(*args, **kwargs)

    np.log1p = counted
    try:
        for block in plan.blocks:
            sampler.cache.delta_energy_block(block, sampler.state)
    finally:
        np.log1p = real_log1p
    if calls:
        raise AssertionError(
            f"{len(calls)} np.log1p calls inside block evaluations"
        )

    rng = _CountingGenerator(np.random.PCG64(1))
    bundle = SampleMaterialization(graph, seed=rng)
    bundle.materialize(num_samples=400, burn_in=20)
    # One draw is the chain's initial assignment.
    materialize_draws = rng.calls - 1
    if materialize_draws > chunks(420):
        raise AssertionError(
            f"materialize(400) drew {materialize_draws} times, "
            f"expected ≤ {chunks(420)}"
        )
    return {
        "pharma_plan_shape": shape,
        "sample_worlds_draws": sample_draws,
        "materialize_400_draws": materialize_draws,
        "log1p_calls_in_block_evaluation": 0,
    }


def check_agreement(tolerance: float = 0.05) -> dict:
    """Marginals of the flat kernel vs. the seed kernel on a tiny graph."""
    graph = pairwise_workload(60, 6, seed=3)
    fast = GibbsSampler(graph, seed=7).estimate_marginals(3000, burn_in=100)
    naive = NaiveGibbsSampler(graph, seed=7).estimate_marginals(3000, burn_in=100)
    max_diff = float(np.abs(fast - naive).max())
    if max_diff >= tolerance:
        raise AssertionError(
            f"flat kernel marginals diverge from seed kernel: {max_diff:.4f}"
        )
    rule_graph = rule_workload(30, seed=3)
    fast = GibbsSampler(rule_graph, seed=7).estimate_marginals(3000, burn_in=100)
    naive = NaiveGibbsSampler(rule_graph, seed=7).estimate_marginals(
        3000, burn_in=100
    )
    rule_diff = float(np.abs(fast - naive).max())
    if rule_diff >= tolerance:
        raise AssertionError(
            f"flat kernel marginals diverge on rule graph: {rule_diff:.4f}"
        )
    return {"pairwise_max_marginal_diff": max_diff, "rules_max_marginal_diff": rule_diff}


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        choices=SCALE_ORDER,
        default="large",
        help="largest scale to run (runs every scale up to and including it)",
    )
    parser.add_argument(
        "--no-naive",
        action="store_true",
        help="skip the seed-kernel comparison (much faster)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="also assert marginal agreement between the two kernels, that "
        "a sweep is one block evaluation per block, and the sweep layer's work "
        "counts (draws per run, no logarithm per block evaluation)",
    )
    args = parser.parse_args(argv)

    scales = SCALE_ORDER[: SCALE_ORDER.index(args.scale) + 1]
    rows = []
    for workload in ("pairwise", "rules"):
        for scale in scales:
            row = measure(workload, scale, compare_naive=not args.no_naive)
            print(
                f"{workload:9s} {scale:7s} vars={row['num_vars']:6d} "
                f"{row['sweeps_per_sec']:8.1f} sweeps/s"
                + (
                    f"  ({row['speedup_vs_naive']:.2f}x vs seed)"
                    if "speedup_vs_naive" in row
                    else ""
                )
            )
            rows.append(row)
    record = {"experiment": "inference_throughput", "results": rows}
    if args.check:
        record["agreement"] = check_agreement()
        print(f"agreement: {record['agreement']}")
        record["plan_shape"] = check_shape(rows)
        print(f"plan shape: {record['plan_shape']}")
        record["work_counts"] = check_work_counts()
        print(f"work counts: {record['work_counts']}")
        return record
    emit_json("BENCH_inference", record)
    return record


if __name__ == "__main__":
    main()
