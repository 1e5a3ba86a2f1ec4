"""Figure 16: convergence of incremental learning strategies (App. B.3).

The F2+S2 update adds new features and new labelled examples; we compare
SGD with warmstart (DeepDive), SGD cold, and full gradient descent with
warmstart, measuring epochs/time until each is within 10% of the optimal
loss.

Expected shape: SGD+Warmstart reaches the 10% band first; cold SGD pays
the restart; GD+Warmstart converges slowest per unit time.

Two experiments live here:

* the original **logistic-regression** reproduction of the figure
  (``test_fig16_incremental_learning`` below, text table);
* a **factor-graph-backed** variant over the persistent patchable
  :class:`~repro.learning.sgd.SGDLearner`: pretrain on a base graph,
  apply an F2+S2-style ``FactorGraphDelta`` (new tied feature weights +
  new labelled variables), then re-learn three ways —

  - ``warm_patched``  — ``CompiledFactorGraph.apply_delta`` +
    ``SGDLearner.apply_patch``: chains, weights and the compiled gradient
    substrate survive (O(|Δ|) setup);
  - ``recompile``     — warm weights but a fresh compilation and fresh
    chains (the setup cost the patch removes);
  - ``cold_restart``  — fresh compilation, fresh chains, zeroed weights
    (the SGD-cold baseline of Fig. 16).

  Each strategy records its pseudo-NLL trajectory and when it enters the
  10%-of-optimal loss band; a separate axis times the compiled gradient
  kernel against the per-factor Python loop.  Results go to
  ``benchmark_results/BENCH_learning.json``.

Run: ``PYTHONPATH=src python benchmarks/bench_fig16_incremental_learning.py
[--scale tiny|small|medium] [--check]``

``--check`` is the CI smoke contract: ground → learn → patch → relearn
and assert the warm patched learner stays at or below the cold restart's
loss band; then the serial epoch's work counts on the News learner
around a patch (run it from the repo root: the counters are
``tests/test_chain_stack.py``'s).
"""

import argparse
import time

import numpy as np
from _helpers import emit, emit_json, once

from repro.graph import BiasFactor, FactorGraph, FactorGraphDelta
from repro.graph.compiled import CompiledFactorGraph
from repro.learning import LogisticRegression, SGDLearner
from repro.learning.gradient import weight_statistics
from repro.util.tables import format_table
from repro.util.rng import as_generator


def _make_task(seed=0, n_old=800, n_new=400, d_old=60, d_new=40):
    """Base training set, then an F2+S2-style update with new features
    and new examples."""
    rng = as_generator(seed)
    d = d_old + d_new
    truth = rng.normal(size=d)
    def draw(n, feature_pool):
        rows, ys = [], []
        for _ in range(n):
            feats = rng.choice(feature_pool, size=6, replace=False).tolist()
            rows.append([int(f) for f in feats])
            ys.append(truth[feats].sum() > 0)
        return rows, np.asarray(ys)

    old_rows, old_y = draw(n_old, np.arange(d_old))
    new_rows, new_y = draw(n_new, np.arange(d))
    all_rows = old_rows + new_rows
    all_y = np.concatenate([old_y, new_y])
    return d, old_rows, old_y, all_rows, all_y


def _experiment() -> str:
    d, old_rows, old_y, all_rows, all_y = _make_task()

    # Proxy for the optimal loss: long GD run (the paper runs 24h).
    optimum = LogisticRegression(d, seed=0)
    optimum.fit_gd(all_rows, all_y, epochs=600, step_size=1.0)
    target = optimum.loss(all_rows, all_y) * 1.10

    def pretrained():
        model = LogisticRegression(d, seed=1)
        model.fit_sgd(old_rows, old_y, epochs=15, step_size=0.3)
        return model

    traces = []
    model = pretrained()
    traces.append(
        model.fit_sgd(
            all_rows, all_y, epochs=40, step_size=0.3,
            strategy_name="SGD+Warmstart",
        )
    )
    model = pretrained()
    traces.append(
        model.fit_sgd(
            all_rows, all_y, epochs=40, step_size=0.3, warmstart=False,
            strategy_name="SGD-Warmstart",
        )
    )
    model = pretrained()
    traces.append(
        model.fit_gd(
            all_rows, all_y, epochs=40, step_size=1.0,
            strategy_name="GD+Warmstart",
        )
    )

    rows = []
    for trace in traces:
        reached = trace.time_to_loss(target)
        rows.append(
            [
                trace.strategy,
                f"{trace.losses[0]:.4f}",
                f"{trace.final_loss():.4f}",
                "never" if reached is None else f"{reached:.3f}",
            ]
        )
    table = format_table(
        ["strategy", "loss @ epoch 1", "final loss", "s to 10% of optimal"],
        rows,
        title="Incremental learning strategies (paper Fig. 16)",
    )
    table += f"\noptimal-loss proxy: {optimum.loss(all_rows, all_y):.4f}"
    return table


def test_fig16_incremental_learning(benchmark):
    emit("fig16_incremental_learning", once(benchmark, _experiment))


# --------------------------------------------------------------------- #
# Factor-graph-backed variant: the persistent patchable SGDLearner
# --------------------------------------------------------------------- #

SCALES = {
    "tiny": {
        "n_old": 120, "n_new": 20, "d_old": 12, "d_new": 6, "feats": 3,
        "pretrain": 25, "epochs": 60, "opt_epochs": 150, "grad_vars": 300,
    },
    "small": {
        "n_old": 600, "n_new": 60, "d_old": 40, "d_new": 15, "feats": 4,
        "pretrain": 40, "epochs": 150, "opt_epochs": 350, "grad_vars": 1500,
    },
    "medium": {
        "n_old": 2000, "n_new": 150, "d_old": 120, "d_new": 40, "feats": 5,
        "pretrain": 60, "epochs": 200, "opt_epochs": 450, "grad_vars": 4000,
    },
}

STEP_SIZE = 0.3
#: L2 strength: creates a genuine finite optimum so the "10% of
#: optimal" band of Fig. 16 is well-defined (without it, quasi-separable
#: labels let the weights and the pseudo-NLL drift forever).
L2 = 0.03
LABEL_FRACTION = 0.9


def build_base_graph(cfg, seed=0):
    """Labelled classification examples as a factor graph: one Boolean
    variable per example, tied bias weights per feature (Ex. 2.6)."""
    rng = np.random.default_rng(seed)
    d_total = cfg["d_old"] + cfg["d_new"]
    truth = rng.normal(size=d_total)
    fg = FactorGraph()
    wids = [fg.weights.intern(("f", k), initial=0.0) for k in range(cfg["d_old"])]
    for _ in range(cfg["n_old"]):
        feats = rng.choice(cfg["d_old"], size=cfg["feats"], replace=False)
        label = bool(truth[feats].sum() > 0)
        evidence = label if rng.random() < LABEL_FRACTION else None
        v = fg.add_variable(evidence=evidence)
        for f in feats:
            fg.add_bias_factor(wids[int(f)], v)
    return fg, truth


def make_update_delta(graph, truth, cfg, seed=42):
    """F2+S2: new tied feature weights + new labelled example variables."""
    rng = np.random.default_rng(seed)
    d_old, d_new = cfg["d_old"], cfg["d_new"]
    d_total = d_old + d_new
    delta = FactorGraphDelta()
    base_w = len(graph.weights)
    for k in range(d_new):
        delta.new_weight_entries.append((("f", d_old + k), 0.0, False))
    delta.num_new_vars = cfg["n_new"]
    for j in range(cfg["n_new"]):
        var = graph.num_vars + j
        feats = rng.choice(d_total, size=cfg["feats"], replace=False)
        label = bool(truth[feats].sum() > 0)
        if rng.random() < LABEL_FRACTION:
            delta.new_var_evidence[j] = label
        for f in feats:
            f = int(f)
            wid = f if f < d_old else base_w + (f - d_old)
            delta.new_factors.append(BiasFactor(weight_id=wid, var=var))
    return delta


def run_strategy(name: str, cfg) -> dict:
    """Pretrain on the base graph, apply the update, relearn via one of
    the three strategies; returns the measured record."""
    base, truth = build_base_graph(cfg)
    learner = SGDLearner(base, step_size=STEP_SIZE, seed=1, l2=L2)
    learner.fit(cfg["pretrain"], record_loss=False)
    delta = make_update_delta(learner.graph, truth, cfg)
    updated = delta.apply(learner.graph)

    start = time.perf_counter()
    if name == "warm_patched":
        patch = learner._compiled.apply_delta(delta)
        learner.apply_patch(patch)
        runner = learner
    elif name == "recompile":
        # Warm weights (delta.apply copied the pretrained store) but a
        # fresh compilation and fresh chains.
        runner = SGDLearner(updated, step_size=STEP_SIZE, seed=2, l2=L2)
    elif name == "cold_restart":
        runner = SGDLearner(
            updated, step_size=STEP_SIZE, seed=2, l2=L2, warmstart=False
        )
    else:
        raise ValueError(name)
    setup_seconds = time.perf_counter() - start
    history = runner.fit(cfg["epochs"], record_loss=True)
    return {
        "name": name,
        "setup_seconds": setup_seconds,
        "losses": [float(x) for x in history.losses],
        "times": [float(x) for x in history.times],
        "first_loss": float(history.losses[0]),
        "final_loss": float(history.final_loss()),
    }


def optimal_loss(cfg) -> float:
    """Long-run loss proxy on the updated task (paper: a 24h GD run).

    Constant-step SGD plateaus in a noise band; the stable plateau value
    (median of the run's last quarter) is the attainable optimum, where a
    minimum over the whole run would pick an unrepeatable lucky draw."""
    base, truth = build_base_graph(cfg)
    delta = make_update_delta(base, truth, cfg)
    updated = delta.apply(base)
    opt = SGDLearner(updated, step_size=STEP_SIZE, seed=9, l2=L2)
    history = opt.fit(cfg["opt_epochs"], record_loss=True)
    tail = history.losses[-max(cfg["opt_epochs"] // 4, 1) :]
    return float(np.median(tail))


def band_entry(record: dict, target: float) -> None:
    """Annotate a strategy record with when it enters the loss band."""
    record["epochs_to_band"] = None
    record["seconds_to_band"] = None
    for i, loss in enumerate(record["losses"]):
        if loss <= target:
            record["epochs_to_band"] = i + 1
            record["seconds_to_band"] = record["setup_seconds"] + record["times"][i]
            break


def gradient_kernel_axis(cfg) -> dict:
    """Per-epoch gradient-statistics time: Python factor loop vs the
    compiled flat-array accumulation, on a large synthetic workload."""
    from repro.graph import Semantics

    rng = np.random.default_rng(3)
    n = cfg["grad_vars"]
    fg = FactorGraph()
    fg.add_variables(n)
    for k in range(2 * n):
        i, j = int(rng.integers(n)), int(rng.integers(n))
        if i == j:
            continue
        wid = fg.weights.intern(("J", k % 64), initial=0.1)
        fg.add_ising_factor(wid, i, j)
    bias = fg.weights.intern("h", initial=0.1)
    for v in range(n):
        fg.add_bias_factor(bias, v)
    w_rule = fg.weights.intern("vote", initial=0.4)
    for r in range(n // 10):
        head = int(rng.integers(n))
        body = [int(x) for x in rng.choice(n, size=4, replace=False) if x != head]
        fg.add_rule_factor(
            w_rule, head, [[(b, True)] for b in body], Semantics.RATIO
        )
    compiled = CompiledFactorGraph(fg)
    worlds = rng.random((5, n)) < 0.5

    # The per-factor Python loop is a test reference, not package code.
    import sys

    sys.path.insert(0, ".")
    from tests.reference.learning import weight_statistics as reference_loop

    start = time.perf_counter()
    slow = reference_loop(fg, worlds)
    python_seconds = time.perf_counter() - start

    repeats = 5
    start = time.perf_counter()
    for _ in range(repeats):
        fast = weight_statistics(compiled, worlds)
    compiled_seconds = (time.perf_counter() - start) / repeats
    assert np.allclose(slow, fast, rtol=1e-9, atol=1e-9)
    return {
        "num_vars": n,
        "num_factors": fg.num_factors,
        "worlds": int(worlds.shape[0]),
        "python_seconds": python_seconds,
        "compiled_seconds": compiled_seconds,
        "speedup": python_seconds / max(compiled_seconds, 1e-9),
    }


def run(scale: str) -> dict:
    cfg = SCALES[scale]
    opt = optimal_loss(cfg)
    target = opt * 1.10
    record = {
        "scale": scale,
        "workload": cfg,
        "optimal_loss": opt,
        "target_loss": target,
        "strategies": [],
    }
    for name in ("warm_patched", "recompile", "cold_restart"):
        row = run_strategy(name, cfg)
        band_entry(row, target)
        record["strategies"].append(row)
        reached = row["epochs_to_band"]
        print(
            f"{name:>13}: setup {row['setup_seconds'] * 1e3:7.1f} ms, "
            f"loss {row['first_loss']:.4f} → {row['final_loss']:.4f}, "
            f"band @ epoch {reached if reached is not None else '—'} "
            f"({row['seconds_to_band']:.3f}s)"
            if reached is not None
            else f"{name:>13}: setup {row['setup_seconds'] * 1e3:7.1f} ms, "
            f"loss {row['first_loss']:.4f} → {row['final_loss']:.4f}, "
            f"band never reached"
        )
    record["gradient_kernel"] = gradient_kernel_axis(cfg)
    gk = record["gradient_kernel"]
    print(
        f"gradient kernel ({gk['num_factors']} factors × {gk['worlds']} worlds): "
        f"python {gk['python_seconds'] * 1e3:.1f} ms, "
        f"compiled {gk['compiled_seconds'] * 1e3:.2f} ms "
        f"({gk['speedup']:.1f}x)"
    )
    return record


def check_epoch_work_counts() -> None:
    """The learner's two chains advance as one: per epoch, sweeps ×
    stacked blocks block evaluations (fewer than the members' own), one
    ``Generator.random`` call per chain, one ``GibbsSampler.sweep`` per
    stacked sweep, and a stacked plan built only after a patch."""
    import sys

    sys.path.insert(0, ".")
    from tests.test_chain_stack import assert_epoch_work_counts, news_learner
    from tests.test_sweep_kernel import counting_rng

    learner, grounder, updates = news_learner(counting_rng(0))
    for update in updates[:2]:
        counted = assert_epoch_work_counts(learner, grounder, update)
    print(
        f"epoch work counts ok: {counted['sweeps_per_epoch']} sweeps × "
        f"{counted['stacked_blocks']} stacked blocks (members alone: "
        f"{counted['member_blocks']}), {counted['draws_per_epoch']} draws, "
        f"1 stacked plan per patch"
    )


def check() -> None:
    """CI smoke: ground → learn → patch → relearn; the warm patched
    learner must stay at or below the cold restart's loss band."""
    cfg = SCALES["tiny"]
    warm = run_strategy("warm_patched", cfg)
    cold = run_strategy("cold_restart", cfg)
    assert warm["first_loss"] < cold["first_loss"], (
        f"warm start should begin below the cold restart: "
        f"{warm['first_loss']:.4f} vs {cold['first_loss']:.4f}"
    )
    assert warm["final_loss"] <= cold["final_loss"] * 1.10 + 0.02, (
        f"warm final loss {warm['final_loss']:.4f} above cold band "
        f"{cold['final_loss']:.4f}"
    )
    gk = gradient_kernel_axis(cfg)
    assert gk["speedup"] > 1.0, (
        f"compiled gradient slower than the Python loop ({gk['speedup']:.2f}x)"
    )
    print(
        f"learning smoke ok: warm {warm['first_loss']:.4f}→{warm['final_loss']:.4f}, "
        f"cold {cold['first_loss']:.4f}→{cold['final_loss']:.4f}, "
        f"gradient kernel {gk['speedup']:.1f}x"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="small")
    parser.add_argument(
        "--check",
        action="store_true",
        help="run the warm-vs-cold relearning and epoch work-count assertions only",
    )
    args = parser.parse_args()
    if args.check:
        check()
        check_epoch_work_counts()
        return
    record = run(args.scale)
    emit_json("BENCH_learning", record)


if __name__ == "__main__":
    main()
