"""End-to-end benchmark runner.

    python3 benchmarks/e2e/run.py [--seed 0]

runs the four workloads of ``workloads.py``, prints every metric by name
with its unit, checks the outputs and writes
``benchmarks/e2e/results/BENCH_e2e.json``.  With ``--workload NAME`` it
runs that workload alone and prints one JSON object on its last line
(the form ``BENCHMARK.json`` describes): the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced pass with ``--trace 1``.

Noise control is the design.  A workload is a fixed, seeded op list, so
op *i* does bit-identical work every time it runs.  The runner executes
R passes of the workload, each in a fresh child process
(``PYTHONHASHSEED=0``, one child at a time, passes of different
workloads interleaved), and takes as the latency of op *i* the
**minimum over the R passes**; sums and percentiles are taken over those
per-op minima.  A machine-noise episode has to hit op *i* in every pass
to show.  Each pass emits a fingerprint of the work it did; passes that
disagree make the run fail, because the minimum is only valid over
identical work.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# Siblings are imported as the ``e2e`` package: with this directory on
# sys.path our trace.py would shadow the standard library's.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]

from e2e import compare, trace  # noqa: E402

WORKLOAD_NAMES = ("devloop", "stream_insert", "stream_mixed", "cold_build")
#: Untimed-by-tracer passes per workload; ``--seconds`` scales it.
PASSES = 5
SMOKE_PASSES = 2
WORK_DIR = HERE / ".work"
RECORD_PATH = HERE / "results" / "BENCH_e2e.json"
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("restore_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer counters (beside ``<span>.calls/.total_s/.self_s``).
LAYER_COUNTERS = (
    ("db.index_builds", "count"),
    ("db.index_merges", "count"),
    ("db.view_captures", "count"),
    ("db.delta_plan_misses", "count"),
    ("db.delta_batch_builds", "count"),
    ("grounding.delta_vars", "count"),
    ("grounding.delta_factors", "count"),
    ("graph.compactions", "count"),
    ("graph.tombstone_frac", "frac"),
    ("graph.views_materialized", "count"),
    ("inference.var_updates", "count"),
    ("inference.mh_proposals", "count"),
    ("inference.mh_accept_rate", "frac"),
    ("learning.epochs", "count"),
    ("learning.learns_warm", "count"),
    ("learning.learns_cold", "count"),
    ("core.strategy_sampling_ops", "count"),
    ("core.strategy_variational_ops", "count"),
    ("core.fallbacks", "count"),
    ("core.samples_remaining", "count"),
    ("core.bundle_bytes", "bytes"),
    ("core.marginal_mae", "prob"),
    ("reliability.wal_bytes", "bytes"),
    ("reliability.retries", "count"),
    ("reliability.rollbacks", "count"),
    ("service.overhead_s", "s"),
    ("service.checkpoint_bytes", "bytes"),
    ("service.read_p50_us", "us"),
    ("service.queue_high_water", "count"),
    ("datalog.rules", "count"),
    ("trace.unattributed_frac", "frac"),
    ("trace_overhead_frac", "frac"),
)


def per_layer_metrics() -> tuple:
    """``(name, unit)`` of every per-layer metric, in print order."""
    spans = []
    for name in trace.SPAN_NAMES:
        spans += [(f"{name}.calls", "count"), (f"{name}.total_s", "s"), (f"{name}.self_s", "s")]
    return tuple(spans) + LAYER_COUNTERS


# --------------------------------------------------------------------- #
# Aggregation over passes


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def band_mean(values, pct: float, half_width: float) -> float:
    """Mean of the samples ranked between ``pct − half_width`` and
    ``pct + half_width``: a percentile that does not jump when it falls
    between two modes.  (Op latencies are bimodal — cheap and dear op
    kinds — and on ``stream_mixed`` the plain median sat in the sparse
    stretch between the modes: a 3 % shift of ``run_s`` between two runs
    of one tree moved it by 25 %.)"""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("band mean of no samples")
    last = len(ordered) - 1
    low = int(last * max(pct - half_width, 0) / 100.0)
    high = min(last, math.ceil(last * min(pct + half_width, 100) / 100.0))
    band = ordered[low : high + 1]
    return sum(band) / len(band)


def tail_percentile(count: int) -> int:
    """The highest percentile, at most 90, with at least ten samples
    beyond it; the median when no percentile above it has ten."""
    if count < 20:
        return 50
    return max(50, min(90, int(100 * (1 - 10 / count))))


def per_op(passes: list, fold) -> list:
    """``passes[r][i]`` is op *i*'s latency in pass *r*.  Op *i* does the
    same work in every pass, so its samples differ only by machine
    noise and ``fold`` (``min``, ``statistics.median``) strips it."""
    lengths = {len(ops) for ops in passes}
    if len(lengths) != 1:
        raise ValueError(f"passes ran different op counts: {sorted(lengths)}")
    return [fold(samples) for samples in zip(*passes)]


def noise_frac(passes: list) -> float:
    """Median over ops of second-smallest ÷ smallest − 1: how far apart
    the two best samples of an op still are."""
    ratios = []
    for samples in zip(*passes):
        ordered = sorted(samples)
        if len(ordered) > 1 and ordered[0] > 0:
            ratios.append(ordered[1] / ordered[0] - 1.0)
    return statistics.median(ratios) if ratios else 0.0


def fingerprint(record: dict) -> tuple:
    """The work a pass did: per op its kind, delta sizes, strategy and
    outcome, plus the hash of the final marginals."""
    ops = tuple(
        (op["kind"], op.get("dv"), op.get("df"), op.get("de"), op.get("strategy"), op["ok"])
        for op in record["ops"]
    )
    return ops, record["marginals_sha256"]


def aggregate(records: list, traced: dict | None = None) -> dict:
    """Fold the untraced pass records of one workload into its metrics.

    Times are reference seconds (``probe.py``); per op, per set-up phase
    and for the restore the value is the median over passes.  ``traced``
    (optional) only joins the determinism check and the op accounting;
    no end-to-end metric reads it."""
    every = records + ([traced] if traced else [])
    prints = {fingerprint(rec) for rec in every}
    latencies = [[op["ns"] for op in rec["ops"]] for rec in records]
    ops = per_op(latencies, statistics.median)
    tail = tail_percentile(len(ops))
    attempted = failed = 0
    for rec in every:
        attempted += len(rec["ops"]) + len(rec["checks"])
        failed += sum(not op["ok"] for op in rec["ops"])
        failed += sum(not ok for ok in rec["checks"].values())
    if len(prints) != 1:
        failed += len(prints) - 1
    maes = [rec["marginal_mae"] for rec in every if rec["marginal_mae"] is not None]
    phases = {
        name: statistics.median(rec["phases"][name] for rec in records)
        for name in records[0]["phases"]
    }
    by_kind: dict = {}
    for op, latency in zip(records[0]["ops"], ops):
        by_kind.setdefault(op["kind"], []).append(latency * 1e3)
    wall = [[op["s"] for op in rec["ops"]] for rec in records]
    return {
        "end_to_end": {
            "setup_s": sum(phases.values()),
            "run_s": sum(ops),
            "op_p50_ms": band_mean(ops, 50, 10) * 1e3,
            "op_p90_ms": band_mean(ops, tail, 5) * 1e3,
            "restore_s": statistics.median(s for rec in records for s in rec["restores"]),
            "peak_rss_mb": statistics.median(rec["peak_rss_mb"] for rec in records),
        },
        # Exactly repeatable (seeded reference), so one pass computes it.
        "marginal_mae": maes[0] if maes else None,
        # Wall-clock counterparts, for the reader: per-op minimum over
        # passes, per-phase minimum, fastest restore.
        "wall": {
            "setup_s": sum(
                min(rec["raw_phases"][name] for rec in records) for name in phases
            ),
            "run_s": sum(per_op(wall, min)),
            "restore_s": min(s for rec in records for s in rec["raw_restores"]),
            "pass_run_s": [sum(ops_) for ops_ in wall],
        },
        "ops": len(ops),
        "tail_percentile": tail,
        "ops_attempted": attempted,
        "ops_failed": failed,
        "fingerprints_match": len(prints) == 1,
        "noise_frac": noise_frac(latencies),
        "setup_phases_s": phases,
        "op_kind_p50_ms": {kind: percentile(vals, 50) for kind, vals in by_kind.items()},
        "failed_checks": sorted(
            {name for rec in every for name, ok in rec["checks"].items() if not ok}
        ),
        "failed_ops": [
            {"pass": idx, "op": pos, **{k: op.get(k) for k in ("kind", "error")}}
            for idx, rec in enumerate(every)
            for pos, op in enumerate(rec["ops"])
            if not op["ok"]
        ][:10],
    }


def layer_metrics(traced: dict, run_s: float, marginal_mae) -> dict:
    """The per-layer metrics of one traced pass record; ``run_s`` is the
    workload's untraced ``run_s`` (both sides in reference seconds)."""
    out = {"core.marginal_mae": marginal_mae or 0.0}
    for name, agg in traced["spans"].items():
        for key in ("calls", "total_s", "self_s"):
            out[f"{name}.{key}"] = agg[key]
    out.update(traced["layer"])
    out["trace_overhead_frac"] = sum(op["ns"] for op in traced["ops"]) / run_s - 1.0
    return {name: out.get(name, 0) for name, _unit in per_layer_metrics()}


# --------------------------------------------------------------------- #
# One pass = one child process


def pass_record(workload, seed, sizes, workdir, traced, reference, spans=None) -> dict:
    """Run one pass in this process; returns its JSON-able record."""
    from e2e import workloads

    tracer = trace.Tracer() if traced else None
    record = workloads.run_pass(
        workload,
        seed,
        workloads.SIZES[sizes][workload],
        str(workdir),
        tracer=tracer,
        reference=reference,
    )
    if tracer is not None:
        rows = tracer.rows()
        selfs = trace.self_times(rows)
        record["spans"] = trace.summarize(rows, selfs)
        record["layer"] = layer_counters(record, rows, selfs, tracer.counters)
        record["op_self_share"] = op_self_share(rows, selfs)
        if spans:
            trace.write_rows(rows, spans)
    return record


def layer_counters(record: dict, rows: list, selfs: dict, hooked: dict) -> dict:
    """Counters of a traced pass: the layers' own, the tracer hooks',
    and the few derived from spans."""
    out = dict(record["counters"])
    out.update(hooked)
    out["grounding.delta_vars"] = sum(op.get("dv") or 0 for op in record["ops"])
    out["grounding.delta_factors"] = sum(op.get("df") or 0 for op in record["ops"])
    proposals = out.get("inference.mh_proposals", 0)
    out["inference.mh_accept_rate"] = (
        out.pop("inference.mh_accepted", 0) / proposals if proposals else 0.0
    )
    in_ops = [row for row in rows if row["op"] is not None]
    service_ops = sum(r["end"] - r["start"] for r in in_ops if r["name"] == "service.op")
    applies = sum(
        r["end"] - r["start"] for r in in_ops if r["name"] == "reliability.pipeline_apply"
    )
    # Queue, thread hand-off, snapshot install and the drain poll.
    out["service.overhead_s"] = service_ops - applies if service_ops else 0.0
    reads = [(r["end"] - r["start"]) * 1e6 for r in rows if r["name"] == "service.read"]
    out["service.read_p50_us"] = percentile(reads, 50) if reads else 0.0
    roots = [row for row in rows if row["name"] in trace.ROOT_SPANS]
    root_total = sum(r["end"] - r["start"] for r in roots)
    out["trace.unattributed_frac"] = (
        sum(selfs[r["id"]] for r in roots) / root_total if root_total else 0.0
    )
    return out


def op_self_share(rows: list, selfs: dict) -> dict:
    """Per span name, its self time inside ops as a share of the ops'
    total time — where an op's time goes (set-up and restore left out)."""
    in_ops = [row for row in rows if row["op"] is not None]
    total = sum(r["end"] - r["start"] for r in in_ops if r["name"] in trace.ROOT_SPANS)
    shares: dict = {}
    for row in in_ops:
        shares[row["name"]] = shares.get(row["name"], 0.0) + selfs[row["id"]]
    return {
        name: value / total
        for name, value in sorted(shares.items(), key=lambda kv: -kv[1])
        if total
    }


def run_child(workload, seed, sizes, traced, reference, tag, spans=None) -> dict:
    """One pass in a fresh interpreter; returns its record."""
    workdir = WORK_DIR / f"{os.getpid()}-{tag}"
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child",
        "--workload", workload,
        "--seed", str(seed),
        "--sizes", sizes,
        "--trace", str(int(traced)),
        "--reference", str(int(reference)),
        "--workdir", str(workdir),
    ]  # fmt: skip
    if spans:
        cmd += ["--spans", str(spans)]
    # One BLAS thread: the load shape is one driver thread plus the
    # service's batcher, and a BLAS pool on a 2-core box stalls at random.
    env = dict(
        os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"
    )
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} pass {tag} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_in_process(workload, seed, sizes, traced, reference, tag, spans=None) -> dict:
    """``--smoke``: the same pass without process isolation (noise does
    not matter at smoke sizes; a tier-1 test has seconds, not minutes)."""
    workdir = WORK_DIR / f"{os.getpid()}-{tag}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return pass_record(workload, seed, sizes, workdir, traced, reference, spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(
    names, seed, passes, sizes, traced, reference=True, isolate=True, spans_dir=None
) -> dict:
    """Run ``passes`` untraced passes of each workload, round-robin
    across workloads so a slow episode of the machine cannot hit all
    passes of one of them, then one traced pass each if ``traced``.
    Returns per-workload results."""
    run = run_child if isolate else run_in_process
    records = {name: [] for name in names}
    for idx in range(passes):
        for name in names:
            # The reference marginals are seeded: one pass computing them is enough.
            with_reference = reference and idx == 0
            records[name].append(run(name, seed, sizes, False, with_reference, f"{name}-{idx}"))
    results = {}
    for name in names:
        traced_rec = None
        if traced:
            spans = spans_dir / f"spans_{name}.jsonl" if spans_dir else None
            traced_rec = run(name, seed, sizes, True, False, f"{name}-traced", spans)
        result = aggregate(records[name], traced_rec)
        if traced_rec is not None:
            result["per_layer"] = layer_metrics(
                traced_rec, result["end_to_end"]["run_s"], result["marginal_mae"]
            )
            result["op_self_share"] = traced_rec["op_self_share"]
        results[name] = result
    return results


# --------------------------------------------------------------------- #
# Reporting


def calibrate(seconds: float = 2.0) -> dict:
    """Jitter of a fixed ≈30 ms Python+numpy kernel: how noisy is this
    machine right now?  Stamped into the record, never used to scale."""
    import numpy as np

    rng = np.random.default_rng(0)
    matrix = rng.random((160, 160))
    samples = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        start = time.perf_counter()
        acc = 0.0
        for _ in range(160):
            acc += float(np.linalg.norm(matrix @ matrix))
        total = 0
        for value in range(480_000):
            total += value & 7
        samples.append(time.perf_counter() - start)
    best = min(samples)
    return {
        "iterations": len(samples),
        "min_ms": best * 1e3,
        "p50_over_min": percentile(samples, 50) / best,
        "p90_over_min": percentile(samples, 90) / best,
    }


def machine_stamp(calibration_seconds: float) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "calibration": calibrate(calibration_seconds),
    }


def print_results(results: dict, out=sys.stdout) -> None:
    for name, result in results.items():
        out.write(f"== {name}\n")
        for metric, unit in END_TO_END:
            out.write(f"{name}/{metric} {result['end_to_end'][metric]:.6g} {unit}\n")
        out.write(
            f"{name}/ops_attempted {result['ops_attempted']} count\n"
            f"{name}/ops_failed {result['ops_failed']} count\n"
            f"{name}/noise_frac {result['noise_frac']:.4f} frac\n"
            f"{name}/tail_percentile {result['tail_percentile']} pct\n"
        )
        for metric, unit in per_layer_metrics() if "per_layer" in result else ():
            out.write(f"{name}/{metric} {result['per_layer'][metric]:.6g} {unit}\n")
        if result["failed_checks"] or result["failed_ops"] or not result["fingerprints_match"]:
            out.write(
                f"{name}/FAILED checks={result['failed_checks']} "
                f"ops={result['failed_ops']} "
                f"fingerprints_match={result['fingerprints_match']}\n"
            )


def print_machine(stamp: dict, out=sys.stdout) -> None:
    cal = stamp["calibration"]
    out.write(
        f"machine/cpu_count {stamp['cpu_count']} count\n"
        f"machine/loadavg_1m {stamp['loadavg'][0]:.2f} load\n"
        f"machine/calibration_min_ms {cal['min_ms']:.3f} ms\n"
        f"machine/calibration_p50_over_min {cal['p50_over_min']:.3f} ratio\n"
        f"machine/calibration_p90_over_min {cal['p90_over_min']:.3f} ratio\n"
    )


def worst_noise(record: dict) -> float:
    return max(w["noise_frac"] for w in record["workloads"].values())


def write_record(record: dict) -> bool:
    """Write the record unless a committed one was measured on a quieter
    machine (the ``8e83c17`` accident: a loaded run clobbered a good
    record).  Delete the old file to replace it regardless."""
    if RECORD_PATH.exists():
        old = json.loads(RECORD_PATH.read_text())
        if worst_noise(record) > 1.25 * worst_noise(old):
            sys.stderr.write(
                f"not overwriting {RECORD_PATH}: noise_frac {worst_noise(record):.4f} "
                f"is worse than the record's {worst_noise(old):.4f}\n"
            )
            return False
    RECORD_PATH.parent.mkdir(exist_ok=True)
    RECORD_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return True


def full_record(seed: int, smoke: bool) -> dict:
    """All four workloads, traced pass included.  The smoke form runs
    in-process at tiny sizes and leaves no span files behind."""
    stamp = machine_stamp(0.1 if smoke else 2.0)
    passes = SMOKE_PASSES if smoke else PASSES
    sizes = "smoke" if smoke else "full"
    results = measure(
        WORKLOAD_NAMES,
        seed,
        passes,
        sizes,
        traced=True,
        isolate=not smoke,
        spans_dir=None if smoke else WORK_DIR,
    )
    return {
        "benchmark": "e2e",
        "seed": seed,
        "passes": passes,
        "sizes": sizes,
        "machine": stamp,
        "workloads": results,
    }


def failures(results: dict) -> int:
    return sum(result["ops_failed"] for result in results.values())


def driver_main(args) -> int:
    """``--workload``: the one-JSON-line form of BENCHMARK.json."""
    if args.trace:
        passes = 2  # only the baseline of trace_overhead_frac
    elif args.seconds is None:
        passes = PASSES
    else:
        run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        passes = max(2, round(PASSES * args.seconds / run_seconds))
    result = measure(
        [args.workload],
        args.seed,
        passes,
        "full",
        traced=bool(args.trace),
        reference=bool(args.trace),
    )[args.workload]
    if args.trace:
        values = result["per_layer"]
        units = dict(per_layer_metrics())
    else:
        values = result["end_to_end"]
        units = dict(END_TO_END)
    correct = result["ops_failed"] == 0
    if not correct:
        print_results({args.workload: result}, out=sys.stderr)
    line = {
        "correct": correct,
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    sys.stdout.write(json.dumps(line) + "\n")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, 2 passes, in-process")
    parser.add_argument("--selfcheck", action="store_true", help="run twice, compare to bounds")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--sizes", default="full", help=argparse.SUPPRESS)
    parser.add_argument("--reference", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        record = pass_record(
            args.workload,
            args.seed,
            args.sizes,
            args.workdir,
            bool(args.trace),
            bool(args.reference),
            spans=args.spans,
        )
        sys.stdout.write(json.dumps(record) + "\n")
        return 0
    try:
        if args.workload:
            return driver_main(args)
        record = full_record(args.seed, args.smoke)
        print_results(record["workloads"])
        print_machine(record["machine"])
        status = 1 if failures(record["workloads"]) else 0
        if args.selfcheck:
            second = full_record(args.seed, args.smoke)
            print_machine(second["machine"])
            status |= 1 if failures(second["workloads"]) else 0
            rows = compare.compare_records(record, second, compare.load_bounds())
            compare.print_table(rows, same_code=True)
            status |= 1 if any(row["verdict"] != "ok" for row in rows) else 0
        if not args.smoke and status == 0:
            write_record(record)
        return status
    finally:
        # Pass directories go as each pass ends; only span files stay.
        if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()


if __name__ == "__main__":
    sys.exit(main())
