"""Compare two ``BENCH_e2e.json`` records against the benchmark's bounds.

    python3 benchmarks/e2e/compare.py old.json new.json

Every end-to-end metric is lower-is-better.  For each workload × metric
the gap is ``new / old − 1`` and the bound is the one ``BENCHMARK.json``
fixes for that metric.  Between commits a gap above the bound is
``worse`` (exit code 1) and one below minus the bound is ``better``;
``run.py --selfcheck`` compares two runs of the *same* code, where any
gap beyond the bound means the benchmark cannot resolve that bound on
this machine: ``unresolved``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

MANIFEST = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_bounds() -> dict:
    """``{metric: bound}`` from BENCHMARK.json's end-to-end metrics."""
    manifest = json.loads(MANIFEST.read_text())
    return {metric["name"]: metric["bound"] for metric in manifest["end_to_end"]}


def compare_records(old: dict, new: dict, bounds: dict, same_code: bool = True) -> list:
    """One row per workload × end-to-end metric."""
    rows = []
    for workload, old_result in old["workloads"].items():
        new_result = new["workloads"].get(workload)
        if new_result is None:
            continue
        for metric, bound in bounds.items():
            before = old_result["end_to_end"][metric]
            after = new_result["end_to_end"][metric]
            gap = after / before - 1.0 if before else float("inf")
            if abs(gap) <= bound:
                verdict = "ok"
            elif same_code:
                verdict = "unresolved"
            else:
                verdict = "worse" if gap > 0 else "better"
            rows.append(
                {
                    "workload": workload,
                    "metric": metric,
                    "old": before,
                    "new": after,
                    "gap": gap,
                    "bound": bound,
                    "verdict": verdict,
                }
            )
    return rows


def print_table(rows: list, same_code: bool, out=sys.stdout) -> None:
    first, second = ("run 1", "run 2") if same_code else ("old", "new")
    out.write(f"| workload | metric | {first} | {second} | gap | bound | |\n")
    out.write("|---|---|---|---|---|---|---|\n")
    for row in rows:
        out.write(
            f"| {row['workload']} | {row['metric']} | {row['old']:.5g} | "
            f"{row['new']:.5g} | {row['gap']:+.1%} | {row['bound']:.0%} | "
            f"{row['verdict']} |\n"
        )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    old, new = (json.loads(Path(path).read_text()) for path in argv)
    rows = compare_records(old, new, load_bounds(), same_code=False)
    print_table(rows, same_code=False)
    for label, record in (("old", old), ("new", new)):
        noise = {name: round(w["noise_frac"], 4) for name, w in record["workloads"].items()}
        cal = record["machine"]["calibration"]
        sys.stdout.write(
            f"{label}: noise_frac {noise}, calibration p50/min "
            f"{cal['p50_over_min']:.2f} p90/min {cal['p90_over_min']:.2f}\n"
        )
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
