"""Alternating parent/change benchmark pairs, written as a BENCH_*.json record.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_x.json
        --workloads stream-mixed certify-n8 --seeds 301 302 303 --pairs 10
        [--trace-seed S ...] [--claim stream-mixed:wall_norm_s]

DIR is a full checkout of each side.  Pair i runs ``perfbench/run.py``
once in each checkout with seed ``seeds[i % len(seeds)]``; even pairs run
the parent first and odd pairs the change first, so a drift of the
machine over the whole run falls on both sides alike.  With --trace-seed
one traced run (``--trace 1``) per side, workload and seed, alternated
the same way, adds the per-layer metrics: each side's median and
quartiles over its traced runs, and the runs themselves.  The run
length, metric names, directions and bounds come from the change's
BENCHMARK.json; nothing under perfbench/ is imported.

Per workload, the record has every run's values, each side's median and
quartiles, the pairs the change won, and a no-regression row: each
end-to-end metric is within its bound, beyond it, or unresolved when the
parent's own quartile distance is wider than the bound and the change
does not beat every parent run.  A --claim row applies the gain rule:
the change wins at least nine tenths of the pairs, and the medians
differ by more than the parent's quartile distance.

The record is rewritten after every run, and an existing --out file is
updated in place: workloads run now replace their earlier entries, the
others are kept, and the verdicts are worked out again for all of them,
so one record can be built over several calls.  Other top-level keys of
the file are kept as they are, so numbers this script does not measure
can be written there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 600
SIDES = ("parent", "change")


def run_bench(side: str, checkout: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One ``perfbench/run.py`` run; returns its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"bench_pairs: {side} {workload} seed {seed} exited "
                 f"{proc.returncode} without a result line\n{proc.stderr[-2000:]}")
    shown = "trace.wall_s" if trace else "wall_norm_s"
    print(f"  {side:6} {workload} seed {seed} trace {trace}: correct {result['correct']}, "
          f"failed {result['failed']}, {shown} {result['metrics'][shown]['value']:.4g}",
          flush=True)
    return result


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def metric_row(metric: dict, runs: dict) -> dict:
    """Summary of one end-to-end metric over the pairs of one workload."""
    parent, change = runs["parent"], runs["change"]
    sign = 1 if metric["better"] == "lower" else -1
    p, c = quartiles(parent), quartiles(change)
    return {
        "unit": metric["unit"],
        "parent": p,
        "change": c,
        "change_vs_parent": round(c["median"] / p["median"] - 1, 4),
        "change_wins": sum(sign * (b - a) < 0 for a, b in zip(parent, change)),
        "parent_runs": [round(x, 4) for x in parent],
        "change_runs": [round(x, 4) for x in change],
        "parent_quartile_distance": round(p["q3"] - p["q1"], 4),
    }


def no_regression(metrics: list[dict], entry: dict) -> dict:
    """Per metric: how far the change's median is worse than the parent's, against its bound."""
    rows = {}
    for m in metrics:
        row = entry[m["name"]]
        sign = 1 if m["better"] == "lower" else -1
        worse = sign * row["change_vs_parent"]
        spread = row["parent_quartile_distance"] / row["parent"]["median"]
        beats_all = (max(sign * x for x in row["change_runs"])
                     < min(sign * x for x in row["parent_runs"]))
        if spread > m["bound"] and not beats_all:
            verdict = "unresolved"
        else:
            verdict = "within bound" if worse <= m["bound"] else "beyond bound"
        rows[m["name"]] = {"worse_by": round(worse, 4), "bound": m["bound"],
                           "parent_spread": round(spread, 4), "verdict": verdict}
    ok = (all(r["verdict"] == "within bound" for r in rows.values()) and entry["correct"]
          and entry["failed"]["change"] <= entry["failed"]["parent"])
    return {"ok": ok, "metrics": rows}


def claim_row(entry: dict, metric: dict) -> dict:
    row = entry[metric["name"]]
    pairs = entry["pairs"]
    sign = 1 if metric["better"] == "lower" else -1
    gap = abs(row["change"]["median"] - row["parent"]["median"])
    holds = (row["change_wins"] >= 0.9 * pairs
             and gap > row["parent_quartile_distance"] and sign * row["change_vs_parent"] < 0)
    return {"metric": metric["name"], "pairs": pairs, "change_wins": row["change_wins"],
            "parent_median": row["parent"]["median"], "change_median": row["change"]["median"],
            "median_gap": round(gap, 4),
            "parent_quartile_distance": row["parent_quartile_distance"], "holds": holds}


def layer_rows(traced: dict[str, list[dict]]) -> dict:
    """Per layer metric, each side's quartiles over its traced runs, and the runs."""
    rows = {}
    for name, value in traced["parent"][0].items():
        runs = {side: [r[name]["value"] for r in traced[side]] for side in SIDES}
        rows[name] = {"unit": value["unit"],
                      **{side: quartiles(runs[side]) for side in SIDES},
                      **{f"{side}_runs": [round(x, 4) for x in runs[side]] for side in SIDES}}
    return rows


def src_lines(checkout: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((checkout / "src").rglob("*.py")))


def write(out: Path, record: dict, metrics: list[dict]) -> None:
    e2e = record["end_to_end"]
    e2e["no_regression"] = {w: no_regression(metrics, entry)
                            for w, entry in e2e["workloads"].items()}
    for spec in e2e["claims"]:
        workload, name = spec.split(":")
        if workload in e2e["workloads"]:
            metric = next(m for m in metrics if m["name"] == name)
            e2e["claims"][spec] = claim_row(e2e["workloads"][workload], metric)
    out.write_text(json.dumps(record, indent=2) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--trace-seed", dest="trace_seeds", type=int, nargs="+", default=[])
    parser.add_argument("--claim", action="append", default=[],
                        help="WORKLOAD:METRIC whose gain the record states")
    args = parser.parse_args()
    pairs = args.pairs or len(args.seeds)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            sys.exit(f"bench_pairs: {side} checkout {path} has no perfbench/run.py")
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]

    record = json.loads(args.out.read_text()) if args.out.is_file() else {}
    record["machine"] = (f"{os.cpu_count()} CPUs ({platform.processor() or platform.machine()}); "
                         f"Python {platform.python_version()}")
    record["src_lines"] = {side: src_lines(path) for side, path in checkouts.items()}
    e2e = record.setdefault("end_to_end", {})
    e2e["how"] = (f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} "
                  "--trace 0 in each checkout, written by tools/bench_pairs.py; pair i uses "
                  "seed seeds[i mod len(seeds)] and runs the parent first when i is even, the "
                  "change first when i is odd; quartiles are inclusive, change_vs_parent is "
                  "the ratio of medians minus 1, and change_wins counts pairs where the "
                  "change is better")
    workloads = e2e.setdefault("workloads", {})
    claims = e2e.setdefault("claims", {})
    claims.update((spec, None) for spec in args.claim if spec not in claims)

    for workload in args.workloads:
        runs: dict = {side: [] for side in SIDES}
        seeds = []
        for i in range(pairs):
            seed = args.seeds[i % len(args.seeds)]
            seeds.append(seed)
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                runs[side].append(
                    run_bench(side, checkouts[side], workload, seed, seconds, 0))
            entry = {
                "pairs": i + 1,
                "seeds": seeds,
                "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
                "attempted": {side: [r["attempted"] for r in runs[side]] for side in SIDES},
                "correct": all(r["correct"] for side in SIDES for r in runs[side]),
            }
            for m in metrics:
                entry[m["name"]] = metric_row(m, {side: [r["metrics"][m["name"]]["value"]
                                                         for r in runs[side]] for side in SIDES})
            workloads[workload] = entry
            write(args.out, record, metrics)

        if args.trace_seeds:
            layers = record.setdefault("per_layer", {})
            layers["how"] = (f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} "
                             "--trace 1, one run per side per workload and trace seed, the "
                             "parent first for even seed indices; busy and self times are raw "
                             "seconds of one traced pass, summarised by inclusive quartiles")
            traced: dict = {side: [] for side in SIDES}
            for i, seed in enumerate(args.trace_seeds):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    traced[side].append(
                        run_bench(side, checkouts[side], workload, seed, seconds, 1)["metrics"])
            layers[workload] = {"seeds": args.trace_seeds, **layer_rows(traced)}
            write(args.out, record, metrics)

    for workload in args.workloads:
        print(f"{workload}: no regression {e2e['no_regression'][workload]['ok']}")
    for spec in args.claim:
        print(f"{spec}: claim holds {(claims[spec] or {}).get('holds')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
