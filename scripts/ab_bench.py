#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark in two checkouts.

    python3 scripts/ab_bench.py --parent ../parent --change . --workload wide \\
        --seeds 1-10 --seconds 35 --bench BENCH_N.json

Pair i runs ``perfbench/run.py --workload W --seed S --seconds X --trace T``
in both checkouts, one after the other, each in its own process. The parent
goes first on odd seeds and the change first on even seeds, so a drift in
the host's speed falls on both sides alike. The last line a run prints is
its JSON result.

The script prints, for each end-to-end metric of ``BENCHMARK.json``, the
median of each side, the parent's quartiles and the number of pairs the
change won. It also reads the artifact digests each run recorded in its
checkout's ``.perfbench/results/<workload>-seed<S>-trace<T>.json`` and
prints how many pairs have equal digests and the seeds of those that differ.
It appends every result line, with its digests, to the ``runs`` list of the
bench file (created if missing) and stores the summary under ``summary``,
keyed ``"<workload> (seeds <seeds>)"``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"1,3,5"`` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(
    checkout: Path, workload: str, seed: int, seconds: float, trace: int
) -> tuple[dict, list[str]]:
    """One benchmark run in ``checkout``: its JSON result line and the
    artifact digests its results file records (none if the run failed)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": proc.stderr[-2000:], "metrics": {}}, []
    # run.py writes this file before it prints its result line
    results = checkout / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(lines[-1]), json.loads(results.read_text(encoding="utf-8"))["digests"]


def compare_digests(digests: dict[int, tuple[list[str], list[str]]]) -> dict:
    """``{"equal": n, "differ": [seeds]}`` over each seed's (parent, change)
    digest lists. A pair is equal when both sides recorded digests, and the
    same set of them."""
    differ = [seed for seed, (p, c) in digests.items() if not p or not c or set(p) != set(c)]
    return {"equal": len(digests) - len(differ), "differ": differ}


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(pairs: list[tuple[dict, dict]], declared: list[dict]) -> dict:
    """Per declared metric, over the (parent, change) result pairs that both
    report it: medians, quartiles, the change/parent ratio of the medians and
    the pairs the change won (strictly better in its ``better`` direction).
    Also counts the runs that were not correct on each side."""
    summary = {}
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        both = [
            (p["metrics"][name]["value"], c["metrics"][name]["value"])
            for p, c in pairs
            if name in p.get("metrics", {}) and name in c.get("metrics", {})
        ]
        if not both:
            continue
        parent = [p for p, _ in both]
        change = [c for _, c in both]
        parent_median = statistics.median(parent)
        summary[name] = {
            "pairs": len(both),
            "parent_median": round(parent_median, 4),
            "parent_quartiles": [round(q, 4) for q in _quartiles(parent)],
            "change_median": round(statistics.median(change), 4),
            "change_quartiles": [round(q, 4) for q in _quartiles(change)],
            "change_over_parent": round(statistics.median(change) / parent_median, 4)
            if parent_median else None,
            "change_wins": sum((c < p) if lower else (c > p) for p, c in both),
        }
    summary["failed"] = {
        "parent": sum(not p.get("correct") for p, _ in pairs),
        "change": sum(not c.get("correct") for _, c in pairs),
    }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help='e.g. "1-10" or "1,4,7"')
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--bench", type=Path, help="bench file (BENCH_N.json) to append the results to")
    args = parser.parse_args(argv)

    declared = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    seeds = parse_seeds(args.seeds)
    pairs, runs, digests = [], [], {}
    for seed in seeds:
        sides = [("parent", args.parent), ("change", args.change)]
        if seed % 2 == 0:
            sides.reverse()
        result, digest = {}, {}
        for side, checkout in sides:
            result[side], digest[side] = run_once(
                checkout, args.workload, seed, args.seconds, args.trace
            )
            runs.append({"workload": args.workload, "seed": seed, "trace": args.trace,
                         "side": side, "result": result[side], "digests": digest[side]})
            wall = result[side]["metrics"].get("wall_s", {}).get("value")
            print(f"seed {seed} {side}: correct={result[side].get('correct')} wall_s={wall}", flush=True)
        pairs.append((result["parent"], result["change"]))
        digests[seed] = (digest["parent"], digest["change"])

    summary = summarize(pairs, declared)
    summary["digests"] = compare_digests(digests)
    print(f"{'metric':14s} {'parent':>10s} {'change':>10s} {'ratio':>7s} {'parent IQR':>21s} wins")
    for name, s in summary.items():
        if name not in ("failed", "digests"):
            q1, q3 = s["parent_quartiles"]
            print(f"{name:14s} {s['parent_median']:10.4f} {s['change_median']:10.4f} "
                  f"{s['change_over_parent']:7.4f} {q1:10.4f}-{q3:<10.4f} {s['change_wins']}/{s['pairs']}")
    print(f"failed runs: parent {summary['failed']['parent']}, change {summary['failed']['change']}")
    print(f"digests: {summary['digests']['equal']} pairs equal, differ on seeds {summary['digests']['differ']}")

    if args.bench:
        doc = json.loads(args.bench.read_text(encoding="utf-8")) if args.bench.exists() else {}
        doc.setdefault("summary", {})[f"{args.workload} (seeds {args.seeds})"] = summary
        doc.setdefault("runs", []).extend(runs)
        args.bench.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
