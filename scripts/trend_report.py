#!/usr/bin/env python3
"""Run the default experiment over several master seeds and print the
qualitative trend table (the same comparisons the acceptance suite asserts).

With ``--json PATH``, also write each criterion's values, threshold and win
count over the given seeds. The acceptance suite runs three seeds; here a
"per seed" criterion needs the same two-thirds share of wins over N seeds.
Runs already complete under ``--out`` are resumed, not recomputed.
"""

import argparse
import json
import math

import numpy as np

from prunescope.experiment import ExperimentConfig, run_pipeline
from prunescope.experiment.pipeline import VARIANTS
from prunescope.experiment.tables import read_csv_dicts


def _column(path, key, value):
    return {r[key]: float(r[value]) for r in read_csv_dicts(path)}


def _criterion(rule, values, threshold, wins, of, needed):
    return {
        "rule": rule,
        "values": [float(v) for v in values],
        "threshold": float(threshold),
        "wins": int(wins),
        "of": int(of),
        "needed": int(needed),
        "pass": bool(wins >= needed),
    }


def trend_criteria(seeds, base):
    """Run (or resume) one default pipeline per seed; the criteria 4a-4g."""
    eigs, radii, barriers, impacts, accs = [], [], [], [], []
    levels = ExperimentConfig().imp.levels
    for seed in seeds:
        out = f"{base}/seed{seed}"
        run_pipeline(ExperimentConfig(master_seed=seed), out)
        eigs.append(_column(f"{out}/analysis/eigen_summary.csv", "name", "vprime"))
        radii.append(_column(f"{out}/analysis/radius_summary.csv", "name", "mean_radius"))
        barriers.append(_column(f"{out}/analysis/interp_summary.csv", "name", "barrier_height"))
        impacts.append(_column(f"{out}/analysis/prune_impact.csv", "strategy", "delta"))
        accs.append(_column(f"{out}/analysis/level_summary.csv", "name", "test_accuracy"))

    n = len(seeds)
    per_seed_needed = math.ceil(2 * n / 3)
    final = f"level{levels:02d}"
    # seed-mean V'(projected previous solution) - V'(level minimum), per level
    vprime_margin = [
        np.mean([e[f"pr_level{L - 1:02d}_on_{L:02d}"] for e in eigs])
        - np.mean([e[f"level{L:02d}"] for e in eigs])
        for L in range(1, levels + 1)
    ]
    radius_margin = [r["final_min"] - r["final_projected_prev"] for r in radii]
    succ = np.mean(
        [[b[f"interp_level{L - 1:02d}_level{L:02d}"] for L in range(1, levels + 1)]
         for b in barriers], axis=0)
    reinit = np.mean([b["interp_random_reinit"] for b in barriers])
    impact_margin = [i["random"] - i["magnitude"] for i in impacts]
    mean_acc = {name: np.mean([a[name] for a in accs]) for name in (final,) + VARIANTS}
    acc_margin = [mean_acc[final] - mean_acc[v] for v in VARIANTS]

    criteria = {
        "4a": _criterion(
            "seed-mean V'(k) lower at the level minimum than at the projected "
            "previous solution (values: margin per level)",
            vprime_margin, 0.0, sum(m > 0 for m in vprime_margin), levels, 7),
        "4b": _criterion(
            "mean basin radius larger at the final minimum than at the projected "
            "previous solution (values: margin per seed)",
            radius_margin, 0.0, sum(m > 0 for m in radius_margin), n, per_seed_needed),
        "4c": _criterion(
            "seed-mean successive-level barrier above the threshold (values: "
            "barrier per level pair)",
            succ, 0.01, int(np.sum(succ > 0.01)), levels, 8),
        "4d": _criterion(
            "seed-mean random-reinit barrier at least the threshold, twice the "
            "successive-level mean (values: reinit barrier)",
            [reinit], 2.0 * succ.mean(), int(reinit >= 2.0 * succ.mean()), 1, 1),
        "4e_impact": _criterion(
            "post-prune loss increase smaller for magnitude than for random "
            "pruning (values: random - magnitude per seed)",
            impact_margin, 0.0, sum(m > 0 for m in impact_margin), n, n),
        "4e_accuracy": _criterion(
            f"seed-mean test accuracy of {final} at least each variant's "
            f"(values: margin against {', '.join(VARIANTS)})",
            acc_margin, 0.0, sum(m >= 0 for m in acc_margin), len(VARIANTS), len(VARIANTS)),
    }
    for key, variant in (("4f", "fine_tune"), ("4g", "one_shot")):
        margin = [e[variant] - e[final] for e in eigs]
        criteria[key] = _criterion(
            f"V'(k) larger at {variant} than at {final} (values: margin per seed)",
            margin, 0.0, sum(m > 0 for m in margin), n, per_seed_needed)
    return criteria, {k: float(v) for k, v in mean_acc.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/trends", help="base artifact directory")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--json", help="write the criteria as JSON to this path")
    args = parser.parse_args()

    criteria, mean_acc = trend_criteria(args.seeds, args.out)
    print(f"\n=== trends over seeds {args.seeds} ===")
    for key, c in criteria.items():
        status = "PASS" if c["pass"] else "FAIL"
        shown = [round(v, 4) for v in c["values"]]
        print(f"{key}: {status} {c['wins']}/{c['of']} (needed {c['needed']}, "
              f"threshold {c['threshold']:.4g}) {c['rule']}: {shown}")
    print("mean test accuracy: " + ", ".join(f"{k}={v:.4f}" for k, v in mean_acc.items()))
    if args.json:
        doc = {"seeds": args.seeds, "criteria": criteria, "mean_test_accuracy": mean_acc}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
