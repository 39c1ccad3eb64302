#!/usr/bin/env python3
"""Run the default experiment over several master seeds and print the
qualitative trend table (the same comparisons the acceptance suite asserts)."""

import argparse

import numpy as np

from prunescope.experiment import ExperimentConfig, run_pipeline
from prunescope.experiment.pipeline import VARIANTS
from prunescope.experiment.tables import read_csv_dicts


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/trends", help="base artifact directory")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args()

    eigs, radii, barriers, impacts, accs = [], [], [], [], []
    levels = ExperimentConfig().imp.levels
    for seed in args.seeds:
        out = f"{args.out}/seed{seed}"
        run_pipeline(ExperimentConfig(master_seed=seed), out)
        eigs.append({r["name"]: float(r["vprime"])
                     for r in read_csv_dicts(f"{out}/analysis/eigen_summary.csv")})
        radii.append({r["name"]: float(r["mean_radius"])
                      for r in read_csv_dicts(f"{out}/analysis/radius_summary.csv")})
        barriers.append({r["name"]: float(r["barrier_height"])
                         for r in read_csv_dicts(f"{out}/analysis/interp_summary.csv")})
        impacts.append({r["strategy"]: float(r["delta"])
                        for r in read_csv_dicts(f"{out}/analysis/prune_impact.csv")})
        accs.append({r["name"]: float(r["test_accuracy"])
                     for r in read_csv_dicts(f"{out}/analysis/level_summary.csv")})

    print(f"\n=== trends over seeds {args.seeds} ===")
    wins = sum(
        np.mean([e[f"level{L:02d}"] for e in eigs])
        < np.mean([e[f"pr_level{L - 1:02d}_on_{L:02d}"] for e in eigs])
        for L in range(1, levels + 1)
    )
    print(f"V'(k) lower at the level minimum than at the projected previous "
          f"solution: {wins}/{levels} levels (seed means)")

    radius_wins = sum(r["final_min"] > r["final_projected_prev"] for r in radii)
    print(f"mean basin radius larger at the final minimum: {radius_wins}/{len(radii)} seeds")

    succ = np.mean(
        [[b[f"interp_level{L - 1:02d}_level{L:02d}"] for L in range(1, levels + 1)]
         for b in barriers], axis=0)
    print(f"successive-level barriers > 0.01: {int(np.sum(succ > 0.01))}/{levels} "
          f"({[round(x, 3) for x in succ]})")
    reinit = np.mean([b["interp_random_reinit"] for b in barriers])
    print(f"random-reinit barrier {reinit:.3f} vs successive mean {succ.mean():.3f}")

    mag = [i["magnitude"] for i in impacts]
    rnd = [i["random"] for i in impacts]
    print(f"post-prune loss increase, magnitude vs random: "
          f"{np.mean(mag):.4f} vs {np.mean(rnd):.4f}")

    final = f"level{levels:02d}"
    mean_acc = {name: np.mean([a[name] for a in accs]) for name in (final,) + VARIANTS}
    print("mean test accuracy: " + ", ".join(f"{k}={v:.4f}" for k, v in mean_acc.items()))

    for variant in ("fine_tune", "one_shot"):
        v_wins = sum(e[variant] > e[final] for e in eigs)
        print(f"V'(k) larger at {variant} than at {final}: {v_wins}/{len(eigs)} seeds")


if __name__ == "__main__":
    main()
