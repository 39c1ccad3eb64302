#!/usr/bin/env python3
"""Run or resume the default experiment for several master seeds and print
trend criteria 4a–4g over them: ``prunescope.experiment.trends``, the one
definition the acceptance suite asserts. Seed N runs under ``--out/seedN``,
and a run already complete there is resumed. ``--json PATH`` also writes
the criteria and the seed-mean test accuracies.
"""

import argparse
import json
from pathlib import Path

from prunescope.experiment import ExperimentConfig, run_pipeline
from prunescope.experiment.trends import trend_criteria


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/trends", help="base artifact directory")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--json", help="write the criteria as JSON to this path")
    args = parser.parse_args()

    runs = [Path(args.out) / f"seed{seed}" for seed in args.seeds]
    for seed, out in zip(args.seeds, runs):
        run_pipeline(ExperimentConfig(master_seed=seed), out)
    criteria, mean_acc = trend_criteria(runs)
    print(f"\n=== trends over seeds {args.seeds} ===")
    for key, c in criteria.items():
        shown = [round(v, 4) for v in c["values"]]
        print(f"{key}: {'PASS' if c['pass'] else 'FAIL'} {c['wins']}/{c['of']} "
              f"(needed {c['needed']}, threshold {c['threshold']:.4g}) {c['rule']}: {shown}")
    print("mean test accuracy: " + ", ".join(f"{k}={v:.4f}" for k, v in mean_acc.items()))
    if args.json:
        doc = {"seeds": args.seeds, "criteria": criteria, "mean_test_accuracy": mean_acc}
        Path(args.json).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
