#!/usr/bin/env python3
"""Time, memory and evaluation counts of each stage of one pipeline run.

    PYTHONPATH=src python3 scripts/stage_profile.py --workload default --seed 1

Runs one ``run_pipeline`` call in this process, on the config of a benchmark
workload from ``perfbench/workloads.py`` (read, never changed) with the seed
as ``master_seed``, into an empty directory: ``--out``, or a temporary one
that is deleted afterwards. A workload's verb sequence is not replayed; its
stages run in the one call. ``--set '<JSON>'`` merges overrides into the
workload's, section by section (``{"imp": {"levels": 1}}``).

For each stage the script prints its wall time, its CPU time (user plus
system, of this process), ``ru_maxrss`` at the stage's end (the process's
peak so far) and the stage's rise in that peak, which is 0 for a stage that
stays below an earlier stage's peak. Then, per
stage and per row count of the evaluated slice, it prints the forward
losses, gradients and HVPs. It counts them by rebinding ``autodiff``'s
``forward_loss``, ``grad`` and ``hvp``, through which every evaluation of a
``LossContext`` passes. ``--json`` prints one JSON object instead.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import resource
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from prunescope import autodiff
from prunescope.experiment import config_from_dict, pipeline

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
KINDS = {"forward_loss": "forward", "grad": "grad", "hvp": "hvp"}


def workload_overrides(name: str) -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module.WORKLOADS[name].overrides


def merge(base: dict, extra: dict) -> dict:
    """``base`` with ``extra`` merged in; nested dicts merge key by key."""
    merged = dict(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            value = merge(merged[key], value)
        merged[key] = value
    return merged


def profile(cfg, out) -> tuple[list[dict], list[dict]]:
    """Run every stage of ``cfg`` into ``out``: one row per stage that ran
    (wall and CPU seconds, ``ru_maxrss`` MB at its end and its rise over the
    stage) and one row per (stage, row count) with its forward, gradient and
    HVP counts."""
    stages, counts = [], Counter()
    current = ["-"]

    def maxrss_mb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def timed(name, func):
        def stage(state):
            current[0] = name
            start = maxrss_mb()
            wall, cpu = time.perf_counter(), time.process_time()
            func(state)
            wall, cpu, maxrss = time.perf_counter() - wall, time.process_time() - cpu, maxrss_mb()
            stages.append({"stage": name, "wall_s": wall, "cpu_s": cpu,
                           "maxrss_mb": maxrss, "maxrss_rise_mb": maxrss - start})
        return stage

    def counted(kind, func):
        def evaluate(ctx, *args, **kwargs):
            counts[current[0], ctx.n, kind] += 1
            return func(ctx, *args, **kwargs)
        return evaluate

    saved_stages = dict(pipeline._STAGE_FUNCS)
    saved_evals = {name: getattr(autodiff, name) for name in KINDS}
    try:
        for name, func in saved_stages.items():
            pipeline._STAGE_FUNCS[name] = timed(name, func)
        for name, func in saved_evals.items():
            setattr(autodiff, name, counted(KINDS[name], func))
        pipeline.run_pipeline(cfg, out)
    finally:
        pipeline._STAGE_FUNCS.update(saved_stages)
        for name, func in saved_evals.items():
            setattr(autodiff, name, func)

    evaluations = []
    for stage, rows in dict.fromkeys((s, n) for s, n, _ in counts):
        row = {"stage": stage, "rows": rows}
        row.update({kind: counts[stage, rows, kind] for kind in KINDS.values()})
        evaluations.append(row)
    return stages, evaluations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default="default")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--set", default="{}", help="JSON overrides merged into the workload's")
    parser.add_argument("--out", type=Path, help="artifact directory (default: a temporary one)")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)

    overrides = merge(workload_overrides(args.workload), json.loads(args.set))
    cfg = config_from_dict({**overrides, "master_seed": args.seed})
    with tempfile.TemporaryDirectory(prefix="stage_profile_") as tmp:
        stages, evaluations = profile(cfg, args.out if args.out else Path(tmp))

    if args.json:
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "stages": stages, "evaluations": evaluations}))
        return 0
    print(f"{'stage':28s} {'wall_s':>8s} {'cpu_s':>8s} {'maxrss_mb':>10s} {'rise_mb':>8s}")
    for s in stages:
        print(f"{s['stage']:28s} {s['wall_s']:8.3f} {s['cpu_s']:8.3f} {s['maxrss_mb']:10.2f} "
              f"{s['maxrss_rise_mb']:8.2f}")
    print(f"{'total':28s} {sum(s['wall_s'] for s in stages):8.3f} "
          f"{sum(s['cpu_s'] for s in stages):8.3f}")
    print()
    print(f"{'stage':28s} {'rows':>6s} {'forward':>8s} {'grad':>8s} {'hvp':>8s}")
    for e in evaluations:
        print(f"{e['stage']:28s} {e['rows']:6d} {e['forward']:8d} {e['grad']:8d} {e['hvp']:8d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
