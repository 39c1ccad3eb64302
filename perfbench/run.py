"""prunescope benchmark: one measured run of one workload.

    python3 perfbench/run.py --workload default --seed 1 --seconds 35 --trace 0

Run it from anywhere inside a checkout; it uses the checkout's ``src``.
Every unit of work runs in a fresh worker process, one at a time, through
the public API. A run

1. after one untimed warm-up, runs whole units of the workload until the
   next would end after ``--seconds`` (at least the workload's
   ``min_units``), and checks every unit's artifacts;
2. sets up (fresh process: ``import prunescope``, the config, the ``data``
   stage) ``SETUPS_PER_GAP`` times before every unit and after the last, at
   least ``SETUP_REPEATS`` times in all, so that the median spans the run;
3. with ``--trace 1``, instead runs one untraced and one traced unit of the
   seed and reports the per-layer metrics.

Metric names and units come from ``BENCHMARK.json``. Each metric is the
median over the run's samples; the table before the last line gives the
sample count and range. The last line of standard output is the JSON result.
Results, machine facts and traces are kept under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_run
from tracer import layer_metrics
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
WORKER = Path(__file__).resolve().parent / "worker.py"
REFERENCE_DIGESTS = Path(__file__).resolve().parent / "reference_digests.json"
SETUP_REPEATS = 9
SETUPS_PER_GAP = 3
DEADLINE_S = 170.0  # a run must exit within 180 s
# Measured and printed, but not declared in BENCHMARK.json: over ten seeds on
# a shared 2-vCPU host their quartile spread reached 0.20-0.24, against 0.25,
# the largest bound the benchmark may set, so they would make the gate a coin
# toss. setup_s spreads as much but is declared, as every benchmark must time
# its set-up; only its median is held to the bound.
INFO_METRICS = {"train_phase_s": "s", "analysis_phase_s": "s"}


def machine_facts() -> dict:
    import numpy as np

    facts = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "PRUNESCOPE_THREADS": os.environ.get("PRUNESCOPE_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        facts["blas"] = None
    try:
        conf = subprocess.run(
            ["getconf", "-a"], capture_output=True, text=True, timeout=10, check=True
        ).stdout
        facts["caches"] = {
            key: int(value)
            for key, _, value in (line.partition(" ") for line in conf.splitlines())
            if key.endswith("CACHE_SIZE") and value.strip().isdigit()
        }
    except (OSError, subprocess.SubprocessError):
        facts["caches"] = None
    return facts


class Run:
    """Workers, samples and failures of one benchmark run."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.digests: list[str] = []
        self._serial = 0

    def _fail(self, what: str, error: str) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {error}")

    def spawn(self, setup_only: bool = False, trace: Path | None = None) -> tuple[dict, Path]:
        """Run one worker to completion; returns (result, artifact directory)."""
        self._serial += 1
        out = self.work / f"unit{self._serial:02d}"
        result_path = self.work / f"unit{self._serial:02d}.result.json"
        request = {
            "overrides": self.workload.overrides,
            "verbs": self.workload.verbs,
            "seed": self.seed,
            "out": str(out),
            "setup_only": setup_only,
            "trace": str(trace) if trace else None,
            "result": str(result_path),
        }
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        spawned = time.time()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), json.dumps(request)],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            return {"ok": False, "error": "worker timed out"}, out
        try:
            result = json.loads(result_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            result = {"ok": False, "error": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"}
        result["spawned"] = spawned
        return result, out

    def setup(self, times: int) -> None:
        for _ in range(times):
            self.attempted += 1
            result, out = self.spawn(setup_only=True)
            shutil.rmtree(out, ignore_errors=True)
            if not result["ok"]:
                self._fail("setup", result["error"])
                return
            self.samples.setdefault("setup_s", []).append(result["marks"]["setup_end"] - result["spawned"])

    def evaluate(self, result: dict, out: Path, what: str = "unit") -> dict | None:
        """Check one finished unit; returns its end-to-end sample or None."""
        self.attempted += 1
        if not result["ok"]:
            self._fail(what, result["error"])
            return None
        errors, digest = check_run(out)
        if digest is not None:
            self.digests.append(digest)
        if errors:
            self._fail(what, "; ".join(errors))
            return None
        marks = result["marks"]
        return {
            "wall_s": marks["end"] - marks["setup_end"],
            "train_phase_s": marks["train_end"] - marks["setup_end"],
            "analysis_phase_s": marks["end"] - marks["train_end"],
            "peak_rss_mb": result["maxrss_mb"],
        }

    def unit(self, trace: Path | None = None) -> dict | None:
        result, out = self.spawn(trace=trace)
        sample = self.evaluate(result, out, "traced unit" if trace else "unit")
        shutil.rmtree(out, ignore_errors=True)
        if sample is not None and trace is None:
            for name, value in sample.items():
                self.samples.setdefault(name, []).append(value)
        return sample

    def check_determinism(self) -> list[str]:
        """Fail if the units of this run differ in their artifact digests;
        return notes on a digest that differs from the recorded reference,
        which a deliberate numeric change may explain."""
        key = f"{self.workload.name}/{self.seed}"
        if len(set(self.digests)) > 1:
            self._fail("determinism", f"artifact digests differ for {key}: {sorted(set(self.digests))}")
        try:
            reference = json.loads(REFERENCE_DIGESTS.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            reference = {}
        expected = reference.get(self.workload.name, {}).get(str(self.seed))
        return [
            f"digest {digest[:12]} differs from the recorded reference {expected[:12]}"
            for digest in sorted(set(self.digests))
            if expected is not None and digest != expected
        ]


def measure(run: Run, seconds: float, trace_path: Path | None) -> dict:
    """Set up and run timed units, or run the units of a traced run;
    returns the per-layer metrics of a traced run (empty otherwise)."""
    run.spawn(setup_only=True)  # warm-up: byte-compiles and fills the page cache
    if trace_path is not None:
        return measure_traced(run, trace_path)
    # Set-ups last well under a second, and a shared host has slow episodes
    # of several seconds: groups between the units keep the median from
    # resting on one burst.
    start = time.monotonic()
    durations = []
    while True:
        run.setup(SETUPS_PER_GAP)
        began = time.monotonic()
        if run.unit() is None:
            break
        durations.append(time.monotonic() - began)
        if len(durations) >= run.workload.min_units and (
            time.monotonic() - start + statistics.median(durations) > seconds
        ):
            break
    run.setup(max(SETUPS_PER_GAP, SETUP_REPEATS - len(run.samples.get("setup_s", []))))
    return {}


def measure_traced(run: Run, trace_path: Path) -> dict:
    """One untraced and one traced unit of the seed; the tracer's overhead is
    the difference of their ``wall_s``."""
    untraced = run.unit()
    traced = run.unit(trace=trace_path)
    if traced is None or not trace_path.exists():
        return {}
    metrics = layer_metrics(json.loads(trace_path.read_text(encoding="utf-8")))
    if untraced is not None:
        metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return metrics


def report(declared: list[dict], run: Run, layer: dict, notes: list[str], facts: dict) -> dict:
    metrics, rows, absent = {}, [], []
    for spec in declared:
        name, unit = spec["name"], spec["unit"]
        values = run.samples.get(name) or ([layer[name]] if name in layer else [])
        if not values:
            absent.append(name)
            continue
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        rows.append((name, value, unit, len(values), min(values), max(values)))
    declared_names = {spec["name"] for spec in declared}
    for name, unit in INFO_METRICS.items():
        values = run.samples.get(name)
        if values and name not in declared_names:
            row = (f"{name} (info)", statistics.median(values), unit, len(values), min(values), max(values))
            rows.append(row)
    print(f"machine: {json.dumps(facts, sort_keys=True)}")
    print(f"{'metric':48s} {'median':>14s} {'unit':8s} {'n':>3s} {'min':>12s} {'max':>12s}")
    for name, value, unit, n, lo, hi in rows:
        print(f"{name:48s} {value:14.6g} {unit:8s} {n:3d} {lo:12.6g} {hi:12.6g}")
    for note in notes:
        print(f"note: {note}")
    if absent:
        print(f"absent (no such layer or no samples): {', '.join(absent)}")
    for error in run.errors:
        print(f"FAILED {error}", file=sys.stderr)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src/prunescope/__init__.py").is_file():
        print(f"no prunescope sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = declared["per_layer" if args.trace else "end_to_end"]

    tag = f"{args.workload}-seed{args.seed}"
    work = STATE / "work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    (STATE / "traces").mkdir(exist_ok=True)
    (STATE / "results").mkdir(exist_ok=True)
    run = Run(WORKLOADS[args.workload], args.seed, work)
    trace_path = STATE / "traces" / f"{tag}.json" if args.trace else None
    try:
        facts = machine_facts()
        layer = measure(run, args.seconds, trace_path)
        notes = run.check_determinism()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = report(declared, run, layer, notes, facts)
    correct = run.failed == 0 and len(metrics) > 0
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "samples": run.samples,
        "layer": layer, "digests": run.digests, "errors": run.errors, "notes": notes,
    }
    (STATE / "results" / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8"
    )
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
