"""Self-test of the benchmark harness on a tiny config (a few seconds).

    python3 perfbench/selftest.py

Checks, for a single-call and a verb-sequence workload, that every metric
named in BENCHMARK.json is emitted with its unit, that two runs of one seed
agree on the artifact digest, and that a deliberately corrupted artifact is
counted as a failed run. Exits 0 when every check holds.
"""

from __future__ import annotations

import io
import json
import shutil
import sys
from contextlib import redirect_stdout

import run as bench
from workloads import STAGED_VERBS, Workload

TINY = {
    "dataset": {"kind": "spirals", "train_per_class": 40, "test_per_class": 20},
    "network": [2, 8, 3],
    "training": {"epochs": 4, "decay_epochs": [2, 3], "rewind_step": 2},
    "imp": {"levels": 3},
    "analysis": {
        "k": 2,
        "n_directions": 4,
        "interp_points": 5,
        "grid_rows": 3,
        "grid_cols": 4,
        "taylor_probes": 2,
    },
}
CASES = (
    Workload("selftest-single", TINY),
    Workload("selftest-staged", TINY, verbs=STAGED_VERBS),
)


def _check_emitted(label: str, declared: list[dict], run: bench.Run, layer: dict) -> list[str]:
    with redirect_stdout(io.StringIO()):
        metrics = bench.report(declared, run, layer, [], {})
    problems = [f"{label}: {spec['name']} not emitted" for spec in declared if spec["name"] not in metrics]
    problems += [
        f"{label}: {name} has unit {value.get('unit')!r}"
        for name, value in metrics.items()
        if not value.get("unit") or not isinstance(value.get("value"), (int, float))
    ]
    return problems + [f"{label}: {error}" for error in run.errors]


def main() -> int:
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    root = bench.STATE / "selftest"
    shutil.rmtree(root, ignore_errors=True)
    problems = []
    try:
        for case in CASES:
            work = root / case.name
            work.mkdir(parents=True)

            run = bench.Run(case, 7, work)
            layer = bench.measure(run, 0.0, None)
            run.check_determinism()
            problems += _check_emitted(case.name, declared["end_to_end"], run, layer)

            traced = bench.Run(case, 7, work)
            layer = bench.measure(traced, 0.0, work / "trace.json")
            traced.check_determinism()
            problems += _check_emitted(f"{case.name} traced", declared["per_layer"], traced, layer)
            if len(set(run.digests + traced.digests)) != 1:
                problems.append(f"{case.name}: digests differ across runs of one seed")

            corrupt = bench.Run(case, 7, work)
            result, out = corrupt.spawn()
            with open(out / "analysis/geometry.csv", "ab") as fh:
                fh.write(b"0\n")
            corrupt.evaluate(result, out)
            if corrupt.failed != 1 or "SHA-256" not in " ".join(corrupt.errors):
                problems.append(f"{case.name}: corrupted artifact not counted as failed")
    finally:
        shutil.rmtree(root, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
