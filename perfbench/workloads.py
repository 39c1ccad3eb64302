"""The benchmark's workloads.

A workload is an experiment config (overrides of ``ExperimentConfig``; the
benchmark's ``--seed`` becomes ``master_seed``) plus the way a user drives
it: one ``run_pipeline`` call into an empty directory, or the README's verb
sequence through ``prunescope.experiment.cli.main`` on one directory.

Why each workload exists is recorded in ``BENCHMARK.json``. Sizes are cut
below the full experiment so that 22 runs of every workload fit in one hour
on a 2-core machine; the cuts only shorten Monte-Carlo sample counts or IMP
depth, never the per-item work an optimisation would change.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# The pipeline's 16 stages in order. A run is correct only if all are
# complete; the benchmark keeps its own copy so that a renamed or dropped
# stage shows as a failure instead of silently shrinking the check.
STAGES = (
    "data",
    "dense",
    "imp",
    "variant_one_shot",
    "variant_fine_tune",
    "variant_random_reinit",
    "variant_random_prune",
    "metrics",
    "distances",
    "eigen",
    "radius",
    "interp",
    "surface",
    "geometry",
    "taylor",
    "plots",
)
TRAIN_PHASE_LAST = "variant_random_prune"

# Verb sequence of the README, each verb a fresh ``cli.main`` call. The
# phase tag says which end-to-end phase the verb's time belongs to.
STAGED_VERBS = (
    ("setup", ("gen-data",)),
    ("train", ("train",)),
    ("train", ("imp",)),
    ("train", ("variant", "one-shot")),
    ("train", ("variant", "fine-tune")),
    ("train", ("variant", "random-reinit")),
    ("train", ("variant", "random-prune")),
    ("analysis", ("analyze", "eigen")),
    ("analysis", ("analyze", "radius")),
    ("analysis", ("analyze", "interp")),
    ("analysis", ("analyze", "surface")),
    ("analysis", ("analyze", "geometry")),
    ("analysis", ("analyze", "taylor")),
    ("analysis", ("pipeline",)),
)


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict = field(default_factory=dict)
    # None: one run_pipeline call; otherwise (phase, argv) verbs for cli.main
    verbs: tuple | None = None
    # units a run measures even past --seconds: a unit much shorter than a
    # run would otherwise give one or two units depending on host speed
    min_units: int = 1


WORKLOADS = {
    # The default experiment with one fifth of the radius directions.
    "default": Workload("default", {"analysis": {"n_directions": 100}}),
    # Default net, training and IMP; small analysis; driven verb by verb, so
    # the resumed ``imp`` replays the dense run.
    "staged": Workload(
        "staged",
        {
            "analysis": {
                "n_directions": 25,
                "interp_points": 51,
                "grid_rows": 12,
                "grid_cols": 14,
                "taylor_probes": 20,
            }
        },
        verbs=STAGED_VERBS,
        min_units=2,
    ),
    # 128-wide hidden layers: per-call cost is set by BLAS, not by Python.
    "wide": Workload(
        "wide",
        {
            "network": [2, 128, 128, 3],
            "imp": {"levels": 2},
            "analysis": {
                "n_directions": 25,
                "interp_points": 101,
                "grid_rows": 20,
                "grid_cols": 20,
                "taylor_probes": 50,
            },
        },
    ),
}
