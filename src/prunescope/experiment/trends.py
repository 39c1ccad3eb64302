"""Trend criteria 4a–4g: the paper's claims about IMP solutions, checked over
finished default runs that differ only in master seed. The acceptance suite
asserts them on three seeds and ``scripts/trend_report.py`` writes them as
JSON; no pipeline stage imports this module. The rows they read are named by
the pipeline's analysis tables, ``pipeline._rows``.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from ..errors import ConfigError
from .config import load_config
from .pipeline import VARIANTS, _rows
from .tables import read_csv_dicts


def _column(out: Path, csv: str, key: str, value: str) -> dict[str, float]:
    return {r[key]: float(r[value]) for r in read_csv_dicts(out / "analysis" / csv)}


def _criterion(rule, values, threshold, needed, at_least=False) -> dict:
    """Wins are the values above ``threshold``, or at least it with ``at_least``."""
    values, threshold = [float(v) for v in values], float(threshold)
    wins = sum(v >= threshold if at_least else v > threshold for v in values)
    return {
        "rule": rule,
        "values": values,
        "threshold": threshold,
        "wins": wins,
        "of": len(values),
        "needed": needed,
        "pass": wins >= needed,
    }


def trend_criteria(run_dirs) -> tuple[dict[str, dict], dict[str, float]]:
    """Criteria 4a–4g over finished runs, one per seed, and the seed-mean test
    accuracy of the final level and of each variant. A per-seed criterion
    needs two thirds of the seeds; 4d's threshold is twice the mean of 4c's
    values, the seed-mean barriers per level pair."""
    runs = [Path(out) for out in run_dirs]
    levels = load_config(runs[0] / "config.json").imp.levels
    if any(load_config(out / "config.json").imp.levels != levels for out in runs):
        raise ConfigError("the runs differ in imp.levels")
    eigs = [_column(out, "eigen_summary.csv", "name", "vprime") for out in runs]
    radii = [_column(out, "radius_summary.csv", "name", "mean_radius") for out in runs]
    barriers = [_column(out, "interp_summary.csv", "name", "barrier_height") for out in runs]
    impacts = [_column(out, "prune_impact.csv", "strategy", "delta") for out in runs]
    accs = [_column(out, "level_summary.csv", "name", "test_accuracy") for out in runs]

    per_seed_needed = math.ceil(2 * len(runs) / 3)
    table = _rows(levels)
    final, projected = table.levels[-1], table.projected[-1]
    # seed-mean V'(projected previous solution) - V'(level minimum), per level
    vprime_margin = [
        np.mean([e[name] for e in eigs]) - np.mean([e[table.points[name][1]] for e in eigs])
        for name in table.projected
    ]
    # the radius profile at each point, and the interpolation ending at each solution
    profile = {point: name for name, point in table.radius.items()}
    interp = {end: name for name, (_, end) in table.interp.items()}
    succ = np.mean([[b[interp[name]] for name in table.levels[1:]] for b in barriers], axis=0)
    mean_acc = {name: np.mean([a[name] for a in accs]) for name in (final,) + VARIANTS}

    criteria = {
        "4a": _criterion(
            "seed-mean V'(k) lower at the level minimum than at the projected "
            "previous solution (values: margin per level)",
            vprime_margin, 0.0, 7),
        "4b": _criterion(
            "mean basin radius larger at the final minimum than at the projected "
            "previous solution (values: margin per seed)",
            [r[profile[final]] - r[profile[projected]] for r in radii], 0.0, per_seed_needed),
        "4c": _criterion(
            "seed-mean successive-level barrier above the threshold (values: "
            "barrier per level pair)",
            succ, 0.01, 8),
        "4d": _criterion(
            "seed-mean random-reinit barrier at least the threshold, twice the "
            "successive-level mean (values: reinit barrier)",
            [np.mean([b[interp["random_reinit"]] for b in barriers])], 2.0 * succ.mean(), 1,
            at_least=True),
        "4e_impact": _criterion(
            "post-prune loss increase smaller for magnitude than for random "
            "pruning (values: random - magnitude per seed)",
            [i["random"] - i["magnitude"] for i in impacts], 0.0, len(runs)),
        "4e_accuracy": _criterion(
            f"seed-mean test accuracy of {final} at least each variant's "
            f"(values: margin against {', '.join(VARIANTS)})",
            [mean_acc[final] - mean_acc[v] for v in VARIANTS], 0.0, len(VARIANTS),
            at_least=True),
    }
    for key, variant in (("4f", "fine_tune"), ("4g", "one_shot")):
        criteria[key] = _criterion(
            f"V'(k) larger at {variant} than at {final} (values: margin per seed)",
            [e[variant] - e[final] for e in eigs], 0.0, per_seed_needed)
    return criteria, {k: float(v) for k, v in mean_acc.items()}
