"""Acceptance gate: oracle suites, determinism, sparsity arithmetic, trend
reproduction on the default experiment (3 master seeds), and structural
artifact checks. Each criterion prints one PASS/FAIL line."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    DEFAULT_SEEDS,
    criterion2_config,
    diag_quadratic,
    fd_gradient,
    fd_hessian,
    fd_hvp,
    max_rel_err,
    random_net_ctx,
)

import prunescope as ps
from prunescope.experiment import ExperimentConfig, run_pipeline
from prunescope.experiment.tables import read_csv_dicts
from prunescope.experiment.trends import trend_criteria

ROOT = Path(__file__).resolve().parent.parent
N_SEEDS = len(DEFAULT_SEEDS)
PIPELINE_TIME_BUDGET = 900.0  # seconds per default run

REPORT_LINES: list[str] = []  # echoed in the terminal summary (see conftest)


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}"
    REPORT_LINES.append(line)
    print("\n" + line)
    assert ok, f"{criterion} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. oracle suites
# ---------------------------------------------------------------------------


class TestCriterion1Oracles:
    def test_1a_gradient_vs_central_differences(self):
        t0 = time.perf_counter()
        worst = 0.0
        for case in range(50):
            ctx, w = random_net_ctx(case, layer_sizes=(2, 6, 2), n_samples=8)
            mask = ps.dense_mask(ctx.spec)
            err = max_rel_err(ctx.at(mask).grad(w).gradient, fd_gradient(ctx, w, mask))
            worst = max(worst, err)
        elapsed = time.perf_counter() - t0
        report(
            "1a",
            worst <= 1e-6 and elapsed < 30.0,
            f"(max rel err {worst:.2e}, {elapsed:.1f}s over 50 nets)",
        )

    def test_1b_hvp_vs_fd_of_gradients(self):
        worst = 0.0
        for case in range(50):
            ctx, w = random_net_ctx(1000 + case, layer_sizes=(2, 6, 2), n_samples=8)
            mask = ps.dense_mask(ctx.spec)
            v = ps.random_unit_direction(mask, ps.RngStream(case, 0xACC))
            err = max_rel_err(ctx.at(mask).hvp_at(w)(v), fd_hvp(ctx, w, mask, v))
            worst = max(worst, err)
        report("1b", worst <= 1e-4, f"(max rel err {worst:.2e} over 50 cases)")

    def test_1c_lanczos_vs_dense_fd_hessian(self):
        worst = 0.0
        checked = 0
        case = 0
        while checked < 10:
            ctx, w = random_net_ctx(2000 + case, layer_sizes=(2, 4, 2), n_samples=8)
            case += 1
            mask = ps.dense_mask(ctx.spec)  # 30 params
            assert ctx.spec.param_count <= 30
            ref = np.sort(np.linalg.eigvalsh(fd_hessian(ctx, w, mask)))[::-1][:5]
            if ref.min() < 1e-3:  # keep the FD oracle's error budget honest
                continue
            rep = ps.top_k_eigenvalues(ctx, w, mask, 5, ps.RngStream(case, 0x1C))
            for mine, theirs in zip(rep.eigenvalues, ref):
                worst = max(worst, abs(mine - theirs) / abs(theirs))
            checked += 1
        report("1c", worst <= 1e-5, f"(max per-eigenvalue rel err {worst:.2e})")

    def test_1d_basin_radius_closed_forms(self):
        cases = [
            (diag_quadratic([2.0]), 1.0, 1.0),   # w^2 hits 1 at r=1
            (diag_quadratic([0.5]), 1.0, 2.0),   # w^2/4 hits 1 at r=2
            (diag_quadratic([2.0]), 4.0, 2.0),   # w^2 hits 4 at r=2
        ]
        worst = 0.0
        for ctx, cutoff, expected in cases:
            at = ctx.at(np.ones(1, bool))
            r = ps.basin_radius(at, np.zeros(1), np.array([1.0]), cutoff, at.loss(np.zeros(1)))
            worst = max(worst, abs(r - expected))
        report("1d", worst <= 1e-6, f"(max abs err {worst:.2e})")

    def test_1e_log_volume_identities(self):
        disk = ps.log_volume(ps.RadiusProfile(np.ones(8), 0.0), 2)
        ball = ps.log_volume(ps.RadiusProfile(np.ones(8), 0.0), 3)
        err = max(
            abs(disk - math.log(math.pi)), abs(ball - math.log(4 * math.pi / 3))
        )
        report("1e", err <= 1e-10, f"(max abs err {err:.2e})")

    def test_1f_cutoff_exact(self):
        ok = (
            ps.basin_cutoff(0.5, 0.2) == 1.0
            and ps.basin_cutoff(0.0, 0.0) == 0.0
            and ps.basin_cutoff(0.25, 0.75) == 1.5
        )
        report("1f", ok, "(exact arithmetic)")

    def test_1g_taylor_exact_on_diagonal_quadratics(self):
        worst = 0.0
        for seed in range(5):
            gen = np.random.default_rng(seed)
            n = 12
            ctx = diag_quadratic(gen.uniform(0.3, 4.0, size=n))
            w = gen.normal(size=n)
            m_after = np.ones(n, bool)
            m_after[gen.choice(n, size=3, replace=False)] = False
            predicted, actual = ps.taylor_prune_estimate(
                ctx, w, np.ones(n, bool), m_after, probes=1,
                rng=ps.RngStream(seed), use_exact_diagonal=True,
            )
            worst = max(worst, abs(predicted - actual))
        report("1g", worst <= 1e-8, f"(max abs err {worst:.2e})")


# ---------------------------------------------------------------------------
# 2 + 4 + 5. pipeline-level criteria share the default runs (conftest.py)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def trends(default_runs):
    """Criteria 4a-4g and the seed-mean test accuracies of the default runs."""
    return trend_criteria([out for out, _ in default_runs])


class TestCriterion2Determinism:
    def test_2_pipeline_determinism_and_runtime(self, default_runs, tmp_path):
        cfg = criterion2_config()
        m1 = run_pipeline(cfg, tmp_path / "run1")
        m2 = run_pipeline(cfg, tmp_path / "run2")
        identical = m1["hashes"] == m2["hashes"]
        slowest = max(elapsed for _, elapsed in default_runs)
        report(
            "2",
            identical and slowest <= PIPELINE_TIME_BUDGET,
            f"(manifests identical: {identical}; slowest default run {slowest:.0f}s "
            f"<= {PIPELINE_TIME_BUDGET:.0f}s)",
        )


class TestCriterion3SparsityArithmetic:
    def test_3_floor_rule_sequence(self):
        spec = ps.NetworkSpec(ExperimentConfig().network)
        prunable = ps.prunable_coords(spec)
        start = int(prunable.sum())
        # independent integer oracle, computed before touching the masks
        oracle = [start]
        active = start
        for _ in range(10):
            active -= int(0.2 * active)
            oracle.append(active)

        gen = np.random.default_rng(0)
        w = gen.normal(size=spec.param_count)
        mask = ps.dense_mask(spec)
        counts = [int((mask & prunable).sum())]
        for _ in range(10):
            mask = ps.magnitude_mask(w, mask, 0.2, prunable)
            counts.append(int((mask & prunable).sum()))
        exact = counts == oracle
        density_gap_counts = abs(counts[-1] - oracle[-1])
        report(
            "3",
            exact and density_gap_counts <= 1,
            f"(sequence {counts}, oracle match: {exact}; "
            f"final density {counts[-1] / start:.5f} vs 0.8^10={0.8**10:.5f})",
        )


def _detail(c: dict, what: str, digits: int = 3) -> str:
    """A criterion's win count and rounded values, for its report line."""
    return f"({c['wins']}/{c['of']} {what}: {[round(v, digits) for v in c['values']]})"


class TestCriterion4Trends:
    def test_4a_level_volume_ordering(self, trends):
        c = trends[0]["4a"]
        report("4a", c["wins"] >= 7, _detail(c, "levels with the seed-mean V' ordering", 1))

    def test_4b_final_level_radius(self, trends):
        c = trends[0]["4b"]
        report("4b", c["wins"] >= 2, _detail(c, "seeds with the larger radius at the minimum"))

    def test_4c_successive_barriers(self, trends):
        c = trends[0]["4c"]
        report("4c", c["wins"] >= 8, _detail(c, "level pairs with a seed-mean barrier > 0.01"))

    def test_4d_reinit_barrier_dominates(self, trends):
        (reinit,) = trends[0]["4d"]["values"]
        succ_mean = float(np.mean(trends[0]["4c"]["values"]))
        detail = f"(reinit barrier {reinit:.3f} vs 2x successive mean {2 * succ_mean:.3f})"
        report("4d", reinit >= 2.0 * succ_mean, detail)

    def test_4e_prune_impact_and_final_accuracy(self, trends):
        criteria, means = trends
        impact_ok = criteria["4e_impact"]["wins"] == N_SEEDS
        acc_ok = criteria["4e_accuracy"]["wins"] == len(ps.VARIANT_TABLE)
        accuracies = ", ".join(f"{k}={v:.4f}" for k, v in means.items())
        detail = f"(magnitude<random impact all seeds: {impact_ok}; mean accuracies {accuracies})"
        report("4e", impact_ok and acc_ok, detail)

    def test_4f_fine_tune_sharper(self, trends):
        c = trends[0]["4f"]
        report("4f", c["wins"] >= 2, _detail(c, "seeds with a sharper fine_tune, V' margins", 1))

    def test_4g_one_shot_sharper(self, trends):
        c = trends[0]["4g"]
        report("4g", c["wins"] >= 2, _detail(c, "seeds with a sharper one_shot, V' margins", 1))


# TestCriterion4Trends' literal thresholds: the wins each criterion needs
GATE_NEEDED = {"4a": 7, "4b": 2, "4c": 8, "4d": 1, "4e_impact": N_SEEDS,
               "4e_accuracy": len(ps.VARIANT_TABLE), "4f": 2, "4g": 2}


class TestTrendReportScript:
    def test_json_gives_the_gate_verdicts(self, default_runs, trends, tmp_path):
        """``scripts/trend_report.py`` resumes the fixture's runs and writes
        the criteria the gate asserts, with the gate's thresholds."""
        path = tmp_path / "trends.json"
        src = str(Path(ps.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "trend_report.py"),
             "--seeds", "1", "2", "3", "--out", str(default_runs[0][0].parent),
             "--json", str(path)],
            env={**os.environ, "PYTHONPATH": pythonpath},
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        doc = json.loads(path.read_text(encoding="utf-8"))
        criteria, means = trends
        assert doc == {"seeds": [1, 2, 3], "criteria": criteria, "mean_test_accuracy": means}
        c = doc["criteria"]
        assert set(c) == set(GATE_NEEDED)
        for key, needed in GATE_NEEDED.items():
            assert (c[key]["needed"], c[key]["pass"]) == (needed, c[key]["wins"] >= needed), key
        (reinit,) = c["4d"]["values"]
        assert c["4d"]["pass"] == (reinit >= 2.0 * np.mean(c["4c"]["values"]))
        impact_ok = c["4e_impact"]["wins"] == N_SEEDS
        acc_ok = c["4e_accuracy"]["wins"] == len(ps.VARIANT_TABLE)
        assert (c["4e_impact"]["pass"] and c["4e_accuracy"]["pass"]) == (impact_ok and acc_ok)


class TestCriterion5Structure:
    def test_5_artifact_shapes(self, default_runs):
        out, _ = default_runs[0]
        interp = read_csv_dicts(out / "analysis/interp_level00_level01.csv")
        radius = read_csv_dicts(out / "analysis/radius_final_min.csv")
        surface = read_csv_dicts(out / "analysis/surface_grid.csv")
        ok = len(interp) == 501 and len(radius) == 500 and len(surface) == 4200
        report(
            "5",
            ok,
            f"(interp rows {len(interp)}=501, radius rows {len(radius)}=500, "
            f"surface cells {len(surface)}=4200)",
        )
