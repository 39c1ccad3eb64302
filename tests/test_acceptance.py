"""Acceptance gate: oracle suites, determinism, sparsity arithmetic, trend
reproduction on the default experiment (3 master seeds), and structural
artifact checks. Each criterion prints one PASS/FAIL line."""

import math
import time

import numpy as np
import pytest
from helpers import (
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

N_SEEDS = 3
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
            err = max_rel_err(ps.grad(ctx, w, mask).gradient, fd_gradient(ctx, w, mask))
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
            err = max_rel_err(ps.hvp(ctx, w, mask, v), fd_hvp(ctx, w, mask, v))
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
            r = ps.basin_radius(ctx, np.zeros(1), np.ones(1, bool), np.array([1.0]), cutoff)
            worst = max(worst, abs(r - expected))
        report("1d", worst <= 1e-6, f"(max abs err {worst:.2e})")

    def test_1e_log_volume_identities(self):
        disk = ps.log_volume(ps.RadiusProfile(np.ones(8), 1.0, 8, 0.0), 2)
        ball = ps.log_volume(ps.RadiusProfile(np.ones(8), 1.0, 8, 0.0), 3)
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
# 2 + 4 + 5. pipeline-level criteria share the default runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def default_runs(tmp_path_factory):
    """Three full default pipelines, one per master seed, with wall times."""
    runs = []
    for seed in range(1, N_SEEDS + 1):
        out = tmp_path_factory.mktemp(f"default_seed{seed}")
        t0 = time.perf_counter()
        run_pipeline(ExperimentConfig(master_seed=seed), out)
        runs.append((out, time.perf_counter() - t0))
    return runs


def _summaries(runs, name):
    return [read_csv_dicts(out / f"analysis/{name}") for out, _ in runs]


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


VARIANTS = ("one_shot", "fine_tune", "random_reinit", "rpn1", "rpn2")


class TestCriterion4Trends:
    def _vprime(self, runs):
        return [
            {r["name"]: float(r["vprime"]) for r in rows}
            for rows in _summaries(runs, "eigen_summary.csv")
        ]

    def test_4a_level_volume_ordering(self, default_runs):
        eigs = self._vprime(default_runs)
        levels = ExperimentConfig().imp.levels
        wins = 0
        for L in range(1, levels + 1):
            v_min = np.mean([e[f"level{L:02d}"] for e in eigs])
            v_proj = np.mean([e[f"pr_level{L - 1:02d}_on_{L:02d}"] for e in eigs])
            wins += v_min < v_proj
        report("4a", wins >= 7, f"(seed-mean V' ordering holds at {wins}/{levels} levels)")

    def test_4b_final_level_radius(self, default_runs):
        wins = 0
        details = []
        for rows in _summaries(default_runs, "radius_summary.csv"):
            by = {r["name"]: float(r["mean_radius"]) for r in rows}
            wins += by["final_min"] > by["final_projected_prev"]
            details.append(f"{by['final_min']:.3f}>{by['final_projected_prev']:.3f}")
        report("4b", wins >= 2, f"(per-seed wins {wins}/3: {details})")

    def _barriers(self, runs):
        levels = ExperimentConfig().imp.levels
        per_seed = []
        for rows in _summaries(runs, "interp_summary.csv"):
            by = {r["name"]: float(r["barrier_height"]) for r in rows}
            per_seed.append(
                [by[f"interp_level{L - 1:02d}_level{L:02d}"] for L in range(1, levels + 1)]
            )
        return np.array(per_seed)

    def test_4c_successive_barriers(self, default_runs):
        mean_barriers = self._barriers(default_runs).mean(axis=0)
        count = int(np.sum(mean_barriers > 0.01))
        report(
            "4c",
            count >= 8,
            f"(seed-mean barriers > 0.01 at {count}/10 pairs: "
            f"{[round(float(b), 3) for b in mean_barriers]})",
        )

    def test_4d_reinit_barrier_dominates(self, default_runs):
        succ_mean = float(self._barriers(default_runs).mean())
        reinit = np.mean(
            [
                {r["name"]: float(r["barrier_height"]) for r in rows}["interp_random_reinit"]
                for rows in _summaries(default_runs, "interp_summary.csv")
            ]
        )
        report(
            "4d",
            reinit >= 2.0 * succ_mean,
            f"(reinit barrier {reinit:.3f} vs 2x successive mean {2 * succ_mean:.3f})",
        )

    def test_4e_prune_impact_and_final_accuracy(self, default_runs):
        impact_ok = True
        for rows in _summaries(default_runs, "prune_impact.csv"):
            by = {r["strategy"]: float(r["delta"]) for r in rows}
            impact_ok &= by["magnitude"] < by["random"]
        acc = {name: [] for name in ("level10",) + VARIANTS}
        for rows in _summaries(default_runs, "level_summary.csv"):
            by = {r["name"]: float(r["test_accuracy"]) for r in rows}
            for name in acc:
                acc[name].append(by[name])
        means = {name: float(np.mean(vals)) for name, vals in acc.items()}
        acc_ok = all(means["level10"] >= means[v] for v in VARIANTS)
        report(
            "4e",
            impact_ok and acc_ok,
            f"(magnitude<random impact all seeds: {impact_ok}; mean accuracies "
            + ", ".join(f"{k}={v:.4f}" for k, v in means.items())
            + ")",
        )

    def test_4f_fine_tune_sharper(self, default_runs):
        eigs = self._vprime(default_runs)
        final = f"level{ExperimentConfig().imp.levels:02d}"
        wins = sum(e["fine_tune"] > e[final] for e in eigs)
        report(
            "4f",
            wins >= 2,
            f"(per-seed wins {wins}/3: "
            + ", ".join(f"{e['fine_tune']:.1f} vs {e[final]:.1f}" for e in eigs)
            + ")",
        )

    def test_4g_one_shot_sharper(self, default_runs):
        eigs = self._vprime(default_runs)
        final = f"level{ExperimentConfig().imp.levels:02d}"
        wins = sum(e["one_shot"] > e[final] for e in eigs)
        report(
            "4g",
            wins >= 2,
            f"(per-seed wins {wins}/3: "
            + ", ".join(f"{e['one_shot']:.1f} vs {e[final]:.1f}" for e in eigs)
            + ")",
        )


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
