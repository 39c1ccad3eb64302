import time

import pytest
from helpers import DEFAULT_SEEDS

from prunescope.experiment import ExperimentConfig, run_pipeline


@pytest.fixture(scope="session")
def default_runs(tmp_path_factory):
    """Full default pipelines under ``<base>/seed{N}``, one per seed of
    ``DEFAULT_SEEDS``, with wall times."""
    base = tmp_path_factory.mktemp("default")
    runs = []
    for seed in DEFAULT_SEEDS:
        out = base / f"seed{seed}"
        t0 = time.perf_counter()
        run_pipeline(ExperimentConfig(master_seed=seed), out)
        runs.append((out, time.perf_counter() - t0))
    return runs


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance criteria verdicts after capture ends."""
    try:
        from test_acceptance import REPORT_LINES
    except ImportError:
        return
    if REPORT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in REPORT_LINES:
            terminalreporter.write_line(line)
