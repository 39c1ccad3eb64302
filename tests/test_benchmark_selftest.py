"""The benchmark harness must still find every metric it declares.

``perfbench/selftest.py`` runs a tiny config, traced and untraced, and fails
when a metric named in ``BENCHMARK.json`` is not emitted, for example because
a function the tracer wraps was renamed or removed.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
