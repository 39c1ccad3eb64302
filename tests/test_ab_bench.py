"""The A/B benchmark script's summary of paired results."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "ab_bench.py"
_spec = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

DECLARED = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.25},
    {"name": "speed", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def _line(correct=True, **values):
    return {
        "correct": correct,
        "attempted": 3,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()},
    }


class TestSummarize:
    def test_medians_quartiles_and_wins(self):
        pairs = [
            (_line(wall_s=10.0, speed=1.0), _line(wall_s=8.0, speed=2.0)),
            (_line(wall_s=12.0, speed=1.0), _line(wall_s=13.0, speed=0.5)),
            (_line(wall_s=14.0, speed=1.0), _line(wall_s=9.0, speed=1.0)),
            (_line(wall_s=16.0, speed=1.0), _line(wall_s=10.0, speed=3.0)),
        ]
        s = ab_bench.summarize(pairs, DECLARED)
        wall = s["wall_s"]
        assert wall["pairs"] == 4
        assert wall["parent_median"] == 13.0
        assert wall["change_median"] == 9.5
        assert wall["parent_quartiles"] == [11.5, 14.5]
        assert wall["change_over_parent"] == pytest.approx(9.5 / 13.0, abs=1e-4)
        assert wall["change_wins"] == 3
        # higher is better; a tie is not a win
        assert s["speed"]["change_wins"] == 2
        assert "peak_rss_mb" not in s
        assert s["failed"] == {"parent": 0, "change": 0}

    def test_pairs_missing_a_metric_are_left_out_and_failures_counted(self):
        pairs = [
            (_line(wall_s=10.0), _line(wall_s=9.0)),
            (_line(wall_s=11.0), {"correct": False, "error": "boom", "metrics": {}}),
        ]
        s = ab_bench.summarize(pairs, DECLARED)
        assert s["wall_s"]["pairs"] == 1
        assert s["wall_s"]["parent_quartiles"] == [10.0, 10.0]
        assert s["failed"] == {"parent": 0, "change": 1}


def test_parse_seeds():
    assert ab_bench.parse_seeds("1-3") == [1, 2, 3]
    assert ab_bench.parse_seeds("1,4-5,9") == [1, 4, 5, 9]


def test_compare_digests():
    digests = {1: (["a", "a"], ["a"]), 2: (["a"], ["b"]), 3: (["a"], []), 4: ([], [])}
    assert ab_bench.compare_digests(digests) == {"equal": 1, "differ": [2, 3, 4]}


# a stand-in for perfbench/run.py: records the digest DIGESTS gives the seed
# (exiting 1 without a result for a seed it lacks) and prints a result line
_FAKE_RUN = """
import argparse, json, pathlib, sys
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag)
args = parser.parse_args()
if args.seed not in DIGESTS:
    sys.exit(1)
results = pathlib.Path(".perfbench/results")
results.mkdir(parents=True, exist_ok=True)
name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
(results / name).write_text(json.dumps({"digests": [DIGESTS[args.seed]] * 2}))
metrics = {"wall_s": {"value": float(args.seed), "unit": "s"}}
print(json.dumps({"correct": True, "attempted": 2, "failed": 0, "metrics": metrics}))
"""


def test_main_records_and_compares_each_runs_digests(tmp_path, capsys):
    sides = {"parent": {"1": "d1", "2": "d2", "3": "d3"}, "change": {"1": "d1", "2": "e2"}}
    for side, digests in sides.items():
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench/run.py").write_text(f"DIGESTS = {digests!r}\n{_FAKE_RUN}")
    (tmp_path / "change/BENCHMARK.json").write_text(json.dumps({"end_to_end": DECLARED}))
    bench = tmp_path / "bench.json"
    ab_bench.main([
        "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
        "--workload", "w", "--seeds", "1-3", "--seconds", "1", "--bench", str(bench),
    ])
    doc = json.loads(bench.read_text())
    assert doc["summary"]["w (seeds 1-3)"]["digests"] == {"equal": 1, "differ": [2, 3]}
    recorded = {(run["seed"], run["side"]): run["digests"] for run in doc["runs"]}
    assert recorded[(2, "parent")] == ["d2", "d2"] and recorded[(2, "change")] == ["e2", "e2"]
    assert recorded[(3, "change")] == []
    assert "digests: 1 pairs equal, differ on seeds [2, 3]" in capsys.readouterr().out
