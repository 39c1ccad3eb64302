"""Runs one unit of a workload in a fresh process and reports its timings.

    python3 perfbench/worker.py '<request JSON>'

The request names the config overrides, the seed, the verb sequence (or
none for one ``run_pipeline`` call), the artifact directory, whether to stop
after set-up, an optional trace file and the result file. The result holds
wall-clock marks (``time.time()``, comparable with the parent's spawn time),
the peak RSS, and on failure the traceback. Without a trace file nothing is
wrapped.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def stage_end_times(out, manifest: dict) -> dict[str, float]:
    """Per stage, the newest modification time of its artifacts (epoch s).

    The pipeline writes a stage's artifacts as the stage finishes, so this
    splits one ``run_pipeline`` call into phases without wrapping anything.
    """
    ends = {}
    for stage, rels in manifest["stages"].items():
        if rels:
            ends[stage] = max(os.stat(Path(out) / rel).st_mtime_ns for rel in rels) / 1e9
    return ends


def _run(req: dict) -> dict:
    from prunescope.experiment import config_from_dict, run_pipeline

    tracer = None
    if req["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    out = Path(req["out"])
    cfg_dict = {**req["overrides"], "master_seed": req["seed"]}
    marks = {}
    try:
        if req["verbs"] is None:
            cfg = config_from_dict(cfg_dict)
            if req["setup_only"]:
                run_pipeline(cfg, out, stages=["data"])
                marks["setup_end"] = time.time()
            else:
                from workloads import TRAIN_PHASE_LAST

                manifest = run_pipeline(cfg, out)
                marks["end"] = time.time()
                ends = stage_end_times(out, manifest)
                marks["setup_end"] = ends["data"]
                marks["train_end"] = ends[TRAIN_PHASE_LAST]
        else:
            from prunescope.experiment import cli

            config_path = out.with_name(out.name + ".config.json")
            config_path.write_text(json.dumps(cfg_dict), encoding="utf-8")
            for phase, verb in req["verbs"]:
                code = cli.main(list(verb) + ["--config", str(config_path), "--out", str(out)])
                if code != 0:
                    raise RuntimeError(f"verb {' '.join(verb)} exited with code {code}")
                marks[f"{phase}_end"] = time.time()
                if req["setup_only"]:
                    break
            marks["end"] = marks[f"{phase}_end"]
    finally:
        if tracer is not None:
            tracer.dump(req["trace"])
    return marks


def main(argv: list[str]) -> int:
    req = json.loads(argv[1])
    result = {"ok": False}
    try:
        result["marks"] = _run(req)
        result["ok"] = True
    except Exception:  # reported to the parent, which counts the run as failed
        result["error"] = traceback.format_exc()
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(req["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
