"""Command-line front end.

Each verb names pipeline stages and runs them together with the stages they
read, and nothing else, resuming from whatever already exists in the output
directory:

    gen-data    dataset generation only
    train       dense training (init / rewind / level00 checkpoints, level-0 iterates)
    imp         all pruning levels
    variant X   one comparison run (one-shot | fine-tune | random-reinit | random-prune)
    analyze Y   one analysis family (eigen | radius | interp | surface | geometry | taylor)
    pipeline    everything, plots included
    plot        figures from an existing artifact directory

So ``analyze radius`` and ``analyze taylor``, which read only the pruning
levels, train no comparison variants, while ``analyze eigen``, ``interp``,
``surface`` and ``geometry`` train the four variants first.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..errors import ConfigError, DivergenceError, NumericalFailureError, PrunescopeError
from .config import ExperimentConfig, load_config
from .pipeline import STAGES, run_pipeline
from .plots import emit_plots

_VERB_STAGES = {"gen-data": "data", "train": "dense", "imp": "imp"}
# `variant random-prune` runs the stage variant_random_prune, and so on
_VARIANT_STAGES = {
    name.removeprefix("variant_").replace("_", "-"): name
    for name in STAGES
    if name.startswith("variant_")
}
_ANALYSES = ("eigen", "geometry", "interp", "radius", "surface", "taylor")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prunescope",
        description="Train, prune iteratively by magnitude, and analyze loss-landscape geometry.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name: str, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", help="JSON experiment config (defaults built in)")
        p.add_argument("--out", help="artifact directory (overrides config out_dir)")
        return p

    add("gen-data", help="generate or ingest the datasets")
    add("train", help="train the dense network")
    add("imp", help="run all iterative pruning levels")
    variant = add("variant", help="run one comparison strategy")
    variant.add_argument("which", choices=sorted(_VARIANT_STAGES))
    analyze = add("analyze", help="run one analysis family")
    analyze.add_argument("which", choices=_ANALYSES)
    add("pipeline", help="run every stage including plots")
    add("plot", help="emit SVG figures from an existing artifact directory")
    return parser


def _load(args) -> ExperimentConfig:
    return load_config(args.config) if args.config else ExperimentConfig()


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        out = args.out if args.out else cfg.out_dir
        if Path(out).exists() and not Path(out).is_dir():
            raise ConfigError(f"output path {out} exists and is not a directory")
        if args.verb == "plot":
            emit_plots(out)
        elif args.verb == "pipeline":
            run_pipeline(cfg, out)
        elif args.verb == "variant":
            run_pipeline(cfg, out, stages=[_VARIANT_STAGES[args.which]])
        elif args.verb == "analyze":
            run_pipeline(cfg, out, stages=[args.which])
        else:
            run_pipeline(cfg, out, stages=[_VERB_STAGES[args.verb]])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailureError, DivergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except PrunescopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
