"""Span tracer for the traced run, and the per-layer metrics derived from it.

The tracer changes no program source. ``Tracer.install`` wraps public
functions of prunescope's modules from the outside: every module-level
binding of a wrapped function, ``from x import f`` copies included, is
replaced by a wrapper that records a span (id, name, parent id, start, end,
thread, extras). Calls the program makes through a module attribute at call
time, such as ``loss_on``'s lazy import of ``forward_loss``, are caught the
same way. A function that is gone or renamed is skipped, and the metrics
built on it are reported as absent.

Spans are kept in memory and written out once, at the end of the unit.
Each thread has its own span stack; work ``parallel_map`` hands to its
worker threads takes the map's span as parent.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import json
import math
import os
import sys
import threading
from time import perf_counter_ns

# (module, attribute, span name). Several functions may share a span name.
TARGETS = (
    ("prunescope.autodiff", "forward_loss", "autodiff.forward_loss"),
    ("prunescope.autodiff", "grad", "autodiff.grad"),
    ("prunescope.autodiff", "hvp", "autodiff.hvp"),
    ("prunescope.trainer", "train", "trainer.train"),
    ("prunescope.pruning", "magnitude_mask", "pruning.mask"),
    ("prunescope.pruning", "random_mask", "pruning.mask"),
    ("prunescope.landscape", "top_k_eigenvalues", "landscape.eigen"),
    ("prunescope.landscape", "mc_radius_profile", "landscape.radius.profile"),
    ("prunescope.landscape", "basin_radius", "landscape.radius"),
    ("prunescope.landscape", "interpolate_losses", "landscape.interp"),
    ("prunescope.landscape", "surface_grid", "landscape.surface"),
    ("prunescope.landscape", "taylor_prune_estimate", "landscape.taylor"),
    ("prunescope.numerics", "tridiag_eigenvalues", "numerics.tridiag_eigenvalues"),
    ("prunescope.numerics", "random_unit_direction", "numerics.random_unit_direction"),
    ("prunescope.parallel", "parallel_map", "parallel.map"),
    ("prunescope.experiment.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("prunescope.experiment.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("prunescope.experiment.tables", "write_csv", "tables.write_csv"),
    ("prunescope.experiment.plots", "emit_plots", "plots.emit"),
    ("prunescope.data", "gen_spirals", "data"),
    ("prunescope.data", "load_csv", "data"),
    ("prunescope.data", "save_csv", "data"),
    ("prunescope.data", "analysis_subset", "data"),
    ("prunescope.experiment.cli", "main", "cli.main"),
)
STAGE_TABLE = ("prunescope.experiment.pipeline", "_STAGE_FUNCS")

# Extras must never fail a run: a changed return type only loses the extra.
_EXTRA_ERRORS = (AttributeError, TypeError, IndexError, KeyError, ValueError, OSError)


def _matmul_flops(ctx) -> tuple[int, int]:
    """(sum over layers, sum over layers after the first) of 2*n*in*out."""
    return _flops_for(tuple(ctx.spec.layer_sizes), int(ctx.features.shape[0]))


@functools.lru_cache(maxsize=64)
def _flops_for(sizes: tuple, n: int) -> tuple[int, int]:
    per_layer = [2 * n * a * b for a, b in zip(sizes[:-1], sizes[1:])]
    return sum(per_layer), sum(per_layer[1:])


# Matmul FLOPs an exact implementation needs, computed from array shapes:
# the forward pass; the gradient adds dW for every layer and the input
# adjoint for every layer but the first; the R-operator HVP adds the tangent
# forward, the backward pass and its tangent.
def _forward_flops(args, kwargs, result):
    total, _ = _matmul_flops(args[0])
    return {"flops": total}


def _grad_flops(args, kwargs, result):
    total, inner = _matmul_flops(args[0])
    return {"flops": 2 * total + inner}


def _hvp_flops(args, kwargs, result):
    total, inner = _matmul_flops(args[0])
    return {"flops": 4 * total + 5 * inner}


def _fingerprint(args, kwargs) -> str:
    h = hashlib.sha256()
    for value in list(args) + [kwargs[k] for k in sorted(kwargs)]:
        tobytes = getattr(value, "tobytes", None)
        h.update(tobytes() if tobytes is not None else repr(value).encode())
    return h.hexdigest()


def _save_extra(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


EXTRAS = {
    "autodiff.forward_loss": _forward_flops,
    "autodiff.grad": _grad_flops,
    "autodiff.hvp": _hvp_flops,
    "trainer.train": lambda a, k, r: {"steps": int(r[2].steps)},
    "landscape.eigen": lambda a, k, r: {"iters": int(r.lanczos_iters)},
    "landscape.radius": lambda a, k, r: {"censored": int(not math.isfinite(r))},
    "landscape.interp": lambda a, k, r: {"points": int(len(r.alphas))},
    "landscape.surface": lambda a, k, r: {"cells": int(r.rows * r.cols)},
    "checkpoint.save": _save_extra,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.installed: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._seen_train: set[str] = set()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name):
        extra_fn = EXTRAS.get(name)
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else 0
            sid = next(ids)
            extra = None
            if name == "trainer.train":
                key = _fingerprint(args, kwargs)
                extra = {"replay": int(key in self._seen_train)}
                self._seen_train.add(key)
            ok = False
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                if ok and extra_fn is not None:
                    try:
                        extra = {**(extra or {}), **extra_fn(args, kwargs, result)}
                    except _EXTRA_ERRORS:
                        pass
                spans.append((sid, name, parent, t0, t1, threading.get_ident(), extra))

        return wrapper

    def _wrap_map(self, parallel_map):
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(parallel_map)
        def wrapper(fn, items):
            items = list(items)
            stack = stack_of()
            parent = stack[-1] if stack else 0
            sid = next(ids)
            threads = set()

            def task(item):
                worker_stack = stack_of()
                worker_stack.append(sid)
                threads.add(threading.get_ident())
                try:
                    return fn(item)
                finally:
                    worker_stack.pop()

            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                return parallel_map(task, items)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                extra = {"items": len(items), "threads": len(threads)}
                spans.append((sid, "parallel.map", parent, t0, t1, threading.get_ident(), extra))

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; remember which span names are live."""
        for module_name, attr, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                continue
            if name == "parallel.map":
                wrapper = self._wrap_map(original)
            else:
                wrapper = self._wrap(original, name)
            self._rebind(original, wrapper)
            self.installed.add(name)
        try:
            table = getattr(importlib.import_module(STAGE_TABLE[0]), STAGE_TABLE[1])
        except (ImportError, AttributeError):
            return
        for stage, fn in list(table.items()):
            table[stage] = self._wrap(fn, f"stage.{stage}")
        self.installed.add("stage")

    @staticmethod
    def _rebind(original, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("prunescope"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"installed": sorted(self.installed), "spans": self.spans}, fh)


# --------------------------------------------------------------------------
# per-layer metrics from a trace
# --------------------------------------------------------------------------

AUTODIFF = {"autodiff.forward_loss": "forward", "autodiff.grad": "grad", "autodiff.hvp": "hvp"}

# layer -> span names whose self time it owns; "stage" stands for every
# "stage.<name>" span of the pipeline
SELF_TIME_LAYERS = {
    "pipeline": ("stage",),
    "trainer": ("trainer.train",),
    "autodiff.forward_loss": ("autodiff.forward_loss",),
    "autodiff.grad": ("autodiff.grad",),
    "autodiff.hvp": ("autodiff.hvp",),
    "landscape.radius": ("landscape.radius", "landscape.radius.profile"),
    "landscape.eigen": ("landscape.eigen",),
    "landscape.interp": ("landscape.interp",),
    "landscape.surface": ("landscape.surface",),
    "landscape.taylor": ("landscape.taylor",),
    "parallel": ("parallel.map",),
    "pruning": ("pruning.mask",),
    "numerics": ("numerics.tridiag_eigenvalues", "numerics.random_unit_direction"),
    "checkpoint": ("checkpoint.save", "checkpoint.load"),
    "tables": ("tables.write_csv",),
    "plots": ("plots.emit",),
    "data": ("data",),
}
_LAYER_OF = {name: layer for layer, names in SELF_TIME_LAYERS.items() for name in names}


def _union_ns(intervals) -> int:
    covered, end = 0, None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            covered += stop - start
            end = stop
        elif stop > end:
            covered += stop - end
            end = stop
    return covered


def _family(name: str) -> str:
    return "stage" if name.startswith("stage.") else name


def layer_metrics(doc: dict) -> dict:
    """Per-layer metrics of one traced unit; absent layers give no metric."""
    live = set(doc["installed"])
    spans = {s[0]: s for s in doc["spans"]}
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    for s in spans.values():
        by_name.setdefault(s[1], []).append(s)
        children.setdefault(s[2], []).append(s)

    def dur(s) -> float:
        return (s[4] - s[3]) / 1e9

    def total_s(name) -> float:
        return sum(dur(s) for s in by_name.get(name, ()))

    def extra(s, key) -> float:
        return (s[6] or {}).get(key, 0)

    def ancestor(s, family):
        parent = spans.get(s[2])
        while parent is not None and _family(parent[1]) != family:
            parent = spans.get(parent[2])
        return parent

    def calls_under(name, family) -> int:
        return sum(1 for s in by_name.get(name, ()) if ancestor(s, family) is not None)

    m: dict[str, float] = {}
    if "stage" in live:
        for name, group in by_name.items():
            if name.startswith("stage."):
                m[f"{name}.s"] = sum(dur(s) for s in group)
        for name, kind in AUTODIFF.items():
            for s in by_name.get(name, ()):
                stage = ancestor(s, "stage")
                if stage is not None:
                    key = f"{stage[1]}.{kind}_calls"
                    m[key] = m.get(key, 0) + 1

    for name in AUTODIFF:
        group = by_name.get(name, ())
        if name in live:
            m[f"{name}.calls"] = len(group)
        if group:
            m[f"{name}.us_per_call"] = 1e6 * total_s(name) / len(group)
            m[f"{name}.gflops_computed"] = (
                sum(extra(s, "flops") for s in group) / total_s(name) / 1e9
            )

    directions = by_name.get("landscape.radius", ())
    if "landscape.radius" in live:
        m["landscape.radius.directions"] = len(directions)
    if directions:
        if "autodiff.forward_loss" in live:
            evals = calls_under("autodiff.forward_loss", "landscape.radius")
            m["landscape.radius.evals_per_direction"] = evals / len(directions)
        m["landscape.radius.ms_per_direction"] = 1e3 * total_s("landscape.radius") / len(directions)
        m["landscape.radius.censored_frac"] = (
            sum(extra(s, "censored") for s in directions) / len(directions)
        )
    for name, key, metric in (
        ("landscape.interp", "points", "landscape.interp.us_per_point"),
        ("landscape.surface", "cells", "landscape.surface.us_per_cell"),
    ):
        count = sum(extra(s, key) for s in by_name.get(name, ()))
        if count:
            m[metric] = 1e6 * total_s(name) / count

    if "parallel.map" in live:
        group = by_name.get("parallel.map", ())
        m["parallel.map.calls"] = len(group)
        m["parallel.map.items"] = sum(extra(s, "items") for s in group)
        m["parallel.map.s"] = total_s("parallel.map")
        m["parallel.map.threads"] = max((extra(s, "threads") for s in group), default=0)

    if "trainer.train" in live:
        group = by_name.get("trainer.train", ())
        steps = sum(extra(s, "steps") for s in group)
        replay = sum(extra(s, "steps") for s in group if extra(s, "replay"))
        m["trainer.train_calls"] = len(group)
        m["trainer.steps"] = steps
        m["trainer.replay_steps"] = replay
        if steps:
            m["trainer.us_per_step"] = 1e6 * total_s("trainer.train") / steps
            m["trainer.useful_step_frac"] = 1.0 - replay / steps

    if "pruning.mask" in live:
        group = by_name.get("pruning.mask", ())
        m["pruning.mask.calls"] = len(group)
        if group:
            m["pruning.mask.us_per_call"] = 1e6 * total_s("pruning.mask") / len(group)

    points = by_name.get("landscape.eigen", ())
    iters = sum(extra(s, "iters") for s in points)
    if "landscape.eigen" in live:
        m["landscape.eigen.points"] = len(points)
        m["landscape.eigen.lanczos_iters"] = iters
    if points and "autodiff.hvp" in live:
        m["landscape.eigen.hvp_per_point"] = calls_under("autodiff.hvp", "landscape.eigen") / len(points)
    if iters:
        m["landscape.eigen.ms_per_iter"] = 1e3 * total_s("landscape.eigen") / iters
    if "landscape.taylor" in live and "autodiff.hvp" in live:
        m["landscape.taylor.hvp_calls"] = calls_under("autodiff.hvp", "landscape.taylor")
    for name in ("numerics.tridiag_eigenvalues", "numerics.random_unit_direction"):
        group = by_name.get(name, ())
        if group:
            m[f"{name}.us_per_call"] = 1e6 * total_s(name) / len(group)

    if "checkpoint.save" in live:
        group = by_name.get("checkpoint.save", ())
        m["checkpoint.save.calls"] = len(group)
        m["checkpoint.save.mb"] = sum(extra(s, "bytes") for s in group) / 1e6
        m["checkpoint.save.s"] = total_s("checkpoint.save")
    for name in ("checkpoint.load", "tables.write_csv"):
        if name in live:
            m[f"{name}.calls"] = len(by_name.get(name, ()))
            m[f"{name}.s"] = total_s(name)
    for name in ("plots.emit", "data"):
        if name in live:
            m[f"{name}.s"] = total_s(name)

    # self time: a span's duration minus the part of it its children cover
    self_ns: dict[str, int] = {}
    for s in spans.values():
        layer = _LAYER_OF.get(_family(s[1]))
        if layer is not None:
            kids = [(c[3], c[4]) for c in children.get(s[0], ())]
            self_ns[layer] = self_ns.get(layer, 0) + s[4] - s[3] - _union_ns(kids)
    for layer, names in SELF_TIME_LAYERS.items():
        if any(name in live for name in names):
            m[f"{layer}.self_s"] = self_ns.get(layer, 0) / 1e9
    return m
