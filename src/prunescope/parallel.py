"""Index-ordered mapping for the per-item landscape probes.

Per-direction radius searches and per-cell grid losses are pure and
independent; each item derives its own random stream from its index, so
results do not depend on evaluation order. They run sequentially: threads
on these small numpy calls made every measured run slower.

``parallel_map`` stays a named function, called from its two sites in
``landscape``, because the benchmark harness (``perfbench/``) wraps it by
name and reports the ``parallel.*`` metrics from those spans. Dropping it
means dropping those metrics from ``BENCHMARK.json`` in the same change.
"""

from __future__ import annotations


def parallel_map(fn, items):
    """Map a pure function over items, preserving input order in the result."""
    return [fn(item) for item in items]
