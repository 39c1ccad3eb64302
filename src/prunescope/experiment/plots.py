"""Self-contained SVG figures generated straight from the pipeline CSVs.

No plotting library: charts are assembled as SVG strings so outputs stay
dependency-free, deterministic, and diffable. Histogram bars carry a
``data-count`` attribute and polylines one vertex per data row, which keeps
the figures machine-checkable.
"""

from __future__ import annotations

import math
from pathlib import Path

from ..errors import ArtifactMissingError
from ..pruning import VARIANT_TABLE, level_name, projection_name
from .config import load_config
from .tables import load_manifest, read_csv_dicts

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 55
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _axis(lo: float, hi: float) -> tuple[float, float]:
    if hi == lo:
        pad = 1.0 if hi == 0 else abs(hi) * 0.1
        return lo - pad, hi + pad
    return lo, hi


class _Chart:
    def __init__(self, title: str, xlabel: str, ylabel: str):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.body: list[str] = []
        self.x_range = (0.0, 1.0)
        self.y_range = (0.0, 1.0)

    def set_ranges(self, xs, ys):
        self.x_range = _axis(min(xs), max(xs))
        self.y_range = _axis(min(ys), max(ys))

    def px(self, x: float) -> float:
        lo, hi = self.x_range
        return MARGIN_L + (x - lo) / (hi - lo) * (WIDTH - MARGIN_L - MARGIN_R)

    def py(self, y: float) -> float:
        lo, hi = self.y_range
        return HEIGHT - MARGIN_B - (y - lo) / (hi - lo) * (HEIGHT - MARGIN_T - MARGIN_B)

    def polyline(self, xs, ys, color: str, label: str | None = None):
        points = " ".join(f"{self.px(x):.2f},{self.py(y):.2f}" for x, y in zip(xs, ys))
        self.body.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        if label:
            index = len([b for b in self.body if b.startswith("<text class=\"legend\"")])
            y = MARGIN_T + 14 * (index + 1)
            self.body.append(
                f'<text class="legend" x="{WIDTH - MARGIN_R - 150}" y="{y}" '
                f'font-size="11" fill="{color}">{_escape(label)}</text>'
            )

    def circles(self, xs, ys, color: str, radius: float = 3.0, labels=None):
        for i, (x, y) in enumerate(zip(xs, ys)):
            self.body.append(
                f'<circle cx="{self.px(x):.2f}" cy="{self.py(y):.2f}" '
                f'r="{radius}" fill="{color}"/>'
            )
            if labels is not None:
                self.body.append(
                    f'<text x="{self.px(x) + 4:.2f}" y="{self.py(y) - 4:.2f}" '
                    f'font-size="9" fill="#222">{_escape(labels[i])}</text>'
                )

    def render(self) -> str:
        xlo, xhi = self.x_range
        ylo, yhi = self.y_range
        axes = [
            f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" x2="{WIDTH - MARGIN_R}" '
            f'y2="{HEIGHT - MARGIN_B}" stroke="#444"/>',
            f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
            f'y2="{HEIGHT - MARGIN_B}" stroke="#444"/>',
        ]
        for i in range(5):
            fx = xlo + (xhi - xlo) * i / 4
            fy = ylo + (yhi - ylo) * i / 4
            axes.append(
                f'<text x="{self.px(fx):.2f}" y="{HEIGHT - MARGIN_B + 16}" font-size="10" '
                f'text-anchor="middle" fill="#444">{fx:.4g}</text>'
            )
            axes.append(
                f'<text x="{MARGIN_L - 6}" y="{self.py(fy) + 3:.2f}" font-size="10" '
                f'text-anchor="end" fill="#444">{fy:.4g}</text>'
            )
        labels = [
            f'<text x="{WIDTH / 2}" y="20" font-size="13" text-anchor="middle" '
            f'fill="#111">{_escape(self.title)}</text>',
            f'<text x="{WIDTH / 2}" y="{HEIGHT - 12}" font-size="11" '
            f'text-anchor="middle" fill="#333">{_escape(self.xlabel)}</text>',
            f'<text x="16" y="{HEIGHT / 2}" font-size="11" text-anchor="middle" '
            f'fill="#333" transform="rotate(-90 16 {HEIGHT / 2})">{_escape(self.ylabel)}</text>',
        ]
        content = "\n".join(axes + labels + self.body)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">\n<rect width="{WIDTH}" height="{HEIGHT}" '
            f'fill="white"/>\n{content}\n</svg>\n'
        )


def line_chart(path, series, title, xlabel, ylabel, markers=False):
    chart = _Chart(title, xlabel, ylabel)
    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    chart.set_ranges(all_x, all_y)
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        chart.polyline(xs, ys, color, label)
        if markers:
            chart.circles(xs, ys, color, radius=2.5)
    Path(path).write_text(chart.render(), encoding="utf-8")


def histogram(path, values, bins, title, xlabel):
    finite = [v for v in values if math.isfinite(v)]
    lo, hi = _axis(min(finite), max(finite))
    edges = [lo + (hi - lo) * i / bins for i in range(bins + 1)]
    counts = [0] * bins
    for v in finite:
        idx = min(int((v - lo) / (hi - lo) * bins), bins - 1)
        counts[idx] += 1
    chart = _Chart(title, xlabel, "directions")
    chart.set_ranges([lo, hi], [0, max(counts) or 1])
    for i, count in enumerate(counts):
        x0 = chart.px(edges[i])
        x1 = chart.px(edges[i + 1])
        y0 = chart.py(count)
        chart.body.append(
            f'<rect data-count="{count}" x="{x0:.2f}" y="{y0:.2f}" '
            f'width="{max(x1 - x0 - 1, 0.5):.2f}" height="{HEIGHT - MARGIN_B - y0:.2f}" '
            f'fill="{PALETTE[0]}" stroke="white" stroke-width="0.5"/>'
        )
    Path(path).write_text(chart.render(), encoding="utf-8")


def _heat_color(t: float) -> str:
    # dark blue -> green -> yellow ramp
    t = min(max(t, 0.0), 1.0)
    if t < 0.5:
        u = t / 0.5
        r, g, b = int(20 + 30 * u), int(40 + 160 * u), int(120 - 60 * u)
    else:
        u = (t - 0.5) / 0.5
        r, g, b = int(50 + 200 * u), int(200 + 40 * u), int(60 - 30 * u)
    return f"rgb({r},{g},{b})"


def heatmap(path, xs, ys, cells, points, title, cap):
    chart = _Chart(title, "plane x", "plane y")
    chart.set_ranges(xs, ys)
    values = [min(v, cap) for _, _, v in cells]
    lo, hi = _axis(min(values), max(values))
    w = (chart.px(xs[1]) - chart.px(xs[0])) if len(xs) > 1 else 4
    h = (chart.py(ys[0]) - chart.py(ys[1])) if len(ys) > 1 else 4
    for x, y, v in cells:
        t = (min(v, cap) - lo) / (hi - lo) if hi > lo else 0.0
        chart.body.append(
            f'<rect x="{chart.px(x) - w / 2:.2f}" y="{chart.py(y) - h / 2:.2f}" '
            f'width="{abs(w):.2f}" height="{abs(h):.2f}" fill="{_heat_color(t)}"/>'
        )
    chart.circles(
        [p[1] for p in points],
        [p[2] for p in points],
        "#ffffff",
        radius=3.5,
        labels=[p[0] for p in points],
    )
    Path(path).write_text(chart.render(), encoding="utf-8")


def emit_plots(artifact_dir) -> list[str]:
    """Render every figure the artifact directory supports; returns relpaths.

    Requires a manifest and the echoed ``config.json``, which names the final
    level; raises :class:`ArtifactMissingError` naming the missing artifact
    when a needed file is absent.
    """
    out = Path(artifact_dir)
    if not (out / "manifest.json").exists():
        raise ArtifactMissingError(
            f"no manifest.json under {out}; expected pipeline artifacts such as "
            "analysis/level_summary.csv, analysis/interp_summary.csv, "
            "analysis/eigen_summary.csv, analysis/radius_summary.csv, "
            "analysis/surface_grid.csv"
        )
    available = {rel for rels in load_manifest(out)["stages"].values() for rel in rels}
    (out / "plots").mkdir(parents=True, exist_ok=True)
    emitted: list[str] = []

    def need(rel: str) -> Path:
        path = out / rel
        if not path.exists():
            raise ArtifactMissingError(f"expected artifact {rel} is missing")
        return path

    cfg = load_config(need("config.json"))
    levels = cfg.imp.levels
    final = level_name(levels)

    # loss / accuracy across levels
    if "analysis/level_summary.csv" in available:
        rows = read_csv_dicts(need("analysis/level_summary.csv"))
        names = {level_name(level) for level in range(levels + 1)}
        level_rows = [r for r in rows if r["name"] in names]
        xs = [int(r["level"]) for r in level_rows]
        line_chart(
            out / "plots/train_loss_by_level.svg",
            [("train loss", xs, [float(r["train_loss"]) for r in level_rows])],
            "Training loss per pruning level",
            "level",
            "loss",
            markers=True,
        )
        emitted.append("plots/train_loss_by_level.svg")
        line_chart(
            out / "plots/test_acc_by_level.svg",
            [("test accuracy", xs, [float(r["test_accuracy"]) for r in level_rows])],
            "Test accuracy per pruning level",
            "level",
            "accuracy",
            markers=True,
        )
        emitted.append("plots/test_acc_by_level.svg")

    # eigenvalue comparisons
    if "analysis/eigen_values.csv" in available:
        rows = read_csv_dicts(need("analysis/eigen_values.csv"))
        by_name: dict[str, list[tuple[int, float]]] = {}
        for r in rows:
            by_name.setdefault(r["name"], []).append((int(r["rank"]), float(r["eigenvalue"])))
        # the final level against the previous level projected onto its mask
        projected = [projection_name(levels - 1, levels)] if levels > 0 else []
        variants = [v.name for v in VARIANT_TABLE if v.name in by_name]
        for rel, others, title in (
            ("plots/eigen_final.svg", projected, "Top Hessian eigenvalues at the final level"),
            ("plots/eigen_variants.svg", variants, "Top Hessian eigenvalues: variants vs final level"),
        ):
            series = [(name, *zip(*sorted(by_name[name]))) for name in [final, *others]]
            line_chart(out / rel, series, title, "rank", "eigenvalue", markers=True)
            emitted.append(rel)

    # radius histograms
    for rel in sorted(a for a in available if a.startswith("analysis/radius_") and a.endswith(".csv")):
        if rel == "analysis/radius_summary.csv":
            continue
        rows = read_csv_dicts(need(rel))
        radii = [float(r["radius"]) for r in rows if r["censored"] == "0"]
        name = rel.removeprefix("analysis/radius_").removesuffix(".csv")
        svg_rel = f"plots/radius_{name}.svg"
        histogram(out / svg_rel, radii, bins=30, title=f"Basin radii: {name}", xlabel="radius")
        emitted.append(svg_rel)

    # interpolation curves
    for rel in sorted(a for a in available if a.startswith("analysis/interp_") and a.endswith(".csv")):
        if rel == "analysis/interp_summary.csv":
            continue
        rows = read_csv_dicts(need(rel))
        name = rel.removeprefix("analysis/").removesuffix(".csv")
        svg_rel = f"plots/{name}.svg"
        line_chart(
            out / svg_rel,
            [(name, [float(r["alpha"]) for r in rows], [float(r["loss"]) for r in rows])],
            f"Loss along the segment: {name}",
            "alpha",
            "loss",
        )
        emitted.append(svg_rel)

    # surface heatmap with points of interest
    if "analysis/surface_grid.csv" in available:
        cells = [
            (float(r["x"]), float(r["y"]), float(r["loss"]))
            for r in read_csv_dicts(need("analysis/surface_grid.csv"))
        ]
        points = [
            (r["name"], float(r["x"]), float(r["y"]))
            for r in read_csv_dicts(need("analysis/surface_points.csv"))
        ]
        xs = sorted({c[0] for c in cells})
        ys = sorted({c[1] for c in cells})
        heatmap(
            out / "plots/surface.svg",
            xs,
            ys,
            cells,
            points,
            "Loss surface through the anchor plane",
            cap=cfg.analysis.loss_cap,
        )
        emitted.append("plots/surface.svg")

    # distances to the projected rewind point
    if "analysis/rewind_distances.csv" in available:
        rows = read_csv_dicts(need("analysis/rewind_distances.csv"))
        xs = [int(r["level"]) for r in rows]
        line_chart(
            out / "plots/rewind_distances.svg",
            [
                ("projected previous min", xs, [float(r["dist_projected_prev"]) for r in rows]),
                ("level minimum", xs, [float(r["dist_min"]) for r in rows]),
            ],
            "Distance to the projected rewind point",
            "level",
            "euclidean distance",
            markers=True,
        )
        emitted.append("plots/rewind_distances.svg")

    if not emitted:
        raise ArtifactMissingError(
            "no plottable artifacts found; expected analysis CSVs such as "
            "analysis/level_summary.csv"
        )
    return emitted
