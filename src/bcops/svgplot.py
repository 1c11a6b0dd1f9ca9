"""Dependency-free SVG line plots of metric-vs-noise curves.

Axes are fixed to [0, 1] on both sides with ticks every 0.1. Data series
are the only <polyline> elements in the output; axes, grid, and the 1-alpha
reference line are <line> elements.
"""

from __future__ import annotations

from pathlib import Path

from .metrics import ABSTENTION_RATE, CLASS_COVERAGE, MEAN_COVERAGE, class_order

_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]

_WIDTH, _HEIGHT = 720, 480
_LEFT, _RIGHT, _TOP, _BOTTOM = 70, 170, 40, 60

_Y_TITLES = {
    CLASS_COVERAGE: "coverage rate",
    MEAN_COVERAGE: "average coverage rate",
    ABSTENTION_RATE: "outlier abstention rate",
}


def _x_px(phi: float) -> float:
    return _LEFT + phi * (_WIDTH - _LEFT - _RIGHT)


def _y_px(v: float) -> float:
    return (_HEIGHT - _BOTTOM) - v * (_HEIGHT - _TOP - _BOTTOM)


# Coordinates are printed as given: callers format the ones they round.
def _text(x, y, anchor: str, label: str, attrs: str = "") -> str:
    label = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f'<text x="{x}" y="{y}" text-anchor="{anchor}"{attrs}>{label}</text>'


def _line(x1, y1, x2, y2, stroke: str, width, attrs: str = "") -> str:
    return (
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
        f'stroke="{stroke}" stroke-width="{width}"{attrs}/>'
    )


def render_lineplot(summary_rows, metric: str, path, alpha: float = 0.05) -> None:
    """Write one SVG chart of the selected metric against the noise level.

    class_coverage gets one polyline per class; the other metrics get a
    single line. Coverage charts carry a dashed horizontal reference line
    at 1 - alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    rows = [r for r in summary_rows if r.metric_name == metric]
    if not rows:
        raise ValueError(f"no summary rows for metric {metric!r}")

    series: dict = {}
    for r in rows:
        series.setdefault(r.class_label, []).append((r.phi, r.mean))
    for pts in series.values():
        pts.sort()

    title = _Y_TITLES.get(metric, metric)

    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')
    out.append(_text(f"{(_LEFT + _WIDTH - _RIGHT) / 2:.1f}", 24, "middle", title, ' font-size="15"'))

    # grid and ticks every 0.1 on both axes
    x0, x1, y0, y1 = (f"{v:.1f}" for v in (_x_px(0), _x_px(1), _y_px(0), _y_px(1)))
    for i in range(11):
        t = i / 10
        x, y = _x_px(t), _y_px(t)
        out.append(_line(f"{x:.1f}", y0, f"{x:.1f}", y1, "#e0e0e0", 1))
        out.append(_line(x0, f"{y:.1f}", x1, f"{y:.1f}", "#e0e0e0", 1))
        out.append(_text(f"{x:.1f}", f"{_y_px(0) + 18:.1f}", "middle", f"{t:.1f}"))
        out.append(_text(f"{_x_px(0) - 8:.1f}", f"{y + 4:.1f}", "end", f"{t:.1f}"))

    # axes
    out.append(_line(x0, y0, x1, y0, "#000000", 1.5))
    out.append(_line(x0, y0, x0, y1, "#000000", 1.5))
    out.append(_text(f"{(_x_px(0) + _x_px(1)) / 2:.1f}", _HEIGHT - 16, "middle", "noise level"))
    ylab_y = f"{(_y_px(0) + _y_px(1)) / 2:.1f}"
    out.append(_text(18, ylab_y, "middle", title, f' transform="rotate(-90 18 {ylab_y})"'))

    legend_x = _WIDTH - _RIGHT + 20
    legend_y = _TOP + 10
    if metric in (CLASS_COVERAGE, MEAN_COVERAGE):
        y = f"{_y_px(1.0 - alpha):.1f}"
        out.append(_line(x0, y, x1, y, "#444444", 1.5, ' stroke-dasharray="6 4"'))
        out.append(_text(legend_x, legend_y, "start", f"target {1 - alpha:.2f}"))
        legend_y += 20

    for i, cls in enumerate(sorted(series, key=class_order)):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{_x_px(p):.2f},{_y_px(v):.2f}" for p, v in series[cls])
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{pts}"/>')
        out.append(_line(legend_x, legend_y - 4, legend_x + 22, legend_y - 4, color, 2))
        label = title if cls is None else f"class {cls}"
        out.append(_text(legend_x + 28, legend_y, "start", label))
        legend_y += 20

    out.append("</svg>")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
