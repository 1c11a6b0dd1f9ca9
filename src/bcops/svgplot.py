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


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _x_px(phi: float) -> float:
    return _LEFT + phi * (_WIDTH - _LEFT - _RIGHT)


def _y_px(v: float) -> float:
    return (_HEIGHT - _BOTTOM) - v * (_HEIGHT - _TOP - _BOTTOM)


def render_lineplot(summary_rows, metric: str, path, alpha: float = 0.05) -> None:
    """Write one SVG chart of the selected metric against the noise level.

    class_coverage gets one polyline per class; the other metrics get a
    single line. Coverage charts carry a dashed horizontal reference line
    at 1 - alpha.
    """
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
    out.append(
        f'<text x="{(_LEFT + _WIDTH - _RIGHT) / 2:.1f}" y="24" text-anchor="middle" '
        f'font-size="15">{_esc(title)}</text>'
    )

    # grid and ticks every 0.1 on both axes
    for i in range(11):
        t = i / 10
        x, y = _x_px(t), _y_px(t)
        out.append(
            f'<line x1="{x:.1f}" y1="{_y_px(0):.1f}" x2="{x:.1f}" y2="{_y_px(1):.1f}" '
            f'stroke="#e0e0e0" stroke-width="1"/>'
        )
        out.append(
            f'<line x1="{_x_px(0):.1f}" y1="{y:.1f}" x2="{_x_px(1):.1f}" y2="{y:.1f}" '
            f'stroke="#e0e0e0" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.1f}" y="{_y_px(0) + 18:.1f}" text-anchor="middle">{t:.1f}</text>'
        )
        out.append(
            f'<text x="{_x_px(0) - 8:.1f}" y="{y + 4:.1f}" text-anchor="end">{t:.1f}</text>'
        )

    # axes
    out.append(
        f'<line x1="{_x_px(0):.1f}" y1="{_y_px(0):.1f}" x2="{_x_px(1):.1f}" y2="{_y_px(0):.1f}" '
        f'stroke="#000000" stroke-width="1.5"/>'
    )
    out.append(
        f'<line x1="{_x_px(0):.1f}" y1="{_y_px(0):.1f}" x2="{_x_px(0):.1f}" y2="{_y_px(1):.1f}" '
        f'stroke="#000000" stroke-width="1.5"/>'
    )
    out.append(
        f'<text x="{(_x_px(0) + _x_px(1)) / 2:.1f}" y="{_HEIGHT - 16}" '
        f'text-anchor="middle">noise level</text>'
    )
    ylab_y = (_y_px(0) + _y_px(1)) / 2
    out.append(
        f'<text x="18" y="{ylab_y:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {ylab_y:.1f})">{_esc(title)}</text>'
    )

    legend_x = _WIDTH - _RIGHT + 20
    legend_y = _TOP + 10
    if metric in (CLASS_COVERAGE, MEAN_COVERAGE):
        y = _y_px(1.0 - alpha)
        out.append(
            f'<line x1="{_x_px(0):.1f}" y1="{y:.1f}" x2="{_x_px(1):.1f}" y2="{y:.1f}" '
            f'stroke="#444444" stroke-width="1.5" stroke-dasharray="6 4"/>'
        )
        out.append(
            f'<text x="{legend_x}" y="{legend_y}" text-anchor="start">target {1 - alpha:.2f}</text>'
        )
        legend_y += 20

    for i, cls in enumerate(sorted(series, key=class_order)):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{_x_px(p):.2f},{_y_px(v):.2f}" for p, v in series[cls])
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{pts}"/>')
        out.append(
            f'<line x1="{legend_x}" y1="{legend_y - 4}" x2="{legend_x + 22}" y2="{legend_y - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        label = title if cls is None else f"class {cls}"
        out.append(
            f'<text x="{legend_x + 28}" y="{legend_y}" text-anchor="start">{_esc(label)}</text>'
        )
        legend_y += 20

    out.append("</svg>")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
