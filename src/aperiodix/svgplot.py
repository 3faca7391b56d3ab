"""Minimal deterministic SVG line plots (no timestamps, fixed formatting)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WIDTH = 640
HEIGHT = 400
MARGIN = 48


@dataclass(frozen=True)
class Series:
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    color: str = "#1f77b4"


def _panel(series, xlabel: str, ylabel: str, y_offset: int, height: int) -> list[str]:
    xs = [np.asarray(s.xs, dtype=float) for s in series]
    ys = [np.asarray(s.ys, dtype=float) for s in series]
    x0, x1 = min(a.min() for a in xs), max(a.max() for a in xs)
    y0, y1 = min(a.min() for a in ys), max(a.max() for a in ys)
    # a constant series spans 1.0, or the next float where x0 + 1.0 == x0
    if x1 == x0:
        x1 = x0 + 1.0 if x0 + 1.0 != x0 else np.nextafter(x0, np.inf)
    if y1 == y0:
        y1 = y0 + 1.0 if y0 + 1.0 != y0 else np.nextafter(y0, np.inf)
    plot_w = WIDTH - 2 * MARGIN
    plot_h = height - 2 * MARGIN

    out = [
        f'<rect x="{MARGIN}" y="{y_offset + MARGIN}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444444" stroke-width="1"/>'
    ]
    # the per-point formula MARGIN + plot_w (x - x0) / (x1 - x0), and its y
    # twin, in the same operations and order, so the same floats and bytes
    with np.errstate(over="ignore", invalid="ignore"):
        pxs = [MARGIN + plot_w * (a - x0) / (x1 - x0) for a in xs]
        pys = [y_offset + height - MARGIN - plot_h * (a - y0) / (y1 - y0) for a in ys]
    for s, px, py in zip(series, pxs, pys):
        points = " ".join(map("{:.6g},{:.6g}".format, px.tolist(), py.tolist()))
        out.append(f'<polyline fill="none" stroke="{s.color}" '
                   f'stroke-width="1" points="{points}"/>')
    out.append(f'<text x="{WIDTH // 2}" y="{y_offset + height - 10}" '
               f'text-anchor="middle" font-size="13">{xlabel}</text>')
    out.append(f'<text x="14" y="{y_offset + height // 2}" text-anchor="middle" '
               f'font-size="13" transform="rotate(-90 14 {y_offset + height // 2})">'
               f'{ylabel}</text>')
    return out


def render_svg(panels) -> str:
    """panels: list of (series list, xlabel, ylabel); stacked vertically."""
    panels = [(list(series), xl or "k", yl or "S(k)") for series, xl, yl in panels]
    for series, _, _ in panels:
        if not series or any(len(s.xs) == 0 for s in series):
            raise ValueError("every panel needs nonempty series")
    total_h = HEIGHT * len(panels)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{total_h}" viewBox="0 0 {WIDTH} {total_h}">',
        f'<rect width="{WIDTH}" height="{total_h}" fill="#ffffff"/>',
    ]
    for i, (series, xlabel, ylabel) in enumerate(panels):
        parts.extend(_panel(series, xlabel, ylabel, i * HEIGHT, HEIGHT))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
