"""Minimal deterministic SVG line plots (no timestamps, fixed formatting)."""

from __future__ import annotations

from dataclasses import dataclass

WIDTH = 640
HEIGHT = 400
MARGIN = 48


@dataclass(frozen=True)
class Series:
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    color: str = "#1f77b4"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _panel(series, xlabel: str, ylabel: str, y_offset: int, height: int) -> list[str]:
    xs_all = [x for s in series for x in s.xs]
    ys_all = [y for s in series for y in s.ys]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    plot_w = WIDTH - 2 * MARGIN
    plot_h = height - 2 * MARGIN

    def px(x):
        return MARGIN + plot_w * (x - x0) / (x1 - x0)

    def py(y):
        return y_offset + height - MARGIN - plot_h * (y - y0) / (y1 - y0)

    out = [
        f'<rect x="{MARGIN}" y="{y_offset + MARGIN}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444444" stroke-width="1"/>'
    ]
    for s in series:
        points = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(s.xs, s.ys))
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
