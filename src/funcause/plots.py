"""Minimal hand-rolled SVG output: line plots and box plots.

Tables are the primary benchmark artifact; these plots are conveniences
with no styling knobs beyond a title and series labels.
"""
from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = ["line_plot_svg", "box_plot_svg"]

_WIDTH, _HEIGHT = 640, 420
_MARGIN = 50
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")


def _scale(vals, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return out_lo + (np.asarray(vals, dtype=float) - lo) * (out_hi - out_lo) / span


def _y_range(arrays) -> tuple:
    """The lowest and highest value of ``arrays``, widened by 1 either way
    when they are equal."""
    all_y = np.concatenate(arrays)
    lo_y, hi_y = float(all_y.min()), float(all_y.max())
    return (lo_y - 1.0, hi_y + 1.0) if lo_y == hi_y else (lo_y, hi_y)


def _write_svg(path, title: str, lo_x, hi_x, lo_y, hi_y, body: list) -> None:
    """Write one chart to ``path``: the canvas with ``title``, the plot frame
    with the ends of both axes labelled, and the elements of ``body``."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="16">{title}</text>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_WIDTH - 2 * _MARGIN}" '
        f'height="{_HEIGHT - 2 * _MARGIN}" fill="none" stroke="#888"/>',
        f'<text x="{_MARGIN}" y="{_HEIGHT - _MARGIN + 18}" font-family="sans-serif" '
        f'font-size="11">{lo_x:.3g}</text>',
        f'<text x="{_WIDTH - _MARGIN}" y="{_HEIGHT - _MARGIN + 18}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{hi_x:.3g}</text>',
        f'<text x="{_MARGIN - 6}" y="{_HEIGHT - _MARGIN}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{lo_y:.3g}</text>',
        f'<text x="{_MARGIN - 6}" y="{_MARGIN + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{hi_y:.3g}</text>',
        *body,
        "</svg>",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))


def line_plot_svg(
    path,
    x: Sequence[float],
    series: Sequence[Sequence[float]],
    labels: Optional[Sequence[str]] = None,
    title: str = "",
) -> None:
    """Write a multi-series line plot to ``path``."""
    x = np.asarray(x, dtype=float)
    mats = [np.asarray(s, dtype=float) for s in series]
    lo_x, hi_x = float(x.min()), float(x.max())
    lo_y, hi_y = _y_range(mats)
    parts = []
    px = _scale(x, lo_x, hi_x, _MARGIN, _WIDTH - _MARGIN)
    for k, ys in enumerate(mats):
        py = _scale(ys, lo_y, hi_y, _HEIGHT - _MARGIN, _MARGIN)
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        color = _COLORS[k % len(_COLORS)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        if labels:
            parts.append(
                f'<text x="{_WIDTH - _MARGIN - 4}" y="{_MARGIN + 16 + 14 * k}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11" fill="{color}">{labels[k]}</text>'
            )
    _write_svg(path, title, lo_x, hi_x, lo_y, hi_y, parts)


def box_plot_svg(
    path,
    groups: Sequence[Sequence[float]],
    labels: Optional[Sequence[str]] = None,
    title: str = "",
) -> None:
    """Write a box plot (median, quartiles, min/max whiskers) per group."""
    data = [np.asarray(g, dtype=float) for g in groups]
    lo_y, hi_y = _y_range(data)
    parts = []
    slot = (_WIDTH - 2 * _MARGIN) / len(data)
    box_w = slot * 0.5

    def ypix(v):
        return float(_scale([v], lo_y, hi_y, _HEIGHT - _MARGIN, _MARGIN)[0])

    for k, g in enumerate(data):
        cx = _MARGIN + slot * (k + 0.5)
        q1, med, q3 = (float(np.quantile(g, q)) for q in (0.25, 0.5, 0.75))
        ymin, ymax = float(g.min()), float(g.max())
        color = _COLORS[k % len(_COLORS)]
        x0, x1 = cx - box_w / 2, cx + box_w / 2
        parts += [
            f'<line x1="{cx:.1f}" y1="{ypix(ymin):.1f}" x2="{cx:.1f}" y2="{ypix(ymax):.1f}" '
            f'stroke="{color}"/>',
            f'<rect x="{x0:.1f}" y="{ypix(q3):.1f}" width="{box_w:.1f}" '
            f'height="{abs(ypix(q1) - ypix(q3)):.1f}" fill="none" stroke="{color}"/>',
            f'<line x1="{x0:.1f}" y1="{ypix(med):.1f}" x2="{x1:.1f}" y2="{ypix(med):.1f}" '
            f'stroke="{color}" stroke-width="2"/>',
        ]
        label = labels[k] if labels else str(k)
        parts.append(
            f'<text x="{cx:.1f}" y="{_HEIGHT - _MARGIN + 32}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    _write_svg(path, title, 0, len(data), lo_y, hi_y, parts)
