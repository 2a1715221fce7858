"""Deterministic SVG rendering of planar circle patterns.

Byte-identical output for identical input: circles are emitted in vertex
order, floats use shortest round-trip repr, and the viewport is fitted
with a five percent margin.
"""
from __future__ import annotations

from typing import List, Optional

import numpy as np

from .configurations import EUCLIDEAN, CirclePattern
from .errors import UsageError


def _fmt(x: float) -> str:
    return repr(float(x))


def _edge_lines(p: CirclePattern, colour: str, width: float) -> List[str]:
    """One <line> between circle centres per edge of the triangulation."""
    cx, cy = p.centers.real, p.centers.imag
    return [f'<line x1="{_fmt(cx[u])}" y1="{_fmt(cy[u])}" '
            f'x2="{_fmt(cx[v])}" y2="{_fmt(cy[v])}" '
            f'stroke="{colour}" stroke-width="{_fmt(width)}"/>'
            for (u, v) in p.triangulation.edges]


def render_svg(
    p: CirclePattern,
    stroke_width: Optional[float] = None,
    show_contact_graph: bool = False,
    show_star_overlay: bool = False,
    size: int = 640,
) -> bytes:
    if p.mode != EUCLIDEAN:
        raise UsageError("SVG rendering expects a planar pattern")
    if size < 1:
        raise UsageError(f"size {size} below 1")
    if stroke_width is not None and not 0.0 <= stroke_width < float("inf"):
        raise UsageError(f"stroke width {stroke_width} is negative or not finite")
    cx, cy = p.centers.real, p.centers.imag
    r = p.radii
    lo_x, hi_x = float(np.min(cx - r)), float(np.max(cx + r))
    lo_y, hi_y = float(np.min(cy - r)), float(np.max(cy + r))
    span = max(hi_x - lo_x, hi_y - lo_y)
    pad = 0.05 * span
    lo_x, lo_y = lo_x - pad, lo_y - pad
    width, height = (hi_x - lo_x) + pad, (hi_y - lo_y) + pad
    if stroke_width is None:
        stroke_width = 0.004 * span

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="{_fmt(lo_x)} {_fmt(lo_y)} '
        f'{_fmt(width)} {_fmt(height)}">',
        # svg y grows downward; flip once around the viewport midline
        f'<g transform="translate(0 {_fmt(2 * lo_y + height)}) scale(1 -1)">',
    ]
    if show_star_overlay:
        lines += _edge_lines(p, "#c0c0c0", stroke_width * 0.6)
    for v in range(len(r)):
        lines.append(
            f'<circle cx="{_fmt(cx[v])}" cy="{_fmt(cy[v])}" r="{_fmt(r[v])}" '
            f'fill="none" stroke="#1f3d7a" stroke-width="{_fmt(stroke_width)}"/>'
        )
    if show_contact_graph:
        lines += _edge_lines(p, "#d23", stroke_width * 0.8)
    lines.append("</g>")
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode()
