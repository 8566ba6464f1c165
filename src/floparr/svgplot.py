"""Deterministic SVG pictures of two-dimensional arrangements.

One line element per hyperplane that crosses the drawing box, emitted
in the arrangement's sort order, clipped exactly to that box (the window
box for affine arrangements, the unit box for central ones) and
formatted with fixed three-decimal coordinates.  Level-0 hyperplanes are styled distinctly
from their integer translates.  Equal inputs give byte identical
output.
"""

from __future__ import annotations

from fractions import Fraction

from .arrangement import Arrangement
from .chambers import ChamberGraph
from .errors import NotRankTwo

VIEW = 600
_HALF = VIEW // 2

FINITE_STYLE = 'class="level0" stroke="#d6326e" stroke-width="2"'
SHIFT_STYLE = 'class="shift" stroke="#9aa0a6" stroke-width="1"'


def _dec(x: Fraction) -> str:
    """Round half up to three decimals, via integers only."""
    scaled = x * 1000
    floor = scaled.numerator // scaled.denominator
    value = floor + (1 if scaled - floor >= Fraction(1, 2) else 0)
    sign = "-" if value < 0 else ""
    mag = abs(value)
    return f"{sign}{mag // 1000}.{mag % 1000:03d}"


def _clip(normal, level, half: Fraction):
    """Endpoints of ``normal . x = level`` in the box [-half, half]^2, or None if it misses or only touches it."""
    a0, a1 = normal
    k = Fraction(level)
    points = set()
    if a1 != 0:
        for x in (-half, half):
            y = (k - a0 * x) / a1
            if -half <= y <= half:
                points.add((x, y))
    if a0 != 0:
        for y in (-half, half):
            x = (k - a1 * y) / a0
            if -half <= x <= half:
                points.add((x, y))
    ordered = sorted(points)
    return (ordered[0], ordered[-1]) if len(ordered) > 1 else None


def arrangement_svg(arr: Arrangement, graph: ChamberGraph | None = None) -> str:
    """Render the arrangement, optionally with chamber witness dots."""
    if arr.dim != 2:
        raise NotRankTwo(f"plotting needs dimension 2, got {arr.dim}")
    half = arr.radius if arr.radius is not None else Fraction(1)

    def px(x: Fraction) -> str:
        return _dec(_HALF + _HALF * x / half)

    def py(y: Fraction) -> str:
        return _dec(_HALF - _HALF * y / half)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEW}" height="{VIEW}" viewBox="0 0 {VIEW} {VIEW}">',
        f'<rect width="{VIEW}" height="{VIEW}" fill="#ffffff"/>',
    ]
    for h in arr.hyperplanes:
        ends = _clip(h.normal, h.level, half)
        if ends is None:
            continue
        (x1, y1), (x2, y2) = ends
        style = FINITE_STYLE if h.level == 0 else SHIFT_STYLE
        lines.append(
            f'<line x1="{px(x1)}" y1="{py(y1)}" x2="{px(x2)}" y2="{py(y2)}" {style}/>'
        )
    if graph is not None:
        for c in graph.chambers:
            fill = "#f1a7c3" if c.boundary else "#3b3b3b"
            lines.append(
                f'<circle cx="{px(c.witness[0])}" cy="{py(c.witness[1])}" r="3" fill="{fill}"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
