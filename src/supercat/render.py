"""Standalone SVG diagrams of lattice paths.

Up and down steps are diagonal segments, straight level steps are
horizontal segments, wavy level steps are horizontal sinusoids.  A unit
grid sits behind the path.  Each step carries a ``step`` class so the
segments are countable; optional markers flag the last level-one point
before the rightmost maximum (``marker-anchor``) and the rightmost
maximum itself (``marker-rightmost``), each with a ``data-x`` attribute
holding its point index.
"""

from __future__ import annotations

from .paths import LatticePath, markers

__all__ = [
    "render_svg",
]

_STEP_CLASS = {"U": "step-up", "D": "step-down", "S": "step-straight", "W": "step-wavy"}

_UNIT = 40  # pixels per step and per level
_PAD = 30  # margin around the grid, in pixels


def render_svg(path: LatticePath, *, show_markers: bool = False) -> str:
    """Render a path (any parsed path, valid or not) as a standalone SVG
    document string.

    ``show_markers`` requires a valid nonempty Dyck path; it draws labeled
    dots at the split anchor and at the rightmost maximum.
    """
    marks = markers(path) if show_markers else None

    n = max(len(path), 1)
    lo = min(path.levels)
    hi = max(max(path.levels), lo + 1)
    width = 2 * _PAD + n * _UNIT
    height = 2 * _PAD + (hi - lo) * _UNIT

    def px(x: int | float) -> float:
        return _PAD + x * _UNIT

    def py(level: int | float) -> float:
        return _PAD + (hi - level) * _UNIT

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<g class="grid" stroke="#ccc" stroke-width="1">',
    ]
    for x in range(n + 1):
        out.append(f'<line x1="{px(x)}" y1="{py(hi)}" x2="{px(x)}" y2="{py(lo)}"/>')
    for level in range(lo, hi + 1):
        w = "2" if level == 0 else "1"
        out.append(
            f'<line x1="{px(0)}" y1="{py(level)}" x2="{px(n)}" y2="{py(level)}" stroke-width="{w}"/>'
        )
    out.append("</g>")

    out.append('<g class="path" stroke="#1a4f8a" stroke-width="3" fill="none">')
    amp = _UNIT * 0.22
    for i, ch in enumerate(path.steps):
        x1, y1 = px(i), py(path.levels[i])
        x2, y2 = px(i + 1), py(path.levels[i + 1])
        cls = f"step {_STEP_CLASS[ch]}"
        if ch == "W":
            half = _UNIT / 2
            quarter = _UNIT / 4
            d = (
                f"M{x1},{y1} "
                f"q{quarter},{-amp} {half},0 "
                f"q{quarter},{amp} {half},0"
            )
            out.append(f'<path class="{cls}" d="{d}"/>')
        else:
            out.append(f'<line class="{cls}" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"/>')
    out.append("</g>")

    if marks is not None:
        r = _UNIT * 0.12
        for cls, x, label in (
            ("marker-anchor", marks.last_level_one, "anchor"),
            ("marker-rightmost", marks.rightmost_max, "rmax"),
        ):
            cx, cy = px(x), py(path.levels[x])
            out.append(f'<g class="marker {cls}" data-x="{x}">')
            out.append(f'<circle cx="{cx}" cy="{cy}" r="{r}" fill="#c23b22"/>')
            out.append(
                f'<text x="{cx}" y="{cy - _UNIT * 0.25}" font-size="{_UNIT * 0.3}" '
                f'text-anchor="middle" fill="#c23b22">{label}</text>'
            )
            out.append("</g>")

    out.append("</svg>")
    return "\n".join(out) + "\n"
