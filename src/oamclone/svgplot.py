"""Dependency-free SVG emission for the CLI convenience figures.

The CSV output is the source of truth; these figures are views only.
"""

from __future__ import annotations

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _fmt(x):
    return f"{x:.2f}"


def _scale(values, lo_px, hi_px):
    lo, hi = min(values, default=0.0), max(values, default=0.0)
    if hi == lo:
        hi = lo + 1.0
    span = hi - lo

    def to_px(v):
        return lo_px + (v - lo) / span * (hi_px - lo_px)

    return to_px, lo, hi


def line_plot(x, y, title, xlabel, ylabel) -> str:
    """Single polyline with axes and min/max tick labels."""
    sx, x_lo, x_hi = _scale(list(x), _ML, _W - _MR)
    y_vals = list(y) + [0.0]
    sy, y_lo, y_hi = _scale(y_vals, _H - _MB, _MT)
    pts = " ".join(f"{_fmt(sx(a))},{_fmt(sy(b))}" for a, b in zip(x, y))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="20" text-anchor="middle" font-size="15">{title}</text>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
        f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="2"/>',
        f'<text x="{_W / 2}" y="{_H - 12}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{_H / 2}" font-size="12" '
        f'transform="rotate(-90 16 {_H / 2})" text-anchor="middle">{ylabel}</text>',
        f'<text x="{_ML}" y="{_H - _MB + 16}" font-size="11" text-anchor="middle">{x_lo:g}</text>',
        f'<text x="{_W - _MR}" y="{_H - _MB + 16}" font-size="11" text-anchor="middle">{x_hi:g}</text>',
        f'<text x="{_ML - 6}" y="{_H - _MB}" font-size="11" text-anchor="end">{y_lo:g}</text>',
        f'<text x="{_ML - 6}" y="{_MT + 4}" font-size="11" text-anchor="end">{y_hi:g}</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def bloch_projection(vectors, title) -> str:
    """Equatorial projection of the Bloch sphere with input/output arrows.

    ``vectors`` is a list of (label, input_xyz, output_xyz); the (S1, S3)
    plane is drawn, inputs dashed, outputs solid.
    """
    cx, cy, r = _W / 2, _H / 2 + 10, 170
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="22" text-anchor="middle" font-size="15">{title}</text>',
        f'<circle cx="{cx}" cy="{cy}" r="{r}" fill="none" stroke="black"/>',
        f'<circle cx="{cx}" cy="{cy}" r="{_fmt(r * 2 / 3)}" fill="none" '
        'stroke="#888" stroke-dasharray="3 3"/>',
        f'<line x1="{cx - r}" y1="{cy}" x2="{cx + r}" y2="{cy}" stroke="#ccc"/>',
        f'<line x1="{cx}" y1="{cy - r}" x2="{cx}" y2="{cy + r}" stroke="#ccc"/>',
    ]
    for label, vin, vout in vectors:
        for vec, style in ((vin, 'stroke="#777" stroke-dasharray="5 4"'),
                           (vout, 'stroke="#b22222" stroke-width="2"')):
            x = cx + vec[0] * r
            y = cy - vec[2] * r
            parts.append(f'<line x1="{cx}" y1="{cy}" x2="{_fmt(x)}" y2="{_fmt(y)}" {style}/>')
        x = cx + vin[0] * r
        y = cy - vin[2] * r
        parts.append(f'<text x="{_fmt(x + 6)}" y="{_fmt(y)}" font-size="11">{label}</text>')
    parts.append(f'<text x="{cx + r + 4}" y="{cy + 4}" font-size="12">S1</text>')
    parts.append(f'<text x="{cx - 8}" y="{cy - r - 6}" font-size="12">S3</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
