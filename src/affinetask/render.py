"""Deterministic drawings of chromatic complexes.

SVG for n <= 3 (the base simplex is realized as a segment or triangle and
every subdivision vertex sits at its exact rational coordinates), an
OFF-style mesh for n = 4. No randomness, no timestamps: equal inputs give
byte-identical output.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .complexes import ChromaticComplex, ComplexError, Simplex, Vertex
from .subdivision import geometry

# vertex dot fill, by process color
PROCESS_COLORS = {1: "#d62728", 2: "#2ca02c", 3: "#1f77b4",
                  4: "#9467bd", 5: "#8c564b"}

# layer palette, first layer blue
HIGHLIGHT_COLORS = ("#1f77b4", "#d62728", "#ff7f0e", "#9467bd",
                    "#17becf", "#bcbd22")

# planar corners of the base simplex, process 1 bottom-left, 2 top, 3 bottom-right
_CORNERS_2D = {
    1: ((Fraction(0), Fraction(0)),),
    2: ((Fraction(0), Fraction(0)), (Fraction(1000), Fraction(0))),
    3: ((Fraction(0), Fraction(0)), (Fraction(500), Fraction(866)),
        (Fraction(1000), Fraction(0))),
}

# tetrahedron corners for the n=4 mesh export
_CORNERS_3D = ((Fraction(0), Fraction(0), Fraction(0)),
               (Fraction(1000), Fraction(0), Fraction(0)),
               (Fraction(500), Fraction(866), Fraction(0)),
               (Fraction(500), Fraction(289), Fraction(816)))


def _fmt(x: Fraction) -> str:
    """Fixed-point decimal with three places, trailing zeros stripped."""
    scaled = round(x * 1000)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, frac = divmod(scaled, 1000)
    tail = f"{frac:03d}".rstrip("0")
    return f"{sign}{whole}.{tail}" if tail else f"{sign}{whole}"


def project_vertex(v: Vertex, n: int) -> tuple[Fraction, Fraction]:
    if n not in _CORNERS_2D:
        raise ComplexError(f"planar drawing needs n <= 3, got n={n}")
    corners = _CORNERS_2D[n]
    weights = geometry(v, n)
    x = sum((w * c[0] for w, c in zip(weights, corners)), Fraction(0))
    y = sum((w * c[1] for w, c in zip(weights, corners)), Fraction(0))
    return x, y


def _xy(v: Vertex, n: int, height: Fraction) -> tuple[str, str]:
    x, y = project_vertex(v, n)
    return _fmt(x), _fmt(height - y)


def render_complex_svg(K: ChromaticComplex,
                       highlights: Sequence[tuple[Iterable[Simplex], str]] = (),
                       labels: bool = False) -> str:
    """Draw the complex with optional highlight layers.

    highlights: (simplices, fill color) pairs, drawn in order above the base
    complex. Every element of layer i carries class "hl{i}", one element per
    highlighted simplex, so consumers can count them.
    """
    n = K.n
    if n not in _CORNERS_2D:
        raise ComplexError(f"SVG rendering needs n <= 3, got n={n}")
    height = Fraction(866) if n == 3 else Fraction(0)
    view_h = 966 if n == 3 else 140
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="-50 -50 1100 {view_h}" width="550" height="{view_h // 2}">',
    ]

    def poly_points(s: Simplex) -> str:
        pts = [_xy(v, n, height) for v in s]
        return " ".join(f"{x},{y}" for x, y in pts)

    parts.append('<g fill="#ececec" stroke="none">')
    for facet in K.sorted_facets():
        if facet.dim >= 2:
            parts.append(f'<polygon class="face" points="{poly_points(facet)}"/>')
    parts.append("</g>")

    edges = sorted((s for s in K.simplices() if s.dim == 1),
                   key=lambda s: s.uids)
    parts.append('<g stroke="#888888" stroke-width="2">')
    for e in edges:
        (x1, y1), (x2, y2) = (_xy(v, n, height) for v in e)
        parts.append(f'<line class="edge" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"/>')
    parts.append("</g>")

    for idx, (simplices, color) in enumerate(highlights):
        cls = f"hl{idx}"
        ordered = sorted(set(simplices), key=lambda s: (-len(s), s.uids))
        parts.append(f'<g fill="{color}" stroke="{color}">')
        for s in ordered:
            if s.dim >= 2:
                parts.append(f'<polygon class="{cls}" points="{poly_points(s)}" '
                             'fill-opacity="0.55" stroke-width="3"/>')
            elif s.dim == 1:
                (x1, y1), (x2, y2) = (_xy(v, n, height) for v in s)
                parts.append(f'<line class="{cls}" x1="{x1}" y1="{y1}" '
                             f'x2="{x2}" y2="{y2}" stroke-width="10" '
                             'stroke-linecap="round" stroke-opacity="0.85"/>')
            else:
                x, y = _xy(s.vertices[0], n, height)
                parts.append(f'<circle class="{cls}" cx="{x}" cy="{y}" r="17" '
                             'fill-opacity="0.85" stroke="none"/>')
        parts.append("</g>")

    parts.append('<g stroke="#333333" stroke-width="1.5">')
    for v in sorted(K.vertices, key=lambda v: (v.color, v.uid)):
        x, y = _xy(v, n, height)
        fill = PROCESS_COLORS[v.color]
        parts.append(f'<circle class="vertex" cx="{x}" cy="{y}" r="9" fill="{fill}"/>')
    parts.append("</g>")

    if labels:
        parts.append('<g font-family="monospace" font-size="22" fill="#222222">')
        for v in sorted(K.vertices, key=lambda v: (v.color, v.uid)):
            x, y = _xy(v, n, height)
            parts.append(f'<text class="label" x="{x}" y="{y}" dx="12" dy="-12">'
                         f"{_escape(v.uid)}</text>")
        parts.append("</g>")

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def render_off(K: ChromaticComplex) -> str:
    """OFF-style triangle mesh for n = 4: all 2-faces (facets' vertex triples)."""
    if K.n != 4:
        raise ComplexError(f"OFF export is for n=4, got n={K.n}")
    verts = sorted(K.vertices, key=lambda v: v.uid)
    index = {v.uid: i for i, v in enumerate(verts)}
    triangles = sorted({tri for f in K.facets for tri in combinations(f.uids, 3)})
    lines = ["OFF", f"{len(verts)} {len(triangles)} 0"]
    for v in verts:
        weights = geometry(v, 4)
        coords = [sum((w * c[axis] for w, c in zip(weights, _CORNERS_3D)),
                      Fraction(0)) for axis in range(3)]
        lines.append(" ".join(_fmt(c) for c in coords))
    for tri in triangles:
        ids = " ".join(str(index[uid]) for uid in tri)
        lines.append(f"3 {ids}")
    return "\n".join(lines) + "\n"
