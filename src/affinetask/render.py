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
from .subdivision import barycentric_points

# vertex dot fill, by process color
PROCESS_COLORS = {1: "#d62728", 2: "#2ca02c", 3: "#1f77b4",
                  4: "#9467bd", 5: "#8c564b"}

# layer palette, first layer blue
HIGHLIGHT_COLORS = ("#1f77b4", "#d62728", "#ff7f0e", "#9467bd",
                    "#17becf", "#bcbd22")

# planar corners of the base simplex, process 1 bottom-left, 2 top, 3 bottom-right
_CORNERS_2D = {
    1: ((0, 0),),
    2: ((0, 0), (1000, 0)),
    3: ((0, 0), (500, 866), (1000, 0)),
}

# tetrahedron corners for the n=4 mesh export
_CORNERS_3D = ((0, 0, 0), (1000, 0, 0), (500, 866, 0), (500, 289, 816))


def _fmt(x: Fraction | int, den: int = 1) -> str:
    """x / den as a fixed-point decimal with three places, rounded half to
    even (as round() rounds a Fraction), trailing zeros stripped."""
    num, den = x.numerator * 1000, x.denominator * den
    scaled, rest = divmod(num, den)
    if 2 * rest > den or 2 * rest == den and scaled % 2:
        scaled += 1
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, frac = divmod(scaled, 1000)
    tail = f"{frac:03d}".rstrip("0")
    return f"{sign}{whole}.{tail}" if tail else f"{sign}{whole}"


def _project(vertices: Iterable[Vertex], n: int, corners: Sequence[tuple[int, ...]]
             ) -> tuple[dict[Vertex, tuple[int, ...]], int]:
    """Each vertex's exact position among the corners, as integer
    coordinates over one common denominator."""
    points, den = barycentric_points(vertices, n)
    axes = tuple(zip(*corners))
    return {v: tuple(sum(w * c for w, c in zip(weights, axis)) for axis in axes)
            for v, weights in points.items()}, den


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
    height = 866 if n == 3 else 0
    view_h = 966 if n == 3 else 140
    layers = [(sorted(set(simplices), key=lambda s: (-len(s), s.uids)), color)
              for simplices, color in highlights]
    # every vertex drawn is placed and formatted once; y grows downward
    points, den = _project(
        K.vertices.union(*(s.vertices for ordered, _ in layers for s in ordered)),
        n, _CORNERS_2D[n])
    xy = {v: (_fmt(x, den), _fmt(height * den - y, den))
          for v, (x, y) in points.items()}
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="-50 -50 1100 {view_h}" width="550" height="{view_h // 2}">',
    ]

    def poly_points(s: Simplex) -> str:
        return " ".join(f"{x},{y}" for x, y in map(xy.__getitem__, s))

    parts.append('<g fill="#ececec" stroke="none">')
    for facet in K.sorted_facets():
        if facet.dim >= 2:
            parts.append(f'<polygon class="face" points="{poly_points(facet)}"/>')
    parts.append("</g>")

    edges = sorted((s for s in K.simplices() if s.dim == 1),
                   key=lambda s: s.uids)
    parts.append('<g stroke="#888888" stroke-width="2">')
    for e in edges:
        (x1, y1), (x2, y2) = map(xy.__getitem__, e)
        parts.append(f'<line class="edge" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"/>')
    parts.append("</g>")

    for idx, (ordered, color) in enumerate(layers):
        cls = f"hl{idx}"
        parts.append(f'<g fill="{color}" stroke="{color}">')
        for s in ordered:
            if s.dim >= 2:
                parts.append(f'<polygon class="{cls}" points="{poly_points(s)}" '
                             'fill-opacity="0.55" stroke-width="3"/>')
            elif s.dim == 1:
                (x1, y1), (x2, y2) = map(xy.__getitem__, s)
                parts.append(f'<line class="{cls}" x1="{x1}" y1="{y1}" '
                             f'x2="{x2}" y2="{y2}" stroke-width="10" '
                             'stroke-linecap="round" stroke-opacity="0.85"/>')
            else:
                x, y = xy[s.vertices[0]]
                parts.append(f'<circle class="{cls}" cx="{x}" cy="{y}" r="17" '
                             'fill-opacity="0.85" stroke="none"/>')
        parts.append("</g>")

    vertices = sorted(K.vertices, key=lambda v: (v.color, v.uid))
    parts.append('<g stroke="#333333" stroke-width="1.5">')
    for v in vertices:
        x, y = xy[v]
        fill = PROCESS_COLORS[v.color]
        parts.append(f'<circle class="vertex" cx="{x}" cy="{y}" r="9" fill="{fill}"/>')
    parts.append("</g>")

    if labels:
        parts.append('<g font-family="monospace" font-size="22" fill="#222222">')
        for v in vertices:
            x, y = xy[v]
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
    # a facet's vertices are sorted by uid, so its index triples sort as
    # its uid triples do
    triangles = sorted({tri for f in K.facets
                        for tri in combinations(map(index.__getitem__, f.uids), 3)})
    points, den = _project(verts, 4, _CORNERS_3D)
    lines = ["OFF", f"{len(verts)} {len(triangles)} 0"]
    lines.extend(" ".join(_fmt(c, den) for c in points[v]) for v in verts)
    lines.extend("3 %d %d %d" % tri for tri in triangles)
    return "\n".join(lines) + "\n"
