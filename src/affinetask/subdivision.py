"""Standard chromatic subdivision, its integer code, and geometry.

A subdivision vertex's payload is its carrier simplex in the base complex:
one subdivision level down for vertices of Chr K, two levels down (via the
payload's own payloads) for vertices of Chr Chr K. Facets of Chr K over a
facet tau of K are in bijection with ordered set partitions of tau's
vertices: the vertex for v in block B_i carries the sub-simplex spanned by
B_1 | ... | B_i.

Integer code: a Chr s vertex is its color and view (its carrier's color
mask); `packed_views` packs a Chr s simplex into one int, so the Chr s
carrier of a set of Chr Chr s vertices is the OR of their packed carriers.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .bits import mask_of
from .complexes import (MAX_PROCESSES, ChromaticComplex, ComplexError,
                        Simplex, Vertex, is_pure)


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_PROCESSES:
        raise ComplexError(
            f"n={n} out of range: constructions support 1..{MAX_PROCESSES} processes")


@lru_cache(maxsize=None)
def standard_simplex(n: int) -> ChromaticComplex:
    """The base complex: one facet on vertices colored 1..n."""
    _check_n(n)
    verts = tuple(Vertex(uid=str(c), color=c) for c in range(1, n + 1))
    return ChromaticComplex(n=n, facets=frozenset({Simplex(verts)}))


def chr_vertex(color: int, carrier: Simplex) -> Vertex:
    """Subdivision vertex of the given color carried by `carrier`.

    The carrier must contain a vertex of the same color (self-inclusion).
    """
    if color not in carrier.colors:
        raise ComplexError(f"carrier {carrier!r} has no vertex of color {color}")
    uid = "%d(%s)" % (color, ",".join(carrier.uids))
    return Vertex(uid=uid, color=color, payload=carrier)


def ordered_set_partitions(items: Sequence) -> Iterator[tuple[frozenset, ...]]:
    """Ordered partitions of `items` into nonempty blocks.

    Lexicographic in the sequence of sorted blocks.
    """
    items = sorted(items)
    if not items:
        yield ()
        return

    def rec(remaining: tuple) -> Iterator[tuple[frozenset, ...]]:
        if not remaining:
            yield ()
            return
        firsts = sorted(
            (combo for k in range(1, len(remaining) + 1)
             for combo in combinations(remaining, k)))
        for first in firsts:
            chosen = frozenset(first)
            rest = tuple(x for x in remaining if x not in chosen)
            for tail in rec(rest):
                yield (chosen,) + tail

    yield from rec(tuple(items))


def partition_to_facet(blocks: Sequence[Iterable[int]], n: int) -> Simplex:
    """Facet of Chr s for an ordered partition of colors 1..n.

    The vertex for a color in block i carries the union of blocks 1..i.
    """
    base = {v.color: v for v in standard_simplex(n).vertices}
    seen: set[int] = set()
    verts: list[Vertex] = []
    for block in blocks:
        block = set(block)
        if not block or block & seen or not block <= set(base):
            raise ComplexError(f"not an ordered partition of 1..{n}: {blocks!r}")
        seen |= block
        carrier = Simplex(tuple(base[c] for c in sorted(seen)))
        verts.extend(chr_vertex(c, carrier) for c in sorted(block))
    if seen != set(base):
        raise ComplexError(f"partition does not cover 1..{n}: {blocks!r}")
    return Simplex(tuple(verts))


def facet_to_partition(facet: Simplex) -> tuple[frozenset[int], ...]:
    """Inverse of partition_to_facet: group colors by equal carriers."""
    groups: dict[Simplex, set[int]] = {}
    for v in facet:
        if v.payload is None:
            raise ComplexError("not a subdivision facet")
        groups.setdefault(v.payload, set()).add(v.color)
    ordered = sorted(groups.items(), key=lambda kv: len(kv[0]))
    blocks = tuple(frozenset(colors) for _, colors in ordered)
    covered: set[int] = set()
    for (carrier_, _), block in zip(ordered, blocks):
        covered |= block
        if carrier_.colors != covered:
            raise ComplexError(f"carriers of {facet!r} do not form a run")
    return blocks


def build_chr(base: ChromaticComplex) -> ChromaticComplex:
    """Standard chromatic subdivision of a pure chromatic complex."""
    if not is_pure(base):
        raise ComplexError("build_chr requires a pure complex")
    vertex_pool: dict[str, Vertex] = {}

    def pooled(color: int, carrier: Simplex) -> Vertex:
        v = chr_vertex(color, carrier)
        return vertex_pool.setdefault(v.uid, v)

    new_facets: list[Simplex] = []
    for tau in base.sorted_facets():
        for blocks in ordered_set_partitions(tau.vertices):
            prefix: list[Vertex] = []
            verts: list[Vertex] = []
            for block in blocks:
                prefix.extend(block)
                carrier = Simplex(tuple(prefix))
                verts.extend(pooled(v.color, carrier) for v in block)
            new_facets.append(Simplex(tuple(verts)))
    return ChromaticComplex(n=base.n, facets=frozenset(new_facets))


@lru_cache(maxsize=None)
def chr_complex(n: int) -> ChromaticComplex:
    """Chr s for the standard n-process simplex."""
    return build_chr(standard_simplex(n))


@lru_cache(maxsize=None)
def chr2_complex(n: int) -> ChromaticComplex:
    """Chr Chr s: Chr applied to every facet of Chr s, glued on shared faces."""
    return build_chr(chr_complex(n))


def two_round_facet(blocks1: Sequence[Iterable[int]],
                    blocks2: Sequence[Iterable[int]], n: int) -> Simplex:
    """Facet of Chr Chr s for explicit first- and second-round runs.

    blocks1 is an ordered partition of colors 1..n; blocks2 is an ordered
    partition of the same colors describing the second round over the
    first-round facet's vertices.
    """
    f1 = partition_to_facet(blocks1, n)
    by_color = {v.color: v for v in f1}
    seen: list[Vertex] = []
    verts: list[Vertex] = []
    for block in blocks2:
        block = sorted(set(block))
        seen.extend(by_color[c] for c in block)
        carrier = Simplex(tuple(seen))
        verts.extend(chr_vertex(c, carrier) for c in block)
    facet = Simplex(tuple(verts))
    if facet.colors != frozenset(range(1, n + 1)):
        raise ComplexError("second round must cover all colors")
    return facet


# --- integer code -----------------------------------------------------------


def packed_views(sigma: Simplex) -> int:
    """A Chr s simplex as one int: the view mask of its color-c vertex in
    bits 5(c-1) .. 5c-1 (MAX_PROCESSES bits per color), 0 if c is absent."""
    if any(v.payload is None or v.payload.vertices[0].payload is not None
           for v in sigma):
        raise ComplexError(f"{sigma!r} is not a first-subdivision simplex")
    return sum(mask_of(v.payload.colors) << MAX_PROCESSES * (v.color - 1)
               for v in sigma)


# --- geometry ---------------------------------------------------------------


def geometry(v: Vertex, n: int) -> tuple[Fraction, ...]:
    """Exact barycentric coordinates of a subdivision vertex over corners 1..n.

    A corner maps to a unit vector. A subdivision vertex with carrier rho of
    size k sits at 1/(2k-1) times its own-color anchor plus 2/(2k-1) times
    each remaining vertex of rho, recursively.
    """
    if v.payload is None:
        return tuple(Fraction(1 if c == v.color else 0)
                     for c in range(1, n + 1))
    rho = v.payload
    k = len(rho)
    own = Fraction(1, 2 * k - 1)
    other = Fraction(2, 2 * k - 1)
    coords = [Fraction(0)] * n
    for u in rho:
        w = own if u.color == v.color else other
        for i, x in enumerate(geometry(u, n)):
            coords[i] += w * x
    return tuple(coords)
