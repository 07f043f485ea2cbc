"""Standard chromatic subdivision, its integer code, and its geometry.

A subdivision vertex's payload is its carrier simplex in the base complex:
one subdivision level down for vertices of Chr K, two levels down (via the
payload's own payloads) for vertices of Chr Chr K.

A run of the immediate snapshot is an ordered partition of the colors 1..n;
each color's view is the union of the blocks up to its own. The facets of
Chr s are the runs, and the facets of Chr Chr s are the pairs of runs: a
round-two view holds the round-one view of every color it saw (Kozlov 2012).

Integer code: a Chr s vertex is its color and view (its carrier's color
mask); `packed_views` packs a Chr s simplex into one int, so the Chr s
carrier of a set of Chr Chr s vertices is the OR of their packed carriers.
A Chr Chr s vertex is one int, its packed carrier above its color in the
low three bits. This module alone derives it: `chr2_codes` codes a
round-two run over a packed round-one run, `chr2_facet_codes` the facet
at each run-pair id, and `chr2_vertex` turns a code into the pooled
`Vertex`. Its carrier comes from one pool of Chr s simplices,
`chr1_simplex`, the one place a packed word becomes a Chr s simplex; a
word that is no face of a run raises. Facets are built on this code, from
one enumeration of the runs per n, `all_runs`: a facet of Chr s is the
pooled simplex of a packed run, and Chr Chr s is assembled one round-one
run at a time, from one row of vertices per run. A sub-complex of Chr Chr
s is a `CodeComplex`, the run-pair ids of its facets, which answers "do
these codes lie in one facet?" (`holds`); `chr2_code_complex` is all of
Chr Chr s so held.

Geometry is exact and on integers: `barycentric_points` places each vertex
once per call, from its carrier's points, over one common denominator.
"""
from __future__ import annotations

from array import array
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, combinations
from math import lcm
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Sequence

from .bits import colors_of, integer, iter_bits, mask_of
from .complexes import (MAX_PROCESSES, ChromaticComplex, ComplexError,
                        Simplex, Vertex, facet_index, in_one_facet)

_COLOR = attrgetter("color")
_CORNERS = {c: Vertex(uid=str(c), color=c) for c in range(1, MAX_PROCESSES + 1)}
_VIEW = (1 << MAX_PROCESSES) - 1  # one color's field of a packed Chr s simplex
# per color mask, the fields of its colors with every bit set
_FIELDS = tuple(sum(_VIEW << MAX_PROCESSES * b for b in iter_bits(m))
                for m in range(1 << MAX_PROCESSES))


def _check_n(n: int) -> None:
    if not 1 <= integer(n, "n", ComplexError) <= MAX_PROCESSES:
        raise ComplexError(
            f"n={n} out of range: constructions support 1..{MAX_PROCESSES} processes")


@lru_cache(maxsize=None)
def standard_simplex(n: int) -> ChromaticComplex:
    """The base complex: one facet on vertices colored 1..n."""
    _check_n(n)
    verts = tuple(_CORNERS[c] for c in range(1, n + 1))
    return ChromaticComplex(n=n, facets=frozenset({Simplex(verts)}))


def chr_vertex(color: int, carrier: Simplex) -> Vertex:
    """Subdivision vertex of the given color carried by `carrier`.

    The carrier must contain a vertex of the same color (self-inclusion).
    """
    if color not in map(_COLOR, carrier.vertices):
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
    for first in sorted(combo for k in range(1, len(items) + 1)
                        for combo in combinations(items, k)):
        rest = [x for x in items if x not in first]
        for tail in ordered_set_partitions(rest):
            yield (frozenset(first),) + tail


# --- runs -------------------------------------------------------------------


def _run(blocks: Sequence[Iterable[int]], n: int) -> list[tuple[int, int]]:
    """(color, view mask) of each color of an ordered partition of 1..n:
    its view is the union of the blocks up to its own."""
    _check_n(n)
    colors, seen, run = set(range(1, n + 1)), set(), []
    for block in map(set, blocks):
        if not block or block & seen or not block <= colors:
            raise ComplexError(f"not an ordered partition of 1..{n}: {blocks!r}")
        seen |= block
        run.extend((c, mask_of(seen)) for c in sorted(block))
    if seen != colors:
        raise ComplexError(f"partition does not cover 1..{n}: {blocks!r}")
    return run


def pack(views: Iterable[tuple[int, int]]) -> int:
    """(color, view mask) pairs as one int, as by `packed_views`."""
    return sum(view << MAX_PROCESSES * (c - 1) for c, view in views)


@lru_cache(maxsize=None)
def chr1_vertex(color: int, view: int) -> Vertex:
    """The Chr s vertex of `color` that saw the colors of mask `view`."""
    return chr_vertex(color, Simplex(tuple(_CORNERS[c] for c in colors_of(view))))


def chr2_codes(views1: int, run: Iterable[tuple[int, int]]) -> list[int]:
    """The vertex codes of a round-two run's (color, view mask) pairs over
    the packed round-one run views1: each color's packed carrier, the
    fields of views1 that its view holds, above the color."""
    return [(views1 & _FIELDS[view]) << 3 | color for color, view in run]


def chr2_facet_codes(n: int, ids: Iterable[int]) -> Iterator[list[int]]:
    """The vertex codes of the Chr Chr s facet at each run-pair id, i *
    len(all_runs(n)) + j for runs i and j; each round-one run is packed
    once per run of equal i."""
    runs = all_runs(n)
    size, last, views1 = len(runs), -1, -1
    for k in ids:
        i, j = divmod(k, size)
        if i != last:
            last, views1 = i, pack(runs[i])
        yield chr2_codes(views1, runs[j])


@lru_cache(maxsize=None)
def chr1_simplex(packed: int) -> Simplex:
    """The pooled Chr s simplex of a packed view word (`packed_views`):
    the `chr1_vertex` of each color with a nonzero field, that field its
    view mask. Raises ComplexError unless the views are those of a face of
    a run: each holds its own color, they form a chain under inclusion,
    and a color's view holds the view of every present color it saw."""
    views = [(c, view) for c in range(1, MAX_PROCESSES + 1)
             if (view := packed >> MAX_PROCESSES * (c - 1) & _VIEW)]
    # per view a of color c and each view b: c in a, and a inside b or b
    # inside a without c
    if (not views or packed >> MAX_PROCESSES * MAX_PROCESSES or not all(
            a >> c - 1 & 1 and (a & b == a or a & b == b and not b >> c - 1 & 1)
            for c, a in views for _, b in views)):
        raise ComplexError(f"packed views {packed:#x} are no Chr s simplex")
    return Simplex(tuple(chr1_vertex(c, view) for c, view in views))


@lru_cache(maxsize=None)
def chr2_vertex(code: int) -> Vertex:
    """The Chr Chr s vertex of a code: its color, code & 7, whose round-two
    view is the Chr s simplex `chr1_simplex(code >> 3)`, the round-one view
    mask of each color it saw in that color's field."""
    return chr_vertex(code & 7, chr1_simplex(code >> 3))


def simplex_of_codes(codes: Iterable[int]) -> Simplex:
    """The Chr Chr s simplex of the given vertex codes."""
    return Simplex(tuple(map(chr2_vertex, codes)))


def partition_to_facet(blocks: Sequence[Iterable[int]], n: int) -> Simplex:
    """Facet of Chr s for an ordered partition of colors 1..n.

    The vertex for a color in block i carries the union of blocks 1..i.
    """
    return chr1_simplex(pack(_run(blocks, n)))


@lru_cache(maxsize=None)
def all_runs(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Every run of 1..n as (color, view mask) pairs, in the order of
    `ordered_set_partitions`: the one enumeration Chr s and Chr Chr s read."""
    _check_n(n)  # before enumerating the runs
    return tuple(tuple(_run(blocks, n))
                 for blocks in ordered_set_partitions(range(1, n + 1)))


@lru_cache(maxsize=None)
def chr_complex(n: int) -> ChromaticComplex:
    """Chr s for the standard n-process simplex: one facet per run."""
    return ChromaticComplex(n=n, facets=frozenset(
        chr1_simplex(pack(run)) for run in all_runs(n)))


@lru_cache(maxsize=None)
def chr2_facets(n: int) -> tuple[Simplex, ...]:
    """The facets of Chr Chr s in run-pair order: the facet of runs i and j
    of `all_runs(n)` is at i * len(all_runs(n)) + j.

    Assembled one round-one run at a time: the vertices of every (color,
    view) pair of a run, over round-one run i, make one row, and the facet
    of runs i and j is the row's entries at run j's pairs, in color order
    (uid order, as colors are single digits)."""
    runs = all_runs(n)
    pairs = sorted(set(chain.from_iterable(runs)))  # by color, then view
    at = {pair: k for k, pair in enumerate(pairs)}
    # itemgetter of one key returns the entry, not a 1-tuple; at n = 1 the
    # one pair's row is the one facet
    picks = ([itemgetter(*sorted(map(at.__getitem__, run))) for run in runs]
             if n > 1 else [tuple])
    facets = []
    for run in runs:
        row = tuple(map(chr2_vertex, chr2_codes(pack(run), pairs)))
        facets.extend(Simplex(pick(row)) for pick in picks)
    return tuple(facets)


@lru_cache(maxsize=None)
def chr2_complex(n: int) -> ChromaticComplex:
    """Chr Chr s: one facet per pair of runs."""
    return ChromaticComplex(n=n, facets=frozenset(chr2_facets(n)))


class CodeComplex:
    """A sub-complex of Chr Chr s held as the run-pair ids of its facets,
    i * |runs| + j for runs i and j of `all_runs(n)` (the positions in
    `chr2_facets(n)`), ascending.

    Membership is asked on vertex codes (`holds`), through a facet index
    built from the ids on the first call. The complex is built on first
    access, for JSON, drawings and the tests."""

    def __init__(self, n: int, ids: Sequence[int]):
        self.n, self.ids = n, ids

    @cached_property
    def complex(self) -> ChromaticComplex:
        facets = chr2_facets(self.n)
        return ChromaticComplex(self.n, frozenset(facets[i] for i in self.ids))

    def facet_count(self) -> int:
        return len(self.ids)

    def facet_codes(self) -> Iterator[list[int]]:
        """Each facet's vertex codes (`chr2_facet_codes`), in id order."""
        return chr2_facet_codes(self.n, self.ids)

    @cached_property
    def _index(self) -> dict[int, array]:
        """Per vertex code, the positions of the facets holding it."""
        return facet_index(self.facet_codes())

    def holds(self, codes: Iterable[int]) -> bool:
        """Whether the Chr Chr s vertices of the given codes
        (`chr2_codes`) lie in one facet; no codes lie in one exactly when
        there is a facet."""
        return in_one_facet(self._index, codes)


def chr2_code_complex(n: int) -> CodeComplex:
    """All of Chr Chr s as a `CodeComplex`. Not cached: its facet index is
    built on the first `holds` of each object."""
    _check_n(n)
    return CodeComplex(n, range(len(all_runs(n)) ** 2))


def two_round_facet(blocks1: Sequence[Iterable[int]],
                    blocks2: Sequence[Iterable[int]], n: int) -> Simplex:
    """Facet of Chr Chr s for explicit first- and second-round runs.

    blocks1 and blocks2 are ordered partitions of colors 1..n: the first
    round, and the second round over the first-round facet's vertices.
    """
    return simplex_of_codes(chr2_codes(pack(_run(blocks1, n)), _run(blocks2, n)))


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


def barycentric_points(vertices: Iterable[Vertex], n: int
                       ) -> tuple[dict[Vertex, tuple[int, ...]], int]:
    """Exact barycentric coordinates of subdivision vertices over corners
    1..n, as integer numerators over one common denominator.

    A corner maps to a unit vector. A subdivision vertex with carrier rho of
    size k sits at 1/(2k-1) times its own-color anchor plus 2/(2k-1) times
    each remaining vertex of rho. Each vertex, and each vertex of a carrier
    below it, is placed once per call.
    """
    placed: dict[str, tuple[tuple[int, ...], int]] = {}  # by uid

    # each point over its own denominator: 2k-1 times the lcm of its carrier's
    def place(v: Vertex) -> tuple[tuple[int, ...], int]:
        got = placed.get(v.uid)
        if got is None:
            if v.payload is None:
                got = tuple(int(c == v.color) for c in range(1, n + 1)), 1
            else:
                rho = [(1 if u.color == v.color else 2, *place(u))
                       for u in v.payload]
                den = lcm(*(d for _, _, d in rho))
                coords = [0] * n
                for w, nums, d in rho:
                    scale = w * (den // d)
                    for i, x in enumerate(nums):
                        coords[i] += scale * x
                got = tuple(coords), (2 * len(rho) - 1) * den
            placed[v.uid] = got
        return got

    points = {v: place(v) for v in vertices}
    den = lcm(*(d for _, d in points.values()))
    return {v: tuple(x * (den // d) for x in nums)
            for v, (nums, d) in points.items()}, den


def geometry(v: Vertex, n: int) -> tuple[Fraction, ...]:
    """Exact barycentric coordinates of a subdivision vertex over corners
    1..n, as Fractions: its point from `barycentric_points`."""
    points, den = barycentric_points((v,), integer(n, "n", ComplexError))
    return tuple(Fraction(x, den) for x in points[v])
