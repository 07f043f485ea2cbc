"""Chromatic simplicial complexes and the standard set operators on them.

A vertex carries a color (a process id in 1..n) and an optional payload
describing what the vertex stands for inside a subdivision (its carrier).
Vertex identity is the canonical uid string, which is derived from color and
payload, so structural equality and uid equality coincide. Vertices and
simplices are slotted and read-only; a simplex is validated in one pass over
its vertices' uid strings and colors, with no vertex hashed.

Complexes store facets only; faces are generated on demand, and membership
is read off a facet index (`facet_index`): per vertex, the ascending
positions of the facets holding it, linear in the facets' total size.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from operator import attrgetter
from typing import Any, Iterable, Iterator

from .bits import integer

MAX_PROCESSES = 5


class ComplexError(ValueError):
    """Malformed complex or operator precondition failure."""


class _ReadOnly:
    """Slotted instances whose fields, once set by the constructor, cannot
    be assigned or deleted; the constructor writes them through the slots'
    own setters."""

    __slots__ = ()

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Vertex(_ReadOnly):
    __slots__ = ("uid", "color", "payload")

    def __init__(self, uid: str, color: int, payload: Any = None):
        _set_uid(self, uid)
        _set_color(self, integer(color, "vertex color", ComplexError))
        _set_payload(self, payload)

    def __reduce__(self):
        return Vertex, (self.uid, self.color, self.payload)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vertex) and self.uid == other.uid

    def __hash__(self) -> int:
        return hash(self.uid)

    def __repr__(self) -> str:
        return f"V({self.uid})"

    def __lt__(self, other: "Vertex") -> bool:
        return self.uid < other.uid


_UID, _COLOR = attrgetter("uid"), attrgetter("color")
_UIDS, _VERTICES = attrgetter("uids"), attrgetter("vertices")


class Simplex(_ReadOnly):
    """Nonempty set of vertices with pairwise distinct colors.

    The vertices are sorted by uid; of vertices with equal uids (equal
    vertices) the first given is kept."""

    # vertices and uids sorted by uid; the last two filled on first use
    __slots__ = ("vertices", "uids", "_hash", "_vertex_set", "_colors")

    def __init__(self, vertices: Iterable[Vertex]):
        vs = sorted(vertices, key=_UID)
        uids = tuple(map(_UID, vs))
        if len(set(uids)) != len(uids):
            # equal uids are equal vertices: keep the first, as a set does
            first: dict[str, Vertex] = {}
            for uid, v in zip(uids, vs):
                first.setdefault(uid, v)
            vs, uids = list(first.values()), tuple(first)
        if not vs:
            raise ComplexError("a simplex needs at least one vertex")
        if len(set(map(_COLOR, vs))) != len(vs):
            raise ComplexError("repeated colors in simplex: %s" % list(uids))
        _set_vertices(self, tuple(vs))
        _set_uids(self, uids)
        _set_hash(self, hash(uids))

    def __reduce__(self):
        return Simplex, (self.vertices,)

    @property
    def vertex_set(self) -> frozenset[Vertex]:
        try:
            return self._vertex_set
        except AttributeError:
            _set_vertex_set(self, frozenset(self.vertices))
            return self._vertex_set

    @property
    def colors(self) -> frozenset[int]:
        try:
            return self._colors
        except AttributeError:
            _set_colors(self, frozenset(map(_COLOR, self.vertices)))
            return self._colors

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self.vertices)

    def __contains__(self, v: Vertex) -> bool:
        return v in self.vertex_set

    def faces(self) -> Iterator["Simplex"]:
        """All nonempty faces, self included."""
        for k in range(1, len(self.vertices) + 1):
            for combo in combinations(self.vertices, k):
                yield Simplex(combo)

    def has_face(self, other: "Simplex") -> bool:
        return other.vertex_set <= self.vertex_set

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Simplex) and self.uids == other.uids

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "S{%s}" % ", ".join(self.uids)


_set_uid, _set_color, _set_payload = (
    Vertex.__dict__[name].__set__ for name in Vertex.__slots__)
_set_vertices, _set_uids, _set_hash, _set_vertex_set, _set_colors = (
    Simplex.__dict__[name].__set__ for name in Simplex.__slots__)


def _sort_key(s: Simplex) -> tuple:
    return (len(s.uids), s.uids)


@dataclass(frozen=True, eq=False, repr=False)
class ChromaticComplex:
    """Inclusion-closed simplex family, stored by its facets."""

    n: int
    facets: frozenset[Simplex]

    def __post_init__(self):
        integer(self.n, "n", ComplexError)
        colors = set(map(_COLOR, chain.from_iterable(map(_VERTICES, self.facets))))
        bad = sorted(c for c in colors if not 1 <= c <= self.n)
        if bad:
            raise ComplexError(f"colors {bad} outside 1..{self.n}")

    @cached_property
    def vertices(self) -> frozenset[Vertex]:
        """The facets' vertices, collected by uid: of equal vertices, the
        first met is kept, as a set keeps it. A later entry of a dict
        overwrites an earlier one, so the facets are read backwards."""
        facets = list(self.facets)[::-1]
        by_uid = dict(zip(chain.from_iterable(map(_UIDS, facets)),
                          chain.from_iterable(map(_VERTICES, facets))))
        return frozenset(by_uid.values())

    @cached_property
    def _facets_of(self) -> dict[Vertex, array]:
        """Each vertex's facets, as positions in the facet iteration order."""
        return facet_index(f.vertices for f in self.facets)

    @cached_property
    def _simplex_set(self) -> frozenset[Simplex]:
        out: set[Simplex] = set()
        for f in self.facets:
            out.update(f.faces())
        return frozenset(out)

    def simplices(self) -> list[Simplex]:
        """Every simplex (all faces of all facets), canonically sorted."""
        return sorted(self._simplex_set, key=_sort_key)

    def __contains__(self, sigma: Simplex) -> bool:
        """True when sigma's vertices lie in one facet."""
        return in_one_facet(self._facets_of, sigma.vertices)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ChromaticComplex)
                and self.n == other.n and self.facets == other.facets)

    def __hash__(self) -> int:
        return hash((self.n, self.facets))

    @property
    def dim(self) -> int:
        return max((f.dim for f in self.facets), default=-1)

    def __repr__(self) -> str:
        return f"ChromaticComplex(n={self.n}, facets={len(self.facets)})"

    def sorted_facets(self) -> list[Simplex]:
        return sorted(self.facets, key=_sort_key)


def facet_index(facets: Iterable[Iterable]) -> dict[Any, array]:
    """Per key, the positions of the facets (each an iterable of keys) that
    hold it, ascending, as an array of unsigned ints: one entry per
    (facet, key) pair."""
    index: dict[Any, array] = {}
    for pos, keys in enumerate(facets):
        for key in keys:
            held = index.get(key)
            if held is None:
                held = index[key] = array("I")
            held.append(pos)
    return index


def in_one_facet(index: dict[Any, array], keys: Iterable) -> bool:
    """Whether some facet of the index holds every key: a position of the
    rarest key found, by bisection, among the positions of all the others.
    No keys are held exactly when the index has a facet."""
    try:
        by_size = sorted((index[key] for key in keys), key=len)
    except KeyError:
        return False
    if not by_size:
        return bool(index)
    rarest, *rest = by_size
    for pos in rarest:
        for held in rest:
            i = bisect_left(held, pos)
            if i == len(held) or held[i] != pos:
                break
        else:
            return True
    return False


def _maximal(simplices: Iterable[Simplex]) -> set[Simplex]:
    unique = set(simplices)
    dims = {s.dim for s in unique}
    if len(dims) <= 1:
        # equal-dimension simplices cannot contain one another
        return unique
    by_size = sorted(unique, key=len, reverse=True)
    kept: list[Simplex] = []
    out: set[Simplex] = set()
    for s in by_size:
        if not any(t.has_face(s) for t in kept if len(t) > len(s)):
            kept.append(s)
            out.add(s)
    return out


def closure(simplices: Iterable[Simplex], n: int | None = None) -> ChromaticComplex:
    """Smallest complex containing every given simplex."""
    sims = set(simplices)
    if n is None:
        n = max((max(s.colors) for s in sims), default=0)
    return ChromaticComplex(n=n, facets=frozenset(_maximal(sims)))


# --- JSON form -------------------------------------------------------------
#
# {"n": int,
#  "vertices": [{"uid": str, "color": int, "payload": ...}, ...],
#  "facets": [[uid, ...], ...]}
#
# Payloads are encoded structurally: None for a corner of the base simplex,
# a sorted color list for a first-level subdivision vertex, and a sorted list
# of [color, sorted color list] pairs one level further down.


def _encode_payload(payload: Any) -> Any:
    if payload is None:
        return None
    assert isinstance(payload, Simplex)
    if all(v.payload is None for v in payload):
        return sorted(v.color for v in payload)
    return sorted([v.color, _encode_payload(v.payload)] for v in payload)


def complex_to_dict(K: ChromaticComplex) -> dict:
    verts = sorted(K.vertices, key=lambda v: (v.color, v.uid))
    return {
        "n": K.n,
        "vertices": [
            {"uid": v.uid, "color": v.color, "payload": _encode_payload(v.payload)}
            for v in verts
        ],
        "facets": sorted([list(f.uids) for f in K.facets]),
    }


def complex_from_dict(data: dict) -> ChromaticComplex:
    from .subdivision import chr_vertex, standard_simplex  # cycle-free at call time

    if not isinstance(data, dict):
        raise ComplexError(
            f"complex document must be a JSON object, got {type(data).__name__}")

    def decode_vertex(color: Any, enc: Any) -> Vertex:
        color = integer(color, "complex document: vertex color", ComplexError)
        if enc is None:
            return base[color]
        if enc and not isinstance(enc[0], list):  # a color list
            carrier = Simplex(tuple(
                base[integer(c, "complex document: payload color", ComplexError)]
                for c in enc))
        else:
            carrier = Simplex(tuple(decode_vertex(c, sub) for c, sub in enc))
        return chr_vertex(color, carrier)

    try:
        n = integer(data["n"], "complex document: n", ComplexError)
        base = {v.color: v for v in standard_simplex(n).vertices}
        by_uid: dict[str, Vertex] = {}
        for item in data["vertices"]:
            v = decode_vertex(item["color"], item["payload"])
            if v.uid != item["uid"]:
                raise ComplexError(f"uid mismatch: {item['uid']!r} vs {v.uid!r}")
            by_uid[v.uid] = v
        facet_set = frozenset(
            Simplex(tuple(by_uid[u] for u in uids)) for uids in data["facets"])
    except KeyError as exc:
        raise ComplexError(f"complex document: missing or unknown {exc}") from exc
    except TypeError as exc:
        raise ComplexError(f"malformed complex document: {exc}") from exc
    return ChromaticComplex(n=n, facets=facet_set)
