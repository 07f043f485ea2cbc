from __future__ import annotations

import pickle
import re
from itertools import combinations, product
from operator import is_

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from affinetask import (ChromaticComplex, ComplexError, Simplex, Vertex,
                        chr2_complex, closure, complex_from_dict,
                        complex_to_dict, standard_simplex)
from oracles import is_pure, simplex_by_set


def v(uid: str, color: int) -> Vertex:
    return Vertex(uid=uid, color=color, payload=None)


def base_facet(n: int) -> Simplex:
    return next(iter(standard_simplex(n).facets))


def test_simplex_orders_vertices_by_uid():
    a, b = v("b", 1), v("a", 2)
    s = Simplex((a, b))
    assert s.uids == ("a", "b")
    assert s.dim == 1
    assert Simplex(vertices=[b, a]) == s


def test_simplex_rejects_repeated_colors():
    with pytest.raises(ComplexError):
        Simplex((v("a", 1), v("b", 1)))


@st.composite
def vertex_lists(draw) -> list[Vertex]:
    """Up to 6 vertices over uids a..e and colors 1..4: an object drawn
    again, fresh objects with an equal uid (and maybe another color),
    repeated colors, and uid orders unlike color orders."""
    made: list[Vertex] = []
    for _ in range(draw(st.integers(0, 6))):
        if made and draw(st.booleans()):
            made.append(draw(st.sampled_from(made)))
        else:
            made.append(v(draw(st.sampled_from("abcde")), draw(st.integers(1, 4))))
    return made


def built(vertices: list[Vertex]):
    """Simplex(vertices) and simplex_by_set(vertices): each the result, or
    the message of the ComplexError raised."""
    out = []
    for make in (Simplex, simplex_by_set):
        try:
            out.append(make(tuple(vertices)))
        except ComplexError as exc:
            out.append(str(exc))
    return out


_A1, _B2 = v("a", 1), v("b", 2)


@given(vertex_lists(), vertex_lists())
@example([_A1, _A1], [_A1])  # the same vertex twice
@example([v("a", 1), v("a", 1), v("b", 2)], [_B2, _A1])  # equal uids
@example([v("a", 1), v("a", 2), v("b", 2)], [v("a", 2), v("a", 1), _B2])
@example([v("a", 1), v("b", 1)], [])  # repeated colors; the empty tuple
@example([v("c", 1), v("b", 2), v("a", 3)], [v("a", 3), v("c", 1), v("b", 2)])
def test_simplex_matches_the_set_construction(xs, ys):
    """Simplex against the set-then-sort construction: the same vertex
    objects in the same order, the same uids, hash and equality, or the
    same error and message."""
    (s, want), (t, want_t) = built(xs), built(ys)
    if isinstance(want, str):
        assert s == want
        return
    assert isinstance(s, Simplex)
    assert len(s.vertices) == len(want)
    assert all(map(is_, s.vertices, want))
    assert s.uids == tuple(u.uid for u in want)
    assert hash(s) == hash(s.uids) == hash(Simplex(want))
    assert s == Simplex(want)
    if isinstance(want_t, tuple):
        assert isinstance(t, Simplex)
        assert (s == t) == ({u.uid for u in want} == {u.uid for u in want_t})


@pytest.mark.parametrize("make,name", [
    (lambda: v("a", 1), "uid"),
    (lambda: v("a", 1), "color"),
    (lambda: v("a", 1), "payload"),
    (lambda: base_facet(2), "vertices"),
    (lambda: base_facet(2), "uids"),
])
def test_fields_are_read_only(make, name):
    obj = make()
    before = getattr(obj, name)
    with pytest.raises(AttributeError):
        setattr(obj, name, None)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    assert getattr(obj, name) == before


def test_primitives_pickle_by_their_constructors():
    s = chr2_complex(2).sorted_facets()[0]
    back = pickle.loads(pickle.dumps(s))
    assert back == s and back.uids == s.uids
    assert [u.payload for u in back] == [u.payload for u in s]
    assert [u.color for u in back] == [u.color for u in s]


def test_simplex_faces_and_has_face():
    s = base_facet(3)
    fs = set(s.faces())
    assert len(fs) == 7
    assert all(s.has_face(f) for f in fs)
    assert s in fs


def test_closure_and_facets_drop_contained_simplices():
    s3 = base_facet(3)
    edge = Simplex(s3.vertices[:2])
    K = closure([s3, edge])
    assert K.facets == frozenset({s3})
    assert edge in K


def test_complex_contains_only_faces():
    s = base_facet(2)
    K = closure([s])
    assert s in K
    assert Simplex((s.vertices[0],)) in K
    assert Simplex((v("zz", 1),)) not in K


def colorful(K: ChromaticComplex):
    """Every simplex on K's vertices with pairwise distinct colors, in a
    fixed order."""
    by_color = [sorted((u for u in K.vertices if u.color == c), key=lambda u: u.uid)
                for c in range(1, K.n + 1)]
    for k in range(1, K.n + 1):
        for groups in combinations(by_color, k):
            for vs in product(*groups):
                yield Simplex(vs)


def test_membership_matches_face_closure_on_chr2_2():
    K = chr2_complex(2)
    faces = set(K.simplices())
    sigmas = list(colorful(K))
    assert len(sigmas) == 10 + 25
    assert sum(sigma in K for sigma in sigmas) == len(faces) == 10 + 9
    for sigma in sigmas:
        assert (sigma in K) == (sigma in faces)


@pytest.mark.parametrize("which", ["chr2", "r_a"])
def test_membership_matches_face_closure_on_n3(which, chr2_3, fixture_tasks):
    """Every face is in. Every face of Chr Chr s outside K, and every 7th
    other distinct-color simplex on the vertices of Chr Chr s, is out."""
    K = chr2_3 if which == "chr2" else fixture_tasks["obstruction_free_2"].complex
    faces = K.simplices()
    assert all(sigma in K for sigma in faces)
    face_set = set(faces)
    non_faces = [s for s in chr2_3.simplices() if s not in face_set]
    assert len(non_faces) == {"chr2": 0, "r_a": 535 - 484}[which]
    non_faces += [s for s in colorful(chr2_3) if s not in face_set][::7]
    assert len(non_faces) > 5000
    assert not any(sigma in K for sigma in non_faces)


def test_vertices_are_the_set_construction_object_for_object(chr2_3):
    """Collected by uid, a complex's vertices are the set built by
    set.update over its facets, the same objects: of distinct vertex
    objects with equal uids the first met is kept."""
    facets = frozenset(Simplex((v("a", 1), v(uid, 2))) for uid in "bcd")
    for K in (ChromaticComplex(n=2, facets=facets), chr2_3):
        want: set[Vertex] = set()
        for f in K.facets:
            want.update(f.vertices)
        assert K.vertices == want
        assert sorted(map(id, K.vertices)) == sorted(map(id, want))
    assert len(ChromaticComplex(n=2, facets=facets).vertices) == 4


def test_is_pure():
    s3 = base_facet(3)
    lonely = Simplex((v("x", 1),))
    assert is_pure(closure([s3]))
    assert not is_pure(ChromaticComplex(3, frozenset({s3, lonely})))


def test_vertex_color_range_enforced():
    bad = Simplex((v("a", 9),))
    with pytest.raises(ComplexError):
        ChromaticComplex(3, frozenset({bad}))
    # every color out of range, sorted, whatever the facets' set order
    facets = frozenset(Simplex((v(f"x{c}", c),)) for c in (8, 9, 7))
    with pytest.raises(ComplexError,
                       match=re.escape("colors [7, 8, 9] outside 1..3")):
        ChromaticComplex(3, facets)


@pytest.mark.parametrize("bad", [True, 2.0, "2"])
def test_complex_rejects_a_non_integer_n(bad):
    with pytest.raises(ComplexError, match=re.escape(
            f"n must be an integer, got {bad!r}")):
        ChromaticComplex(bad, frozenset())


@pytest.mark.parametrize("bad", [True, 1.0, "1"])
def test_vertex_rejects_a_non_integer_color(bad):
    with pytest.raises(ComplexError, match=re.escape(
            f"vertex color must be an integer, got {bad!r}")):
        Vertex(uid="1", color=bad)


def test_json_round_trip(chr_3):
    doc = complex_to_dict(chr_3)
    back = complex_from_dict(doc)
    assert back.facets == chr_3.facets
    assert back.n == chr_3.n
    assert complex_to_dict(back) == doc


def test_json_round_trip_two_levels():
    K = chr2_complex(2)
    doc = complex_to_dict(K)
    back = complex_from_dict(doc)
    assert back.facets == K.facets


@pytest.mark.parametrize("bad", [True, 1.0, "1"])
@pytest.mark.parametrize("what", ["n", "vertex color", "payload color"])
def test_complex_document_rejects_non_integers(what, bad):
    vertex = {"uid": "1(1,2)", "color": 1, "payload": [1, 2]}
    doc = {"n": 3, "vertices": [vertex], "facets": [["1(1,2)"]]}
    if what == "n":
        doc["n"] = bad
    elif what == "vertex color":
        vertex["color"] = bad
    else:
        vertex["payload"] = [bad, 2]
    with pytest.raises(ComplexError, match=re.escape(
            f"complex document: {what} must be an integer, got {bad!r}")):
        complex_from_dict(doc)
