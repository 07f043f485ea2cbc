from __future__ import annotations

from itertools import combinations, product

import pytest

from affinetask import (ChromaticComplex, ComplexError, Simplex, Vertex,
                        closure, complex_from_dict, complex_to_dict,
                        standard_simplex)
from oracles import is_pure


def v(uid: str, color: int) -> Vertex:
    return Vertex(uid=uid, color=color, payload=None)


def base_facet(n: int) -> Simplex:
    return next(iter(standard_simplex(n).facets))


def test_simplex_orders_vertices_by_uid():
    a, b = v("b", 1), v("a", 2)
    s = Simplex((a, b))
    assert s.uids == ("a", "b")
    assert s.dim == 1


def test_simplex_rejects_repeated_colors():
    with pytest.raises(ComplexError):
        Simplex((v("a", 1), v("b", 1)))


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
    from affinetask import chr2_complex

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


def test_is_pure():
    s3 = base_facet(3)
    lonely = Simplex((v("x", 1),))
    assert is_pure(closure([s3]))
    assert not is_pure(ChromaticComplex(3, frozenset({s3, lonely})))


def test_vertex_color_range_enforced():
    bad = Simplex((v("a", 9),))
    with pytest.raises(ComplexError):
        ChromaticComplex(3, frozenset({bad}))


def test_json_round_trip(chr_3):
    doc = complex_to_dict(chr_3)
    back = complex_from_dict(doc)
    assert back.facets == chr_3.facets
    assert back.n == chr_3.n
    assert complex_to_dict(back) == doc


def test_json_round_trip_two_levels():
    from affinetask import chr2_complex

    K = chr2_complex(2)
    doc = complex_to_dict(K)
    back = complex_from_dict(doc)
    assert back.facets == K.facets
