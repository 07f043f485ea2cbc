from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations, product

import pytest

from affinetask import (ComplexError, Simplex, chr2_complex, chr_complex,
                        chr_vertex, contention_simplices, geometry,
                        ordered_set_partitions, partition_to_facet,
                        standard_simplex, two_round_facet)

from affinetask.complexes import MAX_PROCESSES
from affinetask.subdivision import (barycentric_points, chr1_simplex,
                                   chr2_code_complex, chr2_facet_codes,
                                   chr2_facets, chr2_vertex, packed_views,
                                   simplex_of_codes)
from oracles import (build_chr, chr2_facets_by_codes, code_of,
                     color_combinations, facet_to_partition, fubini,
                     geometry_by_definition, immediate_snapshot_views,
                     ordered_partitions_by_merging, view1, view2)


def base_facet(n: int) -> Simplex:
    return next(iter(standard_simplex(n).facets))

FUBINI = {1: 1, 2: 3, 3: 13, 4: 75, 5: 541}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_fubini_oracle_self_check(n):
    assert fubini(n) == FUBINI[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ordered_set_partitions_match_merging_oracle(n):
    items = tuple(range(1, n + 1))
    ours = sorted(tuple(tuple(sorted(b)) for b in p)
                  for p in ordered_set_partitions(items))
    assert ours == ordered_partitions_by_merging(items)
    assert len(ours) == fubini(n)


@pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 13), (4, 75)])
def test_chr_facet_counts(n, count):
    assert len(chr_complex(n).facets) == count
    assert count == fubini(n)


@pytest.mark.parametrize("n,count", [(1, 1), (2, 9), (3, 169), (4, 5625)])
def test_chr2_facet_counts(n, count):
    assert len(chr2_complex(n).facets) == count


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_subdivisions_match_reference_construction(n):
    """Facets built from runs and pairs of runs equal the prefix-carrier
    construction applied once and twice."""
    chr1 = build_chr(standard_simplex(n))
    assert chr_complex(n) == chr1
    assert chr2_complex(n) == build_chr(chr1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_facet_codes_are_the_codes_of_the_facets(n):
    """The codes of the facet at each run-pair id are the codes, written
    out from the payloads, of that facet's vertices, and they make the
    facet again."""
    facets = chr2_facets(n)
    codes = list(chr2_facet_codes(n, range(fubini(n) ** 2)))
    assert len(codes) == len(facets) == fubini(n) ** 2
    for facet, got in zip(facets, codes):
        assert set(got) == set(map(code_of, facet))
        assert simplex_of_codes(got) == facet


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chr2_facets_are_the_facets_of_their_codes(n):
    """The facets assembled one round-one run at a time are those made
    facet by facet from their codes, in run-pair order and on the same
    vertex objects, chr2_vertex of each code."""
    got, want = chr2_facets(n), chr2_facets_by_codes(n)
    assert got == want
    assert all(a is b for f, g in zip(got, want)
               for a, b in zip(f.vertices, g.vertices, strict=True))


@pytest.mark.parametrize("n,count", [(1, 1), (2, 7), (3, 49), (4, 415)])
def test_chr2_vertices_share_one_pooled_carrier_per_chr_simplex(n, count):
    """The vertices of Chr Chr s have one payload object per simplex of
    Chr s, chr1_simplex of its packed views; a facet of Chr s, also as
    partition_to_facet makes it, is that same object."""
    payloads = {id(v.payload): v.payload for f in chr2_facets(n) for v in f}
    assert len(payloads) == len(chr_complex(n).simplices()) == count
    assert all(rho is chr1_simplex(packed_views(rho))
               for rho in payloads.values())
    for blocks in ordered_set_partitions(range(1, n + 1)):
        f = partition_to_facet(blocks, n)
        assert f is chr1_simplex(packed_views(f))
        assert f in chr_complex(n).facets
        assert id(f) in payloads


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chr1_simplex_accepts_exactly_the_simplices_of_chr(n):
    """Of every packed word with a field of n bits for each of the colors
    1..n, chr1_simplex makes a simplex exactly of the packed views of the
    simplices of Chr s and raises ComplexError on every other."""
    accepted = set()
    for fields in product(range(1 << n), repeat=n):
        word = sum(f << MAX_PROCESSES * c for c, f in enumerate(fields))
        try:
            sigma = chr1_simplex(word)
        except ComplexError:
            continue
        assert packed_views(sigma) == word
        accepted.add(word)
    assert accepted == set(map(packed_views, chr_complex(n).simplices()))


@pytest.mark.parametrize("word", [
    1 | 2 << 5,  # views {1} and {2}: no chain
    2,  # color 1 without itself in its view
    3 | 7 << 5,  # 1 saw 2, whose view {1, 2, 3} is not inside {1, 2}
    1 | 1 << 25,  # a bit above the five fields
    0, -1])
def test_a_word_of_no_chr_s_simplex_makes_no_vertex(word):
    """A packed word that is no Chr s simplex raises ComplexError, as
    carrier and through every code over it."""
    with pytest.raises(ComplexError, match="no Chr s simplex"):
        chr1_simplex(word)
    for color in range(1, MAX_PROCESSES + 1):
        with pytest.raises(ComplexError, match="no Chr s simplex"):
            chr2_vertex(word << 3 | color)
        with pytest.raises(ComplexError, match="no Chr s simplex"):
            simplex_of_codes([word << 3 | color])


@pytest.mark.parametrize("n,stride,checked,inside", [
    (1, 1, 1, 1), (2, 1, 35, 19), (3, 1, 39303, 535), (4, 100003, 63239, 1)])
def test_chr2_code_membership_is_simplex_membership(n, stride, checked,
                                                     inside):
    """Membership in Chr Chr s on codes, through chr2_code_complex, equals
    the membership of the Simplex of those codes in chr2_complex: on every
    set of vertices with distinct colors up to n = 3 (the 535 inside at
    n = 3 are the simplices of Chr Chr s), on every 100003rd at n = 4."""
    chr2, K = chr2_code_complex(n), chr2_complex(n)
    assert len(chr2._index) == len(K.vertices)
    got = [(chr2.holds(codes), simplex_of_codes(codes) in K)
           for codes in color_combinations(chr2._index, stride)]
    assert [a for a, _ in got] == [b for _, b in got]
    assert (len(got), sum(a for a, _ in got)) == (checked, inside)


def test_chr2_code_complex_holds_every_face_of_chr2_4():
    """Every face of every 7th facet of Chr Chr s at n = 4 lies in one
    facet of chr2_code_complex(4), and in chr2_complex(4)."""
    chr2, K = chr2_code_complex(4), chr2_complex(4)
    faces = [face for codes in chr2_facet_codes(4, range(0, 75 ** 2, 7))
             for size in range(1, 5) for face in combinations(codes, size)]
    assert len(faces) == 804 * 15 == 12060
    assert all(map(chr2.holds, faces))
    assert all(simplex_of_codes(face) in K for face in faces)


def test_chr2_4_facet_count_is_square_of_chr_4():
    # each facet of the base subdivides independently into 75 facets
    total = sum(fubini(len(f)) for f in chr_complex(4).facets)
    assert total == 75 * 75


def test_chr_is_pure_and_chromatic():
    for n in (1, 2, 3, 4):
        K = chr_complex(n)
        assert K.dim == n - 1
        for f in K.facets:
            assert sorted(v.color for v in f) == list(range(1, n + 1))


def test_partition_facet_bijection():
    n = 3
    K = chr_complex(n)
    seen = set()
    for blocks in ordered_set_partitions((1, 2, 3)):
        f = partition_to_facet(blocks, n)
        assert f in K.facets
        assert facet_to_partition(f) == blocks
        seen.add(f)
    assert seen == set(K.facets)


def test_partition_to_facet_validates_coverage():
    with pytest.raises(ComplexError):
        partition_to_facet(((1,),), 3)
    with pytest.raises(ComplexError):
        partition_to_facet(((1, 2), (2, 3)), 3)


@pytest.mark.parametrize("blocks2,message", [
    (((1,), (4,)), "not an ordered partition"),
    (((1, 2), (2, 3)), "not an ordered partition"),
    (((1,), ()), "not an ordered partition"),
    (((1, 2),), "does not cover"),
])
def test_two_round_facet_validates_both_rounds(blocks2, message):
    with pytest.raises(ComplexError, match=message):
        two_round_facet(((1, 2, 3),), blocks2, 3)
    with pytest.raises(ComplexError, match=message):
        two_round_facet(blocks2, ((1, 2, 3),), 3)


def test_pairs_of_runs_are_the_facets_of_chr2(chr2_3):
    runs = list(ordered_set_partitions((1, 2, 3)))
    facets = {two_round_facet(r1, r2, 3) for r1 in runs for r2 in runs}
    assert len(facets) == 169
    assert facets == set(chr2_3.facets)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("rounds", [1, 2])
def test_immediate_snapshot_axioms(n, rounds):
    """Self-inclusion, containment, and immediacy of every facet's views."""
    K = chr_complex(n) if rounds == 1 else chr2_complex(n)
    for facet in K.facets:
        views = {v.color: (v.payload.colors if rounds == 1 else view2(v))
                 for v in facet}
        for c, V in views.items():
            assert c in V
        for a in views.values():
            for b in views.values():
                assert a <= b or b <= a
        for c, V in views.items():
            for d in V:
                assert views[d] <= V


@pytest.mark.parametrize("n", [2, 3])
def test_round1_views_match_block_semantics(n):
    """A facet built from a block schedule gives each process the union of
    blocks up to its own."""
    for blocks in ordered_set_partitions(tuple(range(1, n + 1))):
        expect = immediate_snapshot_views(tuple(tuple(b) for b in blocks))
        f = partition_to_facet(blocks, n)
        for v in f:
            assert v.payload.colors == expect[v.color]


def test_view1_of_two_round_vertex_uses_same_color_payload():
    # schedule: round 1 blocks ({1},{2}), round 2 sequential reversed
    f = two_round_facet(((1,), (2,)), ((2,), (1,)), 2)
    views1 = {v.color: view1(v) for v in f}
    assert views1 == {1: frozenset({1}), 2: frozenset({1, 2})}
    views2 = {v.color: view2(v) for v in f}
    assert views2 == {2: frozenset({2}), 1: frozenset({1, 2})}


def test_two_round_facet_known_contention_example(chr2_3):
    """Fully inverted schedule: round 1 ({2},{1},{3}), round 2 ({3},{1},{2}).
    All three views reverse, every pair ends up contending."""
    f = two_round_facet(((2,), (1,), (3,)), ((3,), (1,), (2,)), 3)
    assert f in chr2_3.facets
    v1 = {v.color: view1(v) for v in f}
    v2 = {v.color: view2(v) for v in f}
    assert v1[2] < v1[1] < v1[3]
    assert v2[3] < v2[1] < v2[2]


def test_two_round_facet_single_contending_pair(chr2_3):
    """Round 1 ({1},{2},{3}), round 2 ({2},{1,3}): only processes 1 and 2
    swap order between rounds."""
    f = two_round_facet(((1,), (2,), (3,)), ((2,), (1, 3)), 3)
    assert f in chr2_3.facets
    v1 = {v.color: view1(v) for v in f}
    v2 = {v.color: view2(v) for v in f}
    assert v1[1] < v1[2] and v2[2] < v2[1]
    assert v1[1] < v1[3] and not (v2[3] < v2[1])
    assert v1[2] < v1[3] and not (v2[3] < v2[2])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_geometry_exact_weights(n):
    K = chr_complex(n)
    for v in K.vertices:
        coords = geometry(v, n)
        assert len(coords) == n
        assert sum(coords) == 1
        assert all(c >= 0 for c in coords)
        assert all(isinstance(c, Fraction) for c in coords)


def test_geometry_known_center_vertex():
    # the color-1 vertex carried by the full triangle: weight 1/5 on itself,
    # 2/5 on the others
    v = chr_vertex(1, base_facet(3))
    assert geometry(v, 3) == (Fraction(1, 5), Fraction(2, 5), Fraction(2, 5))


def test_geometry_injective_on_chr2():
    for n in (2, 3):
        K = chr2_complex(n)
        seen = {}
        for v in K.vertices:
            p = geometry(v, n)
            key = (v.color, p)
            assert key not in seen, (v.uid, seen[key])
            seen[key] = v.uid


def test_geometry_corner_vertices_fixed():
    for n in (1, 2, 3):
        K = chr_complex(n)
        for v in K.vertices:
            if len(v.payload) == 1:
                coords = geometry(v, n)
                assert coords[v.color - 1] == 1


@pytest.mark.parametrize("rounds,n", [(1, n) for n in range(1, 6)]
                         + [(2, n) for n in range(1, 5)])
def test_geometry_matches_definition(rounds, n):
    """The integer points, one vertex at a time (`geometry`) and all of a
    complex's vertices over one denominator (as the drawings place them),
    equal the recursive Fraction sum on every vertex."""
    K = (chr_complex if rounds == 1 else chr2_complex)(n)
    points, den = barycentric_points(K.vertices, n)
    for v in K.vertices:
        want = geometry_by_definition(v, n)
        got = geometry(v, n)
        assert got == want, v.uid
        assert all(type(c) is Fraction for c in got), v.uid
        assert tuple(Fraction(x, den) for x in points[v]) == want, v.uid


def test_chr_vertex_requires_self_inclusion():
    base = base_facet(3)
    other = Simplex(v for v in base if v.color != 1)  # colors {2,3}
    with pytest.raises(ComplexError):
        chr_vertex(1, other)


@pytest.mark.parametrize("bad", [True, 2.0, "2"])
@pytest.mark.parametrize("build", [standard_simplex, chr_complex, chr2_complex,
                                   chr2_code_complex, contention_simplices,
                                   lambda n: partition_to_facet([[1], [2]], n),
                                   lambda n: geometry(chr_vertex(1, base_facet(2)), n)],
                         ids=["standard_simplex", "chr_complex", "chr2_complex",
                              "chr2_code_complex", "contention_simplices",
                              "partition_to_facet", "geometry"])
def test_constructions_reject_a_non_integer_n(build, bad):
    """A bool n builds no complex over n=True, and a float or a string n
    raises ComplexError rather than a bare TypeError."""
    with pytest.raises(ComplexError, match=re.escape(
            f"n must be an integer, got {bad!r}")):
        build(bad)


@pytest.mark.parametrize("n", [0, 6])
@pytest.mark.parametrize("build", [standard_simplex, chr_complex, chr2_complex,
                                   chr2_code_complex])
def test_constructions_reject_n_out_of_range(build, n):
    with pytest.raises(ComplexError, match=re.escape(
            f"n={n} out of range: constructions support 1..5 processes")):
        build(n)
