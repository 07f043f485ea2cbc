from __future__ import annotations

import json
import re
from collections import Counter
from itertools import combinations
from math import comb, factorial

import pytest

from affinetask import (Adversary, AdversaryError, ComplexError,
                        Simplex,
                        agreement_function, build_r_a, check_fairness,
                        chr2_complex, chr_complex, concurrency_levels,
                        contention_simplices, critical_simplices,
                        enumerate_adversaries, make_k_of,
                        make_superset_closed, make_symmetric,
                        make_t_resilient, standard_simplex,
                        task_to_dict, two_round_facet,
                        verify_cs_distribution, verify_single_carrier)
from affinetask import affine as affine_module
from affinetask import subdivision as subdivision_module
from affinetask.subdivision import CodeComplex, packed_views
from conftest import DATA_DIR
from oracles import (ComplexTask, base_colors, build_r_kof,
                     chr2_table_by_vertex_pairs,
                     contending, critical_faces,
                     facets_with_lone_full_view_leader,
                     r_a_by_definition, resilient_facets_by_vertex_filter,
                     symmetric_by_facets,
                     variant_divergence_report, view2)


def fair_live_up_to_3() -> list[Adversary]:
    """Every fair family at n <= 3 whose full set can run (49)."""
    advs = [a for n in (1, 2, 3) for a in enumerate_adversaries(n)
            if check_fairness(a).fair and agreement_function(a)(range(1, n + 1)) >= 1]
    assert len(advs) == 49
    return advs


# --- contention -----------------------------------------------------------------


def test_contending_pair_from_inverted_schedules():
    # round 1: 1 before 2; round 2: 2 before 1
    f = two_round_facet(((1,), (2,)), ((2,), (1,)), 2)
    assert f in contention_simplices(2)


def test_synchronized_schedule_is_not_contending():
    contending2 = contention_simplices(2)
    f = two_round_facet(((1, 2),), ((1, 2),), 2)
    assert f not in contending2
    # same round-1 order repeated: views agree in direction, no inversion
    g = two_round_facet(((1,), (2,)), ((1,), (2,)), 2)
    assert g not in contending2


def test_single_vertices_are_vacuously_contending():
    f = two_round_facet(((1, 2),), ((1, 2),), 2)
    contending2 = contention_simplices(2)
    for v in f:
        assert Simplex((v,)) in contending2


def test_contention_counts():
    assert [s.dim for s in contention_simplices(2, min_dim=1)] == [1, 1]
    by_dim = Counter(s.dim for s in contention_simplices(3, min_dim=1))
    assert by_dim == {1: 78, 2: 6}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_contention_simplices_match_the_pairwise_oracle(n):
    """The contending faces read off the table equal the simplices of
    Chr Chr s whose every vertex pair has reversed frozenset views, in
    order, at every minimum dimension."""
    found = [s for s in chr2_complex(n).simplices() if contending(s)]
    for k in range(n + 1):
        assert contention_simplices(n, k) == [s for s in found if s.dim >= k], k


# --- criticality ------------------------------------------------------------------


def test_packed_views_require_first_subdivision_simplices(chr2_3):
    """Criticality is read off the packed views of a Chr s simplex; a base
    simplex or a Chr Chr s simplex has none."""
    for sigma in (next(iter(standard_simplex(2).facets)),
                  next(iter(chr2_3.facets))):
        with pytest.raises(ComplexError):
            packed_views(sigma)


def test_critical_simplices_solo_level():
    """With only solo live sets, exactly the full-carrier rainbows drop alpha."""
    crits = critical_simplices(make_k_of(3, 1))
    assert len(crits) == 7  # one per nonempty face of the base triangle
    for s in crits:
        assert s.colors == base_colors(s)


@pytest.mark.parametrize("adv,expected", [
    (make_k_of(3, 2), 16),
    (make_t_resilient(3, 1), 16),
    (make_superset_closed(3, [[2], [1, 3]]), 15),
    (make_t_resilient(3, 2), 19),
])
def test_critical_simplex_counts(adv, expected):
    assert len(critical_simplices(adv)) == expected


def test_critical_set_is_not_closed_under_faces():
    alpha = agreement_function(make_k_of(3, 1))
    crits = critical_simplices(make_k_of(3, 1))
    full = next(s for s in crits if len(s.vertices) == 3)
    proper = Simplex(full.vertices[:2])
    assert proper not in crits
    assert tuple(proper) not in critical_faces(proper, alpha)


def test_critical_data_solo_level():
    """The full central triangle is its only critical face, at level 1."""
    alpha = agreement_function(make_k_of(3, 1))
    crits = critical_simplices(make_k_of(3, 1))
    full = next(s for s in crits if len(s.vertices) == 3)
    assert [f for f in full.faces() if f in crits] == [full]
    assert critical_faces(full, alpha) == [full.vertices]
    assert base_colors(full) == frozenset({1, 2, 3})
    assert concurrency_levels(make_k_of(3, 1))[full] == 1


def test_critical_data_empty_for_center_vertex():
    # center vertices never drop a two-level alpha on their own
    alpha = agreement_function(make_k_of(3, 2))
    conc = concurrency_levels(make_k_of(3, 2))
    crits = critical_simplices(make_k_of(3, 2))
    zeros = [s for s, c in conc.items() if c == 0]
    assert len(zeros) == 3
    for s in zeros:
        assert len(s.vertices) == 1
        assert base_colors(s) == frozenset({1, 2, 3})
        assert s not in crits
        assert critical_faces(s, alpha) == []


def test_concurrency_level_distribution():
    conc = concurrency_levels(make_k_of(3, 2))
    assert Counter(conc.values()) == {2: 37, 1: 9, 0: 3}


def test_mask_criticality_matches_simplex_oracle():
    """Differential check of criticality read on masks against the Simplex
    oracle: the critical simplices, the conc of every Chr s simplex and the
    checked counts of both lemma sweeps, on every fair live family at
    n <= 3 and on k_of(4, 1)."""
    for adv in fair_live_up_to_3() + [make_k_of(4, 1)]:
        alpha = agreement_function(adv)
        cs = {s: critical_faces(s, alpha)
              for s in chr_complex(adv.n).simplices()}
        crits = critical_simplices(adv)
        assert len(crits) == len(set(crits))
        assert set(crits) == {Simplex(t) for faces in cs.values()
                              for t in faces}, adv
        assert concurrency_levels(adv) == {
            s: max((alpha(t[0].payload.colors) for t in faces), default=0)
            for s, faces in cs.items()}, adv
        assert verify_cs_distribution(adv).checked == len(cs) * adv.n
        assert verify_single_carrier(adv).checked == sum(
            comb(len(faces), 2) for faces in cs.values()), adv


# --- task constructions --------------------------------------------------------------


def test_solo_task_matches_adversary_task():
    """Banning all contending pairs equals the guard construction at level 1."""
    for n in (2, 3):
        direct = build_r_kof(n, 1)
        derived = build_r_a(make_k_of(n, 1))
        assert direct.complex.facets == derived.complex.facets
    assert build_r_kof(2, 1).facet_count() == 7
    assert build_r_kof(3, 1).facet_count() == 73


def test_level_two_task_strictly_contains_adversary_task():
    """Banning only contending triangles keeps 21 facets the guard drops.

    They are exactly the facets with a lone full-view leader: a process that
    saw everyone in round 1, shares that view with no one, and ran alone
    first in round 2. Without the "shares with no one" clause the description
    matches 48 facets, 27 of them in the guard task: there the full view is
    shared, the process is critical, and it may go first.
    """
    direct = build_r_kof(3, 2)
    derived = build_r_a(make_k_of(3, 2))
    assert direct.facet_count() == 163
    assert derived.facet_count() == 142
    assert derived.complex.facets < direct.complex.facets
    extra = direct.complex.facets - derived.complex.facets
    assert len(extra) == 21
    assert extra == facets_with_lone_full_view_leader(direct.complex.facets, 3)
    solo_first = {f for f in direct.complex.facets
                  if any(len(base_colors(v.payload)) == 3
                         and len(view2(v)) == 1 for v in f)}
    assert len(solo_first) == 48
    assert len(solo_first & derived.complex.facets) == 27


def test_resilient_task_dual_route(chr2_3):
    task = build_r_a(make_t_resilient(3, 1))
    assert task.complex.facets == resilient_facets_by_vertex_filter(chr2_3, 3, 1)
    assert task.facet_count() == 142


def test_resilient_adversary_task_equals_vertex_filter():
    """R_A of t-resilience keeps exactly the facets all of whose vertices saw
    at least n - t processes in round one: every n <= 4 and t < n."""
    for n in range(1, 5):
        chr2 = chr2_complex(n)
        for t in range(n):
            task = build_r_a(make_t_resilient(n, t))
            assert (task.complex.facets
                    == resilient_facets_by_vertex_filter(chr2, n, t)), (n, t)


def test_wait_free_task_is_whole_subdivision(chr2_3):
    task = build_r_a(make_t_resilient(3, 2))
    assert task.complex.facets == chr2_3.facets
    assert task.facet_count() == 169


@pytest.mark.parametrize("name,union_count,inter_count", [
    ("obstruction_free_1", 73, 49),
    ("obstruction_free_2", 142, 115),
    ("resilient_1", 142, 142),
    ("superset_closed_2_13", 145, 139),
])
def test_task_facet_counts(fixture_adversaries, name, union_count, inter_count):
    """R_A, and the intersection-guard reading of the oracle."""
    adv = fixture_adversaries[name]
    assert build_r_a(adv).facet_count() == union_count
    assert len(r_a_by_definition(adv, "intersection")) == inter_count


def test_r_a_matches_definition():
    """Differential check of the integer-coded filter against the Simplex
    filter: every fair live family at n <= 3 (49), then k_of(4, 1) and
    k_of(4, 2)."""
    for adv in fair_live_up_to_3() + [make_k_of(4, 1), make_k_of(4, 2)]:
        assert (build_r_a(adv).complex.facets
                == r_a_by_definition(adv, "union")), adv


def test_table_is_coded_from_runs_without_decoding_vertices(monkeypatch):
    """The Chr Chr s table is built from pairs of runs: no vertex or
    simplex is decoded back into ints on the way to R_A, and the kept
    facets are the objects chr2_complex holds, not copies."""
    def no_decoding(*args):
        raise AssertionError("decoded a Simplex while building the table")

    monkeypatch.setattr(affine_module, "packed_views", no_decoding)
    monkeypatch.setattr(subdivision_module, "packed_views", no_decoding)
    affine_module._chr2_table.cache_clear()
    for n, count in [(2, 9), (3, 142), (4, 3851)]:
        task = build_r_a(make_t_resilient(n, 1))
        assert task.facet_count() == count
        # the contending facets too are read off the table
        assert len(contention_simplices(n, n - 1)) == factorial(n)
        held = {id(f) for f in chr2_complex(n).facets}
        assert all(id(f) in held for f in task.complex.facets)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_table_matches_the_reference_clique_loop(n):
    """The table read off the runs' order codes equals the one of the
    reference loop over every vertex pair, ids and order included."""
    assert affine_module._chr2_table(n) == chr2_table_by_vertex_pairs(n)


# facet counts of R_A for each symmetric n=4 family
N4_COUNTS = {
    (1,): 1015, (2,): 1879, (3,): 2311, (4,): 2503, (1, 2): 3587,
    (1, 3): 4073, (1, 4): 4077, (2, 3): 3949, (2, 4): 4265, (3, 4): 3851,
    (1, 2, 3): 4949, (1, 2, 4): 5157, (1, 3, 4): 5157, (2, 3, 4): 4949,
    (1, 2, 3, 4): 5625,
}


@pytest.mark.parametrize("sizes", sorted(N4_COUNTS),
                         ids=lambda sizes: ",".join(map(str, sizes)))
def test_symmetric_n4_task_counts(sizes):
    assert build_r_a(make_symmetric(4, sizes)).facet_count() == N4_COUNTS[sizes]


# --- color swaps ------------------------------------------------------------------


def test_symmetric_under_matches_the_facet_oracle():
    """Every color swap of R_A of every fair family up to n = 3, decided on
    alpha and facet by facet."""
    asymmetric = 0
    for adv in fair_live_up_to_3():
        task = build_r_a(adv)
        for a, b in combinations(range(1, adv.n + 1), 2):
            closed = task.symmetric_under(a, b)
            assert closed == symmetric_by_facets(task, a, b)
            asymmetric += not closed
    assert asymmetric == 74


def test_symmetric_n4_tasks_are_closed_under_every_swap():
    for sizes in N4_COUNTS:
        task = build_r_a(make_symmetric(4, sizes))
        assert all(task.symmetric_under(a, b) for a, b in combinations(range(1, 5), 2))


@pytest.mark.parametrize("bad", [True, 1.0, "1"])
def test_symmetric_under_rejects_non_integer_colors(bad):
    """A swap names two int colors (`AgreementFunction.swap_keeps`); True is
    not read as 1."""
    task = build_r_a(make_k_of(3, 1))
    for a, b in ((bad, 2), (2, bad)):
        with pytest.raises(AdversaryError, match=re.escape(
                f"color must be an integer, got {bad!r}")):
            task.symmetric_under(a, b)


def test_union_variant_contains_intersection_variant(fixture_adversaries):
    for adv in fixture_adversaries.values():
        union = build_r_a(adv).complex.facets
        assert r_a_by_definition(adv, "intersection") <= union


def test_variant_divergence_matches_golden(fixture_adversaries):
    got = variant_divergence_report(sorted(fixture_adversaries.items()))
    want = json.loads((DATA_DIR / "ra_variant_divergence.json").read_text())
    assert got == want


def test_no_codes_are_held_exactly_when_the_task_has_a_facet(fixture_tasks):
    """Membership of the empty set of codes: held by every task with a
    facet, the fake held as its complex too, and by no code complex without
    a facet (R_A always has one, so an empty one stands in for it)."""
    for task in fixture_tasks.values():
        assert task.holds(()) and task.holds(iter(()))
        assert ComplexTask(task.name, task.n, task.complex, task.alpha).holds(())
    empty = CodeComplex(3, ())
    assert not empty.holds(()) and not empty.holds(iter(()))


def test_tasks_are_pure_full_dimensional(fixture_tasks):
    for task in fixture_tasks.values():
        dims = {f.dim for f in task.complex.facets}
        assert dims == {task.n - 1}


def test_build_r_a_validates_input():
    with pytest.raises(AdversaryError):
        build_r_a(Adversary(3, [frozenset({1, 2}), frozenset({3})]))
    with pytest.raises(AdversaryError):
        build_r_a(Adversary(3, []))
    with pytest.raises(AdversaryError):
        build_r_kof(3, 4)


# --- verification sweeps ----------------------------------------------------------


def test_cs_distribution_holds_for_fair_families(fair_live_adversaries):
    for adv in fair_live_adversaries:
        report = verify_cs_distribution(adv)
        assert report.ok, report.violations


def test_single_carrier_holds_for_fair_families(fair_live_adversaries):
    for adv in fair_live_adversaries:
        report = verify_single_carrier(adv)
        assert report.ok, report.violations


# --- serialization -----------------------------------------------------------------


def test_task_to_dict_shape(fixture_tasks):
    doc = task_to_dict(fixture_tasks["obstruction_free_1"])
    assert doc["name"] == "r_adv"
    assert doc["combine"] == "union"
    assert doc["n"] == 3
    assert len(doc["facets"]) == 73
    assert doc["alpha"][""] == 0
    assert doc["alpha"]["1,2,3"] == 1
