from __future__ import annotations

import re
from itertools import combinations

import pytest

from affinetask import (ComplexError, LeaderError, LeaderMap, Simplex,
                        agreement_function, build_r_a, chr_complex, closure,
                        make_k_of, make_symmetric, make_t_resilient,
                        standard_simplex, two_round_facet, verify_leader)
from affinetask import affine as affine_module
from affinetask import leader as leader_module
from affinetask import subdivision as subdivision_module
from affinetask.bits import colors_of
from oracles import (ComplexTask, code_of, critical_faces, mu_by_definition,
                     r_a_intersection_task, verify_mu_agreement,
                     verify_mu_robustness, verify_mu_validity)


@pytest.fixture(scope="module")
def solo_alpha():
    return agreement_function(make_k_of(3, 1))


@pytest.fixture
def solo_map(solo_alpha):
    return LeaderMap(solo_alpha)


@pytest.fixture(scope="module")
def staircase_facet():
    # round 1 strictly sequential, round 2 fully synchronized
    return two_round_facet(((1,), (2,), (3,)), ((1, 2, 3),), 3)


def test_delta_picks_smallest_critical_carrier(solo_map, solo_alpha,
                                               staircase_facet):
    """The one critical view of v3's round-two view is process 1's, so a
    query meeting it elects inside it."""
    v3 = next(v for v in staircase_facet if v.color == 3)
    critical = [theta[0].payload.colors
                for theta in critical_faces(v3.payload, solo_alpha)]
    assert critical == [frozenset({1})]
    for Q in ({1, 3}, {1, 2, 3}):
        assert solo_map(code_of(v3), Q) == mu_by_definition(v3, Q, solo_alpha) == 1


def test_gamma_picks_smallest_seen_carrier(solo_map, solo_alpha,
                                           staircase_facet):
    """Queries missing the critical view elect inside the smallest view v3
    saw that meets them: {1, 2, 3} for {3}, {1, 2} for {2, 3}."""
    v3 = next(v for v in staircase_facet if v.color == 3)
    assert sorted(u.payload.colors for u in v3.payload) == [
        frozenset({1}), frozenset({1, 2}), frozenset({1, 2, 3})]
    assert solo_map.seen(code_of(v3)) == 0b111
    for Q, leader in (({3}, 3), ({2, 3}, 2)):
        assert (solo_map(code_of(v3), Q) == mu_by_definition(v3, Q, solo_alpha)
                == leader)


def test_mu_examples(solo_map, staircase_facet):
    by_color = {v.color: code_of(v) for v in staircase_facet}
    # the lone critical member is process 1: everyone who may pick it does
    for c in (1, 2, 3):
        assert solo_map(by_color[c], {1, 2, 3}) == 1
    # queries missing process 1 fall back to the smallest seen carrier
    assert solo_map(by_color[3], {3}) == 3
    assert solo_map(by_color[3], {2, 3}) == 2
    # a second call is a lookup with the same answer
    assert solo_map(by_color[3], frozenset({2, 3})) == 2


def test_mu_requires_own_color_in_query(solo_map, staircase_facet):
    v3 = next(code_of(v) for v in staircase_facet if v.color == 3)
    # the error is raised on every call: a failed election is never memoized
    for _ in range(2):
        with pytest.raises(LeaderError):
            solo_map(v3, {1, 2})


@pytest.mark.parametrize("Q,color", [([0, 1, 2, 3], 0), ({-2, 3}, -2)])
def test_mu_rejects_a_query_color_below_one(solo_map, staircase_facet, Q,
                                            color):
    """A color below 1 is no process: it raises LeaderError naming it,
    where colors above n are ignored."""
    v3 = next(code_of(v) for v in staircase_facet if v.color == 3)
    with pytest.raises(LeaderError, match=f"color {color} of Q="):
        solo_map(v3, Q)
    assert solo_map(v3, [1, 2, 3, 4]) == solo_map(v3, [1, 2, 3]) == 1


@pytest.mark.parametrize("Q", [[1.5, 3], [True, 3], ["1", 3]])
def test_mu_rejects_a_query_color_that_is_no_int(solo_map, staircase_facet, Q):
    """A float, a bool or a string is no color, even one equal to a
    color: it raises LeaderError, as a process id does in the simulator."""
    v3 = next(code_of(v) for v in staircase_facet if v.color == 3)
    with pytest.raises(LeaderError, match=re.escape(
            f"query color must be an integer, got {Q[0]!r}")):
        solo_map(v3, Q)


@pytest.mark.parametrize("Q", [{1.0, 2}, {True, 3}])
def test_verify_leader_rejects_a_query_color_that_is_no_int(Q):
    bad = min(Q)  # 1.0 or True, the color that is no int
    with pytest.raises(LeaderError, match=re.escape(
            f"query color must be an integer, got {bad!r}")):
        verify_leader(make_t_resilient(3, 1), queries=[Q])


@pytest.mark.parametrize("bad", [True, 1.0, "1"])
def test_verify_leader_checks_a_query_color_before_its_range(bad):
    """A string among ints is reported as no int, not met by a bare
    TypeError from sorting the set for the range message."""
    with pytest.raises(LeaderError, match=re.escape(
            f"query color must be an integer, got {bad!r}")):
        verify_leader(make_t_resilient(3, 1), queries=[[bad, 2]])


@pytest.mark.parametrize("code", [0, 8, 1, 2**40 + 1, -5, 0b10001 << 3 | 1],
                         ids=["color-0", "color-0-with-view", "no-own-view",
                              "field-above-n", "negative", "view-above-n"])
def test_leader_map_rejects_a_number_that_is_no_vertex_code(code):
    """A code is checked when first met: its color in 1..n, no field above
    n, no view color above n, its own field holding its color. Each map is
    fresh, so the code is met first by `seen`, then by the call."""
    for ask in ("seen", "call"):
        mu = LeaderMap(agreement_function(make_k_of(3, 1)))
        with pytest.raises(LeaderError, match=re.escape(
                f"{code} is no vertex code over 1..3")):
            mu.seen(code) if ask == "seen" else mu(code, [1, 2, 3])


def test_leader_map_rejects_vertices_outside_chr2():
    """A base vertex or a Chr s vertex has no round-two view to elect from,
    so it has no vertex code to pass to the leader map."""
    outside = [next(iter(standard_simplex(3).vertices)),
               next(v for v in chr_complex(3).vertices if v.color == 1)]
    for v in outside:
        with pytest.raises(ComplexError, match="is not a Chr Chr s vertex"):
            code_of(v)


def test_leader_reports_on_fixture_task(fixture_adversaries, fixture_tasks):
    adv = fixture_adversaries["obstruction_free_2"]
    task = fixture_tasks["obstruction_free_2"]
    reports = verify_leader(adv, task)
    for report in reports:
        assert report.ok
        assert report.checked > 0
    assert [r.kind for r in reports] == [
        "mu_validity", "mu_agreement", "mu_robustness"]


def test_leader_restricted_query_subset(fixture_adversaries, fixture_tasks):
    adv = fixture_adversaries["resilient_1"]
    task = fixture_tasks["resilient_1"]
    reports = verify_leader(adv, task, queries=[frozenset({1, 2})])
    assert all(r.ok for r in reports)


def test_leader_rejects_task_of_another_adversary():
    adv = make_k_of(3, 1)
    with pytest.raises(LeaderError, match="another agreement function"):
        verify_leader(adv, build_r_a(make_k_of(3, 3)))
    with pytest.raises(LeaderError, match="n=2"):
        verify_leader(adv, build_r_a(make_k_of(2, 1)))


def test_robustness_catches_a_restriction_that_elects_another(
        monkeypatch, fixture_adversaries, fixture_tasks):
    """A map patched at one vertex: the full query elects a seen process
    other than the leader of the query restricted to the seen processes."""
    adv = fixture_adversaries["obstruction_free_2"]
    task = fixture_tasks["obstruction_free_2"]
    mu = LeaderMap(agreement_function(adv))
    full = 0b111
    vertex = next(v for v in sorted(task.complex.vertices, key=lambda u: u.uid)
                  if mu.seen(code_of(v)) != full
                  and mu.seen(code_of(v)).bit_count() >= 2)
    target = code_of(vertex)
    seen = mu.seen(target)
    honest = mu._entry(target)[1][full]
    assert honest == mu._entry(target)[1][seen]
    other = next(1 << c - 1 for c in sorted(colors_of(seen)) if 1 << c - 1 != honest)
    entry = LeaderMap._entry

    def patched(self, code):
        seen, leaders = entry(self, code)
        if code == target:
            leaders = leaders[:full] + (other,) + leaders[full + 1:]
        return seen, leaders

    monkeypatch.setattr(LeaderMap, "_entry", patched)
    validity, _, robustness = verify_leader(adv, task)
    assert validity.ok
    assert robustness.violations == [{
        "vertex": vertex.uid, "Q": [1, 2, 3], "leader": other.bit_length(),
        "restricted_leader": honest.bit_length()}]


def test_leader_verifies_intersection_variant(fixture_adversaries):
    """A sub-task of R_A with the adversary's own alpha (the oracle's
    intersection-guard reading) is accepted, and the map holds on it."""
    adv = fixture_adversaries["obstruction_free_2"]
    reports = verify_leader(adv, r_a_intersection_task(adv))
    assert all(r.ok and r.checked > 0 for r in reports)



def test_leader_map_matches_definition(chr2_3, fixture_adversaries):
    """Differential check of the tabled map against the uncached oracle,
    on every Chr Chr s vertex and every query set holding its color."""
    advs = set(fixture_adversaries.values())
    advs.update(make_k_of(3, k) for k in (1, 2, 3))
    assert len(advs) == 5
    queries = [frozenset(Q) for k in (1, 2, 3)
               for Q in combinations((1, 2, 3), k)]
    vertices = sorted(chr2_3.vertices, key=lambda u: u.uid)
    for adv in sorted(advs, key=repr):
        alpha = agreement_function(adv)
        mu = LeaderMap(alpha)
        pairs = [(v, Q) for v in vertices for Q in queries if v.color in Q]
        assert len(pairs) == 396
        expected = {(v, Q): mu_by_definition(v, Q, alpha) for v, Q in pairs}
        for _ in range(2):  # computed first, looked up second
            for (v, Q), leader in expected.items():
                assert mu(code_of(v), Q) == leader, (adv, v, Q)


def test_leader_map_decodes_each_vertex_once(monkeypatch, chr2_3, solo_alpha):
    """Every query set of a vertex is elected from one decoding of its views."""
    decoded = []
    groups = leader_module._view_groups
    monkeypatch.setattr(leader_module, "_view_groups",
                        lambda packed: decoded.append(packed) or groups(packed))
    mu = LeaderMap(solo_alpha)
    queries = [frozenset(Q) for k in (1, 2, 3)
               for Q in combinations((1, 2, 3), k)]
    codes = [code_of(v) for v in chr2_3.vertices]
    for code in codes:
        for Q in queries:
            if code & 7 in Q:
                mu(code, Q)
        mu.seen(code)
    assert sorted(decoded) == sorted(code >> 3 for code in codes)


# fixture -> (validity, agreement, robustness) checks of the leader sweep on R_A
LEADER_CHECKS = {
    "obstruction_free_1": [348, 1387, 348],
    "obstruction_free_2": [396, 2698, 396],
    "resilient_1": [384, 2698, 384],
    "superset_closed_2_13": [388, 2755, 388],
}


def test_leader_sweep_of_r_a_builds_no_complex(monkeypatch,
                                              fixture_adversaries):
    """verify_leader reads R_A's facets as vertex codes: it builds neither
    the task's complex nor chr2_facets, and its reports are the frozen
    counts and those of the sweep over the task's complex."""
    def no_facets(n):
        raise AssertionError("built the facets of Chr Chr s")

    swept = {}
    with monkeypatch.context() as patched:
        patched.setattr(affine_module, "chr2_facets", no_facets)
        patched.setattr(subdivision_module, "chr2_facets", no_facets)
        for name, adv in sorted(fixture_adversaries.items()):
            task = build_r_a(adv)
            swept[name] = task, verify_leader(adv, task)
            assert "complex" not in vars(task), name
    for name, (task, reports) in swept.items():
        assert [r.checked for r in reports] == LEADER_CHECKS[name]
        assert all(r.ok for r in reports), name
        adv = fixture_adversaries[name]
        held = ComplexTask(task.name, task.n, task.complex, task.alpha)
        assert ([r.to_dict() for r in reports]
                == [r.to_dict() for r in verify_leader(adv, held)]), name


@pytest.mark.parametrize("sizes", [(1,), (1, 2), (3, 4), (1, 2, 3), (1, 2, 3, 4)])
def test_r_a_counted_and_led_at_n4_stays_ids(sizes):
    """R_A carved, counted and swept by the leader reads its run-pair ids
    alone: at n = 4, on the symmetric families of the task benchmark,
    neither its facet index nor its complex is built."""
    adv = make_symmetric(4, sizes)
    task = build_r_a(adv)
    assert task.facet_count() > 0
    assert all(r.ok for r in verify_leader(adv, task))
    assert not {"_index", "complex"} & set(vars(task))


@pytest.fixture(scope="module")
def kof41_reports():
    return verify_leader(make_k_of(4, 1))


def test_leader_properties_hold_at_n4(kof41_reports):
    assert [r.checked for r in kof41_reports] == [6304, 65975, 6304]
    assert [len(r.violations) for r in kof41_reports] == [0, 0, 0]


def _chr2_task(chr2_3, adv) -> ComplexTask:
    """All of Chr Chr s at n=3, posed as the task of the adversary's alpha."""
    return ComplexTask("chr2", 3, chr2_3, agreement_function(adv))


# alpha of the family -> agreement violations on all of Chr Chr s
CHR2_AGREEMENT_VIOLATIONS = [
    (make_k_of(3, 1), 187),
    (make_k_of(3, 2), 1),
    (make_t_resilient(3, 1), 115),
]


@pytest.mark.parametrize("adv, expected", CHR2_AGREEMENT_VIOLATIONS, ids=repr)
def test_agreement_sweep_reports_violations_on_chr2(chr2_3, adv, expected):
    """Chr Chr s is too big a task for these alphas: some faces elect more
    leaders than alpha of their base carrier allows."""
    validity, agreement, robustness = verify_leader(adv, _chr2_task(chr2_3, adv))
    assert [r.checked for r in (validity, agreement, robustness)] == [396, 3211, 396]
    assert validity.ok and robustness.ok
    assert len(agreement.violations) == expected
    for bad in agreement.violations:
        assert len(bad["leaders"]) > bad["limit"]
        assert set(bad["leaders"]) <= set(bad["Q"])


def _by_oracle(adv, task, queries=None) -> list[dict]:
    return [sweep(adv, task, queries).to_dict() for sweep in
            (verify_mu_validity, verify_mu_agreement, verify_mu_robustness)]


def test_verify_leader_matches_the_sweeps_by_definition(
        chr2_3, fixture_adversaries, fixture_tasks, kof41_reports):
    """The one-pass sweep reports exactly what the three sweeps on the
    leader map by definition report: counts, violations and their order."""
    cases = [(adv, _chr2_task(chr2_3, adv))
             for adv, _ in CHR2_AGREEMENT_VIOLATIONS]
    cases += [(adv, fixture_tasks[name])
              for name, adv in sorted(fixture_adversaries.items())]
    for adv, task in cases:
        assert ([r.to_dict() for r in verify_leader(adv, task)]
                == _by_oracle(adv, task)), (adv, task)
        queries = [frozenset({1, 3}), frozenset({2}), frozenset({1, 3})]
        assert ([r.to_dict() for r in verify_leader(adv, task, queries)]
                == _by_oracle(adv, task, queries)), (adv, task)
    assert ([r.to_dict() for r in kof41_reports]
            == _by_oracle(make_k_of(4, 1), None))


def test_agreement_checks_facets_below_the_top_dimension(chr2_3):
    """A facet of lower dimension than the task is checked for agreement
    too: R_A(k_of(3,1)) with one more Chr Chr s edge, on which processes 2
    and 3 elect themselves from Q = {2, 3} although their base carrier has
    alpha 1."""
    adv = make_k_of(3, 1)
    by_uid = {v.uid: v for v in chr2_3.vertices}
    edge = Simplex((by_uid["2(1(1),2(1,2,3))"],
                    by_uid["3(1(1),2(1,2,3),3(1,3))"]))
    alone = ComplexTask("edge", 3, closure([edge], n=3), agreement_function(adv))
    task = build_r_a(adv)
    both = ComplexTask("r_adv_and_edge", 3,
                       closure([*task.complex.facets, edge], n=3), task.alpha)
    assert edge in both.complex.facets
    edge_only = verify_leader(adv, alone)[1]
    assert [(bad["Q"], bad["leaders"]) for bad in edge_only.violations] == [
        ([2, 3], [2, 3])]
    agreement = verify_leader(adv, both)[1]
    assert agreement.violations == edge_only.violations
    assert agreement.checked == (verify_leader(adv, task)[1].checked
                                 + edge_only.checked)
    for case in (alone, both):
        assert ([r.to_dict() for r in verify_leader(adv, case)]
                == _by_oracle(adv, case)), case
