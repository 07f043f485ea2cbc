from __future__ import annotations

import pytest

from affinetask import (LeaderError, agreement_function, delta_q, gamma_q,
                        make_k_of, mu_q, two_round_facet, verify_leader,
                        verify_mu_agreement, verify_mu_robustness,
                        verify_mu_validity)


@pytest.fixture(scope="module")
def solo_alpha():
    return agreement_function(make_k_of(3, 1))


@pytest.fixture(scope="module")
def staircase_facet():
    # round 1 strictly sequential, round 2 fully synchronized
    return two_round_facet(((1,), (2,), (3,)), ((1, 2, 3),), 3)


def test_delta_picks_smallest_critical_carrier(solo_alpha, staircase_facet):
    v3 = next(v for v in staircase_facet if v.color == 3)
    assert delta_q(v3, {1, 2, 3}, solo_alpha) == frozenset({1})


def test_gamma_picks_smallest_seen_carrier(staircase_facet):
    v3 = next(v for v in staircase_facet if v.color == 3)
    assert gamma_q(v3, {3}) == frozenset({1, 2, 3})
    assert gamma_q(v3, {2, 3}) == frozenset({1, 2})


def test_mu_examples(solo_alpha, staircase_facet):
    by_color = {v.color: v for v in staircase_facet}
    # the lone critical member is process 1: everyone who may pick it does
    for c in (1, 2, 3):
        assert mu_q(by_color[c], {1, 2, 3}, solo_alpha) == 1
    # queries missing process 1 fall back to the smallest seen carrier
    assert mu_q(by_color[3], {3}, solo_alpha) == 3
    assert mu_q(by_color[3], {2, 3}, solo_alpha) == 2


def test_mu_requires_own_color_in_query(solo_alpha, staircase_facet):
    v3 = next(v for v in staircase_facet if v.color == 3)
    with pytest.raises(LeaderError):
        mu_q(v3, {1, 2}, solo_alpha)


def test_leader_reports_on_fixture_task(fixture_adversaries, fixture_tasks):
    adv = fixture_adversaries["obstruction_free_2"]
    task = fixture_tasks["obstruction_free_2"]
    validity = verify_mu_validity(adv, task)
    agreement = verify_mu_agreement(adv, task)
    robustness = verify_mu_robustness(adv, task)
    for report in (validity, agreement, robustness):
        assert report.ok
        assert report.checked > 0
    assert {r.kind for r in (validity, agreement, robustness)} == {
        "mu_validity", "mu_agreement", "mu_robustness"}


def test_leader_restricted_query_subset(fixture_adversaries, fixture_tasks):
    adv = fixture_adversaries["resilient_1"]
    task = fixture_tasks["resilient_1"]
    reports = verify_leader(adv, task, queries=[frozenset({1, 2})])
    assert all(r.ok for r in reports)

