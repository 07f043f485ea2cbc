from __future__ import annotations

import json
import re
from itertools import combinations, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinetask import (Adversary, AdversaryError, UnfairAdversaryError,
                        adversary_from_dict, adversary_to_dict,
                        agreement_function, check_fairness, classify, csize,
                        enumerate_adversaries, is_superset_closed,
                        is_symmetric, make_k_of, make_superset_closed,
                        make_symmetric, make_t_resilient, require_fair, setcon,
                        verify_fair_subtraction)
from conftest import DATA_DIR, load_fixture
from affinetask.adversary import _hitting_number, _levels, _unfair_pair
from affinetask.bits import mask_of
from oracles import (fairness_by_definition, hitting_number_brute,
                     levels_by_lists, restrict, restrict2,
                     setcon_by_definition, superset_closed_by_definition,
                     symmetric_by_definition, symmetric_setcon,
                     unfair_pair_by_lists)


# --- setcon -------------------------------------------------------------------


@pytest.mark.parametrize("n,t,expected", [(3, 1, 2), (4, 1, 2), (4, 2, 3), (3, 2, 3)])
def test_setcon_t_resilient(n, t, expected):
    adv = make_t_resilient(n, t)
    assert setcon(adv) == expected
    assert symmetric_setcon(adv) == expected
    assert csize(adv) == expected


@pytest.mark.parametrize("n,k,expected", [(3, 1, 1), (3, 2, 2), (4, 3, 3)])
def test_setcon_k_obstruction_free(n, k, expected):
    adv = make_k_of(n, k)
    assert setcon(adv) == expected
    assert symmetric_setcon(adv) == expected
    # singletons are live, so only the whole universe hits everything
    assert csize(adv) == n


def test_setcon_asymmetric_example():
    # {1,2} and {3} never appear together in a live superset: level stays 1
    adv = Adversary(3, [frozenset({1, 2}), frozenset({3})])
    assert setcon(adv) == 1


def test_setcon_empty_family_is_zero():
    assert setcon(Adversary(3, [])) == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_symmetric_shortcut_matches_recursion(n):
    """Distinct live cardinalities == recursive level, for every size set."""
    for r in range(1, n + 1):
        for sizes in combinations(range(1, n + 1), r):
            adv = make_symmetric(n, sizes)
            assert setcon(adv) == symmetric_setcon(adv) == len(sizes)


def test_symmetric_setcon_rejects_asymmetric():
    adv = Adversary(3, [frozenset({1, 2})])
    with pytest.raises(AdversaryError):
        symmetric_setcon(adv)


def _differential_families():
    """All n=3 families, every 17th n=4 family and the symmetric n=4 ones.
    The stride is odd so that every live set of the pool, singletons
    included, is in some sampled families and out of others."""
    yield from enumerate_adversaries(3)
    yield from islice(enumerate_adversaries(4), 0, None, 17)
    for r in range(1, 5):
        for sizes in combinations(range(1, 5), r):
            yield make_symmetric(4, sizes)


def test_adversary_layer_matches_definition():
    """The mask table against the set-based definitions: setcon, every alpha
    value, the fairness verdict and witness, csize and both predicates."""
    count = 0
    for adv in _differential_families():
        count += 1
        universe = range(1, adv.n + 1)
        alpha = agreement_function(adv)
        for k in range(adv.n + 1):
            for P in combinations(universe, k):
                assert alpha(P) == setcon_by_definition(
                    restrict(adv, P).live_sets), (adv, P)
        assert setcon(adv) == setcon_by_definition(adv.live_sets), adv
        verdict = check_fairness(adv)
        assert (verdict.fair, verdict.witness) == fairness_by_definition(adv), adv
        assert csize(adv) == hitting_number_brute(adv.live_sets), adv
        assert is_superset_closed(adv) == superset_closed_by_definition(adv), adv
        assert is_symmetric(adv) == symmetric_by_definition(adv), adv
    assert count == 128 + 1928 + 15


def _named_n5_families():
    """The symmetric, t-resilient and k-obstruction-free families at n=5."""
    for r in range(1, 6):
        for sizes in combinations(range(1, 6), r):
            yield make_symmetric(5, sizes)
    yield from (make_t_resilient(5, t) for t in range(5))
    yield from (make_k_of(5, k) for k in range(1, 6))


def test_packed_levels_match_the_list_reference():
    """Each packed level, read back row by row, against the levels filled
    one P at a time by `levels_by_lists`, and the fairness verdict and first
    witness against `unfair_pair_by_lists`: every family for n <= 3, all
    32,768 families for n=4 and the named n=5 families."""
    families = [a for n in range(1, 5) for a in enumerate_adversaries(n)]
    families += _named_n5_families()
    for adv in families:
        n = adv.n
        row = (1 << (1 << n)) - 1
        got, want = _levels(adv), levels_by_lists(adv)
        assert [[level >> (P << n) & row for P in range(1 << n)]
                for level in got] == want, adv
        assert _unfair_pair(n, got) == unfair_pair_by_lists(n, want), adv
    assert len(families) == 2 + 8 + 128 + 32768 + 31 + 5 + 5


# --- restriction --------------------------------------------------------------


def test_restrict_keeps_contained_sets():
    adv = make_k_of(3, 2)
    sub = restrict(adv, {1, 2})
    assert sub.live_sets == frozenset(
        {frozenset({1}), frozenset({2}), frozenset({1, 2})})


def test_restrict2_keeps_sets_meeting_q():
    adv = make_k_of(3, 2)
    sub = restrict2(adv, {1, 2}, {1})
    assert sub.live_sets == frozenset({frozenset({1}), frozenset({1, 2})})


def test_restrict2_requires_q_inside_p():
    with pytest.raises(AdversaryError):
        restrict2(make_k_of(3, 1), {1, 2}, {3})


# --- fairness -----------------------------------------------------------------


def test_fairness_sweep_counts(fair_live_adversaries):
    all3 = list(enumerate_adversaries(3))
    assert len(all3) == 128
    assert sum(check_fairness(a).fair for a in all3) == 44
    assert len(fair_live_adversaries) == 43


def test_superset_closed_families_are_fair():
    for adv in enumerate_adversaries(3):
        if adv.live_sets and is_superset_closed(adv):
            assert check_fairness(adv).fair


@pytest.mark.parametrize("n", [2, 3, 4])
def test_symmetric_families_are_fair(n):
    for r in range(1, n + 1):
        for sizes in combinations(range(1, n + 1), r):
            assert check_fairness(make_symmetric(n, sizes)).fair


def test_unfair_witness_golden():
    data = json.loads((DATA_DIR / "unfair_witness.json").read_text())
    adv = Adversary(3, [frozenset(s) for s in data["live_sets"]])
    verdict = check_fairness(adv)
    assert not verdict
    P, Q = verdict.witness
    assert sorted(P) == data["witness"]["P"]
    assert sorted(Q) == data["witness"]["Q"]
    with pytest.raises(UnfairAdversaryError):
        require_fair(adv)
    row = classify(adv)
    assert row["fair"] is False
    assert row["unfair_witness"] == data["witness"]


def test_fair_subtraction_clean_on_fair_families(fair_live_adversaries):
    for adv in fair_live_adversaries:
        report = verify_fair_subtraction(adv)
        assert report.ok
        assert report.checked == 27  # ordered (P, Q <= P) pairs over 3 colors


def test_fair_subtraction_rejects_unfair():
    adv = Adversary(3, [frozenset({1, 2}), frozenset({3})])
    with pytest.raises(UnfairAdversaryError):
        verify_fair_subtraction(adv)


# --- agreement function ---------------------------------------------------------


def test_agreement_function_values(fixture_adversaries):
    full = frozenset({1, 2, 3})
    for adv in fixture_adversaries.values():
        alpha = agreement_function(adv)
        assert alpha(frozenset()) == 0
        assert alpha(full) == setcon(adv)
        for P, a in alpha.values().items():
            assert a == setcon(restrict(adv, P))


def test_agreement_function_monotone_bounded(fixture_adversaries):
    for adv in fixture_adversaries.values():
        alpha = agreement_function(adv)
        for mask in range(1 << adv.n):
            for b in range(adv.n):
                if mask & (1 << b):
                    continue
                lo, hi = alpha.of_mask(mask), alpha.of_mask(mask | (1 << b))
                assert lo <= hi <= lo + 1


def test_swap_keeps_alpha_on_the_subsets_of_the_mask():
    """swap_keeps against alpha read on color sets: for every n <= 3
    family, every swap (a b) and every mask holding both."""
    for n in (2, 3):
        for adv in enumerate_adversaries(n):
            alpha = agreement_function(adv)
            for a, b in combinations(range(1, n + 1), 2):
                def swap(P):
                    return {b if c == a else a if c == b else c for c in P}
                for within in range(1 << n):
                    colors = [c for c in range(1, n + 1) if within >> c - 1 & 1]
                    if a not in colors or b not in colors:
                        continue
                    want = all(alpha(P) == alpha(swap(P))
                               for k in range(len(colors) + 1)
                               for P in combinations(colors, k))
                    assert alpha.swap_keeps(a, b, within) == want


def test_require_fair_returns_the_agreement_function(fair_live_adversaries):
    for adv in fair_live_adversaries:
        assert require_fair(adv) == agreement_function(adv)
    with pytest.raises(UnfairAdversaryError,
                       match=r"^adversary is not fair: witness P=\[1, 3\], Q=\[1\]$"):
        require_fair(Adversary(3, [frozenset({1, 2}), frozenset({3})]))


# --- hitting sets ---------------------------------------------------------------


def test_hitting_number_empty_family():
    assert [_hitting_number(n, 0) for n in range(1, 6)] == [0] * 5


@settings(max_examples=150, deadline=None)
@given(st.lists(st.frozensets(st.integers(1, 5), min_size=1, max_size=5),
                max_size=8))
def test_hitting_number_matches_brute(family):
    mask = sum({1 << mask_of(s) for s in family})  # one bit per distinct set
    assert _hitting_number(5, mask) == hitting_number_brute(family)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, (1 << 7) - 1), st.integers(0, (1 << 7) - 1))
def test_setcon_monotone_under_family_inclusion(mask, other):
    pool = [frozenset(c) for k in (1, 2, 3)
            for c in combinations((1, 2, 3), k)]
    small = Adversary(3, [s for i, s in enumerate(pool) if mask & other & (1 << i)])
    large = Adversary(3, [s for i, s in enumerate(pool) if mask & (1 << i)])
    assert setcon(small) <= setcon(large)


# --- structure and serialization -------------------------------------------------


def test_structure_predicates():
    assert is_symmetric(make_k_of(4, 2))
    assert not is_symmetric(Adversary(3, [frozenset({1, 2})]))
    assert is_superset_closed(make_t_resilient(4, 1))
    assert not is_superset_closed(make_k_of(3, 1))


def test_csize_equals_setcon_when_superset_closed():
    """Minimum hitting set size doubles as the agreement level."""
    for adv in enumerate_adversaries(3):
        if adv.live_sets and is_superset_closed(adv):
            assert csize(adv) == setcon(adv)


@pytest.mark.parametrize("n,live_sets,bad", [
    (2.0, [], "2.0"),
    (True, [[1]], "True"),
    (3, [[1.0, 2]], "1.0"),
    (3, [[True, 2]], "True"),
    (3, [[2], ["1"]], "'1'"),
])
def test_adversary_rejects_non_integers(n, live_sets, bad):
    """n and every live-set member must be an int; a bool is not one."""
    with pytest.raises(AdversaryError, match=f"must be an integer, got {bad}"):
        Adversary(n, live_sets)


@pytest.mark.parametrize("bad", [True, 1.0, "1"])
@pytest.mark.parametrize("what,call", [
    pytest.param("n", lambda x: make_symmetric(x, [1]), id="symmetric-n"),
    pytest.param("size", lambda x: make_symmetric(3, [1, x]), id="symmetric-size"),
    pytest.param("n", lambda x: make_t_resilient(x, 1), id="t_resilient-n"),
    pytest.param("t", lambda x: make_t_resilient(3, x), id="t_resilient-t"),
    pytest.param("n", lambda x: make_k_of(x, 1), id="k_of-n"),
    pytest.param("k", lambda x: make_k_of(3, x), id="k_of-k"),
    pytest.param("n", lambda x: make_superset_closed(x, [[1]]), id="superset_closed-n"),
    pytest.param("live-set member", lambda x: make_superset_closed(3, [[1, x]]),
                 id="superset_closed-member"),
    pytest.param("n", lambda x: next(enumerate_adversaries(x)), id="enumerate-n"),
])
def test_builders_reject_non_integers(what, call, bad):
    """Each builder checks its own integers, a member before a set can merge
    True into 1: a bool is not read as 1, and a float or a string raises
    AdversaryError rather than a bare TypeError."""
    with pytest.raises(AdversaryError, match=re.escape(
            f"{what} must be an integer, got {bad!r}")):
        call(bad)


@pytest.mark.parametrize("bad", [True, 1.0, "1"])
def test_agreement_function_rejects_non_integer_colors(bad):
    """alpha([True]) is not alpha({1}), and a float or a string color raises
    AdversaryError rather than a bare TypeError."""
    alpha = agreement_function(make_k_of(3, 1))
    with pytest.raises(AdversaryError, match=re.escape(
            f"color must be an integer, got {bad!r}")):
        alpha([bad])


def test_adversary_validation():
    with pytest.raises(AdversaryError):
        Adversary(0, [])
    with pytest.raises(AdversaryError):
        Adversary(2, [frozenset()])
    with pytest.raises(AdversaryError):
        Adversary(2, [frozenset({3})])
    with pytest.raises(AdversaryError):
        make_t_resilient(3, 3)
    with pytest.raises(AdversaryError):
        make_k_of(3, 0)


@pytest.mark.parametrize("name,builder", [
    ("obstruction_free_1", lambda: make_k_of(3, 1)),
    ("obstruction_free_2", lambda: make_k_of(3, 2)),
    ("resilient_1", lambda: make_t_resilient(3, 1)),
    ("superset_closed_2_13", lambda: make_superset_closed(3, [[2], [1, 3]])),
])
def test_fixture_files_round_trip(name, builder):
    adv = adversary_from_dict(load_fixture(name))
    assert adv == builder()
    assert adversary_from_dict(adversary_to_dict(adv)) == adv


def test_adversary_from_dict_rejects_bad_input():
    with pytest.raises(AdversaryError):
        adversary_from_dict({"n": 3, "kind": "mystery"})
    with pytest.raises(AdversaryError):
        adversary_from_dict({"kind": "k_of", "k": 1})


@pytest.mark.parametrize("doc", [
    {"n": 3.7, "live_sets": [[1, 2]]},
    {"n": 3.0, "live_sets": [[1, 2]]},
    {"n": "3", "live_sets": [[1, 2]]},
    {"n": True, "live_sets": [[1]]},
    {"n": 3, "live_sets": [[True, 2]]},
    {"n": 3, "live_sets": [[1.0, 2]]},
    {"n": 3, "live_sets": ["12"]},
    {"n": 3, "kind": "superset_closed", "live_sets": [[2], [1, False]]},
    {"n": 3, "kind": "symmetric", "sizes": [True, 2]},
    {"n": 3, "kind": "t_resilient", "t": 1.0},
    {"n": 3, "kind": "t_resilient", "t": False},
    {"n": 3, "kind": "k_of", "k": "2"},
])
def test_adversary_from_dict_rejects_non_integers(doc):
    with pytest.raises(AdversaryError, match="must be an integer"):
        adversary_from_dict(doc)


def test_classify_row_shape():
    row = classify(make_t_resilient(3, 1))
    assert row == {
        "live_sets": [[1, 2], [1, 2, 3], [1, 3], [2, 3]],
        "setcon": 2,
        "csize": 2,
        "superset_closed": True,
        "symmetric": True,
        "fair": True,
    }
