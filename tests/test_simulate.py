from __future__ import annotations

import ast
import inspect
import re

import pytest

from affinetask import (Adversary, AffineTask, ChromaticComplex,
                        ProtocolModel, Simplex, SimulationError,
                        StateCapExceeded,
                        build_r_a, check_liveness, check_model, check_safety,
                        chr2_complex, chr_complex, events_from_jsonable,
                        events_to_jsonable, closure, make_k_of, make_t_resilient, replay,
                        state_cap_from_env, two_round_facet,
                        valid_participations, wait_predicate)
from affinetask import affine as affine_module
from affinetask import simulate as simulate_module
from affinetask.simulate import (DONE, INV1, INV2, STATE_CAP_ENV,
                                 _task_symmetric)
from affinetask.subdivision import (chr1_simplex, chr2_code_complex,
                                   chr2_facets, chr2_vertex, packed_views)
from oracles import (ComplexTask, check_model_per_participation, code_of,
                     explore_by_events_agrees, explore_unreduced,
                     liveness_per_state, masks, output_simplex, outputs,
                     r_a_intersection_task, returned_vertices,
                     safety_by_definition, safety_per_state,
                     successors_by_registers)


# --- tiny instances, exactly ----------------------------------------------------


def test_single_process_runs_a_linear_chain():
    model = ProtocolModel(make_k_of(1, 1))
    exploration = model.explore()
    assert exploration.state_count == 8
    assert len(exploration.terminals) == 1
    [terminal] = exploration.terminals
    assert outputs(model, terminal) == [(1, 1)]
    sigma = output_simplex(model, terminal)
    assert sigma in chr2_complex(1)
    # no choice anywhere: every state has at most one successor
    seen, frontier = {0}, [0]
    while frontier:
        nxt = [s2 for s in frontier for _, s2 in model.successors(s)]
        assert all(len(model.successors(s)) <= 1 for s in frontier)
        frontier = [s for s in nxt if s not in seen]
        seen.update(frontier)
    assert len(seen) == 8


def test_two_process_exploration_golden():
    model = ProtocolModel(make_k_of(2, 1))
    exploration = model.explore()
    assert exploration.state_count == 126
    assert len(exploration.terminals) == 11
    assert exploration.fault_budget == 0


def test_synchronized_schedule_reaches_the_synchronized_facet():
    model = ProtocolModel(make_k_of(2, 1))
    events = [
        ("step", 1), ("step", 2), ("commit1", [1, 2]),
        ("step", 1), ("step", 2),
        ("step", 1), ("step", 2), ("commit2", [1, 2]),
        ("step", 1), ("step", 2),
        ("step", 1), ("step", 2),
    ]
    state = replay(model, events)
    assert state in model.explore().terminals
    assert outputs(model, state) == [(1, 3), (2, 3)]
    assert output_simplex(model, state) == two_round_facet(((1, 2),), ((1, 2),), 2)


# --- guard properties ---------------------------------------------------------


def test_wait_predicate_loosens_as_concurrency_grows():
    table = [min(bin(m).count("1"), 2) for m in range(8)]
    for V in (3, 7):
        for same in range(8):
            for is2w in range(8):
                for lo, hi in [(0, 1), (1, 2), (0, 2)]:
                    before = wait_predicate(table, V, same, is2w, lo)
                    after = wait_predicate(table, V, same, is2w, hi)
                    assert (not before) or after


def test_registers_are_write_once():
    model = ProtocolModel(make_k_of(2, 1))
    exploration = explore_unreduced(model, track_parents=True)
    states = {0, *exploration.parents}
    for state in states:
        is1, _, is1w, is2w, _, _ = masks(model, state)
        for _, nxt in model.successors(state):
            is1_2, _, is1w2, is2w2, _, _ = masks(model, nxt)
            assert is1w & ~is1w2 == 0 and is2w & ~is2w2 == 0
            for j in range(2):
                if (is1w >> j) & 1:
                    assert is1_2[j] == is1[j]


def test_masks_take_the_largest_conc():
    model = ProtocolModel(make_k_of(3, 2))
    # round one committed {2} then {1, 3}; processes 1 and 2 returned, both
    # with Conc written: alpha({1, 2, 3}) = 2 and alpha({2}) = 1
    # process i's field starts at bit 13 i: progress, crashed, Conc
    # written, then the round-one block index from its bit 5
    state = 2 << 5 | (1 << 5) << 13 | (2 << 5) << 26
    for i in (0, 1):
        state |= (DONE | 16) << 13 * i
    is1, group, is1w, is2w, crashed, cmax = masks(model, state)
    assert is1 == (7, 2, 7) and group == (5, 2, 5)
    assert (is1w, is2w, crashed, cmax) == (3, 3, 0, 2)


FIXTURES = ["obstruction_free_1", "obstruction_free_2", "resilient_1",
            "superset_closed_2_13"]


def _reached_at_budgets(adv, budgets=(0, 1, 2)):
    """(model, every state it reaches, the initial state first) for every
    participation of adv at each fault budget, explored state by state;
    each fixture's default budget is one of 0, 1 and 2."""
    for budget in budgets:
        for P in valid_participations(adv):
            model = ProtocolModel(adv, participation=P, fault_budget=budget)
            exploration = explore_unreduced(model, track_parents=True)
            states = [0, *exploration.parents]
            assert len(states) == exploration.state_count
            yield model, states


@pytest.mark.parametrize("name", FIXTURES)
def test_successors_match_register_lists(name, fixture_adversaries):
    """The step read off the slot-word table equals the register-list step
    on every state reached, at every participation and fault budget 0, 1
    and 2."""
    for model, states in _reached_at_budgets(fixture_adversaries[name]):
        for state in states:
            assert model.successors(state) == successors_by_registers(model, state)


@pytest.mark.parametrize("name", FIXTURES)
def test_pending_masks_are_a_function_of_the_slots(name, fixture_adversaries):
    """On every state reached, at every participation and fault budget 0,
    1 and 2, process i is pending in round r exactly when it has not
    crashed and its progress is INV_r: the slot-word table reads both
    pending masks off the slots."""
    for model, states in _reached_at_budgets(fixture_adversaries[name]):
        for state in states:
            # process i's field starts at bit 13 i: its progress and
            # crashed bit are the low 4 bits, its pending bits 11 and 12
            fields = [state >> 13 * i for i in range(model.n)]
            want = [sum(1 << i for i, f in enumerate(fields) if f & 15 == progress)
                    for progress in (INV1, INV2)]
            assert [sum((f >> bit & 1) << i for i, f in enumerate(fields))
                    for bit in (11, 12)] == want


# --- full sweeps against the tasks ------------------------------------------------


SWEEP_GOLDEN = {
    # name: (participations, total states, full-P states, reachable facets)
    "obstruction_free_1": (7, 3164, 2762, 37),
    "obstruction_free_2": (7, 23885, 22475, 115),
    "resilient_1": (4, 16925, 16631, 115),
    "superset_closed_2_13": (5, 19154, 18824, 121),
}


@pytest.mark.parametrize("name", sorted(SWEEP_GOLDEN))
def test_protocol_is_safe_and_live(name, fixture_adversaries, fixture_tasks):
    adv = fixture_adversaries[name]
    task = fixture_tasks[name]
    parts, total, full_states, reach = SWEEP_GOLDEN[name]
    safety, liveness, rows = check_model(adv, task)
    assert safety.ok, safety.violations[:2]
    assert liveness.ok, liveness.violations[:2]
    assert len(rows) == parts
    assert sum(r["states"] for r in rows) == total
    full_row = next(r for r in rows if r["participation"] == [1, 2, 3])
    assert full_row["states"] == full_states


def test_every_fair_n3_family_is_safe_and_live(fair_live_adversaries):
    """The protocol against R_A over all 43 fair live n=3 families and
    every participation of each."""
    assert len(fair_live_adversaries) == 43
    states = 0
    for adv in fair_live_adversaries:
        safety, liveness, rows = check_model(adv, build_r_a(adv))
        assert safety.ok and liveness.ok, adv.family
        states += sum(r["states"] for r in rows)
    assert states == 509_816


@pytest.mark.parametrize("name", sorted(SWEEP_GOLDEN))
def test_reachable_outputs_form_a_strict_subset(name, fixture_adversaries,
                                                fixture_tasks):
    """The task over-approximates: every output is a facet, not every facet
    an output."""
    adv = fixture_adversaries[name]
    task = fixture_tasks[name]
    model = ProtocolModel(adv)
    exploration = model.explore()
    reached = {output_simplex(model, s) for s in exploration.terminals}
    full_dim = {s for s in reached if s is not None and s.dim == 2}
    assert full_dim < task.complex.facets
    assert len(full_dim) == SWEEP_GOLDEN[name][3]


def test_wait_free_protocol_reaches_every_facet():
    adv = make_t_resilient(3, 2)
    task = build_r_a(adv)
    model = ProtocolModel(adv)
    exploration = model.explore()
    reached = {output_simplex(model, s) for s in exploration.terminals}
    full_dim = {s for s in reached if s is not None and s.dim == 2}
    assert full_dim == task.complex.facets
    assert len(full_dim) == 169


def test_liveness_fails_when_crashes_exceed_budget():
    """One crash more than the agreement level leaves waiters stranded."""
    model = ProtocolModel(make_k_of(2, 1), fault_budget=1)
    exploration = model.explore(track_parents=True)
    report = check_liveness(model, exploration)
    assert not report.ok
    assert len(report.violations) == len(report.states) == 10
    stuck = set(report.states.values())
    assert report.states == {k: s for k, s in enumerate(exploration.terminals)
                             if s in stuck}
    assert "states" not in report.to_dict()
    assert all(any(p["pc"] == "Crashed" for p in v["state"]["processes"].values())
               for v in report.violations)
    for state, violation in zip(report.states.values(), report.violations):
        assert model.decode(state) == violation["state"]
        trace = model.trace_to(state, exploration.parents)
        assert replay(model, trace) == state
        round_tripped = events_from_jsonable(events_to_jsonable(trace))
        assert replay(model, round_tripped) == state


@pytest.mark.parametrize("fault_budget", [None, 2])
def test_report_states_are_keyed_by_terminal_position(fault_budget,
                                                      fixture_adversaries):
    """Every key of report.states is its state's index among the concrete
    terminals, for safety against the intersection reading and for
    liveness, on every participation of the four fixtures."""
    positions = 0
    for adv in fixture_adversaries.values():
        task = r_a_intersection_task(adv)
        for P in valid_participations(adv):
            model = ProtocolModel(adv, participation=P, fault_budget=fault_budget)
            exploration = model.explore()
            terminals = dict(enumerate(exploration.terminals))
            for report in (check_safety(model, exploration, task),
                           check_liveness(model, exploration)):
                assert len(report.states) == len(report.violations)
                assert list(report.states) == sorted(report.states)
                assert all(terminals[k] == state
                           for k, state in report.states.items())
                positions += len(report.states)
    assert positions > 0


def test_states_with_only_crashes_enabled_are_terminal():
    """Two crashes allowed where alpha is 1: processes left waiting can
    still crash, and those states count as quiescent."""
    model = ProtocolModel(make_k_of(3, 1), fault_budget=2)
    exploration = model.explore(track_parents=True)
    assert (exploration.state_count, len(exploration.terminals)) == (11018, 1759)
    assert sum(1 for s in exploration.terminals if model.successors(s)) == 105
    report = check_liveness(model, exploration)
    assert len(report.violations) == 372
    for state in report.states.values():
        assert replay(model, model.trace_to(state, exploration.parents)) == state


def test_safety_distinguishes_the_task_variants(fixture_adversaries):
    """The protocol escapes the intersection-guard task exactly when the
    variants diverge."""
    adv = fixture_adversaries["obstruction_free_2"]
    inter = r_a_intersection_task(adv)
    safety, liveness, _ = check_model(adv, inter)
    assert not safety.ok
    assert len(safety.violations) == 480
    assert liveness.ok

    adv = fixture_adversaries["resilient_1"]
    inter = r_a_intersection_task(adv)
    safety, _, _ = check_model(adv, inter)
    assert safety.ok


def test_every_unsafe_terminal_replays(fixture_adversaries):
    """The 480 safety violations against the intersection reading, each
    rebuilt as a trace from its participation's parent links."""
    adv = fixture_adversaries["obstruction_free_2"]
    inter = r_a_intersection_task(adv)
    unsafe = 0
    for P in valid_participations(adv):
        model = ProtocolModel(adv, participation=P)
        exploration = model.explore(track_parents=True)
        report = check_safety(model, exploration, inter)
        for state in report.states.values():
            assert replay(model, model.trace_to(state, exploration.parents)) == state
        unsafe += len(report.states)
    assert unsafe == 480


def test_safety_report_hands_back_the_unsafe_terminals(fixture_adversaries):
    adv = fixture_adversaries["obstruction_free_2"]
    inter = r_a_intersection_task(adv)
    model = ProtocolModel(adv)
    exploration = model.explore()
    report = check_safety(model, exploration, inter)
    assert len(report.states) == len(report.violations) > 0
    unsafe = set(report.states.values())
    assert report.states == {k: s for k, s in enumerate(exploration.terminals)
                             if s in unsafe}
    for state, violation in zip(report.states.values(), report.violations):
        sigma = output_simplex(model, state)
        assert sigma not in inter.complex
        assert list(sigma.uids) == violation["outputs"]


def _ridges(task: AffineTask) -> ComplexTask:
    """The task made of the ridges of the task's facets: none of its facets
    is a facet of Chr Chr s."""
    ridges = {Simplex(tuple(v for v in f if v is not u))
              for f in task.complex.facets for u in f}
    return ComplexTask("ridges", task.n, closure(ridges, n=task.n), task.alpha)


def _foreign() -> Simplex:
    """An edge on two vertices of Chr Chr s over 3 colors that share no
    facet: the colors 1 and 2 each alone in both rounds."""
    foreign = Simplex(tuple(
        next(v for v in two_round_facet(blocks, blocks, 3) if v.color == c)
        for c, blocks in [(1, [[1], [2], [3]]), (2, [[2], [1], [3]])]))
    assert foreign not in chr2_complex(3)
    return foreign


def test_code_membership_is_simplex_membership(fair_live_adversaries, chr2_3):
    """Membership on vertex codes equals the face closure of the task's
    complex, and its Simplex membership, on every simplex of Chr Chr s: for
    R_A of the 43 fair live n=3 families, indexed from run-pair ids before
    any complex is built. No task holds an edge outside Chr Chr s."""
    tasks = [build_r_a(a) for a in fair_live_adversaries]
    sigmas = chr2_3.simplices()
    codes = [tuple(map(code_of, sigma)) for sigma in sigmas]
    assert len(tasks) == 43 and len(sigmas) == 535
    proper = 0  # tasks that miss some simplex of Chr Chr s
    for task in tasks:
        held = [task.holds(c) for c in codes]
        faces = set(task.complex.simplices())
        assert held == [sigma in faces for sigma in sigmas]
        assert held == [sigma in task.complex for sigma in sigmas]
        proper += not all(held)
    assert proper == 42  # all but the wait-free family
    assert not any(task.holds(map(code_of, _foreign())) for task in tasks)


@pytest.mark.parametrize("fault_budget,terminals",
                         [(0, 627), (1, 4472), (2, 13454)])
def test_output_codes_are_the_codes_of_the_register_views(
        fixture_adversaries, fault_budget, terminals):
    """The vertex codes of every terminal of the four fixtures are the
    codes, written out from the payloads, of the vertices that chr_vertex
    makes from the register-list views. Each code's carrier is a simplex
    of Chr s, so chr2_vertex, which raises on any other, makes every
    output vertex that check_safety reports."""
    checked, codes = 0, set()
    for adv in fixture_adversaries.values():
        model = ProtocolModel(adv, fault_budget=fault_budget)
        for state in model.explore().terminals:
            want = tuple(map(code_of, returned_vertices(model, state)))
            assert model.output_codes(state) == want, state
            codes.update(want)
            checked += 1
    assert checked == terminals
    assert {c >> 3 for c in codes} <= set(map(packed_views,
                                              chr_complex(3).simplices()))
    assert all(chr2_vertex(c).payload is chr1_simplex(c >> 3) for c in codes)


def test_r_a_is_carved_counted_and_checked_without_simplices(
        monkeypatch, fixture_adversaries):
    """build_r_a (its table too), facet_count and check_model on R_A run on
    run-pair ids and vertex codes: no Simplex is made, so neither a facet of
    chr2_facets nor the task's complex."""
    def made(*args):
        raise AssertionError("a Simplex or a complex was made")

    affine_module._chr2_table.cache_clear()
    monkeypatch.setattr(Simplex, "__init__", made)
    monkeypatch.setattr(ChromaticComplex, "__post_init__", made)
    for name, adv in fixture_adversaries.items():
        task = build_r_a(adv)
        assert task.facet_count() == len(task.ids) > 0
        safety, liveness, rows = check_model(adv, task)
        assert safety.ok and liveness.ok and safety.checked > 0, name
        assert "complex" not in vars(task)


@pytest.mark.parametrize("name,fault_budget,checked,unsafe", [
    ("obstruction_free_1", 1, 721, 133),
    ("obstruction_free_2", None, 1615, 232),
])
def test_safety_against_a_task_outside_the_facets_of_chr2(
        monkeypatch, fixture_adversaries, name, fault_budget, checked, unsafe):
    """A task of ridges asks Chr Chr s membership of every output simplex:
    the report is the one of the facet-by-facet reference, and Chr Chr s is
    indexed once, on the first unsafe output."""
    made, indexed = [], []

    def spied(n):
        chr2 = chr2_code_complex(n)
        holds = chr2.holds

        def asked(codes):
            indexed.append(vars(chr2).get("_index"))
            return holds(codes)
        chr2.holds = asked
        made.append(chr2)
        return chr2
    monkeypatch.setattr("affinetask.simulate.chr2_code_complex", spied)
    adv = fixture_adversaries[name]
    task = _ridges(build_r_a(adv))
    model = ProtocolModel(adv, fault_budget=fault_budget)
    exploration = model.explore()
    report = check_safety(model, exploration, task)
    want = safety_by_definition(model, exploration, task)
    assert (report.checked, len(report.violations)) == (checked, unsafe)
    assert report.violations == want.violations
    assert report.states == want.states
    # Chr Chr s is asked once per distinct unsafe output and indexed on the
    # first: no index before it, the same one kept after it
    distinct = {tuple(v["outputs"]) for v in report.violations}
    [chr2] = made
    assert chr2.n == 3 and len(indexed) == len(distinct)
    assert indexed[0] is None and all(i is chr2._index for i in indexed[1:])


def test_safety_reports_an_output_outside_chr2_as_outside_the_subdivision(
        monkeypatch, fixture_adversaries):
    """An output simplex outside Chr Chr s lies outside R_A too: it is
    unsafe, with in_subdivision false."""
    adv = fixture_adversaries["obstruction_free_1"]
    foreign = _foreign()
    task = build_r_a(adv)
    model = ProtocolModel(adv)
    codes = tuple(code_of(v) for v in sorted(foreign, key=lambda v: v.color))
    monkeypatch.setattr(model, "output_codes", lambda state: codes)
    assert output_simplex(model, 0) == foreign
    exploration = model.explore()
    report = check_safety(model, exploration, task)
    assert len(report.violations) == report.checked == 133
    assert not any(v["in_subdivision"] for v in report.violations)
    assert report.violations == safety_by_definition(
        model, exploration, task).violations


@pytest.mark.parametrize("name", ["obstruction_free_1", "obstruction_free_2",
                                  "resilient_1", "superset_closed_2_13"])
def test_safety_of_r_a_asks_only_the_task(monkeypatch, fixture_adversaries,
                                          name):
    """An output simplex in R_A lies in a facet of Chr Chr s, so a safe run
    against R_A asks the task alone, on vertex codes: no complex is asked
    for membership, and the task's own complex is never built."""
    adv = fixture_adversaries[name]
    task = build_r_a(adv)
    asked, complexes_asked = [], []
    holds = AffineTask.holds

    def spy(self, codes):
        asked.append(self)
        return holds(self, codes)

    monkeypatch.setattr(AffineTask, "holds", spy)
    monkeypatch.setattr(ChromaticComplex, "__contains__",
                        lambda K, sigma: complexes_asked.append(K))
    model = ProtocolModel(adv)
    report = check_safety(model, model.explore(), task)
    assert report.ok and report.checked > 0
    assert asked and all(t is task for t in asked)
    assert not complexes_asked and "complex" not in vars(task)


# --- symmetry reduction against the unreduced explorer ----------------------------


def _assert_orbit_checks_exact(model: ProtocolModel, exploration,
                               task) -> None:
    """check_safety and check_liveness against the per-state references:
    equal counts, and the same violations and states in the same order."""
    for a, b in ((check_safety(model, exploration, task),
                  safety_per_state(model, exploration, task)),
                 (check_liveness(model, exploration),
                  liveness_per_state(model, exploration))):
        assert a.checked == b.checked == len(exploration.terminals)
        assert a.violations == b.violations
        assert a.states == b.states


def _assert_reduction_exact(model: ProtocolModel, task) -> None:
    """The reduced exploration against `explore_unreduced`: equal state
    counts, the same concrete terminals, and the same offending states
    from both deciders; on the reduced one, the deciders against the
    per-state references."""
    reduced, full = model.explore(), explore_unreduced(model)
    assert reduced.state_count == full.state_count
    assert sorted(reduced.terminals) == sorted(full.terminals)
    if not model._classes:
        assert reduced.orbits == reduced.state_count
    for decide in (lambda e: check_safety(model, e, task),
                   lambda e: check_liveness(model, e)):
        a, b = decide(reduced), decide(full)
        assert a.checked == b.checked
        assert sorted(a.states.values()) == sorted(b.states.values())
    _assert_orbit_checks_exact(model, reduced, task)


def test_reduction_is_exact_on_every_fair_n3_family(fair_live_adversaries):
    singleton_models = 0
    for adv in fair_live_adversaries:
        task = build_r_a(adv)
        for P in valid_participations(adv):
            model = ProtocolModel(adv, participation=P)
            _assert_reduction_exact(model, task)
            singleton_models += not model._classes
    assert singleton_models > 0


def test_reduction_is_exact_on_k_of_4_1():
    adv = make_k_of(4, 1)
    task = build_r_a(adv)
    for P in valid_participations(adv):
        _assert_reduction_exact(ProtocolModel(adv, participation=P), task)
    model = ProtocolModel(adv)
    assert model._classes == ((0, 1, 2, 3),)
    exploration = model.explore()
    assert (exploration.state_count, exploration.orbits) == (75_210, 3_884)
    assert "orbits" not in exploration.row()


@pytest.mark.parametrize("fault_budget", [None, 1])
def test_reduction_is_exact_on_the_fixtures(fault_budget, fixture_adversaries,
                                            fixture_tasks):
    """Default and one-crash budgets; superset_closed_2_13's only class is
    {1, 3}."""
    assert ProtocolModel(fixture_adversaries["superset_closed_2_13"])._classes == ((0, 2),)
    for name, adv in fixture_adversaries.items():
        for P in valid_participations(adv):
            model = ProtocolModel(adv, participation=P, fault_budget=fault_budget)
            _assert_reduction_exact(model, fixture_tasks[name])


# --- the explorer on next states against the explorer on events -------------


@pytest.mark.parametrize("extra_crash", [0, 1])
def test_explore_matches_explore_by_events_on_the_fixtures(
        extra_crash, fixture_adversaries, fixture_tasks):
    """Every valid participation of the four n=3 fixtures, at the default
    fault budget and at one more crash, which strands processes. CI runs
    the same comparison on all 43 fair live n=3 families."""
    traced = 0
    for name, adv in fixture_adversaries.items():
        for P in valid_participations(adv):
            budget = ProtocolModel(adv, participation=P).fault_budget + extra_crash
            model = ProtocolModel(adv, participation=P, fault_budget=budget)
            traced += explore_by_events_agrees(model, fixture_tasks[name])
    assert traced > 0


@pytest.mark.parametrize("adv", [make_k_of(4, 1), make_t_resilient(4, 1)],
                         ids=["k_of_4_1", "t_resilient_4_1"])
def test_explore_matches_explore_by_events_at_n4(adv):
    assert explore_by_events_agrees(ProtocolModel(adv), build_r_a(adv)) > 0


def test_trace_to_needs_links_that_reach_the_state():
    """k_of(3, 1) at {1, 2}: a state never reached (process 1 returned,
    nothing committed), and a reached terminal walked along the links of
    participation {1, 3}, each end their walk away from the initial state,
    so they have no trace; a trace there would replay elsewhere."""
    adv = make_k_of(3, 1)
    model = ProtocolModel(adv, participation={1, 2})
    exploration = model.explore(track_parents=True)
    with pytest.raises(SimulationError, match="no trace to state 7"):
        model.trace_to(DONE, exploration.parents)
    other = ProtocolModel(adv, participation={1, 3}).explore(track_parents=True)
    for state in exploration.terminals:
        with pytest.raises(SimulationError, match="not the initial state"):
            model.trace_to(state, other.parents)
        assert replay(model, model.trace_to(state, exploration.parents)) == state


# --- one terminal per orbit against the per-state checks ---------------------------


def test_orbit_checks_are_exact_at_one_crash_on_every_fair_n3_family(
        fair_live_adversaries):
    """Every participation of the 43 families at a one-crash budget, which
    strands processes wherever alpha is 1 (the default budget is covered by
    `test_reduction_is_exact_on_every_fair_n3_family`). The 24 (family,
    participation) pairs whose R_A is not closed under a swap of
    interchangeable processes are checked state by state."""
    asymmetric = stranded = 0
    for adv in fair_live_adversaries:
        task = build_r_a(adv)
        for P in valid_participations(adv):
            model = ProtocolModel(adv, participation=P, fault_budget=1)
            exploration = model.explore()
            _assert_orbit_checks_exact(model, exploration, task)
            asymmetric += bool(model._classes) and not _task_symmetric(model, task)
            stranded += not check_liveness(model, exploration).ok
    assert asymmetric == 24
    assert stranded == 114


@pytest.mark.parametrize("fault_budget,unsafe_states", [(0, 99), (None, 429)])
def test_orbit_checks_report_every_state_of_an_unsafe_orbit(fault_budget,
                                                             unsafe_states):
    """k_of(3, 2) against the smaller task of k_of(3, 1): both tasks are
    closed under every swap, so one state per orbit is decided, and each
    unsafe orbit is reported state by state."""
    task = build_r_a(make_k_of(3, 1))
    adv = make_k_of(3, 2)
    unsafe = 0
    for P in valid_participations(adv):
        model = ProtocolModel(adv, participation=P, fault_budget=fault_budget)
        exploration = model.explore()
        assert _task_symmetric(model, task)
        _assert_orbit_checks_exact(model, exploration, task)
        unsafe += len(check_safety(model, exploration, task).states)
    assert unsafe == unsafe_states


def _expanded_orbits(exploration) -> list[int]:
    """The representatives whose orbits get expanded from now on."""
    expanded, expand = [], exploration.terminals.expand

    def spy(rep):
        expanded.append(rep)
        return expand(rep)

    exploration.terminals.expand = spy
    return expanded


def test_a_task_without_the_models_symmetry_is_checked_per_state():
    """Live sets {1, 2} and {1, 3} at P = {1, 2}: 1 and 2 are
    interchangeable on the subsets of P, but R_A is not closed under their
    swap, so every terminal orbit is expanded."""
    adv = Adversary(3, [{1, 2}, {1, 3}])
    task = build_r_a(adv)
    model = ProtocolModel(adv, participation={1, 2})
    assert model._classes == ((0, 1),)
    assert not task.symmetric_under(1, 2) and not _task_symmetric(model, task)
    exploration = model.explore()
    orbits = exploration.terminals.orbits
    assert any(size > 1 for _, size in orbits)
    want = safety_per_state(model, exploration, task)
    expanded = _expanded_orbits(exploration)
    report = check_safety(model, exploration, task)
    assert expanded == [rep for rep, _ in orbits]
    assert report.checked == want.checked and report.ok == want.ok


def test_r_a_minus_a_facet_is_checked_per_state():
    """R_A of k_of(3,2) without its first facet, with that family's alpha:
    every swap keeps alpha, but the task is not R_A, so it is never taken
    as symmetric, and its report is the per-state one."""
    adv = make_k_of(3, 2)
    r_a = build_r_a(adv)
    task = ComplexTask("r_minus_one", 3,
                       closure(r_a.complex.sorted_facets()[1:], n=3), r_a.alpha)
    model = ProtocolModel(adv)
    assert model._classes == ((0, 1, 2),)
    pairs = [(1, 2), (1, 3), (2, 3)]
    assert all(task.alpha.swap_keeps(a, b, 0b111) for a, b in pairs)
    assert not any(task.symmetric_under(a, b) for a, b in pairs)
    assert not _task_symmetric(model, task)
    exploration = model.explore()
    report = check_safety(model, exploration, task)
    want = safety_per_state(model, exploration, task)
    assert report.checked == want.checked == len(exploration.terminals)
    assert report.violations == want.violations
    assert report.states == want.states and len(want.states) == 6


def test_a_symmetric_safe_task_decides_one_state_per_orbit():
    adv = make_k_of(3, 2)
    task = build_r_a(adv)
    model = ProtocolModel(adv)
    exploration = model.explore()
    assert exploration.orbits < exploration.state_count
    expanded = _expanded_orbits(exploration)
    safety, liveness = (check_safety(model, exploration, task),
                        check_liveness(model, exploration))
    assert safety.ok and liveness.ok and expanded == []
    assert safety.checked == liveness.checked == len(exploration.terminals)


def test_terminals_expand_only_when_iterated():
    model = ProtocolModel(make_k_of(4, 1))
    exploration = model.explore()
    expanded = _expanded_orbits(exploration)
    assert (len(exploration.terminals), exploration.row()["terminals"]) == (1_907, 1_907)
    assert expanded == []
    assert len(list(exploration.terminals)) == 1_907
    assert len(expanded) == len(exploration.terminals.orbits) == 118


@pytest.mark.parametrize("name", FIXTURES)
def test_orbit_states_expand_each_terminal_orbit_exactly(name,
                                                         fixture_adversaries):
    """Every terminal orbit of every participation at fault budgets 0, 1
    and 2: its states ascend strictly, there are exactly as many as its
    size, and each canonicalizes back to (representative, size)."""
    adv = fixture_adversaries[name]
    expanded = 0
    for budget in (0, 1, 2):
        for P in valid_participations(adv):
            model = ProtocolModel(adv, participation=P, fault_budget=budget)
            for rep, size in model.explore().terminals.orbits:
                states = model.orbit_states(rep)
                assert len(states) == size
                assert all(a < b for a, b in zip(states, states[1:]))
                assert all(model._representative(s) == (rep, size) for s in states)
                expanded += size > 1
    assert expanded > 0


def test_safety_of_r_a_never_builds_chr2(monkeypatch, fixture_adversaries):
    """A task build_r_a kept lies inside Chr Chr s, so a safe check against
    it needs no Chr Chr s index."""
    made = []

    def spied(n):
        made.append(chr2_code_complex(n))
        return made[-1]
    monkeypatch.setattr("affinetask.simulate.chr2_code_complex", spied)
    for name, adv in fixture_adversaries.items():
        model = ProtocolModel(adv)
        report = check_safety(model, model.explore(), build_r_a(adv))
        assert report.ok and report.checked > 0
    assert len(made) == len(fixture_adversaries)
    assert not any("_index" in vars(chr2) for chr2 in made)


def test_simulate_reads_chr2_on_codes_alone():
    """The model checker imports no Simplex and no Chr Chr s complex: it
    asks Chr Chr s on vertex codes only."""
    tree = ast.parse(inspect.getsource(simulate_module))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert "chr2_code_complex" in imported
    assert not imported & {"Simplex", "chr2_complex", "simplex_of_codes"}


def test_check_model_takes_only_a_state_cap():
    """check_model sweeps every valid participation at its default fault
    budget; the state cap is its one option."""
    assert list(inspect.signature(check_model).parameters) == [
        "adv", "task", "max_states"]


def test_orbit_traces_replay_to_every_concrete_terminal(fixture_adversaries):
    """Each member of a terminal orbit, not only its representative, gets a
    trace that replays to it."""
    model = ProtocolModel(fixture_adversaries["superset_closed_2_13"], fault_budget=1)
    exploration = model.explore(track_parents=True)
    assert exploration.orbits < exploration.state_count
    for state in exploration.terminals:
        assert replay(model, model.trace_to(state, exploration.parents)) == state


# --- shared move tables, one exploration per participation class ------------------


def _tables_of(model: ProtocolModel) -> dict[str, dict]:
    return {name: getattr(model, name)
            for name in ("_moves", "_commit_moves", "_rounds")}


def test_move_tables_are_shared_and_alpha_free():
    """k_of(3, 2) and t_resilient(3, 1) at full participation share the key
    (n = 3, P = {1, 2, 3}, one crash) but not alpha, and meet different slot
    words. Every entry of the shared tables equals the one a family that
    met it builds alone, into tables of its own."""
    simulate_module._table.cache_clear()
    families = [make_k_of(3, 2), make_t_resilient(3, 1)]
    models = [ProtocolModel(adv) for adv in families]
    shared = _tables_of(models[0])
    assert all(a is b for a, b in zip(shared.values(),
                                      _tables_of(models[1]).values()))
    for model in models:
        model.explore()
    alone = []
    for adv in families:
        simulate_module._table.cache_clear()
        model = ProtocolModel(adv)
        model.explore()
        alone.append(_tables_of(model))
    for name, table in shared.items():
        own = [tables[name] for tables in alone]
        assert all(t is not table for t in own)
        assert set(table) == set(own[0]) | set(own[1]), name
        for t in own:
            assert all(table[key] == entry for key, entry in t.items()), name
    assert set(alone[0]["_moves"]) != set(alone[1]["_moves"])


def test_a_fault_budget_of_p_or_more_is_one_move_table():
    """No more than |P| processes can crash, so every budget from |P| on
    gives the same moves."""
    adv = make_k_of(3, 2)
    one, two, five = (ProtocolModel(adv, participation={1, 2}, fault_budget=b)._moves
                      for b in (1, 2, 5))
    assert one is not two and two is five


def _results(result) -> tuple:
    safety, liveness, rows = result
    return safety.to_dict(), liveness.to_dict(), rows


def _explored(monkeypatch) -> list[frozenset[int]]:
    """The participation set of every model explored from now on."""
    explored = []
    explore = ProtocolModel.explore

    def spy(self, *args, **kwargs):
        explored.append(self.participation)
        return explore(self, *args, **kwargs)
    monkeypatch.setattr(ProtocolModel, "explore", spy)
    return explored


def test_check_model_matches_the_per_participation_reference(
        monkeypatch, fair_live_adversaries):
    """Rows and both reports of check_model equal those of exploring every
    participation set, on the 43 fair n=3 families, 68 of whose 211
    participation sets take an earlier one's row, and on k_of(4, 1), which
    explores 4 of its 15."""
    explored = _explored(monkeypatch)
    participations = 0
    for adv in fair_live_adversaries:
        task = build_r_a(adv)
        want = _results(check_model_per_participation(adv, task))
        del explored[:]
        assert _results(check_model(adv, task)) == want
        participations += len(want[2]) - len(explored)
    assert participations == 68
    adv = make_k_of(4, 1)
    task = build_r_a(adv)
    want = _results(check_model_per_participation(adv, task))
    del explored[:]
    assert _results(check_model(adv, task)) == want
    assert [len(P) for P in explored] == [1, 2, 3, 4]


@pytest.mark.parametrize("task,explored_sets,unsafe", [
    pytest.param(r_a_intersection_task, [[1], [2], [3], [1, 2], [1, 3], [2, 3],
                                         [1, 2, 3]], 480, id="intersection"),
    pytest.param(lambda adv: build_r_a(make_k_of(3, 1)),
                 [[1], [1, 2], [1, 3], [2, 3], [1, 2, 3]], 429, id="r_a_of_k_of_3_1"),
])
def test_check_model_explores_again_where_a_violation_was_found(
        monkeypatch, fixture_adversaries, task, explored_sets, unsafe):
    """k_of(3, 2) against a task with violations, with the reference's
    results. The intersection reading of R_A is posed only by the tests, so
    it is never symmetric and every participation set is explored. R_A of
    k_of(3, 1) is symmetric: the singletons after {1} take its row, but
    {1, 2} is unsafe, so {1, 3} and {2, 3} are explored too."""
    adv = fixture_adversaries["obstruction_free_2"]
    task = task(adv)
    want = _results(check_model_per_participation(adv, task))
    explored = _explored(monkeypatch)
    got = _results(check_model(adv, task))
    assert got == want and len(got[0]["violations"]) == unsafe
    assert [sorted(P) for P in explored] == explored_sets


def test_check_model_explores_3_of_the_7_participations_of_k_of_3_2(monkeypatch):
    """Every swap keeps alpha and R_A, so the participation sets fall into
    three groups, by size; only the first of each is explored, and the
    rows keep their order."""
    explored = _explored(monkeypatch)
    adv = make_k_of(3, 2)
    safety, liveness, rows = check_model(adv, build_r_a(adv))
    assert [sorted(P) for P in explored] == [[1], [1, 2], [1, 2, 3]]
    assert [r["participation"] for r in rows] == [
        sorted(P) for P in valid_participations(adv)]
    assert rows[1] == {**rows[0], "participation": [2]}
    assert safety.ok and liveness.ok
    assert safety.checked == liveness.checked == sum(r["terminals"] for r in rows)


def test_a_task_of_every_other_facet_of_r_a_is_checked_state_by_state():
    """An AffineTask is R_A of its alpha and takes no facets, so a task
    whose symmetry alpha does not decide cannot pass for one. The task of
    every other facet of R_A of k_of(3, 1), held as its complex, reports
    the state-by-state count at {1, 2, 3}: 56 unsafe terminals."""
    adv = make_k_of(3, 1)
    r_a = build_r_a(adv)
    with pytest.raises(TypeError):
        AffineTask(r_a.alpha, r_a.ids[::2])
    facets = chr2_facets(3)
    task = ComplexTask("every_other", 3,
                       closure([facets[i] for i in r_a.ids[::2]], n=3), r_a.alpha)
    model = ProtocolModel(adv)
    exploration = model.explore()
    report = check_safety(model, exploration, task)
    want = safety_per_state(model, exploration, task)
    assert report.violations == want.violations
    assert report.states == want.states and len(want.states) == 56


# --- participation handling -----------------------------------------------------


def test_valid_participations():
    assert [sorted(P) for P in valid_participations(make_t_resilient(3, 1))] == [
        [1, 2], [1, 3], [2, 3], [1, 2, 3]]
    assert len(valid_participations(make_k_of(3, 1))) == 7


def test_participation_validation():
    with pytest.raises(SimulationError):
        ProtocolModel(make_k_of(3, 1), participation={4})
    with pytest.raises(SimulationError):
        ProtocolModel(make_t_resilient(3, 1), participation={1})


def test_task_of_another_n_is_rejected_before_exploring(monkeypatch):
    def no_explore(self, track_parents=False):
        raise AssertionError("a model was explored")
    monkeypatch.setattr(ProtocolModel, "explore", no_explore)
    for n, m in ((2, 3), (3, 2)):
        with pytest.raises(SimulationError, match=f"over n={m}, the model over n={n}"):
            check_model(make_k_of(n, 1), build_r_a(make_k_of(m, 1)))


def test_check_safety_rejects_a_task_of_another_n():
    model = ProtocolModel(make_k_of(2, 1))
    with pytest.raises(SimulationError, match="over n=3"):
        check_safety(model, model.explore(), build_r_a(make_k_of(3, 1)))


def test_checks_reject_an_exploration_of_another_model():
    """k_of(3,2) at fault budget 2: the full participation's exploration
    is not that of the {1, 2} or {1} model, nor of the full model at
    another budget, so neither check decides on it."""
    adv = make_k_of(3, 2)
    task = build_r_a(adv)
    exploration = ProtocolModel(adv, fault_budget=2).explore()
    for model in (ProtocolModel(adv, {1, 2}, fault_budget=2),
                  ProtocolModel(adv, {1}, fault_budget=2),
                  ProtocolModel(adv, fault_budget=1)):
        with pytest.raises(SimulationError, match="exploration of participation"):
            check_liveness(model, exploration)
        with pytest.raises(SimulationError, match="exploration of participation"):
            check_safety(model, exploration, task)
    report = check_liveness(ProtocolModel(adv, fault_budget=2), exploration)
    assert len(report.violations) == 189


def test_output_simplex_needs_round_one_views_of_the_seen():
    """Process 1 returned with 2 in its round-two view, although 2 never
    got a round-one view."""
    model = ProtocolModel(make_k_of(2, 1))
    # process 1's field: DONE, round-one block 1 (bit 5 on), round-two
    # block 1 (bit 8 on); process 2's field, from bit 13: round-two block 1
    state = DONE | 1 << 5 | 1 << 8 | (1 << 8) << 13
    assert outputs(model, state) == [(1, 3)]
    with pytest.raises(SimulationError, match="without a round-one view"):
        output_simplex(model, state)


def test_fault_budget_must_be_nonnegative():
    with pytest.raises(SimulationError, match="fault budget"):
        ProtocolModel(make_k_of(3, 1), fault_budget=-1)
    assert ProtocolModel(make_k_of(3, 1), fault_budget=0).fault_budget == 0


@pytest.mark.parametrize("budget", [1.5, 1.0, True, False, "1"])
def test_fault_budget_must_be_an_int(budget):
    """A float, a bool or a string budget is rejected, not rounded up by
    the crash guard nor reported as given."""
    with pytest.raises(SimulationError, match=re.escape(
            f"fault budget must be an integer, got {budget!r}")):
        ProtocolModel(make_k_of(3, 1), fault_budget=budget)


@pytest.mark.parametrize("bad", [True, 1.0, "1"])
@pytest.mark.parametrize("what,option", [("participation member", "participation"),
                                         ("state cap", "max_states")])
def test_model_options_must_be_ints(what, option, bad):
    """max_states=True would cap the exploration at one state; a member
    is checked before the participation set can merge True into 1."""
    value = [1, bad] if option == "participation" else bad
    with pytest.raises(SimulationError, match=re.escape(
            f"{what} must be an integer, got {bad!r}")):
        ProtocolModel(make_k_of(3, 1), **{option: value})


def test_default_fault_budget_is_alpha_minus_one():
    model = ProtocolModel(make_t_resilient(3, 1))
    assert model.fault_budget == 1
    model = ProtocolModel(make_t_resilient(3, 1), participation={1, 2})
    assert model.fault_budget == 0


# --- replay and caps -------------------------------------------------------------


def test_replay_rejects_bad_events():
    model = ProtocolModel(make_k_of(2, 1))
    with pytest.raises(SimulationError):
        model.apply_event(0, ("commit1", [1]))  # nothing pending yet
    with pytest.raises(SimulationError):
        model.apply_event(0, ("halt", 1))
    with pytest.raises(SimulationError):
        events_from_jsonable([{"type": "halt", "process": 1}])
    for bad in (1.9, "1", True):  # never coerced to process 1
        for event, what in ((("step", bad), "process"),
                            (("commit1", [bad]), "block member")):
            with pytest.raises(SimulationError, match=re.escape(
                    f"{what} must be an integer, got {bad!r}")):
                model.apply_event(0, event)


def test_state_cap_enforced():
    model = ProtocolModel(make_k_of(2, 1), max_states=50)
    with pytest.raises(StateCapExceeded):
        model.explore()


def test_state_cap_counts_concrete_states():
    """75,210 concrete states in 3,884 orbits: the cap is on the former."""
    with pytest.raises(StateCapExceeded):
        ProtocolModel(make_k_of(4, 1), max_states=75_209).explore()
    assert ProtocolModel(make_k_of(4, 1), max_states=75_210).explore().state_count == 75_210


@pytest.mark.parametrize("cap", [0, -5])
def test_a_state_cap_below_one_is_refused(monkeypatch, cap):
    """A cap below 1 is bad input, for the model, the sweep and the
    environment alike, not a cap that the first state exceeds."""
    adv = make_k_of(3, 1)
    message = re.escape(f"state cap must be a positive integer, got {cap}")
    with pytest.raises(SimulationError, match=message):
        ProtocolModel(adv, max_states=cap)
    with pytest.raises(SimulationError, match=message):
        check_model(adv, build_r_a(adv), max_states=cap)
    monkeypatch.setenv(STATE_CAP_ENV, str(cap))
    with pytest.raises(SimulationError, match=re.escape(
            f"{STATE_CAP_ENV} must be a positive integer, got '{cap}'")):
        state_cap_from_env()


def test_state_cap_from_env(monkeypatch):
    monkeypatch.delenv(STATE_CAP_ENV, raising=False)
    assert state_cap_from_env() == 10_000_000
    monkeypatch.setenv(STATE_CAP_ENV, "1234")
    assert state_cap_from_env() == 1234
    monkeypatch.setenv(STATE_CAP_ENV, "zero")
    with pytest.raises(SimulationError):
        state_cap_from_env()
    monkeypatch.setenv(STATE_CAP_ENV, "0")
    with pytest.raises(SimulationError):
        state_cap_from_env()
