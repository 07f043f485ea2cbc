"""End-to-end acceptance checks, one verdict line per shipped guarantee.

Each test prints a single PASS/FAIL line (visible despite capture) and then
asserts. At contention level one the guard construction and the contention
ban give the same task. At level two they differ by an exact, explained gap:
the guard task is the ban minus the 21 facets in which one process saw
everyone in round one, no other process shares that view, and it ran alone
first in round two (tests/oracles.py). The intersection variant excludes all
21 as well. The archived divergence data and tests/test_affine.py pin the
counts.
"""
from __future__ import annotations

import json
from itertools import combinations

from affinetask import (build_r_a, chr2_complex, chr_complex,
                        check_model, classify, csize, enumerate_adversaries,
                        make_k_of, make_symmetric, make_t_resilient, setcon,
                        verify_cs_distribution, verify_fair_subtraction,
                        verify_leader, verify_single_carrier)
from affinetask.cli import main
from conftest import DATA_DIR
from oracles import (build_r_kof, facets_with_lone_full_view_leader, fubini,
                     restrict, symmetric_setcon, view2)


def verdict(capsys, label: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}{detail}")
    assert ok, f"{label}{detail}"


def test_acceptance_1_subdivision_counts(capsys):
    ok = True
    for n, want in [(2, 3), (3, 13), (4, 75)]:
        ok = ok and len(chr_complex(n).facets) == want == fubini(n)
    for n, want in [(2, 9), (3, 169)]:
        by_sum = sum(fubini(len(f)) for f in chr_complex(n).facets)
        ok = ok and len(chr2_complex(n).facets) == want == by_sum
    verdict(capsys, "subdivision facet counts", ok)


def _axiom_violations(views: dict[int, frozenset[int]]) -> bool:
    for c, V in views.items():
        if c not in V:
            return True
    vals = list(views.values())
    for a, b in combinations(vals, 2):
        if not (a <= b or b <= a):
            return True
    for V in vals:
        for d in V:
            if not views[d] <= V:
                return True
    return False


def test_acceptance_2_snapshot_axioms(capsys):
    bad = 0
    for n in (2, 3, 4):
        for facet in chr_complex(n).facets:
            bad += _axiom_violations({v.color: v.payload.colors for v in facet})
        for facet in chr2_complex(n).facets:
            bad += _axiom_violations({v.color: view2(v) for v in facet})
    verdict(capsys, "snapshot axioms (n <= 4)", bad == 0,
            detail=f" ({bad} violating facets)" if bad else "")


def test_acceptance_3_agreement_power(capsys):
    ok = True
    for n, t in [(3, 1), (4, 1), (4, 2)]:
        adv = make_t_resilient(n, t)
        ok = ok and setcon(adv) == t + 1 == csize(adv)
    for n in (2, 3, 4):
        for r in range(1, n + 1):
            for sizes in combinations(range(1, n + 1), r):
                adv = make_symmetric(n, sizes)
                ok = ok and setcon(adv) == symmetric_setcon(adv)
    verdict(capsys, "agreement power recursion", ok)


def test_acceptance_4_fairness_classification(capsys):
    rows = [classify(adv) for adv in enumerate_adversaries(3)]
    bad = sum(1 for row in rows
              if (row["superset_closed"] or row["symmetric"])
              and row["live_sets"] and not row["fair"])
    alpha_bad = 0
    for adv in enumerate_adversaries(3):
        table = {}
        for r in range(4):
            for P in combinations((1, 2, 3), r):
                table[frozenset(P)] = setcon(restrict(adv, P))
        for P, a in table.items():
            for extra in frozenset({1, 2, 3}) - P:
                b = table[P | {extra}]
                if not a <= b <= a + 1:
                    alpha_bad += 1
    ok = len(rows) == 128 and bad == 0 and alpha_bad == 0
    verdict(capsys, "fairness of structured families", ok,
            detail=f" ({len(rows)} families)")


def test_acceptance_5_task_matches_contention_ban(capsys):
    """Guard construction vs banning contention at each level, n = 3.

    Level 1: equal facet sets. Level 2: the guard task is the ban minus
    exactly the facets with a lone full-view leader.
    """
    problems = []
    direct1 = build_r_kof(3, 1).complex.facets
    derived1 = build_r_a(make_k_of(3, 1)).complex.facets
    if derived1 != direct1 or len(direct1) != 73:
        problems.append(
            f"level 1: {len(derived1)} vs {len(direct1)} facets,"
            f" {len(derived1 - direct1)} only in R_A,"
            f" {len(direct1 - derived1)} only in the ban")
    direct2 = build_r_kof(3, 2).complex.facets
    derived2 = build_r_a(make_k_of(3, 2)).complex.facets
    leaders = facets_with_lone_full_view_leader(direct2, 3)
    gap = direct2 - derived2
    if not derived2 < direct2:
        problems.append(f"level 2: R_A not strictly inside the ban,"
                        f" {len(derived2 - direct2)} R_A facets outside it")
    if gap != leaders:
        problems.append(f"level 2: {len(gap - leaders)} gap facets without a"
                        f" lone full-view leader, {len(leaders - gap)}"
                        f" lone full-view leader facets kept by R_A")
    if (len(derived2), len(direct2), len(leaders)) != (142, 163, 21):
        problems.append(f"level 2: {len(derived2)} R_A, {len(direct2)} ban,"
                        f" {len(leaders)} lone full-view leader facets;"
                        f" expected 142, 163, 21")
    archived = json.loads((DATA_DIR / "ra_variant_divergence.json").read_text())
    by_name = {row["adversary"]: row for row in archived["rows"]}
    if not (by_name["obstruction_free_1"]["union_facets"] == 49 + 24
            and by_name["obstruction_free_2"]["union_facets"] == 142):
        problems.append("archived variant counts changed")
    if problems:
        detail = f" ({'; '.join(problems)})"
    else:
        detail = (f" (level 1: {len(derived1)} = {len(direct1)};"
                  f" level 2: {len(derived2)} = {len(direct2)}"
                  f" - {len(leaders)} lone full-view leaders)")
    verdict(capsys, "task vs contention ban at levels 1 and 2",
            not problems, detail)


def test_acceptance_6_structure_lemmas(capsys, fair_live_adversaries):
    fair = [adv for adv in enumerate_adversaries(3)
            if classify(adv)["fair"]]
    violations = 0
    for adv in fair:
        violations += len(verify_cs_distribution(adv).violations)
        violations += len(verify_single_carrier(adv).violations)
        violations += len(verify_fair_subtraction(adv).violations)
    verdict(capsys, "critical-structure lemmas", violations == 0,
            detail=f" ({len(fair)} fair families)")


def test_acceptance_7_leader_properties(capsys, fair_live_adversaries):
    """Validity, bounded agreement, and robustness, exhaustively at n=3."""
    violations = 0
    first = None
    for adv in fair_live_adversaries:
        task = build_r_a(adv)
        for report in verify_leader(adv, task):
            violations += len(report.violations)
            if report.violations and first is None:
                first = (adv, report.kind, report.violations[:3])
    detail = f" ({len(fair_live_adversaries)} fair live families"
    if first is not None:
        adv, kind, sample = first
        detail += f"; {violations} violations, first in {adv!r} {kind}: {sample}"
    verdict(capsys, "leader validity, agreement, robustness",
            violations == 0, detail=detail + ")")


def test_acceptance_8_protocol_model_check(capsys, fixture_adversaries,
                                           fixture_tasks):
    violations = 0
    states = 0
    for name, adv in sorted(fixture_adversaries.items()):
        safety, liveness, rows = check_model(adv, fixture_tasks[name],
                                             max_states=10_000_000)
        violations += len(safety.violations) + len(liveness.violations)
        states += sum(r["states"] for r in rows)
    verdict(capsys, "protocol safety and liveness", violations == 0,
            detail=f" ({states} states explored)")


def test_acceptance_9_artifact_determinism(capsys, tmp_path):
    a, b = tmp_path / "first", tmp_path / "second"
    ra = main(["repro", "--out", str(a)])
    rb = main(["repro", "--out", str(b)])
    names = sorted(p.name for p in a.iterdir())
    same = (names == sorted(p.name for p in b.iterdir())
            and all((a / n).read_bytes() == (b / n).read_bytes() for n in names))
    verdict(capsys, "reproducible artifact bundle",
            ra == 0 and rb == 0 and same,
            detail=f" ({len(names)} files)")
