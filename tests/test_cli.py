from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from affinetask import (ProtocolModel, adversary_to_dict, build_r_a,
                        check_liveness, check_safety, complex_from_dict,
                        make_k_of, make_t_resilient, valid_participations)
from affinetask import cli
from affinetask.cli import main
from affinetask.simulate import STATE_CAP_ENV
from conftest import FIXTURE_DIR
from oracles import simulate_check_per_participation

OF1 = str(FIXTURE_DIR / "obstruction_free_1.json")
OF2 = str(FIXTURE_DIR / "obstruction_free_2.json")
RES1 = str(FIXTURE_DIR / "resilient_1.json")
SS = str(FIXTURE_DIR / "superset_closed_2_13.json")

# sha256 of each file of the repro bundle, default and with --adversary SS:
# a change to a drawing's placement or rounding moves them
REPRO_SHA256 = {
    "subdivision_one_round.svg":
        "f12fba88f44e4646bacfe88be9cb00e0daa9f0db6b533225da44f5a678c3af35",
    "task_resilient_1.svg":
        "23f10a4f752e274835cfdd48a19aaf4ee7c2848d42d629a1a77c0715514363ef",
    "contention_two_rounds.svg":
        "c74b56c1683d7a6ab4e6da8056670e1a1b4face821394be6f585cca093ffc2ed",
    "critical_simplices.svg":
        "9a57c7a5eb06fe3d090b0fb54cca6cd2c1dc12bc63dbbfbe9aab5063b20fdb18",
    "concurrency_map.svg":
        "2ec600f0f7f63b8f73d35f49d34ad28794bf1bb9f757758ced1b09fd326f22cf",
    "task_affine.svg":
        "3db2a7a7d7f65451011fce9bdf569d215f724f07a179b07b87396cde6b68ac45",
    "classification.json":
        "162c8645d560d115d02083c93f8fcf5c3c9faeac378c013bcc1adc3d84c46c35",
    "affine_report.json":
        "a73b18f80008bcdc39bd82ea5f494ce96d33f1c8cdc62104322c76a546854f5b",
    "leader_report.json":
        "0e4673a5629e3ad855cdafcc19a81a985aefbadd7c54238985d15a717fd0b05f",
    "model_check.json":
        "7a87ac245980f957d7e0e2add3c2a9ce5e73b58fd018a97166e6a52b606b38c1",
}
REPRO_SS_SHA256 = {**REPRO_SHA256,
    "critical_simplices.svg":
        "d19d109c504a691cd28de524590601668f0c69e6f0da5dbd0c830cbc828b1fbb",
    "concurrency_map.svg":
        "095850ade88d5b3c00cc39ab1ceee2491add5a6f8e684a60d9c1864e7cc120d3",
    "task_affine.svg":
        "a06d640a53506dfbb621a3ad239d66df284933efee37211366475a4b57eb9f0d",
    "affine_report.json":
        "b0337be662df9e935c9437a0486c7bd16e8af580181bab5a5217b3d3a1fad9a1",
    "leader_report.json":
        "7f42436ed4b3e44a0708d2c5217122ddf91319208da12ad0adedb5082f92a654",
    "model_check.json":
        "7449061df81d87d03a5d179bebd0cbf6b5b9495263662e7abcf8aa15a1471d95",
}


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_json(capsys, argv) -> tuple[int, dict]:
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


# --- chr -------------------------------------------------------------------------


def test_chr_json_round_trips(capsys):
    code, doc = run_json(capsys, ["chr", "--n", "2"])
    assert code == 0
    K = complex_from_dict(doc)
    assert K.n == 2 and len(K.facets) == 3


def test_chr_two_rounds_to_file(tmp_path):
    out = tmp_path / "chr2.json"
    assert main(["chr", "--n", "2", "--rounds", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["facets"]) == 9


def test_task_json_doubles_as_highlight_overlay(tmp_path):
    task_file = tmp_path / "task.json"
    svg_file = tmp_path / "picture.svg"
    assert main(["affine", "build", "--adversary", OF1,
                 "--out", str(task_file)]) == 0
    assert main(["chr", "--n", "3", "--rounds", "2", "--format", "svg",
                 "--highlight", str(task_file), "--out", str(svg_file)]) == 0
    svg = svg_file.read_text()
    assert svg.count('class="hl0"') == 73
    # the same bytes as the bundle's drawing of this task
    assert sha256_of(svg_file) == REPRO_SHA256["task_affine.svg"]


def test_chr_labels_svg_bytes_are_frozen(tmp_path):
    svg_file = tmp_path / "labels.svg"
    assert main(["chr", "--n", "3", "--rounds", "2", "--format", "svg",
                 "--labels", "--out", str(svg_file)]) == 0
    assert sha256_of(svg_file) == (
        "fbc605818f541509856ba6764cba106950fd0e4e56677a228599f736ee5eab25")


def test_chr_accepts_highlight_from_a_sub_complex(tmp_path):
    # the subdivided edge is a face of the subdivided triangle
    small = tmp_path / "small.json"
    svg = tmp_path / "x.svg"
    assert main(["chr", "--n", "2", "--rounds", "2", "--out", str(small)]) == 0
    assert main(["chr", "--n", "3", "--rounds", "2", "--format", "svg",
                 "--highlight", str(small), "--out", str(svg)]) == 0
    assert svg.read_text().count('class="hl0"') == 9


def test_chr_rejects_foreign_highlight(tmp_path, capsys):
    # one-round vertices are not two-round vertices
    shallow = tmp_path / "shallow.json"
    assert main(["chr", "--n", "3", "--out", str(shallow)]) == 0
    code = main(["chr", "--n", "3", "--rounds", "2", "--format", "svg",
                 "--highlight", str(shallow), "--out", str(tmp_path / "x.svg")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_highlight_file_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1]")
    assert main(["chr", "--n", "3", "--format", "svg", "--highlight",
                 str(bad), "--out", str(tmp_path / "x.svg")]) == 2
    assert "complex document" in one_error_line(capsys)


@pytest.mark.parametrize("n", [True, "3", 3.0])
def test_complex_with_non_integer_n_is_an_input_error(tmp_path, capsys, n):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": n, "vertices": [], "facets": []}))
    assert main(["chr", "--n", "3", "--format", "svg", "--highlight",
                 str(bad), "--out", str(tmp_path / "x.svg")]) == 2
    assert "n must be an integer" in one_error_line(capsys)


@pytest.mark.parametrize("vertex", [
    {"uid": "1(1,2)", "color": 1.0, "payload": [1, 2.0]},
    {"uid": "1(1,2)", "color": 1, "payload": [1, 2.0]},
    {"uid": "1", "color": True, "payload": None},
    {"uid": "1(1(1),2(1,2))", "color": 1,
     "payload": [[1, [1]], [2.0, [1, 2]]]},
], ids=["float-color", "float-payload", "bool-corner", "float-pair-color"])
def test_complex_with_non_integer_color_is_an_input_error(tmp_path, capsys,
                                                          vertex):
    """A color that merely compares equal to an int is not read as one."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "vertices": [vertex],
                               "facets": [[vertex["uid"]]]}))
    assert main(["chr", "--n", "3", "--format", "svg", "--highlight",
                 str(bad), "--out", str(tmp_path / "x.svg")]) == 2
    assert "must be an integer" in one_error_line(capsys)


def test_chr_dimension_four_emits_a_mesh(capsys):
    assert main(["chr", "--n", "4", "--format", "svg"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OFF\n32 176 0\n")


@pytest.mark.parametrize("argv,message", [
    (["--n", "5", "--rounds", "2", "--format", "svg"], "needs n <= 3"),
    (["--n", "4", "--format", "svg", "--highlight", OF1], "--highlight"),
    (["--n", "3", "--highlight", OF1], "--highlight"),
    (["--n", "4", "--format", "svg", "--labels"], "--labels"),
])
def test_chr_checks_flags_before_building(monkeypatch, capsys, argv, message):
    """A drawing that cannot be made, or an overlay that would be dropped,
    is an input error raised before the subdivision is built."""
    def no_build(n, rounds):
        raise AssertionError("the subdivision was built")
    monkeypatch.setattr("affinetask.cli._subdivision", no_build)
    assert main(["chr"] + argv) == 2
    assert message in one_error_line(capsys)


# --- adv -------------------------------------------------------------------------


def test_adv_setcon_alpha_fair(capsys):
    code, doc = run_json(capsys, ["adv", "setcon", "--adversary", RES1])
    assert (code, doc) == (0, {"setcon": 2})
    code, doc = run_json(capsys, ["adv", "alpha", "--adversary", RES1])
    assert code == 0
    assert doc["alpha"][""] == 0
    assert doc["alpha"]["1"] == 0
    assert doc["alpha"]["1,2"] == 1
    assert doc["alpha"]["1,2,3"] == 2
    code, doc = run_json(capsys, ["adv", "fair", "--adversary", RES1])
    assert (code, doc) == (0, {"fair": True})


def test_adv_fair_reports_witness_and_fails(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "live_sets": [[1, 2], [3]]}))
    code, doc = run_json(capsys, ["adv", "fair", "--adversary", str(bad)])
    assert code == 1
    assert doc == {"fair": False, "witness": {"P": [1, 3], "Q": [1]}}


def test_adv_classify_sweep(capsys):
    code, doc = run_json(capsys, ["adv", "classify", "--n", "2"])
    assert code == 0
    assert doc["count"] == 8
    assert sum(r["fair"] for r in doc["rows"]) == 6


def test_adv_classify_is_bounded_by_the_cap(monkeypatch, capsys):
    monkeypatch.delenv(STATE_CAP_ENV, raising=False)
    # 2^31 families at n=5: refused before any is enumerated
    assert main(["adv", "classify", "--n", "5"]) == 2
    assert "2147483648 families" in capsys.readouterr().err
    monkeypatch.setenv(STATE_CAP_ENV, "128")
    code, doc = run_json(capsys, ["adv", "classify", "--n", "3"])
    assert (code, doc["count"]) == (0, 128)
    assert main(["adv", "classify", "--n", "4"]) == 2
    assert "cap 128" in capsys.readouterr().err
    assert main(["adv", "classify", "--n", "0"]) == 2


def test_adv_requires_adversary_file(capsys):
    assert main(["adv", "setcon"]) == 2
    assert "needs --adversary" in capsys.readouterr().err


def test_missing_file_is_an_input_error(capsys):
    assert main(["adv", "setcon", "--adversary", "no/such/file.json"]) == 2


@pytest.mark.parametrize("doc", [{"n": 3, "live_sets": 5}, [1, 2]])
def test_malformed_adversary_file_is_an_input_error(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["adv", "setcon", "--adversary", str(bad)]) == 2
    assert "adversary description" in one_error_line(capsys)


@pytest.mark.parametrize("doc", [{"n": 3.7, "live_sets": [[True, 2]]},
                                 {"n": 3, "kind": "k_of", "k": 1.5}])
def test_non_integer_adversary_file_is_an_input_error(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["adv", "alpha", "--adversary", str(bad)]) == 2
    assert "must be an integer" in one_error_line(capsys)


# --- affine ----------------------------------------------------------------------


def test_affine_build_with_svg(tmp_path):
    task_file = tmp_path / "task.json"
    svg_file = tmp_path / "task.svg"
    assert main(["affine", "build", "--adversary", SS, "--out", str(task_file),
                 "--svg", str(svg_file)]) == 0
    doc = json.loads(task_file.read_text())
    assert doc["combine"] == "union"
    assert len(doc["facets"]) == 145
    assert svg_file.read_text().count('class="hl0"') == 145


def test_affine_build_checks_svg_before_building(monkeypatch, tmp_path, capsys):
    """At n=4 no drawing can be made: the error comes before the task is
    built, and no file is written."""
    adv = tmp_path / "k_of_4_1.json"
    adv.write_text(json.dumps(adversary_to_dict(make_k_of(4, 1))))

    def no_build(adv):
        raise AssertionError("the task was built")
    monkeypatch.setattr("affinetask.cli.build_r_a", no_build)
    out, svg = tmp_path / "task.json", tmp_path / "task.svg"
    assert main(["affine", "build", "--adversary", str(adv), "--out", str(out),
                 "--svg", str(svg)]) == 2
    assert "needs n <= 3" in one_error_line(capsys)
    assert not out.exists() and not svg.exists()


@pytest.mark.parametrize("prop", ["distribution", "single-carrier", "subtraction"])
def test_affine_verify_properties(capsys, prop):
    code, doc = run_json(capsys, ["affine", "verify", prop, "--adversary", SS])
    assert code == 0
    assert doc["ok"] is True
    assert doc["checked"] > 0


# --- leader ----------------------------------------------------------------------


def test_leader_verify_single_query(capsys):
    code, doc = run_json(capsys, ["leader", "verify", "--adversary", RES1,
                                  "--Q", "1,3"])
    assert code == 0
    assert set(doc) == {"mu_validity", "mu_agreement", "mu_robustness"}
    assert all(part["ok"] for part in doc.values())


# "" is an explicitly empty query set, not "every query"
@pytest.mark.parametrize("Q", ["7", "0", "1,9", ",", ""])
def test_leader_verify_rejects_query_outside_the_colors(capsys, Q):
    assert main(["leader", "verify", "--adversary", OF1, "--Q", Q]) == 2
    assert "must be a nonempty subset of 1..3" in one_error_line(capsys)


# --- simulate ----------------------------------------------------------------------


def test_simulate_check_one_participation(capsys):
    code, doc = run_json(capsys, [
        "simulate", "check", "--adversary", OF1, "--participation", "1,2",
        "--safety"])
    assert code == 0
    (row,) = doc["participations"]
    assert row["participation"] == [1, 2]
    assert row["states"] == 126
    assert row["safety"]["ok"] is True
    assert "liveness" not in row


def test_simulate_check_rejects_mismatched_n(capsys):
    assert main(["simulate", "check", "--adversary", OF1, "--n", "4"]) == 2


@pytest.mark.parametrize("mode", [["--liveness"], ["--safety"],
                                  ["--safety", "--liveness"], []])
@pytest.mark.parametrize("live_sets,message", [
    ([[1, 2], [3]], "adversary is not fair"),
    ([], "adversary admits no live set"),
])
def test_simulate_check_rejects_an_adversary_without_a_task(
        tmp_path, capsys, mode, live_sets, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "live_sets": live_sets}))
    assert main(["simulate", "check", "--adversary", str(bad), *mode]) == 2
    assert message in one_error_line(capsys)


def test_simulate_liveness_does_not_build_the_task(monkeypatch, capsys):
    def no_task(adv):
        raise AssertionError("R_A built for a liveness-only check")

    monkeypatch.setattr(cli, "build_r_a", no_task)
    code, doc = run_json(capsys, [
        "simulate", "check", "--adversary", OF1, "--participation", "1,2",
        "--liveness"])
    assert code == 0
    (row,) = doc["participations"]
    assert row["liveness"]["ok"] is True
    assert "safety" not in row


def test_simulate_traces_round_trip_through_replay(tmp_path, capsys):
    traces = tmp_path / "traces"
    code = main(["simulate", "check", "--adversary", OF1,
                 "--participation", "1,2", "--fault-budget", "1",
                 "--liveness", "--trace-out", str(traces),
                 "--out", str(tmp_path / "report.json")])
    assert code == 1
    doc = json.loads((tmp_path / "report.json").read_text())
    (row,) = doc["participations"]
    assert len(row["liveness"]["violations"]) == 10
    written = sorted(traces.glob("trace_12_*.json"))
    assert len(written) == 10
    code, decoded = run_json(capsys, [
        "simulate", "replay", "--adversary", OF1, "--fault-budget", "1",
        "--trace", str(written[0])])
    assert code == 0
    assert decoded["participation"] == [1, 2]
    states = {p["pc"] for p in decoded["processes"].values()}
    assert "Crashed" in states


def test_every_trace_replays_to_its_violation(tmp_path, capsys):
    """One crash too many on the symmetric fixture, every participation:
    each trace written replays to the state of one violation, and every
    violating state has its trace."""
    traces = tmp_path / "traces"
    code = main(["simulate", "check", "--adversary", OF1, "--fault-budget", "1",
                 "--trace-out", str(traces), "--out", str(tmp_path / "report.json")])
    assert code == 1
    doc = json.loads((tmp_path / "report.json").read_text())
    assert len(doc["participations"]) == 7
    replays = 0
    for row in doc["participations"]:
        bad = {json.dumps(v["state"], sort_keys=True)
               for kind in ("safety", "liveness") for v in row[kind]["violations"]}
        stem = "trace_" + "".join(map(str, row["participation"]))
        written = sorted(traces.glob(f"{stem}_*.json"))
        assert len(written) == len(bad)
        replayed = set()
        for trace in written:
            code, decoded = run_json(capsys, [
                "simulate", "replay", "--adversary", OF1, "--fault-budget", "1",
                "--trace", str(trace)])
            assert code == 0
            replayed.add(json.dumps(decoded, sort_keys=True))
        assert replayed == bad
        replays += len(written)
    assert replays == 3 * 10 + 105


def _expanded_orbits(monkeypatch) -> list[int]:
    """The representatives whose terminal orbits get expanded, in every
    exploration made from now on."""
    expanded, explore = [], ProtocolModel.explore

    def spied(model, *args, **kwargs):
        exploration = explore(model, *args, **kwargs)
        expand = exploration.terminals.expand

        def spy(rep):
            expanded.append(rep)
            return expand(rep)

        exploration.terminals.expand = spy
        return exploration

    monkeypatch.setattr(ProtocolModel, "explore", spied)
    return expanded


def test_safe_live_run_with_traces_expands_no_orbit(tmp_path, monkeypatch):
    expanded = _expanded_orbits(monkeypatch)
    traces = tmp_path / "traces"
    code = main(["simulate", "check", "--adversary", OF2,
                 "--trace-out", str(traces), "--out", str(tmp_path / "report.json")])
    assert code == 0
    assert expanded == [] and list(traces.iterdir()) == []


def test_trace_names_number_the_terminals_in_iteration_order(tmp_path):
    """The trace of the k-th terminal, counted over every concrete
    terminal, is trace_<P>_<k>.json, though only the orbits that hold a
    violation are expanded."""
    traces = tmp_path / "traces"
    code = main(["simulate", "check", "--adversary", OF2, "--fault-budget", "2",
                 "--trace-out", str(traces), "--out", str(tmp_path / "report.json")])
    assert code == 1
    adv, want = make_k_of(3, 2), set()
    for P in valid_participations(adv):
        model = ProtocolModel(adv, participation=P, fault_budget=2)
        exploration = model.explore()
        bad = {*check_safety(model, exploration, build_r_a(adv)).states.values(),
               *check_liveness(model, exploration).states.values()}
        stem = "trace_" + "".join(map(str, sorted(P)))
        want |= {f"{stem}_{k}.json"
                 for k, term in enumerate(exploration.terminals) if term in bad}
    assert len(want) == 189
    assert {path.name for path in traces.iterdir()} == want


def _simulate_check(run, out: Path, argv: list[str]) -> tuple:
    """(exit code, report text, {trace name: text}) of `simulate check`
    on argv, its report and traces written under out, run by run on the
    parsed arguments."""
    code = run(cli.build_parser().parse_args([
        "simulate", "check", *argv, "--out", str(out / "check.json"),
        "--trace-out", str(out / "traces")]))
    traces = {path.name: path.read_text() for path in (out / "traces").iterdir()}
    return code, (out / "check.json").read_text(), traces


def _adversary_file(tmp_path: Path, adv) -> str:
    path = tmp_path / "adversary.json"
    path.write_text(json.dumps(adversary_to_dict(adv)))
    return str(path)


@pytest.mark.parametrize("name", ["obstruction_free_1", "obstruction_free_2",
                                  "resilient_1", "superset_closed_2_13",
                                  "k_of_4_1"])
def test_simulate_check_equals_the_check_of_every_participation(tmp_path,
                                                                name):
    """The report, the traces and the exit code of `simulate check`, which
    explores one participation set per class, equal those of the reference
    that explores each: on the four fixtures at the default budget and at
    budgets 0 to 2 in all three modes, and on k_of(4,1) at the default
    budget in all three modes."""
    budgets: list[list[str]] = [[]]
    if name == "k_of_4_1":
        adversary = _adversary_file(tmp_path, make_k_of(4, 1))
    else:
        adversary = str(FIXTURE_DIR / f"{name}.json")
        budgets += [["--fault-budget", str(b)] for b in (0, 1, 2)]
    codes = []
    for k, (budget, mode) in enumerate(
            (b, m) for b in budgets for m in ([], ["--safety"], ["--liveness"])):
        argv = ["--adversary", adversary, *budget, *mode]
        got = _simulate_check(cli.cmd_simulate_check, tmp_path / f"got{k}", argv)
        want = _simulate_check(simulate_check_per_participation,
                               tmp_path / f"want{k}", argv)
        assert got == want, argv
        codes.append(got[0])
    assert 0 in codes


@pytest.mark.parametrize("adv,explored", [
    (make_k_of(4, 1), [[1], [1, 2], [1, 2, 3], [1, 2, 3, 4]]),
    (make_t_resilient(4, 1), [[1, 2, 3], [1, 2, 3, 4]]),
], ids=["k_of_4_1", "t_resilient_4_1"])
def test_simulate_check_explores_one_participation_per_class(
        tmp_path, monkeypatch, adv, explored):
    """Every swap keeps alpha and R_A, so one participation set of each
    size is explored: 4 of the 15 of k_of(4,1), 2 of the 5 of
    t_resilient(4,1); the others take its row."""
    seen, explore = [], ProtocolModel.explore

    def spied(model, *args, **kwargs):
        seen.append(sorted(model.participation))
        return explore(model, *args, **kwargs)

    monkeypatch.setattr(ProtocolModel, "explore", spied)
    out = tmp_path / "report.json"
    assert main(["simulate", "check", "--adversary", _adversary_file(tmp_path, adv),
                 "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["participations"]
    assert [r["participation"] for r in rows] == list(map(sorted, valid_participations(adv)))
    assert seen == explored


def test_malformed_trace_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "trace.json"
    bad.write_text(json.dumps({"participation": [1, 2], "events": 5}))
    assert main(["simulate", "replay", "--adversary", OF1,
                 "--trace", str(bad)]) == 2
    assert "malformed trace" in one_error_line(capsys)


@pytest.mark.parametrize("field", ["process", "block", "participation"])
def test_trace_with_non_integer_process_is_an_input_error(tmp_path, capsys,
                                                         field):
    what = {"process": "process", "block": "block member",
            "participation": "participation member"}[field]
    for bad in (True, 1.9, "1"):
        doc = {"participation": [1, 2], "events": [
            {"type": "step", "process": 1}, {"type": "commit1", "block": [1]}]}
        if field == "participation":
            doc["participation"] = [bad, 2]
        elif field == "block":
            doc["events"][1]["block"] = [bad]
        else:
            doc["events"][0]["process"] = bad
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(doc))
        assert main(["simulate", "replay", "--adversary", OF1,
                     "--trace", str(trace)]) == 2, (field, bad)
        assert (f"{what} must be an integer, got {bad!r}"
                in one_error_line(capsys))


@pytest.mark.parametrize("doc,missing", [
    ({}, "trace {path} missing field 'events'"),
    ({"events": [{"type": "commit2"}]},
     "trace event {'type': 'commit2'} missing field 'block'"),
    ({"events": [{"type": "crash"}]},
     "trace event {'type': 'crash'} missing field 'process'"),
], ids=["events", "block", "process"])
def test_trace_missing_a_field_names_it(tmp_path, capsys, doc, missing):
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(doc))
    assert main(["simulate", "replay", "--adversary", OF1,
                 "--trace", str(trace)]) == 2
    line = one_error_line(capsys)
    assert line == f"error: {missing.replace('{path}', str(trace))}\n", line


@pytest.mark.parametrize("command", ["check", "replay"])
def test_empty_participation_is_an_input_error(tmp_path, capsys, command):
    """An empty --participation is the empty set, not every participation
    (check) or the trace's own (replay)."""
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({"participation": [1, 2], "events": []}))
    extra = ["--trace", str(trace)] if command == "replay" else []
    assert main(["simulate", command, "--adversary", OF1,
                 "--participation", ""] + extra) == 2
    assert "participation [] has agreement level 0" in one_error_line(capsys)


@pytest.mark.parametrize("argv", [
    ["simulate", "check", "--adversary", OF1, "--participation", "1,1"],
    ["leader", "verify", "--adversary", OF1, "--Q", "1,1"],
], ids=["participation", "Q"])
def test_repeated_process_id_is_an_input_error(capsys, argv):
    """A repeated id is a typo, not the set it collapses to."""
    assert main(argv) == 2
    assert "repeated process id in '1,1'" in one_error_line(capsys)


def test_simulate_rejects_negative_fault_budget(capsys):
    assert main(["simulate", "check", "--adversary", OF1,
                 "--participation", "1,2", "--fault-budget", "-1"]) == 2
    assert "fault budget" in one_error_line(capsys)


def test_simulate_respects_state_cap_env(monkeypatch, capsys):
    monkeypatch.setenv(STATE_CAP_ENV, "10")
    assert main(["simulate", "check", "--adversary", OF1,
                 "--participation", "1,2"]) == 2
    assert "state cap" in capsys.readouterr().err


@pytest.mark.parametrize("extra, cap, message", [
    (["--participation", "7"], None, "participation [7] outside 1..3"),
    (["--fault-budget", "-1"], None, "fault budget must be >= 0"),
    ([], "10", "exceeded state cap 10"),
], ids=["participation", "fault-budget", "state-cap"])
def test_simulate_check_makes_no_trace_dir_when_it_fails(
        monkeypatch, tmp_path, capsys, extra, cap, message):
    """Bad input or an exceeded state cap exits 2 and leaves no trace
    directory behind."""
    monkeypatch.delenv(STATE_CAP_ENV, raising=False)
    if cap is not None:
        monkeypatch.setenv(STATE_CAP_ENV, cap)
    traces = tmp_path / "traces"
    assert main(["simulate", "check", "--adversary", RES1,
                 "--trace-out", str(traces)] + extra) == 2
    assert message in one_error_line(capsys)
    assert not traces.exists()


def test_state_cap_env_counts_concrete_states(monkeypatch, tmp_path, capsys):
    """k_of(4,1) at full participation has 75,210 states in 3,884 orbits."""
    adv_file = tmp_path / "k_of_4_1.json"
    adv_file.write_text(json.dumps(adversary_to_dict(make_k_of(4, 1))))
    argv = ["simulate", "check", "--adversary", str(adv_file),
            "--participation", "1,2,3,4", "--liveness"]
    monkeypatch.setenv(STATE_CAP_ENV, "75209")
    assert main(argv) == 2
    assert "exceeded state cap 75209" in one_error_line(capsys)
    monkeypatch.setenv(STATE_CAP_ENV, "75210")
    code, doc = run_json(capsys, argv)
    assert code == 0
    assert doc["participations"][0]["states"] == 75_210


# --- repro -----------------------------------------------------------------------


def test_repro_bundle_is_byte_identical(tmp_path):
    """One bundle: its contents, and a manifest whose digests match the bytes
    on disk. Acceptance check 9 compares two bundles byte for byte."""
    a = tmp_path / "a"
    assert main(["repro", "--out", str(a)]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted([*REPRO_SHA256, "manifest.json"])
    manifest = json.loads((a / "manifest.json").read_text())
    for name, digest in manifest["files"].items():
        assert sha256_of(a / name) == digest, name
    assert manifest["files"] == REPRO_SHA256
    classification = json.loads((a / "classification.json").read_text())
    assert classification["count"] == 128
    affine_doc = json.loads((a / "affine_report.json").read_text())
    assert affine_doc["facet_count"] == 73
    assert (a / "task_affine.svg").read_text().count('class="hl0"') == 73


def test_repro_with_selected_adversary(tmp_path):
    out = tmp_path / "bundle"
    assert main(["repro", "--out", str(out), "--adversary", SS]) == 0
    assert {p.name: sha256_of(p) for p in out.iterdir()
            if p.name != "manifest.json"} == REPRO_SS_SHA256
    assert (out / "task_affine.svg").read_text().count('class="hl0"') == 145
    doc = json.loads((out / "affine_report.json").read_text())
    assert doc["facet_count"] == 145


def test_repro_only_defined_at_three(tmp_path):
    assert main(["repro", "--n", "2", "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("n", [2, 4])
def test_repro_rejects_an_adversary_over_another_n_before_writing(
        tmp_path, capsys, n):
    adv = tmp_path / "adv.json"
    adv.write_text(json.dumps({"n": n, "kind": "k_of", "k": 1}))
    out = tmp_path / "bundle"
    assert main(["repro", "--out", str(out), "--adversary", str(adv)]) == 2
    assert f"over n={n}" in one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("live_sets,message", [
    ([[1, 2], [3]], "not fair"),
    ([], "adversary admits no live set"),
])
def test_repro_rejects_an_adversary_without_a_task_before_writing(
        tmp_path, capsys, live_sets, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "live_sets": live_sets}))
    out = tmp_path / "bundle"
    assert main(["repro", "--out", str(out), "--adversary", str(bad)]) == 2
    assert message in one_error_line(capsys)
    assert not out.exists()
