"""Command-line front end.

Subcommands: chr (subdivisions), adv (adversaries), affine (task
construction and lemma sweeps), leader (query-map properties), simulate
(protocol model checking), repro (deterministic artifact bundle).

Exit codes: 0 success, 1 a verification reported violations, 2 bad input or
resource budget exceeded. AFFINE_STATE_CAP overrides the state cap.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Iterable

from .adversary import (Adversary, AdversaryError, adversary_from_dict,
                        adversary_to_dict, agreement_function, alpha_to_dict,
                        check_fairness, classify, enumerate_adversaries,
                        make_k_of, make_t_resilient, setcon,
                        verify_fair_subtraction)
from .affine import (build_r_a, concurrency_levels, task_alpha, task_to_dict,
                     verify_cs_distribution, verify_single_carrier)
from .complexes import (MAX_PROCESSES, ChromaticComplex, ComplexError,
                        complex_from_dict, complex_to_dict)
from .leader import verify_leader
from .render import HIGHLIGHT_COLORS, render_complex_svg, render_off
from .simulate import (ProtocolModel, SimulationError, StateCapExceeded,
                       check_model, events_from_jsonable, events_to_jsonable,
                       replay, state_cap_from_env, sweep, valid_participations)
from .subdivision import chr2_complex, chr_complex

# every AdversaryError, ComplexError, SimulationError, LeaderError and
# json.JSONDecodeError is a ValueError
INPUT_ERRORS = (ValueError, KeyError, OSError, StateCapExceeded)


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_adversary(path: str) -> Adversary:
    return adversary_from_dict(_load_json(path))


def _dump(doc, out: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    _emit(text, out)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _parse_colors(raw: str) -> frozenset[int]:
    try:
        ids = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise AdversaryError(f"expected comma-separated integers, got {raw!r}")
    if len(set(ids)) < len(ids):
        raise AdversaryError(f"repeated process id in {raw!r}")
    return frozenset(ids)


def _subdivision(n: int, rounds: int) -> ChromaticComplex:
    if rounds == 1:
        return chr_complex(n)
    if rounds == 2:
        return chr2_complex(n)
    raise ComplexError(f"rounds must be 1 or 2, got {rounds}")


# --- chr ---------------------------------------------------------------------


def cmd_chr(args) -> int:
    # flags first: at n=5 the subdivision alone takes seconds to build
    if args.format == "svg" and args.n > 4:
        raise ComplexError(f"SVG rendering needs n <= 3 (OFF at n=4), got n={args.n}")
    if (args.highlight or args.labels) and (args.format != "svg" or args.n == 4):
        raise ComplexError("--highlight and --labels need an SVG drawing "
                           "(--format svg, n <= 3)")
    K = _subdivision(args.n, args.rounds)
    if args.format == "json":
        _dump(complex_to_dict(K), args.out)
        return 0
    if args.n == 4:
        _emit(render_off(K), args.out)
        return 0
    highlights = []
    if args.highlight:
        sub = complex_from_dict(_load_json(args.highlight))
        missing = sub.vertices - K.vertices
        if missing:
            raise ComplexError(
                f"highlight vertices not in the complex: "
                f"{sorted(v.uid for v in missing)}")
        highlights.append((sub.sorted_facets(), HIGHLIGHT_COLORS[0]))
    _emit(render_complex_svg(K, highlights, labels=args.labels), args.out)
    return 0


# --- adv ---------------------------------------------------------------------


def cmd_adv(args) -> int:
    if args.action == "classify":
        # range first: the family count below is 2^(2^n - 1)
        if not 1 <= args.n <= MAX_PROCESSES:
            raise AdversaryError(f"n={args.n} out of range 1..{MAX_PROCESSES}")
        families, cap = 1 << ((1 << args.n) - 1), state_cap_from_env()
        if families > cap:
            raise StateCapExceeded(
                f"adv classify --n {args.n} would enumerate {families} "
                f"families, over the cap {cap}")
        rows = [classify(a) for a in enumerate_adversaries(args.n)]
        _dump({"n": args.n, "count": len(rows), "rows": rows}, args.out)
        return 0
    if not args.adversary:
        raise AdversaryError(f"adv {args.action} needs --adversary")
    adv = _load_adversary(args.adversary)
    if args.action == "setcon":
        _dump({"setcon": setcon(adv)}, args.out)
        return 0
    if args.action == "alpha":
        _dump({"n": adv.n, "alpha": alpha_to_dict(agreement_function(adv))},
              args.out)
        return 0
    if args.action == "fair":
        verdict = check_fairness(adv)
        doc = {"fair": verdict.fair}
        if not verdict.fair:
            P, Q = verdict.witness
            doc["witness"] = {"P": sorted(P), "Q": sorted(Q)}
        _dump(doc, args.out)
        return 0 if verdict.fair else 1
    raise AdversaryError(f"unknown adv action {args.action!r}")


# --- affine --------------------------------------------------------------------


def cmd_affine_build(args) -> int:
    adv = _load_adversary(args.adversary)
    if args.svg and adv.n > 3:  # before the task JSON is written
        raise ComplexError(f"SVG rendering needs n <= 3, got n={adv.n}")
    task = build_r_a(adv)
    _dump(task_to_dict(task), args.out)
    if args.svg:
        base = chr2_complex(adv.n)
        svg = render_complex_svg(
            base, [(task.complex.sorted_facets(), HIGHLIGHT_COLORS[0])])
        _emit(svg, args.svg)
    return 0


def cmd_affine_verify(args) -> int:
    adv = _load_adversary(args.adversary)
    if args.property == "distribution":
        report = verify_cs_distribution(adv)
    elif args.property == "single-carrier":
        report = verify_single_carrier(adv)
    elif args.property == "subtraction":
        report = verify_fair_subtraction(adv)
    else:
        raise AdversaryError(f"unknown property {args.property!r}")
    _dump(report.to_dict(), args.out)
    return 0 if report.ok else 1


# --- leader --------------------------------------------------------------------


def cmd_leader(args) -> int:
    adv = _load_adversary(args.adversary)
    queries = [_parse_colors(args.Q)] if args.Q is not None else None
    reports = verify_leader(adv, queries=queries)
    doc = {r.kind: r.to_dict() for r in reports}
    _dump(doc, args.out)
    return 0 if all(r.ok for r in reports) else 1


# --- simulate ------------------------------------------------------------------


def cmd_simulate_check(args) -> int:
    adv = _load_adversary(args.adversary)
    if args.n is not None and args.n != adv.n:
        raise SimulationError(f"--n {args.n} disagrees with adversary n={adv.n}")
    task = build_r_a(adv) if args.safety or not args.liveness else None
    if task is None:
        task_alpha(adv)  # the input errors of build_r_a, without R_A
    cap = state_cap_from_env()
    parts = ([_parse_colors(args.participation)]
             if args.participation is not None else valid_participations(adv))
    # build every model, and so check its input, before anything is
    # written; the trace directory is made once every participation is
    # checked, so an error or an exceeded state cap leaves none behind
    models = [ProtocolModel(adv, participation=P, fault_budget=args.fault_budget,
                            max_states=cap) for P in parts]
    doc = {"adversary": adversary_to_dict(adv), "participations": []}
    ok = True
    trace_dir = Path(args.trace_out) if args.trace_out else None
    traces: dict[str, dict] = {}
    checked = sweep(models, task, track_parents=trace_dir is not None)
    for model, (row, reports, exploration) in zip(models, checked):
        if args.safety and not args.liveness:
            reports = reports[:1]  # the sweep's liveness report is not asked for
        doc["participations"].append({**row, **{r.kind: r.to_dict() for r in reports}})
        ok = ok and all(r.ok for r in reports)
        if trace_dir is not None:
            # each offending terminal once, named by its position
            bad = {k: state for r in reports for k, state in r.states.items()}
            P = row["participation"]
            for k in sorted(bad):
                events = model.trace_to(bad[k], exploration.parents)
                traces[f"trace_{''.join(map(str, P))}_{k}.json"] = {
                    "participation": P, "events": events_to_jsonable(events)}
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        for name, trace in traces.items():
            _dump(trace, str(trace_dir / name))
    _dump(doc, args.out)
    return 0 if ok else 1


def cmd_simulate_replay(args) -> int:
    adv = _load_adversary(args.adversary)
    payload = _load_json(args.trace)
    try:
        part = (list(payload["participation"])
                if "participation" in payload else None)
        events = events_from_jsonable(payload["events"])
    except KeyError as exc:
        raise SimulationError(f"trace {args.trace} missing field {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise SimulationError(f"malformed trace {args.trace}: {exc}") from exc
    if args.participation is not None:
        part = sorted(_parse_colors(args.participation))
    model = ProtocolModel(adv, participation=part,
                          fault_budget=args.fault_budget,
                          max_states=state_cap_from_env())
    state = replay(model, events)
    _dump(model.decode(state), args.out)
    return 0


# --- repro ---------------------------------------------------------------------


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cmd_repro(args) -> int:
    from .affine import contention_simplices, critical_simplices

    n = args.n
    if n != 3:
        raise ComplexError("the artifact bundle is defined at n=3")
    adv = (_load_adversary(args.adversary) if args.adversary
           else make_k_of(n, 1))
    if adv.n != n:
        raise ComplexError("the artifact bundle is defined at n=3; "
                           f"the adversary is over n={adv.n}")
    task_alpha(adv)  # reject an adversary without a task before any write
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cap = state_cap_from_env()
    chr1 = chr_complex(n)
    chr2 = chr2_complex(n)
    ok = True

    files: dict[str, str] = {}

    def put(name: str, text: str) -> None:
        (out_dir / name).write_text(text, encoding="utf-8")
        files[name] = _sha256(out_dir / name)

    # six drawings
    put("subdivision_one_round.svg", render_complex_svg(chr1, labels=True))

    resilient = build_r_a(make_t_resilient(n, 1))
    put("task_resilient_1.svg", render_complex_svg(
        chr2, [(resilient.complex.sorted_facets(), HIGHLIGHT_COLORS[0])]))

    contending = contention_simplices(n, min_dim=1)
    put("contention_two_rounds.svg",
        render_complex_svg(chr2, [(contending, HIGHLIGHT_COLORS[1])]))

    crits = critical_simplices(adv)
    put("critical_simplices.svg",
        render_complex_svg(chr1, [(crits, HIGHLIGHT_COLORS[2])]))

    levels = concurrency_levels(adv)
    by_level: dict[int, list] = {}
    for s, c in levels.items():
        by_level.setdefault(c, []).append(s)
    layers = [(by_level[c], HIGHLIGHT_COLORS[i % len(HIGHLIGHT_COLORS)])
              for i, c in enumerate(sorted(by_level))]
    put("concurrency_map.svg", render_complex_svg(chr1, layers))

    task = build_r_a(adv)
    put("task_affine.svg", render_complex_svg(
        chr2, [(task.complex.sorted_facets(), HIGHLIGHT_COLORS[0])]))

    # four reports
    rows = [classify(a) for a in enumerate_adversaries(n)]
    put("classification.json",
        json.dumps({"n": n, "count": len(rows), "rows": rows}, indent=2) + "\n")

    dist = verify_cs_distribution(adv)
    single = verify_single_carrier(adv)
    subtract = verify_fair_subtraction(adv)
    ok = ok and dist.ok and single.ok and subtract.ok
    put("affine_report.json", json.dumps({
        "adversary": adversary_to_dict(adv),
        "facet_count": task.facet_count(),
        "distribution": dist.to_dict(),
        "single_carrier": single.to_dict(),
        "subtraction": subtract.to_dict(),
    }, indent=2) + "\n")

    reports = verify_leader(adv, task=task)
    ok = ok and all(r.ok for r in reports)
    put("leader_report.json",
        json.dumps({r.kind: r.to_dict() for r in reports}, indent=2) + "\n")

    safety, liveness, mc_rows = check_model(adv, task, max_states=cap)
    ok = ok and safety.ok and liveness.ok
    put("model_check.json", json.dumps({
        "adversary": adversary_to_dict(adv),
        "safety": safety.to_dict(),
        "liveness": liveness.to_dict(),
        "participations": mc_rows,
    }, indent=2) + "\n")

    manifest = {"files": {k: files[k] for k in sorted(files)}}
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


# --- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affinetask",
        description="Chromatic subdivisions, fair adversaries, affine tasks, "
                    "and an exhaustive protocol checker.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chr", help="build or draw iterated subdivisions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rounds", type=int, default=1, choices=(1, 2))
    p.add_argument("--format", choices=("json", "svg"), default="json")
    p.add_argument("--highlight", help="complex JSON to overlay (svg only)")
    p.add_argument("--labels", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_chr)

    p = sub.add_parser("adv", help="adversary queries")
    p.add_argument("action", choices=("setcon", "alpha", "fair", "classify"))
    p.add_argument("--adversary", help="adversary JSON file")
    p.add_argument("--n", type=int, default=3, help="classify sweep size")
    p.add_argument("--out")
    p.set_defaults(func=cmd_adv)

    p = sub.add_parser("affine", help="build tasks, run lemma sweeps")
    asub = p.add_subparsers(dest="affine_cmd", required=True)
    b = asub.add_parser("build")
    b.add_argument("--adversary", required=True)
    b.add_argument("--out")
    b.add_argument("--svg")
    b.set_defaults(func=cmd_affine_build)
    v = asub.add_parser("verify")
    v.add_argument("property",
                   choices=("distribution", "single-carrier", "subtraction"))
    v.add_argument("--adversary", required=True)
    v.add_argument("--out")
    v.set_defaults(func=cmd_affine_verify)

    p = sub.add_parser("leader", help="verify the query-leader map")
    lsub = p.add_subparsers(dest="leader_cmd", required=True)
    lv = lsub.add_parser("verify")
    lv.add_argument("--adversary", required=True)
    lv.add_argument("--Q", help="restrict to one query, e.g. 1,3")
    lv.add_argument("--out")
    lv.set_defaults(func=cmd_leader)

    p = sub.add_parser("simulate", help="model-check the two-round protocol")
    ssub = p.add_subparsers(dest="simulate_cmd", required=True)
    sc = ssub.add_parser("check")
    sc.add_argument("--adversary", required=True)
    sc.add_argument("--n", type=int)
    sc.add_argument("--safety", action="store_true")
    sc.add_argument("--liveness", action="store_true")
    sc.add_argument("--participation", help="fix one participation, e.g. 1,2")
    sc.add_argument("--fault-budget", type=int, default=None)
    sc.add_argument("--trace-out", help="directory for violation traces")
    sc.add_argument("--out")
    sc.set_defaults(func=cmd_simulate_check)
    sr = ssub.add_parser("replay")
    sr.add_argument("--adversary", required=True)
    sr.add_argument("--trace", required=True)
    sr.add_argument("--participation")
    sr.add_argument("--fault-budget", type=int, default=None)
    sr.add_argument("--out")
    sr.set_defaults(func=cmd_simulate_replay)

    p = sub.add_parser("repro", help="emit the deterministic artifact bundle")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--adversary", help="adversary JSON driving the task drawings")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_repro)

    return parser


def main(argv: Iterable[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
