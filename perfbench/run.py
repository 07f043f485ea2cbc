"""The affinetask benchmark: four fixed workloads, exact verdicts, per-layer spans.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-n3 --seed 1 --seconds 28 --trace 0

One caller, closed loop, one thread. The benchmark makes the workload's
inputs from the seed, then starts fresh interpreters that import affinetask
from src/: a few that only set up (to time set-up), then one per pass of the
workload until --seconds are used up. Each pass checks every verdict against
the frozen counts in expected.json. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 untraced and traced passes
alternate, and the metrics are the per-layer ones from the traced passes.
See README.md for the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
from itertools import combinations
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep-n3", "explore-n4", "classify-n4", "tasks-n4")
LAYERS = ("adversary", "subdivision", "complexes", "affine", "leader",
          "simulate", "render", "cli")
SETUP_PROBES = 2        # set-up-only interpreters per run, besides the passes
RUN_LIMIT_S = 170       # every child is killed once the run reaches this age
CLASSIFY_BLOCK = 1024   # classify-n4 verdicts are frozen per block of families
WORK_DIR = Path(".perfbench")


# --- inputs ---------------------------------------------------------------------


def subsets(n: int, sizes) -> list[list[int]]:
    return [list(c) for k in sizes for c in combinations(range(1, n + 1), k)]


def symmetric(n: int, sizes) -> dict:
    """The family whose live sets are all sets with a size in `sizes`."""
    return {"n": n, "live_sets": subsets(n, sizes)}


def sizes_id(sizes) -> str:
    return "sizes-" + ",".join(map(str, sizes))


# tasks-n4 builds R_A for these symmetric families; sizes {3,4} is the
# 1-resilient task the vertex-filter oracle rebuilds, sizes {1,2,3,4} keeps
# all of Chr Chr s.
TASKS_N4_SIZES = ((1,), (1, 2), (3, 4), (1, 2, 3), (1, 2, 3, 4))


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs; the seed only permutes the item order."""
    rng = random.Random(seed)
    if workload == "sweep-n3":
        advs = {sizes_id(s): symmetric(3, s) for s in subsets(3, range(1, 4))}
        items = [{"id": k} for k in advs]
        rng.shuffle(items)
        return {"adversaries": advs, "items": items}
    if workload == "explore-n4":
        items = [{"id": ",".join(map(str, P)), "participation": P}
                 for P in subsets(4, range(1, 5))]
        rng.shuffle(items)
        return {"adversaries": {"explore": symmetric(4, (1,))}, "items": items}
    if workload == "classify-n4":
        # every family over {1..4}: bit i of an item selects the i-th pool
        # set, as enumerate_adversaries numbers them
        pool = subsets(4, range(1, 5))
        items = list(range(1 << len(pool)))
        rng.shuffle(items)
        return {"pool": pool, "items": items}
    if workload == "tasks-n4":
        advs = {sizes_id(s): symmetric(4, s) for s in TASKS_N4_SIZES}
        items = [{"id": k} for k in advs]
        rng.shuffle(items)
        adv_file = WORK_DIR / "k_of_4_1.json"
        adv_file.write_text(json.dumps(dict(symmetric(4, (1,)), kind="explicit")))
        cli = {"chr --n 4 --rounds 2": ["chr", "--n", "4", "--rounds", "2",
                                         "--format", "svg"],
               "affine build k_of(4,1)": ["affine", "build", "--adversary",
                                          str(adv_file)]}
        return {"adversaries": advs, "items": items, "cli": cli}
    raise ValueError(workload)


# --- children -------------------------------------------------------------------


class Child:
    """One fresh interpreter: set-up time, and the pass result unless
    setup_only. A child that fails leaves result None."""

    def __init__(self, workload: str, seed: int, trace: bool, setup_only: bool,
                 deadline: float):
        self.result = None
        start = perf_counter()
        payload = json.dumps(make_inputs(workload, seed)).encode()
        env = dict(os.environ)
        env.pop("AFFINE_STATE_CAP", None)
        env["PYTHONPATH"] = os.pathsep.join(
            ["src"] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
                "--trace", str(int(trace))] + (["--setup-only"] if setup_only else [])
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                env=env)
        timer = threading.Timer(max(deadline - perf_counter(), 0.0), proc.kill)
        timer.start()
        try:
            proc.stdin.write(payload)
            proc.stdin.close()
            ready = proc.stdout.readline()
            self.setup_s = perf_counter() - start
            out = proc.stdout.read()
            proc.wait()
        finally:
            timer.cancel()
            proc.kill()
            proc.wait()
        self.elapsed_s = perf_counter() - start
        if ready.strip() != b"ready" or proc.returncode != 0:
            self.setup_s = None
            print(f"child exited with code {proc.returncode}", file=sys.stderr)
        elif not setup_only:
            self.result = json.loads(out)


# --- verdicts -------------------------------------------------------------------


def verify(workload: str, inputs: dict, child: Child, expected: dict) -> tuple[int, int]:
    """(attempted, failed) verdicts of one pass against the frozen counts."""
    want = expected[workload]
    attempted = len(inputs["items"]) + len(want["pass"])
    if child.result is None:
        return attempted, attempted
    failed = 0
    checks = child.result["checks"]
    for key, value in want["pass"].items():
        if checks.get(key) != value:
            failed += 1
            print(f"{workload}: {key} = {checks.get(key)!r}, frozen {value!r}",
                  file=sys.stderr)
    records = child.result["items"]
    if len(records) != len(inputs["items"]):
        return attempted, attempted
    bad = {r["id"] for r in records if "error" in r}
    for r in records:
        if "error" in r:
            print(f"{workload}: item {r['id']} raised {r['error']}", file=sys.stderr)
    if "items" in want:
        for r in records:
            got = {k: v for k, v in r.items() if k != "id"}
            if r["id"] not in bad and got != want["items"].get(r["id"]):
                bad.add(r["id"])
                print(f"{workload}: item {r['id']} = {got}, frozen "
                      f"{want['items'].get(r['id'])}", file=sys.stderr)
    else:
        for block, (ids, digest) in classify_blocks(records).items():
            if digest != want["blocks"][block]:
                bad.update(ids)
                print(f"{workload}: block {block} differs", file=sys.stderr)
    return attempted, failed + len(bad)


def classify_blocks(records: list[dict]) -> dict[int, tuple[list[str], str]]:
    """classify-n4 verdicts per block of family numbers: (ids, digest)."""
    blocks: dict[int, list[dict]] = {}
    for r in sorted(records, key=lambda r: int(r["id"])):
        blocks.setdefault(int(r["id"]) // CLASSIFY_BLOCK, []).append(r)
    out = {}
    for block, rs in blocks.items():
        text = "\n".join(f"{r['id']} {r.get('row', 'error')}" for r in rs)
        out[block] = ([r["id"] for r in rs], hashlib.sha256(text.encode()).hexdigest()[:16])
    return out


# --- metrics --------------------------------------------------------------------


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples above it, if that
    percentile lies above the median."""
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < len(ordered) // 2:
        return "none above the median has ten samples beyond it"
    return f"p{100.0 * (k + 1) / len(ordered):.2f} = {1e3 * ordered[k]:.3f} ms"


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time per span name: duration minus the time its children cover."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), inner in zip(spans, covered):
        out[name] = out.get(name, 0.0) + (end - start - inner)
    return out


def layer_metrics(result: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    by_name = self_times(result["spans"])
    c = result["counters"]
    m: dict[str, float] = {}
    for layer in LAYERS:
        if layer != "complexes":
            m[f"{layer}.busy_s"] = sum(v for k, v in by_name.items()
                                       if k.split(".")[0] == layer)
    m["simulate.explore_s"] = by_name.get("simulate.explore", 0.0)
    m["simulate.safety_s"] = by_name.get("simulate.check_safety", 0.0)
    m["simulate.liveness_s"] = by_name.get("simulate.check_liveness", 0.0)
    for name in ("leader.checks", "simulate.states", "simulate.terminals",
                 "simulate.models", "adversary.families", "adversary.fair",
                 "adversary.setcon_cache_size", "affine.facets_tested",
                 "affine.facets_kept", "subdivision.facets", "complexes.faces",
                 "render.bytes"):
        m[name] = c.get(name, 0)
    m["leader.checks_per_s"] = rate(m["leader.checks"], m["leader.busy_s"])
    m["simulate.states_per_s"] = rate(m["simulate.states"], m["simulate.busy_s"])
    m["affine.kept_ratio"] = rate(m["affine.facets_kept"], m["affine.facets_tested"])
    m["trace.wall_s"] = result["wall_s"]   # without the reference loops
    m["trace.uncovered_s"] = by_name.get("bench.pass", 0.0)
    m["trace.spans"] = len(result["spans"])
    return m


def unit(name: str) -> str:
    for suffix, u in (("_per_s", "1/s"), ("_s", "s"), ("src_lines", "lines"),
                      ("bytes", "bytes"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return u
    return "count"


def rate(num: float, den: float) -> float:
    return num / den if den else 0.0


def src_lines() -> dict[str, int]:
    """Static size: lines of each module of src/affinetask, and the total."""
    pkg = Path("src/affinetask")
    out = {f"{layer}.src_lines": len((pkg / f"{layer}.py").read_text().splitlines())
           for layer in LAYERS}
    out["src_lines"] = sum(len(p.read_text().splitlines()) for p in pkg.glob("*.py"))
    return out


# --- the run --------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not Path("src/affinetask/__init__.py").is_file() or not Path(
            "tests/oracles.py").is_file():
        print("error: run from the root of an affinetask checkout "
              "(src/affinetask and tests/oracles.py not found)", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    WORK_DIR.mkdir(exist_ok=True)

    start = perf_counter()
    kill_at = start + RUN_LIMIT_S
    inputs = make_inputs(args.workload, args.seed)
    setups = []
    for _ in range(SETUP_PROBES):
        probe = Child(args.workload, args.seed, False, True, kill_at)
        setups.append(probe.setup_s)

    # closed loop: the next pass starts when the previous one has ended, while
    # another pass as long as the longest so far still fits in --seconds
    plain, traced = [], []
    attempted = failed = 0
    longest = 0.0
    while True:
        want_trace = bool(args.trace) and len(traced) < len(plain)
        child = Child(args.workload, args.seed, want_trace, False, kill_at)
        setups.append(child.setup_s)
        a, f = verify(args.workload, inputs, child, expected)
        attempted, failed = attempted + a, failed + f
        if child.result is None:
            break
        (traced if want_trace else plain).append(child.result)
        longest = max(longest, child.elapsed_s)
        enough = plain and (traced or not args.trace)
        if enough and perf_counter() + longest > start + args.seconds:
            break

    setups = [x for x in setups if x is not None]
    if not setups or not plain or (args.trace and not traced):
        print("error: no pass completed; no result", file=sys.stderr)
        return 1

    wall_s = statistics.median(r["wall_s"] for r in plain)
    ref_s = statistics.median(r["reference_s"] for r in plain)
    latencies = [x for r in plain for x in r["latency_s"]]
    metrics = {
        "wall_norm": (statistics.median(r["wall_s"] / r["reference_s"] for r in plain),
                      "ref"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in plain) / 1024, "MB"),
    }
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes, {len(setups)} set-ups, "
          f"{len(latencies)} item latencies")
    print(f"item latency over {len(latencies)} samples: p50 = "
          f"{1e3 * statistics.median(latencies):.3f} ms, tail {tail(latencies)}")
    print(f"wall_s {wall_s:.4f} s, reference loop {ref_s:.4f} s "
          f"(medians over passes of the pass's time and of its mean loop time)")
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted:.6f}")
    if args.trace:
        per_pass = [layer_metrics(r) for r in traced]
        layers = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        layers["trace.overhead_s"] = layers["trace.wall_s"] - wall_s
        layers.update(src_lines())
        write_spans(args, traced)
        metrics = {k: (v, unit(k)) for k, v in layers.items()}
        for k, m in enumerate(per_pass):
            busy = sum(v for name, v in m.items() if name.endswith(".busy_s"))
            print(f"traced pass {k}: wall {m['trace.wall_s']:.4f} s = layer self "
                  f"times {busy:.4f} s + uncovered {m['trace.uncovered_s']:.4f} s")
        print(f"tracing overhead: median traced wall - median untraced wall = "
              f"{layers['trace.overhead_s']:.4f} s")
    else:
        for k, v in src_lines().items():
            print(f"{k} {v} lines")
    for name, (value, u) in metrics.items():
        print(f"{name} {value:.6g} {u}")
    print(f"correct: {failed == 0}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def write_spans(args, traced: list[dict]) -> None:
    """All spans of the traced passes, with their run id, as one JSON file."""
    out = []
    for k, result in enumerate(traced):
        run = f"{args.workload}/seed{args.seed}/traced-pass{k}"
        out += [{"run": run, "name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in result["spans"]]
    path = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(out))
    print(f"spans: {len(out)} written to {path}")


if __name__ == "__main__":
    sys.exit(main())
