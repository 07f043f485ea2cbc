"""One pass of one workload, run in a fresh interpreter.

Started by run.py with the checkout root as working directory and
PYTHONPATH=src. Protocol on the standard streams:

  stdin   the generated inputs, one JSON document
  stdout  the line "ready" once the package is imported and the inputs are
          read, then one JSON line with the pass result

With --setup-only the child exits after "ready". With --trace 1 every call the
pass makes into the package is recorded as a span; spans stay in memory and
are returned with the result. Between items the pass times a fixed reference
loop, whose time is the unit of wall_norm.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from affinetask import (Adversary, agreement_function, build_r_a,
                        check_fairness, check_liveness, check_model,
                        check_safety, chr2_complex, classify, render_off,
                        verify_cs_distribution, verify_fair_subtraction,
                        verify_leader, verify_single_carrier)
from affinetask import adversary as adversary_module
from affinetask import cli
from affinetask.simulate import ProtocolModel

# The independent oracles of the test suite (tests/oracles.py).
sys.path.insert(0, str(Path("tests").resolve()))
import oracles  # noqa: E402


class NoTracer:
    def call(self, name, fn, *args):
        return fn(*args)


class Tracer:
    """Spans around the pass's calls into the package: [name, start, end,
    parent index]. A span opened inside another names it as parent."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name, fn, *args):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else None])
        self._open.append(idx)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans[idx][1:3] = start, perf_counter()
            self._open.pop()


REFERENCE_EVERY_S = 0.2   # least time between two runs of the reference loop


def reference() -> int:
    """A fixed pure-Python loop of arithmetic, hashing and small allocations,
    about 10 ms, in a few hundred kilobytes. Its time is the unit of
    wall_norm: it tracks how fast the machine runs Python at that moment,
    independently of the package."""
    table: dict[int, tuple] = {}
    acc = 0
    for i in range(40_000):
        k = i * 7919 % 1_000_003
        acc += k * k % 7
        table[k & 4095] = (k, acc)
    return len(table)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def facets_digest(K) -> str:
    return digest("\n".join(",".join(f.uids) for f in K.sorted_facets()))


class Pass:
    """State shared by the workload functions: the tracer, the per-item
    records and latencies, and the layer counters."""

    def __init__(self, tracer):
        self.t = tracer
        self.items: list[dict] = []
        self.latency_s: list[float] = []
        self.checks: dict[str, object] = {}
        self.counters: dict[str, int] = {}
        self.faces_of: list = []   # complexes whose face closure the pass needed
        self.reference_s: list[float] = []
        self._last_reference = 0.0

    def calibrate(self, force: bool = False) -> None:
        """Time the reference loop, at most every REFERENCE_EVERY_S and
        always when forced, so the pass samples the machine's speed
        throughout."""
        now = perf_counter()
        if force or now - self._last_reference >= REFERENCE_EVERY_S:
            self.t.call("bench.reference", reference)
            self._last_reference = perf_counter()
            self.reference_s.append(self._last_reference - now)

    @staticmethod
    def attempt(fn, *args):
        """fn(*args), or the exception as a string: one failed verdict must
        not end the pass."""
        try:
            return fn(*args)
        except Exception as exc:
            return f"error: {type(exc).__name__}: {exc}"

    def check(self, name: str, fn) -> None:
        """A pass-level check, run after the timing."""
        self.checks[name] = self.attempt(fn)

    def count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def item(self, item_id: str, fn, *args) -> None:
        """Run one item, timing it; an exception is recorded as its verdict."""
        start = perf_counter()
        record = self.attempt(fn, *args)
        self.latency_s.append(perf_counter() - start)
        if isinstance(record, str):
            record = {"error": record}
        record["id"] = item_id
        self.items.append(record)
        self.calibrate()

    def chr2(self, n: int):
        K = self.t.call("subdivision.chr2_complex", chr2_complex, n)
        self.count("subdivision.facets", len(K.facets))
        return K

    def adversary(self, doc: dict) -> Adversary:
        live_sets = frozenset(frozenset(s) for s in doc["live_sets"])
        return self.t.call("adversary.Adversary", Adversary, doc["n"], live_sets)

    def task(self, adv: Adversary, K):
        task = self.t.call("affine.build_r_a", build_r_a, adv)
        self.count("affine.facets_tested", len(K.facets))
        self.count("affine.facets_kept", task.facet_count())
        return task


# --- workloads ------------------------------------------------------------------
#
# Each takes the inputs and a Pass, and returns the checks to run once the
# timing has stopped. Everything from the first call into the package to the
# last verdict is timed as the pass's wall time; the returned checks (digests,
# oracle cross-checks) are not. Inputs arrive as plain data, so building the
# Adversary values is the first call of each item.


def sweep_n3(inputs: dict, p: Pass):
    K = p.chr2(3)

    tasks = {}

    def family(item_id: str) -> dict:
        t = p.t
        adv = p.adversary(inputs["adversaries"][item_id])
        fair = t.call("adversary.check_fairness", check_fairness, adv).fair
        p.count("adversary.families", 1)
        p.count("adversary.fair", int(fair))
        alpha = t.call("adversary.agreement_function", agreement_function, adv)
        task = tasks[item_id] = p.task(adv, K)
        lemmas = [t.call("affine.verify_cs_distribution", verify_cs_distribution, adv),
                  t.call("affine.verify_single_carrier", verify_single_carrier, adv),
                  t.call("adversary.verify_fair_subtraction",
                         verify_fair_subtraction, adv)]
        leader = t.call("leader.verify_leader", verify_leader, adv, task)
        safety, liveness, rows = t.call("simulate.check_model", check_model, adv, task)
        p.count("leader.checks", sum(r.checked for r in leader))
        p.count("simulate.models", len(rows))
        p.count("simulate.states", sum(r["states"] for r in rows))
        p.count("simulate.terminals", sum(r["terminals"] for r in rows))
        p.faces_of.append(task.complex)
        return {"fair": fair, "alpha": list(alpha.table),
                "facets": task.facet_count(),
                "lemma_checks": sum(r.checked for r in lemmas),
                "lemma_violations": sum(len(r.violations) for r in lemmas),
                "leader_checks": [r.checked for r in leader],
                "leader_violations": sum(len(r.violations) for r in leader),
                "models": len(rows),
                "states": sum(r["states"] for r in rows),
                "terminals": sum(r["terminals"] for r in rows),
                "safety_violations": len(safety.violations),
                "liveness_violations": len(liveness.violations)}

    for doc in inputs["items"]:
        p.item(doc["id"], family, doc["id"])

    def checks():
        p.faces_of.append(K)
        p.check("fubini", lambda: len(K.facets) == oracles.fubini(3) ** 2)
        # sizes {2,3} is the 1-resilient family
        p.check("resilient_vertex_filter", lambda: (
            tasks["sizes-2,3"].complex.facets
            == oracles.resilient_facets_by_vertex_filter(K, 3, 1)))
    return checks


def explore_n4(inputs: dict, p: Pass):
    t = p.t
    adv = p.adversary(inputs["adversaries"]["explore"])
    K = p.chr2(4)
    task = p.task(adv, K)

    def participation(P: frozenset[int]) -> dict:
        model = t.call("simulate.ProtocolModel", ProtocolModel, adv, P)
        exploration = t.call("simulate.explore", model.explore)
        safety = t.call("simulate.check_safety", check_safety, model, exploration, task)
        liveness = t.call("simulate.check_liveness", check_liveness, model, exploration)
        p.count("simulate.models", 1)
        p.count("simulate.states", exploration.state_count)
        p.count("simulate.terminals", len(exploration.terminals))
        return {"fault_budget": model.fault_budget,
                "states": exploration.state_count,
                "terminals": len(exploration.terminals),
                "safety_checked": safety.checked,
                "safety_violations": len(safety.violations),
                "liveness_violations": len(liveness.violations)}

    for doc in inputs["items"]:
        p.item(doc["id"], participation, frozenset(doc["participation"]))

    def checks():
        p.faces_of.extend([K, task.complex])
        p.check("r_a_facets", task.facet_count)
        p.check("fubini", lambda: len(K.facets) == oracles.fubini(4) ** 2)
    return checks


def classify_n4(inputs: dict, p: Pass):
    t = p.t
    pool = [frozenset(s) for s in inputs["pool"]]

    def family(mask: int) -> dict:
        live_sets = frozenset(s for i, s in enumerate(pool) if mask >> i & 1)
        adv = t.call("adversary.Adversary", Adversary, 4, live_sets)
        return {"row": t.call("adversary.classify", classify, adv)}

    for mask in inputs["items"]:
        p.item(str(mask), family, mask)
    rows = [r["row"] for r in p.items if "row" in r]
    fair = sum(row["fair"] for row in rows)
    p.count("adversary.families", len(rows))
    p.count("adversary.fair", fair)

    def checks():
        # the verdict of a family is its whole classification row
        for record in p.items:
            if "row" in record:
                record["row"] = digest(json.dumps(record["row"], sort_keys=True))[:8]
        p.check("fair_total", lambda: fair)
    return checks


def tasks_n4(inputs: dict, p: Pass):
    t = p.t
    K = p.chr2(4)
    tasks = {}

    def family(item_id: str) -> dict:
        adv = p.adversary(inputs["adversaries"][item_id])
        tasks[item_id] = p.task(adv, K)
        return {}

    for doc in inputs["items"]:
        p.item(doc["id"], family, doc["id"])

    def cli_output(argv: list[str]) -> list:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = t.call("cli.main", cli.main, argv)
        return [rc, buf.getvalue()]

    off = p.attempt(t.call, "render.render_off", render_off, K)
    p.count("render.bytes", len(off.encode()))
    outputs = {name: p.attempt(cli_output, argv)
               for name, argv in inputs["cli"].items()}

    def checks():
        for record in p.items:
            task = tasks.get(record["id"])
            if task is not None:
                record["facets"] = task.facet_count()
                record["digest"] = facets_digest(task.complex)
        p.faces_of.append(K)
        p.check("fubini", lambda: len(K.facets) == oracles.fubini(4) ** 2)
        # sizes {3,4} is the 1-resilient family
        p.check("resilient_vertex_filter", lambda: (
            tasks["sizes-3,4"].complex.facets
            == oracles.resilient_facets_by_vertex_filter(K, 4, 1)))
        p.check("render_off", lambda: [len(off.encode()), digest(off)])
        for name, out in outputs.items():
            p.check(f"cli {name}", lambda: [out[0], len(out[1].encode()), digest(out[1])])
    return checks


WORKLOADS = {"sweep-n3": sweep_n3, "explore-n4": explore_n4,
             "classify-n4": classify_n4, "tasks-n4": tasks_n4}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    inputs = json.load(sys.stdin)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else NoTracer()
    p = Pass(tracer)
    p.calibrate(force=True)
    outside = len(p.reference_s)
    start = perf_counter()
    checks = tracer.call("bench.pass", WORKLOADS[args.workload], inputs, p)
    # the reference loops run between items are not the pass's time
    wall_s = perf_counter() - start - sum(p.reference_s[outside:])
    p.calibrate(force=True)
    checks()
    if args.trace:
        p.count("complexes.faces", sum(len(K.simplices()) for K in p.faces_of))
    p.count("adversary.setcon_cache_size",
            len(getattr(adversary_module, "_SETCON_CACHE", ())))
    result = {
        "wall_s": wall_s,
        # the mean, like the wall time, takes in every slow spell
        "reference_s": statistics.fmean(p.reference_s),
        "latency_s": p.latency_s,
        "items": p.items,
        "checks": p.checks,
        "counters": p.counters,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if args.trace else [],
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
