"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written against different primitives than
the package: a simplex's vertices as a set sorted by uid (`simplex_by_set`),
Chr K by walking prefix-carrier Simplex objects of each base
facet (`build_chr`), the facets of Chr Chr s one at a time from each
facet's codes (`chr2_facets_by_codes`), barycentric geometry by a
recursive Fraction sum (`geometry_by_definition`), partition counting via
the surjection formula, the pure complement via brute-force filtering,
the resilient task via a per-vertex
view filter, contention by comparing the frozenset views of every vertex
pair (`reversed_views`, `contending`), the contention-ban task by banning
the simplices so found, the affine task via Simplex objects and frozenset
views (in the package's union-guard reading and in the intersection-guard
reading the protocol escapes, with the facet diff of the two), the Chr Chr
s table of `build_r_a` via `reversed_views` on every vertex pair of every
facet (`chr2_table_by_vertex_pairs`), the level-two contention gap
via carriers and colors, the leader map via its own criticality test and a
pairwise inclusion minimum (and the three leader sweeps, one by one, on that
map), setcon and fairness via the recursive definition
on frozensets of live sets, the agreement-power levels and the first
unfairness witness filled one P at a time on lists of Q-sets
(`levels_by_lists`, `unfair_pair_by_lists`), the explorer's step on
per-state register lists and list-form guards, a state's register masks by a loop over the
processes (`masks`), the safety check via `has_face` on facets
(`safety_by_definition`), the safety and liveness checks deciding every
concrete terminal (`safety_per_state`, `liveness_per_state`), the
explorer before symmetry reduction
(`explore_unreduced`, over every concrete state), the reduced explorer
and its traces on (event, next state) pairs with the events stored in the
parent links (`explore_by_events`, `trace_by_events`, and
`explore_by_events_agrees`, which compares the two explorers and their
traces), and the model check and `simulate check` exploring every
participation set (`check_model_per_participation`,
`simulate_check_per_participation`).
Views and carriers are read straight off vertex payloads (`view1`,
`view2`, `base_colors`). It also holds the helpers only
tests use: `is_pure`, `facet_to_partition`, `symmetric_setcon`,
`project_vertex`, `code_of` (a Chr Chr s vertex's code, written out from
its payload), `color_combinations` (every stride-th set of vertex codes
with distinct colors), `returned_vertices` (a terminal's returned views as vertices
made from per-process register lists) and
`output_simplex` (a terminal's returned views as a Simplex), and
`ComplexTask`, a task held as its complex for the tasks only tests pose.
"""
from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, prod
from pathlib import Path
from typing import Iterator, NamedTuple

from affinetask import (Adversary, AdversaryError, AffineTask,
                        AgreementFunction,
                        ChromaticComplex, ComplexError, LeaderError, Simplex,
                        Exploration, SimulationError, StateCapExceeded,
                        Terminals, VerificationReport,
                        Vertex, adversary_to_dict, agreement_function,
                        build_r_a, chr2_complex, chr_vertex, closure,
                        events_to_jsonable, is_symmetric, make_k_of,
                        ordered_set_partitions, require_fair,
                        state_cap_from_env, two_round_facet)
from affinetask.adversary import FairnessVerdict
from affinetask.affine import _view_groups, task_alpha
from affinetask.bits import colors_of, iter_bits, mask_of
from affinetask.cli import _dump, _load_adversary, _parse_colors
from affinetask.complexes import MAX_PROCESSES
from affinetask.render import _CORNERS_2D, _project
from affinetask.simulate import (DEFAULT_STATE_CAP, DONE, WROTE1, WROTE2,
                                 ProtocolModel, _require_task_n, check_liveness,
                                 check_safety, valid_participations)
from affinetask.subdivision import (_FIELDS, _VIEW, all_runs,
                                   chr2_facet_codes, pack, packed_views,
                                   simplex_of_codes)


def code_of(v: Vertex) -> int:
    """The code of a Chr Chr s vertex, written out from its payload: its
    packed carrier above its color in the low three bits. Any other vertex
    raises."""
    if v.payload is None or v.payload.vertices[0].payload is None:
        raise ComplexError(f"{v!r} is not a Chr Chr s vertex")
    return packed_views(v.payload) << 3 | v.color


def chr2_facets_by_codes(n: int) -> tuple[Simplex, ...]:
    """The facets of Chr Chr s in run-pair order, each the Simplex of its
    own vertex codes: a code list per facet and a `chr2_vertex` lookup per
    vertex of each facet."""
    return tuple(map(simplex_of_codes,
                     chr2_facet_codes(n, range(len(all_runs(n)) ** 2))))


def color_combinations(codes, stride: int = 1):
    """Every stride-th nonempty set of the given vertex codes with pairwise
    distinct colors, colors ascending: the sets numbered 1, 1 + stride, ...
    in mixed radix, one digit per color, 0 for the color absent and d for
    its d-th smallest code."""
    by_color = [sorted(c for c in set(codes) if c & 7 == color)
                for color in sorted({c & 7 for c in codes})]
    for k in range(1, prod(len(b) + 1 for b in by_color), stride):
        combo, rest = [], k
        for b in by_color:
            rest, d = divmod(rest, len(b) + 1)
            if d:
                combo.append(b[d - 1])
        yield tuple(combo)


class ComplexTask:
    """A task held as its complex, with the agreement function it is posed
    for: the interface of `AffineTask`, read off the complex, for the tasks
    that only the tests pose. It is never taken as symmetric."""

    def __init__(self, name: str, n: int, complex: ChromaticComplex,
                 alpha: AgreementFunction):
        self.name, self.n, self.complex, self.alpha = name, n, complex, alpha

    def holds(self, codes) -> bool:
        codes = tuple(codes)
        if not codes:
            return bool(self.complex.facets)
        return simplex_of_codes(codes) in self.complex

    def facet_codes(self):
        return ([code_of(v) for v in f] for f in self.complex.facets)

    def facet_count(self) -> int:
        return len(self.complex.facets)

    def symmetric_under(self, a: int, b: int) -> bool:
        return False


def view2(v) -> frozenset[int]:
    """Colors a Chr Chr s vertex saw in round two."""
    return v.payload.colors


def view1(v) -> frozenset[int]:
    """Colors a Chr Chr s vertex saw in round one: the view of its own
    color's vertex in its round-two view."""
    return next(u.payload.colors for u in v.payload if u.color == v.color)


def reversed_views(a1, a2, b1, b2) -> bool:
    """Round-one views a1, b1 and round-two views a2, b2 of two vertices,
    as frozensets, strictly ordered in opposite directions."""
    return a1 < b1 and b2 < a2 or b1 < a1 and a2 < b2


def contending(theta: Simplex) -> bool:
    """Every vertex pair of a Chr Chr s simplex has reversed views; a single
    vertex vacuously."""
    return all(reversed_views(view1(v), view2(v), view1(u), view2(u))
               for v, u in combinations(theta.vertices, 2))


def base_colors(vertices) -> frozenset[int]:
    """Colors of the base carrier of some Chr s vertices."""
    return frozenset().union(*(u.payload.colors for u in vertices))


def critical_faces(sigma, alpha) -> list[tuple]:
    """The critical faces of a Chr s simplex, as vertex tuples: their
    vertices share one view, and removing their colors from it lowers alpha."""
    out = []
    for k in range(1, len(sigma) + 1):
        for theta in combinations(sigma, k):
            view = theta[0].payload.colors
            if (all(v.payload.colors == view for v in theta)
                    and alpha(view - {v.color for v in theta}) < alpha(view)):
                out.append(theta)
    return out


def simplex_by_set(vertices) -> tuple[Vertex, ...]:
    """The vertices of `Simplex(vertices)` by the construction it replaced:
    the set of the vertices (equal uids are equal vertices), sorted by uid,
    then the empty and repeated-color checks with `Simplex`'s messages."""
    vs = tuple(sorted(set(vertices), key=lambda v: v.uid))
    if not vs:
        raise ComplexError("a simplex needs at least one vertex")
    if len({v.color for v in vs}) != len(vs):
        raise ComplexError(
            "repeated colors in simplex: %s" % [v.uid for v in vs])
    return vs


def is_pure(K: ChromaticComplex) -> bool:
    """True when every facet has the complex's dimension."""
    dims = {f.dim for f in K.facets}
    return len(dims) <= 1


def build_chr(base: ChromaticComplex) -> ChromaticComplex:
    """Standard chromatic subdivision of a pure chromatic complex: per base
    facet and ordered partition of its vertices, the vertex of each block
    carries the face spanned by the blocks up to its own."""
    if not is_pure(base):
        raise ComplexError("build_chr requires a pure complex")
    vertex_pool: dict[str, Vertex] = {}

    def pooled(color: int, carrier: Simplex) -> Vertex:
        v = chr_vertex(color, carrier)
        return vertex_pool.setdefault(v.uid, v)

    new_facets: list[Simplex] = []
    for tau in base.sorted_facets():
        for blocks in ordered_set_partitions(tau.vertices):
            prefix: list[Vertex] = []
            verts: list[Vertex] = []
            for block in blocks:
                prefix.extend(block)
                carrier = Simplex(tuple(prefix))
                verts.extend(pooled(v.color, carrier) for v in block)
            new_facets.append(Simplex(tuple(verts)))
    return ChromaticComplex(n=base.n, facets=frozenset(new_facets))


def geometry_by_definition(v: Vertex, n: int) -> tuple[Fraction, ...]:
    """Exact barycentric coordinates of a subdivision vertex over corners 1..n.

    A corner maps to a unit vector. A subdivision vertex with carrier rho of
    size k sits at 1/(2k-1) times its own-color anchor plus 2/(2k-1) times
    each remaining vertex of rho, recursively.
    """
    if v.payload is None:
        return tuple(Fraction(1 if c == v.color else 0)
                     for c in range(1, n + 1))
    rho = v.payload
    k = len(rho)
    own = Fraction(1, 2 * k - 1)
    other = Fraction(2, 2 * k - 1)
    coords = [Fraction(0)] * n
    for u in rho:
        w = own if u.color == v.color else other
        for i, x in enumerate(geometry_by_definition(u, n)):
            coords[i] += w * x
    return tuple(coords)


def project_vertex(v: Vertex, n: int) -> tuple[Fraction, Fraction]:
    """A vertex's exact position in the planar drawing of n <= 3 colors,
    as Fractions."""
    if n not in _CORNERS_2D:
        raise ComplexError(f"planar drawing needs n <= 3, got n={n}")
    points, den = _project((v,), n, _CORNERS_2D[n])
    x, y = points[v]
    return Fraction(x, den), Fraction(y, den)


def facet_to_partition(facet: Simplex) -> tuple[frozenset[int], ...]:
    """Inverse of partition_to_facet: group colors by equal carriers."""
    groups: dict[Simplex, set[int]] = {}
    for v in facet:
        if v.payload is None:
            raise ComplexError("not a subdivision facet")
        groups.setdefault(v.payload, set()).add(v.color)
    ordered = sorted(groups.items(), key=lambda kv: len(kv[0]))
    blocks = tuple(frozenset(colors) for _, colors in ordered)
    covered: set[int] = set()
    for (carrier_, _), block in zip(ordered, blocks):
        covered |= block
        if carrier_.colors != covered:
            raise ComplexError(f"carriers of {facet!r} do not form a run")
    return blocks


def swapped_facet(facet: Simplex, a: int, b: int, n: int) -> Simplex:
    """The Chr Chr s facet with colors a and b exchanged, rebuilt from its
    two runs: the round-two run groups its vertices by carrier, and the
    round-one run is the run of the largest carrier."""
    def swap(blocks):
        return [[b if c == a else a if c == b else c for c in block]
                for block in blocks]

    base = max((v.payload for v in facet), key=len)
    return two_round_facet(swap(facet_to_partition(base)),
                           swap(facet_to_partition(facet)), n)


def symmetric_by_facets(task: AffineTask, a: int, b: int) -> bool:
    """Whether exchanging colors a and b maps the task's facets onto
    themselves, facet by facet."""
    facets = task.complex.facets
    return {swapped_facet(f, a, b, task.n) for f in facets} == facets


def fubini(n: int) -> int:
    """Number of ordered set partitions of an n-set, via surjection counts."""
    return sum(sum((-1) ** (k - j) * comb(k, j) * j ** n for j in range(k + 1))
               for k in range(n + 1))


def ordered_partitions_by_merging(items: tuple) -> list[tuple[tuple, ...]]:
    """Every ordered set partition, generated from permutations with block
    cuts. Exponential, fine at n <= 5."""
    out = set()
    items = tuple(sorted(items))
    n = len(items)
    for perm in permutations(items):
        for cuts in range(1 << (n - 1)):
            blocks = []
            cur = [perm[0]]
            for i in range(1, n):
                if (cuts >> (i - 1)) & 1:
                    blocks.append(tuple(sorted(cur)))
                    cur = [perm[i]]
                else:
                    cur.append(perm[i])
            blocks.append(tuple(sorted(cur)))
            out.add(tuple(blocks))
    return sorted(out)


def pure_complement_brute(simplices, K: ChromaticComplex) -> set[Simplex]:
    """Facets containing no member of the given set."""
    wanted = set(simplices)
    return {f for f in K.facets if not any(f.has_face(s) for s in wanted)}


def build_r_kof(n: int, k: int) -> ComplexTask:
    """The contention ban: facets of Chr Chr s avoiding every contending
    simplex of dim >= k, tagged with the alpha of k-obstruction-freedom."""
    if not 1 <= k <= n:
        raise AdversaryError(f"k={k} out of range 1..{n}")
    chr2 = chr2_complex(n)
    banned = [s for s in chr2.simplices() if s.dim >= k and contending(s)]
    return ComplexTask(f"r_{k}of", n, closure(pure_complement_brute(banned, chr2), n=n),
                       agreement_function(make_k_of(n, k)))


def r_a_by_definition(adv: Adversary, combine: str) -> set[Simplex]:
    """The facets of R_A, filtered one Simplex at a time.

    Contention compares frozenset views; criticality tests every face of a
    carrier for one shared view and a drop of alpha, memoized per carrier.
    A facet is dropped when a contending face misses the guard colors (the
    union or the intersection of the critical-member colors of the facet's
    carrier and the critical-carrier colors of the face's carrier) and its
    dim reaches the conc of its carrier.
    """
    require_fair(adv)
    alpha = agreement_function(adv)
    memo: dict[frozenset, tuple] = {}

    def crit(theta: Simplex) -> tuple:
        """(csm colors, csv colors, conc) of the Chr s carrier of theta."""
        sigma = frozenset(u for v in theta for u in v.payload)
        if sigma not in memo:
            cs = critical_faces(sigma, alpha)
            csm = {v for face in cs for v in face}
            memo[sigma] = (frozenset(v.color for v in csm), base_colors(csm),
                           max((alpha(face[0].payload.colors) for face in cs),
                               default=0))
        return memo[sigma]

    def obeys(facet: Simplex) -> bool:
        csm_rho = crit(facet)[0]
        for theta in facet.faces():
            if not contending(theta):
                continue
            _, csv, conc = crit(theta)
            guard = csm_rho | csv if combine == "union" else csm_rho & csv
            if not theta.colors & guard and theta.dim >= conc:
                return False
        return True

    return {f for f in chr2_complex(adv.n).facets if obeys(f)}


def chr2_table_by_vertex_pairs(n: int) -> tuple:
    """(groups, rhos, faces) of the Chr Chr s table, the library's
    `_chr2_table`, by the reference clique loop: per facet,
    `reversed_views` on every vertex pair, growing the contending faces
    vertex by vertex in round-two run order."""
    runs = all_runs(n)
    sets = [colors_of(m) for m in range(1 << n)]
    ids: dict[int, int] = {}  # packed Chr s simplex -> id
    pool: dict[int, int] = {}  # one int object per packed face
    rhos, faces = [], []
    for views1 in map(pack, runs):
        for run2 in runs:
            # per vertex: color bit, round-1 and round-2 views, packed carrier
            vs = [(1 << c - 1, sets[views1 >> MAX_PROCESSES * (c - 1) & _VIEW],
                   sets[v2], views1 & _FIELDS[v2]) for c, v2 in run2]
            cliques: list[tuple[int, int, int]] = []  # members, colors, tau
            for i, (bit, v1, v2, car) in enumerate(vs):
                rivals = sum(1 << j for j, u in enumerate(vs[:i])
                             if reversed_views(v1, v2, u[1], u[2]))
                cliques += [(members | 1 << i, colors | bit, tau | car)
                            for members, colors, tau in cliques
                            if members & rivals == members]
                cliques.append((1 << i, bit, car))
            rhos.append(ids.setdefault(views1, len(ids)))
            packed = (ids.setdefault(tau, len(ids)) << MAX_PROCESSES | colors
                      for _, colors, tau in cliques)
            faces.append(tuple(pool.setdefault(x, x) for x in packed))
    return tuple(_view_groups(p) for p in ids), tuple(rhos), tuple(faces)


def r_a_intersection_task(adv: Adversary) -> ComplexTask:
    """The intersection-guard reading of R_A as a task, with the adversary's
    alpha; the two-round protocol escapes it."""
    return ComplexTask("r_adv_intersection", adv.n,
                       closure(r_a_by_definition(adv, "intersection"), n=adv.n),
                       agreement_function(adv))


def variant_divergence_report(advs) -> dict:
    """Facet-level diff of R_A (`build_r_a`, the union guard) and the
    intersection-guard reading, per (label, adversary)."""
    rows = []
    for label, adv in advs:
        union = build_r_a(adv).complex.facets
        inter = r_a_by_definition(adv, "intersection")
        rows.append({
            "adversary": label,
            "union_facets": len(union),
            "intersection_facets": len(inter),
            "facets_only_in_union": sorted(list(f.uids) for f in union - inter),
            "facets_only_in_intersection": sorted(
                list(f.uids) for f in inter - union),
        })
    return {"kind": "task_variant_divergence", "rows": rows}


def safety_by_definition(model, exploration: Exploration,
                         task: AffineTask) -> VerificationReport:
    """`check_safety` one terminal at a time: each output simplex is looked
    up among the facets of Chr Chr s and among the task's facets by
    `has_face`, and reported when it misses either."""
    chr2 = chr2_complex(model.n).facets
    report = VerificationReport(kind="safety")
    memo: dict[Simplex, tuple[bool, bool]] = {}
    for state in exploration.terminals:
        report.checked += 1
        sigma = output_simplex(model, state)
        if sigma is None:
            continue
        if sigma not in memo:
            memo[sigma] = (any(f.has_face(sigma) for f in chr2),
                           any(f.has_face(sigma) for f in task.complex.facets))
        inside, in_task = memo[sigma]
        if not (inside and in_task):
            report.add(outputs=list(sigma.uids), in_subdivision=inside,
                       state=model.decode(state))
            report.states[report.checked - 1] = state
    return report


def outputs(model, state: int) -> list[tuple[int, int]]:
    """(process, second-round prefix mask) of every returned process of a
    `ProtocolModel` state."""
    spfx = model._round(state, 2)[1]
    return [(i + 1, spfx[i]) for i in model._procs
            if model._prog(state, i) == DONE]


def output_simplex(model, state: int) -> Simplex | None:
    """The chromatic simplex spanned by the returned views of a
    `ProtocolModel` state, if any."""
    codes = model.output_codes(state)
    return simplex_of_codes(codes) if codes else None


def safety_per_state(model, exploration: Exploration,
                     task: AffineTask) -> VerificationReport:
    """`check_safety` deciding every concrete terminal state in turn, as it
    did before it decided one state per orbit: Chr Chr s is built, and its
    membership is asked unless every facet of the task is one of its."""
    chr2 = chr2_complex(model.n)
    nested = task.complex.facets <= chr2.facets
    report = VerificationReport(kind="safety", info=exploration.row())
    unsafe: dict[tuple, tuple[Simplex, bool] | None] = {}
    for state in exploration.terminals:
        report.checked += 1
        key = (tuple(outputs(model, state)), model._round(state, 1)[1])
        if key not in unsafe:
            sigma = output_simplex(model, state)
            if sigma is None:
                unsafe[key] = None
            else:
                in_task = sigma in task.complex
                inside = in_task and nested or sigma in chr2
                unsafe[key] = None if inside and in_task else (sigma, inside)
        if unsafe[key] is not None:
            sigma, inside = unsafe[key]
            report.add(outputs=list(sigma.uids), in_subdivision=inside,
                       state=model.decode(state))
            report.states[report.checked - 1] = state
    return report


def liveness_per_state(model, exploration: Exploration) -> VerificationReport:
    """`check_liveness` deciding every concrete terminal state in turn."""
    report = VerificationReport(kind="liveness", info=exploration.row())
    for state in exploration.terminals:
        report.checked += 1
        stuck = [i + 1 for i in model._procs
                 if not (state >> 13 * i + _CRASHED) & 1
                 and model._prog(state, i) != DONE]
        if stuck:
            report.add(stuck=stuck, state=model.decode(state))
            report.states[report.checked - 1] = state
    return report


def resilient_facets_by_vertex_filter(chr2: ChromaticComplex, n: int,
                                      t: int) -> set[Simplex]:
    """Facets every vertex of which saw at least n - t processes in round 1."""
    return {f for f in chr2.facets
            if all(len(base_colors(v.payload)) >= n - t for v in f)}


def lone_full_view_leader(facet: Simplex, n: int):
    """The vertex of a Chr Chr s facet that saw all n processes in round 1,
    shares that round-1 view with no other vertex of the facet, and saw only
    its own round-1 vertex in round 2 (alone in the first round-2 block);
    None if there is none.

    Read off views only: alone in the first round-2 block means a round-2
    view of v's own color only.
    """
    full = frozenset(range(1, n + 1))
    full_views = [v for v in facet if view1(v) == full]
    if len(full_views) != 1:
        return None
    v = full_views[0]
    return v if view2(v) == {v.color} else None


def facets_with_lone_full_view_leader(facets, n: int) -> set[Simplex]:
    """Facets that have a lone full-view leader."""
    return {f for f in facets if lone_full_view_leader(f, n) is not None}


def hitting_number_brute(family) -> int:
    """Smallest set meeting every member, by unrestricted subset scan."""
    family = [frozenset(m) for m in family]
    if not family:
        return 0
    universe = sorted(frozenset().union(*family))
    for k in range(len(universe) + 1):
        for pick in combinations(universe, k):
            s = frozenset(pick)
            if all(s & m for m in family):
                return k
    raise AssertionError("unreachable: the universe hits everything")


def immediate_snapshot_views(blocks: tuple[tuple, ...]) -> dict:
    """color -> set of colors seen, from an ordered block schedule."""
    seen: dict[int, frozenset[int]] = {}
    prefix: set[int] = set()
    for block in blocks:
        prefix.update(block)
        snap = frozenset(prefix)
        for c in block:
            seen[c] = snap
    return seen


def mu_by_definition(v, Q, alpha) -> int:
    """The elected process of Q for a Chr Chr s vertex v, from the definition.

    The critical faces of v's second-round view come from `critical_faces`
    (no cache). The chosen view is the inclusion minimum of the candidate
    views meeting Q, found by comparing every pair: the critical faces'
    views when one of them meets Q, otherwise the views of the round-one
    vertices v saw.
    """
    Q = frozenset(Q)
    cands = {theta[0].payload.colors
             for theta in critical_faces(v.payload, alpha)}
    if not any(c & Q for c in cands):
        cands = {u.payload.colors for u in v.payload}
    cands = {c for c in cands if c & Q}
    least = [c for c in cands if all(c <= d for d in cands)]
    if len(least) != 1:
        raise AssertionError(f"no inclusion minimum among {cands}")
    return min(least[0] & Q)


# --- the leader sweeps, one by one --------------------------------------------
#
# The three sweeps `verify_leader` replaced, kept as its reference. They read
# the leader off `mu_by_definition`, memoized per (vertex, Q), and the base
# carrier off the vertex payload.


class LeaderByDefinition:
    """`mu_by_definition` of one agreement function, memoized per (vertex, Q)."""

    def __init__(self, alpha):
        self.alpha = alpha
        self._mu: dict[tuple, int] = {}

    def seen(self, v) -> int:
        """The colors of v's base carrier, as a mask."""
        return mask_of(base_colors(v.payload))

    def __call__(self, v, Q) -> int:
        key = (v, frozenset(Q))
        if key not in self._mu:
            self._mu[key] = mu_by_definition(v, key[1], self.alpha)
        return self._mu[key]


def _prepare(adv: Adversary, task: AffineTask | None
             ) -> tuple[AffineTask, LeaderByDefinition]:
    require_fair(adv)
    alpha = agreement_function(adv)
    if task is None:
        task = build_r_a(adv)
    if task.n != adv.n:
        raise LeaderError(f"task {task.name} is over n={task.n}, "
                          f"the adversary over n={adv.n}")
    if task.alpha != alpha:
        raise LeaderError(f"task {task.name} was built for another "
                          "agreement function than the adversary's")
    return task, LeaderByDefinition(alpha)


def _queries_for(n: int, queries, containing: int | None = None
                 ) -> list[frozenset[int]]:
    full = range(1, n + 1)
    if queries is None:
        queries = [c for k in full for c in combinations(full, k)]
    picked = [frozenset(Q) for Q in queries]
    for Q in picked:
        if not Q or not Q.issubset(full):
            raise LeaderError(f"query set {sorted(Q)} must be a nonempty "
                              f"subset of 1..{n}")
    return [Q for Q in picked if containing is None or containing in Q]


def verify_mu_validity(adv: Adversary, task: AffineTask | None = None,
                       queries=None) -> VerificationReport:
    """mu lands in Q and in the processes the vertex has seen."""
    task, mu = _prepare(adv, task)
    report = VerificationReport(kind="mu_validity")
    for v in sorted(task.complex.vertices, key=lambda u: u.uid):
        seen = colors_of(mu.seen(v))
        for Q in _queries_for(adv.n, queries, containing=v.color):
            leader = mu(v, Q)
            report.checked += 1
            if leader not in Q or leader not in seen:
                report.add(vertex=v.uid, Q=sorted(Q), leader=leader,
                           seen=sorted(seen))
    return report


def verify_mu_agreement(adv: Adversary, task: AffineTask | None = None,
                        queries=None) -> VerificationReport:
    """Faces inside Q elect at most alpha(carrier colors) distinct leaders.

    Faces are index combinations of the vertices of every facet, whatever
    its dimension, with color and base-carrier masks: a face's base carrier
    is the union of its vertices' base carriers.
    """
    task, mu = _prepare(adv, task)
    report = VerificationReport(kind="mu_agreement")
    queries = [(Q, mask_of(Q)) for Q in _queries_for(adv.n, queries)]
    seen = {v: mu.seen(v) for v in task.complex.vertices}
    for facet in task.complex.sorted_facets():
        verts = facet.vertices
        bits = [(1 << v.color - 1, seen[v]) for v in verts]
        for size in range(1, len(verts) + 1):
            for combo in combinations(range(len(verts)), size):
                colors = base = 0
                for i in combo:
                    colors |= bits[i][0]
                    base |= bits[i][1]
                limit = mu.alpha.of_mask(base)
                for Q, q in queries:
                    if colors & ~q:
                        continue
                    leaders = {mu(verts[i], Q) for i in combo}
                    report.checked += 1
                    if len(leaders) > limit:
                        report.add(theta=[verts[i].uid for i in combo],
                                   Q=sorted(Q), leaders=sorted(leaders),
                                   limit=limit)
    return report


def verify_mu_robustness(adv: Adversary, task: AffineTask | None = None,
                         queries=None) -> VerificationReport:
    """Restricting Q to the processes the vertex saw leaves mu unchanged."""
    task, mu = _prepare(adv, task)
    report = VerificationReport(kind="mu_robustness")
    for v in sorted(task.complex.vertices, key=lambda u: u.uid):
        seen = colors_of(mu.seen(v))
        for Q in _queries_for(adv.n, queries, containing=v.color):
            full = mu(v, Q)
            restricted = mu(v, seen & Q)
            report.checked += 1
            if full != restricted:
                report.add(vertex=v.uid, Q=sorted(Q), leader=full,
                           restricted_leader=restricted)
    return report


def restrict(adv: Adversary, P) -> Adversary:
    """Live sets fully contained in P."""
    P = frozenset(P)
    return Adversary(adv.n, frozenset(s for s in adv.live_sets if s <= P))


def restrict2(adv: Adversary, P, Q) -> Adversary:
    """Live sets contained in P that intersect Q. Requires Q <= P."""
    P, Q = frozenset(P), frozenset(Q)
    if not Q <= P:
        raise AdversaryError(f"Q={sorted(Q)} must be a subset of P={sorted(P)}")
    return Adversary(adv.n, frozenset(
        s for s in adv.live_sets if s <= P and s & Q))


def setcon_by_definition(family, memo: dict | None = None) -> int:
    """0 for no live sets, otherwise the largest, over live sets S, of one
    more than the smallest setcon of the sets inside S - {a} over a in S.
    Memoized in `memo`, a fresh dict unless the caller shares one."""
    memo = {} if memo is None else memo

    def level(fam: frozenset) -> int:
        if fam not in memo:
            memo[fam] = max(
                (1 + min(level(frozenset(t for t in fam if t <= S - {a}))
                         for a in S) for S in fam), default=0)
        return memo[fam]

    return level(frozenset(frozenset(s) for s in family))


def symmetric_setcon(adv: Adversary) -> int:
    """Shortcut valid for symmetric adversaries: number of distinct live sizes."""
    if not is_symmetric(adv):
        raise AdversaryError("symmetric_setcon needs a symmetric adversary")
    return len({len(s) for s in adv.live_sets})


def fairness_by_definition(adv: Adversary):
    """(fair, witness): the first (P, Q), by P's mask then Q's, with
    setcon(A|P,Q) != min(|Q|, setcon(A|P)); witness None when fair."""
    n, memo = adv.n, {}
    subsets = sorted((frozenset(c) for k in range(n + 1)
                      for c in combinations(range(1, n + 1), k)),
                     key=lambda s: sum(1 << (c - 1) for c in s))
    for P in subsets[1:]:
        base = setcon_by_definition(restrict(adv, P).live_sets, memo)
        for Q in subsets[1:]:
            if Q <= P and setcon_by_definition(
                    restrict2(adv, P, Q).live_sets, memo) != min(len(Q), base):
                return False, (P, Q)
    return True, None


class ListTables(NamedTuple):
    """The per-P tables the list-form levels read."""

    steps: tuple[tuple[tuple[int, ...], int], ...]  # per P >= 1: P - b, Qs meeting P
    inside: tuple[int, ...]  # per P: the nonempty Q <= P
    fair: tuple[int, ...]  # per k >= 1: the Q with |Q| >= k


@lru_cache(maxsize=None)
def list_tables(n: int) -> ListTables:
    full = (1 << n) - 1

    def qset(pred) -> int:
        return sum(1 << Q for Q in range(full + 1) if pred(Q))

    steps = tuple((tuple(P ^ 1 << b for b in iter_bits(P)), qset(lambda Q: Q & P))
                  for P in range(1, full + 1))
    inside = tuple(qset(lambda Q: Q and Q & P == Q) for P in range(full + 1))
    fair = tuple(qset(lambda Q: Q.bit_count() >= k) for k in range(1, n + 1))
    return ListTables(steps, inside, fair)


def levels_by_lists(adv: Adversary) -> list[list[int]]:
    """levels[k - 1][P] is the Q-set {Q : G[P][Q] >= k}, for k = 1..setcon,
    one P at a time in ascending order.

    G[P][Q], the setcon of the live sets inside P that meet Q, is over b in
    P the largest G[P - b][Q], or one more than the smallest of them if that
    is larger and P is live and meets Q.
    """
    n, family = adv.n, adv.family
    full = (1 << n) - 1
    levels: list[list[int]] = []
    below = [(1 << (1 << n)) - 1] * (1 << n)  # G >= 0 everywhere
    while True:
        level = [0] * (1 << n)
        for P, (kids, meets) in enumerate(list_tables(n).steps, 1):
            reached = 0
            if family >> P & 1:
                reached = meets
                for kid in kids:
                    reached &= below[kid]
            for kid in kids:
                reached |= level[kid]
            level[P] = reached
        if not level[full]:
            return levels
        levels.append(level)
        below = level


def unfair_pair_by_lists(n: int, levels: list[list[int]]) -> FairnessVerdict:
    """The first (P, Q), P ascending and then Q, where G[P][Q] is not
    min(|Q|, alpha(P)), one P at a time. As G[P][Q] <= G[P][P] = alpha(P),
    a level that misses P holds no Q inside P; one that holds P must hold,
    inside P, exactly the Q with |Q| >= k."""
    tables = list_tables(n)
    for P in range(1, 1 << n):
        wrong = 0
        for level, fair in zip(levels, tables.fair):
            if level[P] >> P & 1:
                wrong |= (level[P] ^ fair) & tables.inside[P]
        if wrong:
            Q = (wrong & -wrong).bit_length() - 1
            return FairnessVerdict(False, (colors_of(P), colors_of(Q)))
    return FairnessVerdict(True)


def superset_closed_by_definition(adv: Adversary) -> bool:
    """Every superset of a live set within 1..n is live."""
    universe = range(1, adv.n + 1)
    return all(S | set(extra) in adv.live_sets for S in adv.live_sets
               for k in range(adv.n + 1) for extra in combinations(universe, k))


def symmetric_by_definition(adv: Adversary) -> bool:
    """Two sets of the same size are both live or both not."""
    sizes = {len(s) for s in adv.live_sets}
    return all((len(c) in sizes) == (frozenset(c) in adv.live_sets)
               for k in range(1, adv.n + 1)
               for c in combinations(range(1, adv.n + 1), k))


# --- the explorer's step on register lists ---------------------------------------
#
# The protocol step as the explorer first computed it: per state, a list of
# IS1 registers, IS2-written flags and Conc values, read by list-form
# guards. Only the state layout documented in `affinetask.simulate` is
# shared: process i owns the 13 bits from 13 i on, holding its progress (3
# bits), crashed and Conc-written bits, a 3-bit block index per round and a
# pending bit per round, at these offsets.

_CRASHED, _CONC = 3, 4
_INDEX = {1: 5, 2: 8}
_PENDING = {1: 11, 2: 12}


def wait_predicate_by_registers(alpha_table, V: int, reg_is1, is2_written,
                                conc) -> bool:
    """The wait guard; reg_is1[j] is 0 while IS1[j] is unwritten."""
    same = 0
    for j, r in enumerate(reg_is1):
        if r == V:
            same |= 1 << j
    if alpha_table[V] > alpha_table[V & ~same]:
        return True
    rank = 0
    for j in range(len(reg_is1)):
        if (V >> j) & 1 and not is2_written[j] and reg_is1[j] != V:
            rank += 1
    return rank < max(alpha_table[V], max(conc, default=0))


def finish_predicate_by_registers(alpha_table, V: int, reg_is1,
                                  is2_written) -> bool:
    removed = 0
    for j, r in enumerate(reg_is1):
        if r == V and is2_written[j]:
            removed |= 1 << j
    return alpha_table[V] > alpha_table[V & ~removed]


def masks(model, state: int) -> tuple:
    """(IS1 views, IS1 blocks, IS1-written, IS2-written, crashed, max Conc):
    the registers of a state as masks, read by a loop over the processes,
    as `ProtocolModel.successors` read them per state before it read its
    moves off the slot word; a process's IS1 view is its round-one view,
    read only once it is written."""
    is1, group = model._round(state, 1)[1:3]
    is1w = is2w = crashed = cmax = 0
    for i in iter_bits(model.pmask):
        field = state >> 13 * i
        if field >> _CRASHED & 1:
            crashed |= 1 << i
        if field & 7 >= WROTE1:
            is1w |= 1 << i
            if field & 7 >= WROTE2:
                is2w |= 1 << i
        if field >> _CONC & 1:
            cmax = max(cmax, model.alpha_table[is1[i]])
    return is1, group, is1w, is2w, crashed, cmax


def registers(model, state: int):
    """(prog, is1, reg_is1, is2_written, conc) lists of a packed state; a
    committed process's round-one view holds every process whose block
    index is nonzero and at most its own."""
    n = model.n
    prog = [(state >> 13 * i) & 7 for i in range(n)]
    index = [(state >> 13 * i + _INDEX[1]) & 7 for i in range(n)]
    is1 = [0] * n
    for i in range(n):
        if index[i]:
            for j in range(n):
                if 0 < index[j] <= index[i]:
                    is1[i] |= 1 << j
    reg_is1 = [is1[i] if prog[i] >= 3 else 0 for i in range(n)]
    is2_written = [prog[i] >= 6 for i in range(n)]
    conc = [model.alpha_table[is1[i]] if (state >> 13 * i + _CONC) & 1 else 0
            for i in range(n)]
    return prog, is1, reg_is1, is2_written, conc


def returned_vertices(model, state: int) -> list[Vertex]:
    """The Chr Chr s vertex of every returned process of a packed state, in
    process order, made by `chr_vertex` from the round-one views of
    `registers`: a returned process's round-two view holds every process
    whose round-two block index is nonzero and at most its own."""
    n = model.n
    prog, is1 = registers(model, state)[:2]
    index = [(state >> 13 * i + _INDEX[2]) & 7 for i in range(n)]
    corner = {c: Vertex(uid=str(c), color=c) for c in range(1, n + 1)}

    def round_one(j: int) -> Vertex:
        return chr_vertex(j + 1, Simplex(tuple(
            corner[c] for c in sorted(colors_of(is1[j])))))

    return [chr_vertex(i + 1, Simplex(tuple(
                round_one(j) for j in range(n) if 0 < index[j] <= index[i])))
            for i in range(n) if prog[i] == DONE]


def successors_by_registers(model, state: int) -> list[tuple[tuple, int]]:
    """(event, next_state) pairs of a state, crash events last."""
    n = model.n
    prog, is1, reg_is1, is2_written, conc = registers(model, state)
    crashed = sum(1 << i for i in range(n) if (state >> 13 * i + _CRASHED) & 1)

    def set_prog(s: int, i: int, value: int) -> int:
        return (s & ~(7 << 13 * i)) | (value << 13 * i)

    def pending_bit(i: int, r: int) -> int:
        return 1 << 13 * i + _PENDING[r]

    out = []
    for i in range(n):
        bit = 1 << i
        if not (model.pmask & bit) or (crashed & bit):
            continue
        p = prog[i]
        if p == 0:  # idle: invoke the first snapshot
            out.append((("step", i + 1), set_prog(state, i, 1) | pending_bit(i, 1)))
        elif p in (2, 5):  # got a view: write it
            out.append((("step", i + 1), set_prog(state, i, p + 1)))
        elif p == 3:  # wrote IS1: wait, then invoke the second snapshot
            if wait_predicate_by_registers(model.alpha_table, is1[i], reg_is1,
                                           is2_written, conc):
                out.append((("step", i + 1),
                            set_prog(state, i, 4) | pending_bit(i, 2)))
        elif p == 6:  # wrote IS2: return
            s2 = set_prog(state, i, 7)
            if finish_predicate_by_registers(model.alpha_table, is1[i], reg_is1,
                                             is2_written):
                s2 |= 1 << 13 * i + _CONC
            out.append((("step", i + 1), s2))

    for r, label, got in ((1, "commit1", 2), (2, "commit2", 5)):
        pending = sum(1 << i for i in range(n) if state & pending_bit(i, r))
        # the next block index: one past the largest given so far
        index = 1 + max((state >> 13 * i + _INDEX[r]) & 7 for i in range(n))
        for block in range(1, 1 << n):
            if block & ~pending:
                continue
            s2 = state
            members = [i for i in range(n) if (block >> i) & 1]
            for i in members:
                s2 = set_prog(s2 & ~pending_bit(i, r), i, got)
                s2 |= index << 13 * i + _INDEX[r]
            out.append(((label, [i + 1 for i in members]), s2))

    if bin(crashed).count("1") < model.fault_budget:
        for i in range(n):
            bit = 1 << i
            if not (model.pmask & bit) or (crashed & bit):
                continue
            if 2 <= prog[i] <= 6:
                s2 = state | (1 << 13 * i + _CRASHED)
                s2 &= ~pending_bit(i, 1)
                s2 &= ~pending_bit(i, 2)
                out.append((("crash", i + 1), s2))
    return out


# --- the explorer before symmetry reduction ----------------------------------------
#
# Breadth-first over every concrete state, with parent links (state, event):
# the loop `ProtocolModel.explore` ran before it visited one representative
# per orbit. Each state is its own orbit. It walks `next_states`, decoding
# events for its parent links alone: it is the reference for the reduction,
# and `successors_by_registers` is the one for the moves.


def explore_unreduced(model, track_parents: bool = False) -> Exploration:
    init = model.initial_state()
    visited: set[int] = {init}
    parents: dict[int, tuple[int, tuple]] | None = {} if track_parents else None
    terminals: list[int] = []
    queue = deque([init])
    while queue:
        state = queue.popleft()
        succ, terminal = model.next_states(state)
        if terminal:
            terminals.append(state)
        for s2 in succ:
            if s2 in visited:
                continue
            visited.add(s2)
            if len(visited) > model.max_states:
                raise StateCapExceeded(
                    f"exceeded state cap {model.max_states} "
                    f"(participation {sorted(model.participation)})")
            if parents is not None:
                parents[s2] = (state, model.event(state, s2))
            queue.append(s2)
    # each terminal is its own orbit, never expanded through the classes
    return Exploration(participation=model.participation,
                       fault_budget=model.fault_budget,
                       state_count=len(visited),
                       terminals=Terminals([(s, 1) for s in terminals],
                                           lambda s: (s,)),
                       orbits=len(visited), parents=parents)


# --- the reduced explorer on (event, next state) pairs ----------------------------
#
# `ProtocolModel.explore` and `trace_to` as they were before the explorer
# walked bare next states: every edge an (event, next state) pair from
# `successors`, a state terminal when its first move is a crash, and each
# parent link (parent representative, event, permutation carrying the
# successor to its representative).


def explore_by_events(model, track_parents: bool = False) -> Exploration:
    init = model.initial_state()
    orbit: dict[int, int] = {init: 1}  # representative -> orbit size
    state_count = 1
    parents: dict[int, tuple[int, tuple, tuple[int, ...]]] | None = (
        {} if track_parents else None)
    terminals: list[tuple[int, int]] = []
    queue = deque([init])
    successors, representative = model.successors, model._representative
    push, cap = queue.append, model.max_states
    while queue:
        state = queue.popleft()
        succ = successors(state)
        if not succ or succ[0][0][0] == "crash":  # crashes come last
            terminals.append((state, orbit[state]))
        for ev, s2 in succ:
            if s2 in orbit:  # a visited representative itself
                continue
            rep, size = representative(s2)
            if rep in orbit:
                continue
            orbit[rep] = size
            state_count += size
            if state_count > cap:
                raise StateCapExceeded(
                    f"exceeded state cap {cap} "
                    f"(participation {sorted(model.participation)})")
            if parents is not None:
                parents[rep] = (state, ev, model.canonical(s2)[1])
            push(rep)
    return Exploration(participation=model.participation,
                       fault_budget=model.fault_budget,
                       state_count=state_count,
                       terminals=Terminals(terminals, model.orbit_states),
                       orbits=len(orbit), parents=parents)


def trace_by_events(model, state: int,
                    parents: dict[int, tuple[int, tuple, tuple[int, ...]]]
                    ) -> list[tuple]:
    """Events from the initial state to the concrete state, along the links
    of `explore_by_events`: walking back from its representative, each
    stored event is relabeled by the inverse of state's canonical
    permutation composed with the link permutations met so far."""
    rep, perm = model.canonical(state)
    rho = [0] * model.n
    for i, pos in enumerate(perm):
        rho[pos] = i
    events = []
    while rep in parents:
        rep, ev, pi = parents[rep]
        rho = [rho[j] for j in pi]
        events.append(model._relabel(ev, rho))
    return events[::-1]


def explore_by_events_agrees(model, task, stride: int = 50) -> int:
    """Asserts that `ProtocolModel.explore` agrees with `explore_by_events`:
    equal state, orbit and terminal counts, the same terminal orbits in the
    same order, the same parent links' keys in the same order, and equal
    traces, event by event, to every terminal that is unsafe against task
    or stuck and to every stride-th other one. On every edge the reference
    walks, distinct moves reach distinct next states. Returns the number
    of traces compared."""
    successors = model.successors

    def distinct(state: int) -> list[tuple[tuple, int]]:
        succ = successors(state)
        assert len({nxt for _, nxt in succ}) == len(succ), state
        return succ

    got = model.explore(track_parents=True)
    model.successors = distinct  # the reference walks every edge through it
    try:
        want = explore_by_events(model, track_parents=True)
    finally:
        del model.successors
    assert ((got.state_count, got.orbits, len(got.terminals))
            == (want.state_count, want.orbits, len(want.terminals)))
    assert got.terminals.orbits == want.terminals.orbits
    assert list(got.parents) == list(want.parents)
    bad = {*check_safety(model, got, task).states.values(),
           *check_liveness(model, got).states.values()}
    traced = 0
    for k, state in enumerate(got.terminals):
        if state in bad or k % stride == 0:
            assert (model.trace_to(state, got.parents)
                    == trace_by_events(model, state, want.parents)), state
            traced += 1
    return traced


def check_model_per_participation(adv: Adversary, task,
                                  max_states: int = DEFAULT_STATE_CAP):
    """`check_model` exploring every valid participation set, as it did
    before participation sets that a relabeling carries one onto the other
    shared one exploration."""
    _require_task_n(task, adv.n)
    safety = VerificationReport(kind="safety")
    liveness = VerificationReport(kind="liveness")
    rows = []
    for P in valid_participations(adv):
        model = ProtocolModel(adv, participation=P, max_states=max_states)
        exploration = model.explore()
        safe = check_safety(model, exploration, task)
        live = check_liveness(model, exploration)
        safety.checked += safe.checked
        safety.violations.extend(safe.violations)
        liveness.checked += live.checked
        liveness.violations.extend(live.violations)
        rows.append({**exploration.row(),
                     "safety_violations": len(safe.violations),
                     "liveness_violations": len(live.violations)})
    safety.info["participations"] = len(rows)
    liveness.info["participations"] = len(rows)
    return safety, liveness, rows


# `affinetask simulate check` as it was before it ran `simulate.sweep`: it
# explores every participation set, and names each trace by expanding, a
# second time, the terminal orbits that hold an offending state
# (`_numbered`). Only `report.states` is read as the {position: state} dict
# it now is.


def _numbered(model: ProtocolModel, terminals: Terminals, states: set[int]
              ) -> Iterator[tuple[int, int]]:
    """(k, state) for each terminal state among `states`, k its position
    in the terminals' iteration order; only the orbits that hold one of
    them are expanded."""
    reps = {model.canonical(state)[0] for state in states}
    offset = 0
    for rep, size in terminals.orbits:
        if rep in reps:
            for k, term in enumerate(terminals.expand(rep), offset):
                if term in states:
                    yield k, term
        offset += size


def simulate_check_per_participation(args) -> int:
    """`cli.cmd_simulate_check` exploring every participation set, on the
    arguments `cli.build_parser()` parses."""
    adv = _load_adversary(args.adversary)
    if args.n is not None and args.n != adv.n:
        raise SimulationError(f"--n {args.n} disagrees with adversary n={adv.n}")
    want_safety = args.safety or not args.liveness
    want_liveness = args.liveness or not args.safety
    if want_safety:
        task = build_r_a(adv)
    else:
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
    for model in models:
        exploration = model.explore(track_parents=trace_dir is not None)
        row = exploration.row()
        reports = []
        if want_safety:
            reports.append(check_safety(model, exploration, task))
        if want_liveness:
            reports.append(check_liveness(model, exploration))
        for rep in reports:
            row[rep.kind] = rep.to_dict()
            ok = ok and rep.ok
        doc["participations"].append(row)
        if trace_dir is not None:
            bad = {state for rep in reports for state in rep.states.values()}
            P = sorted(model.participation)
            stem = "trace_" + "".join(map(str, P))
            for k, term in _numbered(model, exploration.terminals, bad):
                events = model.trace_to(term, exploration.parents)
                traces[f"{stem}_{k}.json"] = {"participation": P,
                                              "events": events_to_jsonable(events)}
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        for name, trace in traces.items():
            _dump(trace, str(trace_dir / name))
    _dump(doc, args.out)
    return 0 if ok else 1
