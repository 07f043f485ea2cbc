"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written against different primitives than
the package: partition counting via the surjection formula, the pure
complement via brute-force filtering, the resilient task via a per-vertex
view filter, the contention-ban task via contending simplices, the affine
task via Simplex objects and frozenset views (in the package's union-guard
reading and in the intersection-guard reading the protocol escapes, with
the facet diff of the two), the level-two contention gap
via carriers and colors, the leader map via uncached critical data and a
pairwise inclusion minimum, setcon and fairness via the recursive definition
on frozensets of live sets.
"""
from __future__ import annotations

from itertools import combinations, permutations
from math import comb, factorial

from affinetask import (Adversary, AdversaryError, AffineTask,
                        ChromaticComplex, Simplex, agreement_function,
                        build_r_a, carrier, carrier_step, chr2_complex,
                        closure, contention_simplices, critical_data,
                        make_k_of, require_fair, view1, view2)


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


def build_r_kof(n: int, k: int) -> AffineTask:
    """The contention ban: facets of Chr Chr s avoiding every contending
    simplex of dim >= k, tagged with the alpha of k-obstruction-freedom."""
    if not 1 <= k <= n:
        raise AdversaryError(f"k={k} out of range 1..{n}")
    chr2 = chr2_complex(n)
    banned = contention_simplices(chr2, min_dim=k)
    return AffineTask(name=f"r_{k}of", n=n,
                      complex=closure(pure_complement_brute(banned, chr2), n=n),
                      alpha=agreement_function(make_k_of(n, k)))


def r_a_by_definition(adv: Adversary, combine: str) -> set[Simplex]:
    """The facets of R_A, filtered one Simplex at a time.

    Contention compares frozenset views; criticality tests every face of a
    carrier for one shared payload and a drop of alpha, memoized per carrier.
    A facet is dropped when a contending face misses the guard colors (the
    union or the intersection of the critical-member colors of the facet's
    carrier and the critical-carrier colors of the face's carrier) and its
    dim reaches the conc of its carrier.
    """
    require_fair(adv)
    alpha = agreement_function(adv)
    memo: dict[Simplex, tuple] = {}

    def contending(theta: Simplex) -> bool:
        return all((view1(v) < view1(u) and view2(u) < view2(v))
                   or (view1(u) < view1(v) and view2(v) < view2(u))
                   for v, u in combinations(theta.vertices, 2))

    def critical(theta: Simplex) -> bool:
        car = theta.vertices[0].payload
        return (all(v.payload == car for v in theta)
                and alpha(car.colors - theta.colors) < alpha(car.colors))

    def crit(sigma: Simplex) -> tuple:
        """(csm colors, csv colors, conc) of a Chr s simplex."""
        if sigma not in memo:
            cs = [theta for theta in sigma.faces() if critical(theta)]
            csm = frozenset(v for theta in cs for v in theta)
            memo[sigma] = (frozenset(v.color for v in csm),
                           carrier_step(Simplex(tuple(csm))).colors
                           if csm else frozenset(),
                           max((alpha(carrier_step(theta).colors)
                                for theta in cs), default=0))
        return memo[sigma]

    def obeys(facet: Simplex) -> bool:
        csm_rho = crit(carrier_step(facet))[0]
        for theta in facet.faces():
            if not contending(theta):
                continue
            _, csv, conc = crit(carrier_step(theta))
            guard = csm_rho | csv if combine == "union" else csm_rho & csv
            if not theta.colors & guard and theta.dim >= conc:
                return False
        return True

    return {f for f in chr2_complex(adv.n).facets if obeys(f)}


def r_a_intersection_task(adv: Adversary) -> AffineTask:
    """The intersection-guard reading of R_A as a task, with the adversary's
    alpha; the two-round protocol escapes it."""
    return AffineTask(name="r_adv_intersection", n=adv.n,
                      complex=closure(r_a_by_definition(adv, "intersection"),
                                      n=adv.n),
                      alpha=agreement_function(adv))


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


def resilient_facets_by_vertex_filter(chr2: ChromaticComplex, n: int,
                                      t: int) -> set[Simplex]:
    """Facets every vertex of which saw at least n - t processes in round 1."""
    return {f for f in chr2.facets
            if all(len(carrier(v, "s")) >= n - t for v in f)}


def lone_full_view_leader(facet: Simplex, n: int):
    """The vertex of a Chr Chr s facet that saw all n processes in round 1,
    shares that round-1 view with no other vertex of the facet, and saw only
    its own round-1 vertex in round 2 (alone in the first round-2 block);
    None if there is none.

    Read off carriers and colors only: the round-1 vertex of v is the member
    of carrier(v, "chr") with v's color.
    """
    def round1(v):
        return next(u for u in carrier(v, "chr") if u.color == v.color)

    full = frozenset(range(1, n + 1))
    full_views = [v for v in facet if carrier(round1(v), "s").colors == full]
    if len(full_views) != 1:
        return None
    v = full_views[0]
    return v if carrier(v, "chr").vertices == (round1(v),) else None


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

    Critical data of v's second-round view is computed afresh with
    `critical_data` (no cache). The chosen view is the inclusion minimum of
    the candidate carriers meeting Q, found by comparing every pair: the
    critical carriers when the critical members' carrier meets Q, otherwise
    the carriers of the round-one vertices v saw.
    """
    Q = frozenset(Q)
    view = carrier(v, "chr")
    data = critical_data(view, alpha)
    if data.csv_colors & Q:
        cands = {carrier(theta, "s").colors for theta in data.cs}
    else:
        cands = {carrier(u, "s").colors for u in view}
    cands = {c for c in cands if c & Q}
    least = [c for c in cands if all(c <= d for d in cands)]
    if len(least) != 1:
        raise AssertionError(f"no inclusion minimum among {cands}")
    return min(least[0] & Q)


def restrict(adv: Adversary, P) -> Adversary:
    """Live sets fully contained in P."""
    P = frozenset(P)
    return Adversary(adv.n, frozenset(s for s in adv.live_sets if s <= P),
                     provenance=adv.provenance)


def restrict2(adv: Adversary, P, Q) -> Adversary:
    """Live sets contained in P that intersect Q. Requires Q <= P."""
    P, Q = frozenset(P), frozenset(Q)
    if not Q <= P:
        raise AdversaryError(f"Q={sorted(Q)} must be a subset of P={sorted(P)}")
    return Adversary(adv.n, frozenset(
        s for s in adv.live_sets if s <= P and s & Q), provenance=adv.provenance)


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
