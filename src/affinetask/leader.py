"""Leader choice on second-subdivision vertices, restricted to a query set.

For a vertex v of the task complex and a query set Q containing v's color,
the leader map picks the smallest process of Q inside a distinguished view:
the smallest critical view meeting Q when some critical view of v's
second-round view meets Q, otherwise the smallest view of a seen vertex
meeting Q. Views are color masks, read off the view groups of v's round-two
view. "Smallest" is by inclusion; candidate views always form a chain and
this is asserted, never tie-broken.
"""
from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import or_
from typing import Iterable

from .adversary import Adversary, AgreementFunction, agreement_function, require_fair
from .affine import AffineTask, _critical_faces, _vertex_code, _view_groups, build_r_a
from .bits import colors_of, mask_of
from .complexes import Vertex
from .reports import VerificationReport


class LeaderError(ValueError):
    pass


def _least(views: Iterable[int], Q: Iterable[int], what: str) -> frozenset[int]:
    """Colors of the least of the views meeting Q, which must form a chain."""
    q = mask_of(Q)
    chain = sorted({view for view in views if view & q}, key=int.bit_count)
    if not chain:
        raise LeaderError(f"no candidate for {what}")
    for a, b in zip(chain, chain[1:]):
        if a & ~b:
            raise LeaderError(f"{what} candidates are not a chain: "
                              f"{sorted(colors_of(a))} vs {sorted(colors_of(b))}")
    return colors_of(chain[0])


class LeaderMap:
    """The leader map of one agreement function, memoized per vertex.

    A vertex's views are decoded once, when it is first met; each elected
    process is computed once per (vertex, Q) and later calls are lookups.
    The own-color check and the chain assertions run on every new (vertex, Q).
    """

    def __init__(self, alpha: AgreementFunction):
        self.alpha = alpha
        # vertex -> (its critical views, its views, its leader per Q)
        self._mu: dict[Vertex, tuple[list[int], list[int],
                                     dict[frozenset[int], int]]] = {}

    def _entry(self, v: Vertex) -> tuple[list[int], list[int], dict]:
        entry = self._mu.get(v)
        if entry is None:  # v must be a Chr Chr s vertex
            groups = _view_groups(_vertex_code(v)[3])
            entry = self._mu[v] = (
                [view for view, _ in _critical_faces(groups, self.alpha)],
                [view for view, _ in groups], {})
        return entry

    def delta(self, v: Vertex, Q: Iterable[int]) -> frozenset[int]:
        """Colors of the smallest critical view in v's second-round view
        that meets Q."""
        return _least(self._entry(v)[0], Q, "delta")

    def gamma(self, v: Vertex, Q: Iterable[int]) -> frozenset[int]:
        """Colors of the smallest view of a vertex seen in round two that
        meets Q."""
        return _least(self._entry(v)[1], Q, "gamma")

    def seen(self, v: Vertex) -> int:
        """The colors of v's base carrier: the union of its round-two views."""
        return reduce(or_, self._entry(v)[1])

    def __call__(self, v: Vertex, Q: Iterable[int]) -> int:
        """The elected process of Q for vertex v."""
        critical, _, leaders = self._entry(v)
        Q = frozenset(Q)
        if Q not in leaders:
            if v.color not in Q:
                raise LeaderError(f"own color {v.color} must belong to Q={sorted(Q)}")
            q = mask_of(Q)
            meets = any(view & q for view in critical)
            pool = self.delta(v, Q) if meets else self.gamma(v, Q)
            leaders[Q] = min(pool & Q)  # nonempty: the pool was chosen to meet Q
        return leaders[Q]


# --- property sweeps ----------------------------------------------------------


def _prepare(adv: Adversary, task: AffineTask | None,
             leader_map: LeaderMap | None) -> tuple[AffineTask, LeaderMap]:
    """The task and the leader map, both of the adversary's own alpha;
    the task defaults to `build_r_a(adv)`."""
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
    if leader_map is None:
        leader_map = LeaderMap(alpha)
    elif leader_map.alpha != alpha:
        raise LeaderError("leader map was built for another agreement "
                          "function than the adversary's")
    return task, leader_map


def _queries_for(n: int, queries: Iterable[frozenset[int]] | None,
                 containing: int | None = None) -> list[frozenset[int]]:
    """The given query sets, or every nonempty subset of 1..n by size and
    then lexicographically; only those holding `containing` if it is set.
    A given query set must be a nonempty subset of 1..n."""
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
                       queries: Iterable[frozenset[int]] | None = None,
                       leader_map: LeaderMap | None = None
                       ) -> VerificationReport:
    """mu lands in Q and in the processes the vertex has seen."""
    task, mu = _prepare(adv, task, leader_map)
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
                        queries: Iterable[frozenset[int]] | None = None,
                        leader_map: LeaderMap | None = None
                        ) -> VerificationReport:
    """Faces inside Q elect at most alpha(carrier colors) distinct leaders.

    Faces are index combinations of a facet's vertices, with color and
    base-carrier masks: a face's base carrier is the union of its vertices'
    base carriers.
    """
    task, mu = _prepare(adv, task, leader_map)
    report = VerificationReport(kind="mu_agreement")
    queries = [(Q, mask_of(Q)) for Q in _queries_for(adv.n, queries)]
    top = task.complex.dim
    seen = {v: mu.seen(v) for v in task.complex.vertices}
    for facet in task.complex.sorted_facets():
        if facet.dim != top:
            continue
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
                         queries: Iterable[frozenset[int]] | None = None,
                         leader_map: LeaderMap | None = None
                         ) -> VerificationReport:
    """Restricting Q to the processes the vertex saw leaves mu unchanged."""
    task, mu = _prepare(adv, task, leader_map)
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


def verify_leader(adv: Adversary, task: AffineTask | None = None,
                  queries: Iterable[frozenset[int]] | None = None
                  ) -> list[VerificationReport]:
    """The three leader sweeps, sharing one leader map."""
    task, mu = _prepare(adv, task, None)
    return [
        verify_mu_validity(adv, task, queries, mu),
        verify_mu_agreement(adv, task, queries, mu),
        verify_mu_robustness(adv, task, queries, mu),
    ]
