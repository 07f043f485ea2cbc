"""Leader choice on second-subdivision vertices, restricted to a query set.

For a vertex v of the task and a query set Q containing v's color,
the leader map picks the smallest process of Q inside a distinguished view:
the smallest critical view meeting Q when some critical view of v's
second-round view meets Q, otherwise the smallest view of a seen vertex
meeting Q. Views are color masks, read off the view groups of v's round-two
view. "Smallest" is by inclusion; the views and the critical views each
form a chain and this is asserted, never tie-broken.

A vertex is its code (`subdivision.chr2_codes`), and `verify_leader` reads
the task's facets as codes (`AffineTask.facet_codes`), never its complex.
"""
from __future__ import annotations

from itertools import chain, combinations
from typing import Iterable

from .adversary import Adversary, AgreementFunction, require_fair
from .affine import AffineTask, _critical_faces, _view_groups, build_r_a
from .bits import colors_of, integer, mask_of
from .reports import VerificationReport
from .subdivision import chr2_vertex, pack


class LeaderError(ValueError):
    pass


def _chain(views: Iterable[int], what: str) -> tuple[int, ...]:
    """The distinct views, smallest first; they must form a chain."""
    chain = sorted(set(views), key=int.bit_count)
    for a, b in zip(chain, chain[1:]):
        if a & ~b:
            raise LeaderError(f"{what} candidates are not a chain: "
                              f"{sorted(colors_of(a))} vs {sorted(colors_of(b))}")
    return tuple(chain)


class LeaderMap:
    """The leader map of one agreement function, as one table per vertex.

    A vertex is its code (`subdivision.chr2_codes`): its color in the low
    three bits, its packed round-two view above them. A vertex is decoded
    once, when it is first met: its critical views and its views are sorted
    into chains, and the leader of every query mask holding its color is
    elected into a tuple indexed by mask, as a one-bit color mask (0 for the
    masks without its color). Only that tuple and the vertex's base carrier
    are kept. A code's color and views lie in 1..n; its own view holds its color.
    """

    def __init__(self, alpha: AgreementFunction):
        self.alpha = alpha
        self._inside = pack((c, (1 << alpha.n) - 1) for c in range(1, alpha.n + 1))
        # vertex code -> (its base carrier's colors, its leader bit per mask)
        self._table: dict[int, tuple[int, tuple[int, ...]]] = {}

    def _entry(self, code: int) -> tuple[int, tuple[int, ...]]:
        entry = self._table.get(code)
        if entry is None:
            color, carrier = code & 7, code >> 3
            if not (0 < color <= self.alpha.n and not carrier & ~self._inside
                    and carrier & pack([(color, 1 << color - 1)])):
                raise LeaderError(f"{code!r} is no vertex code over 1..{self.alpha.n}")
            groups = _view_groups(carrier)
            critical = _chain((view for view, _ in _critical_faces(groups, self.alpha)),
                              "delta")
            views = _chain((view for view, _ in groups), "gamma")
            own = 1 << color - 1
            leaders = [0] * (1 << self.alpha.n)
            for q in range(own, len(leaders)):
                if q & own:
                    # the own view meets q, so some view does
                    pool = next(view for chain in (critical, views)
                                for view in chain if view & q) & q
                    leaders[q] = pool & -pool
            entry = self._table[code] = (views[-1], tuple(leaders))
        return entry

    def seen(self, code: int) -> int:
        """The colors of the vertex's base carrier: its largest round-two
        view."""
        return self._entry(code)[0]

    def __call__(self, code: int, Q: Iterable[int]) -> int:
        """The elected process of Q for the vertex of the given code. Q must
        hold the own color and only int colors, none below 1."""
        leaders = self._entry(code)[1]
        Q = frozenset(integer(c, "query color", LeaderError) for c in Q)
        if code & 7 not in Q:
            raise LeaderError(f"own color {code & 7} must belong to Q={sorted(Q)}")
        if min(Q) < 1:
            raise LeaderError(f"color {min(Q)} of Q={sorted(Q)} is below 1")
        # colors above n lie in no view, so they never change the leader
        return leaders[mask_of(Q) & len(leaders) - 1].bit_length()


# --- property sweep -----------------------------------------------------------


def _prepare(adv: Adversary, task: AffineTask | None) -> tuple[AffineTask, LeaderMap]:
    """The task and the leader map, both of the adversary's own alpha;
    the task defaults to `build_r_a(adv)`."""
    alpha = require_fair(adv)
    if task is None:
        task = build_r_a(adv)
    if task.n != adv.n:
        raise LeaderError(f"task {task.name} is over n={task.n}, "
                          f"the adversary over n={adv.n}")
    if task.alpha != alpha:
        raise LeaderError(f"task {task.name} was built for another "
                          "agreement function than the adversary's")
    return task, LeaderMap(alpha)


def _queries_for(n: int, queries: Iterable[frozenset[int]] | None
                 ) -> list[frozenset[int]]:
    """The given query sets, or every nonempty subset of 1..n by size and
    then lexicographically. A given query set must be a nonempty set of
    ints in 1..n."""
    full = range(1, n + 1)
    if queries is None:
        queries = [c for k in full for c in combinations(full, k)]
    picked = [frozenset(integer(c, "query color", LeaderError) for c in Q)
              for Q in queries]
    for Q in picked:
        if not Q or not Q.issubset(full):
            raise LeaderError(f"query set {sorted(Q)} must be a nonempty "
                              f"subset of 1..{n}")
    return picked


def verify_leader(adv: Adversary, task: AffineTask | None = None,
                  queries: Iterable[frozenset[int]] | None = None
                  ) -> list[VerificationReport]:
    """Validity, agreement and robustness of the leader map on the task.

    Validity: mu lands in Q and in the processes the vertex has seen.
    Robustness: restricting Q to those processes leaves mu unchanged. Both
    run per vertex, by uid, and per query set holding its color.
    Agreement: faces inside Q elect at most alpha(base carrier) distinct
    leaders. Faces are the vertex combinations of each facet, whatever its
    dimension; a face's base carrier is the union of its vertices' base
    carriers.
    """
    task, mu = _prepare(adv, task)
    queries = [(sorted(Q), mask_of(Q)) for Q in _queries_for(adv.n, queries)]
    # the vertex codes by uid, and the facets as ascending positions among
    # them by size, then positions: the orders of the task's complex
    uids = {code: chr2_vertex(code).uid
            for code in set(chain.from_iterable(task.facet_codes()))}
    codes = sorted(uids, key=uids.__getitem__)
    rank = {code: r for r, code in enumerate(codes)}
    facets = sorted((sorted(map(rank.__getitem__, f)) for f in task.facet_codes()),
                    key=lambda f: (len(f), f))
    # per position: (color bit, base carrier, leader bits, uid)
    rows = [(1 << (code & 7) - 1, *mu._entry(code), uids[code]) for code in codes]

    validity = VerificationReport(kind="mu_validity")
    robustness = VerificationReport(kind="mu_robustness")
    for own, seen, leaders, uid in rows:
        for Q, q in queries:
            if not q & own:
                continue
            leader = leaders[q]
            validity.checked += 1
            if not leader & q & seen:
                validity.add(vertex=uid, Q=Q, leader=leader.bit_length(),
                             seen=sorted(colors_of(seen)))
            restricted = leaders[seen & q]
            robustness.checked += 1
            if leader != restricted:
                robustness.add(vertex=uid, Q=Q, leader=leader.bit_length(),
                               restricted_leader=restricted.bit_length())

    agreement = VerificationReport(kind="mu_agreement")
    # per color mask of a face, the query sets holding it, in query order
    holding = [[(Q, q) for Q, q in queries if not colors & ~q]
               for colors in range(1 << adv.n)]
    for facet in facets:
        verts = [rows[r] for r in facet]
        for size in range(1, len(verts) + 1):
            for combo in combinations(verts, size):
                colors = base = 0
                for bit, seen, _, _ in combo:
                    colors |= bit
                    base |= seen
                limit = mu.alpha.of_mask(base)
                over = holding[colors]
                agreement.checked += len(over)
                for Q, q in over:
                    elected = 0
                    for _, _, leaders, _ in combo:
                        elected |= leaders[q]
                    if elected.bit_count() > limit:
                        agreement.add(theta=[uid for *_, uid in combo], Q=Q,
                                      leaders=sorted(colors_of(elected)),
                                      limit=limit)
    return [validity, agreement, robustness]
