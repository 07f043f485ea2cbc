"""Affine tasks inside the second chromatic subdivision.

Contention: two vertices of Chr Chr s are contending when their first- and
second-round views are strictly ordered in opposite directions; a simplex is
contending when every vertex pair is. Criticality: a simplex sigma of Chr s
is critical for an agreement function alpha when all its vertices share
sigma's carrier and removing sigma's colors from that carrier strictly drops
alpha. The affine task R_A of a fair adversary, `build_r_a`, combines the
two notions; it is the only task this package builds.

Each notion is decided once, on masks: criticality by `_critical_faces` on
a Chr s simplex's view groups, contention in `_chr2_table(n)`, Chr Chr s
coded as ints once per n straight from its pairs of runs (Kozlov 2012):
numbered Chr s carriers as view groups, and per facet its carrier's id and
its contending faces. In the facet of runs r1, r2 two colors contend when
r1 and r2 order them strictly and oppositely, so contention is read off
each run's order code (`_run_code`), and the contending faces of one
contention graph and one round-two color order are listed once
(`_cliques`). `AffineTask(alpha)` runs only a guard loop over these ints
and keeps the run-pair ids of R_A's facets, i * |runs| + j for runs i and
j of `all_runs(n)`, as a `subdivision.CodeComplex`; it makes no Simplex.
Its facets read as vertex codes (`facet_codes`) serve both membership
(`holds`) and the leader sweep. R_A's complex, the `chr2_facets(n)`
Simplex objects at those ids, is built only where a task is written or
drawn. `contention_simplices` reads the same table.

R_A reads colors only through alpha and view masks, so a swap of two
colors that keeps alpha maps R_A onto itself (the scalarset argument of Ip
& Dill 1996, applied to the task); `AffineTask.symmetric_under` decides a
swap on alpha alone. That is sound because an `AffineTask` is always R_A:
it is built from alpha alone and takes no facets.
"""
from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import combinations
from typing import Iterator

from .adversary import (Adversary, AdversaryError, AgreementFunction,
                        _hitting_number, alpha_to_dict, require_fair)
from .bits import colors_of, submasks
from .complexes import MAX_PROCESSES, Simplex, _sort_key, complex_to_dict
from .reports import VerificationReport
from .subdivision import (_FIELDS, _VIEW, CodeComplex, all_runs, chr2_facets,
                          chr_complex, pack, packed_views)


class AffineTask(CodeComplex):
    """R_A of an agreement function, carved on construction: a
    `CodeComplex`, the run-pair ids of its facets. R_A is the only task of
    this class, so its symmetry is read off alpha (`symmetric_under`)."""

    name = "r_adv"

    def __init__(self, alpha: AgreementFunction):
        super().__init__(alpha.n, _carve(alpha))
        self.alpha = alpha

    def symmetric_under(self, a: int, b: int) -> bool:
        """Whether exchanging colors a and b maps the task's facets onto
        themselves. R_A reads colors only through alpha and view masks, so
        a swap that keeps alpha on every subset of 1..n maps it onto itself
        (and on every fair live family up to n = 4, no other swap does)."""
        return self.alpha.swap_keeps(a, b, (1 << self.n) - 1)

    def __repr__(self) -> str:
        return f"AffineTask({self.name}, facets={self.facet_count()})"


# --- criticality ----------------------------------------------------------------


def _view_groups(packed: int) -> tuple[tuple[int, int], ...]:
    """A packed Chr s simplex as (view mask, mask of the colors that saw it)
    pairs."""
    groups: dict[int, int] = {}
    for c in range(MAX_PROCESSES):
        if view := packed >> MAX_PROCESSES * c & _VIEW:
            groups[view] = groups.get(view, 0) | 1 << c
    return tuple(groups.items())


def _critical_faces(groups, alpha: AgreementFunction) -> Iterator[tuple[int, int]]:
    """(view, colors) of every critical face: the faces inside one view
    group whose colors, removed from the view, strictly lower alpha."""
    for view, members in groups:
        for colors in submasks(members)[1:]:
            if alpha.of_mask(view & ~colors) < alpha.of_mask(view):
                yield view, colors


def _critical_summary(faces, alpha: AgreementFunction) -> tuple[int, int, int]:
    """(csm colors, csv colors, conc) of the given critical faces."""
    csm = csv = conc = 0
    for view, colors in faces:
        csm, csv = csm | colors, csv | view
        conc = max(conc, alpha.of_mask(view))
    return csm, csv, conc


# --- task constructions -----------------------------------------------------------


def _run_code(run: tuple[tuple[int, int], ...], n: int
              ) -> tuple[int, int, tuple[int, ...], list[int]]:
    """A run's order code: the pairs of colors a < b it orders a strictly
    before b, as bits (a - 1) * MAX_PROCESSES + b - 1; the pairs it orders b
    strictly before a; its colors in run order; and, per color mask, the
    union of those colors' views."""
    lt = gt = 0
    for (a, va), (b, vb) in combinations(sorted(run), 2):
        if va != vb:
            bit = 1 << (a - 1) * MAX_PROCESSES + b - 1
            if va | vb == vb:
                lt |= bit
            else:
                gt |= bit
    view = dict(run)
    unions = [0] * (1 << n)
    for m in range(1, 1 << n):
        unions[m] = unions[m & m - 1] | view[(m & -m).bit_length()]
    return lt, gt, tuple(c for c, _ in run), unions


def _cliques(graph: int, order: tuple[int, ...]) -> list[int]:
    """The contending faces, as color masks, of a facet whose contention
    graph has the pair bits `graph` and whose round-two run lists its
    colors in `order`: each color in turn joins every earlier face it
    contends with all of, then stands alone."""
    rivals = [0] * MAX_PROCESSES
    while graph:
        a, b = divmod((graph & -graph).bit_length() - 1, MAX_PROCESSES)
        rivals[a] |= 1 << b
        rivals[b] |= 1 << a
        graph &= graph - 1
    cliques: list[int] = []
    for c in order:
        bit, mine = 1 << c - 1, rivals[c - 1]
        cliques += [m | bit for m in cliques if m & mine == m]
        cliques.append(bit)
    return cliques


@lru_cache(maxsize=MAX_PROCESSES)
def _chr2_table(n: int) -> tuple:
    """(groups, rhos, faces) of Chr Chr s, coded straight from the pairs of
    runs that build its facets, in run-pair order: the view groups of each
    Chr s simplex id; per facet, the id of its carrier rho, its packed
    round-one run (`pack`); per facet, its contending faces packed as tau
    id << MAX_PROCESSES | colors.

    The contending faces are listed once per contention graph and
    round-two color order; a face's carrier tau is the packed round-one
    run restricted to the colors that the face's round-two views hold."""
    runs = all_runs(n)
    codes = [_run_code(run, n) for run in runs]
    ids: dict[int, int] = {}  # packed Chr s simplex -> id
    pool: dict[int, int] = {}  # one int object per packed face
    cliques: dict[tuple, list[int]] = {}  # (graph, r2 order) -> color masks
    rhos, faces = [], []
    for views1, (lt1, gt1, _, _) in zip(map(pack, runs), codes):
        rho = ids.setdefault(views1, len(ids))
        # per (union of its round-two views, colors), a face of this round one
        packed: list[int | None] = [None] * (1 << 2 * MAX_PROCESSES)
        for lt2, gt2, order, unions in codes:
            key = (lt1 & gt2 | gt1 & lt2, order)
            masks = cliques.get(key)
            if masks is None:
                masks = cliques[key] = _cliques(*key)
            out = []
            for colors in masks:
                k = unions[colors] << MAX_PROCESSES | colors
                face = packed[k]
                if face is None:
                    tau = views1 & _FIELDS[unions[colors]]
                    face = ids.setdefault(tau, len(ids)) << MAX_PROCESSES | colors
                    face = packed[k] = pool.setdefault(face, face)
                out.append(face)
            rhos.append(rho)
            faces.append(tuple(out))
    return tuple(_view_groups(p) for p in ids), tuple(rhos), tuple(faces)


def contention_simplices(n: int, min_dim: int = 0) -> list[Simplex]:
    """Every contending simplex of Chr Chr s over n colors with dimension at
    least min_dim, canonically sorted: the contending faces `_chr2_table`
    lists per facet, on that facet's vertices."""
    facets, faces = chr2_facets(n), _chr2_table(n)[2]
    found = {Simplex(tuple(v for v in facet if face & 1 << v.color - 1))
             for facet, packed in zip(facets, faces) for face in packed
             if (face & _VIEW).bit_count() > min_dim}
    return sorted(found, key=_sort_key)


def task_alpha(adv: Adversary) -> AgreementFunction:
    """The alpha of an adversary that has an affine task: a fair one with a
    live set. Any other adversary raises."""
    alpha = require_fair(adv)
    if alpha(range(1, adv.n + 1)) < 1:
        raise AdversaryError("adversary admits no live set; no task to build")
    return alpha


def build_r_a(adv: Adversary) -> AffineTask:
    """The adversary's affine task, R_A of its alpha (`AffineTask`)."""
    return AffineTask(task_alpha(adv))


def _carve(alpha: AgreementFunction) -> array:
    """The run-pair ids of R_A's facets: the facets all of whose contending
    faces either touch the guard colors or stay below the concurrency level
    of their carrier.

    The guard is the union of the critical-member colors of the facet's
    carrier and the critical-carrier colors of the face's carrier.
    """
    groups, rhos, faces = _chr2_table(alpha.n)
    csm_of, csv_of, conc_of = zip(*(
        _critical_summary(_critical_faces(g, alpha), alpha) for g in groups))
    kept = array("I")
    for k, (rho, packed) in enumerate(zip(rhos, faces)):
        csm = csm_of[rho]
        for face in packed:
            tau = face >> MAX_PROCESSES
            guard = csm | csv_of[tau]
            # dim >= conc, with dim one less than the number of colors
            if not face & guard and (face & _VIEW).bit_count() > conc_of[tau]:
                break
        else:
            kept.append(k)
    return kept


# --- verification sweeps ------------------------------------------------------------


def _chr_faces(adv: Adversary):
    """The alpha of a fair adversary and, per simplex sigma of Chr s, sigma
    with its view groups and its critical faces as (view, colors) pairs."""
    alpha = require_fair(adv)
    rows = [(s, _view_groups(packed_views(s))) for s in chr_complex(adv.n).simplices()]
    return alpha, [(s, g, list(_critical_faces(g, alpha))) for s, g in rows]


def critical_simplices(adv: Adversary) -> list[Simplex]:
    """Every critical simplex of Chr s under the adversary: one view group,
    which is a critical face of itself."""
    _, rows = _chr_faces(adv)
    return [s for s, groups, faces in rows
            if len(groups) == 1 and groups[0] in faces]


def verify_cs_distribution(adv: Adversary) -> VerificationReport:
    """Hitting-set lower bounds on critical sub-simplices, per level l in 1..n.

    For sigma with chi(sigma) == chi(carrier):
        alpha(chi(sigma)) - l + 1 <= hit({theta critical in sigma : alpha >= l})
    and for every sigma the relaxed form subtracting the colors of the
    carrier missing from sigma.
    """
    alpha, rows = _chr_faces(adv)
    report = VerificationReport(kind="cs_distribution")
    for sigma, groups, faces in rows:
        car = colors = 0
        for view, members in groups:
            car, colors = car | view, colors | members
        for l in range(1, adv.n + 1):
            # the family mask: one bit per distinct color mask
            hit = _hitting_number(adv.n, sum({1 << c for view, c in faces
                                              if alpha.of_mask(view) >= l}))
            report.checked += 1
            if colors == car:
                bound = alpha.of_mask(colors) - l + 1
                if bound > hit:
                    report.add(form="exact", sigma=list(sigma.uids), level=l,
                               bound=bound, hitting=hit)
            relaxed = alpha.of_mask(car) - l - (car & ~colors).bit_count() + 1
            if relaxed > hit:
                report.add(form="relaxed", sigma=list(sigma.uids), level=l,
                           bound=relaxed, hitting=hit)
    return report


def verify_single_carrier(adv: Adversary) -> VerificationReport:
    """Critical sub-simplices at the same alpha level share one carrier."""
    alpha, rows = _chr_faces(adv)
    report = VerificationReport(kind="single_carrier")
    for sigma, _, faces in rows:
        # within sigma, uid order is the order of the sorted color lists
        faces.sort(key=lambda face: sorted(colors_of(face[1])))
        for (view1, colors1), (view2, colors2) in combinations(faces, 2):
            report.checked += 1
            if alpha.of_mask(view1) == alpha.of_mask(view2) and view1 != view2:
                uid = {v.color: v.uid for v in sigma}
                report.add(sigma=list(sigma.uids),
                           theta1=[uid[c] for c in sorted(colors_of(colors1))],
                           theta2=[uid[c] for c in sorted(colors_of(colors2))],
                           level=alpha.of_mask(view1))
    return report


def concurrency_levels(adv: Adversary) -> dict[Simplex, int]:
    """Conc of every simplex of Chr s, for rendering and inspection."""
    alpha, rows = _chr_faces(adv)
    return {sigma: _critical_summary(faces, alpha)[2]
            for sigma, _, faces in rows}


# --- task JSON ---------------------------------------------------------------------


def task_to_dict(task: AffineTask) -> dict:
    """Serialize a task as a complex document with task metadata on top,
    so any consumer of the complex schema can read it unchanged."""
    out = complex_to_dict(task.complex)
    out["name"] = task.name
    # the task file format names its guard; R_A's guard is the union
    out["combine"] = "union"
    out["alpha"] = alpha_to_dict(task.alpha)
    return out
