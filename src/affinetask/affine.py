"""Affine tasks inside the second chromatic subdivision.

Contention: two vertices of Chr Chr s are contending when their first- and
second-round views are strictly ordered in opposite directions; a simplex is
contending when every vertex pair is. Criticality: a simplex sigma of Chr s
is critical for an agreement function alpha when all its vertices share
sigma's carrier and removing sigma's colors from that carrier strictly drops
alpha. The affine task R_A of a fair adversary, `build_r_a`, combines the
two notions; it is the only task this package builds.

Each notion is decided once, on masks (`_contending`, `_critical_faces`); the
Simplex functions call them. `build_r_a` reads `_chr2_table(n)`, Chr Chr s
coded as ints once per n (Kozlov 2012): numbered Chr s carriers as view
groups, and per facet its carrier's id and its contending faces. Per alpha
only a guard loop over ints runs; kept facets are looked up as Simplex objects.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations
from typing import Iterable, Iterator

from .adversary import (Adversary, AdversaryError, AgreementFunction,
                        agreement_function, alpha_to_dict, hitting_number,
                        require_fair)
from .bits import colors_of, mask_of, submasks
from .complexes import (MAX_PROCESSES, ChromaticComplex, Simplex, Vertex,
                        closure, complex_to_dict)
from .reports import VerificationReport
from .subdivision import (carrier, chr2_complex, chr_complex, packed_views,
                          view1, view2)

_VIEW = (1 << MAX_PROCESSES) - 1  # one color's field of a packed Chr s simplex


@dataclass(frozen=True, eq=False)
class AffineTask:
    """A sub-complex of Chr Chr s with the agreement function it was built for."""

    name: str
    n: int
    complex: ChromaticComplex
    alpha: AgreementFunction

    def facet_count(self) -> int:
        return len(self.complex.facets)

    def __repr__(self) -> str:
        return f"AffineTask({self.name}, facets={self.facet_count()})"


# --- contention ---------------------------------------------------------------


def _contending(v1: int, v2: int, u1: int, u2: int) -> bool:
    """Round-1 views v1, u1 and round-2 views v2, u2 of two vertices, as
    color masks, strictly ordered in opposite directions: v1 < u1 and
    u2 < v2, or u1 < v1 and v2 < u2."""
    return v1 != u1 and v2 != u2 and (v1 | u1, v2 | u2) in ((u1, v2), (v1, u2))


def is_contention(sigma: Simplex) -> bool:
    """Every vertex pair strictly reversed; single vertices vacuously yes."""
    views = [(mask_of(view1(v)), mask_of(view2(v))) for v in sigma]
    return all(_contending(*a, *b) for a, b in combinations(views, 2))


def contention_simplices(K: ChromaticComplex, min_dim: int = 0) -> list[Simplex]:
    """All contending simplices of K with dimension at least min_dim."""
    return [s for s in K.simplices()
            if s.dim >= min_dim and is_contention(s)]


# --- criticality ----------------------------------------------------------------


@dataclass(frozen=True)
class CriticalData:
    cs: frozenset[Simplex]        # critical sub-simplices
    csm: frozenset[Vertex]        # vertices appearing in some critical sub-simplex
    csv_colors: frozenset[int]    # colors of the carrier of csm (empty if none)
    conc: int                     # max alpha over critical carriers, 0 if none


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


def is_critical(sigma: Simplex, alpha: AgreementFunction) -> bool:
    """All vertices carry sigma's carrier and dropping sigma's colors lowers alpha."""
    groups = _view_groups(packed_views(sigma))
    return len(groups) == 1 and groups[0] in _critical_faces(groups, alpha)


def critical_data(sigma: Simplex, alpha: AgreementFunction) -> CriticalData:
    by_color = {v.color: v for v in sigma}
    faces = list(_critical_faces(_view_groups(packed_views(sigma)), alpha))
    csm, csv, conc = _critical_summary(faces, alpha)
    cs = frozenset(Simplex(tuple(by_color[c] for c in colors_of(colors)))
                   for _, colors in faces)
    return CriticalData(cs=cs, csm=frozenset(by_color[c] for c in colors_of(csm)),
                        csv_colors=colors_of(csv), conc=conc)


def critical_simplices(adv: Adversary) -> list[Simplex]:
    """Every critical simplex of the first subdivision under the adversary."""
    alpha = agreement_function(adv)
    return [s for s in chr_complex(adv.n).simplices()
            if is_critical(s, alpha)]


def _critical_cache(alpha: AgreementFunction):
    """Per-alpha memo for critical data of Chr s simplices."""
    return lru_cache(maxsize=None)(partial(critical_data, alpha=alpha))


# --- task constructions -----------------------------------------------------------


@lru_cache(maxsize=MAX_PROCESSES)
def _chr2_table(n: int) -> tuple:
    """(facets, groups, rhos, faces) of Chr Chr s: its facets; the view
    groups of each Chr s simplex id; per facet, the id of its carrier rho;
    per facet, its contending faces packed as tau id << MAX_PROCESSES | colors."""
    chr2 = chr2_complex(n)
    verts = {}  # per vertex: color bit, round-1 view, round-2 view, carrier
    for v in chr2.vertices:
        car = packed_views(v.payload)
        verts[v] = (1 << v.color - 1, car >> MAX_PROCESSES * (v.color - 1) & _VIEW,
                    mask_of(v.payload.colors), car)
    ids: dict[int, int] = {}  # packed Chr s simplex -> id
    pool: dict[int, int] = {}  # one int object per packed face
    facets, rhos, faces = tuple(chr2.facets), [], []
    for facet in facets:
        vs = [verts[v] for v in facet]
        cliques: list[tuple[int, int, int]] = []  # members, colors, tau
        rho = 0
        for i, (bit, v1, v2, car) in enumerate(vs):
            rivals = sum(1 << j for j, u in enumerate(vs[:i])
                         if _contending(v1, v2, u[1], u[2]))
            cliques += [(members | 1 << i, colors | bit, tau | car)
                        for members, colors, tau in cliques
                        if members & rivals == members]
            cliques.append((1 << i, bit, car))
            rho |= car
        rhos.append(ids.setdefault(rho, len(ids)))
        packed = (ids.setdefault(tau, len(ids)) << MAX_PROCESSES | colors
                  for _, colors, tau in cliques)
        faces.append(tuple(pool.setdefault(x, x) for x in packed))
    return facets, tuple(_view_groups(p) for p in ids), tuple(rhos), tuple(faces)


def build_r_a(adv: Adversary) -> AffineTask:
    """The adversary's affine task: facets all of whose contending faces
    either touch the guard colors or stay below the concurrency level of
    their carrier.

    The guard is the union of the critical-member colors of the facet's
    carrier and the critical-carrier colors of the face's carrier.
    """
    require_fair(adv)
    alpha = agreement_function(adv)
    if alpha(range(1, adv.n + 1)) < 1:
        raise AdversaryError("adversary admits no live set; no task to build")
    facets, groups, rhos, faces = _chr2_table(adv.n)
    csm_of, csv_of, conc_of = zip(*(
        _critical_summary(_critical_faces(g, alpha), alpha) for g in groups))
    kept = []
    for facet, rho, packed in zip(facets, rhos, faces):
        csm = csm_of[rho]
        for face in packed:
            tau = face >> MAX_PROCESSES
            guard = csm | csv_of[tau]
            # dim >= conc, with dim one less than the number of colors
            if not face & guard and (face & _VIEW).bit_count() > conc_of[tau]:
                break
        else:
            kept.append(facet)
    return AffineTask(name="r_adv", n=adv.n, complex=closure(kept, n=adv.n),
                      alpha=alpha)


# --- verification sweeps ------------------------------------------------------------


def verify_cs_distribution(adv: Adversary, levels: Iterable[int] | None = None
                           ) -> VerificationReport:
    """Hitting-set lower bounds on critical sub-simplices, per level l.

    For sigma with chi(sigma) == chi(carrier):
        alpha(chi(sigma)) - l + 1 <= hit({theta critical in sigma : alpha >= l})
    and for every sigma the relaxed form subtracting the colors of the
    carrier missing from sigma.
    """
    require_fair(adv)
    alpha = agreement_function(adv)
    crit = _critical_cache(alpha)
    report = VerificationReport(kind="cs_distribution")
    levels = list(levels) if levels is not None else list(range(1, adv.n + 1))
    for sigma in chr_complex(adv.n).simplices():
        car_colors = carrier(sigma, "s").colors
        data = crit(sigma)
        for l in levels:
            qualifying = [theta for theta in data.cs
                          if alpha(carrier(theta, "s").colors) >= l]
            hit = hitting_number([theta.colors for theta in qualifying])
            report.checked += 1
            if sigma.colors == car_colors:
                bound = alpha(sigma.colors) - l + 1
                if bound > hit:
                    report.add(form="exact", sigma=list(sigma.uids), level=l,
                               bound=bound, hitting=hit)
            relaxed = alpha(car_colors) - l - len(car_colors - sigma.colors) + 1
            if relaxed > hit:
                report.add(form="relaxed", sigma=list(sigma.uids), level=l,
                           bound=relaxed, hitting=hit)
    return report


def verify_single_carrier(adv: Adversary) -> VerificationReport:
    """Critical sub-simplices at the same alpha level share one carrier."""
    require_fair(adv)
    alpha = agreement_function(adv)
    crit = _critical_cache(alpha)
    report = VerificationReport(kind="single_carrier")
    for sigma in chr_complex(adv.n).simplices():
        cs = sorted(crit(sigma).cs, key=lambda s: s.uids)
        for t1, t2 in combinations(cs, 2):
            c1, c2 = carrier(t1, "s"), carrier(t2, "s")
            report.checked += 1
            if alpha(c1.colors) == alpha(c2.colors) and c1 != c2:
                report.add(sigma=list(sigma.uids), theta1=list(t1.uids),
                           theta2=list(t2.uids),
                           level=alpha(c1.colors))
    return report


def concurrency_levels(adv: Adversary) -> dict[Simplex, int]:
    """Conc of every simplex of Chr s, for rendering and inspection."""
    require_fair(adv)
    alpha = agreement_function(adv)
    crit = _critical_cache(alpha)
    return {sigma: crit(sigma).conc for sigma in chr_complex(adv.n).simplices()}


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
