"""Affine tasks inside the second chromatic subdivision.

Contention: two vertices of Chr Chr s are contending when their first- and
second-round views are strictly ordered in opposite directions; a simplex is
contending when every vertex pair is. Criticality: a simplex sigma of Chr s
is critical for an agreement function alpha when all its vertices share
sigma's carrier and removing sigma's colors from that carrier strictly drops
alpha. The task constructions combine the two notions.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .adversary import (Adversary, AdversaryError, AgreementFunction,
                        agreement_function, alpha_to_dict, hitting_number,
                        require_fair)
from .complexes import (ChromaticComplex, ComplexError, Simplex, Vertex,
                        closure, complex_to_dict, pure_complement)
from .reports import VerificationReport
from .subdivision import carrier, carrier_step, chr2_complex, chr_complex, view1, view2

COMBINE_MODES = ("union", "intersection")


@dataclass(frozen=True, eq=False)
class AffineTask:
    """A sub-complex of Chr Chr s, optionally tagged with its alpha."""

    name: str
    n: int
    complex: ChromaticComplex
    alpha: AgreementFunction | None = None
    combine: str | None = None

    def facet_count(self) -> int:
        return len(self.complex.facets)

    def __repr__(self) -> str:
        return f"AffineTask({self.name}, facets={self.facet_count()})"


# --- contention ---------------------------------------------------------------


def _contending_pair(v: Vertex, u: Vertex) -> bool:
    v1, u1 = view1(v), view1(u)
    v2, u2 = view2(v), view2(u)
    return ((v1 < u1 and u2 < v2) or (u1 < v1 and v2 < u2))


def is_contention(sigma: Simplex) -> bool:
    """Every vertex pair strictly reversed; single vertices vacuously yes."""
    return all(_contending_pair(v, u)
               for v, u in combinations(sigma.vertices, 2))


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


def is_critical(sigma: Simplex, alpha: AgreementFunction) -> bool:
    """All vertices carry sigma's carrier and dropping sigma's colors lowers alpha."""
    car = sigma.vertices[0].payload
    if car is None:
        raise ComplexError("criticality is defined for first-subdivision simplices")
    for v in sigma.vertices[1:]:
        if v.payload != car:
            return False
    colors = car.colors
    return alpha(colors - sigma.colors) < alpha(colors)


def critical_data(sigma: Simplex, alpha: AgreementFunction) -> CriticalData:
    cs = frozenset(theta for theta in sigma.faces()
                   if is_critical(theta, alpha))
    csm_verts: set[Vertex] = set()
    for theta in cs:
        csm_verts.update(theta.vertices)
    if csm_verts:
        csv = carrier_step(Simplex(tuple(csm_verts))).colors
    else:
        csv = frozenset()
    conc = max((alpha(carrier(theta, "s").colors) for theta in cs), default=0)
    return CriticalData(cs=cs, csm=frozenset(csm_verts),
                        csv_colors=csv, conc=conc)


def critical_simplices(adv: Adversary) -> list[Simplex]:
    """Every critical simplex of the first subdivision under the adversary."""
    alpha = agreement_function(adv)
    return [s for s in chr_complex(adv.n).simplices()
            if is_critical(s, alpha)]


class _CriticalCache:
    """Per-alpha memo for critical data of Chr s simplices."""

    def __init__(self, alpha: AgreementFunction):
        self.alpha = alpha
        self._data: dict[Simplex, CriticalData] = {}

    def __call__(self, sigma: Simplex) -> CriticalData:
        got = self._data.get(sigma)
        if got is None:
            got = critical_data(sigma, self.alpha)
            self._data[sigma] = got
        return got


# --- task constructions -----------------------------------------------------------


def build_r_kof(n: int, k: int) -> AffineTask:
    """Facets of Chr Chr s avoiding every contending simplex of dim >= k."""
    if not 1 <= k <= n:
        raise AdversaryError(f"k={k} out of range 1..{n}")
    chr2 = chr2_complex(n)
    banned = contention_simplices(chr2, min_dim=k)
    return AffineTask(name=f"r_{k}of", n=n,
                      complex=pure_complement(banned, chr2))


def build_r_tres(n: int, t: int) -> AffineTask:
    """Facets of Chr Chr s whose vertices all see at least n-t processes.

    Built as the pure complement of the star of the small-carrier simplices;
    equivalent to filtering facets on |carrier(v, s)| >= n - t per vertex.
    """
    if not 0 <= t < n:
        raise AdversaryError(f"t={t} out of range 0..{n - 1}")
    chr2 = chr2_complex(n)
    small = [s for s in chr2.simplices()
             if len(carrier(s, "s")) <= n - t - 1]
    return AffineTask(name=f"r_{t}res", n=n,
                      complex=pure_complement(small, chr2))


def _facet_obeys(facet: Simplex, alpha: AgreementFunction,
                 crit: _CriticalCache, combine: str) -> bool:
    rho = carrier_step(facet)
    csm_rho_colors = frozenset(v.color for v in crit(rho).csm)
    for size in range(1, len(facet.vertices) + 1):
        for combo in combinations(facet.vertices, size):
            theta = Simplex(combo)
            if not is_contention(theta):
                continue
            tau = carrier_step(theta)
            data = crit(tau)
            if combine == "union":
                guard = csm_rho_colors | data.csv_colors
            else:
                guard = csm_rho_colors & data.csv_colors
            if theta.colors & guard:
                continue
            if theta.dim >= data.conc:
                return False
    return True


def build_r_a(adv: Adversary, combine: str = "union") -> AffineTask:
    """The adversary's affine task: facets all of whose contending faces
    either touch the guard colors or stay below the concurrency level of
    their carrier.

    The guard combines the critical-member colors of the facet's carrier with
    the critical-carrier colors of the face's carrier; "union" keeps faces
    clear of both (the default), "intersection" only of their overlap.
    """
    if combine not in COMBINE_MODES:
        raise AdversaryError(f"combine must be one of {COMBINE_MODES}")
    require_fair(adv)
    alpha = agreement_function(adv)
    full = frozenset(range(1, adv.n + 1))
    if alpha(full) < 1:
        raise AdversaryError("adversary admits no live set; no task to build")
    chr2 = chr2_complex(adv.n)
    crit = _CriticalCache(alpha)
    kept = [f for f in chr2.sorted_facets()
            if _facet_obeys(f, alpha, crit, combine)]
    return AffineTask(name="r_adv", n=adv.n,
                      complex=closure(kept, n=adv.n),
                      alpha=alpha, combine=combine)


def variant_divergence_report(advs: Iterable[tuple[str, Adversary]]) -> dict:
    """Facet-level diff of the union and intersection task variants."""
    rows = []
    for label, adv in advs:
        union = build_r_a(adv, combine="union")
        inter = build_r_a(adv, combine="intersection")
        only_union = sorted(
            list(f.uids) for f in union.complex.facets - inter.complex.facets)
        only_inter = sorted(
            list(f.uids) for f in inter.complex.facets - union.complex.facets)
        rows.append({
            "adversary": label,
            "union_facets": union.facet_count(),
            "intersection_facets": inter.facet_count(),
            "facets_only_in_union": only_union,
            "facets_only_in_intersection": only_inter,
        })
    return {"kind": "task_variant_divergence", "rows": rows}


# --- verification sweeps ------------------------------------------------------------


def _chr_simplices(n: int) -> list[Simplex]:
    return chr_complex(n).simplices()


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
    crit = _CriticalCache(alpha)
    report = VerificationReport(kind="cs_distribution")
    levels = list(levels) if levels is not None else list(range(1, adv.n + 1))
    for sigma in _chr_simplices(adv.n):
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
    crit = _CriticalCache(alpha)
    report = VerificationReport(kind="single_carrier")
    for sigma in _chr_simplices(adv.n):
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
    crit = _CriticalCache(alpha)
    return {sigma: crit(sigma).conc for sigma in _chr_simplices(adv.n)}


# --- task JSON ---------------------------------------------------------------------


def task_to_dict(task: AffineTask) -> dict:
    """Serialize a task as a complex document with task metadata on top,
    so any consumer of the complex schema can read it unchanged."""
    out = complex_to_dict(task.complex)
    out["name"] = task.name
    out["combine"] = task.combine
    if task.alpha is not None:
        out["alpha"] = alpha_to_dict(task.alpha)
    return out
