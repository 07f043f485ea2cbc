"""Adversaries, their agreement power, and fairness checks.

An adversary is a family of live sets over processes 1..n. Its agreement
power (setcon) follows the recursive definition: 0 for the empty family,
otherwise max over live sets S of min over a in S of setcon of the family
restricted to S minus {a}, plus one. The agreement function maps every
subset P of processes to the setcon of the restriction to P.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator

from .bits import colors_of, iter_bits, mask_of, popcount, submasks
from .complexes import MAX_PROCESSES
from .reports import VerificationReport


class AdversaryError(ValueError):
    pass


class AgreementFunctionError(AdversaryError):
    """Derived agreement function violates monotonicity or bounded growth."""


class UnfairAdversaryError(AdversaryError):
    """Operation requires a fair adversary."""


Family = frozenset[frozenset[int]]


@dataclass(frozen=True, eq=False)
class Adversary:
    n: int
    live_sets: Family
    provenance: str = "explicit"

    def __post_init__(self):
        if not 1 <= self.n <= MAX_PROCESSES:
            raise AdversaryError(f"n={self.n} out of range 1..{MAX_PROCESSES}")
        sets = frozenset(frozenset(s) for s in self.live_sets)
        universe = set(range(1, self.n + 1))
        for s in sets:
            if not s:
                raise AdversaryError("live sets must be nonempty")
            if not s <= universe:
                raise AdversaryError(f"live set {sorted(s)} outside 1..{self.n}")
        object.__setattr__(self, "live_sets", sets)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Adversary)
                and self.n == other.n and self.live_sets == other.live_sets)

    def __hash__(self) -> int:
        return hash((self.n, self.live_sets))

    def __repr__(self) -> str:
        sets = sorted(tuple(sorted(s)) for s in self.live_sets)
        return f"Adversary(n={self.n}, {sets})"


def restrict(adv: Adversary, P: Iterable[int]) -> Adversary:
    """Live sets fully contained in P."""
    P = frozenset(P)
    return Adversary(adv.n, frozenset(s for s in adv.live_sets if s <= P),
                     provenance=adv.provenance)


def restrict2(adv: Adversary, P: Iterable[int], Q: Iterable[int]) -> Adversary:
    """Live sets contained in P that intersect Q. Requires Q <= P."""
    P, Q = frozenset(P), frozenset(Q)
    if not Q <= P:
        raise AdversaryError(f"Q={sorted(Q)} must be a subset of P={sorted(P)}")
    return Adversary(adv.n, frozenset(
        s for s in adv.live_sets if s <= P and s & Q), provenance=adv.provenance)


_SETCON_CACHE: dict[Family, int] = {}


def _setcon_family(family: Family) -> int:
    cached = _SETCON_CACHE.get(family)
    if cached is not None:
        return cached
    if not family:
        _SETCON_CACHE[family] = 0
        return 0
    best = 0
    for S in family:
        sub = min(
            _setcon_family(frozenset(t for t in family if t <= S - {a}))
            for a in S)
        best = max(best, sub + 1)
    _SETCON_CACHE[family] = best
    return best


def setcon(adv: Adversary) -> int:
    return _setcon_family(adv.live_sets)


@dataclass(frozen=True, eq=False)
class AgreementFunction:
    """setcon of the restriction to every subset of 1..n, as a mask table."""

    n: int
    table: tuple[int, ...]

    def __call__(self, P: Iterable[int]) -> int:
        return self.table[mask_of(P)]

    def of_mask(self, mask: int) -> int:
        return self.table[mask]

    def values(self) -> dict[frozenset[int], int]:
        return {colors_of(m): a for m, a in enumerate(self.table)}

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, AgreementFunction)
                and self.n == other.n and self.table == other.table)

    def __hash__(self) -> int:
        return hash((self.n, self.table))


def agreement_function(adv: Adversary) -> AgreementFunction:
    """alpha(P) = setcon(restrict(A, P)) for every P.

    Fails loudly if the derived table is not monotone of bounded growth;
    that would indicate a broken setcon, not data to be normalized away.
    """
    n = adv.n
    table = []
    for mask in range(1 << n):
        P = colors_of(mask)
        table.append(_setcon_family(
            frozenset(s for s in adv.live_sets if s <= P)))
    for mask in range(1 << n):
        for b in range(n):
            if mask & (1 << b):
                continue
            lo, hi = table[mask], table[mask | (1 << b)]
            if not lo <= hi <= lo + 1:
                raise AgreementFunctionError(
                    f"alpha not monotone of bounded growth at P={sorted(colors_of(mask))}"
                    f" +{b + 1}: {lo} -> {hi}")
    return AgreementFunction(n=n, table=tuple(table))


@dataclass(frozen=True)
class FairnessVerdict:
    fair: bool
    witness: tuple[frozenset[int], frozenset[int]] | None = None

    def __bool__(self) -> bool:
        return self.fair


def check_fairness(adv: Adversary) -> FairnessVerdict:
    """Fairness: setcon(A|P,Q) == min(|Q|, setcon(A|P)) for all Q <= P.

    Returns the first violating (P, Q) in mask order as a witness.
    """
    full = (1 << adv.n) - 1
    for pmask in range(1, full + 1):
        P = colors_of(pmask)
        base = setcon(restrict(adv, P))
        for qmask in submasks(pmask):
            if qmask == 0:
                continue
            Q = colors_of(qmask)
            got = setcon(restrict2(adv, P, Q))
            if got != min(len(Q), base):
                return FairnessVerdict(False, (P, Q))
    return FairnessVerdict(True)


def is_fair(adv: Adversary) -> bool:
    return check_fairness(adv).fair


def require_fair(adv: Adversary) -> None:
    verdict = check_fairness(adv)
    if not verdict:
        P, Q = verdict.witness
        raise UnfairAdversaryError(
            f"adversary is not fair: witness P={sorted(P)}, Q={sorted(Q)}")


# --- structure predicates and generators ------------------------------------


def is_superset_closed(adv: Adversary) -> bool:
    universe = frozenset(range(1, adv.n + 1))
    for s in adv.live_sets:
        for extra in universe - s:
            if s | {extra} not in adv.live_sets:
                return False
    return True


def is_symmetric(adv: Adversary) -> bool:
    """Membership depends only on cardinality."""
    sizes = {len(s) for s in adv.live_sets}
    universe = sorted(range(1, adv.n + 1))
    for k in sizes:
        for combo in combinations(universe, k):
            if frozenset(combo) not in adv.live_sets:
                return False
    return True


def make_superset_closed(n: int, minimal_sets: Iterable[Iterable[int]]) -> Adversary:
    universe = frozenset(range(1, n + 1))
    out: set[frozenset[int]] = set()
    for s in minimal_sets:
        s = frozenset(s)
        if not s or not s <= universe:
            raise AdversaryError(f"bad minimal set {sorted(s)} for n={n}")
        rest = sorted(universe - s)
        for k in range(len(rest) + 1):
            for extra in combinations(rest, k):
                out.add(s | frozenset(extra))
    return Adversary(n, frozenset(out), provenance="superset_closed")


def make_symmetric(n: int, sizes: Iterable[int]) -> Adversary:
    sizes = sorted(set(sizes))
    if any(not 1 <= k <= n for k in sizes):
        raise AdversaryError(f"sizes {sizes} outside 1..{n}")
    out = {frozenset(c) for k in sizes
           for c in combinations(range(1, n + 1), k)}
    return Adversary(n, frozenset(out), provenance="symmetric")


def make_t_resilient(n: int, t: int) -> Adversary:
    """Live sets are exactly the sets of size at least n - t."""
    if not 0 <= t < n:
        raise AdversaryError(f"t={t} out of range 0..{n - 1}")
    adv = make_symmetric(n, range(n - t, n + 1))
    return Adversary(n, adv.live_sets, provenance=f"{t}-resilient")


def make_k_of(n: int, k: int) -> Adversary:
    """k-obstruction-free: all nonempty sets of size at most k."""
    if not 1 <= k <= n:
        raise AdversaryError(f"k={k} out of range 1..{n}")
    adv = make_symmetric(n, range(1, k + 1))
    return Adversary(n, adv.live_sets, provenance=f"{k}-obstruction-free")


def enumerate_adversaries(n: int) -> Iterator[Adversary]:
    """All 2^(2^n - 1) adversaries over 1..n, empty family included."""
    universe = sorted(range(1, n + 1))
    pool = [frozenset(c) for k in range(1, n + 1)
            for c in combinations(universe, k)]
    for mask in range(1 << len(pool)):
        yield Adversary(n, frozenset(
            s for i, s in enumerate(pool) if mask & (1 << i)))


def symmetric_setcon(adv: Adversary) -> int:
    """Shortcut valid for symmetric adversaries: number of distinct live sizes."""
    if not is_symmetric(adv):
        raise AdversaryError("symmetric_setcon needs a symmetric adversary")
    return len({len(s) for s in adv.live_sets})


# --- hitting sets ------------------------------------------------------------


def hitting_number(sets: Iterable[frozenset[int]]) -> int:
    """Minimum size of a set intersecting every given set. Exact.

    Exhaustive smallest-first search over the union; trivially exact for
    at most MAX_PROCESSES elements.
    """
    sets = [frozenset(s) for s in sets]
    if not sets:
        return 0
    if any(not s for s in sets):
        raise AdversaryError("cannot hit an empty set")
    universe = sorted(set().union(*sets))
    for k in range(1, len(universe) + 1):
        for combo in combinations(universe, k):
            h = set(combo)
            if all(h & s for s in sets):
                return k
    raise AssertionError("unreachable: the full universe hits everything")


def csize(adv: Adversary) -> int:
    """Minimum hitting set size of the live-set family (0 for no live sets)."""
    return hitting_number(adv.live_sets)


# --- derived checks ----------------------------------------------------------


def verify_fair_subtraction(adv: Adversary) -> VerificationReport:
    """For fair adversaries: alpha(P) >= alpha(P - Q) >= alpha(P) - |Q|."""
    require_fair(adv)
    alpha = agreement_function(adv)
    report = VerificationReport(kind="fair_subtraction")
    full = (1 << adv.n) - 1
    for pmask in range(full + 1):
        for qmask in submasks(pmask):
            hi = alpha.of_mask(pmask)
            lo = alpha.of_mask(pmask & ~qmask)
            report.checked += 1
            if not hi >= lo >= hi - popcount(qmask):
                report.add(P=sorted(colors_of(pmask)),
                           Q=sorted(colors_of(qmask)),
                           alpha_P=hi, alpha_P_minus_Q=lo)
    return report


def classify(adv: Adversary) -> dict:
    """Summary row used by the sweep/CLI table."""
    verdict = check_fairness(adv)
    row = {
        "live_sets": sorted(sorted(s) for s in adv.live_sets),
        "setcon": setcon(adv),
        "csize": csize(adv),
        "superset_closed": is_superset_closed(adv),
        "symmetric": is_symmetric(adv),
        "fair": verdict.fair,
    }
    if not verdict.fair:
        P, Q = verdict.witness
        row["unfair_witness"] = {"P": sorted(P), "Q": sorted(Q)}
    return row


# --- JSON form ----------------------------------------------------------------


def adversary_to_dict(adv: Adversary) -> dict:
    return {
        "n": adv.n,
        "kind": "explicit",
        "live_sets": sorted(sorted(s) for s in adv.live_sets),
    }


def alpha_to_dict(alpha: AgreementFunction) -> dict[str, int]:
    """{"1,2": alpha({1, 2}), ...}, ordered by (size, members)."""
    return {",".join(map(str, sorted(P))): a
            for P, a in sorted(alpha.values().items(),
                               key=lambda kv: (len(kv[0]), sorted(kv[0])))}


def _int(value, what: str) -> int:
    # JSON true/false parse to bools, which Python counts as ints
    if type(value) is not int:
        raise AdversaryError(f"{what} must be an integer, got {value!r}")
    return value


def _int_sets(sets) -> list[frozenset[int]]:
    return [frozenset(_int(c, "live-set member") for c in s) for s in sets]


def adversary_from_dict(data: dict) -> Adversary:
    """Read an adversary description, rejecting every non-integer n, t, k,
    size or live-set member instead of coercing it."""
    if not isinstance(data, dict):
        raise AdversaryError(
            f"adversary description must be a JSON object, got {type(data).__name__}")
    try:
        n = _int(data["n"], "n")
        kind = data.get("kind", "explicit")
        if kind == "explicit":
            return Adversary(n, frozenset(_int_sets(data["live_sets"])))
        if kind == "superset_closed":
            return make_superset_closed(n, _int_sets(data["live_sets"]))
        if kind == "symmetric":
            return make_symmetric(n, [_int(k, "size") for k in data["sizes"]])
        if kind == "t_resilient":
            return make_t_resilient(n, _int(data["t"], "t"))
        if kind == "k_of":
            return make_k_of(n, _int(data["k"], "k"))
    except KeyError as exc:
        raise AdversaryError(f"adversary description missing field {exc}") from exc
    except TypeError as exc:
        raise AdversaryError(f"malformed adversary description: {exc}") from exc
    raise AdversaryError(f"unknown adversary kind {data.get('kind')!r}")
