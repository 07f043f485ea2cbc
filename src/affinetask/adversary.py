"""Adversaries, their agreement power, and fairness checks.

An adversary is a family of live sets over processes 1..n. Its agreement
power (setcon) follows the recursive definition: 0 for the empty family,
otherwise max over live sets S of min over a in S of setcon of the family
restricted to S minus {a}, plus one. The agreement function maps every
subset P of processes to the setcon of the restriction to P. All of them,
and fairness, are read off one table over the pairs Q <= P of color masks.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple

from .bits import colors_of, iter_bits, mask_of, submasks
from .complexes import MAX_PROCESSES
from .reports import VerificationReport


class AdversaryError(ValueError):
    pass


class AgreementFunctionError(AdversaryError):
    """Derived agreement function violates monotonicity or bounded growth."""


class UnfairAdversaryError(AdversaryError):
    """Operation requires a fair adversary."""


@dataclass(frozen=True)
class Adversary:
    n: int
    live_sets: frozenset[frozenset[int]]
    family: int = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "family", sum(1 << mask_of(s) for s in sets))

    def __repr__(self) -> str:
        sets = sorted(tuple(sorted(s)) for s in self.live_sets)
        return f"Adversary(n={self.n}, {sets})"


class _Tables(NamedTuple):
    """Constant mask tables for one n. A family mask has bit s set when the
    live set with color mask s is in the family; a Q-set has bit Q set for
    each member Q of a set of color masks."""

    steps: tuple[tuple[tuple[int, ...], int], ...]  # per P >= 1: P - b, Qs meeting P
    inside: tuple[int, ...]  # per P: the nonempty Q <= P
    fair: tuple[int, ...]  # per k >= 1: the Q with |Q| >= k
    misses: tuple[tuple[int, ...], ...]  # per k, per |H| = k: sets missing H
    layers: tuple[int, ...]  # per k: the sets of size k
    ups: tuple[int, ...]  # per s: the sets s + b, b not in s


@lru_cache(maxsize=MAX_PROCESSES)
def _tables(n: int) -> _Tables:
    full = (1 << n) - 1

    def qset(pred) -> int:
        return sum(1 << Q for Q in range(full + 1) if pred(Q))

    steps = tuple((tuple(P ^ 1 << b for b in iter_bits(P)), qset(lambda Q: Q & P))
                  for P in range(1, full + 1))
    inside = tuple(qset(lambda Q: Q and Q & P == Q) for P in range(full + 1))
    fair = tuple(qset(lambda Q: Q.bit_count() >= k) for k in range(1, n + 1))
    misses = tuple(tuple(qset(lambda s: s and not s & H) for H in range(full + 1)
                         if H.bit_count() == k) for k in range(n + 1))
    layers = tuple(qset(lambda s: s and s.bit_count() == k) for k in range(n + 1))
    ups = tuple(qset(lambda t: t != s and t & s == s and (t ^ s).bit_count() == 1)
                for s in range(full + 1))
    return _Tables(steps, inside, fair, misses, layers, ups)


def _levels(adv: Adversary) -> list[list[int]]:
    """levels[k - 1][P] is the Q-set {Q : G[P][Q] >= k}, for k = 1..setcon.

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
        for P, (kids, meets) in enumerate(_tables(n).steps, 1):
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


def setcon(adv: Adversary) -> int:
    return len(_levels(adv))


@dataclass(frozen=True)
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

    def swap_keeps(self, a: int, b: int, within: int) -> bool:
        """Whether exchanging colors a and b keeps alpha on every subset of
        the color mask `within`, which holds both."""
        table, both = self.table, 1 << a - 1 | 1 << b - 1
        return all(table[S ^ both] == table[S] for S in submasks(within)
                   if (S >> a - 1 ^ S >> b - 1) & 1)


def agreement_function(adv: Adversary) -> AgreementFunction:
    """alpha(P) = setcon of the live sets inside P, for every P."""
    return _alpha(adv.n, _levels(adv))


def _alpha(n: int, levels: list[list[int]]) -> AgreementFunction:
    """The agreement function of the given levels.

    Fails loudly if the derived table is not monotone of bounded growth;
    that would indicate a broken setcon, not data to be normalized away.
    """
    table = [sum(level[P] >> P & 1 for level in levels) for P in range(1 << n)]
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


def _unfair_pair(n: int, levels: list[list[int]]) -> FairnessVerdict:
    """The first (P, Q), P ascending and then Q, where G[P][Q] is not
    min(|Q|, alpha(P)). As G[P][Q] <= G[P][P] = alpha(P), a level that
    misses P holds no Q inside P; one that holds P must hold, inside P,
    exactly the Q with |Q| >= k."""
    tables = _tables(n)
    for P in range(1, 1 << n):
        wrong = 0
        for level, fair in zip(levels, tables.fair):
            if level[P] >> P & 1:
                wrong |= (level[P] ^ fair) & tables.inside[P]
        if wrong:
            Q = (wrong & -wrong).bit_length() - 1
            return FairnessVerdict(False, (colors_of(P), colors_of(Q)))
    return FairnessVerdict(True)


def check_fairness(adv: Adversary) -> FairnessVerdict:
    """Fairness: setcon(A|P,Q) == min(|Q|, setcon(A|P)) for all Q <= P.

    Returns the first violating (P, Q) in mask order as a witness.
    """
    return _unfair_pair(adv.n, _levels(adv))


def is_fair(adv: Adversary) -> bool:
    return check_fairness(adv).fair


def require_fair(adv: Adversary) -> AgreementFunction:
    """The agreement function of a fair adversary; any other raises."""
    levels = _levels(adv)
    verdict = _unfair_pair(adv.n, levels)
    if not verdict:
        P, Q = verdict.witness
        raise UnfairAdversaryError(
            f"adversary is not fair: witness P={sorted(P)}, Q={sorted(Q)}")
    return _alpha(adv.n, levels)


# --- structure predicates and generators ------------------------------------


def is_superset_closed(adv: Adversary) -> bool:
    ups = _tables(adv.n).ups
    return all(adv.family & ups[s] == ups[s] for s in iter_bits(adv.family))


def is_symmetric(adv: Adversary) -> bool:
    """Membership depends only on cardinality."""
    return all(adv.family & layer in (0, layer)
               for layer in _tables(adv.n).layers)


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
    return Adversary(n, frozenset(out))


def make_symmetric(n: int, sizes: Iterable[int]) -> Adversary:
    sizes = sorted(set(sizes))
    if any(not 1 <= k <= n for k in sizes):
        raise AdversaryError(f"sizes {sizes} outside 1..{n}")
    out = {frozenset(c) for k in sizes
           for c in combinations(range(1, n + 1), k)}
    return Adversary(n, frozenset(out))


def make_t_resilient(n: int, t: int) -> Adversary:
    """Live sets are exactly the sets of size at least n - t."""
    if not 0 <= t < n:
        raise AdversaryError(f"t={t} out of range 0..{n - 1}")
    return make_symmetric(n, range(n - t, n + 1))


def make_k_of(n: int, k: int) -> Adversary:
    """k-obstruction-free: all nonempty sets of size at most k."""
    if not 1 <= k <= n:
        raise AdversaryError(f"k={k} out of range 1..{n}")
    return make_symmetric(n, range(1, k + 1))


def enumerate_adversaries(n: int) -> Iterator[Adversary]:
    """All 2^(2^n - 1) adversaries over 1..n, empty family included, with no
    budget (2^31 at n=5): the caller bounds it. `adv classify` is the bounded
    entry point; it refuses past `state_cap_from_env()`."""
    universe = sorted(range(1, n + 1))
    pool = [frozenset(c) for k in range(1, n + 1)
            for c in combinations(universe, k)]
    for mask in range(1 << len(pool)):
        yield Adversary(n, frozenset(
            s for i, s in enumerate(pool) if mask & (1 << i)))


# --- hitting sets ------------------------------------------------------------


def hitting_number(sets: Iterable[Iterable[int]]) -> int:
    """Minimum size of a set meeting every given set of colors in
    1..MAX_PROCESSES (0 for no sets)."""
    sets = {frozenset(s) for s in sets}
    colors = frozenset(range(1, MAX_PROCESSES + 1))
    if not all(s and s <= colors for s in sets):
        raise AdversaryError(
            f"can only hit nonempty sets of colors in 1..{MAX_PROCESSES}")
    n = max((max(s) for s in sets), default=1)
    return _hitting_number(n, sum(1 << mask_of(s) for s in sets))


def _hitting_number(n: int, family: int) -> int:
    """The least |H| for which no set of the family mask misses H, for a
    family over colors 1..n."""
    return next(k for k, misses in enumerate(_tables(n).misses)
                if any(not family & miss for miss in misses))


def csize(adv: Adversary) -> int:
    """Minimum hitting set size of the live-set family (0 for no live sets)."""
    return _hitting_number(adv.n, adv.family)


# --- derived checks ----------------------------------------------------------


def verify_fair_subtraction(adv: Adversary) -> VerificationReport:
    """For fair adversaries: alpha(P) >= alpha(P - Q) >= alpha(P) - |Q|."""
    alpha = require_fair(adv)
    report = VerificationReport(kind="fair_subtraction")
    full = (1 << adv.n) - 1
    for pmask in range(full + 1):
        for qmask in submasks(pmask):
            hi = alpha.of_mask(pmask)
            lo = alpha.of_mask(pmask & ~qmask)
            report.checked += 1
            if not hi >= lo >= hi - qmask.bit_count():
                report.add(P=sorted(colors_of(pmask)),
                           Q=sorted(colors_of(qmask)),
                           alpha_P=hi, alpha_P_minus_Q=lo)
    return report


def classify(adv: Adversary) -> dict:
    """Summary row used by the sweep/CLI table."""
    levels = _levels(adv)
    verdict = _unfair_pair(adv.n, levels)
    row = {
        "live_sets": sorted(sorted(s) for s in adv.live_sets),
        "setcon": len(levels),
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
