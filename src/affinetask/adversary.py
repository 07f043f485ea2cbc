"""Adversaries, their agreement power, and fairness checks.

An adversary is a family of live sets over processes 1..n. Its agreement
power (setcon) follows the recursive definition: 0 for the empty family,
otherwise max over live sets S of min over a in S of setcon of the family
restricted to S minus {a}, plus one. The agreement function maps every
subset P of processes to the setcon of the restriction to P. All of them,
and fairness, are read off one table G over the pairs Q <= P of color masks:
one integer per level k, whose row P, bits P 2^n on, is {Q : G[P][Q] >= k}.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations
from typing import Iterable, Iterator, NamedTuple

from .bits import colors_of, integer, iter_bits, mask_of, submasks
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
        if not 1 <= integer(self.n, "n", AdversaryError) <= MAX_PROCESSES:
            raise AdversaryError(f"n={self.n} out of range 1..{MAX_PROCESSES}")
        sets = frozenset(frozenset(s) for s in self.live_sets)
        if not set(map(type, chain.from_iterable(sets))) <= {int}:
            list(map(_members, sets))  # raises, naming a member that is not an int
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
    each member Q of a set of color masks. A packed table has a Q-set per P."""

    live: tuple[tuple[int, ...], ...]  # per family byte, per value: its P, Q meeting P
    lacks: tuple[int, ...]  # per b: every bit of the rows P without b
    diagonal: int  # packed: Q = P
    big: tuple[int, ...]  # per k >= 1, packed: the Q <= P with |Q| >= k
    misses: tuple[tuple[int, ...], ...]  # per k, per |H| = k: sets missing H
    layers: tuple[int, ...]  # per k: the sets of size k
    ups: tuple[int, ...]  # per s: the sets s + b, b not in s


@lru_cache(maxsize=MAX_PROCESSES)
def _tables(n: int) -> _Tables:
    full, width = (1 << n) - 1, 1 << n

    def qset(pred, size: int = full + 1) -> int:
        return sum(1 << Q for Q in range(size) if pred(Q))

    # packed: the pair (P, Q) is bit x = P 2^n + Q, so row P is bits P 2^n on
    rows = [qset(lambda Q: Q & P) << P * width for P in range(width)]
    live = tuple(tuple(sum(rows[j + i] for i in iter_bits(byte))
                       for byte in range(1 << min(8, width)))
                 for j in range(0, width, 8))
    lacks = tuple(qset(lambda x: not x >> n + b & 1, width * width) for b in range(n))
    diagonal = qset(lambda x: x >> n == x & full, width * width)
    big = tuple(qset(lambda x: not x & ~(x >> n) & full and (x & full).bit_count() >= k,
                     width * width) for k in range(1, n + 1))
    misses = tuple(tuple(qset(lambda s: s and not s & H) for H in range(full + 1)
                         if H.bit_count() == k) for k in range(n + 1))
    layers = tuple(qset(lambda s: s and s.bit_count() == k) for k in range(n + 1))
    ups = tuple(qset(lambda t: t != s and t & s == s and (t ^ s).bit_count() == 1)
                for s in range(full + 1))
    return _Tables(live, lacks, diagonal, big, misses, layers, ups)


def _levels(adv: Adversary) -> list[int]:
    """levels[k - 1] is the packed table {Q : G[P][Q] >= k}, k = 1..setcon.

    G[P][Q], the setcon of the live sets inside P that meet Q, is over b in
    P the largest G[P - b][Q], or one more than the smallest of them if that
    is larger and P is live and meets Q. A shift by 2^b rows moves row P - b
    onto row P: n shifts of the level below AND to the smallest, n of the
    level itself OR to the largest over all subsets of P (zeta transform)."""
    tables, width = _tables(adv.n), 1 << adv.n
    live = sum(rows[adv.family >> 8 * j & 0xFF] for j, rows in enumerate(tables.live))
    levels: list[int] = []
    level = live  # level 1 ANDs in nothing: G >= 0 everywhere
    while True:
        for b, lacks in enumerate(tables.lacks):
            level |= (level & lacks) << (width << b)
        if not level >> (width - 1) * width:  # the row of 1..n is empty
            return levels
        levels.append(level)
        below, level = level, live
        for b, lacks in enumerate(tables.lacks):
            level &= (below & lacks) << (width << b) | lacks


def setcon(adv: Adversary) -> int:
    return len(_levels(adv))


@dataclass(frozen=True)
class AgreementFunction:
    """setcon of the restriction to every subset of 1..n, as a mask table."""

    n: int
    table: tuple[int, ...]

    def __call__(self, P: Iterable[int]) -> int:
        return self.table[mask_of(integer(c, "color", AdversaryError) for c in P)]

    def of_mask(self, mask: int) -> int:
        return self.table[mask]

    def values(self) -> dict[frozenset[int], int]:
        return {colors_of(m): a for m, a in enumerate(self.table)}

    def swap_keeps(self, a: int, b: int, within: int) -> bool:
        """Whether exchanging colors a and b keeps alpha on every subset of
        the color mask `within`, which holds both."""
        integer(a, "color", AdversaryError)
        integer(b, "color", AdversaryError)
        table, both = self.table, 1 << a - 1 | 1 << b - 1
        return all(table[S ^ both] == table[S] for S in submasks(within)
                   if (S >> a - 1 ^ S >> b - 1) & 1)


def agreement_function(adv: Adversary) -> AgreementFunction:
    """alpha(P) = setcon of the live sets inside P, for every P."""
    return _alpha(adv.n, _levels(adv))


def _alpha(n: int, levels: list[int]) -> AgreementFunction:
    """The agreement function of the levels: alpha(P) counts those with (P, P).

    Fails loudly if the derived table is not monotone of bounded growth;
    that would indicate a broken setcon, not data to be normalized away.
    """
    table = [sum(level >> (P << n | P) & 1 for level in levels) for P in range(1 << n)]
    for mask in range(1 << n):
        for b in iter_bits(~mask & (1 << n) - 1):
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


def _unfair_pair(n: int, levels: list[int]) -> FairnessVerdict:
    """The first (P, Q), P ascending and then Q, where G[P][Q] is not
    min(|Q|, alpha(P)). As G[P][Q] <= G[P][P] = alpha(P), a level that
    misses P holds no Q inside P; one that holds P must hold, inside P,
    exactly the Q with |Q| >= k: the diagonal bits P (2^n + 1), shifted down
    2^n - 1 and times 2^n ones, fill row P up to Q = P, free of carries as
    they lie 2^n + 1 apart. The lowest wrong bit is P 2^n + Q."""
    tables, width = _tables(n), 1 << n
    wrong = 0
    for level, big in zip(levels, tables.big):
        fair = ((level & tables.diagonal) >> width - 1) * ((1 << width) - 1) & big
        wrong |= (level & tables.big[0]) ^ fair
    if not wrong:
        return FairnessVerdict(True)
    P, Q = divmod((wrong & -wrong).bit_length() - 1, width)
    return FairnessVerdict(False, (colors_of(P), colors_of(Q)))


def check_fairness(adv: Adversary) -> FairnessVerdict:
    """Fairness: setcon(A|P,Q) == min(|Q|, setcon(A|P)) for all Q <= P.

    Returns the first violating (P, Q) in mask order as a witness.
    """
    return _unfair_pair(adv.n, _levels(adv))


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


def _members(s: Iterable[int]) -> frozenset[int]:
    """frozenset(s), its members checked as ints before True can merge into 1."""
    return frozenset(integer(c, "live-set member", AdversaryError) for c in s)


def make_superset_closed(n: int, minimal_sets: Iterable[Iterable[int]]) -> Adversary:
    universe = frozenset(range(1, integer(n, "n", AdversaryError) + 1))
    out: set[frozenset[int]] = set()
    for s in map(_members, minimal_sets):
        if not s or not s <= universe:
            raise AdversaryError(f"bad minimal set {sorted(s)} for n={n}")
        rest = sorted(universe - s)
        for k in range(len(rest) + 1):
            for extra in combinations(rest, k):
                out.add(s | frozenset(extra))
    return Adversary(n, frozenset(out))


def make_symmetric(n: int, sizes: Iterable[int]) -> Adversary:
    integer(n, "n", AdversaryError)
    sizes = sorted({integer(k, "size", AdversaryError) for k in sizes})
    if any(not 1 <= k <= n for k in sizes):
        raise AdversaryError(f"sizes {sizes} outside 1..{n}")
    out = {frozenset(c) for k in sizes
           for c in combinations(range(1, n + 1), k)}
    return Adversary(n, frozenset(out))


def make_t_resilient(n: int, t: int) -> Adversary:
    """Live sets are exactly the sets of size at least n - t."""
    if not integer(n, "n", AdversaryError) > integer(t, "t", AdversaryError) >= 0:
        raise AdversaryError(f"t={t} out of range 0..{n - 1}")
    return make_symmetric(n, range(n - t, n + 1))


def make_k_of(n: int, k: int) -> Adversary:
    """k-obstruction-free: all nonempty sets of size at most k."""
    if not integer(n, "n", AdversaryError) >= integer(k, "k", AdversaryError) >= 1:
        raise AdversaryError(f"k={k} out of range 1..{n}")
    return make_symmetric(n, range(1, k + 1))


def enumerate_adversaries(n: int) -> Iterator[Adversary]:
    """All 2^(2^n - 1) adversaries over 1..n, empty family included, with no
    budget (2^31 at n=5): the caller bounds it. `adv classify` is the bounded
    entry point; it refuses past `state_cap_from_env()`."""
    universe = range(1, integer(n, "n", AdversaryError) + 1)
    pool = [frozenset(c) for k in range(1, n + 1)
            for c in combinations(universe, k)]
    for mask in range(1 << len(pool)):
        yield Adversary(n, frozenset(
            s for i, s in enumerate(pool) if mask & (1 << i)))


# --- hitting sets ------------------------------------------------------------


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


def adversary_from_dict(data: dict) -> Adversary:
    """Read an adversary description, rejecting every non-integer n, t, k,
    size or live-set member instead of coercing it."""
    if not isinstance(data, dict):
        raise AdversaryError(
            f"adversary description must be a JSON object, got {type(data).__name__}")
    try:
        n = integer(data["n"], "n", AdversaryError)
        kind = data.get("kind", "explicit")
        if kind == "explicit":
            return Adversary(n, frozenset(map(_members, data["live_sets"])))
        if kind == "superset_closed":
            return make_superset_closed(n, data["live_sets"])
        if kind == "symmetric":
            return make_symmetric(n, data["sizes"])
        if kind == "t_resilient":
            return make_t_resilient(n, data["t"])
        if kind == "k_of":
            return make_k_of(n, data["k"])
    except KeyError as exc:
        raise AdversaryError(f"adversary description missing field {exc}") from exc
    except TypeError as exc:
        raise AdversaryError(f"malformed adversary description: {exc}") from exc
    raise AdversaryError(f"unknown adversary kind {data.get('kind')!r}")
