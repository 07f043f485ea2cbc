"""Exhaustive checker for the two-round snapshot protocol with a
criticality-gated wait phase.

Protocol per process, against shared write-once registers IS1[], IS2[] and
monotone counters Conc[]:

  1. propose the input to the first snapshot object, obtain a view
  2. write the view to IS1[i]
  3. wait until  crit or rank < conc, where (one atomic scan)
       crit = alpha(IS1[i]) > alpha(IS1[i] - {j : IS1[j] == IS1[i]})
       rank = |{j in IS1[i] : IS2[j] empty and IS1[j] != IS1[i]}|
       conc = max(alpha(IS1[i]), max_j Conc[j])
  4. propose IS1[i] to the second snapshot object, obtain a view
  5. write the view to IS2[i]
  6. if alpha(IS1[i]) > alpha(IS1[i] - {j : IS1[j] == IS1[i] and IS2[j] nonempty}):
       Conc[i] <- alpha(IS1[i])        (same atomic step)
     return IS2[i]

Snapshot objects are driven by the scheduler: an invocation joins the pending
set, and a commit event moves any nonempty pending subset into the next block;
a committed process's view is the union of all blocks up to its own. Crashes
are allowed from the moment a process's value is committed until it returns,
and their number stays below the adversary's agreement level of the (fixed)
participation set.

States pack into one int of 13 bits per process. Process i owns bits
13i to 13i+12: its progress (3 bits), crashed, Conc written, the index of
its round-one block (3 bits, 0 while uncommitted), the index of its
round-two block (3 bits), and its round-one and round-two pending bits.
The low 5 bits of a field are the process's slot.

Moves are read off the slot word, the slot bits of every field. The slots
fix both pending bits: i is pending in round r exactly when it has not
crashed and its progress is INV_r. So one table entry per distinct slot
word, built when first met, holds the step deltas in process order (with
their guard kinds when one is guarded), the crash deltas, and the
IS1-written, IS2-written, Conc-written and pending masks. Every move is the
state plus a delta, and commit deltas are cached per round, next block
index and pending mask. A round's blocks and views are decoded once per
distinct field of its block indices. Per state, only the guards of WROTE1
and WROTE2 processes read the round-one views and the largest Conc value.

The explorer walks next states alone (`next_states`); no table holds an
event. Two moves from one state never reach the same next state: a step
touches no block index and no crashed bit, a commit sets block indices, and
a crash sets the crashed bit. So `event` reads a move's event off the
fields that differ, and it runs only where a caller reads events:
`successors`, replays and traces.

None of these tables reads alpha: a slot word's entry depends on n, P and
the fault budget, a commit's deltas and a round's decode on n alone. So
each table is one dict per key (`_table`), filled on first use by every
model with that key and kept for the life of the process; a budget of |P|
or more is one key, since no more than |P| processes can crash.

Exploration is symmetry-reduced (the scalarset reduction of Ip & Dill 1996
and Emerson & Sistla 1996), with every count kept exact:

- Classes. Processes i, j of the participation set P are interchangeable
  when the swap (i j) keeps alpha the same on every subset of P. Composing
  alpha-preserving swaps preserves alpha, so this is an equivalence, and its
  classes are worked out once per model. Every guard reads alpha only on
  subsets of P, and the fault budget and the event kinds do not name a
  process, so relabeling a state by a permutation within the classes
  relabels its successors the same way.
- Signature. A process's signature is its 13-bit field. The signatures
  fix the state: each block is the set of processes carrying its index.
- Canonical form. Clearing a class's fields and writing its sorted
  signatures back, in ascending position, gives one representative per
  orbit, in one pass over each class's fields, O(n log n) per state. When
  every class is a singleton it is the state itself.
- Orbit size. A representative stands for prod over classes c of
  |c|! / prod(t! for each run of t equal signatures in c) concrete states,
  worked out while canonicalizing: a class whose signatures all differ
  contributes |c|!, computed once per class. `Exploration.state_count` is
  the sum of these sizes, so it counts concrete states, and so does the
  state cap.
- Terminals. Each terminal orbit is kept as (representative, orbit size);
  iterating `Exploration.terminals` expands them into their concrete
  states, ascending within an orbit. Stuckness and Chr Chr s membership
  relabel with the state, so `check_liveness` decides one state per orbit.
  So does `check_safety` when every swap of two processes of one class
  keeps the task's alpha on every subset of 1..n, for then R_A maps onto
  itself; otherwise it decides every concrete state. An orbit that violates is
  expanded, and each of its states is reported, so the reports list every
  offending concrete state in terminal order. Safety reads a terminal's
  returned views as Chr Chr s vertex codes (`output_codes`) and asks the
  task on them once per distinct output. R_A lies inside Chr Chr s, so an
  output it holds is safe; only for an output outside R_A is Chr Chr s
  asked, on codes (`chr2_code_complex`), its facet index built on the
  first such output.
- Traces. Each parent link keeps the parent representative and the
  concrete successor it moved to. `trace_to` decodes each link's event
  (`event`) and the permutation that carried the successor to its
  representative (`canonical`), and composes the permutations to relabel
  the events, so a trace replays to the concrete state asked for. A state
  whose links do not lead back to the initial state has no trace.

The same argument runs across participation sets in `sweep`, which
`check_model` and `simulate check` run. Colors a, b of 1..n share a class
when the swap (a b) keeps alpha on every subset of 1..n and maps any task
checked onto itself (`symmetric_under`), again an equivalence. Models with
one fault budget and the same number of members in each class are
relabelings of each other: equal state and terminal counts, and the same
number of violations. So only the first model of such a group is
explored; a later one takes its row and reports when it had no violation,
and is explored itself otherwise, since violations carry concrete states,
kept by their positions among the concrete terminals (`report.states`).
"""
from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from math import factorial
from typing import Callable, Iterable, Iterator, Sequence

from .adversary import Adversary, agreement_function
from .affine import AffineTask
from .bits import colors_of, integer, iter_bits, mask_of, submasks
from .reports import VerificationReport
from .subdivision import chr2_code_complex, chr2_codes, chr2_vertex, pack

DEFAULT_STATE_CAP = 10_000_000
STATE_CAP_ENV = "AFFINE_STATE_CAP"

# progress values (low 3 bits of each process slot)
IDLE, INV1, GOT1, WROTE1, INV2, GOT2, WROTE2, DONE = range(8)

# process i owns the 13-bit field from bit FIELD * i on; round r's block
# index sits 2 + 3r bits into it, and its pending bit is 1 << 10 + r
FIELD, SIGNATURE = 13, (1 << 13) - 1

# guard kinds of a step move: none, the wait rule, the Conc update
_GO, _WAIT, _FINISH = range(3)

# per progress value with a step: its guard kind and field delta. A step
# moves the process to its next progress value, and invoking a snapshot
# also sets that round's pending bit
_STEPS = {IDLE: (_GO, 1 + (1 << 11)), GOT1: (_GO, 1),
          WROTE1: (_WAIT, 1 + (1 << 12)), GOT2: (_GO, 1), WROTE2: (_FINISH, 1)}

# coarse program-counter names for traces and reports
PC_NAMES = {IDLE: "Init", INV1: "Init", GOT1: "Init", WROTE1: "Waiting",
            INV2: "Waiting", GOT2: "Waiting", WROTE2: "AfterIS2", DONE: "Done"}


class SimulationError(ValueError):
    pass


class StateCapExceeded(RuntimeError):
    pass


def _state_cap(cap: int) -> int:
    """The one rule for a state cap: an integer of at least 1."""
    if integer(cap, "state cap", SimulationError) < 1:
        raise SimulationError(f"state cap must be a positive integer, got {cap!r}")
    return cap


def state_cap_from_env() -> int:
    raw = os.environ.get(STATE_CAP_ENV)
    if raw is None:
        return DEFAULT_STATE_CAP
    try:
        return _state_cap(int(raw))
    except ValueError:  # SimulationError is one
        raise SimulationError(f"{STATE_CAP_ENV} must be a positive integer, got {raw!r}")


def wait_predicate(alpha_table: Sequence[int], V: int, same: int, is2w: int,
                   cmax: int) -> bool:
    """The wait-phase guard over one register snapshot, on masks. Pure.

    V is the caller's own view; same is the mask of the processes whose
    written IS1 equals V, is2w the mask of written IS2 registers, and cmax
    the largest Conc value written.
    """
    return (alpha_table[V] > alpha_table[V & ~same]
            or (V & ~is2w & ~same).bit_count() < max(alpha_table[V], cmax))


def finish_predicate(alpha_table: Sequence[int], V: int, same: int,
                     is2w: int) -> bool:
    """The concurrency-update guard at return time, on masks. Pure."""
    return alpha_table[V] > alpha_table[V & ~(same & is2w)]


@lru_cache(maxsize=None)
def _table(*key) -> dict:
    """The move table of one key, filled on first use by every model that
    shares it: ("moves", n, P mask, fault budget at most |P|), ("commits",
    n) or ("rounds", n). The keys are bounded, as n is."""
    return {}


def _interchangeable(members: Iterable[int],
                     keeps: Callable[[int, int], bool]) -> list[list[int]]:
    """The classes of members, in order, under keeps(a, b): whether the
    swap (a b) keeps what the caller relabels. Swaps that keep it compose,
    so this is an equivalence, and a member joins the first class whose
    first member it may be swapped with."""
    classes: list[list[int]] = []
    for b in members:
        for c in classes:
            if keeps(c[0], b):
                c.append(b)
                break
        else:
            classes.append([b])
    return classes


class Terminals:
    """The concrete terminal states of an exploration, held as
    (representative, orbit size) pairs in visiting order. `len()` is the
    number of concrete states; iterating expands each orbit with `expand`."""

    def __init__(self, orbits: list[tuple[int, int]],
                 expand: Callable[[int], Sequence[int]]):
        self.orbits = orbits
        self.expand = expand
        self._count = sum(size for _, size in orbits)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[int]:
        for rep, _ in self.orbits:
            yield from self.expand(rep)


@dataclass
class Exploration:
    participation: frozenset[int]
    fault_budget: int
    state_count: int
    terminals: Terminals
    # representatives visited, one per orbit; not part of row()
    orbits: int
    # representative -> (parent representative, the concrete successor of
    # the parent that canonicalizes to it); `trace_to` reads these
    parents: dict[int, tuple[int, int]] | None = None

    def row(self) -> dict:
        """The participation row every report of this exploration starts
        from: the set, the fault budget and the state and terminal counts."""
        return {"participation": sorted(self.participation),
                "fault_budget": self.fault_budget,
                "states": self.state_count,
                "terminals": len(self.terminals)}


class ProtocolModel:
    """State space of one participation set of one adversary."""

    def __init__(self, adv: Adversary, participation: Iterable[int] | None = None,
                 fault_budget: int | None = None,
                 max_states: int = DEFAULT_STATE_CAP):
        self.adv = adv
        self.n = adv.n
        self.alpha = agreement_function(adv)
        self.alpha_table = self.alpha.table
        part = frozenset(range(1, self.n + 1) if participation is None else
                         (integer(c, "participation member", SimulationError)
                          for c in participation))
        if not part <= frozenset(range(1, self.n + 1)):
            raise SimulationError(f"participation {sorted(part)} outside 1..{self.n}")
        self.participation = part
        self.pmask = mask_of(part)
        if self.alpha.of_mask(self.pmask) < 1:
            raise SimulationError(
                f"participation {sorted(part)} has agreement level 0; nothing can run")
        if fault_budget is None:
            fault_budget = self.alpha.of_mask(self.pmask) - 1
        if integer(fault_budget, "fault budget", SimulationError) < 0:
            raise SimulationError(f"fault budget must be >= 0, got {fault_budget}")
        self.fault_budget = fault_budget
        self.max_states = _state_cap(max_states)
        fields = [FIELD * i for i in range(self.n)]
        self._procs = tuple(iter_bits(self.pmask))
        # per round r, the bits of every block index; those bits of a state
        # -> (blocks, views, block of each process, packed views)
        self._index_bits = (0, *(sum(7 << f + 2 + 3 * r for f in fields)
                                 for r in (1, 2)))
        self._rounds: dict[int, tuple] = _table("rounds", self.n)
        # the interchangeability classes of P with two members or more: i
        # and j share one when the swap (i j) keeps alpha on every subset
        # of P
        self._classes = tuple(tuple(c) for c in _interchangeable(
            self._procs, lambda i, j: self.alpha.swap_keeps(i + 1, j + 1, self.pmask))
            if len(c) > 1)
        # per class: its members' field offsets, the complement of their
        # fields, and |c|!, the orbit factor of a class whose signatures
        # all differ
        self._forms = tuple(
            (shifts, ~sum(SIGNATURE << f for f in shifts), factorial(len(shifts)))
            for shifts in (tuple(fields[i] for i in c) for c in self._classes))
        # slot word -> its moves and registers (`_slot_entry`)
        self._slot_bits = sum(31 << f for f in fields)
        self._moves: dict[int, tuple] = _table(
            "moves", self.n, self.pmask, min(fault_budget, len(self._procs)))
        # (next block index << 2 | round) << n | pending mask -> commit
        # deltas
        self._commit_moves: dict[int, tuple[int, ...]] = _table("commits", self.n)

    # --- packed-state helpers -------------------------------------------

    def _prog(self, state: int, i: int) -> int:
        return state >> FIELD * i & 7

    def _round(self, state: int, r: int) -> tuple:
        """(blocks, per-process view mask, per-process block, packed views)
        of round r, rebuilt from the block indices; 0 for an uncommitted
        process. Decoded once per distinct field of round-r indices, which
        a round-one and a round-two field share only when empty."""
        n = self.n
        indices = state & self._index_bits[r]
        entry = self._rounds.get(indices)
        if entry is None:
            index = [indices >> FIELD * i + 2 + 3 * r & 7 for i in range(n)]
            blocks = [0] * max(index)
            for i, b in enumerate(index):
                if b:
                    blocks[b - 1] |= 1 << i
            views, group = [0] * n, [0] * n
            prefix = 0
            for blk in blocks:
                prefix |= blk
                for i in iter_bits(blk):
                    views[i], group[i] = prefix, blk
            entry = self._rounds[indices] = (tuple(blocks), tuple(views),
                                             tuple(group),
                                             pack(enumerate(views, 1)))
        return entry

    def decode(self, state: int) -> dict:
        """Readable snapshot of a packed state, for traces and debugging."""
        procs = {}
        fb, is1 = self._round(state, 1)[:2]
        sb = self._round(state, 2)[0]
        for i in self._procs:
            prog = self._prog(state, i)
            procs[i + 1] = {
                "pc": "Crashed" if state >> FIELD * i + 3 & 1 else PC_NAMES[prog],
                "progress": prog,
                "is1": sorted(colors_of(is1[i])) if prog >= WROTE1 else None,
                "is2_written": prog >= WROTE2,
                "conc": self.alpha_table[is1[i]] if state >> FIELD * i + 4 & 1 else 0,
            }
        return {
            "participation": sorted(self.participation),
            "first_blocks": [sorted(colors_of(b)) for b in fb],
            "second_blocks": [sorted(colors_of(b)) for b in sb],
            "first_pending": [i + 1 for i in self._procs if state >> FIELD * i + 11 & 1],
            "second_pending": [i + 1 for i in self._procs if state >> FIELD * i + 12 & 1],
            "processes": procs,
        }

    # --- symmetry -----------------------------------------------------------

    def _representative(self, state: int) -> tuple[int, int]:
        """(representative, orbit size): each class of the representative
        holds its members' signatures, their fields, sorted, in ascending
        position. A class whose signatures all differ contributes |c|!;
        only a class with tied signatures goes through `_orbit_size`."""
        rep, size = state, 1
        for shifts, unowned, full in self._forms:
            # explicit loops: on CPython 3.11 a comprehension is one more
            # function call, and this runs once per successor
            sigs = []
            for f in shifts:
                sigs.append(state >> f & SIGNATURE)
            order = sorted(sigs)
            if order != sigs:
                rep &= unowned
                for f, sig in zip(shifts, order):
                    rep |= sig << f
            size *= full if len(set(order)) == len(order) else self._orbit_size(order)
        return rep, size

    def _permutation(self, state: int) -> tuple[int, ...]:
        """pi carrying state to its representative, pi[i] being the new
        position of process i: within each class, the members ranked by
        signature, ties in member order."""
        perm = list(range(self.n))
        for c, (shifts, _, _) in zip(self._classes, self._forms):
            sigs = [state >> f & SIGNATURE for f in shifts]
            for pos, k in zip(c, sorted(range(len(c)), key=sigs.__getitem__)):
                perm[c[k]] = pos
        return tuple(perm)

    def canonical(self, state: int) -> tuple[int, tuple[int, ...]]:
        """(representative, pi) with the representative pi applied to
        state, pi[i] being the new position of process i."""
        return self._representative(state)[0], self._permutation(state)

    @staticmethod
    def _orbit_size(sigs: list[int]) -> int:
        """|c|! / prod(t!) over the runs of t equal signatures among one
        class's sorted signatures."""
        size = factorial(len(sigs))
        run = 1
        for k in range(1, len(sigs)):
            run = run + 1 if sigs[k] == sigs[k - 1] else 1
            size //= run
        return size

    def orbit_states(self, rep: int) -> list[int]:
        """Every concrete state of rep's orbit, ascending: the distinct
        arrangements of each class's signatures over its members' fields,
        combined across the classes."""
        base = rep
        for _, unowned, _ in self._forms:
            base &= unowned
        per_class = [{sum(sig << f for f, sig in zip(shifts, arrangement))
                      for arrangement in permutations([rep >> f & SIGNATURE
                                                       for f in shifts])}
                     for shifts, _, _ in self._forms]
        return sorted(base + sum(parts) for parts in product(*per_class))

    @staticmethod
    def _relabel(event: tuple, perm: Sequence[int]) -> tuple:
        """event with process i + 1 renamed perm[i] + 1."""
        kind, who = event
        if kind in ("commit1", "commit2"):
            return (kind, sorted(perm[c - 1] + 1 for c in who))
        return (kind, perm[who - 1] + 1)

    # --- transitions ------------------------------------------------------

    def initial_state(self) -> int:
        return 0

    def _slot_entry(self, word: int) -> tuple:
        """The moves and registers of every state whose slot word is word:
        (step moves (guard, process, delta) in process order when one is
        guarded, else (), step deltas in process order, the Conc-written
        processes, IS1-written, IS2-written, round-one and round-two
        pending masks, crash deltas). The slots fix the pending masks: i
        is pending in round r exactly when it has not crashed and its
        progress is INV_r. A crashed process has no move; a step is read
        off `_STEPS`; a crash sets the crashed bit and, from INV2, clears
        the pending bit, and only GOT1..WROTE2 may crash. There is no
        crash move once the fault budget is spent."""
        steps, conc, crashes = [], [], []
        is1w = is2w = fpend = spend = crashed = guarded = 0
        for i in self._procs:
            f = FIELD * i
            slot, bit = word >> f & 31, 1 << i
            p = slot & 7
            if p >= WROTE1:
                is1w |= bit
                if p >= WROTE2:
                    is2w |= bit
            if slot & 16:
                conc.append(i)
            if slot & 8:
                crashed |= bit
                continue
            if p == INV1:
                fpend |= bit
            elif p == INV2:
                spend |= bit
            step = _STEPS.get(p)
            if step:
                steps.append((step[0], i, step[1] << f))
                guarded |= step[0]
            if GOT1 <= p <= WROTE2:
                crashes.append((8 - (1 << 12 if p == INV2 else 0)) << f)
        if crashed.bit_count() >= self.fault_budget:
            crashes = []
        entry = self._moves[word] = (
            tuple(steps) if guarded else (), tuple(delta for _, _, delta in steps),
            tuple(conc), is1w, is2w, fpend, spend, tuple(crashes))
        return entry

    def next_states(self, state: int) -> tuple[list[int], bool]:
        """(next states, terminal): steps in process order, commits of
        round one then round two, crashes last; terminal when no move but
        crashes is enabled.

        Every move adds its delta to the state; the moves are read off the
        state's slot word (`_slot_entry`), and only the guards of WROTE1 and
        WROTE2 processes read the rest of the state."""
        word = state & self._slot_bits
        (guarded, steps, conc, is1w, is2w, fpend, spend,
         crashes) = self._moves.get(word) or self._slot_entry(word)
        if guarded:
            alpha = self.alpha_table
            _, is1, group, _ = self._round(state, 1)
            # the largest Conc value written
            cmax = max(map(alpha.__getitem__, map(is1.__getitem__, conc))) if conc else 0
            out = []
            for kind, i, delta in guarded:
                if kind == _WAIT:
                    if not wait_predicate(alpha, is1[i], group[i] & is1w, is2w, cmax):
                        continue
                elif kind == _FINISH and finish_predicate(alpha, is1[i],
                                                          group[i] & is1w, is2w):
                    delta += 16 << FIELD * i
                out.append(state + delta)
        else:
            out = list(map(state.__add__, steps))
        terminal = not (out or fpend or spend)
        if fpend:
            out += map(state.__add__, self._commit_deltas(state, fpend, 1))
        if spend:
            out += map(state.__add__, self._commit_deltas(state, spend, 2))
        if crashes:
            out += map(state.__add__, crashes)
        return out, terminal

    def _commit_deltas(self, state: int, pending: int, r: int) -> tuple[int, ...]:
        """The deltas of the commits of round r, one per nonempty subset of
        its pending mask, ascending: each gives its members the round's
        next block index, clears their pending bits and moves them one
        progress step on. Built once per (round, next block index, pending
        mask)."""
        index = len(self._round(state, r)[0]) + 1
        key = (index << 2 | r) << self.n | pending
        deltas = self._commit_moves.get(key)
        if deltas is None:
            # one member's field delta
            delta = (index << 2 + 3 * r) - (1 << 10 + r) + 1
            deltas = self._commit_moves[key] = tuple(
                sum(delta << FIELD * i for i in iter_bits(block))
                for block in submasks(pending)[1:])
        return deltas

    def event(self, state: int, nxt: int) -> tuple:
        """The event of the move from state to its next state nxt, read off
        the fields that differ: a round-r block index set is a commit of
        round r by the processes whose fields changed, else the one mover's
        crashed bit set is a crash, and anything else is its step. No two
        moves from one state reach the same next state, so this is the
        move's event."""
        changed = state ^ nxt
        if changed & self._index_bits[1]:
            kind = "commit1"
        elif changed & self._index_bits[2]:
            kind = "commit2"
        else:
            # a step or a crash changes its mover's field alone
            i = (changed.bit_length() - 1) // FIELD
            return ("crash" if changed >> FIELD * i + 3 & 1 else "step", i + 1)
        return (kind, [i + 1 for i in self._procs if changed >> FIELD * i & SIGNATURE])

    def successors(self, state: int) -> list[tuple[tuple, int]]:
        """(event, next_state) pairs in the order of `next_states`, each
        event decoded by `event`."""
        event = self.event
        return [(event(state, nxt), nxt) for nxt in self.next_states(state)[0]]

    def apply_event(self, state: int, event: tuple) -> int:
        """Replay one event, validating its process ids and that it is enabled."""
        kind = event[0]
        want: tuple
        if kind in ("commit1", "commit2"):
            want = (kind, sorted(integer(x, "block member", SimulationError)
                                 for x in event[1]))
        elif kind in ("step", "crash"):
            want = (kind, integer(event[1], "process", SimulationError))
        else:
            raise SimulationError(f"unknown event kind {kind!r}")
        for ev, s2 in self.successors(state):
            if ev == want:
                return s2
        raise SimulationError(f"event {want!r} is not enabled")

    # --- exploration -----------------------------------------------------

    def explore(self, track_parents: bool = False) -> Exploration:
        """Breadth-first over representatives, walking next states alone;
        counts are concrete, and terminals are kept per orbit (see the
        module docstring). With track_parents, each new representative
        links to its parent representative and the concrete successor
        that reached it, for `trace_to`."""
        init = self.initial_state()
        orbit: dict[int, int] = {init: 1}  # representative -> orbit size
        state_count = 1
        parents: dict[int, tuple[int, int]] | None = {} if track_parents else None
        terminals: list[tuple[int, int]] = []
        queue = deque([init])
        next_states, representative = self.next_states, self._representative
        push, cap = queue.append, self.max_states
        while queue:
            state = queue.popleft()
            succ, terminal = next_states(state)
            if terminal:
                terminals.append((state, orbit[state]))
            for s2 in succ:
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
                        f"(participation {sorted(self.participation)})")
                if parents is not None:
                    parents[rep] = (state, s2)
                push(rep)
        return Exploration(participation=self.participation,
                           fault_budget=self.fault_budget,
                           state_count=state_count,
                           terminals=Terminals(terminals, self.orbit_states),
                           orbits=len(orbit), parents=parents)

    def trace_to(self, state: int, parents: dict[int, tuple[int, int]]) -> list[tuple]:
        """Events from the initial state to the concrete state, along the
        parent links of an exploration of this model. Walking the links
        back from state's representative, each link's event is decoded
        (`event`) and relabeled by the inverse of state's canonical
        permutation composed with the permutations that carried each
        successor met so far to its representative. Raises SimulationError
        when the links do not lead back to the initial state: state was
        not reached, or the links are another model's."""
        rep = self._representative(state)[0]
        rho = [0] * self.n
        for i, pos in enumerate(self._permutation(state)):
            rho[pos] = i
        events = []
        while rep in parents:
            parent, succ = parents[rep]
            if succ != rep:  # else the permutation is the identity
                rho = [rho[j] for j in self._permutation(succ)]
            events.append(self._relabel(self.event(parent, succ), rho))
            rep = parent
        if rep != self.initial_state():
            raise SimulationError(f"no trace to state {state}: its parent links "
                                  f"end at state {rep}, not the initial state")
        return events[::-1]

    # --- terminal-state interpretation ------------------------------------

    def output_codes(self, state: int) -> tuple[int, ...]:
        """The vertex codes (`chr2_codes`) of the returned views, in process
        order: each returned process's color and round-two view over the
        packed round-one views."""
        blocks, _, _, views1 = self._round(state, 1)
        spfx = self._round(state, 2)[1]
        done = []
        for i in self._procs:
            if self._prog(state, i) == DONE:
                if spfx[i] & ~sum(blocks):
                    raise SimulationError("a returned process saw a process "
                                          "without a round-one view")
                done.append((i + 1, spfx[i]))
        return tuple(chr2_codes(views1, done))


# --- sweeps over participation sets -------------------------------------------


def valid_participations(adv: Adversary) -> list[frozenset[int]]:
    """Every participation set the adversary lets run (agreement level >= 1)."""
    alpha = agreement_function(adv)
    out = []
    for mask in range(1, 1 << adv.n):
        if alpha.of_mask(mask) >= 1:
            out.append(colors_of(mask))
    return sorted(out, key=lambda P: (len(P), sorted(P)))


def _check_orbits(report: VerificationReport, terminals: Terminals,
                  violation: Callable[[int], dict | None],
                  symmetric: bool) -> None:
    """Add every terminal state that violates to report, under its position
    among the terminals; violation(state) gives its fields, or None.

    When symmetric, a state violates exactly when its orbit's
    representative does, so an orbit whose representative passes counts its
    size at once; any other orbit is decided state by state."""
    for rep, size in terminals.orbits:
        if symmetric and violation(rep) is None:
            report.checked += size
            continue
        for state in terminals.expand(rep):
            found = violation(state)
            if found is not None:
                report.add(**found)
                report.states[report.checked] = state
            report.checked += 1


def check_liveness(model: ProtocolModel, exploration: Exploration) -> VerificationReport:
    """No reachable quiescent state may strand a non-crashed process.

    report.states holds the stuck terminal states by position. Stuckness
    relabels with the state, so one state per orbit is decided.
    """
    _require_own(model, exploration)
    report = VerificationReport(kind="liveness", info=exploration.row())

    def violation(state: int) -> dict | None:
        stuck = [i + 1 for i in model._procs
                 if not state >> FIELD * i + 3 & 1 and model._prog(state, i) != DONE]
        return dict(stuck=stuck, state=model.decode(state)) if stuck else None

    _check_orbits(report, exploration.terminals, violation, symmetric=True)
    return report


def _require_task_n(task: AffineTask, n: int) -> None:
    if task.n != n:
        raise SimulationError(f"task {task.name} is over n={task.n}, "
                              f"the model over n={n}")


def _require_own(model: ProtocolModel, exploration: Exploration) -> None:
    """A check reads its model's own exploration: its participation set
    and fault budget."""
    got, want = ((sorted(x.participation), x.fault_budget) for x in (exploration, model))
    if got != want:
        raise SimulationError(f"exploration of participation {got[0]} at fault "
                              f"budget {got[1]}, the model of {want[0]} at {want[1]}")


def _task_symmetric(model: ProtocolModel, task: AffineTask) -> bool:
    """Whether the task's facets are closed under the swap of every two
    adjacent members of each class of the model; these swaps generate every
    relabeling within the classes."""
    return all(task.symmetric_under(a + 1, b + 1)
               for c in model._classes for a, b in zip(c, c[1:]))


def check_safety(model: ProtocolModel, exploration: Exploration,
                 task: AffineTask) -> VerificationReport:
    """Returned views of every quiescent state form a face of the task.

    report.states holds the unsafe terminal states by position. One state
    per orbit is decided when the task's facets are closed under every
    swap of two interchangeable processes of the model, else every state.
    The task lies inside Chr Chr s, as R_A does, so Chr Chr s is asked, on
    codes (`chr2_code_complex`, its index built on the first ask), only for
    an output outside the task.
    """
    _require_task_n(task, model.n)
    _require_own(model, exploration)
    symmetric = _task_symmetric(model, task)
    report = VerificationReport(kind="safety", info=exploration.row())
    # per output's vertex codes: whether it lies in Chr Chr s when it is
    # unsafe, else None
    unsafe: dict[tuple[int, ...], bool | None] = {}
    chr2 = chr2_code_complex(model.n)

    def violation(state: int) -> dict | None:
        codes = model.output_codes(state)
        if codes not in unsafe:
            unsafe[codes] = None if task.holds(codes) else chr2.holds(codes)
        if unsafe[codes] is None:
            return None
        return dict(outputs=sorted(chr2_vertex(c).uid for c in codes),
                    in_subdivision=unsafe[codes], state=model.decode(state))

    _check_orbits(report, exploration.terminals, violation, symmetric)
    return report


def sweep(models: Sequence[ProtocolModel], task: AffineTask | None,
          track_parents: bool = False,
          ) -> Iterator[tuple[dict, list[VerificationReport], Exploration | None]]:
    """(row, reports, exploration) per model of one adversary, in order:
    safety against task, when one is given, then liveness. A model whose
    fault budget and members per class (colors whose swaps keep alpha and
    the task) an earlier clean model had takes its row and reports under
    its own participation, with exploration None (see the module
    docstring)."""
    if not models:
        return
    n, alpha = models[0].n, models[0].alpha
    if task is not None:
        _require_task_n(task, n)
    classes = [mask_of(c) for c in _interchangeable(range(1, n + 1), lambda a, b: (
        alpha.swap_keeps(a, b, (1 << n) - 1)
        and (task is None or task.symmetric_under(a, b))))]
    # key -> (row, reports) of the first model so keyed, if it was clean
    clean: dict[tuple[int, ...], tuple[dict, list[VerificationReport]]] = {}
    for model in models:
        key = (model.fault_budget, *((model.pmask & c).bit_count() for c in classes))
        if key in clean:
            row, reports = clean[key]
            P = sorted(model.participation)
            yield ({**row, "participation": P},
                   [VerificationReport(r.kind, r.checked,
                                       info={**r.info, "participation": P})
                    for r in reports], None)
            continue
        exploration = model.explore(track_parents)
        reports = [] if task is None else [check_safety(model, exploration, task)]
        reports.append(check_liveness(model, exploration))
        row = exploration.row()
        yield row, reports, exploration
        if all(r.ok for r in reports):
            clean[key] = (row, reports)


def check_model(adv: Adversary, task: AffineTask,
                max_states: int = DEFAULT_STATE_CAP,
                ) -> tuple[VerificationReport, VerificationReport, list[dict]]:
    """Safety + liveness per valid participation set, at its default budget,
    through `sweep`: aggregated (safety, liveness) reports and the rows, in
    `valid_participations` order."""
    _require_task_n(task, adv.n)
    models = [ProtocolModel(adv, participation=P, max_states=max_states)
              for P in valid_participations(adv)]
    safety = VerificationReport(kind="safety")
    liveness = VerificationReport(kind="liveness")
    rows = []
    for row, (safe, live), _ in sweep(models, task):
        for total, report in ((safety, safe), (liveness, live)):
            total.checked += report.checked
            total.violations.extend(report.violations)
        rows.append({**row, "safety_violations": len(safe.violations),
                     "liveness_violations": len(live.violations)})
    safety.info["participations"] = len(rows)
    liveness.info["participations"] = len(rows)
    return safety, liveness, rows


# --- traces ----------------------------------------------------------------------


def events_to_jsonable(events: Iterable[tuple]) -> list[dict]:
    out = []
    for ev in events:
        if ev[0] in ("commit1", "commit2"):
            out.append({"type": ev[0], "block": list(ev[1])})
        else:
            out.append({"type": ev[0], "process": ev[1]})
    return out


def events_from_jsonable(items: Iterable[dict]) -> list[tuple]:
    """Trace events as tuples, nothing coerced; `apply_event` checks them."""
    out = []
    for item in items:
        kind = item.get("type")
        if kind not in ("commit1", "commit2", "step", "crash"):
            raise SimulationError(f"unknown trace event {item!r}")
        field = "process" if kind in ("step", "crash") else "block"
        if field not in item:
            raise SimulationError(f"trace event {item!r} missing field {field!r}")
        out.append((kind, item[field] if field == "process" else list(item[field])))
    return out


def replay(model: ProtocolModel, events: Iterable[tuple]) -> int:
    state = model.initial_state()
    for ev in events:
        state = model.apply_event(state, ev)
    return state
