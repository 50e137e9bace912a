"""The modification calculus: collapse a multiset of marked-point
modifications onto one accumulated modification, one point at a time.

A modification is summarized by three pieces of data: the ranks (t1, t2) of
the two twisting subspaces (t2 <= t1) and whether the larger one is strongly
or weakly linearly general.  Specializing a second marked point into the
first combines their data through one of five guarded cases (a)-(e); a
multiset is *erasable* when some specialization order keeps every step
inside the case table and ends with t2 = 0 and a strongly general subspace.

Rank bookkeeping: each case conserves twist*(r-1) + t1 + t2 (the Euler
characteristic of the accumulated modification), which is checked after
every combination step.

The search for an erasable order carries twist-free (t1, t2, strength)
states, since no case guard and no acceptance test reads the twist.  It
walks an explicit stack, so the recursion limit never bounds a
collection's size, and takes each step from `_step`, a cache of checked
`combine` results.  It memoizes every subproblem in `_MEMO` under one
flat key (r, t1, t2, strength, type, count, type, count, ...).  A solved
entry is the pair (first type, the rest's entry): it shares the child's
own memo value instead of copying its order, so the memo grows linearly
with the subproblems it holds.  `is_erasable` unrolls the chain once;
`erasable_fast` never does.  `combine`, `normalize` and the order-walking
oracles use neither the cache nor the memo.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from typing import NamedTuple, Optional

from .core import InvariantViolated

STRONG = "strong"
WEAK = "weak"


class CalculusError(ValueError):
    """A state or type outside what the calculus can represent."""


class TooLarge(ValueError):
    """Collection too large for factorial enumeration."""


class ModType(NamedTuple):
    t1: int
    t2: int
    strength: str = STRONG


class AccState(NamedTuple):
    t1: int
    t2: int
    strength: str
    twist: int = 0


# The five raw source shapes rule-generated collections are built from.
SOURCE_CATALOGUE = (
    ModType(1, 1, STRONG),
    ModType(2, 1, STRONG),
    ModType(2, 0, STRONG),
    ModType(1, 0, STRONG),
    ModType(1, 0, WEAK),
)

def type_name(mt: ModType) -> str:
    return f"{'s' if mt.strength == STRONG else 'w'}{mt.t1},{mt.t2}"


def weight(t1: int, t2: int, twist: int, r: int) -> int:
    return twist * (r - 1) + t1 + t2


def normalize(s: AccState, r: int) -> AccState:
    """Resolve full-rank subspaces into twists: while t1 = r - 1, the
    modification is a twist and the residual data is (t2, 0), strongly
    general."""
    if r < 3:
        raise CalculusError(f"calculus needs r >= 3, got r = {r}")
    t1, t2, strength, twist = s
    if t1 > r - 1 or t2 > t1 or t2 < 0:
        raise CalculusError(f"state {s} out of range for r = {r}")
    while t1 == r - 1:
        t1, t2, strength, twist = t2, 0, STRONG, twist + 1
    return AccState(t1, t2, strength, twist)


def _case_outcomes(a1, a2, astr, b1, b2, bstr, r):
    """All case-table outcomes for ordered data (a1, a2) and (b1, b2).

    Yields (t1, t2, strength, twist_increment).  Guards can overlap, but
    only at outcomes of equal rank (checked in combine); the strengths may
    differ and the best provable one wins.
    """
    k = r - 1
    both = STRONG if astr == STRONG and bstr == STRONG else WEAK
    out = []
    if a1 + b1 < k:
        out.append((a1 + b1, a2 + b2, both, 0))
    if a1 + b1 == k and a2 + b2 < k:
        out.append((a2 + b2, 0, STRONG, 1))
    if b2 == 0 and b1 + a2 <= k <= b1 + a1:
        out.append((a2 + a1 + b1 - k, 0, both, 1))
    if b1 + a2 < k and a1 + b2 == k:
        out.append((a2 + b1, 0, bstr, 1))
    if a1 + b2 == k and b1 + a2 == k:
        out.append((0, 0, STRONG, 2))
    return out


def combine(state: AccState, incoming: ModType, r: int) -> Optional[AccState]:
    """Specialize one more point into the accumulated state.

    Returns the combined, normalized state, or None when no case guard
    holds (a dead branch).  The incoming type is normalized first; any
    twist it sheds is carried over.
    """
    st = normalize(state, r)
    inc = normalize(AccState(incoming.t1, incoming.t2, incoming.strength, 0), r)
    # both role assignments: the collision of two marked points does not order them
    outcomes = _case_outcomes(st.t1, st.t2, st.strength, inc.t1, inc.t2, inc.strength, r)
    outcomes += _case_outcomes(inc.t1, inc.t2, inc.strength, st.t1, st.t2, st.strength, r)
    if not outcomes:
        return None
    ranks = {(t1, t2, dt) for t1, t2, _, dt in outcomes}
    if len(ranks) != 1:
        raise InvariantViolated(f"case guards disagree on rank: {outcomes}")
    t1, t2, dt = ranks.pop()
    strength = STRONG if any(o[2] == STRONG for o in outcomes) else WEAK
    result = normalize(AccState(t1, t2, strength, st.twist + inc.twist + dt), r)
    if weight(*result[:2], result.twist, r) != weight(st.t1, st.t2, st.twist, r) + weight(
        inc.t1, inc.t2, inc.twist, r
    ):
        raise InvariantViolated("rank conservation violated")
    return result


# ---------------------------------------------------------------------------
# collections and the search for an erasable order

ModCollection = Counter  # Counter[ModType]


# the types make_collection counts, in the order of its keywords
_COLLECTION_TYPES = (ModType(1, 0, STRONG), ModType(1, 1, STRONG), ModType(2, 0, STRONG), ModType(2, 1, STRONG), ModType(1, 0, WEAK))


def make_collection(s10=0, s11=0, s20=0, s21=0, w10=0) -> ModCollection:
    """Collection from catalogue-shaped counts; zero counts are left out."""
    c: Counter = Counter()
    for mt, n in zip(_COLLECTION_TYPES, (s10, s11, s20, s21, w10)):
        if n:
            c[mt] = n
    return c


def _check_types(c: ModCollection, r: int) -> None:
    if r < 3:
        raise CalculusError(f"calculus needs r >= 3, got r = {r}")
    for mt, n in c.items():
        if n < 0:
            raise CalculusError(f"negative count for {mt}")
        if mt.t2 > mt.t1 or mt.t2 < 0 or mt.t1 > r - 1:
            raise CalculusError(f"type {mt} out of range for r = {r}")


def _accepting(state: tuple) -> bool:
    """An AccState, or a twist-free (t1, t2, strength), that ends an order."""
    return state[1] == 0 and state[2] == STRONG


def _place(state: Optional[AccState], mt: ModType, r: int) -> Optional[AccState]:
    """The state after one more point: the first (state None) is only normalized."""
    if state is None:
        return normalize(AccState(mt.t1, mt.t2, mt.strength, 0), r)
    return combine(state, mt, r)


def _remove_one(remaining: tuple, i: int) -> tuple:
    """The sorted (type, count) multiset `remaining` less one copy of its i-th type."""
    mt, n = remaining[i]
    return remaining[:i] + (((mt, n - 1),) if n > 1 else ()) + remaining[i + 1 :]


@cache
def _step(r: int, t1: int, t2: int, strength: str, mt: ModType) -> Optional[tuple]:
    """The twist-free (t1, t2, strength) after combining `mt` into the state
    (t1, t2, strength), or None at a dead branch: one checked `combine` per
    distinct step.  No case guard reads the twist, so it is left out."""
    nxt = combine(AccState(t1, t2, strength, 0), mt, r)
    return None if nxt is None else nxt[:3]


# memo shared across calls: pure mathematics, never invalidated.  A key is
# (r, t1, t2, strength, type, count, type, count, ...), the types sorted; a
# value is None or the chain (first type, the rest's value), ending in ().
_MEMO: dict = {}
_OPEN = object()  # a memo miss: the subproblem has to be searched


def _subproblem(key: tuple, j: int, state: tuple) -> tuple:
    """The memo key after one copy of the type key[j] is placed and the
    twist-free state has become `state`."""
    n = key[j + 1]
    if n > 1:
        return (key[0], *state, *key[4:j], key[j], n - 1, *key[j + 2 :])
    return (key[0], *state, *key[4:j], *key[j + 2 :])


def _search_from(key: tuple) -> Optional[tuple]:
    """Witness chain completing the subproblem `key` (a `_MEMO` key): None,
    or (type placed next, the chain of the rest), ending in ().
    Depth-first over an explicit stack, so the collection's size is not
    bounded by the recursion limit; every opened subproblem is memoized when
    it closes.  A solved entry holds its first type and the child's own
    memo value, not a copy of the child's order, so each entry has a fixed
    size."""
    r, state = key[0], key[1:4]
    frames = []  # [memo key, its state, offset in the key of the type tried last]
    while True:
        # open the subproblem, unless it is answered at once
        if len(key) > 4:
            tail = _MEMO.get(key, _OPEN)
            if tail is _OPEN:
                frames.append([key, state, 2])
                tail = None
        else:
            tail = () if _accepting(state) else None
        # hand `tail` down the stack until a frame has another type to try
        while frames:
            frame = frames[-1]
            key, state, j = frame
            if tail is not None:
                tail = (key[j], tail)
            else:
                nxt = None
                for j in range(j + 2, len(key), 2):
                    nxt = _step(r, *state, key[j])
                    if nxt is not None:
                        break
                if nxt is not None:
                    frame[2] = j
                    key, state = _subproblem(key, j, nxt), nxt
                    break
            _MEMO[key] = tail
            frames.pop()
        else:
            return tail


def _erase_search(c: ModCollection, r: int) -> Optional[tuple]:
    """Witness chain (see `_search_from`) for the whole collection, or None;
    the first point placed is only normalized."""
    _check_types(c, r)
    flat = tuple(x for item in sorted((mt, n) for mt, n in c.items() if n > 0) for x in item)
    for j in range(0, len(flat), 2):
        mt = flat[j]
        first = normalize(AccState(mt.t1, mt.t2, mt.strength, 0), r)[:3]
        tail = _search_from(_subproblem((r, *first, *flat), j + 4, first))
        if tail is not None:
            return (mt, tail)
    return None if flat else ()


def is_erasable(c: ModCollection, r: int) -> tuple[bool, Optional[list[str]]]:
    """Search all specialization orders for one ending with t2 = 0 and a
    strongly general subspace.  Returns (verdict, witness order or None);
    the empty collection is vacuously erasable.  The witness chain is
    unrolled here, once."""
    chain = _erase_search(c, r)
    if chain is None:
        return False, None
    names = {mt: type_name(mt) for mt in c}  # once per distinct type
    order = []
    while chain:
        mt, chain = chain
        order.append(names[mt])
    return True, order


def erasable_fast(c: ModCollection, r: int) -> bool:
    """Boolean-only entry point (used by the reduction rules): the witness
    chain is never unrolled."""
    return _erase_search(c, r) is not None


def _walk_orders(c: ModCollection, r: int, quantifier) -> bool:
    """Independent oracle, no memoization: replay every distinct order of
    the multiset and ask whether `quantifier` (`any` or `all`) of them ends
    accepting; a dead branch counts as failing.  Only for collections of
    total size <= 9."""
    _check_types(c, r)
    items = tuple(sorted((mt, n) for mt, n in c.items() if n > 0))
    total = sum(n for _, n in items)
    if total > 9:
        raise TooLarge(f"collection of size {total} exceeds the factorial cap of 9")

    def rec(state: Optional[AccState], remaining: tuple) -> bool:
        if not remaining:
            return state is None or _accepting(state)
        return quantifier(
            nxt is not None and rec(nxt, _remove_one(remaining, i))
            for i, nxt in enumerate(_place(state, mt, r) for mt, _ in remaining)
        )

    return rec(None, items)


def brute_force_erasable(c: ModCollection, r: int) -> bool:
    """True when *some* specialization order succeeds (the oracle for
    is_erasable)."""
    return _walk_orders(c, r, any)


def erasable_under_all_orders(c: ModCollection, r: int) -> bool:
    """True when *every* specialization order succeeds (not just some)."""
    return _walk_orders(c, r, all)
