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
"""

from __future__ import annotations

from collections import Counter
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

# Both role assignments of the case table are tried when combining (the
# collision of two marked points does not order them); flip for calibration.
ROLE_SYMMETRIC = True


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
    outcomes = _case_outcomes(st.t1, st.t2, st.strength, inc.t1, inc.t2, inc.strength, r)
    if ROLE_SYMMETRIC:
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


def make_collection(s10=0, s11=0, s20=0, s21=0, w10=0) -> ModCollection:
    """Collection from catalogue-shaped counts."""
    c: Counter = Counter()
    if s10:
        c[ModType(1, 0, STRONG)] = s10
    if s11:
        c[ModType(1, 1, STRONG)] = s11
    if s20:
        c[ModType(2, 0, STRONG)] = s20
    if s21:
        c[ModType(2, 1, STRONG)] = s21
    if w10:
        c[ModType(1, 0, WEAK)] = w10
    return c


def collection_to_json(c: ModCollection, r: int) -> dict:
    doc: dict = {"r": r, "s": {}, "w": {}}
    for mt, n in sorted(c.items()):
        if n:
            doc["s" if mt.strength == STRONG else "w"][f"{mt.t1},{mt.t2}"] = n
    return doc


def collection_from_json(doc: dict) -> tuple[ModCollection, int]:
    c: Counter = Counter()
    for key, strength in (("s", STRONG), ("w", WEAK)):
        for ij, n in doc.get(key, {}).items():
            i, j = (int(x) for x in ij.split(","))
            if n < 0:
                raise CalculusError(f"negative count for {key}{ij}")
            if n:
                c[ModType(i, j, strength)] += n
    return c, int(doc["r"])


def _check_types(c: ModCollection, r: int) -> None:
    for mt, n in c.items():
        if n < 0:
            raise CalculusError(f"negative count for {mt}")
        if mt.t2 > mt.t1 or mt.t2 < 0 or mt.t1 > r - 1:
            raise CalculusError(f"type {mt} out of range for r = {r}")


def _accepting(state: AccState) -> bool:
    return state.t2 == 0 and state.strength == STRONG


# memo shared across calls: pure mathematics, never invalidated
_MEMO: dict = {}


def _erase_search(state: AccState, remaining: tuple, r: int):
    """Witness order (tuple of ModTypes) completing `remaining` from `state`,
    or None.  Memoized on the twist-free state and the remaining multiset."""
    if not remaining:
        return () if _accepting(state) else None
    key = (r, state.t1, state.t2, state.strength, remaining, ROLE_SYMMETRIC)
    hit = _MEMO.get(key, -1)
    if hit != -1:
        return hit
    found = None
    for i, (mt, n) in enumerate(remaining):
        rest = tuple(
            (m2, n2 - (1 if i2 == i else 0))
            for i2, (m2, n2) in enumerate(remaining)
            if n2 - (1 if i2 == i else 0) > 0
        )
        nxt = combine(state, mt, r)
        if nxt is None:
            continue
        tail = _erase_search(nxt, rest, r)
        if tail is not None:
            found = (mt,) + tail
            break
    _MEMO[key] = found
    return found


def is_erasable(c: ModCollection, r: int) -> tuple[bool, Optional[list[str]]]:
    """Search all specialization orders for one ending with t2 = 0 and a
    strongly general subspace.  Returns (verdict, witness order or None);
    the empty collection is vacuously erasable."""
    _check_types(c, r)
    items = tuple(sorted((mt, n) for mt, n in c.items() if n > 0))
    if not items:
        return True, []
    for i, (mt, n) in enumerate(items):
        rest = tuple(
            (m2, n2 - (1 if i2 == i else 0))
            for i2, (m2, n2) in enumerate(items)
            if n2 - (1 if i2 == i else 0) > 0
        )
        state = normalize(AccState(mt.t1, mt.t2, mt.strength, 0), r)
        if len(items) == 1 and n == 1:
            tail: Optional[tuple] = () if _accepting(state) else None
        else:
            tail = _erase_search(state, rest, r)
        if tail is not None:
            return True, [type_name(t) for t in (mt,) + tail]
    return False, None


def erasable_fast(c: ModCollection, r: int) -> bool:
    """Boolean-only entry point (used by the reduction rules)."""
    return is_erasable(c, r)[0]


def brute_force_erasable(c: ModCollection, r: int) -> bool:
    """Independent oracle: walk every distinct permutation of the multiset,
    no memoization.  Only for collections of total size <= 9."""
    _check_types(c, r)
    total = sum(n for n in c.values() if n > 0)
    if total > 9:
        raise TooLarge(f"collection of size {total} exceeds the factorial cap of 9")
    if total == 0:
        return True

    def rec(state: Optional[AccState], remaining: Counter) -> bool:
        if state is not None and not remaining:
            return _accepting(state)
        for mt in sorted(remaining):
            nxt = (
                normalize(AccState(mt.t1, mt.t2, mt.strength, 0), r)
                if state is None
                else combine(state, mt, r)
            )
            if nxt is None:
                continue
            remaining[mt] -= 1
            if remaining[mt] == 0:
                del remaining[mt]
            ok = rec(nxt, remaining)
            remaining[mt] += 1
            if ok:
                return True
        return False

    return rec(None, Counter({mt: n for mt, n in c.items() if n > 0}))


def erasable_under_all_orders(c: ModCollection, r: int) -> bool:
    """True when *every* specialization order succeeds (not just some)."""
    _check_types(c, r)
    total = sum(n for n in c.values() if n > 0)
    if total > 9:
        raise TooLarge(f"collection of size {total} exceeds the factorial cap of 9")
    if total == 0:
        return True

    def rec(state: Optional[AccState], remaining: Counter) -> bool:
        if state is not None and not remaining:
            return _accepting(state)
        for mt in sorted(remaining):
            nxt = (
                normalize(AccState(mt.t1, mt.t2, mt.strength, 0), r)
                if state is None
                else combine(state, mt, r)
            )
            if nxt is None:
                return False
            remaining[mt] -= 1
            if remaining[mt] == 0:
                del remaining[mt]
            ok = rec(nxt, remaining)
            remaining[mt] += 1
            if not ok:
                return False
        return True

    return rec(None, Counter({mt: n for mt, n in c.items() if n > 0}))
