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

The search for an erasable order works on small ints.  At rank r a type,
or a twist-free state (no case guard and no acceptance test reads the
twist), is the code 2(t1*r + t2) + [weak], which sorts as (t1, t2,
strength) does; a state accepts when its code is 0 mod 2r.  The search
enters at the identity state (0, 0, strong), code 0, which accepts, and
from which `combine` places a type as `normalize` does.  It walks an
explicit stack, so the recursion limit never bounds a collection's size.
`_STEPS` holds one checked `combine` per distinct (r, state, type), the
first step included.  `_MEMO` holds every subproblem a search closed but
its own root, under the flat key (r, state, type, count, type, count, ...);
the whole collection's key is an ordinary one, which an earlier call may
have stored.  A solved entry is the pair (first type, the rest's entry):
it shares the child's own value, so the memo grows linearly.
`is_erasable` unrolls the chain once and names each type code from
`_NAMES[r]`, a plain dict filled from `type_name` on first use: at most
r(r+1) names, one per in-range type.
`erasable_fast` never unrolls.  `_check_types` is the one validating pass:
it refuses what the calculus cannot hold and gives the sorted (code, count)
items that both the search and the oracles start from.  The oracles
replay each order from the same identity state, through `combine` alone,
and use none of the tables.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
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


def _check_types(c: ModCollection, r: int) -> list:
    """The sorted (type code, count) items of `c`'s nonzero counts at rank
    r; a CalculusError for anything the calculus cannot hold."""
    if not isinstance(r, int):
        raise CalculusError(f"rank r = {r!r}: counts and ranks must be integers")
    if r < 3:
        raise CalculusError(f"calculus needs r >= 3, got r = {r}")
    items = []
    for mt, n in c.items():
        try:
            t1, t2, strength = mt
        except (TypeError, ValueError):
            raise CalculusError(f"type {mt!r} is not a triple (t1, t2, strength)") from None
        if not (isinstance(n, int) and isinstance(t1, int) and isinstance(t2, int)):
            raise CalculusError(f"type {mt} with count {n!r}: counts and ranks must be integers")
        if n < 0:
            raise CalculusError(f"negative count for {mt}")
        if t2 > t1 or t2 < 0 or t1 >= r or strength not in (STRONG, WEAK):
            raise CalculusError(f"type {mt} out of range for r = {r}")
        if n:
            items.append((_code(mt, r), n))
    items.sort()
    return items


def _code(mt: tuple, r: int) -> int:
    """The code at rank r of a type or a twist-free state (t1, t2, strength)."""
    return 2 * (mt[0] * r + mt[1]) + (mt[2] == WEAK)


def _decode(code: int, r: int) -> ModType:
    t1, t2 = divmod(code >> 1, r)
    return ModType(t1, t2, WEAK if code & 1 else STRONG)


class _Steps(dict):
    """(r, state, type) -> the state after the type is placed, or None at a
    dead branch: one checked `combine` per distinct step, made on first use."""

    def __missing__(self, key: tuple) -> Optional[int]:
        r, state, code = key
        nxt = combine(AccState(*_decode(state, r), 0), _decode(code, r), r)
        self[key] = nxt = None if nxt is None else _code(nxt, r)
        return nxt


_STEPS = _Steps()
_NAMES: dict = {}  # r -> {type code -> type_name}, each name made on first use

# memo shared across calls: pure mathematics, never invalidated.  A value is
# None or the chain (first type, the rest's value), ending in ().
_MEMO: dict = {}
_OPEN = object()  # a memo miss: the subproblem has to be searched


def _search_from(key: tuple) -> Optional[tuple]:
    """Witness chain completing the subproblem `key` (a `_MEMO` key), or None.
    Depth-first over an explicit stack; every opened subproblem but `key`
    itself is memoized when it closes, its value sharing the child's."""
    r, steps = key[0], _STEPS
    frames = []  # [memo key, offset in the key of the type tried last]
    while True:
        # open the subproblem, unless it is answered at once
        if len(key) > 2:
            tail = _MEMO.get(key, _OPEN)
            if tail is _OPEN:
                frames.append([key, 0])
                tail = None
        else:
            tail = None if key[1] % (2 * r) else ()
        # hand `tail` down the stack until a frame has another type to try
        while frames:
            frame = frames[-1]
            key, j = frame
            if tail is not None:
                tail = (key[j], tail)
            else:
                state, nxt = key[1], None
                for j in range(j + 2, len(key), 2):
                    nxt = steps[r, state, key[j]]
                    if nxt is not None:
                        break
                if nxt is not None:
                    frame[1] = j
                    key = list(key)
                    key[1], key[j + 1] = nxt, key[j + 1] - 1
                    if not key[j + 1]:
                        del key[j : j + 2]
                    key = tuple(key)
                    break
            frames.pop()
            if frames:
                _MEMO[key] = tail
        else:
            return tail


def _erase_search(c: ModCollection, r: int) -> Optional[tuple]:
    """The whole collection's witness chain of type codes, or None."""
    return _search_from((r, 0, *chain.from_iterable(_check_types(c, r))))


def is_erasable(c: ModCollection, r: int) -> tuple[bool, Optional[list[str]]]:
    """Search all specialization orders for one ending with t2 = 0 and a
    strongly general subspace.  Returns (verdict, witness order or None);
    the empty collection is vacuously erasable."""
    tail = _erase_search(c, r)
    if tail is None:
        return False, None
    names, order = _NAMES.setdefault(r, {}), []
    while tail:
        code, tail = tail
        order.append(names.get(code) or names.setdefault(code, type_name(_decode(code, r))))
    return True, order


def erasable_fast(c: ModCollection, r: int) -> bool:
    """Boolean-only entry point (used by the reduction rules): the witness
    chain is never unrolled."""
    return _erase_search(c, r) is not None


def _walk_orders(c: ModCollection, r: int, quantifier) -> bool:
    """Independent oracle, no memoization: replay every distinct order of
    the multiset from the identity state and ask whether `quantifier`
    (`any` or `all`) of them ends accepting; a dead branch counts as
    failing.  Only for collections of total size <= 9."""
    items = tuple((_decode(code, r), n) for code, n in _check_types(c, r))
    total = sum(n for _, n in items)
    if total > 9:
        raise TooLarge(f"collection of size {total} exceeds the factorial cap of 9")

    def rec(state: AccState, remaining: tuple) -> bool:
        if not remaining:
            return state.t2 == 0 and state.strength == STRONG
        return quantifier(
            (nxt := combine(state, mt, r)) is not None
            and rec(nxt, remaining[:i] + (((mt, n - 1),) if n > 1 else ()) + remaining[i + 1 :])
            for i, (mt, n) in enumerate(remaining)
        )

    return rec(AccState(0, 0, STRONG), items)


def brute_force_erasable(c: ModCollection, r: int) -> bool:
    """True when *some* specialization order succeeds (the oracle for
    is_erasable)."""
    return _walk_orders(c, r, any)


def erasable_under_all_orders(c: ModCollection, r: int) -> bool:
    """True when *every* specialization order succeeds (not just some)."""
    return _walk_orders(c, r, all)
