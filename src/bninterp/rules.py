"""Reduction rules: checked implications from one tuple to subgoal tuples.

The rules are moves in P^r for r >= 3; rank <= 2 is the SmallR base case,
and the enumerators give nothing there.  Each rule states the hypotheses
of its inductive argument, the subgoals they imply and the RuleParams
fields it reads; the three rules with twist heights share one hypothesis
block, which implies ell-bar >= 0 without a clause for it.  `apply` raises
a parameter set other than those fields, then r < 3, then the first
violated hypothesis, as PreconditionViolated and otherwise returns the
subgoals; `verify_certificate` trusts it.  The rule layer never decides
whether a subgoal "holds": that is the caller's.

All delta-window comparisons |delta - X| <= 1 - c/(r-1) are evaluated in
cross-multiplied integer form |N - X(r-1)| <= (r-1) - c, where N is the
integer numerator of delta over the fixed denominator r - 1.

The multiset (n_1, ..., n_m') of twist heights is carried only through its
sum: the subgoal depends on sum_n alone, each n_i is confined to
{2 <= n_i <= r-1, n_i congruent to r-1 mod 2}, and whether a height 2 can
be avoided (forbidden when the subgoal sits on the degree-(r+1) elliptic
boundary) is a function of (m', sum_n).  This collapses an exponential
search to a linear one without changing the reachable subgoal set.

Enumeration contract.  `enumerate_instances` yields a rule's instances in
canonical (lexicographic parameter) order, each a RuleParams -- the one
form of a rule instance from enumerator to certificate -- with its
subgoals.  Every window margin is below r - 1, so a window admits at most
two consecutive centres X, and only one of them has the parity the
parameters force.  A rule with at most one instance computes its free
parameter from the tuple (eps from the window centre, k = (r-1)//2, or
none) and is one function (t, p), the code `apply` runs: its hypotheses in
order, the first violated one returned as a string, then its subgoals.  So
it is its own guard and runs before the caller's `accept`.  A rule with
many instances (the master family, master-erasable) has an enumerator that
solves the guard: the centre confines d' to a closed-form interval, and
only that interval is visited.  The enumerator builds each candidate's
subgoals from its loop state, and they go to `accept` first; the rule's
check runs alone, on the candidates `accept` kept, so rejected candidates
are never validated and no subgoal is built twice.  That is why these
rules keep their check apart from their subgoal formula, and `apply` runs
the one, then the other.  A kept candidate that fails the check is a
defect in its enumerator and raises InvariantViolated.

Master-family contract.  The master family has one walk, which starts
each (ell', m') cell at the least d' whose first subgoal s meets two of
goodness's clauses, 2 s.ell <= s.r and s.m <= rho(s), and skips in closed
form the cells whose d' run is then empty (see `_master_family_candidates`).
So it offers the instances `apply` accepts whose first subgoal meets both;
`apply` asks neither.  Every built-in axiom meets both, and an extra axiom
that fails one is never a master-family first subgoal.  `first_instance`
is the first instance `enumerate_instances` yields.  The sweeps and
`certify` try on a tuple only the rules whose guard its shape can meet,
from the rule tables in `prover`.  A rule left out has no instance there,
so `certify` builds the certificates a search over every rule would.
"""

from __future__ import annotations

from enum import Enum
from functools import partial
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Optional

from .core import InvariantViolated, Tuple, _new, delta_numerator, is_good
from .erase import erasable_fast, make_collection


class PreconditionViolated(ValueError):
    """A hypothesis of the invoked rule fails; `reason` names the first one."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class RuleId(Enum):
    MASTER = "master"
    MASTER_111 = "master-111"
    GATHER_LINES = "gather-lines"
    PEEL_ONION = "peel-onion"
    PANCAKE_ONIONS = "pancake-onions"
    TWO_PROJ = "two-proj"
    DELTA_5 = "delta-5"
    M0_DELTA_2 = "m0-delta-2"
    M0_DELTA_35 = "m0-delta-35"
    M0_DELTA_4 = "m0-delta-4"
    MASTER_ERASABLE = "master-erasable"
    DELTA_1_STEP = "delta-1-step"

    # members are singletons, so identity is equality; Enum's own hash
    # goes through a Python-level method on every dict lookup
    __hash__ = object.__hash__


class RuleParams(NamedTuple):
    """Integer parameters of a rule instance: the fields its rule reads, as
    `apply` checks.  Immutable: `_replace` gives a changed copy."""

    ell_prime: Optional[int] = None
    m_prime: Optional[int] = None
    m_dprime: Optional[int] = None
    d_prime: Optional[int] = None
    g_prime: Optional[int] = None
    eps_in: Optional[int] = None
    eps_out: Optional[int] = None
    sum_n: Optional[int] = None
    any_ni_is_2: bool = False
    eps: Optional[int] = None
    k: Optional[int] = None

    def to_json(self) -> dict:
        if self == _NO_PARAMS:  # most rules' params, at one comparison
            return {}
        doc = {}
        for name, v in zip(self._fields, self):
            if name == "any_ni_is_2":
                if self.sum_n is not None:
                    doc[name] = v
            elif v is not None:
                doc[name] = v
        return doc

    @classmethod
    def from_json(cls, doc) -> "RuleParams":
        """The inverse of `to_json`; a ValueError naming the first key or value it refuses."""
        if not isinstance(doc, dict):
            raise ValueError(f"params must be an object, got {doc!r}")
        for key, v in doc.items():
            if key not in cls._fields:
                raise ValueError(f"unknown parameter {key!r}")
            want = bool if key == "any_ni_is_2" else int
            if type(v) is not want:
                raise ValueError(f"parameter {key} must be {want.__name__}, got {v!r}")
        return _new(cls, map(doc.get, cls._fields, _NO_PARAMS)) if doc else _NO_PARAMS


_NO_PARAMS = RuleParams()


# ---------------------------------------------------------------------------
# shared hypotheses


def _bar_ell(ell: int, ell_prime: int, m_prime: int, sum_n: int, r: int) -> int:
    # (r-1)m' - sum_n is even once the parity hypothesis holds
    return ell - ell_prime + ((r - 1) * m_prime - sum_n) // 2


def _window_missed(t: Tuple, x: int, margin: int) -> bool:
    return abs(delta_numerator(t) - x * (t.r - 1)) > margin


def _window_centre(n: int, k: int, margin: int, parity: int) -> Optional[int]:
    """The window centre X of the given parity with |n - Xk| <= margin, or
    None.  With 0 <= margin < k the window holds at most two consecutive
    integers, so at most one of each parity."""
    x = -((margin - n) // k)  # ceil((n - margin) / k)
    if (x - parity) % 2:
        x += 1
    return x if x * k - n <= margin else None


# ---------------------------------------------------------------------------
# the rules: one function each, or a check and a subgoal formula


def _check_twisted_heights(t: Tuple, p: RuleParams, gp: int) -> Optional[str]:
    """The hypotheses master, master-111 and master-erasable share, at the
    subgoal genus g' (g' = g for the master family)."""
    d, g, r, ell, m = t
    lp, mp, dp, sn = p.ell_prime, p.m_prime, p.d_prime, p.sum_n
    if not 0 <= lp <= ell:
        return "ell' out of range"
    if r == 3 and mp != 0:
        return "m' must be 0 when r = 3"
    if not gp + r <= dp <= d - g + gp:
        return "d' out of range"
    if gp == 0 and m != 0 and dp <= gp + r:
        return "d' must exceed g' + r when g' = 0 and m > 0"
    # Some multiset of m' heights n_i has the stated sum, parity, range and
    # 2-usage.  No clause for ell-bar = (ell - ell') + ((r-1)m' - sum_n)/2 >=
    # 0: every sum_n admitted below is at most (r-1)m' (with a height 2,
    # 2 + (r-1)(m'-1) <= (r-1)m' as r >= 3), and ell' <= ell.  The tests
    # check this implication over the shell for r 3-20.
    any2 = p.any_ni_is_2
    if mp == 0:
        if sn != 0:
            return "sum_n nonzero with no twist heights"
        if any2:
            return "any_ni_is_2 set with no twist heights"
        return None
    if sn % 2 != (mp * (r - 1)) % 2:
        return "sum_n parity mismatch"
    if r % 2 == 1:  # heights even, from {2, 4, ..., r-1}
        if any2:
            if dp == r + 1 and gp == 1:
                return "height 2 forbidden on the elliptic boundary"
            if not 2 + 2 * (mp - 1) <= sn <= 2 + (r - 1) * (mp - 1):
                return "sum_n out of range for a multiset containing 2"
        elif not 4 * mp <= sn <= (r - 1) * mp:
            return "sum_n out of range for heights >= 4"
    else:  # heights odd, from {3, 5, ..., r-1}
        if any2:
            return "heights are odd, none can be 2"
        if not 3 * mp <= sn <= (r - 1) * mp:
            return "sum_n out of range for odd heights"
    return None


def _check_master_family(offset: int, t: Tuple, p: RuleParams) -> Optional[str]:
    """Master (offset 0) and Master-111 (offset 1, strict forms m' < m and
    2m' + ell' < r - 2)."""
    why = _check_twisted_heights(t, p, t.g)
    if why is not None:
        return why
    lp, mp, r = p.ell_prime, p.m_prime, t.r
    if not 0 <= mp <= t.m - offset:
        return "m' must be strictly below m" if offset else "m' out of range"
    if 2 * mp + lp > r - 2 - offset:
        return "2m' + ell' must be strictly below r - 2" if offset else "2m' + ell' exceeds r - 2"
    if _window_missed(t, offset + lp + 2 * (t.d - p.d_prime) + p.sum_n, r - 2):
        return "delta window missed"
    return None


def _master_goals(t: Tuple, dp: int, lbar: int, mbar: int) -> list[Tuple]:
    return [_new(Tuple, (dp - 1, t.g, t.r - 1, lbar, mbar))]


def _master_111_goals(t: Tuple, dp: int, lbar: int, mbar: int) -> list[Tuple]:
    g, r = t.g, t.r
    return [
        _new(Tuple, (dp - 1, g, r - 1, lbar, mbar)),
        _new(Tuple, (dp - 1, g, r - 1, lbar, mbar - 1)),
        _new(Tuple, (dp - 2, g, r - 2, lbar, mbar)),
    ]


def _goals_master_family(formula: Callable, t: Tuple, p: RuleParams) -> list[Tuple]:
    lbar = _bar_ell(t.ell, p.ell_prime, p.m_prime, p.sum_n, t.r)
    return formula(t, p.d_prime, lbar, t.m - p.m_prime)


def _erasable_collection(t: Tuple, lp: int, mp: int, mpp: int, gp: int, eout: int):
    return make_collection(
        s10=lp + t.m - mp - mpp, s11=eout, s20=mp, s21=t.g - gp, w10=mpp
    )


def _erasable_base(t: Tuple, lp: int, mp: int, mpp: int, gp: int, eout: int) -> int:
    """Master-erasable's window centre less 2 eps_in + sum_n: (g - g') + m''
    + ell' + w // (r-1), with w = 2 eps_out + 3(g - g') + m + m' + ell'."""
    w = 2 * eout + 3 * (t.g - gp) + t.m + mp + lp
    return (t.g - gp) + mpp + lp + w // (t.r - 1)


def _check_master_erasable(t: Tuple, p: RuleParams) -> Optional[str]:
    why = _check_twisted_heights(t, p, p.g_prime)
    if why is not None:
        return why
    d, g, r, ell, m = t
    lp, mp, mpp, gp, ein, eout = p.ell_prime, p.m_prime, p.m_dprime, p.g_prime, p.eps_in, p.eps_out
    if not (mp >= 0 and mpp >= 0 and mp + mpp <= m):
        return "m' + m'' out of range"
    if not 0 <= gp <= g:
        return "g' out of range"
    if ein < 0 or eout < 0:
        return "negative secancy split"
    if ein + eout != d - g - p.d_prime + gp:
        return "secancy split does not match degree drop"
    if not erasable_fast(_erasable_collection(t, lp, mp, mpp, gp, eout), r):
        return "collection not erasable"
    if _window_missed(t, 2 * ein + _erasable_base(t, lp, mp, mpp, gp, eout) + p.sum_n, r - 2):
        return "delta window missed"
    return None


def _goals_master_erasable(t: Tuple, p: RuleParams) -> list[Tuple]:
    lbar = _bar_ell(t.ell, p.ell_prime, p.m_prime, p.sum_n, t.r)
    top = t.m - p.m_prime
    return [_new(Tuple, (p.d_prime - 1, p.g_prime, t.r - 1, lbar, mb)) for mb in range(top - p.m_dprime, top + 1)]


def _gather_lines(t: Tuple, p: RuleParams) -> str | list[Tuple]:
    if t.d < t.g + 2 * t.r - 1:
        return "degree below g + 2r - 1"
    d, g, r, ell, m = t
    return [_new(Tuple, (d - (r - 1), g, r, ell, m))]


def _peel_onion(t: Tuple, p: RuleParams) -> str | list[Tuple]:
    if t.g < t.r:
        return "genus below r"
    if not is_good(t).is_good:
        return "source tuple not good"
    d, g, r, ell, m = t
    return [_new(Tuple, (d - (r - 1), g - r, r, ell, m + 1))]


def _pancake_onions(t: Tuple, p: RuleParams) -> str | list[Tuple]:
    if t.m < t.r - 1:
        return "m below r - 1"
    d, g, r, ell, m = t
    return [_new(Tuple, (d, g, r, ell, m - (r - 1)))]


def _two_proj(t: Tuple, p: RuleParams) -> str | list[Tuple]:
    d, g, r, ell, m = t
    eps = p.eps
    if ell != 0:
        return "ell must be 0"
    if m != 1:
        return "m must be 1"
    if eps < 0:
        return "eps negative"
    if 2 * eps > d - g - r:
        return "eps exceeds (d - g - r)/2"
    if g == 0 and 2 * eps >= d - g - r:
        return "eps must be strictly below (d - g - r)/2 when g = 0"
    if _window_missed(t, 2 * eps + 1, r - 3):
        return "delta window missed"
    return [_new(Tuple, (d - 2 * eps - 2, g, r - 2, 0, 1))]


def _delta_5(t: Tuple, p: RuleParams) -> str | list[Tuple]:
    k = p.k
    if k < 3:
        return "k below 3"
    if t != (4 * k + 1, 2 * k - 1, 2 * k + 1, 0, 1):
        return "tuple is not (4k+1, 2k-1, 2k+1, 0, 1)"
    return [_new(Tuple, (4 * k - 3, 2 * k - 2, 2 * k - 1, k - 3, 0))]


def _m0_delta_2(t: Tuple, p: RuleParams) -> str | list[Tuple]:
    if t.m != 0:
        return "m must be 0"
    if t.g < 1:
        return "genus must be positive"
    if _window_missed(t, 2, t.r - 2):
        return "delta window missed"
    d, g, r, ell, m = t
    return [_new(Tuple, (d - 2, g - 1, r - 1, ell + 1, 0))]


def _m0_delta_35(t: Tuple, p: RuleParams) -> str | list[Tuple]:
    d, g, r, ell, m = t
    eps = p.eps
    if m != 0:
        return "m must be 0"
    if g < 3:
        return "genus below 3"
    if r < 6:
        return "r below 6"
    if eps < 0:
        return "eps negative"
    if 3 * eps > d - g - r:
        return "eps exceeds (d - g - r)/3"
    if _window_missed(t, 2 * eps + 3, r - 4):
        return "delta window missed"
    dd = d - 3 * eps - 6
    return [_new(Tuple, (dd, g - 3, r - 3, ell + 1, 0)), _new(Tuple, (dd, g - 3, r - 3, ell, 0))]


def _m0_delta_4(t: Tuple, p: RuleParams) -> str | list[Tuple]:
    if t.m != 0:
        return "m must be 0"
    if t.g < 3:
        return "genus below 3"
    if t.r < 6:
        return "r below 6"
    if _window_missed(t, 4, t.r - 3):
        return "delta window missed"
    d, g, r, ell, m = t
    return [_new(Tuple, (d - 5, g - 3, r - 2, ell + 1, 0)), _new(Tuple, (d - 5, g - 3, r - 2, ell, 0))]


def _delta_1_step(t: Tuple, p: RuleParams) -> str | list[Tuple]:
    d, g, r, ell, m = t
    if ell != 0 or m != 0:
        return "ell and m must be 0"
    if 2 * d + 2 * g != 3 * r - 1:
        return "not on the 2d + 2g = 3r - 1 locus"
    if d <= g + r:
        return "degree must exceed g + r"
    return [_new(Tuple, (d - 3, g, r - 2, 0, 0))]


# ---------------------------------------------------------------------------
# instance parameters.  A rule with at most one instance has a function
# that computes its free parameter from the tuple, or None when the window
# holds no centre, and the rule decides the rest.  A rule with many
# instances has an enumerator that yields (RuleParams, subgoals) for the
# parameter choices that meet its guard, in canonical order.  Each builds
# its RuleParams with `_new`, all 11 fields spelled (sum_n is the eighth).


def _window_eps(slack: int, base: int, t: Tuple) -> Optional[RuleParams]:
    """The eps whose odd centre 2 eps + base lies in the window of margin
    r - slack (two-proj: slack 3, base 1; m0-delta-35: 4, 3)."""
    # r >= slack keeps the margin non-negative, as _window_centre needs
    if t.r < slack:
        return None
    x = _window_centre(delta_numerator(t), t.r - 1, t.r - slack, 1)
    return None if x is None else _new(RuleParams, (None,) * 8 + (False, (x - base) // 2, None))


def _delta_5_params(t: Tuple) -> RuleParams:
    """The one k with 2k + 1 = r when r is odd."""
    return _new(RuleParams, (None,) * 8 + (False, None, (t.r - 1) // 2))


def _master_family_candidates(
    offset: int, goals: Callable, t: Tuple
) -> Iterator[tuple[RuleParams, list[Tuple]]]:
    """(ell', m', d', sum_n, any2) in lexicographic order.

    X = offset + ell' + 2(d - d') + sum_n, and sum_n has the parity of
    m'(r-1), so (ell', m') fix the parity of X and with it the one window
    centre X*.  Then sum_n = X* - offset - ell' - 2d + 2d' is linear in d',
    and the sum range [m' n_lo, m'(r-1)] is a closed d' interval.

    The first subgoal of both rules is (d'-1, g, r-1, ell-bar, m-bar) with
    ell-bar = A - d'.  Each cell's d' run starts at the least d' where two
    of its goodness clauses hold: 2 ell-bar <= r-1 and m-bar <= rho(d'-1,
    g, r-1).  Both are lower bounds on d', so the candidates skipped are
    exactly those whose first subgoal fails one of them."""
    d, g, r, ell, m = t
    k = r - 1
    n = delta_numerator(t)
    # |n - Xk| <= k - 1 holds X = x0 = ceil((n - k + 1)/k), and x0 + 1 if x0 k < n
    x0 = -((k - 1 - n) // k)
    x1 = x0 + 1 if x0 * k < n else None
    centres = (x1, x0) if x0 % 2 else (x0, x1)
    cap = r - 2 - offset  # bound on 2m' + ell'
    m_top = m - offset
    dp_lo = g + r + 1 if g == 0 and m != 0 else g + r
    odd = r % 2 == 1
    n_lo = 2 if odd else 3  # least height: even heights from 2, odd from 3
    elliptic = g == 1  # height 2 is forbidden at d' = r + 1
    half = k // 2
    rho_num = k * (g + r)
    # Cells whose d' run is provably empty are skipped in closed form.  Both
    # centres lie in {x0, x0 + 1} and m'k - c is even, so every cell has
    # (m'k - c)//2 = (m'k - c0)//2 with c0 = x0 - offset - ell' - 2d.  It
    # has hi <= (m'k - c0)//2 and lo >= floor, the greater of dp_lo and the
    # rho clause's floor at the least m-bar: so hi < lo for m' < mp_lo.
    # Also lo >= a - k//2 = ell - ell' - k//2 + (m'k - c0)//2, which is over
    # hi in every cell of a row with ell - ell' > k//2, and over d for
    # m' > mp_hi.
    floor = 1 - (-(m - m_top + rho_num) // r)
    floor = floor if floor > dp_lo else dp_lo
    lo_num = 2 * floor + x0 - offset - 2 * d  # mp_lo = ceil((lo_num - ell') / k)
    hi_num = x0 + 1 - offset - 2 * ell + 2 * half  # mp_hi = (ell' + hi_num) // k
    # min and max are spelled as conditionals: this runs once per sweep tuple
    for lp in range(ell - half if ell > half else 0, (ell if ell < cap else cap) + 1):
        # at r = 3, cap <= 1 already forces m' = 0
        mp_lo, mp_hi = -((lp - lo_num) // k), (cap - lp) // 2
        mp_lo = mp_lo if mp_lo > 0 else 0
        mp_hi = m_top if m_top < mp_hi else mp_hi
        cut = (lp + hi_num) // k
        mp_hi = cut if cut < mp_hi else mp_hi
        for mp in range(mp_lo, mp_hi + 1):
            x = centres[(offset + lp + mp * k) % 2]
            if x is None:
                continue
            c = x - offset - lp - 2 * d  # sum_n = c + 2d'; c has sum_n's parity
            top = (mp * k - c) // 2
            lo = (mp * n_lo - c) // 2
            lo = lo if lo > dp_lo else dp_lo
            hi = d if d < top else top
            a = ell - lp + top  # ell-bar = a - d'
            mbar = m - mp
            # 2(a - d') <= r-1, and r(d'-1) - k(g + r) >= m-bar
            cut = 1 - (-(mbar + rho_num) // r)
            cut = cut if cut > a - half else a - half
            lo = lo if lo > cut else cut
            for dp in range(lo, hi + 1):
                sn = c + 2 * dp
                # the canonical flag: below 4m' every even-height multiset has a 2
                any2 = odd and sn < 4 * mp
                if any2 and elliptic and dp == r + 1:
                    continue
                # all 11 fields: ell', m', m'', d', g', eps_in, eps_out, sum_n, any2, eps, k
                p = _new(RuleParams, (lp, mp, None, dp, None, None, None, sn, any2, None, None))
                yield p, goals(t, dp, a - dp, mbar)


def _master_erasable_candidates(t: Tuple) -> Iterator[tuple[RuleParams, list[Tuple]]]:
    """(ell', m', m'', g', eps_out, d', sum_n) in lexicographic order, with
    eps_in fixed by the degree drop.  X = 2 eps_in + b + sum_n where b does
    not depend on d', and eps_in = E - d'; as for the master family the
    parity of X is fixed and sum_n is linear in d'.  Erasability is decided
    only for cells whose d' interval is not empty."""
    d, g, r, ell, m = t
    k = r - 1
    n = delta_numerator(t)
    centres = (_window_centre(n, k, k - 1, 0), _window_centre(n, k, k - 1, 1))
    odd = r % 2 == 1
    n_lo = 2 if odd else 3
    mp_top = 0 if r == 3 else m
    for lp in range(0, ell + 1):
        for mp in range(0, mp_top + 1):
            for mpp in range(0, m - mp + 1):
                for gp in range(0, g + 1):
                    dp_lo = gp + r + (1 if (gp == 0 and m != 0) else 0)
                    dp_cap = d - g + gp
                    for eout in range(0, dp_cap - dp_lo + 1):
                        b = _erasable_base(t, lp, mp, mpp, gp, eout)
                        x = centres[(b + mp * k) % 2]
                        if x is None:
                            continue
                        e_top = dp_cap - eout  # eps_in = e_top - d'
                        c = x - b - 2 * e_top  # sum_n = c + 2d'
                        lo = max(dp_lo, (mp * n_lo - c) // 2)
                        hi = min(e_top, (mp * k - c) // 2)
                        if lo > hi:
                            continue
                        if not erasable_fast(_erasable_collection(t, lp, mp, mpp, gp, eout), r):
                            continue
                        for dp in range(lo, hi + 1):
                            sn = c + 2 * dp
                            any2 = odd and sn < 4 * mp
                            if any2 and gp == 1 and dp == r + 1:
                                continue
                            # all 11 fields: ell', m', m'', d', g', eps_in, eps_out, sum_n, any2, eps, k
                            p = _new(RuleParams, (lp, mp, mpp, dp, gp, e_top - dp, eout, sn, any2, None, None))
                            yield p, _goals_master_erasable(t, p)


class _Rule(NamedTuple):
    # (t, p) -> the first violated hypothesis, or the subgoals; `apply` runs it
    run: Callable[[Tuple, RuleParams], str | list[Tuple]]
    # the RuleParams fields the rule reads; `apply` needs `p` to set just these
    fields: tuple[str, ...] = ()
    # a rule with at most one instance: (t) -> its RuleParams or None; left
    # None when the rule has no parameters
    params: Optional[Callable[[Tuple], Optional[RuleParams]]] = None
    # a rule with many instances: (t) -> (RuleParams, subgoals) pairs, and
    # its check alone, which validates a candidate `accept` kept
    candidates: Optional[Callable] = None
    check: Optional[Callable[[Tuple, RuleParams], Optional[str]]] = None


def _checked(check: Callable, goals: Callable, t: Tuple, p: RuleParams) -> str | list[Tuple]:
    why = check(t, p)
    return goals(t, p) if why is None else why


def _master_family_rule(offset: int, formula: Callable) -> _Rule:
    # positional partials: a keyword partial builds a dict on every call
    check = partial(_check_master_family, offset)
    return _Rule(
        partial(_checked, check, partial(_goals_master_family, formula)),
        ("ell_prime", "m_prime", "d_prime", "sum_n", "any_ni_is_2"),
        candidates=partial(_master_family_candidates, offset, formula),
        check=check,
    )


# in search order: cheapest guards first; affects only reported witnesses
_RULES: dict[RuleId, _Rule] = {
    RuleId.GATHER_LINES: _Rule(_gather_lines),
    RuleId.PEEL_ONION: _Rule(_peel_onion),
    RuleId.PANCAKE_ONIONS: _Rule(_pancake_onions),
    RuleId.M0_DELTA_2: _Rule(_m0_delta_2),
    RuleId.M0_DELTA_4: _Rule(_m0_delta_4),
    RuleId.M0_DELTA_35: _Rule(_m0_delta_35, ("eps",), partial(_window_eps, 4, 3)),
    RuleId.TWO_PROJ: _Rule(_two_proj, ("eps",), partial(_window_eps, 3, 1)),
    RuleId.DELTA_5: _Rule(_delta_5, ("k",), _delta_5_params),
    RuleId.DELTA_1_STEP: _Rule(_delta_1_step),
    RuleId.MASTER: _master_family_rule(0, _master_goals),
    RuleId.MASTER_111: _master_family_rule(1, _master_111_goals),
    RuleId.MASTER_ERASABLE: _Rule(
        partial(_checked, _check_master_erasable, _goals_master_erasable),
        ("ell_prime", "m_prime", "m_dprime", "d_prime", "g_prime", "eps_in", "eps_out", "sum_n", "any_ni_is_2"),
        candidates=_master_erasable_candidates,
        check=_check_master_erasable,
    ),
}
RULE_ORDER = tuple(_RULES)


def _field_mask(fields: tuple[str, ...]) -> tuple[Optional[Callable], tuple]:
    """(unread, mask) of a rule that reads `fields`.  `p` sets exactly those
    fields when one comparison holds: `p == mask` (the defaults) if the rule
    reads no field, else `(unread(p), p.count(None)) == mask`, that is,
    every other field equals its default and no field the rule reads is None."""
    if not fields:
        return None, _NO_PARAMS
    unread = itemgetter(*(i for i, name in enumerate(RuleParams._fields) if name not in fields))
    defaults = unread(_NO_PARAMS)
    return unread, (defaults, defaults.count(None))


_FIELD_MASKS = {rule: _field_mask(spec.fields) for rule, spec in _RULES.items()}


def _parameter_violation(rule: RuleId, p: RuleParams) -> Optional[str]:
    """Why `p` does not set exactly the fields `rule` reads; a field is unset
    when it equals its default (a false any_ni_is_2, or 0 for it).  A valid
    `p` passes on the mask comparison alone; on a failed one the loop names
    the first field that differs, as the mask compares it."""
    unread, mask = _FIELD_MASKS[rule]
    if (p if unread is None else (unread(p), p.count(None))) == mask:
        return None
    fields = _RULES[rule].fields
    for name, v, default in zip(p._fields, p, _NO_PARAMS):
        if name in fields:
            if v is None:
                return f"missing parameter {name}"
        elif v != default:
            return f"parameter {name} does not belong to this rule"
    raise InvariantViolated(f"the field mask of {rule.value} refuses {p} but no field differs")


def apply(rule: RuleId, t: Tuple, p: RuleParams = _NO_PARAMS) -> list[Tuple]:
    """Check that `p` sets exactly the fields `rule` reads, then r >= 3, then
    every hypothesis of `rule` at `t`; return the subgoals or raise PreconditionViolated."""
    out = _parameter_violation(rule, p) or ("r < 3" if t.r < 3 else _RULES[rule].run(t, p))
    if type(out) is str:
        raise PreconditionViolated(out)
    return out


# ---------------------------------------------------------------------------
# instance enumeration


def _single_instance(spec: _Rule, t: Tuple, accept: Callable) -> Optional[tuple[RuleParams, list[Tuple]]]:
    """The instance of a rule with at most one: the rule is its own guard and
    runs before `accept`."""
    p = _NO_PARAMS if spec.params is None else spec.params(t)
    if p is None or type(goals := spec.run(t, p)) is str:
        return None
    for s in goals:
        if not accept(s):
            return None
    return p, goals


def _kept(
    rule: RuleId, spec: _Rule, t: Tuple, p: RuleParams, goals: list[Tuple], accept: Callable
) -> bool:
    """Whether `accept` keeps every subgoal of a candidate; a kept one is
    validated by the rule's check."""
    for s in goals:
        if not accept(s):
            return False
    why = spec.check(t, p)
    if why is not None:
        raise InvariantViolated(f"{rule.value} enumerated {p} at {t}: {why}")
    return True


def enumerate_instances(
    rule: RuleId, t: Tuple, accept: Callable[[Tuple], bool] = lambda s: True
) -> Iterator[tuple[RuleParams, list[Tuple]]]:
    """All parameter choices for `rule` at `t` meeting the rule's hypotheses and
    whose every subgoal satisfies `accept`, in canonical (lexicographically
    sorted parameter) order; for the master family, only those whose first
    subgoal meets two goodness clauses.  For a rule with many instances
    `accept` runs before the check (see the module docstring)."""
    if t.r < 3:
        return
    spec = _RULES[rule]
    if spec.candidates is None:
        hit = _single_instance(spec, t, accept)
        if hit is not None:
            yield hit
        return
    for p, goals in spec.candidates(t):
        if _kept(rule, spec, t, p, goals, accept):
            yield p, goals


def first_instance(
    rule: RuleId, t: Tuple, accept: Callable[[Tuple], bool]
) -> Optional[tuple[RuleParams, list[Tuple]]]:
    """The first instance `enumerate_instances(rule, t, accept)` yields, or None."""
    if t.r < 3:
        return None
    spec = _RULES[rule]
    if spec.candidates is None:
        return _single_instance(spec, t, accept)
    for p, goals in spec.candidates(t):
        if _kept(rule, spec, t, p, goals, accept):
            return p, goals
    return None
