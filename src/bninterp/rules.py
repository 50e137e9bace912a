"""Reduction rules: checked implications from one tuple to subgoal tuples.

Each rule has one check, which returns the first violated hypothesis of
its inductive argument (or None), and a subgoal formula.  `apply` raises
the violated hypothesis as PreconditionViolated and otherwise returns the
subgoal list; it is the validator `verify_certificate` trusts.  The rule
layer never decides whether a subgoal "holds" -- acceptance is the caller's.

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
canonical (lexicographic parameter) order, and its enumerators solve the
rule's guard instead of generating candidates and rejecting them.  Every
window margin is below r - 1, so a window admits at most two consecutive
centres X and only one of them has the parity the parameters force; the
free parameter (d' for the master family, eps for two-proj and
m0-delta-35) is then confined to a closed-form interval, and only that
interval is visited.  For each candidate the subgoals are computed and
handed to the caller's `accept` first; the rule's check -- the code
`apply` runs -- runs only on the candidates `accept` kept.  So every
yielded instance has passed the rule's check, and rejected candidates are
never validated.  A kept candidate that fails the check would be a defect
in its enumerator and raises InvariantViolated.  A rule without parameters
has no candidates to solve for: its check is its guard and runs before
`accept`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from functools import partial
from typing import Callable, Iterator, NamedTuple, Optional

from .core import InvariantViolated, Tuple, delta_numerator, is_good
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


# search order: cheapest guards first; affects only reported witnesses
RULE_ORDER = (
    RuleId.GATHER_LINES,
    RuleId.PEEL_ONION,
    RuleId.PANCAKE_ONIONS,
    RuleId.M0_DELTA_2,
    RuleId.M0_DELTA_4,
    RuleId.M0_DELTA_35,
    RuleId.TWO_PROJ,
    RuleId.DELTA_5,
    RuleId.DELTA_1_STEP,
    RuleId.MASTER,
    RuleId.MASTER_111,
    RuleId.MASTER_ERASABLE,
)


@dataclass(frozen=True)
class RuleParams:
    """Integer parameters of a rule instance; only the fields the rule
    reads are set."""

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
        doc = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "any_ni_is_2":
                if self.sum_n is not None:
                    doc[f.name] = v
            elif v is not None:
                doc[f.name] = v
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "RuleParams":
        return cls(**doc)


_NO_PARAMS = RuleParams()


# ---------------------------------------------------------------------------
# shared hypotheses


def _sum_n_violation(
    m_prime: int, sum_n: int, r: int, exclude_2: bool, any2: bool
) -> Optional[str]:
    """Why no multiset of m' heights n_i has the stated sum, parity, range
    and 2-usage; None when one exists."""
    if m_prime == 0:
        if sum_n != 0:
            return "sum_n nonzero with no twist heights"
        if any2:
            return "any_ni_is_2 set with no twist heights"
        return None
    if sum_n % 2 != (m_prime * (r - 1)) % 2:
        return "sum_n parity mismatch"
    if r % 2 == 1:  # heights even, from {2, 4, ..., r-1}
        if any2:
            if exclude_2:
                return "height 2 forbidden on the elliptic boundary"
            if not 2 + 2 * (m_prime - 1) <= sum_n <= 2 + (r - 1) * (m_prime - 1):
                return "sum_n out of range for a multiset containing 2"
        else:
            if 4 > r - 1:
                return "no height other than 2 exists"
            if not 4 * m_prime <= sum_n <= (r - 1) * m_prime:
                return "sum_n out of range for heights >= 4"
    else:  # heights odd, from {3, 5, ..., r-1}
        if any2:
            return "heights are odd, none can be 2"
        if not 3 * m_prime <= sum_n <= (r - 1) * m_prime:
            return "sum_n out of range for odd heights"
    return None


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
# the rules: one check and one subgoal formula each


def _check_master_family(t: Tuple, p: RuleParams, offset: int, strict: bool) -> Optional[str]:
    """Master (offset 0) and Master-111 (offset 1, strict forms m' < m and
    2m' + ell' < r - 2)."""
    d, g, r, ell, m = t
    lp, mp, dp, sn = p.ell_prime, p.m_prime, p.d_prime, p.sum_n
    if None in (lp, mp, dp, sn):
        return "missing parameter"
    if r < 3:
        return "r < 3"
    if not 0 <= lp <= ell:
        return "ell' out of range"
    if strict:
        if not 0 <= mp < m:
            return "m' must be strictly below m"
    elif not 0 <= mp <= m:
        return "m' out of range"
    if r == 3 and mp != 0:
        return "m' must be 0 when r = 3"
    if strict:
        if 2 * mp + lp >= r - 2:
            return "2m' + ell' must be strictly below r - 2"
    elif 2 * mp + lp > r - 2:
        return "2m' + ell' exceeds r - 2"
    if not g + r <= dp <= d:
        return "d' out of range"
    if g == 0 and m != 0 and dp <= g + r:
        return "d' must exceed g + r when g = 0 and m > 0"
    why = _sum_n_violation(mp, sn, r, (dp, g) == (r + 1, 1), p.any_ni_is_2)
    if why is not None:
        return why
    if _bar_ell(ell, lp, mp, sn, r) < 0:
        return "ell-bar negative"
    if _window_missed(t, offset + lp + 2 * (d - dp) + sn, r - 2):
        return "delta window missed"
    return None


def _master_goals(t: Tuple, dp: int, lbar: int, mbar: int) -> list[Tuple]:
    return [Tuple(dp - 1, t.g, t.r - 1, lbar, mbar)]


def _master_111_goals(t: Tuple, dp: int, lbar: int, mbar: int) -> list[Tuple]:
    g, r = t.g, t.r
    return [
        Tuple(dp - 1, g, r - 1, lbar, mbar),
        Tuple(dp - 1, g, r - 1, lbar, mbar - 1),
        Tuple(dp - 2, g, r - 2, lbar, mbar),
    ]


def _goals_master_family(t: Tuple, p: RuleParams, formula: Callable) -> list[Tuple]:
    lbar = _bar_ell(t.ell, p.ell_prime, p.m_prime, p.sum_n, t.r)
    return formula(t, p.d_prime, lbar, t.m - p.m_prime)


def _erasable_collection(t: Tuple, lp: int, mp: int, mpp: int, gp: int, eout: int):
    return make_collection(
        s10=lp + t.m - mp - mpp, s11=eout, s20=mp, s21=t.g - gp, w10=mpp
    )


def _check_master_erasable(t: Tuple, p: RuleParams) -> Optional[str]:
    d, g, r, ell, m = t
    lp, mp, mpp = p.ell_prime, p.m_prime, p.m_dprime
    dp, gp, ein, eout, sn = p.d_prime, p.g_prime, p.eps_in, p.eps_out, p.sum_n
    if None in (lp, mp, mpp, dp, gp, ein, eout, sn):
        return "missing parameter"
    if r < 3:
        return "r < 3"
    if not 0 <= lp <= ell:
        return "ell' out of range"
    if not (mp >= 0 and mpp >= 0 and mp + mpp <= m):
        return "m' + m'' out of range"
    if r == 3 and mp != 0:
        return "m' must be 0 when r = 3"
    if not 0 <= gp <= g:
        return "g' out of range"
    if not gp + r <= dp <= d - g + gp:
        return "d' out of range"
    if gp == 0 and m != 0 and dp <= gp + r:
        return "d' must exceed g' + r when g' = 0 and m > 0"
    if ein < 0 or eout < 0:
        return "negative secancy split"
    if ein + eout != d - g - dp + gp:
        return "secancy split does not match degree drop"
    why = _sum_n_violation(mp, sn, r, (dp, gp) == (r + 1, 1), p.any_ni_is_2)
    if why is not None:
        return why
    if _bar_ell(ell, lp, mp, sn, r) < 0:
        return "ell-bar negative"
    if not erasable_fast(_erasable_collection(t, lp, mp, mpp, gp, eout), r):
        return "collection not erasable"
    w = 2 * eout + 3 * (g - gp) + m + mp + lp
    x = 2 * ein + (g - gp) + mpp + lp + w // (r - 1) + sn
    if _window_missed(t, x, r - 2):
        return "delta window missed"
    return None


def _master_erasable_goals(t: Tuple, dp: int, gp: int, lbar: int, mp: int, mpp: int) -> list[Tuple]:
    m = t.m
    return [Tuple(dp - 1, gp, t.r - 1, lbar, mb) for mb in range(m - mp - mpp, m - mp + 1)]


def _goals_master_erasable(t: Tuple, p: RuleParams) -> list[Tuple]:
    lbar = _bar_ell(t.ell, p.ell_prime, p.m_prime, p.sum_n, t.r)
    return _master_erasable_goals(t, p.d_prime, p.g_prime, lbar, p.m_prime, p.m_dprime)


def _check_gather_lines(t: Tuple, p: RuleParams) -> Optional[str]:
    if t.r < 3:
        return "r < 3"
    if t.d < t.g + 2 * t.r - 1:
        return "degree below g + 2r - 1"
    return None


def _goals_gather_lines(t: Tuple, p: RuleParams) -> list[Tuple]:
    d, g, r, ell, m = t
    return [Tuple(d - (r - 1), g, r, ell, m)]


def _check_peel_onion(t: Tuple, p: RuleParams) -> Optional[str]:
    if t.r < 3:
        return "r < 3"
    if t.g < t.r:
        return "genus below r"
    if not is_good(t).is_good:
        return "source tuple not good"
    return None


def _goals_peel_onion(t: Tuple, p: RuleParams) -> list[Tuple]:
    d, g, r, ell, m = t
    return [Tuple(d - (r - 1), g - r, r, ell, m + 1)]


def _check_pancake_onions(t: Tuple, p: RuleParams) -> Optional[str]:
    if t.r < 3:
        return "r < 3"
    if t.m < t.r - 1:
        return "m below r - 1"
    return None


def _goals_pancake_onions(t: Tuple, p: RuleParams) -> list[Tuple]:
    d, g, r, ell, m = t
    return [Tuple(d, g, r, ell, m - (r - 1))]


def _check_two_proj(t: Tuple, p: RuleParams) -> Optional[str]:
    d, g, r, ell, m = t
    eps = p.eps
    if eps is None:
        return "missing parameter"
    if r < 3:
        return "r < 3"
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
    return None


def _two_proj_goals(t: Tuple, eps: int) -> list[Tuple]:
    return [Tuple(t.d - 2 * eps - 2, t.g, t.r - 2, 0, 1)]


def _check_delta_5(t: Tuple, p: RuleParams) -> Optional[str]:
    k = p.k
    if k is None:
        return "missing parameter"
    if k < 3:
        return "k below 3"
    if t != (4 * k + 1, 2 * k - 1, 2 * k + 1, 0, 1):
        return "tuple is not (4k+1, 2k-1, 2k+1, 0, 1)"
    return None


def _delta_5_goals(k: int) -> list[Tuple]:
    return [Tuple(4 * k - 3, 2 * k - 2, 2 * k - 1, k - 3, 0)]


def _check_m0_delta_2(t: Tuple, p: RuleParams) -> Optional[str]:
    if t.r < 3:
        return "r < 3"
    if t.m != 0:
        return "m must be 0"
    if t.g < 1:
        return "genus must be positive"
    if _window_missed(t, 2, t.r - 2):
        return "delta window missed"
    return None


def _goals_m0_delta_2(t: Tuple, p: RuleParams) -> list[Tuple]:
    d, g, r, ell, m = t
    return [Tuple(d - 2, g - 1, r - 1, ell + 1, 0)]


def _check_m0_delta_35(t: Tuple, p: RuleParams) -> Optional[str]:
    d, g, r, ell, m = t
    eps = p.eps
    if eps is None:
        return "missing parameter"
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
    return None


def _m0_delta_35_goals(t: Tuple, eps: int) -> list[Tuple]:
    d, g, r, ell, m = t
    dd = d - 3 * eps - 6
    return [Tuple(dd, g - 3, r - 3, ell + 1, 0), Tuple(dd, g - 3, r - 3, ell, 0)]


def _check_m0_delta_4(t: Tuple, p: RuleParams) -> Optional[str]:
    if t.m != 0:
        return "m must be 0"
    if t.g < 3:
        return "genus below 3"
    if t.r < 6:
        return "r below 6"
    if _window_missed(t, 4, t.r - 3):
        return "delta window missed"
    return None


def _goals_m0_delta_4(t: Tuple, p: RuleParams) -> list[Tuple]:
    d, g, r, ell, m = t
    return [Tuple(d - 5, g - 3, r - 2, ell + 1, 0), Tuple(d - 5, g - 3, r - 2, ell, 0)]


def _check_delta_1_step(t: Tuple, p: RuleParams) -> Optional[str]:
    d, g, r, ell, m = t
    if r < 3:
        return "r < 3"
    if ell != 0 or m != 0:
        return "ell and m must be 0"
    if 2 * d + 2 * g != 3 * r - 1:
        return "not on the 2d + 2g = 3r - 1 locus"
    if d <= g + r:
        return "degree must exceed g + r"
    return None


def _goals_delta_1_step(t: Tuple, p: RuleParams) -> list[Tuple]:
    return [Tuple(t.d - 3, t.g, t.r - 2, 0, 0)]


# ---------------------------------------------------------------------------
# candidate enumerators: each yields (parameter values, subgoals) for the
# parameter choices that meet the rule's guard, in canonical order


def _master_family_candidates(
    t: Tuple, offset: int, strict: bool, goals: Callable
) -> Iterator[tuple[tuple, list[Tuple]]]:
    """(ell', m', d', sum_n, any2) in lexicographic order.

    X = offset + ell' + 2(d - d') + sum_n, and sum_n has the parity of
    m'(r-1), so (ell', m') fix the parity of X and with it the one window
    centre X*.  Then sum_n = X* - offset - ell' - 2d + 2d' is linear in d',
    and the sum range [m' n_lo, m'(r-1)] is a closed d' interval.  ell-bar
    >= 0 needs no test: sum_n <= m'(r-1) and ell' <= ell."""
    d, g, r, ell, m = t
    if r < 3:
        return
    k = r - 1
    n = delta_numerator(t)
    centres = (_window_centre(n, k, k - 1, 0), _window_centre(n, k, k - 1, 1))
    cap = r - 3 if strict else r - 2  # bound on 2m' + ell'
    m_top = m - 1 if strict else m
    dp_lo = g + r + (1 if (g == 0 and m != 0) else 0)
    odd = r % 2 == 1
    n_lo = 2 if odd else 3  # least height: even heights from 2, odd from 3
    elliptic = g == 1  # height 2 is forbidden at d' = r + 1
    for lp in range(0, min(ell, cap) + 1):
        # at r = 3, cap <= 1 already forces m' = 0
        for mp in range(0, min(m_top, (cap - lp) // 2) + 1):
            x = centres[(offset + lp + mp * k) % 2]
            if x is None:
                continue
            c = x - offset - lp - 2 * d  # sum_n = c + 2d'; c has sum_n's parity
            lo = max(dp_lo, (mp * n_lo - c) // 2)
            hi = min(d, (mp * k - c) // 2)
            for dp in range(lo, hi + 1):
                sn = c + 2 * dp
                # the canonical flag: below 4m' every even-height multiset has a 2
                any2 = odd and sn < 4 * mp
                if any2 and elliptic and dp == r + 1:
                    continue
                lbar = ell - lp + (mp * k - sn) // 2
                yield (lp, mp, dp, sn, any2), goals(t, dp, lbar, m - mp)


def _master_params(lp, mp, dp, sn, any2) -> RuleParams:
    return RuleParams(ell_prime=lp, m_prime=mp, d_prime=dp, sum_n=sn, any_ni_is_2=any2)


def _master_erasable_candidates(t: Tuple) -> Iterator[tuple[tuple, list[Tuple]]]:
    """(ell', m', m'', g', eps_out, d', sum_n) in lexicographic order, with
    eps_in fixed by the degree drop.  X = 2 eps_in + b + sum_n where b does
    not depend on d', and eps_in = E - d'; as for the master family the
    parity of X is fixed and sum_n is linear in d'.  Erasability is decided
    only for cells whose d' interval is not empty."""
    d, g, r, ell, m = t
    if r < 3:
        return
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
                        w = 2 * eout + 3 * (g - gp) + m + mp + lp
                        b = (g - gp) + mpp + lp + w // k
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
                            lbar = ell - lp + (mp * k - sn) // 2
                            yield (
                                (lp, mp, mpp, dp, gp, e_top - dp, eout, sn, any2),
                                _master_erasable_goals(t, dp, gp, lbar, mp, mpp),
                            )


def _master_erasable_params(lp, mp, mpp, dp, gp, ein, eout, sn, any2) -> RuleParams:
    return RuleParams(
        ell_prime=lp,
        m_prime=mp,
        m_dprime=mpp,
        d_prime=dp,
        g_prime=gp,
        eps_in=ein,
        eps_out=eout,
        sum_n=sn,
        any_ni_is_2=any2,
    )


def _two_proj_candidates(t: Tuple) -> Iterator[tuple[tuple, list[Tuple]]]:
    """The one eps whose odd centre 2 eps + 1 lies in the window."""
    d, g, r, ell, m = t
    if r < 3 or ell != 0 or m != 1:
        return
    x = _window_centre(delta_numerator(t), r - 1, r - 3, 1)
    if x is None:
        return
    eps = (x - 1) // 2
    room = d - g - r
    if eps >= 0 and (2 * eps < room if g == 0 else 2 * eps <= room):
        yield (eps,), _two_proj_goals(t, eps)


def _m0_delta_35_candidates(t: Tuple) -> Iterator[tuple[tuple, list[Tuple]]]:
    """The one eps whose odd centre 2 eps + 3 lies in the window."""
    d, g, r, ell, m = t
    if m != 0 or g < 3 or r < 6:
        return
    x = _window_centre(delta_numerator(t), r - 1, r - 4, 1)
    if x is None:
        return
    eps = (x - 3) // 2
    if 0 <= eps and 3 * eps <= d - g - r:
        yield (eps,), _m0_delta_35_goals(t, eps)


def _delta_5_candidates(t: Tuple) -> Iterator[tuple[tuple, list[Tuple]]]:
    """k = (r-1)/2, when t has the shape (4k+1, 2k-1, 2k+1, 0, 1), k >= 3."""
    d, g, r, ell, m = t
    if r % 2 == 0 or r < 7 or ell != 0 or m != 1 or d != 2 * r - 1 or g != r - 2:
        return
    k = (r - 1) // 2
    yield (k,), _delta_5_goals(k)


class _Rule(NamedTuple):
    check: Callable[[Tuple, RuleParams], Optional[str]]
    goals: Callable[[Tuple, RuleParams], list[Tuple]]
    # (t) -> (parameter values, subgoals); None for rules without parameters
    candidates: Optional[Callable] = None
    params: Optional[Callable[..., RuleParams]] = None


_RULES: dict[RuleId, _Rule] = {
    RuleId.MASTER: _Rule(
        partial(_check_master_family, offset=0, strict=False),
        partial(_goals_master_family, formula=_master_goals),
        partial(_master_family_candidates, offset=0, strict=False, goals=_master_goals),
        _master_params,
    ),
    RuleId.MASTER_111: _Rule(
        partial(_check_master_family, offset=1, strict=True),
        partial(_goals_master_family, formula=_master_111_goals),
        partial(_master_family_candidates, offset=1, strict=True, goals=_master_111_goals),
        _master_params,
    ),
    RuleId.MASTER_ERASABLE: _Rule(
        _check_master_erasable,
        _goals_master_erasable,
        _master_erasable_candidates,
        _master_erasable_params,
    ),
    RuleId.GATHER_LINES: _Rule(_check_gather_lines, _goals_gather_lines),
    RuleId.PEEL_ONION: _Rule(_check_peel_onion, _goals_peel_onion),
    RuleId.PANCAKE_ONIONS: _Rule(_check_pancake_onions, _goals_pancake_onions),
    RuleId.TWO_PROJ: _Rule(
        _check_two_proj,
        lambda t, p: _two_proj_goals(t, p.eps),
        _two_proj_candidates,
        lambda eps: RuleParams(eps=eps),
    ),
    RuleId.DELTA_5: _Rule(
        _check_delta_5,
        lambda t, p: _delta_5_goals(p.k),
        _delta_5_candidates,
        lambda k: RuleParams(k=k),
    ),
    RuleId.M0_DELTA_2: _Rule(_check_m0_delta_2, _goals_m0_delta_2),
    RuleId.M0_DELTA_35: _Rule(
        _check_m0_delta_35,
        lambda t, p: _m0_delta_35_goals(t, p.eps),
        _m0_delta_35_candidates,
        lambda eps: RuleParams(eps=eps),
    ),
    RuleId.M0_DELTA_4: _Rule(_check_m0_delta_4, _goals_m0_delta_4),
    RuleId.DELTA_1_STEP: _Rule(_check_delta_1_step, _goals_delta_1_step),
}


def apply(rule: RuleId, t: Tuple, p: RuleParams = _NO_PARAMS) -> list[Tuple]:
    """Validate every hypothesis of `rule` at `t` with parameters `p` and
    return the subgoal list; raises PreconditionViolated otherwise."""
    spec = _RULES[rule]
    why = spec.check(t, p)
    if why is not None:
        raise PreconditionViolated(why)
    return spec.goals(t, p)


# ---------------------------------------------------------------------------
# instance enumeration


def enumerate_instances(
    rule: RuleId, t: Tuple, accept: Callable[[Tuple], bool] = lambda s: True
) -> Iterator[tuple[RuleParams, list[Tuple]]]:
    """All parameter choices for `rule` at `t` passing the rule's check and
    whose every subgoal satisfies `accept`, in canonical (lexicographically
    sorted parameter) order.  `accept` runs before the check (see the
    module docstring)."""
    spec = _RULES[rule]
    if spec.candidates is None:  # no parameters: the check is the guard
        if spec.check(t, _NO_PARAMS) is None:
            goals = spec.goals(t, _NO_PARAMS)
            if all(accept(s) for s in goals):
                yield _NO_PARAMS, goals
        return
    for values, goals in spec.candidates(t):
        if all(accept(s) for s in goals):
            p = spec.params(*values)
            why = spec.check(t, p)
            if why is not None:
                raise InvariantViolated(f"{rule.value} enumerated {p} at {t}: {why}")
            yield p, goals


def first_instance(
    rule: RuleId, t: Tuple, accept: Callable[[Tuple], bool]
) -> Optional[tuple[RuleParams, list[Tuple]]]:
    return next(enumerate_instances(rule, t, accept), None)
