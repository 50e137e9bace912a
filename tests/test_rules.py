"""Reduction rules: worked instances, window tightness against an
independent re-derivation, enumeration/apply drift protection, and the
subgoal feasibility lemma."""

import itertools
import random
from fractions import Fraction

import pytest

from bninterp import (
    RULE_ORDER,
    PreconditionViolated,
    RuleId,
    RuleParams,
    Tuple,
    apply,
    delta,
    delta_numerator,
    enumerate_instances,
    is_good,
    measure,
    rho,
)


def _good(s):
    return is_good(s).is_good


def test_rule_order_covers_every_rule_once():
    assert len(RULE_ORDER) == len(set(RULE_ORDER)) == len(RuleId)


# ---------------------------------------------------------------------------
# worked instances, one per rule


def test_master_worked_instance():
    t = Tuple(26, 0, 14, 0, 1)
    p = RuleParams(ell_prime=0, m_prime=1, d_prime=26, sum_n=3)
    assert apply(RuleId.MASTER, t, p) == [Tuple(25, 0, 13, 5, 0)]
    assert delta(t) == 3
    # shrinking d' by one shifts the window center off target
    bad = RuleParams(ell_prime=0, m_prime=1, d_prime=25, sum_n=3)
    with pytest.raises(PreconditionViolated, match="window"):
        apply(RuleId.MASTER, t, bad)


def test_master_111_worked_instance():
    t = Tuple(22, 7, 14, 0, 11)
    p = RuleParams(ell_prime=0, m_prime=2, d_prime=22, sum_n=14)
    assert apply(RuleId.MASTER_111, t, p) == [
        Tuple(21, 7, 13, 6, 9),
        Tuple(21, 7, 13, 6, 8),
        Tuple(20, 7, 12, 6, 9),
    ]


def test_master_strictness_gap_between_plain_and_111():
    # same parameters: the strict forms reject what the plain form allows
    t = Tuple(20, 3, 6, 1, 2)
    for p, _goals in enumerate_instances(RuleId.MASTER, t):
        if 2 * p.m_prime + p.ell_prime == t.r - 2:
            with pytest.raises(PreconditionViolated, match="strictly"):
                apply(RuleId.MASTER_111, t, p)
            break
    else:
        pytest.skip("no boundary instance found")


def test_master_erasable_worked_instance():
    t = Tuple(7, 1, 6, 2, 1)
    p = RuleParams(
        ell_prime=0,
        m_prime=1,
        m_dprime=0,
        d_prime=7,
        g_prime=1,
        eps_in=0,
        eps_out=0,
        sum_n=3,
    )
    assert apply(RuleId.MASTER_ERASABLE, t, p) == [Tuple(6, 1, 5, 3, 0)]


def test_boundary_rows_reduce_on_windows_but_not_on_goodness():
    # these table rows admit window-passing instances whose subgoals all
    # fail the goodness test -- the reason they stay irreducible
    for row in [(7, 1, 6, 2, 1), (7, 1, 6, 3, 1), (8, 2, 6, 2, 0)]:
        t = Tuple(*row)
        assert _good(t)
        raw = list(enumerate_instances(RuleId.MASTER_ERASABLE, t))
        assert raw, row
        assert list(enumerate_instances(RuleId.MASTER_ERASABLE, t, _good)) == []
        for _p, goals in raw:
            assert any(not _good(s) for s in goals)


def test_gather_lines():
    assert apply(RuleId.GATHER_LINES, Tuple(13, 2, 6, 1, 0)) == [Tuple(8, 2, 6, 1, 0)]
    with pytest.raises(PreconditionViolated):
        apply(RuleId.GATHER_LINES, Tuple(12, 2, 6, 1, 0))


def test_peel_onion_requires_good_source():
    assert apply(RuleId.PEEL_ONION, Tuple(12, 6, 5, 0, 0)) == [Tuple(8, 1, 5, 0, 1)]
    with pytest.raises(PreconditionViolated, match="not good"):
        apply(RuleId.PEEL_ONION, Tuple(11, 6, 5, 3, 0))
    with pytest.raises(PreconditionViolated, match="genus"):
        apply(RuleId.PEEL_ONION, Tuple(12, 4, 5, 0, 0))


def test_pancake_onions_is_a_pure_formula():
    # subgoal may be anything, even a bad-residue-list member's shift
    assert apply(RuleId.PANCAKE_ONIONS, Tuple(4, 1, 3, 0, 3)) == [Tuple(4, 1, 3, 0, 1)]
    assert apply(RuleId.PANCAKE_ONIONS, Tuple(5, 2, 3, 0, 2)) == [Tuple(5, 2, 3, 0, 0)]
    with pytest.raises(PreconditionViolated):
        apply(RuleId.PANCAKE_ONIONS, Tuple(4, 1, 3, 0, 1))


def test_two_proj():
    t = Tuple(8, 0, 5, 0, 1)
    assert apply(RuleId.TWO_PROJ, t, RuleParams(eps=1)) == [Tuple(4, 0, 3, 0, 1)]
    with pytest.raises(PreconditionViolated, match="window"):
        apply(RuleId.TWO_PROJ, t, RuleParams(eps=0))
    # rational sources need strict secancy room
    with pytest.raises(PreconditionViolated, match="strictly"):
        apply(RuleId.TWO_PROJ, Tuple(7, 0, 5, 0, 1), RuleParams(eps=1))
    assert apply(RuleId.TWO_PROJ, Tuple(8, 0, 7, 0, 1), RuleParams(eps=0)) == [
        Tuple(6, 0, 5, 0, 1)
    ]


def test_delta_5_exact_family():
    assert apply(RuleId.DELTA_5, Tuple(13, 5, 7, 0, 1), RuleParams(k=3)) == [
        Tuple(9, 4, 5, 0, 0)
    ]
    assert delta(Tuple(13, 5, 7, 0, 1)) == 5
    with pytest.raises(PreconditionViolated):
        apply(RuleId.DELTA_5, Tuple(13, 5, 7, 0, 1), RuleParams(k=4))
    with pytest.raises(PreconditionViolated, match="k below 3"):
        apply(RuleId.DELTA_5, Tuple(9, 3, 5, 0, 1), RuleParams(k=2))


def test_m0_family():
    assert apply(RuleId.M0_DELTA_2, Tuple(5, 1, 4, 0, 0)) == [Tuple(3, 0, 3, 1, 0)]
    assert apply(RuleId.M0_DELTA_4, Tuple(12, 3, 6, 0, 0)) == [
        Tuple(7, 0, 4, 1, 0),
        Tuple(7, 0, 4, 0, 0),
    ]
    assert apply(RuleId.M0_DELTA_35, Tuple(11, 3, 6, 0, 0), RuleParams(eps=0)) == [
        Tuple(5, 0, 3, 1, 0),
        Tuple(5, 0, 3, 0, 0),
    ]
    with pytest.raises(PreconditionViolated):
        apply(RuleId.M0_DELTA_2, Tuple(5, 0, 4, 0, 0))  # needs positive genus
    with pytest.raises(PreconditionViolated):
        apply(RuleId.M0_DELTA_4, Tuple(12, 3, 5, 0, 0))  # needs r >= 6


def test_delta_1_step_descends_the_locus_and_stops_at_the_base():
    assert apply(RuleId.DELTA_1_STEP, Tuple(22, 3, 17, 0, 0)) == [Tuple(19, 3, 15, 0, 0)]
    assert apply(RuleId.DELTA_1_STEP, Tuple(19, 3, 15, 0, 0)) == [Tuple(16, 3, 13, 0, 0)]
    # (16, 3, 13) is the base family member: degree floor reached
    with pytest.raises(PreconditionViolated, match="exceed"):
        apply(RuleId.DELTA_1_STEP, Tuple(16, 3, 13, 0, 0))
    with pytest.raises(PreconditionViolated, match="locus"):
        apply(RuleId.DELTA_1_STEP, Tuple(20, 3, 15, 0, 0))


def test_r3_master_family_forbids_twist_moves():
    t = Tuple(6, 1, 3, 0, 2)
    for p, _ in enumerate_instances(RuleId.MASTER, t):
        assert p.m_prime == 0
    with pytest.raises(PreconditionViolated, match="r = 3"):
        apply(RuleId.MASTER, t, RuleParams(ell_prime=0, m_prime=1, d_prime=6, sum_n=2))


def test_elliptic_boundary_excludes_height_two():
    # subgoal degree r+1 at genus 1 forbids any height-2 twist
    t = Tuple(8, 1, 5, 0, 2)
    p2 = RuleParams(ell_prime=0, m_prime=1, d_prime=6, sum_n=2, any_ni_is_2=True)
    with pytest.raises(PreconditionViolated, match="forbidden"):
        apply(RuleId.MASTER, t, p2)
    for p, _ in enumerate_instances(RuleId.MASTER, t):
        if p.d_prime == 6:
            assert not p.any_ni_is_2 and p.sum_n >= 4 * p.m_prime


def test_sum_n_parity_must_match_ambient():
    t = Tuple(26, 0, 14, 0, 1)
    with pytest.raises(PreconditionViolated, match="parity"):
        apply(RuleId.MASTER, t, RuleParams(ell_prime=0, m_prime=1, d_prime=26, sum_n=4))


def test_params_json_round_trip():
    rng = random.Random(11)
    seen = 0
    for _ in range(300):
        r = rng.randint(3, 9)
        g = rng.randint(0, r - 1)
        d = rng.randint(g + r, g + 2 * r)
        t = Tuple(d, g, r, rng.randint(0, r // 2), rng.randint(0, 3))
        if not _good(t):
            continue
        for rule in RuleId:
            for p, _goals in itertools.islice(enumerate_instances(rule, t), 4):
                assert RuleParams.from_json(p.to_json()) == p
                seen += 1
    assert seen > 50


# ---------------------------------------------------------------------------
# independent re-derivation of the master enumeration


def _master_instances_by_multisets(t, margin):
    """Re-derive Master instances by enumerating actual height multisets
    instead of collapsed sums; returns the set of (ell', m', d', sum_n,
    any2) with the window width given explicitly."""
    d, g, r, ell, m = t
    if r < 3:
        return set()
    n = delta_numerator(t)
    k = r - 1
    heights = list(range(2, r, 2)) if r % 2 == 1 else list(range(3, r, 2))
    out = set()
    for lp in range(0, ell + 1):
        for mp in range(0, m + 1):
            if r == 3 and mp > 0:
                continue
            if 2 * mp + lp > r - 2:
                continue
            dp_lo = g + r + (1 if (g == 0 and m != 0) else 0)
            for dp in range(dp_lo, d + 1):
                exclude_2 = (dp, g) == (r + 1, 1)
                sums = {}
                for combo in itertools.combinations_with_replacement(heights, mp):
                    if exclude_2 and 2 in combo:
                        continue
                    sn = sum(combo)
                    has_2_free = 2 not in combo
                    sums[sn] = sums.get(sn, False) or has_2_free
                for sn, two_free_exists in sums.items():
                    num = k * mp - sn
                    assert num % 2 == 0
                    if ell - lp + num // 2 < 0:
                        continue
                    x = lp + 2 * (d - dp) + sn
                    if abs(n - x * k) <= margin:
                        out.add((lp, mp, dp, sn, not two_free_exists))
    return out


def test_master_enumeration_matches_multiset_re_derivation_and_window_is_tight():
    rng = random.Random(303)
    widening_seen = {r: False for r in range(4, 11)}
    for r in range(4, 11):
        tried = 0
        for _ in range(200):
            g = rng.randint(0, r - 1)
            d = rng.randint(g + r, g + 2 * r)
            t = Tuple(d, g, r, rng.randint(0, r // 2), rng.randint(1, max(1, min(3, rho(d, g, r)))))
            if not _good(t):
                continue
            tried += 1
            got = {
                (p.ell_prime, p.m_prime, p.d_prime, p.sum_n, p.any_ni_is_2)
                for p, _ in enumerate_instances(RuleId.MASTER, t)
            }
            strict = _master_instances_by_multisets(t, r - 2)
            assert got == strict, (tuple(t), got ^ strict)
            wide = _master_instances_by_multisets(t, r - 1)
            assert strict <= wide
            if len(wide) > len(strict):
                widening_seen[r] = True
            if tried >= 40 and widening_seen[r]:
                break
        assert tried >= 10
    assert all(widening_seen.values()), widening_seen


# ---------------------------------------------------------------------------
# drift protection and structural invariants


def _random_good_tuples(rng, count, r_hi=9, extra_d=3, m_cap=4):
    out = []
    while len(out) < count:
        r = rng.randint(3, r_hi)
        g = rng.randint(0, r + 1)
        d = rng.randint(g + r, g + 2 * r + extra_d)
        rr = rho(d, g, r)
        if rr < 0:
            continue
        t = Tuple(d, g, r, rng.randint(0, r // 2), rng.randint(0, min(m_cap, rr)))
        if _good(t):
            out.append(t)
    return out


def test_every_enumerated_instance_is_reproduced_by_apply():
    rng = random.Random(42)
    checked = 0
    for t in _random_good_tuples(rng, 150):
        for rule in RuleId:
            for p, goals in enumerate_instances(rule, t):
                assert apply(rule, t, p) == goals, (tuple(t), rule, p)
                checked += 1
    assert checked > 500


def test_measure_strictly_decreases_along_every_rule_edge():
    rng = random.Random(43)
    for t in _random_good_tuples(rng, 120):
        for rule in RuleId:
            for _p, goals in enumerate_instances(rule, t):
                for s in goals:
                    assert measure(s) < measure(t), (tuple(t), rule, tuple(s))
                    assert s.r <= t.r and s.d <= t.d


def test_master_enumeration_is_in_canonical_order():
    rng = random.Random(44)
    for t in _random_good_tuples(rng, 40):
        for rule in (RuleId.MASTER, RuleId.MASTER_111):
            keys = [
                (p.ell_prime, p.m_prime, p.d_prime, p.sum_n)
                for p, _ in enumerate_instances(rule, t)
            ]
            assert keys == sorted(keys)
        keys = [
            (p.ell_prime, p.m_prime, p.m_dprime, p.g_prime, p.eps_out, p.d_prime, p.sum_n)
            for p, _ in enumerate_instances(RuleId.MASTER_ERASABLE, t)
        ]
        assert keys == sorted(keys)


def test_subgoal_twist_budget_lemma_exhaustive():
    # for every Master / Master-111 instance on a good box tuple with
    # r <= 12 whose d' stays off the degree floor (unless the source sits
    # on it), each subgoal's m fits under its own rho
    viol = []
    for r in range(3, 13):
        for g in range(0, r):
            eps0 = 1 if g == 0 else 0
            for d in range(g + r, g + 2 * r):
                rr = rho(d, g, r)
                if rr < 0:
                    continue
                for ell in range(0, r // 2 + 1):
                    for m in range(0, min(rr, r - 2 + eps0) + 1):
                        t = Tuple(d, g, r, ell, m)
                        if not _good(t):
                            continue
                        for rule in (RuleId.MASTER, RuleId.MASTER_111):
                            for p, goals in enumerate_instances(rule, t):
                                if p.d_prime == g + r and d != g + r:
                                    continue
                                for s in goals:
                                    if s.m > rho(s.d, s.g, s.r):
                                        viol.append((tuple(t), rule.value, tuple(s)))
    assert viol == [], viol[:5]


def test_delta_windows_expressed_exactly():
    # the integer comparison agrees with the rational definition
    rng = random.Random(45)
    for t in _random_good_tuples(rng, 80):
        r = t.r
        for p, _ in enumerate_instances(RuleId.MASTER, t):
            x = p.ell_prime + 2 * (t.d - p.d_prime) + p.sum_n
            assert abs(delta(t) - x) <= 1 - Fraction(1, r - 1)
        for p, _ in enumerate_instances(RuleId.TWO_PROJ, t):
            assert abs(delta(t) - (2 * p.eps + 1)) <= 1 - Fraction(2, r - 1)


# ---------------------------------------------------------------------------
# enumeration oracle: the solved windows against a brute force through apply


def _good_box_and_shell(r_max):
    """Good tuples of the sweep box and of the shell around it (the region
    `verify_thm14` checks) for 3 <= r <= r_max."""
    for r in range(3, r_max + 1):
        for g in range(0, r + 2):
            for d in range(g + r, g + 2 * r + 3):
                rr = rho(d, g, r)
                if rr < 0:
                    continue
                for ell in range(0, r // 2 + 1):
                    for m in range(0, min(rr, r + 1) + 1):
                        t = Tuple(d, g, r, ell, m)
                        if _good(t):
                            yield t


def _applied(rule, t, p):
    try:
        return apply(rule, t, p)
    except PreconditionViolated:
        return None


def _canonical_twist_flag(rule, t, **values):
    """(params, goals) for the first of any_ni_is_2 = False, True that
    apply accepts, or None."""
    for any2 in (False, True):
        p = RuleParams(any_ni_is_2=any2, **values)
        goals = _applied(rule, t, p)
        if goals is not None:
            return p, goals
    return None


def _brute_force_params(rule, t):
    """Every parameter choice in the rule's box, in canonical order.  Each
    loop bound is one hypothesis of the rule read off directly; the delta
    windows, parities and height ranges are left to apply.  The one
    exception keeps the master-erasable box affordable: its delta window
    is evaluated directly at every point (never solved for a parameter)
    and only the points inside it go on to apply, which would reject the
    others by that same hypothesis."""
    d, g, r, ell, m = t
    n = delta_numerator(t)
    if rule in (RuleId.MASTER, RuleId.MASTER_111):
        for lp in range(ell + 1):
            for mp in range(m + 1):
                if 2 * mp + lp > r - 2:
                    continue
                for dp in range(g + r, d + 1):
                    for sn in range(0, (r - 1) * mp + 1):
                        yield dict(ell_prime=lp, m_prime=mp, d_prime=dp, sum_n=sn)
    elif rule is RuleId.MASTER_ERASABLE:
        for lp in range(ell + 1):
            for mp in range(m + 1):
                for mpp in range(m - mp + 1):
                    for gp in range(g + 1):
                        for eout in range(0, d - g - r + 1):
                            w = 2 * eout + 3 * (g - gp) + m + mp + lp
                            for dp in range(gp + r, d - g + gp - eout + 1):
                                ein = d - g - dp + gp - eout
                                for sn in range(0, (r - 1) * mp + 1):
                                    x = 2 * ein + (g - gp) + mpp + lp + w // (r - 1) + sn
                                    if abs(n - x * (r - 1)) > r - 2:
                                        continue
                                    yield dict(
                                        ell_prime=lp, m_prime=mp, m_dprime=mpp, d_prime=dp,
                                        g_prime=gp, eps_in=ein, eps_out=eout, sum_n=sn,
                                    )
    elif rule in (RuleId.TWO_PROJ, RuleId.M0_DELTA_35):
        for eps in range(0, d + 1):
            yield dict(eps=eps)
    elif rule is RuleId.DELTA_5:
        for k in range(0, r + 1):
            yield dict(k=k)
    else:
        yield {}


def _brute_force_instances(rule, t):
    out = []
    for values in _brute_force_params(rule, t):
        if "sum_n" in values:
            hit = _canonical_twist_flag(rule, t, **values)
        else:
            p = RuleParams(**values)
            goals = _applied(rule, t, p)
            hit = None if goals is None else (p, goals)
        if hit is not None:
            out.append(hit)
    return out


def test_enumerators_match_a_brute_force_through_apply():
    # exact ordered equality, so an enumerator that drops an instance or
    # reorders them fails; master-erasable's box is only affordable to r = 5
    checked = 0
    for t in _good_box_and_shell(7):
        for rule in RULE_ORDER:
            if rule is RuleId.MASTER_ERASABLE and t.r > 5:
                continue
            want = _brute_force_instances(rule, t)
            assert list(enumerate_instances(rule, t)) == want, (tuple(t), rule)
            want_good = [(p, goals) for p, goals in want if all(_good(s) for s in goals)]
            assert list(enumerate_instances(rule, t, _good)) == want_good, (tuple(t), rule)
            checked += len(want)
    assert checked > 10_000
