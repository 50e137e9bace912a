"""Reduction rules: worked instances, window tightness against an
independent re-derivation, enumeration/apply drift protection, the
subgoal feasibility lemma, and the unpruned master-family walk that the
pruned one in `rules` is checked against."""

import hashlib
import itertools
import json
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bninterp.rules as rules_mod
from bninterp import (
    RULE_ORDER,
    InvariantViolated,
    PreconditionViolated,
    RuleId,
    RuleParams,
    Tuple,
    apply,
    delta,
    delta_numerator,
    enumerate_instances,
    enumerate_sporadic,
    first_instance,
    is_good,
    measure,
    rho,
)


def _good(s):
    return is_good(s).is_good


# ---------------------------------------------------------------------------
# the reference: the master-family walk without its cuts


_MASTER_FAMILY = (RuleId.MASTER, RuleId.MASTER_111)


def _unpruned_master_family(rule, t):
    """Every (RuleParams, subgoals) instance of master or master-111 at t
    that `apply` accepts, in canonical order.  This is the walk of
    `rules._master_family_candidates` without the cuts that skip a
    candidate whose first subgoal fails 2 ell-bar <= r-1 or m-bar <= rho:
    each (ell', m') cell solves the window for its one centre X, and
    sum_n = c + 2d' runs over the heights' range.  Its subgoals are written
    out here, so it shares no formula with `rules`."""
    offset, strict = (0, False) if rule is RuleId.MASTER else (1, True)
    d, g, r, ell, m = t
    if r < 3:
        return
    k = r - 1
    n = delta_numerator(t)
    # |n - Xk| <= k - 1 holds X = x0 = ceil((n - k + 1)/k), and x0 + 1 if x0 k < n
    x0 = -((k - 1 - n) // k)
    x1 = x0 + 1 if x0 * k < n else None
    centres = (x1, x0) if x0 % 2 else (x0, x1)
    cap = r - 3 if strict else r - 2  # bound on 2m' + ell'
    m_top = m - 1 if strict else m
    dp_lo = g + r + 1 if g == 0 and m != 0 else g + r
    odd = r % 2 == 1
    n_lo = 2 if odd else 3
    for lp in range(0, min(ell, cap) + 1):
        for mp in range(0, min(m_top, (cap - lp) // 2) + 1):
            x = centres[(offset + lp + mp * k) % 2]
            if x is None:
                continue
            c = x - offset - lp - 2 * d  # sum_n = c + 2d'
            for dp in range(max(dp_lo, (mp * n_lo - c) // 2), min(d, (mp * k - c) // 2) + 1):
                sn = c + 2 * dp
                any2 = odd and sn < 4 * mp
                if any2 and g == 1 and dp == r + 1:
                    continue
                p = RuleParams(ell_prime=lp, m_prime=mp, d_prime=dp, sum_n=sn, any_ni_is_2=any2)
                # ell-bar = (ell - ell') + ((r-1)m' - sum_n)/2 and m-bar = m - m'
                lbar, mbar = ell - lp + (mp * k - sn) // 2, m - mp
                goals = [Tuple(dp - 1, g, r - 1, lbar, mbar)]
                if strict:  # master-111 also reduces to m-bar - 1 and to rank r - 2
                    goals += [Tuple(dp - 1, g, r - 1, lbar, mbar - 1), Tuple(dp - 2, g, r - 2, lbar, mbar)]
                yield p, goals


def _instances(rule, t):
    """Every instance `apply` accepts at t, in canonical order: the reference
    walk for the master family, `enumerate_instances` for the other rules."""
    return _unpruned_master_family(rule, t) if rule in _MASTER_FAMILY else enumerate_instances(rule, t)


def _walked(s):
    """Whether a master-family first subgoal s meets the two goodness
    clauses the walk in `rules` starts each d' run at."""
    return 2 * s.ell <= s.r and s.m <= rho(s.d, s.g, s.r)


def test_rule_order_covers_every_rule_once():
    assert len(RULE_ORDER) == len(set(RULE_ORDER)) == len(RuleId)


@pytest.mark.parametrize("r", [-1, 0, 1, 2])
def test_every_rule_refuses_r_below_3_at_each_entry_point(r):
    # r <= 2 is the SmallR base case: `apply` names it after the parameter
    # check, whatever else the tuple breaks (the delta-5 shape with k = (r-1)/2,
    # m = 0 with g >= 3, m >= r - 1), and neither enumerator offers an
    # instance (nor divides by r - 1 on the way)
    for rule in RuleId:
        fields = rules_mod._RULES[rule].fields
        p = RuleParams(**{name: False if name == "any_ni_is_2" else 1 for name in fields})
        for t in (Tuple(2 * r - 1, r - 2, r, 0, 1), Tuple(5, 3, r, 0, 0), Tuple(2, 0, r, 1, r - 1)):
            with pytest.raises(PreconditionViolated, match="^r < 3$"):
                apply(rule, t, p)
            assert list(enumerate_instances(rule, t)) == [], (rule, t)
            assert first_instance(rule, t, lambda s: True) is None, (rule, t)


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
    for p, _goals in _instances(RuleId.MASTER, t):
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


def test_elliptic_boundary_excludes_height_two():
    # subgoal degree r+1 at genus 1 forbids any height-2 twist
    t = Tuple(8, 1, 5, 0, 2)
    p2 = RuleParams(ell_prime=0, m_prime=1, d_prime=6, sum_n=2, any_ni_is_2=True)
    with pytest.raises(PreconditionViolated, match="forbidden"):
        apply(RuleId.MASTER, t, p2)
    for p, _ in itertools.chain(_unpruned_master_family(RuleId.MASTER, t), enumerate_instances(RuleId.MASTER, t)):
        if p.d_prime == 6:
            assert not p.any_ni_is_2 and p.sum_n >= 4 * p.m_prime


_TWISTED = (RuleId.MASTER, RuleId.MASTER_111, RuleId.MASTER_ERASABLE)


@pytest.mark.parametrize(
    "t, ell_prime, m_prime, d_prime, sum_n, any2, match",
    [
        ((4, 0, 2, 0, 0), 0, 0, 4, 0, False, "r < 3"),
        ((26, 0, 14, 0, 1), 1, 1, 26, 3, False, "ell' out of range"),
        ((6, 1, 3, 0, 2), 0, 1, 6, 2, True, "r = 3"),
        ((26, 0, 14, 0, 1), 0, 1, 27, 3, False, "d' out of range"),
        ((26, 0, 14, 0, 1), 0, 1, 14, 3, False, "d' must exceed g' \\+ r when g' = 0"),
        ((26, 0, 14, 0, 1), 0, 1, 26, 4, False, "parity"),
        ((8, 1, 5, 0, 2), 0, 1, 6, 2, True, "forbidden"),
    ],
    ids=["r-below-3", "ell-prime", "r3-master-family-forbids-twist-moves", "d-prime",
         "g-prime-0", "sum-n-parity-must-match-ambient", "elliptic-boundary"],
)
def test_twisted_rules_share_one_hypothesis_block(t, ell_prime, m_prime, d_prime, sum_n, any2, match):
    # each row breaks exactly one hypothesis that master, master-111 and
    # master-erasable share, and all three report it first, with g' = g,
    # m'' = 0 and eps_out = 0.  (ell-bar >= 0 is no hypothesis of its own:
    # it follows from the others, as the next test shows.)
    t = Tuple(*t)
    p = RuleParams(ell_prime=ell_prime, m_prime=m_prime, d_prime=d_prime, sum_n=sum_n, any_ni_is_2=any2)
    erasable = p._replace(m_dprime=0, g_prime=t.g, eps_in=t.d - d_prime, eps_out=0)
    reasons = set()
    for rule, q in zip(_TWISTED, (p, p, erasable)):
        with pytest.raises(PreconditionViolated, match=match) as e:
            apply(rule, t, q)
        reasons.add(e.value.reason)
    assert len(reasons) == 1, reasons
    if t.r == 3:
        assert all(q.m_prime == 0 for rule in _TWISTED for q, _ in _instances(rule, t))


def test_at_r3_every_twist_move_is_refused_before_its_heights(shell):
    # r = 3 leaves 2 as the only height, so every m' >= 1 stops at the r = 3
    # clause before the sum_n clauses read sum_n or the flag: that is why
    # they have no clause for an odd r without a height >= 4
    calls = 0
    for t, _in_box in shell(3):
        for mp, sn, any2 in itertools.product((1, 2, 3), (0, 2, 4, 5, 8), (False, True)):
            p = RuleParams(ell_prime=0, m_prime=mp, d_prime=t.d, sum_n=sn, any_ni_is_2=any2)
            erasable = p._replace(m_dprime=0, g_prime=t.g, eps_in=0, eps_out=0)
            for rule, q in zip(_TWISTED, (p, p, erasable)):
                with pytest.raises(PreconditionViolated) as e:
                    apply(rule, t, q)
                assert e.value.reason == "m' must be 0 when r = 3", (rule, t, q)
                calls += 1
    assert calls > 1_000


def test_ell_bar_cannot_be_negative_once_the_shared_hypotheses_hold():
    # the shared block has no ell-bar >= 0 clause: 0 <= ell' <= ell and the
    # sum_n clause imply it.  Exhaustive over the shell's ell range for r
    # 3-20, every m' up to the shell's m range (and a few negative ones, as
    # a certificate may hold any integers), both flags, and sum_n beyond
    # either end of every admitted range.  The block is asked at (r + 2, 1,
    # r, 0, 0) with g' = 1 and ell' = 0, where only its sum_n clauses (and,
    # at r = 3, its m' = 0 clause) can fail; d' = r + 1 puts the subgoal on
    # the elliptic boundary
    from bninterp.rules import _bar_ell, _check_twisted_heights

    admitted = tight = 0
    for r in range(3, 21):
        t = Tuple(r + 2, 1, r, 0, 0)
        for mp in range(-2, r + 2):
            for sn in range(-2 * r - 2, (r - 1) * (abs(mp) + 1) + 3):
                for any2, exclude_2 in itertools.product((False, True), repeat=2):
                    p = RuleParams(ell_prime=0, m_prime=mp, d_prime=r + 2 - exclude_2, sum_n=sn, any_ni_is_2=any2)
                    if _check_twisted_heights(t, p, 1) is not None:
                        continue
                    for ell in range(0, r // 2 + 1):
                        for lp in range(0, ell + 1):
                            lbar = _bar_ell(ell, lp, mp, sn, r)
                            assert lbar >= 0, (r, ell, lp, mp, sn, any2, exclude_2)
                            admitted += 1
                            tight += lbar == 0
    assert tight > 0 and admitted > 100_000


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
            for p, _goals in itertools.islice(_instances(rule, t), 4):
                assert RuleParams.from_json(p.to_json()) == p
                seen += 1
    assert seen > 50
    # what a certificate reader refuses, with the texts the CLI prints
    for doc, text in [
        ([1], "params must be an object, got [1]"),
        ({"zeta": 1}, "unknown parameter 'zeta'"),
        ({"eps": True}, "parameter eps must be int, got True"),
        ({"sum_n": 0, "any_ni_is_2": 1}, "parameter any_ni_is_2 must be bool, got 1"),
    ]:
        with pytest.raises(ValueError) as e:
            RuleParams.from_json(doc)
        assert str(e.value) == text


def test_params_bytes_and_value_semantics_are_pinned():
    # certificate and --csv bytes come from to_json: key order and the
    # any_ni_is_2 rule must not depend on how RuleParams is implemented.
    # Each is the rule's first instance that `apply` accepts
    pinned = [
        (RuleId.MASTER, (9, 0, 7, 1, 3),
         '{"ell_prime": 1, "m_prime": 1, "d_prime": 8, "sum_n": 2, "any_ni_is_2": true}'),
        (RuleId.MASTER_111, (22, 7, 14, 0, 11),
         '{"ell_prime": 0, "m_prime": 2, "d_prime": 21, "sum_n": 12, "any_ni_is_2": false}'),
        (RuleId.MASTER_ERASABLE, (7, 1, 6, 2, 1),
         '{"ell_prime": 0, "m_prime": 1, "m_dprime": 0, "d_prime": 7, "g_prime": 1, '
         '"eps_in": 0, "eps_out": 0, "sum_n": 3, "any_ni_is_2": false}'),
        (RuleId.TWO_PROJ, (8, 0, 5, 0, 1), '{"eps": 1}'),
        (RuleId.DELTA_5, (13, 5, 7, 0, 1), '{"k": 3}'),
    ]
    for rule, t, want in pinned:
        p, _goals = next(_instances(rule, Tuple(*t)))
        assert json.dumps(p.to_json()) == want, rule
        assert hash(p) == hash(RuleParams.from_json(json.loads(want)))
        with pytest.raises(AttributeError):
            p.sum_n = 0
    assert json.dumps(RuleParams().to_json()) == "{}"
    for rule in RuleId:
        assert pickle.loads(pickle.dumps(rule)) is rule


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
            strict = _master_instances_by_multisets(t, r - 2)
            for walk, want in (
                (_unpruned_master_family(RuleId.MASTER, t), strict),
                # the first subgoal is (d'-1, g, r-1, ell-bar, m - m')
                (enumerate_instances(RuleId.MASTER, t), {
                    (lp, mp, dp, sn, any2) for lp, mp, dp, sn, any2 in strict
                    if _walked(Tuple(dp - 1, g, r - 1, t.ell - lp + ((r - 1) * mp - sn) // 2, t.m - mp))
                }),
            ):
                got = {(p.ell_prime, p.m_prime, p.d_prime, p.sum_n, p.any_ni_is_2) for p, _ in walk}
                assert got == want, (tuple(t), got ^ want)
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
            for _p, goals in _instances(rule, t):
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
                        for rule in _MASTER_FAMILY:
                            for p, goals in _unpruned_master_family(rule, t):
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
        for p, _ in _unpruned_master_family(RuleId.MASTER, t):
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
    # reorders them fails; master-erasable's box is only affordable to r = 5.
    # The master family's reference walk gives every instance, and the walk
    # in rules those whose first subgoal meets the two clauses it reads
    checked = 0
    for t in _good_box_and_shell(7):
        for rule in RULE_ORDER:
            if rule is RuleId.MASTER_ERASABLE and t.r > 5:
                continue
            want = _brute_force_instances(rule, t)
            checked += len(want)
            if rule in _MASTER_FAMILY:
                assert list(_unpruned_master_family(rule, t)) == want, (tuple(t), rule)
                want = [(p, goals) for p, goals in want if _walked(goals[0])]
            assert list(enumerate_instances(rule, t)) == want, (tuple(t), rule)
            want_good = [(p, goals) for p, goals in want if all(_good(s) for s in goals)]
            assert list(enumerate_instances(rule, t, _good)) == want_good, (tuple(t), rule)
    assert checked > 10_000


# ---------------------------------------------------------------------------
# first_instance and enumerate_instances against the reference walk


def _first_matches_enumeration(rule, t):
    """first_instance under goodness equals the enumeration's first hit.
    For the master family both equal the reference walk's first instance
    with good subgoals, the accept-all enumeration equals the reference's
    instances whose first subgoal meets the two clauses the walk reads off
    it, and every candidate that first_instance offers meets them: for
    (d'-1, g, r-1, ell-bar, m-bar), 2 ell-bar <= r-1 and m-bar <= rho."""
    offered = []

    def good(s):
        offered.append(s)
        return _good(s)

    got = first_instance(rule, t, good)
    if rule not in _MASTER_FAMILY:
        assert got == next(enumerate_instances(rule, t, _good), None), (tuple(t), rule)
        return
    reference = list(_unpruned_master_family(rule, t))
    want = next(((p, goals) for p, goals in reference if all(_good(s) for s in goals)), None)
    assert got == want, (tuple(t), rule)
    assert next(enumerate_instances(rule, t, _good), None) == want, (tuple(t), rule)
    walked = [(p, goals) for p, goals in reference if _walked(goals[0])]
    assert list(enumerate_instances(rule, t)) == walked, (tuple(t), rule)
    # the subgoals at rank r-1 share 2 ell-bar with the first, and their m
    # is m-bar or m-bar - 1
    for s in offered:
        if s.r == t.r - 1:
            assert _walked(s), (tuple(t), rule, tuple(s))


def test_first_instance_matches_enumeration_on_the_shell_and_the_sporadic_sweep(shell):
    # every rule on the shell up to r = 10, which holds the sporadic tuples
    # of those ranks, and on the sporadic tuples above it; master-erasable's
    # enumeration is only affordable to r = 5
    def compare(t):
        for rule in RULE_ORDER:
            if rule is RuleId.MASTER_ERASABLE and t.r > 5:
                continue
            _first_matches_enumeration(rule, t)

    tuples = [t for r in range(3, 11) for t, _in_box in shell(r)]
    for t in tuples:
        compare(t)
    for t in enumerate_sporadic(13):
        if t.r > 10:
            compare(t)
    assert len(tuples) > 30_000


@st.composite
def _shell_tuples(draw):
    r = draw(st.integers(3, 60))
    g = draw(st.integers(0, r + 1))
    d = draw(st.integers(g + r, g + 2 * r + 2))
    ell = draw(st.integers(0, r // 2))
    m = draw(st.integers(0, max(0, min(rho(d, g, r), r + 1))))
    return Tuple(d, g, r, ell, m)


@settings(deadline=None, max_examples=300)
@given(t=_shell_tuples(), rule=st.sampled_from([RuleId.MASTER, RuleId.MASTER_111]))
def test_master_family_first_instance_matches_enumeration_up_to_r_60(t, rule):
    _first_matches_enumeration(rule, t)


# ---------------------------------------------------------------------------
# the two ways an instance is produced, against a defective parameter source


def test_an_enumerated_candidate_the_check_refuses_is_an_invariant_violation(monkeypatch):
    t = Tuple(26, 0, 14, 0, 1)
    spec = rules_mod._RULES[RuleId.MASTER]
    bad = RuleParams(ell_prime=0, m_prime=1, d_prime=25, sum_n=3)  # misses the window

    def defective(t):
        yield bad, [Tuple(24, 0, 13, 5, 0)]

    monkeypatch.setitem(rules_mod._RULES, RuleId.MASTER, spec._replace(candidates=defective))
    with pytest.raises(InvariantViolated, match="^master enumerated .*window"):
        list(enumerate_instances(RuleId.MASTER, t))
    with pytest.raises(InvariantViolated, match="^master enumerated .*window"):
        first_instance(RuleId.MASTER, t, lambda s: True)


@pytest.mark.parametrize("eps", [-1, 2])
def test_a_single_instance_rule_refuses_an_out_of_range_parameter_by_its_check(monkeypatch, eps):
    # eps = 1 is the one instance at t; -1 is negative and 2 exceeds (d - g - r)/2
    t = Tuple(8, 0, 5, 0, 1)
    assert first_instance(RuleId.TWO_PROJ, t, lambda s: True) == (RuleParams(eps=1), [Tuple(4, 0, 3, 0, 1)])
    spec = rules_mod._RULES[RuleId.TWO_PROJ]
    monkeypatch.setitem(rules_mod._RULES, RuleId.TWO_PROJ, spec._replace(params=lambda t: RuleParams(eps=eps)))
    assert list(enumerate_instances(RuleId.TWO_PROJ, t)) == []
    assert first_instance(RuleId.TWO_PROJ, t, lambda s: True) is None


def _field_loop(fields, p):
    # the reference: every field in turn, the first offender named; a field
    # the rule does not read must equal its default, False too being set
    for name, v, default in zip(p._fields, p, RuleParams()):
        if name in fields:
            if v is None:
                return f"missing parameter {name}"
        elif v != default:
            return f"parameter {name} does not belong to this rule"
    return None


def test_the_field_mask_agrees_with_a_loop_over_the_fields():
    # valid params with some fields overwritten; any_ni_is_2 takes only
    # None, False or True, as the certificate reader admits
    rng = random.Random(14)
    values = (None, False, True, 0, 1, -1, 7)
    valid = 0
    for rule, spec in rules_mod._RULES.items():
        for _ in range(2_000):
            p = RuleParams(**{name: rng.randint(0, 9) for name in spec.fields if name != "any_ni_is_2"})
            if "any_ni_is_2" in spec.fields:
                p = p._replace(any_ni_is_2=rng.random() < 0.5)
            p = p._replace(
                **{
                    name: rng.choice(values[:3] if name == "any_ni_is_2" else values)
                    for name in RuleParams._fields
                    if rng.random() < 0.1
                }
            )
            want = _field_loop(spec.fields, p)
            assert rules_mod._parameter_violation(rule, p) == want, (rule, p)
            valid += want is None
    assert valid > 5_000
    # a foreign field set to False, or any_ni_is_2 set to None, is set: the
    # mask refuses it and the loop names it
    for rule, t, p, name in (
        (RuleId.GATHER_LINES, Tuple(20, 1, 4, 0, 0), RuleParams(eps=False), "eps"),
        (RuleId.GATHER_LINES, Tuple(20, 1, 4, 0, 0), RuleParams(any_ni_is_2=None), "any_ni_is_2"),
        (RuleId.TWO_PROJ, Tuple(8, 0, 5, 0, 1), RuleParams(eps=1, k=False), "k"),
    ):
        want = f"parameter {name} does not belong to this rule"
        assert rules_mod._parameter_violation(rule, p) == want
        with pytest.raises(PreconditionViolated, match=f"^{want}$"):
            apply(rule, t, p)
    assert apply(RuleId.GATHER_LINES, Tuple(20, 1, 4, 0, 0), RuleParams(eps=None, any_ni_is_2=0))
    assert apply(RuleId.TWO_PROJ, Tuple(8, 0, 5, 0, 1), RuleParams(eps=1)) == [Tuple(4, 0, 3, 0, 1)]


# ---------------------------------------------------------------------------
# apply's outcomes, pinned


def _outcome(rule, t, p):
    try:
        return [tuple(s) for s in apply(rule, t, p)]
    except PreconditionViolated as e:
        return e.reason


def test_apply_outcomes_on_a_seeded_grid_are_pinned(shell):
    # each rule on seeded shell tuples with r 3-8 and on the first shuffled
    # ones where it has an instance: a seeded parameter set and the first
    # instances `enumerate_instances` gives, each also with r < 3, with a
    # field the rule does not read, and with every integer field of the tuple
    # and the parameters moved by one.  The digest is of each outcome, the
    # subgoals or the refusal's reason, so a changed clause, clause order,
    # reason or subgoal moves it.
    rng = random.Random(24)
    digest = hashlib.sha256()
    calls = 0

    def record(rule, t, p):
        nonlocal calls
        calls += 1
        digest.update(repr((rule.value, tuple(t), tuple(p), _outcome(rule, t, p))).encode())

    for r in range(3, 9):
        tuples = [t for t, _in_box in shell(r)]
        grid = rng.sample(tuples, 16)
        rng.shuffle(tuples)
        for rule in RULE_ORDER:
            grid += itertools.islice((t for t in tuples if first_instance(rule, t, lambda s: True)), 3)
        for t in grid:
            for rule in RULE_ORDER:
                fields = rules_mod._RULES[rule].fields
                foreign = next(name for name in RuleParams._fields if name not in fields)
                seeded = RuleParams(
                    **{f: rng.random() < 0.5 if f == "any_ni_is_2" else rng.randint(0, 4) for f in fields}
                )
                for p in [seeded, *(p for p, _goals in itertools.islice(enumerate_instances(rule, t), 2))]:
                    record(rule, t, p)
                    record(rule, t._replace(r=2), p)
                    record(rule, t, p._replace(**{foreign: 0}))
                    for i, step in itertools.product(range(5), (-1, 1)):
                        record(rule, Tuple(*(v + step * (j == i) for j, v in enumerate(t))), p)
                    for f in fields:
                        v = getattr(p, f)
                        for moved in (not v,) if f == "any_ni_is_2" else (v - 1, v + 1):
                            record(rule, t, p._replace(**{f: moved}))
    assert (calls, digest.hexdigest()) == (
        80_718, "f4ad589a48c743b214e679230e4514f62655a7b857dd662ebd39d55752fcd83f"
    )
