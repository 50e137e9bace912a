"""Search layer: axiom tagging, certification with backtracking and
memoization, independent certificate verification with tamper detection,
the sporadic sweep, and the large-r coverage check."""

import copy
import gc
import itertools
import json
import pickle
import random
import re

import pytest

from bninterp import (
    COUNTEREXAMPLE_TRIPLES,
    RULE_ORDER,
    SPORADIC30,
    XEX,
    AxiomSet,
    Axiom,
    Certificate,
    DomainError,
    Irreducible,
    RuleApp,
    RuleId,
    Tuple,
    apply,
    bn_interpolation,
    certify,
    enumerate_instances,
    enumerate_sporadic,
    find_reduction,
    first_instance,
    is_good,
    rho,
    run_sporadic_search,
    verify_certificate,
    verify_thm14,
)
import bninterp.prover as prover
import bninterp.rules as rules_mod
from bninterp import InvariantViolated, RuleParams
from bninterp.prover import PROVISO_DELTA1, check_workers


def test_axiom_tags():
    ax = AxiomSet()
    assert ax.tag_of(Tuple(7, 0, 2, 0, 0)) == "SmallR"
    # SmallR's domain is the good tuples of rank <= 2
    assert ax.tag_of(Tuple(5, 9, 1, 2, 3)) is None
    assert ax.tag_of(Tuple(0, 7, 2, 3, -4)) is None
    assert ax.tag_of(Tuple(5, 0, -1, 0, 0)) is None
    assert ax.tag_of(Tuple(6, 1, 5, 0, 0)) == "Delta1Base"
    assert ax.tag_of(Tuple(16, 3, 13, 0, 0)) == "Delta1Base"
    # Delta1Base's domain is g >= 1: (5g+1, g, 4g+1, 0, 0) has rho = g
    assert ax.tag_of(Tuple(-4, -1, -3, 0, 0)) is None
    assert ax.tag_of(Tuple(-9, -2, -7, 0, 0)) is None
    assert ax.tag_of(Tuple(5, 2, 3, 0, 1)) == "Sporadic30"
    assert ax.tag_of(Tuple(14, 8, 7, 0, 0)) == "CanonicalEven"
    # CanonicalEven's domain is odd r >= 3 less the counterexample triples
    assert ax.tag_of(Tuple(2, 2, 1, 0, 0)) is None
    assert ax.tag_of(Tuple(6, 4, 3, 0, 0)) is None
    assert ax.tag_of(Tuple(10, 6, 5, 0, 0)) is None
    assert ax.tag_of(Tuple(14, 8, 7, 0, 1)) is None
    assert ax.tag_of(Tuple(12, 6, 5, 0, 0)) is None


def test_no_tuple_certifies_where_interpolation_fails():
    # over (d, g, r, 0, 0) with r 1-9 and d <= 30, every (d, g, r) that
    # bn_interpolation reports as an exception is refused by certify
    failing = set()
    for r in range(1, 10):
        for d in range(1, 31):
            for g in range(2 * d):
                try:
                    holds = bn_interpolation(d, g, r).holds
                except DomainError:  # rho < 0: no such curve
                    continue
                if not holds:
                    failing.add((d, g, r))
                    assert AxiomSet().tag_of(Tuple(d, g, r, 0, 0)) is None, (d, g, r)
                    with pytest.raises(DomainError):
                        certify(Tuple(d, g, r, 0, 0))
    assert failing == COUNTEREXAMPLE_TRIPLES


def test_extra_axioms_from_file(tmp_path):
    p = tmp_path / "ax.json"
    p.write_text(json.dumps({"axioms": [{"tuple": [9, 9, 9, 0, 0], "citation": "external fact"}]}))
    ax = AxiomSet.from_json(json.loads(p.read_text()))
    t = Tuple(9, 9, 9, 0, 0)
    assert ax.tag_of(t) == "Extra"
    cert = certify(t, axioms=ax)
    assert cert.nodes[t] == Axiom("Extra")
    assert verify_certificate(cert, axioms=ax)
    # without the extra axiom the same certificate must be rejected
    res = verify_certificate(cert, axioms=AxiomSet())
    assert not res and res.code == "UnknownAxiom"


def test_certify_simple_chain():
    t = Tuple(3, 0, 3, 0, 0)
    cert = certify(t)
    assert cert.root == t
    j = cert.nodes[t]
    assert isinstance(j, RuleApp) and j.rule is RuleId.MASTER
    assert j.children == (Tuple(2, 0, 2, 0, 0),)
    assert cert.nodes[Tuple(2, 0, 2, 0, 0)] == Axiom("SmallR")
    assert verify_certificate(cert)


def test_certify_rejects_good_looking_but_ineligible_root():
    # a pure-formula rule source that fails goodness cannot be certified
    with pytest.raises(DomainError):
        certify(Tuple(4, 1, 3, 0, 3))  # m exceeds rho


def test_certify_records_the_characteristic_proviso():
    cert = certify(Tuple(22, 3, 17, 0, 0))
    j = cert.nodes[Tuple(22, 3, 17, 0, 0)]
    assert isinstance(j, RuleApp) and j.rule is RuleId.DELTA_1_STEP
    assert j.proviso == PROVISO_DELTA1
    doc = cert.to_json()
    back = Certificate.from_json(doc)
    assert back.nodes[Tuple(22, 3, 17, 0, 0)].proviso == PROVISO_DELTA1
    assert verify_certificate(back)


def test_certify_rejects_non_good_non_axiom_input():
    with pytest.raises(DomainError):
        certify(Tuple(2, 0, 3, 0, 0))


def test_certify_refuses_a_root_neither_good_nor_axiom_before_the_memo():
    # certify owns its root test: the refusal names every failed clause and
    # leaves a shared memo as it was
    memo = {}
    certify(Tuple(13, 2, 6, 1, 0), memo=memo)
    before = list(memo.items())
    for t, failures in (
        (Tuple(2, 0, 3, 0, 0), "DegreeBelowGPlusR, MExceedsRho, RationalResidue"),
        (Tuple(0, 7, 2, 3, -4), "NegativeField, DegreeBelowGPlusR, EllTooLarge, MExceedsRho"),
        (Tuple(6, 4, 3, 0, 0), "DegreeBelowGPlusR"),
    ):
        with pytest.raises(DomainError) as e:
            certify(t, memo=memo)
        assert str(e.value) == f"tuple is not good ({failures}) and is not an axiom"
        assert list(memo.items()) == before
    # an axiom that is not good is a root like any other
    t = Tuple(6, 4, 3, 0, 0)
    assert certify(t, axioms=AxiomSet(extra=frozenset({t}))).nodes == {t: Axiom("Extra")}


def test_certify_and_enumerate_sporadic_refuse_a_field_or_rank_that_is_not_an_integer():
    # both raised TypeError from range(): certify names its root's first
    # field that is not an int, before the memo is touched; a bool is an int
    memo = {}
    for t, name, value in (
        (Tuple(13.0, 2, 6, 1, 0), "d", 13.0),
        (Tuple(13, None, 6, 1, 0), "g", None),
        (Tuple(13, 2, 6.5, 1, 0), "r", 6.5),
        (Tuple(13, 2, 6, 1.0, 0.0), "ell", 1.0),
        (Tuple(13, 2, 6, 1, "0"), "m", "0"),
    ):
        with pytest.raises(DomainError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            certify(t, memo=memo)
    assert memo == {}
    assert certify(Tuple(13, 2, 6, True, False)).nodes == certify(Tuple(13, 2, 6, 1, 0)).nodes
    for rank in (5.0, "5", None):
        with pytest.raises(DomainError, match=f"^rmax must be an integer, got {re.escape(repr(rank))}$"):
            enumerate_sporadic(rank)
    assert enumerate_sporadic(True) == []


def test_certify_refuses_a_root_that_is_not_a_tuple_before_the_memo():
    # a plain tuple raised AttributeError at the depth cap, a 4-tuple
    # ValueError and a list TypeError; each is named by its type
    memo = {}
    roots = ((13, 2, 6, 1, 0), (13, 2, 6, 1), [13, 2, 6, 1, 0], None)
    for root, kind in zip(roots, ("tuple", "tuple", "list", "NoneType")):
        with pytest.raises(DomainError, match=f"^the root must be a Tuple, got {kind}$"):
            certify(root, memo=memo)
    assert memo == {}


def test_the_sporadic_sweep_refuses_a_disabled_entry_that_is_not_a_rule(monkeypatch):
    # the string "master" was silently ignored and the full sweep ran; each
    # entry is refused, named, before any tuple is built
    monkeypatch.setattr(prover, "enumerate_sporadic", lambda r_max: pytest.fail("the sweep ran"))
    for entry in ("master", None, ["master"]):
        with pytest.raises(DomainError, match=f"^a disabled rule must be a RuleId, got {re.escape(repr(entry))}$"):
            run_sporadic_search(6, disabled=[RuleId.GATHER_LINES, entry])


def test_an_extra_axiom_the_master_walk_skips_is_never_its_first_subgoal():
    # s = (4, 1, 3, 0, 2) has m = 2 > rho = 1.  The master walk skips every
    # instance whose first subgoal fails m <= rho, so it never offers the
    # one at t that reduces to s, even when s is an extra axiom; apply and
    # the verifier still accept it
    t, s = Tuple(7, 1, 4, 0, 3), Tuple(4, 1, 3, 0, 2)
    p = RuleParams(ell_prime=0, m_prime=1, d_prime=5, sum_n=3, any_ni_is_2=False)
    ax = AxiomSet(extra=frozenset({s}))
    assert is_good(t).is_good and s.m > rho(s.d, s.g, s.r) and ax.tag_of(s) == "Extra"
    accept = lambda u: ax.tag_of(u) is not None or is_good(u).is_good  # noqa: E731
    for offered in (enumerate_instances(RuleId.MASTER, t), enumerate_instances(RuleId.MASTER, t, accept)):
        assert p not in [q for q, _goals in offered]
    assert apply(RuleId.MASTER, t, p) == [s]
    cert = Certificate(root=t, nodes={t: RuleApp(RuleId.MASTER, p, (s,)), s: Axiom("Extra")})
    assert verify_certificate(cert, axioms=ax)
    assert verify_certificate(cert).code == "UnknownAxiom"
    assert s not in certify(t, axioms=ax).nodes


def test_irreducible_names_a_good_root_with_no_chain(monkeypatch):
    monkeypatch.setattr(prover, "enumerate_instances", lambda rule, t, accept: iter(()))
    memo = {}
    t = Tuple(13, 2, 6, 1, 0)
    with pytest.raises(Irreducible) as e:
        certify(t, memo=memo)
    assert e.value.tuple == t and memo == {t: None}


@pytest.mark.parametrize("how", ["memo", "expansion"])
def test_certify_backtracks_past_a_child_that_fails(monkeypatch, how):
    # gather-lines' one child fails, known from the memo or found when it is
    # expanded with no instance of its own, so the root moves on to its next
    # instance: master, whose child is (10, 2, 5, 1, 0)
    t, blocked = Tuple(13, 2, 6, 1, 0), Tuple(8, 2, 6, 1, 0)
    assert certify(t).nodes[t].children == (blocked,)
    memo = {blocked: None} if how == "memo" else {}
    if how == "expansion":
        real = prover.enumerate_instances
        monkeypatch.setattr(prover, "enumerate_instances", lambda rule, s, accept: iter(()) if s == blocked else real(rule, s, accept))
    cert = certify(t, memo=memo)
    j = cert.nodes[t]
    assert j.rule is RuleId.MASTER and j.children == (Tuple(10, 2, 5, 1, 0),)
    assert memo[blocked] is None and blocked not in cert.nodes
    assert verify_certificate(cert)


def test_certify_raises_irreducible_when_every_route_is_blocked(monkeypatch):
    # only the root has instances, so each child fails when expanded or, met
    # again, from the memo; the root backtracks past every instance
    t = Tuple(13, 2, 6, 1, 0)
    real = prover.enumerate_instances
    offered = []

    def root_only(rule, s, accept):
        for p, goals in real(rule, s, accept) if s == t else ():
            offered.append(goals)
            yield p, goals

    monkeypatch.setattr(prover, "enumerate_instances", root_only)
    memo = {}
    with pytest.raises(Irreducible) as e:
        certify(t, memo=memo)
    children = {s for goals in offered for s in goals}
    assert e.value.tuple == t and len(offered) > len(children) > 1
    assert memo == dict.fromkeys(children | {t})


def test_the_sweeps_refuse_an_empty_rank_range():
    # the CLI prints these texts as `error: ...`; the worker count is checked first
    with pytest.raises(DomainError, match=r"^rmax 2 leaves no rank to sweep \(the sweep starts at r = 3\)$"):
        run_sporadic_search(2)
    with pytest.raises(DomainError, match="^empty rank range: rmax 13 is below rmin 14$"):
        verify_thm14(13)
    with pytest.raises(DomainError, match="^empty rank range: rmax 14 is below rmin 15$"):
        verify_thm14(14, r_min=15)
    with pytest.raises(DomainError, match="^workers must be a positive integer, got 0$"):
        verify_thm14(13, workers=0)
    with pytest.raises(DomainError, match="^workers must be a positive integer, got 0$"):
        run_sporadic_search(2, workers=0)
    # a rank that is not an integer is refused before any work, after the
    # worker count; a bool is an integer
    with pytest.raises(DomainError, match="^rmax must be an integer, got 13.0$"):
        run_sporadic_search(13.0)
    with pytest.raises(DomainError, match="^rmax must be an integer, got '13'$"):
        run_sporadic_search("13")
    with pytest.raises(DomainError, match="^rmax must be an integer, got 16.0$"):
        verify_thm14(16.0)
    with pytest.raises(DomainError, match="^rmin must be an integer, got 14.5$"):
        verify_thm14(16, r_min=14.5)
    with pytest.raises(DomainError, match="^rmin must be an integer, got None$"):
        verify_thm14(16, r_min=None)
    with pytest.raises(DomainError, match="^workers must be a positive integer, got 0$"):
        verify_thm14(16.0, workers=0)
    with pytest.raises(DomainError, match="^empty rank range: rmax True is below rmin 14$"):
        verify_thm14(True)


def test_certify_shares_memo_across_calls():
    memo = {}
    c1 = certify(Tuple(12, 6, 5, 0, 0), memo=memo)
    size_after_first = len(memo)
    c2 = certify(Tuple(12, 6, 5, 0, 0), memo=memo)
    assert len(memo) == size_after_first
    assert c1.nodes == c2.nodes
    certify(Tuple(13, 2, 6, 1, 0), memo=memo)
    assert len(memo) > size_after_first


def _round_trip_roots() -> list:
    """A seeded sample of good roots of rank 3 to 7 whose certificates
    have several nodes, plus one of rank 14 and one by delta-1-step, whose
    row carries a proviso."""
    rng = random.Random(22)
    roots = [Tuple(26, 0, 14, 0, 1), Tuple(22, 3, 17, 0, 0)]
    while len(roots) < 41:
        r = rng.randint(3, 7)
        g = rng.randint(0, 8)
        d = rng.randint(g + r, g + 2 * r + 3)
        t = Tuple(d, g, r, rng.randint(0, r // 2), rng.randint(0, max(rho(d, g, r), 0)))
        if is_good(t).is_good and t not in roots and len(certify(t).nodes) >= 3:
            roots.append(t)
    return roots


def test_certificate_json_round_trip_is_exact():
    for t in _round_trip_roots():
        cert = certify(t)
        text = json.dumps(cert.to_json())
        back = Certificate.from_json(json.loads(text))
        assert json.dumps(back.to_json()) == text, t
        assert back.root == cert.root
        assert back.nodes == cert.nodes
        assert verify_certificate(back), t


def test_justifications_are_immutable_and_pickle():
    cert = certify(Tuple(13, 2, 6, 1, 0))
    app = cert.nodes[cert.root]
    ax = cert.nodes[Tuple(2, 0, 2, 0, 0)]
    assert isinstance(app, RuleApp) and isinstance(ax, Axiom)
    with pytest.raises(AttributeError):
        app.rule = RuleId.MASTER
    with pytest.raises(AttributeError):
        ax.tag = "Sporadic30"
    assert {app: 1, ax: 2}[app] == 1
    back = pickle.loads(pickle.dumps(cert.nodes))
    assert back == cert.nodes
    assert verify_certificate(Certificate(root=cert.root, nodes=back))


def test_verify_detects_tampering():
    t = Tuple(3, 0, 3, 0, 0)
    child = Tuple(2, 0, 2, 0, 0)
    cert = certify(t)

    # child list altered
    bad = Certificate(root=cert.root, nodes=dict(cert.nodes))
    j = bad.nodes[t]
    bad.nodes[t] = j._replace(children=(Tuple(2, 0, 2, 0, 1),))
    res = verify_certificate(bad)
    assert not res and res.code == "ChildMismatch"

    # child node dropped
    bad = Certificate(root=cert.root, nodes=dict(cert.nodes))
    del bad.nodes[child]
    res = verify_certificate(bad)
    assert not res and res.code == "MissingNode"

    # axiom tag forged
    bad = Certificate(root=cert.root, nodes=dict(cert.nodes))
    bad.nodes[child] = Axiom("Delta1Base")
    res = verify_certificate(bad)
    assert not res and res.code == "UnknownAxiom"

    # parameters corrupted so the rule no longer applies
    cert2 = certify(Tuple(13, 2, 6, 1, 0))
    j2 = cert2.nodes[Tuple(13, 2, 6, 1, 0)]
    assert isinstance(j2, RuleApp)
    bad = Certificate(root=cert2.root, nodes=dict(cert2.nodes))
    bad.nodes[Tuple(13, 2, 6, 1, 0)] = j2._replace(rule=RuleId.PEEL_ONION)
    res = verify_certificate(bad)
    assert not res and res.code in ("PreconditionViolated", "ChildMismatch")

    # root without a node
    res = verify_certificate(Certificate(root=Tuple(1, 1, 1, 1, 1), nodes=dict(cert.nodes)))
    assert not res and res.code == "RootMissing"


def test_verify_refuses_a_justification_of_another_type():
    # a plain tuple equal to Axiom("SmallR") is neither an Axiom nor a RuleApp
    cert = certify(Tuple(3, 0, 3, 0, 0))
    child = Tuple(2, 0, 2, 0, 0)
    assert ("SmallR",) == cert.nodes[child]
    res = verify_certificate(Certificate(root=cert.root, nodes={**cert.nodes, child: ("SmallR",)}))
    assert not res and (res.code, res.detail) == ("BadJustification", f"{child}: ('SmallR',)")


def test_verify_refuses_an_edge_that_does_not_decrease_the_measure(monkeypatch):
    # a rule that re-runs to its own node, stored to match, passes every
    # check before the measure's
    t = Tuple(13, 2, 6, 1, 0)
    cert = certify(t)
    monkeypatch.setattr(prover, "apply", lambda rule, node, params: [node])
    nodes = {**cert.nodes, t: cert.nodes[t]._replace(children=(t,))}
    res = verify_certificate(Certificate(root=t, nodes=nodes))
    assert not res and (res.code, res.detail) == ("MeasureViolation", f"{t} -> {t} does not decrease (r, d, m)")


def test_enumerate_sporadic_matches_inline_box_at_r3():
    got = [t for t in enumerate_sporadic(3)]
    ref = set()
    for g in range(0, 3):
        for d in range(g + 3, g + 6):
            rr = rho(d, g, 3)
            if rr < 0:
                continue
            for ell in range(0, 2):
                for m in range(0, min(rr, 1 + (1 if g == 0 else 0)) + 1):
                    t = Tuple(d, g, 3, ell, m)
                    if not is_good(t).is_good:
                        continue
                    if t.ell == 0 and t.m == 0 and 2 * t.d + 2 * t.g == 8:
                        continue
                    ref.add(t)
    ref.add(Tuple(5, 2, 3, 0, 2))  # the one reachable bad-residue shift
    assert set(got) == ref
    assert got == sorted(got, key=lambda t: (t.r, t.g, t.d, t.ell, t.m))


def test_shifted_bad_residue_tuple_is_enumerated_and_irreducible():
    t = Tuple(5, 2, 3, 0, 2)
    assert t in enumerate_sporadic(13)
    assert is_good(t).is_good
    assert find_reduction(t) is None  # pancake leads into the bad-residue list
    assert t in SPORADIC30


def test_sporadic_sweep_small_r():
    rep = run_sporadic_search(r_max=5)
    want = sorted(
        (t for t in SPORADIC30 if t.r <= 5), key=lambda t: (t.r, t.g, t.d, t.ell, t.m)
    )
    assert rep.irreducible == want
    assert rep.examined > 200
    assert rep.reducible == rep.examined - len(want)
    # every reported witness re-applies
    for t, status, rule, params in rep.rows():
        if status == "reducible":
            from bninterp import apply

            assert apply(rule, t, params)


def test_sporadic_sweep_parallel_agrees_with_serial():
    a = run_sporadic_search(r_max=4)
    b = run_sporadic_search(r_max=4, workers=2)
    assert a.irreducible == b.irreducible
    assert a.examined == b.examined


def test_sporadic_parallel_report_equals_serial():
    # witnesses keep their goals in both modes, so the reports are equal
    a = run_sporadic_search(r_max=6)
    b = run_sporadic_search(r_max=6, workers=2)
    assert a == b
    assert all(w is None or w[2] for w in b.witnesses.values())
    # stored in sweep order, so `rows` and `irreducible` need no sort
    assert list(b.witnesses) == sorted(b.witnesses, key=prover.sweep_order)


@pytest.fixture
def collector():
    """Restore the cyclic collector's setting after the test."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_sporadic_sweep_pauses_the_collector_and_restores_its_setting(collector, monkeypatch, enabled):
    dispatch = prover._dispatch
    seen = []

    def spy(table, t):
        seen.append(gc.isenabled())
        return dispatch(table, t)

    monkeypatch.setattr(prover, "_dispatch", spy)
    (gc.enable if enabled else gc.disable)()
    run_sporadic_search(r_max=5)
    assert gc.isenabled() is enabled
    assert seen and not any(seen)


@pytest.mark.parametrize("exc", [InvariantViolated, KeyboardInterrupt])
def test_sporadic_sweep_restores_the_collector_when_a_tuple_raises(collector, monkeypatch, exc):
    dispatch = prover._dispatch
    calls = []

    def fail_on_100th(table, t):
        calls.append(t)
        if len(calls) == 100:
            raise exc("planted")
        return dispatch(table, t)

    monkeypatch.setattr(prover, "_dispatch", fail_on_100th)
    gc.enable()
    with pytest.raises(exc, match="planted"):
        run_sporadic_search(r_max=5)
    assert gc.isenabled()
    assert len(calls) == 100


def test_the_paused_sweep_leaves_no_garbage(collector):
    # the table is acyclic, so nothing the pause leaves behind is garbage.
    # Importing multiprocessing leaves some cyclic garbage once, and the
    # sweep imports it in its first forked map, so it is imported first.
    import multiprocessing  # noqa: F401

    gc.collect()
    gc.disable()
    run_sporadic_search(r_max=10)
    assert gc.collect() == 0
    run_sporadic_search(r_max=6, workers=2)
    assert gc.collect() == 0


def test_check_workers_rejects_below_one_and_clamps_to_cpu_count(monkeypatch):
    # only the validator runs here; no worker process is started
    for bad in (0, -3, True, 2.0, "2"):
        with pytest.raises(ValueError):
            check_workers(bad)
    monkeypatch.setattr(prover.os, "cpu_count", lambda: 3)
    assert check_workers(1) == 1
    assert check_workers(3) == 3
    assert check_workers(10_000) == 3
    monkeypatch.setattr(prover.os, "cpu_count", lambda: None)
    assert check_workers(10_000) == 1
    with pytest.raises(ValueError):
        run_sporadic_search(r_max=3, workers=0)
    with pytest.raises(ValueError):
        verify_thm14(r_max=14, workers=0)


def test_certify_depth_cap_is_an_explicit_check(monkeypatch):
    # a rule table that loops a tuple back onto itself is stopped by the
    # measure check, which must hold under `python -O` as well
    def self_loop(rule, t, accept):
        yield RuleParams(), [t]

    monkeypatch.setattr(prover, "enumerate_instances", self_loop)
    with pytest.raises(InvariantViolated, match=r"does not decrease \(r, d, m\)"):
        certify(Tuple(13, 2, 6, 1, 0))


def test_certify_refuses_a_subgoal_that_raises_the_measure(monkeypatch):
    # an instance whose subgoal has a higher (r, d, m) than its node: certify
    # used to return a 7-node certificate here that only verify refused
    root, up = Tuple(13, 2, 6, 1, 0), Tuple(14, 2, 6, 1, 0)
    real = prover.enumerate_instances

    def rising(rule, t, accept):
        if t != root:
            return real(rule, t, accept)
        return iter([(RuleParams(), [up])] if rule is RuleId.GATHER_LINES else [])

    monkeypatch.setattr(prover, "enumerate_instances", rising)
    with pytest.raises(InvariantViolated, match=re.escape(f"{root} -> {up} does not decrease (r, d, m)")):
        certify(root)


def test_an_axiom_root_certifies_whatever_its_depth_cap():
    # an axiom root is settled before anything is expanded or measured,
    # even one whose r + d + m + 8 is negative
    t = Tuple(-20, 0, 0, 0, 0)
    ax = AxiomSet(extra=frozenset({t}))
    cert = certify(t, axioms=ax)
    assert cert.nodes == {t: Axiom("Extra")} and verify_certificate(cert, axioms=ax)
    with pytest.raises(DomainError):
        certify(Tuple(-9, -2, -7, 0, 0))


def test_disabling_rules_only_shrinks_reducibility():
    full = run_sporadic_search(r_max=3)
    crippled = run_sporadic_search(
        r_max=3,
        disabled=(
            RuleId.MASTER,
            RuleId.MASTER_111,
            RuleId.MASTER_ERASABLE,
            RuleId.GATHER_LINES,
        ),
    )
    assert set(full.irreducible) <= set(crippled.irreducible)
    assert len(crippled.irreducible) > len(full.irreducible)


def test_section8_rules_exclude_the_degeneration_moves(shell):
    # the coverage sweep's table is the full table less master-erasable,
    # class by class
    full = prover._rule_table(())
    assert prover._THM14_TABLE.keys() == full.keys()
    for key, rules in full.items():
        assert prover._THM14_TABLE[key] == tuple(r for r in rules if r is not RuleId.MASTER_ERASABLE), key
    # every sweep tuple falls in a class failing test 4 (g >= r) and test 5
    # (the delta = 1, ell = m = 0 locus), so no sweep is offered peel-onion
    # or delta-1-step; the r 14-16 box is _box's, which is the shell's box
    # part that _in_sweep admits
    box = [t for r in (14, 15, 16) for t in prover._box(r)]
    assert box == [t for r in (14, 15, 16) for t, in_box in shell(r) if in_box and prover._in_sweep(t)]
    for t in enumerate_sporadic(13) + box:
        key = prover._shape(t)
        assert not key[4] and not key[5], t
        assert RuleId.PEEL_ONION not in full[key] and RuleId.DELTA_1_STEP not in full[key], t
    assert len(box) == 78_048


def test_disabled_rules_compose_with_the_rule_table():
    # the sporadic sweep with one rule disabled gives the witnesses of an
    # unfiltered find_reduction over the sweep rules without that rule
    sweep = [r for r in RULE_ORDER if r not in (RuleId.PEEL_ONION, RuleId.DELTA_1_STEP)]
    tuples = enumerate_sporadic(7)
    for off in RuleId:
        got = run_sporadic_search(r_max=7, disabled=(off,))
        want = {t: find_reduction(t, [r for r in sweep if r is not off]) for t in tuples}
        assert got.witnesses == want, off


def test_sweep_tuples_cannot_fire_the_rules_the_sweeps_leave_out(shell):
    # peel-onion needs g >= r; delta-1-step needs the delta = 1, ell = m = 0
    # locus, 2d + 2g = 3r - 1
    box = [t for r in (14, 15, 16) for t, in_box in shell(r) if in_box and prover._in_sweep(t)]
    for t in enumerate_sporadic(13) + box:
        assert t.g < t.r, t
        assert not (t.ell == 0 and t.m == 0 and 2 * t.d + 2 * t.g == 3 * t.r - 1), t
        for rule in (RuleId.PEEL_ONION, RuleId.DELTA_1_STEP):
            assert first_instance(rule, t, lambda s: True) is None, (t, rule)
    assert len(box) > 75_000


def _criterion9_sample(seed, n):
    """n good tuples drawn from the criterion-9 domain (r <= 9, d <= 30): a
    (d, g, r, ell) cell with rho >= 0, then an m up to rho."""
    cells = [
        (d, g, r, ell)
        for r in range(1, 10) for d in range(1, 31) for g in range(0, d - r + 1) if rho(d, g, r) >= 0
        for ell in range(0, r // 2 + 1)
    ]
    rng = random.Random(seed)
    out = set()
    while len(out) < n:
        d, g, r, ell = rng.choice(cells)
        t = Tuple(d, g, r, ell, rng.randint(0, rho(d, g, r)))
        if is_good(t).is_good:
            out.add(t)
    return sorted(out)


def test_rule_table_leaves_out_only_rules_without_an_instance(shell):
    # one table serves certify and both sweeps: a class of _shape's six
    # tests lists its rules in RULE_ORDER and the master family in full.  On
    # every shell tuple with r 3-20, every image of XEX under the inverse
    # pancake step and a seeded sample of the criterion-9 domain, a rule the
    # class leaves out has no instance even when every subgoal is accepted
    table = prover._rule_table(())
    assert table == prover._CERTIFY_TABLE
    assert len(table) == 64 and {r for rules in table.values() for r in rules} == set(RuleId)
    for key, rules in table.items():
        assert list(rules) == [r for r in RULE_ORDER if r in rules], key
        assert {RuleId.MASTER, RuleId.MASTER_111, RuleId.MASTER_ERASABLE} <= set(rules), key
    left_out = {key: [r for r in RULE_ORDER if r not in rules] for key, rules in table.items()}
    images = [Tuple(x.d, x.g, x.r, x.ell, x.m + x.r - 1) for x in XEX]
    tuples = [t for r in range(3, 21) for t, _in_box in shell(r)] + images + _criterion9_sample(27, 20_000)
    checked = 0
    for t in tuples:
        for rule in left_out[prover._shape(t)]:
            assert next(enumerate_instances(rule, t, lambda s: True), None) is None, (t, rule)
            checked += 1
    assert len(tuples) > 590_000 and checked > 4_900_000


def test_thm14_first_rank_is_covered():
    rep = verify_thm14(r_max=14)
    assert rep.examined > 5000
    assert rep.uncovered == []
    assert rep.outside_uncovered == []
    assert rep.outside_checked > 1000


def test_the_shell_check_holds_on_every_tuple_outside_the_box(shell):
    # the box is g <= r-1, d <= g+2r-1, m <= r-2+[g=0], so a tuple outside it
    # meets a peeling precondition by definition, which is why verify_thm14
    # reports outside_uncovered empty without testing a tuple
    outside = [t for r in range(3, 26) for t, in_box in shell(r) if not in_box]
    assert len(outside) == 493_218
    # every shell row has rho >= g >= 0, so no row is empty
    assert all(rho(d, g, r) >= g >= 0 for r in range(3, 41) for g, d, _top, _box in prover._rows(r))
    assert [t for t in outside if not (t.g >= t.r or t.d >= t.g + 2 * t.r - 1 or t.m >= t.r - 1)] == []


def test_the_shell_lemma_every_good_tuple_outside_the_box_peels_to_a_good_one(shell):
    # exhaustive over r 3-30: each good shell tuple above the box has a
    # gather-lines, pancake-onions or peel-onion instance whose subgoal is
    # good.  The one exception is a Sporadic30 axiom, the image of XEX's
    # (5, 2, 3, 0, 0) under one inverse pancake step
    peels = (RuleId.GATHER_LINES, RuleId.PANCAKE_ONIONS, RuleId.PEEL_ONION)
    good = lambda s: is_good(s).is_good  # noqa: E731
    outside = [t for r in range(3, 31) for t, in_box in shell(r) if not in_box and good(t)]
    assert len(outside) == 986_075
    stuck = [t for t in outside if not any(first_instance(rule, t, good) for rule in peels)]
    assert stuck == [Tuple(5, 2, 3, 0, 2)]
    assert stuck[0] in SPORADIC30 and Tuple(5, 2, 3, 0, 0) in XEX


def test_thm14_report_at_rank_16_is_pinned():
    rep = verify_thm14(r_max=16)
    assert (rep.examined, rep.outside_checked) == (78_048, 50_157)
    assert rep.uncovered == [] and rep.outside_uncovered == []


def test_thm14_report_at_ranks_17_to_20_is_pinned():
    rep = verify_thm14(r_max=20, r_min=17)
    assert (rep.examined, rep.outside_checked) == (239_813, 120_148)
    assert rep.uncovered == [] and rep.outside_uncovered == []


def test_the_rows_lemma_every_shell_tuple_with_m_at_least_2_is_in_the_sweep(shell):
    # the lemma of prover._rows, which lets the sweeps ask goodness only at
    # m <= 1: exhaustive over r 3-30, and a later XEX entry with m >= 2
    # breaks it
    assert max(x.m for x in XEX) <= 1
    seen = 0
    for r in range(3, 31):
        for t, _in_box in shell(r):
            if t.m >= 2:
                assert prover._in_sweep(t), t
                seen += 1
    assert seen > 3_000_000


def _thm14_one_r_reference(shell, r):
    # the per-tuple loop: every shell tuple is built, the box's dispatched
    # when it is in the sweep, and the rest counted when it is good
    examined = checked = 0
    uncovered = []
    for t, in_box in shell(r):
        if in_box:
            if prover._in_sweep(t):
                examined += 1
                if prover._dispatch(prover._THM14_TABLE, t) is None:
                    uncovered.append(t)
        elif is_good(t).is_good:
            checked += 1
    return examined, uncovered, checked


def test_thm14_one_rank_matches_the_per_tuple_loop(shell):
    # r = 1 has no residue clause (r - 1 = 0), and at r = 2 it never fails
    for r in range(1, 21):
        assert prover._thm14_one_r(r) == _thm14_one_r_reference(shell, r), r
    # ranks below 14 leave some box tuples undispatched, so the uncovered
    # lists are compared too
    assert prover._thm14_one_r(4)[1]


def test_the_shell_count_outside_the_box_matches_goodness_at_ranks_21_to_40(shell, monkeypatch):
    # the shell outside the box is counted per row, never built; count-only
    # against a per-tuple is_good, with the box's dispatch stubbed out
    monkeypatch.setattr(prover, "_dispatch", lambda table, t: ())
    for r in range(21, 41):
        expected = sum(1 for t, in_box in shell(r) if not in_box and is_good(t).is_good)
        assert prover._thm14_one_r(r)[2] == expected, r


def _assert_built_as_keyword(rule, p, goals):
    # a RuleParams spelling all its fields, equal to the one built by
    # keyword from the fields `rule` reads, and subgoals that are Tuples
    fields = rules_mod._RULES[rule].fields
    assert type(p) is RuleParams and p == RuleParams(**{f: getattr(p, f) for f in fields})
    assert rules_mod._parameter_violation(rule, p) is None
    assert [type(s) for s in goals] == [Tuple] * len(goals)


def test_sweep_objects_are_built_as_their_exact_types(shell, monkeypatch):
    # the RuleParams, subgoals, sweep tuples and certificate justifications
    # are built with tuple.__new__: each is of its exact type, equal to the
    # one built by keyword
    rng = random.Random(25)
    instances = 0
    hit = set()
    sample = [t for r in range(3, 11) for t, _in_box in rng.sample(list(shell(r)), 60)]
    for t in sample + [Tuple(13, 5, 7, 0, 1)]:  # and delta-5's tuple at r = 7
        for rule in RULE_ORDER:
            # the master family in full, at most two instances of each other rule
            full = rule in (RuleId.MASTER, RuleId.MASTER_111)
            for p, goals in itertools.islice(enumerate_instances(rule, t), None if full else 2):
                _assert_built_as_keyword(rule, p, goals)
                goals_again = apply(rule, t, p)
                assert goals_again == goals and [type(s) for s in goals_again] == [Tuple] * len(goals)
                instances += 1
                hit.add(rule)
    assert instances > 1_000 and hit == set(RuleId)
    # certify and the reader, on a seeded criterion-9 sample and on roots
    # whose certificates hold every rule and the axioms
    roots = _criterion9_sample(2501, 300)
    roots += [Tuple(*v) for v in ((6, 3, 3, 0, 0), (9, 1, 7, 0, 0), (12, 5, 5, 0, 0), (14, 7, 5, 0, 0))]
    roots += [Tuple(19, 5, 9, 0, 1), Tuple(14, 4, 6, 0, 0), Tuple(13, 2, 6, 1, 0), Tuple(14, 8, 7, 0, 0)]
    memo = {}
    kinds = set()
    for root in roots:
        cert = certify(root, memo=memo)
        for nodes in (cert.nodes, Certificate.from_json(json.loads(json.dumps(cert.to_json()))).nodes):
            for t, j in nodes.items():
                assert type(t) is Tuple
                if type(j) is Axiom:
                    assert j == Axiom(tag=j.tag)
                    kinds.add(j.tag)
                    continue
                assert type(j) is RuleApp and type(j.children) is tuple
                assert j == RuleApp(rule=j.rule, params=j.params, children=j.children, proviso=j.proviso)
                _assert_built_as_keyword(j.rule, j.params, j.children)
                goals = apply(j.rule, t, j.params)
                assert tuple(goals) == j.children and [type(s) for s in goals] == [Tuple] * len(goals)
                kinds.add(j.rule)
    assert kinds == set(RuleId) | {"SmallR", "Delta1Base", "Sporadic30", "CanonicalEven"}
    swept = []
    monkeypatch.setattr(prover, "_dispatch", lambda table, t: swept.append(t))
    for r in range(3, 11):
        prover._thm14_one_r(r)
    swept += enumerate_sporadic(10)
    assert len(swept) > 20_000 and {type(t) for t in swept} == {Tuple}


def test_thm14_parallel_agrees_with_serial():
    a = verify_thm14(r_max=15)
    b = verify_thm14(r_max=15, workers=2)
    assert (a.examined, a.uncovered, a.outside_checked) == (
        b.examined,
        b.uncovered,
        b.outside_checked,
    )


def test_certify_long_chain_is_not_bounded_by_the_recursion_limit():
    # about 1,500 reduction steps: deeper than Python's default recursion
    # limit, so the search has to keep its own stack
    t = Tuple(3001, 0, 3, 0, 0)
    cert = certify(t)
    assert cert.root == t and len(cert.nodes) > 1000
    assert verify_certificate(cert)


def test_certificate_json_schema_takes_integers_only():
    # 13.0 == 13 and both hash alike, so a float tuple must be refused on
    # reading; it would otherwise verify
    doc = certify(Tuple(13, 2, 6, 1, 0)).to_json()
    assert Certificate.from_json(copy.deepcopy(doc)).nodes == Certificate.from_json(doc).nodes
    m = next(i for i, row in enumerate(doc["nodes"]) if row["justification"].get("rule") == "master")
    a = next(i for i, row in enumerate(doc["nodes"]) if row["justification"]["kind"] == "axiom")

    def edited(path, value):
        bad = copy.deepcopy(doc)
        target = bad
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return bad

    for path, value in [
        (["root"], [13.0, 2.0, 6.0, 1.0, 0.0]),  # float tuple
        (["nodes", 0, "tuple", 1], "2"),  # str entry
        (["nodes", m, "justification", "children", 0, 4], False),  # bool entry
        (["nodes", m, "justification", "params", "ell_prime"], 2.0),  # float param
        (["nodes", m, "justification", "params", "any_ni_is_2"], 0),  # int flag
        (["version"], True),  # bool version
        (["version"], 1.0),  # float version
        (["nodes", a, "justification", "tag"], 5),  # int tag
        (["nodes", a, "justification", "tag"], {"x": [1]}),  # object tag
    ]:
        with pytest.raises(ValueError):
            Certificate.from_json(edited(path, value))


_GONE = object()  # a path value that deletes the key


def _edited(doc, *edits):
    bad = copy.deepcopy(doc)
    for path, value in edits:
        target = bad
        for key in path[:-1]:
            target = target[key]
        if value is _GONE:
            del target[path[-1]]
        else:
            target[path[-1]] = value
    return bad


# certify(13, 2, 6, 1, 0): row 0 is the root, by gather-lines with no
# params; row 2 is by master with params; row 5 is the SmallR axiom
_REFUSALS = [
    ([(["rule"], ["master"])], "['master'] is not a valid RuleId"),
    ([(["rule"], {"a": 1})], "{'a': 1} is not a valid RuleId"),
    ([(["rule"], "bogus")], "'bogus' is not a valid RuleId"),
    ([(["rule"], None)], "None is not a valid RuleId"),
    ([(["kind"], ["rule"])], "unknown justification kind ['rule']"),
    ([(["kind"], None)], "unknown justification kind None"),
    ([(["nodes", 1], [1, 2])], "expected a JSON object, got list"),
    ([(["nodes", 1, "justification"], ["kind", "rule"])], "expected a JSON object, got list"),
    ([(["nodes", 1, "justification"], None)], "expected a JSON object, got NoneType"),
    ([(["params"], [])], "params must be an object, got []"),
    ([(["nodes", 2, "justification", "params", "hint"], 1)], "unknown parameter 'hint'"),
    ([(["nodes", 2, "justification", "params", "ell_prime"], 2.0)], "parameter ell_prime must be int, got 2.0"),
    ([(["children"], {})], "children must be a list, got dict"),
    ([(["children", 0], [1, 2])], "a tuple must be a list of 5 integers, got [1, 2]"),
    ([(["proviso"], ["x"])], "proviso must be a string, got list"),
    ([(["nodes", 5, "justification", "tag"], _GONE)], "missing key 'tag'"),
    ([(["nodes", 5, "justification", "tag"], None)], "tag must be a string, got NoneType"),
    ([(["version"], "1")], "unsupported certificate version '1'"),
    ([(["version"], _GONE)], "unsupported certificate version None"),
    ([(["root"], _GONE)], "missing key 'root'"),
    ([(["root"], None)], "a tuple must be a list of 5 integers, got None"),
    ([(["nodes"], _GONE)], "missing key 'nodes'"),
    ([(["nodes"], {})], "nodes must be a list, got dict"),
    ([(["nodes", 1, "tuple"], _GONE)], "missing key 'tuple'"),
    ([(["nodes", 1, "justification"], _GONE)], "missing key 'justification'"),
    *[([([key], _GONE)], f"missing key {key!r}") for key in ("kind", "rule", "params", "children")],
    ([(["nodes", 1, "tuple"], [13, 2, 6, 1, 0])], "node [13, 2, 6, 1, 0] listed twice"),
    # the first refusal in reading order is the one reported
    ([(["nodes", 1, "tuple"], [13, 2, 6, 1, 0]), (["nodes", 1, "justification"], _GONE)],
     "node [13, 2, 6, 1, 0] listed twice"),
    ([(["rule"], "bogus"), (["params"], [])], "'bogus' is not a valid RuleId"),
    ([(["proviso"], 1), (["rule"], "bogus")], "proviso must be a string, got int"),
    ([(["nodes", 3, "tuple"], "x"), (["root"], _GONE)], "a tuple must be a list of 5 integers, got 'x'"),
]


@pytest.mark.parametrize("edits, message", _REFUSALS)
def test_certificate_reader_refusals_are_pinned(edits, message):
    # the text and order of every refusal, as the reader gave them before
    # it became one pass; an edit path that does not start at the document
    # edits the root row's justification
    doc = certify(Tuple(13, 2, 6, 1, 0)).to_json()
    root_row = ["nodes", 0, "justification"]
    edits = [(path if path[0] in ("nodes", "root", "version") else root_row + path, v) for path, v in edits]
    with pytest.raises(ValueError) as e:
        Certificate.from_json(_edited(doc, *edits))
    assert str(e.value) == message


def test_certificate_reader_refuses_a_document_that_is_not_an_object():
    for doc in ([], None, "x"):
        with pytest.raises(ValueError) as e:
            Certificate.from_json(doc)
        assert str(e.value) == f"expected a JSON object, got {type(doc).__name__}"
