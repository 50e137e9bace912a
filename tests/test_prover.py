"""Search layer: axiom tagging, certification with backtracking and
memoization, independent certificate verification with tamper detection,
the sporadic sweep, and the large-r coverage check."""

import dataclasses
import json
import random

import pytest

from bninterp import (
    SPORADIC30,
    AxiomSet,
    Axiom,
    BoundsExceeded,
    Certificate,
    Irreducible,
    RuleApp,
    RuleId,
    Tuple,
    certify,
    enumerate_sporadic,
    find_reduction,
    is_good,
    rho,
    run_sporadic_search,
    verify_certificate,
    verify_thm14,
)
import bninterp.prover as prover
from bninterp import InvariantViolated, RuleParams
from bninterp.prover import PROVISO_DELTA1, SECTION8_RULES, check_workers


def test_axiom_tags():
    ax = AxiomSet()
    assert ax.tag_of(Tuple(7, 0, 2, 0, 0)) == "SmallR"
    assert ax.tag_of(Tuple(5, 9, 1, 2, 3)) == "SmallR"
    assert ax.tag_of(Tuple(6, 1, 5, 0, 0)) == "Delta1Base"
    assert ax.tag_of(Tuple(16, 3, 13, 0, 0)) == "Delta1Base"
    assert ax.tag_of(Tuple(5, 2, 3, 0, 1)) == "Sporadic30"
    assert ax.tag_of(Tuple(14, 8, 7, 0, 0)) == "CanonicalEven"
    assert ax.tag_of(Tuple(14, 8, 7, 0, 1)) is None
    assert ax.tag_of(Tuple(12, 6, 5, 0, 0)) is None
    # the sporadic table can be switched off for reachability probes
    ax2 = AxiomSet(include_sporadic30=False)
    assert ax2.tag_of(Tuple(5, 2, 3, 0, 1)) is None


def test_extra_axioms_from_file(tmp_path):
    p = tmp_path / "ax.json"
    p.write_text(json.dumps({"axioms": [{"tuple": [9, 9, 9, 0, 0], "citation": "external fact"}]}))
    ax = AxiomSet.load(str(p))
    t = Tuple(9, 9, 9, 0, 0)
    assert ax.tag_of(t) == "Extra"
    assert ax.citation_of(t) == "external fact"
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
    with pytest.raises(Irreducible):
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
    with pytest.raises(Irreducible):
        certify(Tuple(2, 0, 3, 0, 0))


def test_certify_respects_bounds():
    with pytest.raises(BoundsExceeded):
        certify(Tuple(13, 2, 6, 1, 0), bounds=(5, 30))
    # rules never increase r or d, so the root's own box always suffices
    rng = random.Random(6)
    for _ in range(60):
        r = rng.randint(3, 8)
        g = rng.randint(0, r)
        d = rng.randint(g + r, g + 2 * r + 2)
        t = Tuple(d, g, r, rng.randint(0, r // 2), rng.randint(0, max(0, min(3, rho(d, g, r)))))
        if not is_good(t).is_good:
            continue
        cert = certify(t, bounds=(t.r, t.d))
        assert verify_certificate(cert)


def test_certify_shares_memo_across_calls():
    memo = {}
    c1 = certify(Tuple(12, 6, 5, 0, 0), memo=memo)
    size_after_first = len(memo)
    c2 = certify(Tuple(12, 6, 5, 0, 0), memo=memo)
    assert len(memo) == size_after_first
    assert c1.nodes == c2.nodes
    certify(Tuple(13, 2, 6, 1, 0), memo=memo)
    assert len(memo) > size_after_first


def test_certificate_json_round_trip_is_exact():
    cert = certify(Tuple(26, 0, 14, 0, 1))
    back = Certificate.from_json(json.loads(json.dumps(cert.to_json())))
    assert back.root == cert.root
    assert back.nodes == cert.nodes


def test_verify_detects_tampering():
    t = Tuple(3, 0, 3, 0, 0)
    child = Tuple(2, 0, 2, 0, 0)
    cert = certify(t)

    # child list altered
    bad = Certificate(root=cert.root, nodes=dict(cert.nodes))
    j = bad.nodes[t]
    bad.nodes[t] = dataclasses.replace(j, children=(Tuple(2, 0, 2, 0, 1),))
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
    bad.nodes[Tuple(13, 2, 6, 1, 0)] = dataclasses.replace(
        j2, rule=RuleId.PEEL_ONION
    )
    res = verify_certificate(bad)
    assert not res and res.code in ("PreconditionViolated", "ChildMismatch")

    # root without a node
    res = verify_certificate(Certificate(root=Tuple(1, 1, 1, 1, 1), nodes=dict(cert.nodes)))
    assert not res and res.code == "RootMissing"


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
    # a rule table that loops a tuple back onto itself runs into the depth
    # cap, which must hold under `python -O` as well
    def self_loop(rule, t, accept):
        yield RuleParams(), [t]

    monkeypatch.setattr(prover, "enumerate_instances", self_loop)
    with pytest.raises(InvariantViolated, match="depth"):
        certify(Tuple(13, 2, 6, 1, 0))


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


def test_recursive_accept_smoke():
    rep = run_sporadic_search(r_max=3, recursive_accept=True)
    # recursion can only help: nothing reducible under goodness-accept
    # becomes irreducible, and the table rows of course remain
    base = run_sporadic_search(r_max=3)
    assert set(rep.irreducible) <= set(base.irreducible)
    for t in SPORADIC30:
        if t.r <= 3 and t not in set(rep.irreducible):
            # a table row reduced recursively must have non-good subgoals
            w = rep.witnesses[t]
            assert w is not None


def test_section8_rules_exclude_the_degeneration_moves():
    assert RuleId.MASTER_ERASABLE not in SECTION8_RULES
    assert RuleId.DELTA_1_STEP not in SECTION8_RULES
    assert len(SECTION8_RULES) == len(RuleId) - 2


def test_thm14_first_rank_is_covered():
    rep = verify_thm14(r_max=14)
    assert rep.examined > 5000
    assert rep.uncovered == []
    assert rep.outside_uncovered == []
    assert rep.outside_checked > 1000


def test_thm14_parallel_agrees_with_serial():
    a = verify_thm14(r_max=15)
    b = verify_thm14(r_max=15, workers=2)
    assert (a.examined, a.uncovered, a.outside_checked) == (
        b.examined,
        b.uncovered,
        b.outside_checked,
    )
