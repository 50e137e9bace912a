"""The modification-combination calculus: normalization, the five guarded
cases, conservation, and the memoized search against its brute-force
oracle."""

import itertools
import random
from collections import Counter

import pytest

from bninterp import (
    STRONG,
    WEAK,
    AccState,
    CalculusError,
    ModType,
    TooLarge,
    brute_force_erasable,
    combine,
    erasable_under_all_orders,
    is_erasable,
    make_collection,
    normalize,
)
import bninterp.erase as erase
from bninterp import InvariantViolated
from bninterp.erase import (
    SOURCE_CATALOGUE,
    collection_from_json,
    collection_to_json,
    erasable_fast,
    type_name,
    weight,
)


def test_normalize_sheds_full_first_twist():
    assert normalize(AccState(2, 1, STRONG, 0), 3) == AccState(1, 0, STRONG, 1)
    # double shed: (2,2) at r=3 rolls over twice
    assert normalize(AccState(2, 2, STRONG, 0), 3) == AccState(0, 0, STRONG, 2)
    # fixed point
    s = AccState(1, 0, WEAK, 4)
    assert normalize(s, 3) == s


def test_normalize_conserves_weight():
    rng = random.Random(8)
    for _ in range(500):
        r = rng.randint(3, 9)
        t1 = rng.randint(0, r - 1)
        t2 = rng.randint(0, t1)
        s = AccState(t1, t2, STRONG, rng.randint(0, 3))
        n = normalize(s, r)
        assert weight(n.t1, n.t2, n.twist, r) == weight(s.t1, s.t2, s.twist, r)
        assert n.t1 < r - 1 or n.t1 == 0


def test_normalize_rejects_out_of_range_states():
    with pytest.raises(CalculusError):
        normalize(AccState(3, 0, STRONG, 0), 3)
    with pytest.raises(CalculusError):
        normalize(AccState(1, 2, STRONG, 0), 4)
    with pytest.raises(CalculusError):
        normalize(AccState(0, 0, STRONG, 0), 2)


def test_combine_case_examples():
    # plain accumulation, no boundary touched
    assert combine(AccState(1, 0, STRONG, 0), ModType(1, 1, STRONG), 5) == AccState(
        2, 1, STRONG, 0
    )
    # first ranks fill the boundary exactly; second ranks fold down
    assert combine(AccState(2, 0, STRONG, 0), ModType(2, 0, STRONG), 5) == AccState(
        0, 0, STRONG, 1
    )
    # straddle: incoming second rank empty, boundary crossed by first ranks
    assert combine(AccState(4, 1, STRONG, 0), ModType(3, 0, WEAK), 7) == AccState(
        2, 0, WEAK, 1
    )
    # both cross patterns meet the boundary simultaneously
    assert combine(AccState(2, 1, STRONG, 0), ModType(2, 1, STRONG), 4) == AccState(
        0, 0, STRONG, 2
    )


def test_combine_dead_end_returns_none():
    assert combine(AccState(3, 3, STRONG, 0), ModType(2, 1, STRONG), 5) is None


def test_combine_conserves_weight_and_normalizes():
    rng = random.Random(21)
    for _ in range(3000):
        r = rng.randint(3, 9)
        t1 = rng.randint(0, r - 2)
        s = AccState(t1, rng.randint(0, t1), rng.choice([STRONG, WEAK]), rng.randint(0, 2))
        mt = rng.choice(SOURCE_CATALOGUE)
        if mt.t1 > r - 1:
            continue
        out = combine(s, mt, r)
        if out is None:
            continue
        assert weight(out.t1, out.t2, out.twist, r) == weight(
            s.t1, s.t2, s.twist, r
        ) + weight(mt.t1, mt.t2, 0, r)
        assert out.t1 < r - 1 or out.t1 == 0  # normalized
        assert out.t2 <= out.t1


def test_single_type_acceptance():
    assert is_erasable(Counter({ModType(1, 0, STRONG): 1}), 5)[0]
    assert not is_erasable(Counter({ModType(1, 0, WEAK): 1}), 5)[0]
    assert not is_erasable(Counter({ModType(1, 1, STRONG): 1}), 4)[0]
    ok, witness = is_erasable(Counter(), 6)
    assert ok and witness == []


def test_known_erasable_collections():
    assert is_erasable(Counter({ModType(2, 0, STRONG): 2}), 5)[0]
    coll = make_collection(s10=1, s21=2)
    assert is_erasable(coll, 3)[0]
    assert brute_force_erasable(coll, 3)
    assert erasable_under_all_orders(coll, 3)


def test_order_sensitivity_exists_somewhere():
    # the all-orders notion is strictly stronger than plain erasability on
    # at least one catalogue collection
    found = False
    for size in range(2, 6):
        for combo in itertools.combinations_with_replacement(SOURCE_CATALOGUE, size):
            for r in range(3, 8):
                c = Counter(combo)
                if erasable_fast(c, r) and not erasable_under_all_orders(c, r):
                    found = True
                    break
            if found:
                break
        if found:
            break
    assert found


def _replay(witness, r):
    mods = []
    for name in witness:
        strength = STRONG if name.startswith("s") else WEAK
        i, j = name[1:].split(",")
        mods.append(ModType(int(i), int(j), strength))
    state = normalize(AccState(mods[0].t1, mods[0].t2, mods[0].strength, 0), r)
    for mt in mods[1:]:
        state = combine(state, mt, r)
        assert state is not None
    return state


def test_witness_replays_to_accepting_state():
    rng = random.Random(4)
    replayed = 0
    for _ in range(600):
        r = rng.randint(3, 8)
        coll = Counter(
            rng.choices(SOURCE_CATALOGUE, k=rng.randint(1, 5))
        )
        ok, witness = is_erasable(coll, r)
        if not ok:
            assert witness is None
            continue
        assert sorted(witness) == sorted(type_name(mt) for mt in coll.elements())
        final = _replay(witness, r)
        assert final.t2 == 0 and final.strength == STRONG
        replayed += 1
    assert replayed > 100


def test_memoized_search_matches_brute_force():
    rng = random.Random(77)
    for _ in range(400):
        r = rng.randint(3, 7)
        coll = Counter(rng.choices(SOURCE_CATALOGUE, k=rng.randint(0, 5)))
        ok, _ = is_erasable(coll, r)
        assert ok == brute_force_erasable(coll, r), (dict(coll), r)


def test_brute_force_caps_input_size():
    with pytest.raises(TooLarge):
        brute_force_erasable(Counter({ModType(1, 0, STRONG): 10}), 5)


def test_collection_json_round_trip():
    coll = make_collection(s10=2, s11=1, s20=3, s21=0, w10=2)
    doc = collection_to_json(coll, 6)
    back, r = collection_from_json(doc)
    assert back == coll and r == 6


def test_is_erasable_deterministic_and_consistent_with_fast_path():
    coll = make_collection(s10=1, s11=1, s20=1, s21=1, w10=1)
    for r in range(3, 9):
        a = is_erasable(coll, r)
        b = is_erasable(coll, r)
        assert a == b
        assert a[0] == erasable_fast(coll, r)


def test_combine_checks_rank_agreement_explicitly(monkeypatch):
    # overlapping case guards that disagree on rank are a defect; the check
    # is an exception, not an assert, so it holds under `python -O`
    monkeypatch.setattr(
        erase, "_case_outcomes", lambda *a: [(1, 0, STRONG, 0), (0, 0, STRONG, 1)]
    )
    with pytest.raises(InvariantViolated, match="disagree on rank"):
        combine(AccState(1, 0, STRONG, 0), ModType(1, 0, STRONG), 5)


def test_combine_checks_rank_conservation_explicitly(monkeypatch):
    # weight 1 + weight 1 must not combine to weight 0
    monkeypatch.setattr(erase, "_case_outcomes", lambda *a: [(0, 0, STRONG, 0)])
    with pytest.raises(InvariantViolated, match="rank conservation"):
        combine(AccState(1, 0, STRONG, 0), ModType(1, 0, STRONG), 5)
