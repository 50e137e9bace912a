"""The modification-combination calculus: normalization, the five guarded
cases, conservation, and the memoized search against its brute-force
oracle."""

import contextlib
import gc
import hashlib
import itertools
import random
import signal
import tracemalloc
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


def _replay_every_order(coll, r):
    """(some order erases, every order erases), straight from
    itertools.permutations through normalize and combine."""
    outcomes = []
    for order in set(itertools.permutations(coll.elements())):
        if not order:
            outcomes.append(True)
            continue
        state = normalize(AccState(order[0].t1, order[0].t2, order[0].strength, 0), r)
        for mt in order[1:]:
            state = combine(state, mt, r)
            if state is None:
                break
        outcomes.append(state is not None and state.t2 == 0 and state.strength == STRONG)
    return any(outcomes), all(outcomes)


def test_order_walker_matches_a_direct_permutation_replay():
    for size in range(0, 6):
        for combo in itertools.combinations_with_replacement(SOURCE_CATALOGUE, size):
            coll = Counter(combo)
            for r in range(3, 8):
                some, every = brute_force_erasable(coll, r), erasable_under_all_orders(coll, r)
                assert (some, every) == _replay_every_order(coll, r), (dict(coll), r)
                assert some or not every


def _types(r):
    """Every in-range type at rank r, sorted."""
    return sorted(ModType(i, j, s) for i in range(r) for j in range(i + 1) for s in (STRONG, WEAK))


def test_codes_sort_as_the_triples_and_name_the_accepting_states():
    for r in range(3, 13):
        types = _types(r)
        codes = [erase._code(mt, r) for mt in types]
        assert codes == sorted(set(codes)), r
        assert [erase._decode(code, r) for code in codes] == types
        assert all((code % (2 * r) == 0) == (mt.t2 == 0 and mt.strength == STRONG) for code, mt in zip(codes, types))
        # the search starts at the identity state, the least code, which
        # accepts, as the empty collection does
        assert codes[0] == erase._code(AccState(0, 0, STRONG), r) == 0 and erase._search_from((r, 0)) == ()


def test_the_identity_state_places_a_type_as_normalize_does():
    # so the search may start there: the first point's step is a checked
    # combine like every other, and the empty collection accepts
    identity, placed = AccState(0, 0, STRONG, 0), 0
    for r in range(3, 41):
        for mt in _types(r):
            assert combine(identity, mt, r) == normalize(AccState(*mt, 0), r), (r, mt)
            placed += 1
    assert placed == 22_952


def test_the_first_point_passes_the_rank_check(monkeypatch):
    # a case table that loses rank is caught on a one-point collection too
    monkeypatch.setattr(erase, "_STEPS", erase._Steps())
    monkeypatch.setattr(erase, "_MEMO", {})
    monkeypatch.setattr(erase, "_case_outcomes", lambda *a: [(0, 0, STRONG, 0)])
    with pytest.raises(InvariantViolated, match="rank conservation"):
        erasable_fast(make_collection(s10=1), 5)


def test_step_cache_equals_the_checked_combine(monkeypatch):
    # every normalized state against every in-range type: the table's step
    # is the checked combine with the twist dropped, and from the identity
    # state, where the search starts, it is normalize; each distinct step,
    # the identity's included, calls combine once
    monkeypatch.setattr(erase, "_STEPS", erase._Steps())
    calls = []
    checked = erase.combine

    def counted(*args):
        calls.append(args)
        return checked(*args)

    monkeypatch.setattr(erase, "combine", counted)
    pairs = 0
    for r in range(3, 13):
        states = [mt for mt in _types(r) if mt.t1 < r - 1]
        assert states[0] == ModType(0, 0, STRONG)
        for mt in _types(r):
            for _ in range(2):
                assert erase._decode(erase._STEPS[r, 0, erase._code(mt, r)], r) == normalize(AccState(*mt, 0), r)[:3]
            for state in states:
                want = checked(AccState(*state, 0), mt, r)
                want = None if want is None else want[:3]
                for _ in range(2):
                    got = erase._STEPS[r, erase._code(state, r), erase._code(mt, r)]
                    assert (None if got is None else erase._decode(got, r)) == want, (r, state, mt)
                pairs += 1
    assert len(calls) == pairs


def test_oracles_read_neither_the_step_cache_nor_the_memo(monkeypatch):
    colls = [
        Counter(combo)
        for size in range(6)
        for combo in itertools.combinations_with_replacement(SOURCE_CATALOGUE, size)
    ]
    cases = [(coll, r) for coll in colls for r in range(3, 8)]
    for coll, r in cases:
        is_erasable(coll, r)
    # every memo entry and every step the search would read now holds the
    # wrong answer, and a step the table lacks raises
    poisoned_memo = {key: (None if tail is not None else ()) for key, tail in erase._MEMO.items()}

    class PoisonedSteps(erase._Steps):
        def __missing__(self, key):
            raise RuntimeError("the step table was read")

    poisoned_steps = PoisonedSteps({key: (None if nxt is not None else 0) for key, nxt in erase._STEPS.items()})
    # each poisoned table alone changes what the search says
    for memo, steps in ((poisoned_memo, erase._STEPS), ({}, poisoned_steps)):
        monkeypatch.setattr(erase, "_MEMO", memo)
        monkeypatch.setattr(erase, "_STEPS", steps)
        assert any(erasable_fast(coll, r) != brute_force_erasable(coll, r) for coll, r in cases)
    monkeypatch.setattr(erase, "_MEMO", poisoned_memo)
    for coll, r in cases:
        some, every = brute_force_erasable(coll, r), erasable_under_all_orders(coll, r)
        assert (some, every) == _replay_every_order(coll, r), (dict(coll), r)


def test_witness_orders_are_pinned():
    # verdicts and witness orders of every catalogue multiset of size <= 8 at
    # r 3-9, as the recursive search gave them before the step cache and the
    # explicit stack
    h = hashlib.sha256()
    for size in range(9):
        for combo in itertools.combinations_with_replacement(SOURCE_CATALOGUE, size):
            coll = Counter(combo)
            for r in range(3, 10):
                h.update(repr(is_erasable(coll, r)).encode() + b"\n")
    assert h.hexdigest() == "78b82011a7909c55a7b3df842cab06870b06115225dfae115d56c293abddfd4b"


@pytest.mark.parametrize(
    "decide", [is_erasable, erasable_fast, brute_force_erasable, erasable_under_all_orders]
)
@pytest.mark.parametrize("coll", [Counter(), make_collection(s10=1)], ids=["empty", "s1,0"])
@pytest.mark.parametrize("r", [2, 0])
def test_every_entry_point_refuses_r_below_3(decide, coll, r):
    with pytest.raises(CalculusError, match="calculus needs r >= 3"):
        decide(coll, r)


@pytest.mark.parametrize(
    "decide", [is_erasable, erasable_fast, brute_force_erasable, erasable_under_all_orders]
)
@pytest.mark.parametrize("strength", ["Strong", "bogus"])
def test_every_entry_point_refuses_a_third_strength(decide, strength):
    # the codes tell two strengths apart; anything else used to pass as weak
    for coll in (Counter({ModType(1, 0, strength): 1}), Counter({ModType(1, 0, strength): 1, ModType(1, 0, STRONG): 1})):
        with pytest.raises(CalculusError, match="out of range"):
            decide(coll, 3)


@pytest.mark.parametrize(
    "decide", [is_erasable, erasable_fast, brute_force_erasable, erasable_under_all_orders]
)
@pytest.mark.parametrize(
    "coll",
    [Counter({(1, 0): 1}), Counter({5: 1}), Counter({(1, 0, STRONG, 0): 1}), Counter({ModType(1, 0): 1, "s1,0": 1})],
    ids=["pair", "int", "four items", "name"],
)
def test_every_entry_point_refuses_a_key_that_is_not_a_type(decide, coll):
    # these raised ValueError or TypeError from unpacking the key
    with pytest.raises(CalculusError, match=r"type .* is not a triple \(t1, t2, strength\)"):
        decide(coll, 3)


@pytest.mark.parametrize(
    "decide", [is_erasable, erasable_fast, brute_force_erasable, erasable_under_all_orders]
)
def test_every_entry_point_refuses_a_negative_count(decide):
    # the CLI refuses one before the library sees it; a library caller meets this check
    with pytest.raises(CalculusError, match=r"^negative count for ModType\(t1=1, t2=0, strength='strong'\)$"):
        decide(Counter({ModType(1, 0): -1, ModType(2, 1): 1}), 3)


@contextlib.contextmanager
def _within(seconds):
    """Raise TimeoutError in the body after `seconds`: a search that never
    ends fails its test instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "decide", [is_erasable, erasable_fast, brute_force_erasable, erasable_under_all_orders]
)
@pytest.mark.parametrize(
    "coll, r",
    [
        pytest.param(Counter({ModType(1, 0): 1.5}), 3, id="count 1.5"),
        pytest.param(Counter({ModType(1, 0): 2.0}), 3, id="count 2.0"),
        pytest.param(Counter({ModType(1.0, 0.0): 2}), 3, id="float type"),
        pytest.param(Counter({ModType(1, 0.5): 1}), 3, id="half rank"),
        pytest.param(Counter({ModType("1", "0"): 1}), 3, id="str type"),
        pytest.param(Counter(), 3.0, id="rank 3.0"),
        pytest.param(Counter({ModType(1, 0): 2}), 4.5, id="rank 4.5"),
        pytest.param(Counter({ModType(1, 0): 2}), "3", id="str rank"),
        pytest.param(Counter({ModType(1, 0): 2}), None, id="rank None"),
    ],
)
def test_every_entry_point_refuses_a_count_or_rank_that_is_not_an_integer(decide, coll, r):
    # a count of 1.5 went 0.5, -0.5, ... and never reached 0, so the search
    # never returned; a float type broke the decoding of its witness; the
    # empty collection was erasable at rank 3.0, and a rank of 4.5, "3" or
    # None raised a TypeError
    with _within(2), pytest.raises(CalculusError, match="must be integers"):
        decide(coll, r)


def test_a_bool_is_an_integer_and_named_as_one():
    # ModType(True, False) is the same dict key as ModType(1, 0), so it is
    # decided, and its witness named, as that type
    assert is_erasable(Counter({ModType(True, False): 2}), 3) == (True, ["s1,0", "s1,0"])
    assert is_erasable(Counter({ModType(1, 0): True, ModType(2, 1): 1}), 3) == is_erasable(make_collection(s10=1, s21=1), 3)


def test_the_name_table_names_each_code_at_its_own_rank(monkeypatch):
    # one code is a different type at another rank (8 is s1,0 at rank 4 and
    # s1,1 at rank 3), so ranks are visited from 12 down and back up; every
    # in-range type is paired with the strong type that cancels its t1
    monkeypatch.setattr(erase, "_NAMES", {})
    solved, named = 0, {}
    for r in (*range(12, 2, -1), *range(3, 13)):
        for mt in _types(r):
            coll = Counter([mt, ModType(r - 1 - mt.t1, 0)])
            ok, witness = is_erasable(coll, r)
            assert ok == brute_force_erasable(coll, r), (dict(coll), r)
            if ok:
                assert sorted(witness) == sorted(type_name(x) for x in coll.elements()), (dict(coll), r)
                named.setdefault(r, set()).update(witness)
                solved += 1
        assert len(erase._NAMES[r]) <= r * (r + 1)
    assert solved > 1_400
    # each rank's table holds exactly the names its witnesses used, each
    # formatted at that rank: every in-range type but w0,0, which no pair
    # erases
    for r in range(3, 13):
        types = _types(r)
        assert len(types) == r * (r + 1) and len(named[r]) == r * (r + 1) - 1
        assert erase._NAMES[r] == {erase._code(mt, r): type_name(mt) for mt in types if type_name(mt) in named[r]}


def test_any_in_range_types_agree_with_brute_force_from_a_cold_and_a_warm_memo(monkeypatch):
    # random multisets of up to 7 points of any in-range type, not only the
    # catalogue's, at r 3-12: first each from a cleared memo, then all again
    # from the memo the first pass filled
    rng = random.Random(16)
    cases = []
    for _ in range(1_000):
        r = rng.randint(3, 12)
        coll = Counter(rng.choices(_types(r), k=rng.randint(0, 7)))
        cases.append((coll, r, brute_force_erasable(coll, r)))
    assert 100 < sum(want for _, _, want in cases) < 900
    runs = []
    for cold in (True, False):
        answers = []
        for coll, r, want in cases:
            if cold:
                monkeypatch.setattr(erase, "_MEMO", {})
                monkeypatch.setattr(erase, "_NAMES", {})
            ok, witness = is_erasable(coll, r)
            assert ok == want == erasable_fast(coll, r), (dict(coll), r)
            if ok:
                assert sorted(witness) == sorted(type_name(mt) for mt in coll.elements())
                if witness:
                    final = _replay(witness, r)
                    assert final.t2 == 0 and final.strength == STRONG, (dict(coll), r, witness)
            else:
                assert witness is None
            answers.append((ok, witness))
        runs.append(answers)
    assert runs[0] == runs[1]


def _unrolled(chain):
    order = []
    while chain:
        code, chain = chain
        order.append(code)
    return order


def _root(coll, r):
    """The whole collection's memo key: its items at the identity state."""
    return (r, 0, *itertools.chain.from_iterable(erase._check_types(coll, r)))


def _check_memo_chains(memo):
    # a key is (r, state, type, count, ...), all ints, at a normalized
    # state; a solved entry is (type, tail): combine places the type, and
    # tail is the memo value of what is left, the same object (or () once
    # nothing is left and the state accepts)
    solved = 0
    for key, value in memo.items():
        assert all(type(x) is int for x in key), key
        r = key[0]
        assert normalize(AccState(*erase._decode(key[1], r), 0), r)[:3] == erase._decode(key[1], r), key
        if value is None:
            continue
        code, tail = value
        assert type(code) is int, (key, value)
        state, rem = AccState(*erase._decode(key[1], r), 0), Counter(dict(zip(key[2::2], key[3::2])))
        assert rem[code] > 0, (key, code)
        nxt = combine(state, erase._decode(code, r), r)
        assert nxt is not None, (key, code)
        rem[code] -= 1
        rest = tuple(x for item in sorted((+rem).items()) for x in item)
        if rest:
            assert tail is memo[(r, erase._code(nxt, r), *rest)], key
        else:
            assert tail == () and nxt.t2 == 0 and nxt.strength == STRONG, key
        solved += 1
    return solved


def test_the_memo_grows_linearly_and_holds_shared_witness_chains(monkeypatch):
    # each solved subproblem stores its first type and its child's chain, so
    # doubling a one-type collection about doubles the search's peak memory
    peaks = []
    for n in (1_500, 3_000):
        monkeypatch.setattr(erase, "_MEMO", {})
        # a full collection empties the interpreter's free lists, so every
        # object the search makes is traced, whatever ran before
        gc.collect()
        tracemalloc.start()
        try:
            ok, witness = is_erasable(make_collection(s10=n), 3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert ok and witness == ["s1,0"] * n
    assert peaks[1] <= 2.5 * peaks[0], peaks
    # the entry after the first point unrolls to the rest of the witness;
    # a call on a cold memo does not store the whole collection's key
    s10 = erase._code(ModType(1, 0, STRONG), 3)
    first = erase._code(normalize(AccState(1, 0, STRONG, 0), 3), 3)
    root = erase._MEMO[(3, first, s10, 2_999)]
    assert [type_name(erase._decode(code, 3)) for code in [s10, *_unrolled(root)]] == witness
    assert (3, 0, s10, 3_000) not in erase._MEMO and len(erase._MEMO) == 2_999
    assert _check_memo_chains(erase._MEMO) >= 2_999
    # and on mixed collections, whose keys hold several types; the entry
    # count is the one the ModType-keyed memo held for the same inputs.  No
    # call stores its own root, but a later, larger call may store it as a
    # subproblem, which then answers a repeat call at once.
    monkeypatch.setattr(erase, "_MEMO", {})
    roots = []
    for size in range(7):
        for combo in itertools.combinations_with_replacement(SOURCE_CATALOGUE, size):
            for r in range(3, 8):
                roots.append(_root(Counter(combo), r))
                stored = erase._MEMO.get(roots[-1], erase._OPEN)
                is_erasable(Counter(combo), r)
                assert erase._MEMO.get(roots[-1], erase._OPEN) is stored, (combo, r)
    assert len(erase._MEMO) == 5_444 and any(root in erase._MEMO for root in roots)
    assert _check_memo_chains(erase._MEMO) > 1_000


def test_a_witness_does_not_depend_on_how_warm_the_memo_is(monkeypatch):
    # every catalogue multiset of size <= 8 at r 3-9, decided from a fresh
    # memo once forward and once in reverse: each later call meets a memo
    # the other run filled differently
    cases = [
        (combo, r)
        for size in range(9)
        for combo in itertools.combinations_with_replacement(SOURCE_CATALOGUE, size)
        for r in range(3, 10)
    ]
    runs = []
    for order in (cases, cases[::-1]):
        monkeypatch.setattr(erase, "_MEMO", {})
        runs.append({(combo, r): is_erasable(Counter(combo), r) for combo, r in order})
    assert runs[0] == runs[1]
