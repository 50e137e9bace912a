"""Arithmetic layer: invariants, goodness clauses, verdict functions,
and the built-in tables."""

import json
import random
import re
import time
from fractions import Fraction

import pytest

from bninterp import (
    COR_MAIN_EXCEPTIONS,
    COUNTEREXAMPLE_TRIPLES,
    SPORADIC30,
    XEX,
    DomainError,
    Tuple,
    bn_interpolation,
    constants_as_json,
    delta,
    delta_numerator,
    is_good,
    max_points,
    measure,
    reduced_residue,
    rho,
    splitting_type_interpolation,
)
from bninterp.core import _SPRP_BOUND, _is_prime


def test_rho_matches_definition_on_random_inputs():
    rng = random.Random(12345)
    for _ in range(2000):
        d = rng.randint(-20, 60)
        g = rng.randint(-5, 40)
        r = rng.randint(1, 20)
        assert rho(d, g, r) == (r + 1) * d - r * g - r * (r + 1)
    assert rho(5, 2, 3) == 2
    assert rho(4, 1, 3) == 1


def test_delta_is_exact_and_consistent_with_numerator():
    rng = random.Random(99)
    for _ in range(2000):
        t = Tuple(
            rng.randint(0, 50),
            rng.randint(0, 30),
            rng.randint(2, 18),
            rng.randint(0, 9),
            rng.randint(0, 12),
        )
        v = delta(t)
        assert isinstance(v, Fraction)
        assert v == Fraction(delta_numerator(t), t.r - 1)
    assert delta(Tuple(6, 2, 4, 3, 0)) == Fraction(14, 3)


def test_delta_rejects_degenerate_ambient():
    with pytest.raises(DomainError):
        delta(Tuple(5, 2, 1, 0, 0))


def test_reduced_residue_is_a_true_nonnegative_residue():
    rng = random.Random(5)
    for _ in range(2000):
        a = rng.randint(-100, 100)
        b = rng.randint(1, 30)
        v = reduced_residue(a, b)
        assert 0 <= v < b
        assert (a - v) % b == 0
    with pytest.raises(DomainError):
        reduced_residue(3, 0)


def test_goodness_accepts_plain_members():
    for row in [(3, 0, 3, 0, 0), (5, 2, 3, 0, 1), (12, 6, 5, 0, 0), (26, 0, 14, 0, 1)]:
        v = is_good(Tuple(*row))
        assert v.is_good, (row, v.failures)
        assert v.failures == ()


def test_goodness_failure_codes():
    cases = {
        (2, 0, 3, 0, 0): "DegreeBelowGPlusR",
        (4, 0, 3, 2, 0): "EllTooLarge",
        (5, 2, 3, 0, 3): "MExceedsRho",
        (4, 0, 3, 0, 0): "RationalResidue",
        (4, 1, 3, 1, 0): "InXExList",
        (5, -1, 3, 0, 0): "NegativeField",
        (5, 2, 3, -1, 0): "NegativeField",
        (5, 2, 3, 0, -2): "NegativeField",
        (5, 2, 0, 0, 0): "NegativeField",
    }
    for row, code in cases.items():
        v = is_good(Tuple(*row))
        assert not v.is_good
        assert code in v.failures, (row, v.failures)


def test_goodness_reports_every_failed_clause():
    v = is_good(Tuple(2, 0, 3, 2, 5))
    assert set(v.failures) >= {"DegreeBelowGPlusR", "EllTooLarge", "MExceedsRho"}


def test_goodness_residue_clause_only_binds_rational_unmodified_case():
    # residue demands 2*ell >= (1 - d) mod (r - 1) when g = m = 0
    assert not is_good(Tuple(4, 0, 3, 0, 0)).is_good
    assert is_good(Tuple(4, 0, 3, 1, 0)).is_good  # one pair modification repairs it
    assert is_good(Tuple(4, 1, 3, 0, 0)).is_good  # positive genus is exempt
    # m > 0 is exempt (and (5,0,4,...) dodges the XEx row (5,1,4,1,0))
    assert is_good(Tuple(6, 0, 4, 0, 1)).is_good


def _goodness_failures_reference(t):
    # goodness clause by clause, from its statement; no helper of core
    d, g, r, ell, m = t
    failures = []
    if g < 0 or ell < 0 or m < 0 or r < 1:
        failures.append("NegativeField")
    if d < g + r:
        failures.append("DegreeBelowGPlusR")
    if 2 * ell > r:
        failures.append("EllTooLarge")
    if m > (r + 1) * d - r * g - r * (r + 1):
        failures.append("MExceedsRho")
    if g == 0 and m == 0 and r >= 2 and 2 * ell < (1 - d) % (r - 1):
        failures.append("RationalResidue")
    if t in XEX:
        failures.append("InXExList")
    return tuple(failures)


def test_good_verdict_agrees_with_the_failure_list():
    # is_good returns the shared good verdict without building a failure
    # tuple; on a grid with negative fields, r = 0, 1, 2 and every XEX tuple
    # it must agree with the clause-by-clause list
    from bninterp.core import _GOOD

    grid = [
        Tuple(d, g, r, ell, m)
        for r in range(0, 7) for d in range(-1, 16) for g in range(-1, 6)
        for ell in range(-1, 5) for m in range(-1, 6)
    ]
    goods = 0
    for t in grid + sorted(XEX):
        v = is_good(t)
        assert v.failures == _goodness_failures_reference(t), t
        assert v.is_good == (v.failures == ()), t
        if v.is_good:
            assert v is _GOOD
            goods += 1
    assert 0 < goods < len(grid)


def test_xex_members_are_rejected_and_all_sit_on_the_degree_floor():
    assert len(XEX) == 12
    for x in XEX:
        assert x.d == x.g + x.r
        assert "InXExList" in is_good(x).failures


def test_interpolation_verdicts():
    assert bn_interpolation(4, 1, 3).holds
    for d, g, r in COUNTEREXAMPLE_TRIPLES:
        v = bn_interpolation(d, g, r)
        assert not v.holds and v.reason == "SporadicException"
    # characteristic does not matter for the sporadic list
    assert not bn_interpolation(6, 2, 4, char=5).holds
    # characteristic 2, rational, bad residue
    v = bn_interpolation(4, 0, 3, char=2)
    assert not v.holds and v.reason == "Char2Rational"
    assert bn_interpolation(5, 0, 3, char=2).holds
    assert bn_interpolation(4, 0, 3, char=3).holds


def test_interpolation_domain_errors():
    with pytest.raises(DomainError):
        bn_interpolation(3, 4, 3)  # rho < 0
    with pytest.raises(DomainError):
        bn_interpolation(4, 1, 0)
    with pytest.raises(DomainError):
        bn_interpolation(0, 0, 3)
    with pytest.raises(DomainError, match="^no curve has negative genus, got g = -1$"):
        bn_interpolation(5, -1, 3)  # rho = 11
    # the characteristic is 0 or a prime
    for char in (4, -2, 1, 9):
        with pytest.raises(DomainError, match="neither 0 nor prime"):
            bn_interpolation(4, 0, 3, char=char)
    assert bn_interpolation(4, 0, 3, char=7).holds


def test_interpolation_and_point_counts_refuse_a_field_that_is_not_an_integer():
    # a float field used to pass as a verdict: bn_interpolation(4, 1, 3.0)
    # held and max_points(4.5, 1, 3) predicted 9.0 points.  The first
    # field that is not an int is named; a bool is an int
    for args, kwargs, name, value in [
        ((4.0, 1, 3), {}, "d", 4.0),
        ((4, 1.0, 3), {}, "g", 1.0),
        ((4, 1, 3.0), {}, "r", 3.0),
        ((4, 1, "3"), {}, "r", "3"),
        ((4.5, None, 3), {}, "d", 4.5),
        ((4, 0, 3), {"char": 2.0}, "char", 2.0),
        ((4, 0, 3), {"char": None}, "char", None),
    ]:
        message = f"^{name} must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(DomainError, match=message):
            bn_interpolation(*args, **kwargs)
        if not kwargs:
            with pytest.raises(DomainError, match=message):
                max_points(*args)
    assert bn_interpolation(4, 0, 3, char=False).holds and max_points(5, 0, 3) == max_points(5, False, 3)


def _trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_primality_is_a_strong_probable_prime_test_on_bases_2_to_41():
    assert [n for n in range(-3, 100_000) if _is_prime(n) != _trial_division(n)] == []
    # a Carmichael number, and a strong pseudoprime to bases 2, 3, 5 and 7
    assert not _is_prime(561) and not _is_prime(3_215_031_751)
    t0 = time.perf_counter()
    assert _is_prime(2**61 - 1) and bn_interpolation(4, 1, 3, char=2**61 - 1).holds
    assert time.perf_counter() - t0 < 1.0
    # the bound is the least strong pseudoprime to every base 2-41, where
    # the test stops being exact; bn_interpolation refuses it and above
    assert _is_prime(_SPRP_BOUND) and _SPRP_BOUND == 1_287_836_182_261 * 2_575_672_364_521
    for char in (_SPRP_BOUND, _SPRP_BOUND + 2):
        with pytest.raises(DomainError, match=f"characteristic {char} is not below {_SPRP_BOUND}"):
            bn_interpolation(4, 1, 3, char=char)
    with pytest.raises(DomainError, match="neither 0 nor prime"):
        bn_interpolation(4, 1, 3, char=_SPRP_BOUND - 1)


def test_max_points_formula_and_exceptions():
    rng = random.Random(31)
    for _ in range(500):
        r = rng.randint(3, 15)
        g = rng.randint(0, 10)
        d = rng.randint(g + r, g + 3 * r)
        if rho(d, g, r) < 0 or (d, g, r) in COR_MAIN_EXCEPTIONS:
            continue
        ans = max_points(d, g, r)
        assert ans.predicted_n == ((r + 1) * d - (r - 3) * (g - 1)) // (r - 1)
        assert not ans.is_exception and ans.exception_upper_bound is None
    assert max_points(10, 6, 5).exception_upper_bound == 11
    with pytest.raises(DomainError):
        max_points(3, 4, 3)
    with pytest.raises(DomainError):
        max_points(4, 0, 2)
    with pytest.raises(DomainError, match="^no curve has negative genus, got g = -1$"):
        max_points(5, -1, 3)
    # the same message as bn_interpolation's, which names the value of rho
    with pytest.raises(DomainError, match=r"^no BN-curve exists: rho\(3, 1, 3\) = -3 < 0$"):
        max_points(3, 1, 3)


def test_splitting_type_criterion():
    assert splitting_type_interpolation([2, 2, 3])
    assert splitting_type_interpolation([-1, -1, 0])
    assert splitting_type_interpolation([5])
    assert not splitting_type_interpolation([1, 3])
    assert not splitting_type_interpolation([-2, -1])
    with pytest.raises(DomainError, match="^empty splitting type$"):
        splitting_type_interpolation([])


def test_constant_tables_and_json_dump():
    assert len(SPORADIC30) == 30
    assert len(COUNTEREXAMPLE_TRIPLES) == 5
    assert set(COR_MAIN_EXCEPTIONS) == {(5, 2, 3), (6, 4, 3), (7, 2, 5), (10, 6, 5)}
    assert Tuple(5, 2, 3, 0, 2) in SPORADIC30
    assert Tuple(11, 4, 7, 1, 0) in SPORADIC30
    for t in SPORADIC30:
        assert is_good(t).is_good, t
    doc = json.loads(constants_as_json())
    assert len(doc["sporadic30"]) == 30
    assert len(doc["xex"]) == 12
    assert len(doc["counterexamples"]) == 5
    assert doc["sporadic30"] == sorted(doc["sporadic30"])


def test_measure_orders_lexicographically_by_r_d_m():
    assert measure(Tuple(5, 9, 3, 0, 0)) < measure(Tuple(4, 0, 4, 0, 0))
    assert measure(Tuple(5, 0, 4, 0, 0)) < measure(Tuple(6, 0, 4, 0, 0))
    assert measure(Tuple(6, 0, 4, 9, 1)) < measure(Tuple(6, 0, 4, 0, 2))


def test_measure_is_r_d_m_on_every_shell_tuple(shell):
    tuples = [t for r in range(3, 13) for t, _in_box in shell(r)]
    assert len(tuples) > 10_000
    for t in tuples:
        assert measure(t) == (t.r, t.d, t.m), t
