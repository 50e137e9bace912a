"""Exact arithmetic on (d, g, r, ell, m) tuples.

Everything downstream -- the reduction rules, the erasability calculus, the
sporadic search -- is computed from the five integers collected in `Tuple`.
This module holds the closed-form quantities (rho, delta, reduced residues),
the goodness predicate with its failure diagnostics, the embedded constant
tables, and the two top-level verdict functions (interpolation yes/no and
maximal point counts).

All rational arithmetic is exact (fractions.Fraction); there is no floating
point anywhere in the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple, Optional


class DomainError(ValueError):
    """An input outside an operation's domain; the CLI prints it as
    `error: ...` and exits 1.  A ValueError, so `except ValueError` holds."""


class InvariantViolated(RuntimeError):
    """An internal consistency check failed: a defect in the package, not a
    property of its input."""


class Tuple(NamedTuple):
    """The 5-integer index (d, g, r, ell, m).

    d    -- degree
    g    -- genus (>= 0)
    r    -- ambient projective dimension (>= 1)
    ell  -- number of point-pair modifications (>= 0)
    m    -- number of rational-curve modifications (>= 0)

    No validity is baked in; `is_good` is the separate predicate.
    """

    d: int
    g: int
    r: int
    ell: int
    m: int


# Well-founded termination measure: lexicographic (r, d, m), items 2, 0
# and 4 of (d, g, r, ell, m), read in C.
measure = itemgetter(2, 0, 4)
# _new(cls, values): a NamedTuple built in C, without its Python __new__.
# Used for the objects built per sweep tuple or certify node: sweep tuples,
# every rule's subgoals and RuleParams, and the certificates' RuleApp and
# Axiom in `certify` and `Certificate.from_json`.
_new = tuple.__new__


def _check_ints(names: tuple, values) -> None:
    """Raise DomainError naming the first of `values` that is not an int; a
    bool is one."""
    for name, v in zip(names, values):
        if not isinstance(v, int):
            raise DomainError(f"{name} must be an integer, got {v!r}")


# ---------------------------------------------------------------------------
# failure codes for is_good

DEGREE_BELOW_G_PLUS_R = "DegreeBelowGPlusR"
ELL_TOO_LARGE = "EllTooLarge"
M_EXCEEDS_RHO = "MExceedsRho"
RATIONAL_RESIDUE = "RationalResidue"
IN_XEX_LIST = "InXExList"
NEGATIVE_FIELD = "NegativeField"


@dataclass(frozen=True)
class GoodnessVerdict:
    is_good: bool
    failures: tuple[str, ...] = ()


# the one verdict every good tuple gets; verdicts are immutable
_GOOD = GoodnessVerdict(True)


@dataclass(frozen=True)
class InterpolationVerdict:
    holds: bool
    reason: str  # "Generic" | "SporadicException" | "Char2Rational"
    detail: Optional[tuple] = None


@dataclass(frozen=True)
class PointCountAnswer:
    predicted_n: int
    is_exception: bool
    exception_upper_bound: Optional[int] = None  # an upper bound, not a proven-sharp maximum


# ---------------------------------------------------------------------------
# constant tables

# The twelve excluded 5-tuples: arithmetic admits them but interpolation fails.
XEX = frozenset(
    Tuple(*v)
    for v in [
        (5, 2, 3, 0, 0),
        (4, 1, 3, 1, 0),
        (4, 1, 3, 0, 1),
        (4, 1, 3, 1, 1),
        (6, 2, 4, 0, 0),
        (5, 1, 4, 1, 0),
        (5, 1, 4, 1, 1),
        (5, 1, 4, 2, 1),
        (6, 2, 4, 1, 1),
        (7, 2, 5, 0, 0),
        (6, 1, 5, 0, 1),
        (6, 1, 5, 1, 1),
    ]
)

# (d, g, r) triples where interpolation fails in every characteristic.
COUNTEREXAMPLE_TRIPLES = frozenset(
    [(5, 2, 3), (6, 4, 3), (6, 2, 4), (7, 2, 5), (10, 6, 5)]
)

# The subset of the above that are exceptions to the point-count formula,
# with their surface-geometry upper bounds on the number of general points.
EXCEPTION_POINT_BOUNDS = {
    (5, 2, 3): 9,
    (6, 4, 3): 9,
    (7, 2, 5): 9,
    (10, 6, 5): 11,
}
COR_MAIN_EXCEPTIONS = frozenset(EXCEPTION_POINT_BOUNDS)

# The 30 good tuples (3 <= r <= 13 in the residual search region) that none
# of the reduction arguments resolves; each is established separately and
# enters the prover as an axiom.  Listed sorted by (r, g, d, ell, m).
SPORADIC30 = frozenset(
    Tuple(*v)
    for v in [
        (4, 0, 3, 0, 1),
        (4, 0, 3, 0, 2),
        (4, 0, 3, 1, 1),
        (5, 0, 3, 0, 1),
        (5, 1, 3, 0, 1),
        (5, 1, 3, 1, 1),
        (5, 2, 3, 0, 1),
        (5, 2, 3, 0, 2),
        (5, 2, 3, 1, 1),
        (6, 2, 3, 0, 1),
        (5, 0, 4, 0, 1),
        (5, 0, 4, 2, 0),
        (6, 2, 4, 0, 2),
        (7, 3, 4, 0, 1),
        (7, 3, 4, 1, 1),
        (7, 1, 5, 0, 1),
        (7, 2, 5, 0, 1),
        (7, 2, 5, 2, 2),
        (9, 2, 5, 0, 0),
        (8, 3, 5, 2, 0),
        (9, 4, 5, 0, 0),
        (9, 4, 5, 1, 0),
        (7, 0, 6, 0, 1),
        (7, 1, 6, 2, 1),
        (7, 1, 6, 3, 1),
        (8, 2, 6, 2, 0),
        (11, 5, 6, 0, 0),
        (8, 1, 7, 0, 1),
        (8, 1, 7, 1, 1),
        (11, 4, 7, 1, 0),
    ]
)


def constants_as_json() -> str:
    """Serialize the embedded constant tables (see `dump-constants`)."""
    doc = {
        "xex": sorted([list(t) for t in XEX]),
        "counterexamples": sorted([list(t) for t in COUNTEREXAMPLE_TRIPLES]),
        "cor_main_exceptions": sorted([list(t) for t in COR_MAIN_EXCEPTIONS]),
        "sporadic30": sorted([list(t) for t in SPORADIC30]),
    }
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# arithmetic


def rho(d: int, g: int, r: int) -> int:
    """Brill-Noether number (r+1)d - rg - r(r+1); >= 0 iff a BN-curve exists."""
    return (r + 1) * d - r * g - r * (r + 1)


def delta(t: Tuple) -> Fraction:
    """Slope defect (2d + 2g - 2r + 2*ell + (r+1)m) / (r-1), exact."""
    if t.r <= 1:
        raise DomainError(f"delta undefined for r = {t.r} (denominator r-1 <= 0)")
    return Fraction(delta_numerator(t), t.r - 1)


def delta_numerator(t: Tuple) -> int:
    """Integer numerator of delta over the fixed denominator r - 1."""
    return 2 * t.d + 2 * t.g - 2 * t.r + 2 * t.ell + (t.r + 1) * t.m


def reduced_residue(a: int, b: int) -> int:
    """The unique value in [0, b) congruent to a mod b; correct for a < 0."""
    if b <= 0:
        raise DomainError(f"reduced residue needs a positive modulus, got {b}")
    return a % b


def is_good(t: Tuple) -> GoodnessVerdict:
    """Decide goodness and report every violated condition.

    A tuple is good when d >= g + r, 2*ell <= r, 0 <= m <= rho(d, g, r),
    the residue condition 2*ell >= (1 - d) % (r - 1) holds whenever
    g = m = 0, and the tuple is not one of the twelve in XEX.  One pass tests
    each condition once, negative fields first and then in that order, and
    names it only when it fails; a good tuple gets the shared `_GOOD`.

    The five fields must be ints.  That is not checked here, because this
    runs on every `certify` node and sweep tuple; the entry points that take
    a tuple from a caller (`certify`, the certificate reader) check it.
    """
    d, g, r, ell, m = t
    failures = ()
    if g < 0 or ell < 0 or m < 0 or r < 1:
        failures += (NEGATIVE_FIELD,)
    if d < g + r:
        failures += (DEGREE_BELOW_G_PLUS_R,)
    if 2 * ell > r:
        failures += (ELL_TOO_LARGE,)
    if m > rho(d, g, r):
        failures += (M_EXCEEDS_RHO,)
    # the residue condition only constrains the unmodified rational case
    if g == 0 and m == 0 and r >= 2 and 2 * ell < (1 - d) % (r - 1):
        failures += (RATIONAL_RESIDUE,)
    if t in XEX:
        failures += (IN_XEX_LIST,)
    return GoodnessVerdict(False, failures) if failures else _GOOD


_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base above: the test is exact below it
_SPRP_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Strong-probable-prime test on _SPRP_BASES, exact for n < _SPRP_BOUND."""
    if n < 2 or n in _SPRP_BASES:
        return n in _SPRP_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = odd * 2^s
    odd = (n - 1) >> s
    # n passes base a when a^odd = 1 or a^(odd 2^j) = -1 for some j < s
    return all(pow(a, odd, n) == 1 or any(pow(a, odd << j, n) == n - 1 for j in range(s)) for a in _SPRP_BASES)


def bn_interpolation(d: int, g: int, r: int, char: int = 0) -> InterpolationVerdict:
    """Decide interpolation for the general BN-curve of degree d, genus g in P^r.

    `char` is 0 or a prime; only char = 2 ever changes the verdict.  Holds
    unless (d, g, r) is one of the five counterexample triples, or char = 2
    with g = 0 and d not congruent to 1 mod r - 1.
    """
    _check_ints(("d", "g", "r", "char"), (d, g, r, char))
    if char >= _SPRP_BOUND:
        raise DomainError(f"characteristic {char} is not below {_SPRP_BOUND}, where the primality test is exact")
    if char != 0 and not _is_prime(char):
        raise DomainError(f"characteristic {char} is neither 0 nor prime")
    if r < 1 or d < 1:
        raise DomainError(f"need r >= 1 and d >= 1, got (d, g, r) = ({d}, {g}, {r})")
    if g < 0:
        raise DomainError(f"no curve has negative genus, got g = {g}")
    if rho(d, g, r) < 0:
        raise DomainError(f"no BN-curve exists: rho({d}, {g}, {r}) = {rho(d, g, r)} < 0")
    if (d, g, r) in COUNTEREXAMPLE_TRIPLES:
        return InterpolationVerdict(False, "SporadicException", (d, g, r))
    if char == 2 and g == 0 and r >= 2 and reduced_residue(d - 1, r - 1) != 0:
        return InterpolationVerdict(False, "Char2Rational", (d, g, r))
    return InterpolationVerdict(True, "Generic")


def max_points(d: int, g: int, r: int) -> PointCountAnswer:
    """Predicted count of general points a BN-curve passes through.

    predicted_n = floor(((r+1)d - (r-3)(g-1)) / (r-1)).  For the four
    exception triples the formula overshoots; the returned bound is the
    surface-construction upper bound (not claimed sharp).
    """
    _check_ints(("d", "g", "r"), (d, g, r))
    if r < 3:
        raise DomainError(f"point counts need r >= 3, got r = {r}")
    if g < 0:
        raise DomainError(f"no curve has negative genus, got g = {g}")
    if rho(d, g, r) < 0:
        raise DomainError(f"no BN-curve exists: rho({d}, {g}, {r}) < 0")
    predicted = ((r + 1) * d - (r - 3) * (g - 1)) // (r - 1)
    bound = EXCEPTION_POINT_BOUNDS.get((d, g, r))
    return PointCountAnswer(predicted, bound is not None, bound)


def splitting_type_interpolation(e: list[int]) -> bool:
    """A direct sum of line bundles O(e_i) interpolates iff the e_i are
    balanced within 1 and all >= -1."""
    if not e:
        raise DomainError("empty splitting type")
    return max(e) - min(e) <= 1 and min(e) >= -1
