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
from typing import NamedTuple, Optional


class DomainError(ValueError):
    """Raised when an operation is called outside its mathematical domain."""


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


def measure(t: Tuple) -> tuple[int, int, int]:
    """Well-founded termination measure: lexicographic (r, d, m)."""
    return (t.r, t.d, t.m)


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
    g = m = 0, and the tuple is not one of the twelve in XEX.
    """
    d, g, r, ell, m = t
    failures: list[str] = []
    if g < 0 or ell < 0 or m < 0 or r < 1:
        failures.append(NEGATIVE_FIELD)
    if d < g + r:
        failures.append(DEGREE_BELOW_G_PLUS_R)
    if 2 * ell > r:
        failures.append(ELL_TOO_LARGE)
    if m > rho(d, g, r):
        failures.append(M_EXCEEDS_RHO)
    # the residue condition only constrains the unmodified rational case
    if g == 0 and m == 0 and r >= 2 and 2 * ell < (1 - d) % (r - 1):
        failures.append(RATIONAL_RESIDUE)
    if t in XEX:
        failures.append(IN_XEX_LIST)
    return GoodnessVerdict(not failures, tuple(failures))


def bn_interpolation(d: int, g: int, r: int, char: int = 0) -> InterpolationVerdict:
    """Decide interpolation for the general BN-curve of degree d, genus g in P^r.

    `char` is 0 or a prime; only char = 2 ever changes the verdict.  Holds
    unless (d, g, r) is one of the five counterexample triples, or char = 2
    with g = 0 and d not congruent to 1 mod r - 1.
    """
    if r < 1 or d < 1:
        raise DomainError(f"need r >= 1 and d >= 1, got (d, g, r) = ({d}, {g}, {r})")
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
    if r < 3:
        raise DomainError(f"point counts need r >= 3, got r = {r}")
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
