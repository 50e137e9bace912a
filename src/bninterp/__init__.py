"""Exact verification tools for interpolation of Brill-Noether curves.

The package re-executes a combinatorial proof skeleton: exact tuple
arithmetic and goodness tests (`core`), integer feasibility of rational
bound systems (`intfeas`), an erasability calculus for modification
collections (`erase`), checked reduction rules (`rules`), and a search
layer producing independently re-checkable certificates (`prover`).
"""

__version__ = "0.1.0"

from .core import (
    COR_MAIN_EXCEPTIONS,
    COUNTEREXAMPLE_TRIPLES,
    SPORADIC30,
    XEX,
    DomainError,
    GoodnessVerdict,
    InterpolationVerdict,
    InvariantViolated,
    PointCountAnswer,
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
from .erase import (
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
from .intfeas import Bound, BoundSystem, eliminate_sufficient, integer_in_interval, system
from .prover import (
    AxiomSet,
    Axiom,
    Certificate,
    Irreducible,
    RuleApp,
    SporadicReport,
    Thm14Report,
    VerifyResult,
    certify,
    enumerate_sporadic,
    find_reduction,
    run_sporadic_search,
    verify_certificate,
    verify_thm14,
)
from .rules import (
    RULE_ORDER,
    PreconditionViolated,
    RuleId,
    RuleParams,
    apply,
    enumerate_instances,
    first_instance,
)

__all__ = [
    "__version__",
    # core
    "Tuple",
    "DomainError",
    "InvariantViolated",
    "GoodnessVerdict",
    "InterpolationVerdict",
    "PointCountAnswer",
    "rho",
    "delta",
    "delta_numerator",
    "reduced_residue",
    "is_good",
    "measure",
    "bn_interpolation",
    "max_points",
    "splitting_type_interpolation",
    "constants_as_json",
    "XEX",
    "COUNTEREXAMPLE_TRIPLES",
    "COR_MAIN_EXCEPTIONS",
    "SPORADIC30",
    # intfeas
    "Bound",
    "BoundSystem",
    "system",
    "integer_in_interval",
    "eliminate_sufficient",
    # erase
    "STRONG",
    "WEAK",
    "ModType",
    "AccState",
    "CalculusError",
    "TooLarge",
    "normalize",
    "combine",
    "is_erasable",
    "brute_force_erasable",
    "erasable_under_all_orders",
    "make_collection",
    # rules
    "RuleId",
    "RuleParams",
    "RULE_ORDER",
    "PreconditionViolated",
    "apply",
    "enumerate_instances",
    "first_instance",
    # prover
    "AxiomSet",
    "Axiom",
    "RuleApp",
    "Certificate",
    "VerifyResult",
    "Irreducible",
    "certify",
    "verify_certificate",
    "enumerate_sporadic",
    "find_reduction",
    "run_sporadic_search",
    "verify_thm14",
    "SporadicReport",
    "Thm14Report",
]
