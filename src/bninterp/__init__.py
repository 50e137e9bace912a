"""Exact verification tools for interpolation of Brill-Noether curves.

The package re-executes a combinatorial proof skeleton: exact tuple
arithmetic and goodness tests (`core`), integer feasibility of rational
bound systems (`intfeas`), an erasability calculus for modification
collections (`erase`), checked reduction rules (`rules`), and a search
layer producing independently re-checkable certificates (`prover`).
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

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

# the import blocks above are the one list of public names; the submodules
# they bind as attributes of the package are not exports
__all__ = ["__version__"] + [
    name for name, value in list(globals().items()) if not name.startswith("_") and not isinstance(value, _ModuleType)
]
