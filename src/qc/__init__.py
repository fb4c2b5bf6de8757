"""Exact computation with value quantales, finite continuity spaces,
Cauchy filters, and completions; plus a machine-checked theorem suite."""

import importlib

from .errors import (
    DomainMismatchError,
    InvariantError,
    PreconditionError,
    QcError,
    StructureError,
)
from .quantale import (
    BUILTIN_QUANTALES,
    EXT_RATIONAL,
    INF,
    ExtendedRationalQuantale,
    FiniteQuantale,
    ValueQuantale,
    capped_chain,
    validate_value_quantale,
)
from .reporting import CheckFailure, ValidationReport, Verdict
from .vspace import (
    VSpace,
    ball,
    ball_of_set,
    classify,
    combined_test_values,
    has_uniformly_vanishing_asymmetry,
    has_vanishing_asymmetry,
    is_uniformly_continuous,
    separation_quotient,
    set_distance,
    symmetry_modulus,
    validate_vspace,
)
from .filters import (
    Filter,
    converges,
    filter_from_base,
    filter_distance,
    image_filter,
    improper_filter,
    intersect,
    is_cauchy,
    is_filter_morphism,
    is_minimal_cauchy,
    is_round,
    point_filter,
    principal_filter,
    roundify,
)
from .completion import (
    CompletionSpace,
    ExtensionResult,
    canonical_embedding,
    complete,
    extend_to_completion,
    filter_point_name,
    induced_completion_map,
    minimal_cauchy_filters,
)
from .structures import (
    EquivalenceReport,
    FiniteTopology,
    QuasiUniformity,
    quasi_uniformity_of,
    topology_of,
    topology_of_relation,
    uva_equivalence_report,
    va_equivalence_report,
)
from . import serialize

__version__ = "0.1.0"

# the oracle module is large and only the theorem suite and the CLI need
# it, so its names load on first use (PEP 562)
_VERIFY_NAMES = frozenset(
    {
        "CauchyFilterSpace",
        "InstanceGenerator",
        "VerificationReport",
        "cauchy_filter_space",
        "enumerate_filter_families",
        "is_cauchy_complete",
        "oracle_collapsed_formulas",
        "oracle_epsilon_reduction",
        "oracle_filters",
        "oracle_gate",
        "run_theorem_suite",
        "triangle_repair",
        "zero_distance_intersection_cauchy",
    }
)


def __getattr__(name):
    if name == "verify" or name in _VERIFY_NAMES:
        # import_module, not `from . import verify`, which would come back here
        verify = importlib.import_module(__name__ + ".verify")
        return verify if name == "verify" else getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
