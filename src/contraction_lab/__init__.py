"""Desk-scale laboratory for contraction classification and fixed-point checking.

The library represents metric spaces exactly (finite tables) or by
deterministic rational sampling (one-dimensional analytic examples),
classifies self-maps into the pairwise/perimeter contraction hierarchy with
witnesses and modulus tables, runs Picard orbits with convergence
diagnostics, and evaluates fixed-point statements on concrete instances,
including randomized counterexample search.
"""

from .classify import (
    DEFAULT_EPS_GRID,
    ContractionReport,
    ModulusTable,
    Verdict,
    check_pairwise_strict,
    estimate_large_contraction_modulus,
    estimate_large_tpc_modulus,
    estimate_tpc_alpha,
    full_report,
)
from .dynamics import (
    CauchyDiagnostic,
    FixedPointCertificate,
    OrbitTrace,
    certify_fixed_point,
    check_distinct_iterates,
    check_perimeter_decrease,
    detect_period2,
    enumerate_fixed_points,
    geometric_decay_check,
    picard_orbit,
)
from .map_catalog import (
    CATALOG_IDS,
    CatalogEntry,
    SelfMap,
    apply,
    catalog,
    iterate,
    load_instance,
)
from .metric_core import (
    ETA,
    FiniteMetricSpace,
    InputError,
    InternalConsistencyError,
    SampledSpace,
    ValidationReport,
    max_side,
    metric_repair,
    perimeter,
    validate_metric,
)
from .theorem_lab import (
    THEOREM_IDS,
    SearchConfig,
    SearchFindings,
    TheoremVerdict,
    minimize_refutation,
    random_instance,
    run_validation,
    search_refutations,
    verdict,
)

__version__ = "0.1.0"

__all__ = [
    "CATALOG_IDS",
    "CatalogEntry",
    "CauchyDiagnostic",
    "ContractionReport",
    "DEFAULT_EPS_GRID",
    "ETA",
    "FiniteMetricSpace",
    "FixedPointCertificate",
    "InputError",
    "InternalConsistencyError",
    "ModulusTable",
    "OrbitTrace",
    "SampledSpace",
    "SearchConfig",
    "SearchFindings",
    "SelfMap",
    "TheoremVerdict",
    "THEOREM_IDS",
    "ValidationReport",
    "Verdict",
    "apply",
    "catalog",
    "certify_fixed_point",
    "check_distinct_iterates",
    "check_pairwise_strict",
    "check_perimeter_decrease",
    "detect_period2",
    "enumerate_fixed_points",
    "estimate_large_contraction_modulus",
    "estimate_large_tpc_modulus",
    "estimate_tpc_alpha",
    "full_report",
    "geometric_decay_check",
    "iterate",
    "load_instance",
    "max_side",
    "metric_repair",
    "minimize_refutation",
    "perimeter",
    "picard_orbit",
    "random_instance",
    "run_validation",
    "search_refutations",
    "validate_metric",
    "verdict",
]
