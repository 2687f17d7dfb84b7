"""Chart-local toolkit for conformal/projective structure compatibility.

Given a metric (up to conformal rescaling) and a symmetric connection (up
to projective transformation) on one coordinate chart, this package
decides whether the two classes come from a single metric, reconstructs
that metric when they do, tests the weaker null-geodesic condition, and
rebuilds a conformal class from sampled null vectors.
"""

__version__ = "0.1.0"

from .compatibility import (
    CompatReport,
    NullVector,
    ObstructionData,
    PointSummary,
    check_compatibility,
    eps_residual,
    obstruction_at,
    sample_null_vectors,
)
from .cone import canonicalize_metric, reconstruct_conformal
from .errors import (
    ConprojError,
    DegenerateMetric,
    DomainError,
    ExpressionError,
    ExpressionSyntaxError,
    NonConvergence,
    NonGenericConfiguration,
    ScenarioError,
    TooFewVectors,
    UnknownFunctionError,
    UnknownIdentifierError,
)
from .expressions import (
    eval_expr,
    parse_expression,
    print_expression,
)
from .geometry import (
    ConnectionValue,
    MetricValue,
    OneFormValue,
    ThomasValue,
    VectorValue,
    christoffel,
    conformal_rescale_metric,
    invert_metric,
    projective_transform,
    rescaled_connection,
    thomas_symbol,
)
from .jets import Jet, apply_function, constant, coordinate, partial_derivative
from .recovery import (
    RecoveredFactor,
    RecoveryVerification,
    integrate_phi,
    integrate_phi_path,
    recover_metric,
    verify_recovery,
)
from .scenario import (
    Scenario,
    Tolerances,
    connection_at,
    load_scenario,
    load_scenario_path,
    metric_at,
    sample_points,
    with_conformal_factor,
    with_projective_shift,
)

__all__ = [
    "__version__",
    # jets
    "Jet",
    "constant",
    "coordinate",
    "partial_derivative",
    "apply_function",
    # expressions
    "parse_expression",
    "print_expression",
    "eval_expr",
    # scenario
    "Scenario",
    "Tolerances",
    "load_scenario",
    "load_scenario_path",
    "metric_at",
    "connection_at",
    "sample_points",
    "with_conformal_factor",
    "with_projective_shift",
    # geometry
    "MetricValue",
    "ConnectionValue",
    "ThomasValue",
    "OneFormValue",
    "VectorValue",
    "invert_metric",
    "christoffel",
    "conformal_rescale_metric",
    "rescaled_connection",
    "projective_transform",
    "thomas_symbol",
    # compatibility
    "NullVector",
    "ObstructionData",
    "PointSummary",
    "CompatReport",
    "sample_null_vectors",
    "eps_residual",
    "obstruction_at",
    "check_compatibility",
    # recovery
    "RecoveredFactor",
    "RecoveryVerification",
    "integrate_phi",
    "integrate_phi_path",
    "recover_metric",
    "verify_recovery",
    # cone
    "reconstruct_conformal",
    "canonicalize_metric",
    # errors
    "ConprojError",
    "DomainError",
    "ExpressionError",
    "ExpressionSyntaxError",
    "UnknownIdentifierError",
    "UnknownFunctionError",
    "ScenarioError",
    "DegenerateMetric",
    "NonConvergence",
    "TooFewVectors",
    "NonGenericConfiguration",
]
