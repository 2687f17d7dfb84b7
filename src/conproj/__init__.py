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

from types import ModuleType as _Module

# The imports above are the one list of public names: each name they bind, less the modules.
__all__ = ["__version__"] + [
    name for name, value in globals().items() if name[0] != "_" and not isinstance(value, _Module)
]
