"""Bergman kernels of weighted entire-function spaces and the Szego kernel
of the model domain {Im z2 > p(z1)}, with quadrature oracles for every
closed formula."""

from .boundary import BoundaryPoint
from .errors import (
    ConvergenceError,
    DomainError,
    NearSingular,
    SingularPoint,
    SzegofockError,
    TruncationError,
    UnsupportedWeight,
)
from .numerics import (
    EvalResult,
    QuadConfig,
    integrate_half_line,
    integrate_interval,
    integrate_plane_polar,
    integrate_real_line,
    log_gamma,
    sum_series,
)
from .profile import (
    AsymptoticsReport,
    BoundsReport,
    bergman_from_szego_gaussian,
    bergman_gaussian_closed,
    bergman_profile,
    bergman_roundtrip_extrapolated,
    duality_finiteness_criterion,
    duality_marginal_integral,
    effective_conjugate,
    inner_integral,
    laplace_asymptotic,
    sandwich_bounds_check,
    shifted_maximizer_gap,
    szego_gaussian_closed,
    szego_profile,
)
from .radial import (
    bergman_radial_series,
    gamma_step_identity_check,
    series_coefficient,
    szego_radial_closed,
    szego_radial_via_laplace,
)
from .verify import (
    CaseResult,
    VerificationReport,
    moment_closed,
    moment_oracle,
    reproducing_check,
    run_suite,
)
from .weights import (
    WeightFamily,
    WeightSpec,
    conjugate_spec,
    eval_weight,
    format_weight,
    gaussian,
    inverse_derivative,
    parse_weight,
    profile_power,
    radial_power,
    weight_derivatives,
    young_conjugate_closed,
    young_conjugate_numeric,
)

__version__ = "0.1.0"
