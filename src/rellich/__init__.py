"""Weighted Rellich inequalities for L = Delta + c x/|x|^2 . grad - b/|x|^2.

Decide validity of || |x|^alpha L u ||_p >= C || |x|^{alpha-2} u ||_p
across domain types and spherical-harmonic subspaces, compute best
constants and spectral regions of the auxiliary operator
A = |x|^2 Delta + c x . grad, generate counterexample families, and
verify everything numerically by exact one-dimensional reduction plus
quadrature.
"""

from .errors import (
    BetaZero,
    CorpusOutsideSubspace,
    DegenerateWeight,
    DNonzero,
    DZero,
    NonFiniteIntegrand,
    NotCritical,
    OutOfRange,
    PreconditionViolated,
    RellichError,
    UnsupportedRegime,
    VariantMismatch,
)
from .green import (
    GreenBoundInput,
    HeatKernelVariant,
    g0_positive_D,
    g0_zero_D,
    heat_kernel_bound,
    tail_exponent_integrable,
)
from .params import (
    DEFAULT_TOL,
    OperatorParams,
    base_alpha,
    conjugate_exponent,
    critical_alphas,
    discriminant,
    eigen_lambda,
    gamma_p,
    indicial_roots,
    kelvin_transform,
    mu_shift,
    omega_p,
    parse_p,
    sqrt_nonneg_re,
)
from .profiles import (
    Profile1D,
    bump,
    bump_corpus,
    check_derivatives,
    log_squeezed,
    plateau_profile,
    radial_power_bump,
)
from .quadrature import QuadratureSpec, integrate, lp_norm
from .radial import (
    BoundaryReport,
    RatioReport,
    ReducedCoefficients,
    boundary_counterexample,
    counterexample_ratio,
    fit_loglog_slope,
    reduced_coefficients,
    rellich_ratio_separable,
)
from .spectral import (
    ADomain,
    GammaInterval,
    HalfLineSide,
    ParabolicRegion,
    SpectralClassification,
    classify_A,
    classify_gamma,
    classify_halfline_ode,
    dist_to_parabola,
    in_region,
    ode_roots,
    on_parabola,
    region_section3,
    region_section4,
    resolvent_bound,
)
from .validity import (
    Branch,
    DomainKind,
    HarmonicSet,
    Verdict,
    best_constant,
    decide,
    decide_bounded_domain,
    decide_exterior,
    decide_unit_ball,
    decide_whole_space,
    lemma_parameters_flags,
)
from .verify import (
    VerificationReport,
    oned_green_reconstruct,
    verify_aux_remainder,
    verify_critical_log,
    verify_dissipativity,
    verify_hardy,
    verify_oned_inequality,
    verify_rellich,
    verify_remainder,
)

__version__ = "0.1.0"
