"""Weighted Rellich inequalities for L = Delta + c x/|x|^2 . grad - b/|x|^2.

Decide validity of || |x|^alpha L u ||_p >= C || |x|^{alpha-2} u ||_p
across domain types and spherical-harmonic subspaces, compute best
constants and spectral regions of the auxiliary operator
A = |x|^2 Delta + c x . grad, generate counterexample families, and
verify everything numerically by exact one-dimensional reduction plus
quadrature.

The closed-form layer (errors, params, spectral, validity) loads
with the package, without numpy.  The numeric layer (profiles,
quadrature, radial, verify) and numpy load together on the first access
to any of their names or modules, through a module __getattr__ (PEP
562), so the closed-form CLI commands start without them.
"""

from importlib import import_module as _import_module

from .errors import (
    BetaZero,
    CorpusOutsideSubspace,
    DegenerateWeight,
    DZero,
    NonFiniteIntegrand,
    OutOfRange,
    PreconditionViolated,
    RellichError,
    UnsupportedRegime,
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
from .spectral import (
    ADomain,
    GammaInterval,
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
    lemma_parameters_flags,
    tail_exponent_integrable,
)

__version__ = "0.1.0"

#: the numeric layer, module -> exported names; all of it loads at once
_NUMERIC = {
    "profiles": ("Profile1D", "bump", "bump_corpus", "plateau_profile", "radial_power_bump"),
    "quadrature": ("integrate", "lp_norm"),
    "radial": ("BoundaryReport", "RatioReport", "ReducedCoefficients",
               "boundary_counterexample", "counterexample_ratio", "fit_loglog_slope",
               "reduced_coefficients", "rellich_ratio_separable"),
    "verify": ("VerificationReport", "oned_green_reconstruct", "verify_aux_remainder",
               "verify_critical_log", "verify_dissipativity", "verify_hardy",
               "verify_oned_inequality", "verify_rellich", "verify_remainder"),
}
_LAZY = frozenset(_NUMERIC).union(*_NUMERIC.values())

__all__ = sorted(_LAZY.union(n for n in globals() if not n.startswith("_")))


def __getattr__(name):
    # one import of the whole layer: callers look its modules up in
    # sys.modules after importing any one of its names
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    g = globals()
    for module, names in _NUMERIC.items():
        # import_module, not "from . import": that asks this hook again
        mod = _import_module(f"{__name__}.{module}")
        g.update((n, getattr(mod, n)) for n in names)
    return g[name]


def __dir__():
    return sorted(_LAZY.union(globals()))
