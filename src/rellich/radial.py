"""One-dimensional reduction of separable N-dimensional L^p quantities.

For u(r omega) = c(rho) P_n(omega) with c(rho) = rho^{-alpha+2-N/p} v(-log rho),
the weighted norms reduce exactly to unweighted 1-D integrals in the
logarithmic variable s = -log rho:

    || |x|^alpha L u ||_p^p   = S_P * || v'' + beta v' - lambda_red v ||_p^p
    || |x|^{alpha-2} u ||_p^p = S_P * || v ||_p^p

with beta the reduced drift of ``params.reduced_drift`` and
lambda_red = gamma_p(alpha, c) + b + lambda_n.  The spherical factor
S_P = integral |P|^p cancels in every ratio and is never computed.
The reduced norms of one profile on one support are one ``lp_norm`` call
on a stack of integrands, which samples the profile once per pass:
``reduced_norm`` takes one row (a2, a1, a0, power) per norm, and
``critical_rows`` the critical family u_eps = r^gamma phi(r^eps) of a whole
eps ladder, read on phi's fixed support.  ``lp_norm`` finds the sign
changes and the sup of each row, for any weight s^power, itself.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange, PreconditionViolated, UnsupportedRegime
from .params import (
    OperatorParams,
    base_alpha,
    check_p,
    discriminant,
    eigen_lambda,
    gamma_p,
    indicial_roots,
    inv_p,
    reduced_drift,
    sqrt_nonneg_re,
)
from .profiles import Profile1D, bump
from .quadrature import lp_norm

#: Support of the counterexample cutoff phi; the reduced-norm identity
#: below is derived for this window.
PHI_SUPPORT = (0.25, 0.5)

#: the cutoff phi of the critical families u_eps = r^gamma phi(r^eps)
CUTOFF = bump(*PHI_SUPPORT)

#: most points of the boundary witness's log grid, which needs at least 2
GRID_MAX = 100_000


@dataclass(frozen=True)
class ReducedCoefficients:
    beta: float
    lambda_red: float


@dataclass(frozen=True)
class RatioReport:
    numerator: float
    denominator: float
    ratio: float
    quad_error_estimate: float  # estimated error of ratio, from both norms

    def __post_init__(self):
        assert self.denominator > 0


def reduced_coefficients(
    params: OperatorParams, p: float, alpha: float, n: int
) -> ReducedCoefficients:
    """Drift and zero-order coefficient of the reduced operator.

    beta equals -k4 where k4 = 2(base - alpha) is the section-4 region
    coefficient; lambda_red vanishes exactly at the critical exponents.
    """
    check_p(p)
    lam_red = gamma_p(params.N, p, alpha, params.c) + params.b + eigen_lambda(params.N, n)
    return ReducedCoefficients(reduced_drift(params, p, alpha), lam_red)


def reduced_norm(v: Profile1D, p: float, *rows: tuple[float, ...],
                 support: tuple[float, float] | None = None):
    """(||s^power (a2 v'' + a1 v' + a0 v)||_{L^p(support)}, err) for a profile v and a row
    (a2, a1, a0, power), as ``Profile1D.integrand`` reads it; a list of such pairs for
    several rows, from one ``lp_norm`` call.

    support defaults to the support of v.
    """
    return lp_norm(v.integrand(*rows), v.support if support is None else support, p)


def _ratio(num: tuple[float, float], den: tuple[float, float]) -> RatioReport:
    """Report of num / den from two (norm, err) pairs, with the ratio's estimated error."""
    (n, err_n), (d, err_d) = num, den
    if d <= 0:
        raise ValueError("denominator norm vanished")
    return RatioReport(n, d, n / d, (err_n + n * err_d / d) / d)


def rellich_ratio_separable(
    params: OperatorParams, p: float, alpha: float, n: int, v: Profile1D
) -> RatioReport:
    """|| v'' + beta v' - lambda_red v ||_p / || v ||_p on the support of v."""
    rc = reduced_coefficients(params, p, alpha, n)
    return _ratio(*reduced_norm(v, p, (1.0, rc.beta, -rc.lambda_red), (0.0, 0.0, 1.0)))


def counterexample_gamma(params: OperatorParams, n: int, branch: str) -> float:
    """The exponent gamma = -Re s_1^n (minus branch) or -Re s_2^n (plus)."""
    s1, s2 = indicial_roots(params, n)
    if branch == "minus":
        return -s1.real
    if branch == "plus":
        return -s2.real
    raise ValueError(f"branch must be 'minus' or 'plus', got {branch!r}")


def counterexample_drift(params: OperatorParams, n: int, branch: str) -> float:
    """The drift 2 gamma + N - 2 + c of the critical family's reduced operator.

    It is +-2 Re sqrt(D + lambda_n) (+ on the minus branch) and vanishes
    where the indicial roots collide.
    """
    return 2.0 * counterexample_gamma(params, n, branch) + params.N - 2.0 + params.c


def counterexample_ratio(
    params: OperatorParams,
    p: float,
    n: int,
    branch: str,
    eps: Sequence[float],
) -> list[RatioReport]:
    """Exact reduced norm ratios of the critical family u_eps = r^gamma phi(r^eps), one per eps.

    At alpha = alpha_n^+- the ratio of the two Rellich norms collapses to

        eps * ( integral s^{p-1} |eps s phi'' + (2 gamma + N - 2 + c + eps) phi'|^p ds
                / integral |phi|^p / s ds )^{1/p}

    for finite p, and for p = inf to
    eps * sup |eps s^2 phi'' + (2 gamma + N - 2 + c + eps) s phi'| / sup |phi|.
    It tends to zero linearly in eps, witnessing failure of the inequality.
    Both are the norms of the one stack of ``critical_rows`` with lam = 0.

    Requires D + lambda_n >= 0: the display presumes real indicial roots.
    """
    check_p(p)
    for e in eps:
        if not (0.0 < e <= 1.0):
            raise ValueError(f"epsilon must lie in (0, 1], got {e}")
    if discriminant(params) + eigen_lambda(params.N, n) < 0:
        raise UnsupportedRegime(
            "complex indicial roots (D + lambda_n < 0): the explicit "
            "counterexample family is only valid for real roots"
        )
    g = counterexample_drift(params, n, branch)
    *nums, den = lp_norm(critical_rows(g, 0.0, p, eps), PHI_SUPPORT, p)
    return [_ratio(num, den) for num in nums]


def critical_rows(g: float, lam: float, p: float, eps: Sequence[float],
                  kappa: float | None = None):
    """The critical family's reduced norms for every eps, one ``lp_norm`` stack on PHI_SUPPORT.

    x = e^{-eps s} turns v'' - g v' - lam v of v(s) = phi(e^{-eps s}) into
    eps x (eps x phi'' + (g + eps) phi') - lam phi, and ds into dx / (eps x).
    The rows are that times x^{-1/p} for each eps, then x^{-1/p} phi, and with
    kappa x^{-1/p} phi (-log(x) / eps)^{-kappa} for each eps: eps^{1/p} times
    the norms in s, a factor that the ratios of one eps cancel.  g is the drift
    of ``counterexample_drift``; lam = min(0, D + lambda_n) makes this the
    reduced Rellich operator at the critical exponent.
    """
    q = inv_p(p)

    def rows(x):
        v0, v1, v2 = CUTOFF.jet(x)
        w = x**-q
        out = [w * (e * x * (e * x * v2 + (g + e) * v1) - lam * v0) for e in eps] + [w * v0]
        if kappa is not None:
            out += [out[-1] * (-np.log(x) / e) ** -kappa for e in eps]
        return np.stack(out)

    return rows


@dataclass(frozen=True)
class BoundaryReport:
    residual_sup: float
    norm_finite: bool
    active: bool


def boundary_counterexample(
    params: OperatorParams,
    alpha: float,
    p: float,
    grid: int = 400,
) -> BoundaryReport:
    """Check u = r^{-s2} - r^{-s1}, the boundary obstruction witness on the ball.

    Lu = 0 identically: the scaled radial residual
    r^2 u'' + (N-1+c) r u' - b u is evaluated on a log grid in [1e-6, 1]
    and reported relative to the size of its largest term (analytically
    zero; float cancellation only).  norm_finite applies the exponent
    test alpha - 2 + Re(s1) > -N/p, and `active` flags the regime
    alpha > base + Re sqrt(D) where the witness defeats the inequality.

    Requires D >= 0 (real roots) and 2 <= grid <= GRID_MAX.
    """
    if not 2 <= grid <= GRID_MAX:
        raise OutOfRange(f"grid must have 2..{GRID_MAX} points, got {grid}")
    check_p(p)
    D = discriminant(params)
    if D < 0:
        raise UnsupportedRegime("boundary witness needs real indicial roots (D >= 0)")
    s1, s2 = indicial_roots(params, 0)
    s1r, s2r = s1.real, s2.real
    r = np.exp(np.linspace(math.log(1e-6), 0.0, grid))

    def powers(s):
        u = r ** (-s)
        du = -s * r ** (-s - 1)
        d2u = s * (s + 1) * r ** (-s - 2)
        return u, du, d2u

    u2, du2, d2u2 = powers(s2r)
    u1, du1, d2u1 = powers(s1r)
    u = u2 - u1
    du = du2 - du1
    d2u = d2u2 - d2u1
    terms = (r**2 * d2u, (params.N - 1 + params.c) * r * du, -params.b * u)
    residual = np.abs(terms[0] + terms[1] + terms[2])
    scale = np.maximum(np.maximum(np.abs(terms[0]), np.abs(terms[1])),
                       np.maximum(np.abs(terms[2]), 1.0))
    rel = float(np.max(residual / scale))
    norm_finite = (alpha - 2.0 + s1r) > -params.N * inv_p(p)
    active = alpha > base_alpha(params, p) + sqrt_nonneg_re(D).real
    return BoundaryReport(rel, bool(norm_finite), bool(active))


def fit_loglog_slope(eps_values, ratios) -> float:
    """Least-squares slope of log(ratio) against log(eps); needs two distinct eps."""
    if len(set(map(float, eps_values))) < 2:
        raise PreconditionViolated(f"a slope needs two distinct eps values, got {list(eps_values)}")
    x = np.log(np.asarray(eps_values, dtype=float))
    y = np.log(np.asarray(ratios, dtype=float))
    return float(np.polyfit(x, y, 1)[0])
