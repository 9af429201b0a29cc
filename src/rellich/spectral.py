"""Spectral regions and classifiers for the reduced operators.

After the logarithmic change of variables the radial part of
A = |x|^2 Delta + c x . grad becomes the constant-coefficient operator
D^2 + k D - omega_p on a line or half line, whose spectrum is the
parabola P = {-xi^2 + i k xi - omega : xi in R} or the region Q it
encloses.  This module computes those regions, classifies points of the
spectrum (approximate / certified point / residual) for the half-line
model operator B = D^2 + beta D, for Gamma_p on (0,inf) or (0,1), and
for A_{p,J} on R^N or the unit ball, and evaluates the sharp resolvent
bound 1/(lambda + omega_p).

Point-spectrum flags are one-sided certificates: False means "not
certified", never "proven not an eigenvalue".
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import OutOfRange
from .params import (
    DEFAULT_TOL,
    OperatorParams,
    check_finite,
    check_p,
    check_tol,
    eigen_lambda,
    inv_p,
    omega_p,
    reduced_drift,
    sqrt_nonneg_re,
)


class GammaInterval(str, enum.Enum):
    HALF_LINE = "half_line"  # I = (0, inf)
    UNIT_INTERVAL = "unit_interval"  # I = (0, 1)


class ADomain(str, enum.Enum):
    WHOLE_SPACE = "whole_space"
    UNIT_BALL = "unit_ball"


@dataclass(frozen=True)
class ParabolicRegion:
    """The curve P = {-xi^2 + i xi k - omega} and its enclosed region Q.

    When k = 0 both degenerate to the half line (-inf, -omega] on the
    real axis.
    """

    k: float
    omega: float

    def parabola_point(self, xi: float) -> complex:
        return complex(-(xi**2) - self.omega, xi * self.k)

    @property
    def vertex(self) -> float:
        return -self.omega


def in_region(region: ParabolicRegion, lam: complex, tol: float = DEFAULT_TOL) -> bool:
    """Membership lambda in Q, with tolerance scaled by 1 + |lambda|."""
    lam = complex(lam)
    slack = tol * (1.0 + abs(lam))
    if region.k == 0.0:
        return abs(lam.imag) <= slack and lam.real <= -region.omega + slack
    s = lam.imag / region.k
    return lam.real <= -(s * s) - region.omega + slack


def on_parabola(region: ParabolicRegion, lam: complex, tol: float = DEFAULT_TOL) -> bool:
    """Membership lambda in P, testing the defining-equation residual."""
    lam = complex(lam)
    slack = tol * (1.0 + abs(lam))
    if region.k == 0.0:
        return abs(lam.imag) <= slack and lam.real <= -region.omega + slack
    s = lam.imag / region.k
    # s * s overflows to inf where s ** 2 raises OverflowError
    residual = lam.real + s * s + region.omega
    return abs(residual) <= slack


def region_section3(params: OperatorParams, p: float) -> ParabolicRegion:
    """Region for Gamma = r^2 D_rr + (N-1+c) r D_r: k = N(1-2/p)-2+c, omega = omega_p."""
    check_p(p)
    k = params.N * (1.0 - 2.0 * inv_p(p)) - 2.0 + params.c
    return ParabolicRegion(k, omega_p(params.N, p, params.c))


def region_section4(params: OperatorParams, p: float, alpha: float) -> ParabolicRegion:
    """Region after the weight substitution: drift c + 4 - 2 alpha.

    k4 = N(1-2/p) + 2 - 2 alpha + c = 2 (base - alpha) and
    omega4 = omega_p(N, p, c + 4 - 2 alpha).  k4 is the negated reduced
    drift beta, so the two agree bit for bit.
    """
    check_p(p)
    return ParabolicRegion(-reduced_drift(params, p, alpha),
                           omega_p(params.N, p, params.c + 4.0 - 2.0 * alpha))


def dist_to_parabola(beta: float, lam: float) -> float:
    """Distance from a real lambda to P(beta) = {-xi^2 + i beta xi}.

    dist^2 = lambda^2 for lambda >= -beta^2/2 and
    beta^2 (-lambda - beta^2/4) for lambda < -beta^2/2.
    """
    if lam >= -(beta**2) / 2.0:
        return abs(lam)
    return math.sqrt(beta**2 * (-lam - beta**2 / 4.0))


def ode_roots(beta: float, lam: complex) -> tuple[complex, complex]:
    """Characteristic roots mu_{1,2} = (-beta -/+ sqrt(beta^2 + 4 lambda))/2."""
    w = sqrt_nonneg_re(beta**2 + 4.0 * complex(lam))
    return (-beta - w) / 2.0, (-beta + w) / 2.0


@dataclass(frozen=True)
class SpectralClassification:
    in_spectrum: bool
    in_approx: bool
    in_point_certified: bool
    in_residual_not_approx: bool

    def __post_init__(self):
        if self.in_point_certified:
            assert self.in_approx
        if self.in_approx:
            assert self.in_spectrum
        if self.in_residual_not_approx:
            assert self.in_spectrum and not self.in_approx


_NOT_IN_SPECTRUM = SpectralClassification(False, False, False, False)


def _classify_in_Q(region: ParabolicRegion, lam: complex, k_sign: float,
                   tol: float) -> SpectralClassification:
    """Shared case split for operators whose spectrum is Q (or its boundary).

    k_sign < 0: sigma = Asigma = Q, points certified in the interior;
    k_sign = 0: sigma = Asigma = half line;
    k_sign > 0: sigma = Q but Asigma = P, interior is residual-not-approx.
    """
    if not in_region(region, lam, tol):
        return _NOT_IN_SPECTRUM
    boundary = on_parabola(region, lam, tol)
    if k_sign < 0.0:
        return SpectralClassification(True, True, not boundary, False)
    if k_sign == 0.0:
        return SpectralClassification(True, True, False, False)
    if boundary:
        return SpectralClassification(True, True, False, False)
    return SpectralClassification(True, False, False, True)


def classify_halfline_ode(beta: float, lam: complex,
                          tol: float = DEFAULT_TOL) -> SpectralClassification:
    """Classify lambda for B = D^2 + beta D on [0, inf) with Dirichlet condition at 0.

    beta > 0 gives certified eigenvalues in the interior of Q(beta);
    beta = 0 gives the half line as approximate spectrum; beta < 0 gives
    residual spectrum in the interior and approximate spectrum only on the
    boundary parabola.  On (-inf, 0], s -> -s turns B into the operator
    with -beta on [0, inf): classify it with -beta.
    """
    # _classify_in_Q certifies eigenvalues for k_sign < 0, the convention
    # of the negative half line (where Gamma_p on (0,1) lives); the
    # positive half line flips the drift sign
    return _classify_in_Q(ParabolicRegion(beta, 0.0), lam, -beta, tol)


def classify_gamma(
    params: OperatorParams,
    p: float,
    interval: GammaInterval,
    lam: complex,
    tol: float = DEFAULT_TOL,
) -> SpectralClassification:
    """Classify lambda for Gamma_p on (0, inf) or (0, 1).

    On the half line the spectrum is the parabola P_p itself and every
    point of it is approximate.  On (0, 1) the spectrum is Q_p with the
    case split driven by the sign of k = N(1-2/p) - 2 + c.
    """
    region = region_section3(params, p)
    if interval == GammaInterval.HALF_LINE:
        if on_parabola(region, lam, tol):
            return SpectralClassification(True, True, False, False)
        return _NOT_IN_SPECTRUM
    return _classify_in_Q(region, lam, region.k, tol)


def classify_A(
    params: OperatorParams,
    p: float,
    J,
    domain: ADomain,
    lam: complex,
    tol: float = DEFAULT_TOL,
) -> SpectralClassification:
    """Classify lambda for A_{p,J} = |x|^2 Delta + c x . grad on L^p_J, J a HarmonicSet.

    Whole space: spectrum is the union of shifted parabolas P_p - lambda_j
    over j in J, all approximate.  Unit ball: spectrum is Q_p shifted by
    the lowest eigenvalue lambda_{j0}, with the same sign-of-k case split
    as for Gamma_p; for k > 0 the approximate part is the union of the
    shifted parabolas and the rest of the interior is residual.

    Only N and c of ``params`` enter (A carries no potential term).
    """
    lam = check_finite("lambda", complex(lam))
    check_tol(tol)
    region = region_section3(params, p)

    def on_union() -> bool:
        # with m = Re lam + lambda_j and a = q + omega, |m + a| <= tol (1 + |mu|) needs
        # lo <= lambda_j <= hi, as |mu| <= |m| + |Im lam|.  At k = 0 a member below lo has
        # m < 0 and passes iff |m| is large enough, so the smallest member decides them
        s = lam.imag / region.k if region.k != 0.0 else 0.0
        a, t = s * s + region.omega, tol * (1.0 + abs(lam.imag))
        if math.isinf(a):  # the parabola reaches this height only at Re = -inf
            return False
        lo = min(-(a + t) / (1.0 - tol), -(a + t) / (1.0 + tol)) - lam.real
        hi = max((t - a) / (1.0 - tol), (t - a) / (1.0 + tol)) - lam.real
        pad = 4e-15 * (abs(lam.real) + (abs(a) + t) / (1.0 - tol))
        js = [J.min_index] + J.members_with_lambda_between(params.N, lo, hi, pad)
        return any(on_parabola(region, lam + eigen_lambda(params.N, j), tol) for j in js)

    if domain == ADomain.WHOLE_SPACE:
        if on_union():
            return SpectralClassification(True, True, False, False)
        return _NOT_IN_SPECTRUM

    cls = _classify_in_Q(region, lam + eigen_lambda(params.N, J.min_index), region.k, tol)
    # for k > 0 every shifted parabola is approximate spectrum, not only the
    # boundary P_p - lambda_{j0} of Q - lambda_{j0}
    if region.k > 0.0 and cls.in_spectrum and on_union():
        return SpectralClassification(True, True, False, False)
    return cls


def resolvent_bound(params: OperatorParams, p: float, lam: float) -> float:
    """Best constant C in ||u||_p <= C ||lambda u - A u||_p for real lambda.

    Valid for lambda + omega_p > 0, where C = 1/(lambda + omega_p).
    """
    w = omega_p(params.N, p, params.c)
    if lam + w <= 0:
        raise OutOfRange(f"lambda + omega_p = {lam + w} must be positive")
    return 1.0 / (lam + w)
