"""Closed-form arithmetic for the operator L = Delta + c x/|x|^2 . grad - b/|x|^2.

Every quantity here is an exact elementary formula: the discriminant
D = b + ((N-2+c)/2)^2, sphere eigenvalues lambda_n = n(N+n-2), indicial
roots, critical weight exponents alpha_n^+-, the quadratic gamma_p, the
semigroup bound omega_p, the similarity shift mu, and the Kelvin
transform.  The Lebesgue exponent p lives in [1, inf]; p = inf is a
first-class value (use math.inf) and all formulas implement their
analytic limits N/p -> 0, p' -> 1, omega_inf = 0.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import dataclass

from .errors import OutOfRange, PreconditionViolated

#: Default tolerance for equality detection in decision logic.
DEFAULT_TOL = 1e-9

#: epsilon ladder used for counterexample families
EPS_LADDER = (0.2, 0.1, 0.05, 0.025)

INF = math.inf


@dataclass(frozen=True)
class OperatorParams:
    """The triple (N, c, b) defining L.

    N is the space dimension (an integer N >= 2 within float range), c the
    drift coefficient and b the inverse-square potential coefficient; c, b
    and D are finite.
    """

    N: int
    c: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if not isinstance(self.N, numbers.Integral) or not 2 <= self.N <= sys.float_info.max:
            raise ValueError(f"dimension must be an integer N >= 2 within float range, "
                             f"got {self.N!r}")
        half = (self.N - 2 + self.c) / 2.0
        if not all(map(math.isfinite, (self.c, self.b, self.b + half * half))):
            raise ValueError(f"c, b and D must be finite, got c={self.c}, b={self.b}")


def check_p(p: float) -> float:
    """Validate an extended Lebesgue exponent; returns it unchanged."""
    if math.isnan(p) or p < 1:
        raise ValueError(f"p must lie in [1, inf], got {p}")
    return p


def check_inner_p(p: float, what: str) -> float:
    """Validate an exponent of a result, named what, that needs 1 < p < inf."""
    if check_p(p) == 1.0 or math.isinf(p):
        raise PreconditionViolated(f"{what}: 1 < p < inf is required, got p={p}")
    return p


def inv_p(p: float) -> float:
    """1/p with the convention 1/inf = 0."""
    check_p(p)
    return 0.0 if math.isinf(p) else 1.0 / p


def conjugate_exponent(p: float) -> float:
    """Hoelder conjugate p' with 1' = inf and inf' = 1."""
    check_p(p)
    if math.isinf(p):
        return 1.0
    if p == 1.0:
        return INF
    return p / (p - 1.0)


def check_finite(name: str, x: complex) -> complex:
    """Reject a NaN or infinite parameter named name; returns it unchanged."""
    if not cmath.isfinite(x):
        raise PreconditionViolated(f"{name} must be finite, got {x}")
    return x


def check_tol(tol: float) -> float:
    """Validate a decision tolerance, which must lie in [0, 1); returns it unchanged.

    A tolerance of 1 or more lets the relative on-parabola test admit every
    point far enough out, so no finite set of degrees decides it.
    """
    if not 0.0 <= tol < 1.0:
        raise PreconditionViolated(f"tolerance must lie in [0, 1), got {tol}")
    return tol


def parse_p(text: str) -> float:
    """Parse a CLI exponent: decimal number or 'inf'."""
    t = text.strip().lower()
    if t in ("inf", "infty", "infinity", "oo"):
        return INF
    return check_p(float(t))


def sqrt_nonneg_re(z: complex) -> complex:
    """Square root with nonnegative real part.

    For real z >= 0 this is the usual root; for real z < 0 the result is
    +i sqrt(|z|) (the imaginary sign is fixed for determinism, it is
    unobservable through Re-sqrt formulas).
    """
    w = cmath.sqrt(complex(z))
    if w.real < 0.0:
        w = -w
    # normalize -0.0 components so repr/eq are stable
    return complex(w.real + 0.0, w.imag + 0.0)


def discriminant(params: OperatorParams) -> float:
    """D = b + ((N-2+c)/2)^2."""
    return params.b + ((params.N - 2 + params.c) / 2.0) ** 2


def eigen_lambda(N: int, n: int) -> float:
    """Laplace-Beltrami eigenvalue magnitude lambda_n = n(N+n-2) on S^{N-1}."""
    if N < 2:
        raise ValueError(f"N >= 2 required, got {N}")
    if n < 0:
        raise ValueError(f"harmonic degree must be >= 0, got {n}")
    try:
        return float(n * (N + n - 2))
    except OverflowError:
        raise OutOfRange(f"lambda_n is beyond float range at n={n}") from None


def degree_at_most(N: int, x: float) -> int:
    """Largest j with lambda_j <= x, or -1: exact, as (2j+N-2)^2 <= 4 floor(x) + (N-2)^2."""
    if not x <= 1e300:  # leaves lambda_{j+1} a float
        raise OutOfRange(f"harmonic eigenvalue bound {x} is beyond float range")
    return -1 if x < 0.0 else (math.isqrt(4 * math.floor(x) + (int(N) - 2) ** 2) - int(N) + 2) // 2


def _real_roots(params: OperatorParams, n: int) -> tuple[float, float, float]:
    """(D + lambda_n, Re s1, Re s2) in floats, Re s1 <= h = (N-2+c)/2 <= Re s2: the root of
    larger size, h -/+ sqrt(D + lambda_n) with the sign of h, does not cancel, the other is
    -(b + lambda_n) over it; both are h where D + lambda_n <= 0, infinite where it overflows."""
    lam, h = eigen_lambda(params.N, n), (params.N - 2 + params.c) / 2.0
    z = params.b + h**2 + lam  # discriminant(params) + lam, to the bit
    if z <= 0.0:
        return z, h, h
    if z == INF:
        return z, -z, z
    if h < 0.0:
        s1 = h - math.sqrt(z)
        s2 = -(params.b + lam) / s1
        return z, s1, s2 if s2 > h else h
    s2 = h + math.sqrt(z)
    s1 = -(params.b + lam) / s2
    return z, s1 if s1 < h else h, s2


def indicial_roots(params: OperatorParams, n: int) -> tuple[complex, complex]:
    """Roots (s1, s2) of -s^2 + (N-2+c)s + b + lambda_n = 0, free of cancellation.

    s_{1,2} = (N-2+c)/2 -/+ sqrt(D + lambda_n), with the nonnegative-real-part square
    root; r^{-s1} P_n and r^{-s2} P_n are annihilated by L."""
    z, re1, re2 = _real_roots(params, n)
    w = math.sqrt(-z) if z < 0.0 else 0.0
    return complex(re1, 0.0 - w), complex(re2, w)  # 0.0 - w: no -0.0 for real roots


def base_alpha(params: OperatorParams, p: float) -> float:
    """The offset N(1/2 - 1/p) + 1 + c/2, summed as 2 - N/p + (N-2+c)/2: both of
    ``critical_alphas`` to the bit where D + lambda_n <= 0."""
    return 2.0 - params.N / check_p(p) + (params.N - 2 + params.c) / 2.0


def critical_alphas(params: OperatorParams, p: float, n: int) -> tuple[float, float]:
    """(alpha_n^-, alpha_n^+) = 2 - N/p + Re s_{1,2} of ``indicial_roots``, in floats: base
    -/+ Re sqrt(D + lambda_n), and ``base_alpha`` bit for bit where D + lambda_n <= 0."""
    _, re1, re2 = _real_roots(params, n)
    shift = 2.0 - params.N / check_p(p)  # N / inf = 0
    return shift + re1, shift + re2


def gamma_p(N: int, p: float, alpha: float, c: float) -> float:
    """gamma_p(alpha, c) = (N/p - 2 + alpha)(N/p' - alpha + c).

    Identically equal to ((N-2+c)/2)^2 - (base - alpha)^2.
    """
    return (N * inv_p(p) - 2.0 + alpha) * (N * inv_p(conjugate_exponent(p)) - alpha + c)


def omega_p(N: int, p: float, c: float) -> float:
    """omega_p = (N/p^2)[p(N-2+c) - N]; omega_inf = 0, omega_1 = (c-2)N.

    Where p^2 or p(N-2+c) overflows, it is the same value factored as
    (N/p)(N-2+c - N/p), which stays finite for every finite p.
    """
    check_p(p)
    if math.isinf(p):
        return 0.0
    w = (N / p**2) * (p * (N - 2 + c) - N) if p < 1e154 else math.inf  # p**2 raises beyond
    return w if math.isfinite(w) else (N / p) * (N - 2 + c - N / p)


def reduced_drift(params: OperatorParams, p: float, alpha: float) -> float:
    """beta = 2 alpha - 2 - N + 2N/p - c, the drift of the reduced operator.

    It is the negated section-4 coefficient -k4 = 2 (alpha - base).
    """
    return 2.0 * alpha - 2.0 - params.N + 2.0 * params.N * inv_p(p) - params.c


def mu_shift(params: OperatorParams, alpha: float) -> float:
    """mu = b - (2 - alpha)(N - alpha + c), the spectral shift of |x|^alpha L."""
    return params.b - (2.0 - alpha) * (params.N - alpha + params.c)


def kelvin_transform(
    params: OperatorParams, p: float, alpha: float
) -> tuple[OperatorParams, float]:
    """Parameters after inversion x -> x/|x|^2.

    Returns ((N, -c, b + (N-2)c), -alpha + N + 2 - 2N/p).  The
    discriminant is preserved and the map is an involution.  OutOfRange,
    naming the N, c and b given, where the image leaves float range.
    """
    try:
        tilde = OperatorParams(params.N, -params.c, params.b + (params.N - 2) * params.c)
    except ValueError:
        raise OutOfRange(f"the Kelvin image of N={params.N}, c={params.c}, b={params.b} "
                         f"leaves float range") from None
    return tilde, -alpha + params.N + 2.0 - 2.0 * params.N * inv_p(p)
