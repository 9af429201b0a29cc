"""Evaluators for the Green-function and heat-kernel upper bounds.

These are the pointwise comparison bounds G(x,y) <= C G_0(x,y) used to
pass from the ball to a general bounded domain.  Only radial data
enters: r1 = |x|, r2 = |y|, d = |x-y|.  Unspecified multiplicative
constants (C, C_eps, the D = 0 decay rate) are normalized to 1; only
the functional shape is prescribed.  Each bound takes its formula from
D: the D = 0 one where |D| <= tol, the D > 0 one where D > tol; below
-tol it raises DZero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DZero
from .params import (
    DEFAULT_TOL,
    OperatorParams,
    check_tol,
    conjugate_exponent,
    discriminant,
    indicial_roots,
)


@dataclass(frozen=True)
class GreenBoundInput:
    """Radial data of a point pair: |x|, |y| and |x - y|."""

    r1: float
    r2: float
    d: float

    def __post_init__(self):
        if self.r1 <= 0 or self.r2 <= 0 or self.d < 0:
            raise ValueError("need r1, r2 > 0 and d >= 0")
        if not (abs(self.r1 - self.r2) - 1e-12 <= self.d <= self.r1 + self.r2 + 1e-12):
            raise ValueError(
                f"(r1={self.r1}, r2={self.r2}, d={self.d}) violates the triangle "
                "inequality for point pairs"
            )


def _root_D(params: OperatorParams, tol: float) -> float | None:
    """sqrt(D) where D > tol, None where |D| <= tol (the D = 0 bounds)."""
    D = discriminant(params)
    if D < -check_tol(tol):
        raise DZero(f"the Green and heat-kernel bounds need D >= 0, got D={D}")
    return math.sqrt(D) if D > tol else None


def _prefactor(params: OperatorParams, inp: GreenBoundInput, sD: float | None) -> float:
    """r1^{-s} r2^{c-s}, with s = c/2 for D > 0 and s = s1 = (N-2+c)/2 for D = 0."""
    s = params.c / 2.0 if sD is not None else (params.N - 2.0 + params.c) / 2.0
    return inp.r1 ** (-s) * inp.r2 ** (params.c - s)


def g0(params: OperatorParams, inp: GreenBoundInput, tol: float = DEFAULT_TOL) -> float:
    """Green bound G_0, with the prefactor P = r1^{-s} r2^{c-s} of ``_prefactor``.

    D > 0, N > 2:  P d^{2-N} min(1, r1 r2 / d^2)^{sqrt(D)-(N-2)/2}
    D > 0, N = 2:  two branches split at d^2 = r1 r2 (power decay outside,
                   1 - log inside).
    D = 0, N > 2:  P e^{-d} min(1, d)^{2-N}
    D = 0, N = 2:  P e^{-d} for d >= 1, P (1 - log d) for d <= 1 (branch-wise
                   bound, no continuity at the seam is asserted).
    """
    sD = _root_D(params, tol)
    N, d = params.N, inp.d
    if d == 0:
        raise ValueError("d = 0 is singular")
    pre = _prefactor(params, inp, sD)
    if sD is None:
        if N > 2:
            return pre * math.exp(-d) * min(1.0, d) ** (2.0 - N)
        return pre * (math.exp(-d) if d >= 1.0 else 1.0 - math.log(d))
    if N > 2:
        return pre * d ** (2.0 - N) * min(1.0, inp.r1 * inp.r2 / d**2) ** (sD - (N - 2.0) / 2.0)
    q = d**2 / (inp.r1 * inp.r2)
    if q >= 1.0:
        return pre * (inp.r1 * inp.r2) ** sD / d ** (2.0 * sD)
    return pre * (1.0 - math.log(q))


def heat_kernel_bound(
    params: OperatorParams,
    eps: float,
    t: float,
    inp: GreenBoundInput,
    lambda1: float = 1.0,
    tol: float = DEFAULT_TOL,
) -> float:
    """Heat-kernel upper bound p(t, x, y) <= C_eps * (this value), C_eps = 1.

    With the prefactor P of ``_prefactor`` and ^ = min:
    D > 0:  t^{-N/2} P [ (r1/sqrt(t) ^ 1)(r2/sqrt(t) ^ 1) ]^{-N/2+1+sqrt(D)}
            exp(-d^2 / ((4+eps) t))
    D = 0:  t^{-N/2} e^{-lambda1 t / 3} P exp(-d^2 / ((4+eps) t))
    """
    if eps <= 0 or t <= 0:
        raise ValueError("need eps > 0 and t > 0")
    sD = _root_D(params, tol)
    pre = _prefactor(params, inp, sD)
    gauss = math.exp(-inp.d**2 / ((4.0 + eps) * t))
    if sD is None:
        if lambda1 <= 0:
            raise ValueError("lambda1 must be positive")
        return t ** (-params.N / 2.0) * math.exp(-lambda1 * t / 3.0) * pre * gauss
    boundary = (min(inp.r1 / math.sqrt(t), 1.0) * min(inp.r2 / math.sqrt(t), 1.0)) ** (
        -params.N / 2.0 + 1.0 + sD
    )
    return t ** (-params.N / 2.0) * pre * boundary * gauss


def tail_exponent_integrable(params: OperatorParams, p: float, alpha: float) -> bool:
    """Integrability of |y|^{e p'} near the origin, e = Re s2 - (N-2) - alpha, s2 the
    larger of the ``indicial_roots`` of degree 0: the exponent comparison that closes the
    bounded-domain proof, finite iff alpha < alpha_0^+ = base + sqrt(D).  Requires D >= 0."""
    D = discriminant(params)
    if D < 0:
        raise DZero(f"tail exponent test needs D >= 0, got D={D}")
    e = indicial_roots(params, 0)[1].real - (params.N - 2.0) - alpha
    pprime = conjugate_exponent(p)
    # p = 1 pairs with the sup norm: |y|^e bounded near 0 iff e >= 0
    return e >= 0 if math.isinf(pprime) else e * pprime > -params.N
