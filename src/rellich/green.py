"""Evaluators for the Green-function and heat-kernel upper bounds.

These are the pointwise comparison bounds G(x,y) <= C G_0(x,y) used to
pass from the ball to a general bounded domain.  Only radial data
enters: r1 = |x|, r2 = |y|, d = |x-y|.  Unspecified multiplicative
constants (C, C_eps, the D = 0 decay rate) are normalized to 1 and
exposed as parameters; only the functional shape is prescribed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DNonzero, DZero, VariantMismatch
from .params import DEFAULT_TOL, OperatorParams, base_alpha, conjugate_exponent, discriminant


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


class HeatKernelVariant(str, enum.Enum):
    POSITIVE_D = "positive_d"
    ZERO_D = "zero_d"


def g0_positive_D(params: OperatorParams, inp: GreenBoundInput) -> float:
    """Green bound for D > 0.

    N > 2:  G_0 = r1^{-c/2} r2^{c/2} d^{2-N} min(1, r1 r2 / d^2)^{sqrt(D)-(N-2)/2}
    N = 2:  two branches split at d^2 = r1 r2 (power decay outside,
            1 - log inside); the prefactor is the same.
    """
    D = discriminant(params)
    if D <= 0:
        raise DZero(f"g0_positive_D needs D > 0, got D={D}")
    sD = math.sqrt(D)
    pre = inp.r1 ** (-params.c / 2.0) * inp.r2 ** (params.c / 2.0)
    if params.N > 2:
        if inp.d == 0:
            raise ValueError("d = 0 is singular for N > 2")
        core = inp.d ** (2.0 - params.N)
        ratio = inp.r1 * inp.r2 / inp.d**2
        return pre * core * min(1.0, ratio) ** (sD - (params.N - 2.0) / 2.0)
    # N = 2
    if inp.d == 0:
        raise ValueError("d = 0 is singular")
    q = inp.d**2 / (inp.r1 * inp.r2)
    if q >= 1.0:
        return pre * (inp.r1 * inp.r2) ** sD / inp.d ** (2.0 * sD)
    return pre * (1.0 - math.log(q))


def g0_zero_D(
    params: OperatorParams,
    inp: GreenBoundInput,
    decay_k: float = 1.0,
    tol: float = DEFAULT_TOL,
) -> float:
    """Green bound for D = 0, with caller-supplied exponential rate.

    N > 2:  G_0 = r1^{-s1} r2^{c-s1} e^{-k d} min(1, d)^{2-N}
    N = 2:  e^{-k d} for d >= 1, 1 - log d for d <= 1 (branch-wise bound,
            no continuity at the seam is asserted).
    s1 = (N-2+c)/2.
    """
    D = discriminant(params)
    if abs(D) > tol:
        raise DNonzero(f"g0_zero_D needs D = 0, got D={D}")
    if decay_k <= 0:
        raise ValueError("decay rate must be positive")
    s1 = (params.N - 2.0 + params.c) / 2.0
    pre = inp.r1 ** (-s1) * inp.r2 ** (params.c - s1)
    if params.N > 2:
        if inp.d == 0:
            raise ValueError("d = 0 is singular for N > 2")
        return pre * math.exp(-decay_k * inp.d) * min(1.0, inp.d) ** (2.0 - params.N)
    if inp.d >= 1.0:
        return pre * math.exp(-decay_k * inp.d)
    if inp.d == 0:
        raise ValueError("d = 0 is singular")
    return pre * (1.0 - math.log(inp.d))


def heat_kernel_bound(
    params: OperatorParams,
    variant: HeatKernelVariant,
    eps: float,
    t: float,
    inp: GreenBoundInput,
    lambda1: float = 1.0,
    tol: float = DEFAULT_TOL,
) -> float:
    """Heat-kernel upper bound p(t, x, y) <= C_eps * (this value), C_eps = 1.

    POSITIVE_D: t^{-N/2} r1^{-c/2} r2^{c/2}
                [ (r1/sqrt(t) ^ 1)(r2/sqrt(t) ^ 1) ]^{-N/2+1+sqrt(D)}
                exp(-d^2 / ((4+eps) t))   (^ = min)
    ZERO_D:     t^{-N/2} e^{-lambda1 t / 3} r1^{-s1} r2^{c-s1}
                exp(-d^2 / ((4+eps) t))
    """
    if eps <= 0 or t <= 0:
        raise ValueError("need eps > 0 and t > 0")
    D = discriminant(params)
    gauss = math.exp(-inp.d**2 / ((4.0 + eps) * t))
    if variant == HeatKernelVariant.POSITIVE_D:
        if D <= 0:
            raise VariantMismatch(f"POSITIVE_D variant needs D > 0, got D={D}")
        pre = inp.r1 ** (-params.c / 2.0) * inp.r2 ** (params.c / 2.0)
        boundary = (min(inp.r1 / math.sqrt(t), 1.0) * min(inp.r2 / math.sqrt(t), 1.0)) ** (
            -params.N / 2.0 + 1.0 + math.sqrt(D)
        )
        return t ** (-params.N / 2.0) * pre * boundary * gauss
    if variant == HeatKernelVariant.ZERO_D:
        if abs(D) > tol:
            raise VariantMismatch(f"ZERO_D variant needs D = 0, got D={D}")
        if lambda1 <= 0:
            raise ValueError("lambda1 must be positive")
        s1 = (params.N - 2.0 + params.c) / 2.0
        pre = inp.r1 ** (-s1) * inp.r2 ** (params.c - s1)
        return t ** (-params.N / 2.0) * math.exp(-lambda1 * t / 3.0) * pre * gauss
    raise ValueError(f"unknown variant {variant!r}")


def tail_exponent_integrable(params: OperatorParams, p: float, alpha: float) -> bool:
    """Integrability of |y|^{(sqrt(D)-(N-2)/2+c/2-alpha) p'} near the origin.

    This is the exponent comparison that closes the bounded-domain proof:
    finiteness holds iff alpha < base + sqrt(D).  Requires D >= 0.
    """
    D = discriminant(params)
    if D < 0:
        raise DZero(f"tail exponent test needs D >= 0, got D={D}")
    e = math.sqrt(D) - (params.N - 2.0) / 2.0 + params.c / 2.0 - alpha
    pprime = conjugate_exponent(p)
    if math.isinf(pprime):
        # p = 1 pairs with the sup norm: |y|^e bounded near 0 iff e >= 0
        return e >= 0
    finite = e * pprime > -params.N
    assert finite == (alpha < base_alpha(params, p) + math.sqrt(D)), (
        "exponent comparison drifted from the closed-form characterization"
    )
    return finite
