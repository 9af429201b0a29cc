"""Validity decisions for weighted Rellich inequalities.

The inequality || |x|^alpha L u ||_p >= C || |x|^{alpha-2} u ||_p holds or
fails depending only on (N, c, b, p, alpha), on the domain kind, and on
the spherical-harmonic subspace J.  One function, decide, holds the closed-form
rule of every domain kind: failure at critical exponents alpha_j^+- (free
counterexamples at the origin) and, in the ball, for all alpha at or above
alpha_{j0}^+ (boundary obstruction); a bounded smooth domain follows the ball,
an exterior domain the ball for its Kelvin image.  Every threshold is read from
``critical_alphas``.

All comparisons against critical values use an explicit tolerance since
exact-real input is impossible.  Inverting lambda_j = j(N+j-2) finds the degrees
that can hit: O(1) per decision, or O(|J|) for finite J, O(failing modes) on a D < 0
plateau, and up to 10^4 degrees where rounding blurs neighbouring ones.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .errors import DZero, OutOfRange, PreconditionViolated
from .params import (
    DEFAULT_TOL,
    OperatorParams,
    base_alpha,
    check_finite,
    check_inner_p,
    check_p,
    check_tol,
    conjugate_exponent,
    critical_alphas,
    degree_at_most,
    discriminant,
    eigen_lambda,
    gamma_p,
    indicial_roots,
    kelvin_transform,
    mu_shift,
    sqrt_nonneg_re,
)
from .spectral import in_region, region_section4


class DomainKind(str, enum.Enum):
    WHOLE_SPACE = "whole_space"
    UNIT_BALL = "unit_ball"
    BOUNDED_SMOOTH = "bounded_smooth"
    EXTERIOR_SMOOTH = "exterior_smooth"
    EXTERIOR_BALL = "exterior_ball"


# kinds with hypotheses 1 < p < inf and D >= 0, kinds decided on the Kelvin image,
# and kinds decided by the ball's rule itself
_SMOOTH = (DomainKind.BOUNDED_SMOOTH, DomainKind.EXTERIOR_SMOOTH)
_EXTERIOR = (DomainKind.EXTERIOR_SMOOTH, DomainKind.EXTERIOR_BALL)
_BALL = (DomainKind.UNIT_BALL, DomainKind.BOUNDED_SMOOTH)


class Branch(str, enum.Enum):
    MINUS = "minus"
    PLUS = "plus"
    BOUNDARY = "boundary_obstruction"


@dataclass(frozen=True)
class HarmonicSet:
    """A set J of spherical-harmonic degrees.

    Variants: all of N0, a tail {n >= n0}, an explicit finite set, or the
    complement of a finite set.
    """

    kind: str  # "all" | "at_least" | "finite" | "excluding"
    data: tuple[int, ...] = ()

    @classmethod
    def all(cls) -> "HarmonicSet":
        return cls("all")

    @classmethod
    def at_least(cls, n0: int) -> "HarmonicSet":
        if n0 < 0:
            raise ValueError("n0 must be >= 0")
        return cls("at_least", (n0,))

    @classmethod
    def finite(cls, members) -> "HarmonicSet":
        ms = tuple(sorted(set(int(m) for m in members)))
        if not ms:
            raise ValueError("finite harmonic set must be nonempty")
        if ms[0] < 0:
            raise ValueError("harmonic degrees must be >= 0")
        return cls("finite", ms)

    @classmethod
    def excluding(cls, members) -> "HarmonicSet":
        ms = tuple(sorted(set(int(m) for m in members)))
        if any(m < 0 for m in ms):
            raise ValueError("harmonic degrees must be >= 0")
        return cls("excluding", ms)

    @classmethod
    def parse(cls, text: str) -> "HarmonicSet":
        """Parse 'all' | 'ge:N' | 'set:a,b,...' | 'ne:a,b,...'."""
        t = text.strip().lower()
        if t == "all":
            return cls.all()
        if t.startswith("ge:"):
            return cls.at_least(int(t[3:]))
        if t.startswith("set:"):
            return cls.finite(int(x) for x in t[4:].split(","))
        if t.startswith("ne:"):
            return cls.excluding(int(x) for x in t[3:].split(","))
        raise ValueError(f"cannot parse harmonic set {text!r}")

    def contains(self, j: int) -> bool:
        if j < 0:
            return False
        if self.kind == "all":
            return True
        if self.kind == "at_least":
            return j >= self.data[0]
        if self.kind == "finite":
            return j in self.data
        return j not in self.data

    @property
    def min_index(self) -> int:
        if self.kind in ("at_least", "finite"):
            return self.data[0]
        j = 0  # J = all has no excluded degree
        while j in self.data:
            j += 1
        return j

    def members_with_lambda_between(self, N: int, lo: float, hi: float, pad: float) -> "list[int]":
        """Members j with lambda_j in [lo - pad, hi + pad], widened by one degree below;
        pad is the caller's rounding slack.  OutOfRange where pad spans over 10^4 degrees
        (floats cannot tell them apart) or the window over 10^7 (too many to list)."""
        first, last = degree_at_most(N, lo - pad), degree_at_most(N, hi + pad)
        blur = max(degree_at_most(N, lo + pad) - first, last - degree_at_most(N, hi - pad))
        if blur > 10**4 or last - first > 10**7:
            raise OutOfRange(f"cannot resolve or list degrees up to j = {float(last):.6g}")
        if self.kind == "finite":
            return [j for j in self.data if first <= j <= last]
        return [j for j in range(max(first, self.min_index), last + 1) if self.contains(j)]

    def __str__(self) -> str:
        prefix = {"all": "all", "at_least": "ge:", "finite": "set:", "excluding": "ne:"}
        return prefix[self.kind] + ",".join(map(str, self.data))


@dataclass(frozen=True)
class Verdict:
    """Outcome of a validity decision: the inequality holds iff no mode fails."""

    failing_modes: list[tuple[int, Branch]] = field(default_factory=list)
    best_constant: float | None = None
    notes: str = ""

    @property
    def holds(self) -> bool:
        return not self.failing_modes


def best_constant(params: OperatorParams, p: float, alpha: float) -> float | None:
    """b + gamma_p(alpha, c) when alpha_0^- < alpha < alpha_0^+, else None.

    Inside that symmetric range, empty where D <= 0, the constant is optimal;
    outside it the best constant is not known in general.
    """
    alpha_minus, alpha_plus = critical_alphas(params, p, 0)  # checks p
    if not alpha_minus < alpha < alpha_plus:
        return None
    return params.b + gamma_p(params.N, p, alpha, params.c)


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


def _hits(params: OperatorParams, p: float, alpha: float, J: HarmonicSet,
          tol: float) -> list[tuple[int, Branch]]:
    """The modes j in J whose alpha_j^- or alpha_j^+ lies within tol of alpha."""
    base = base_alpha(params, p)
    # a hit needs Re sqrt(D + lambda_j) within tol of gap; pad covers rounding
    gap, D, size = abs(alpha - base), discriminant(params), abs(alpha) + abs(base) + 1.0
    pad = 4e-15 * (size * (gap + tol + 1.0) + abs(D))
    lo = (gap - tol) * (gap - tol) - D if gap > tol else -math.inf
    hi = (gap + tol) * (gap + tol) - D
    if not math.isfinite(hi + pad):
        raise OutOfRange(f"|alpha - base| = {gap:.6g} puts the degree window beyond float range")
    modes: list[tuple[int, Branch]] = []
    for j in J.members_with_lambda_between(params.N, lo, hi, pad):
        alpha_minus, alpha_plus = critical_alphas(params, p, j)
        minus_hit = abs(alpha - alpha_minus) <= tol
        plus_hit = abs(alpha - alpha_plus) <= tol
        if minus_hit:
            modes.append((j, Branch.MINUS))
        # when D + lambda_j <= 0 the branches collapse; report the hit once
        if plus_hit and not (minus_hit and alpha_plus - alpha_minus <= 2.0 * tol):
            modes.append((j, Branch.PLUS))
    return modes


def _ball(params: OperatorParams, p: float, alpha: float, J: HarmonicSet,
          tol: float) -> list[tuple[int, Branch]]:
    """The boundary obstruction on j0 = min J, then the minus hits of J."""
    j0 = J.min_index
    modes = [(j0, Branch.BOUNDARY)] if alpha >= critical_alphas(params, p, j0)[1] - tol else []
    if alpha - base_alpha(params, p) <= tol:  # alpha_j^- <= base: the whole space's minus hits
        modes += [m for m in _hits(params, p, alpha, J, tol) if m[1] == Branch.MINUS]
    return modes


def decide(
    params: OperatorParams,
    p: float,
    alpha: float,
    domain: DomainKind,
    J: HarmonicSet = HarmonicSet.all(),
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Decide the inequality on a domain of the given kind, for the subspace J.

    Whole space: holds iff alpha avoids every alpha_j^+-, j in J.  Unit ball:
    holds iff alpha < alpha_{j0}^+, j0 = min J (else a boundary obstruction on
    j0), and alpha avoids every alpha_j^-, j in J.  A bounded smooth domain
    containing 0 follows the ball, an exterior domain the ball for its Kelvin
    image; both take J = all alone, the smooth ones 1 < p < inf and D >= 0.
    Where it holds for J = all, best_constant is certified, except on a smooth
    exterior domain.  ValueError for a domain that is not a DomainKind or the
    value of one.
    """
    smooth, exterior = domain in _SMOOTH, domain in _EXTERIOR
    if J.kind != "all" and (smooth or exterior):
        where = "exterior" if exterior else "general bounded"
        raise PreconditionViolated(f"{where} domains are only decided for J = all")
    if smooth:
        where = "exterior smooth" if exterior else "bounded"
        check_inner_p(p, f"{where} domains")
        if discriminant(params) < 0:
            raise PreconditionViolated(f"{where} domains require D >= 0, "
                                       f"got D={discriminant(params)}")
    check_p(p)
    check_finite("alpha", alpha)
    check_tol(tol)
    if exterior:
        # the ball's alpha_j^- exclusions for the Kelvin image are the exterior
        # problem's alpha_j^+ ones, its boundary obstruction alpha <= alpha_0^-
        params, alpha = kelvin_transform(params, p, alpha)
        modes = [(j, Branch.PLUS if b == Branch.MINUS else b)
                 for j, b in _ball(params, p, alpha, J, tol)]
    elif domain == DomainKind.WHOLE_SPACE:
        modes = _hits(params, p, alpha, J, tol)
    elif domain in _BALL:
        modes = _ball(params, p, alpha, J, tol)
    else:
        raise ValueError(f"domain must be a DomainKind, got {domain!r}")
    # optimality is not claimed for general exterior domains
    certified = not modes and J.kind == "all" and not (smooth and exterior)
    return Verdict(modes, best_constant(params, p, alpha) if certified else None,
                   "decided via Kelvin transform" if exterior else "")


def lemma_parameters_flags(
    params: OperatorParams, p: float, alpha: float, j: int
) -> tuple[bool, bool, bool, bool]:
    """The four equivalent conditions of the parameter lemma.

    (i)   mu lies outside Q_p - lambda_j, Q_p built with drift c + 4 - 2 alpha;
    (ii)  b + gamma_p(alpha, c) + lambda_j > 0;
    (iii) |base - alpha| < sqrt(D + lambda_j) and D + lambda_j > 0;
    (iv)  |base - alpha| < Re sqrt(D + lambda_j).

    All four agree away from equality boundaries.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    lam = eigen_lambda(params.N, j)
    region = region_section4(params, p, alpha)
    flag_i = not in_region(region, complex(mu_shift(params, alpha) + lam), tol=0.0)
    flag_ii = params.b + gamma_p(params.N, p, alpha, params.c) + lam > 0.0
    D_lam = discriminant(params) + lam
    gap = abs(base_alpha(params, p) - alpha)
    flag_iii = D_lam > 0.0 and gap < math.sqrt(D_lam)
    flag_iv = gap < sqrt_nonneg_re(D_lam).real
    return flag_i, flag_ii, flag_iii, flag_iv
