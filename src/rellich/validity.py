"""Validity decisions for weighted Rellich inequalities.

The inequality || |x|^alpha L u ||_p >= C || |x|^{alpha-2} u ||_p holds or
fails depending only on (N, c, b, p, alpha), on the domain kind, and on
the spherical-harmonic subspace J.  The decision rules are closed form:
failure happens exactly at the critical exponents alpha_j^+- (free
counterexamples at the origin) and, in domains with a boundary, for all
alpha at or above base + Re sqrt(D + lambda_{j0}) (boundary obstruction).

All comparisons against critical values use an explicit tolerance since
exact-real input is impossible.  Inverting lambda_j = j(N+j-2) finds the degrees
that can hit: O(1) per decision, or O(|J|) for finite J, O(failing modes) on a D < 0
plateau, and up to 10^4 degrees where rounding blurs neighbouring ones.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .errors import OutOfRange, PreconditionViolated
from .params import (
    DEFAULT_TOL,
    OperatorParams,
    base_alpha,
    check_finite,
    check_p,
    check_tol,
    degree_at_most,
    discriminant,
    eigen_lambda,
    gamma_p,
    kelvin_transform,
    sqrt_nonneg_re,
)


class DomainKind(str, enum.Enum):
    WHOLE_SPACE = "whole_space"
    UNIT_BALL = "unit_ball"
    BOUNDED_SMOOTH = "bounded_smooth"
    EXTERIOR_SMOOTH = "exterior_smooth"
    EXTERIOR_BALL = "exterior_ball"


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
        if self.kind == "all":
            return 0
        if self.kind == "at_least":
            return self.data[0]
        if self.kind == "finite":
            return self.data[0]
        j = 0
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
        if self.kind == "all":
            return "all"
        if self.kind == "at_least":
            return f"ge:{self.data[0]}"
        if self.kind == "finite":
            return "set:" + ",".join(map(str, self.data))
        return "ne:" + ",".join(map(str, self.data))


@dataclass
class Verdict:
    """Outcome of a validity decision."""

    holds: bool
    failing_modes: list[tuple[int, Branch]] = field(default_factory=list)
    best_constant: float | None = None
    notes: str = ""

    def __post_init__(self):
        assert self.holds == (not self.failing_modes)


def _re_root(params: OperatorParams, j: int) -> float:
    return sqrt_nonneg_re(discriminant(params) + eigen_lambda(params.N, j)).real


def best_constant(params: OperatorParams, p: float, alpha: float) -> float | None:
    """b + gamma_p(alpha, c) when D > 0 and |base - alpha| < sqrt(D), else None.

    Inside that symmetric range the constant is optimal; outside it the
    best constant is not known in general.
    """
    check_p(p)
    D = discriminant(params)
    if D <= 0:
        return None
    if abs(base_alpha(params, p) - alpha) >= math.sqrt(D):
        return None
    return params.b + gamma_p(params.N, p, alpha, params.c)


def decide_whole_space(
    params: OperatorParams,
    p: float,
    alpha: float,
    J: HarmonicSet = HarmonicSet.all(),
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Whole-space decision: holds iff alpha avoids every alpha_j^+-, j in J."""
    check_p(p)
    check_finite("alpha", alpha)
    check_tol(tol)
    base = base_alpha(params, p)
    # a hit needs r = Re sqrt(D + lambda_j) within tol of gap; pad covers rounding
    gap, D, size = abs(alpha - base), discriminant(params), abs(alpha) + abs(base) + 1.0
    pad = 4e-15 * (size * (gap + tol + 1.0) + abs(D))
    lo = (gap - tol) * (gap - tol) - D if gap > tol else -math.inf
    modes: list[tuple[int, Branch]] = []
    for j in J.members_with_lambda_between(params.N, lo, (gap + tol) * (gap + tol) - D, pad):
        r = _re_root(params, j)
        minus_hit = abs(alpha - (base - r)) <= tol
        plus_hit = abs(alpha - (base + r)) <= tol
        if minus_hit:
            modes.append((j, Branch.MINUS))
        # when D + lambda_j <= 0 the branches collapse; report the hit once
        if plus_hit and not (minus_hit and r <= tol):
            modes.append((j, Branch.PLUS))
    verdict = Verdict(holds=not modes, failing_modes=modes)
    if verdict.holds and J.kind == "all":
        verdict.best_constant = best_constant(params, p, alpha)
    return verdict


def decide_unit_ball(
    params: OperatorParams,
    p: float,
    alpha: float,
    J: HarmonicSet = HarmonicSet.all(),
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Unit-ball decision.

    Holds iff alpha < base + Re sqrt(D + lambda_{j0}) and alpha avoids
    every alpha_j^-, j in J.  Failure of the first condition is reported
    as a boundary obstruction on the lowest mode j0.
    """
    check_p(p)
    check_finite("alpha", alpha)
    check_tol(tol)
    base = base_alpha(params, p)
    j0 = J.min_index
    modes: list[tuple[int, Branch]] = []
    upper = base + _re_root(params, j0)
    if alpha >= upper - tol:
        modes.append((j0, Branch.BOUNDARY))
    if alpha - base <= tol:  # alpha_j^- <= base: the whole space's minus exclusions
        modes += [m for m in decide_whole_space(params, p, alpha, J, tol).failing_modes
                  if m[1] == Branch.MINUS]
    verdict = Verdict(holds=not modes, failing_modes=modes)
    if verdict.holds and J.kind == "all":
        verdict.best_constant = best_constant(params, p, alpha)
    return verdict


def decide_bounded_domain(
    params: OperatorParams, p: float, alpha: float, tol: float = DEFAULT_TOL
) -> Verdict:
    """Bounded smooth domain containing 0; requires 1 < p < inf and D >= 0.

    Under those hypotheses the rule coincides with the unit-ball rule for
    J = N0 (with real square roots).
    """
    check_p(p)
    if p == 1.0 or math.isinf(p):
        raise PreconditionViolated(f"bounded domains require 1 < p < inf, got p={p}")
    if discriminant(params) < 0:
        raise PreconditionViolated(
            f"bounded domains require D >= 0, got D={discriminant(params)}"
        )
    return decide_unit_ball(params, p, alpha, HarmonicSet.all(), tol)


def decide_exterior(
    params: OperatorParams,
    p: float,
    alpha: float,
    kind: DomainKind = DomainKind.EXTERIOR_BALL,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Exterior-domain decision via the Kelvin transform.

    Holds iff alpha > base - Re sqrt(D) and alpha avoids every
    base + Re sqrt(D + lambda_n).  For a smooth exterior domain the
    hypotheses 1 < p < inf and D >= 0 are required; for the complement of
    a ball any 1 <= p <= inf and any D are allowed.
    """
    check_p(p)
    if kind == DomainKind.EXTERIOR_SMOOTH:
        if p == 1.0 or math.isinf(p):
            raise PreconditionViolated(
                f"exterior smooth domains require 1 < p < inf, got p={p}"
            )
        if discriminant(params) < 0:
            raise PreconditionViolated(
                f"exterior smooth domains require D >= 0, got D={discriminant(params)}"
            )
    elif kind != DomainKind.EXTERIOR_BALL:
        raise ValueError(f"not an exterior kind: {kind}")
    tparams, talpha = kelvin_transform(params, p, alpha)
    verdict = decide_unit_ball(tparams, p, talpha, HarmonicSet.all(), tol)
    # translate back: the ball's alpha_j^- exclusions are the exterior
    # problem's alpha_j^+ exclusions, the ball's boundary obstruction is
    # the exterior obstruction alpha <= base - Re sqrt(D)
    verdict.failing_modes = [
        (j, Branch.PLUS if b == Branch.MINUS else b)
        for j, b in verdict.failing_modes
    ]
    if kind == DomainKind.EXTERIOR_SMOOTH:
        # optimality is not claimed for general exterior domains
        verdict.best_constant = None
    if verdict.notes:
        verdict.notes += "; "
    verdict.notes += "decided via Kelvin transform"
    return verdict


def decide(
    params: OperatorParams,
    p: float,
    alpha: float,
    domain: DomainKind,
    J: HarmonicSet = HarmonicSet.all(),
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Dispatch to the decision procedure matching the domain kind."""
    if domain == DomainKind.WHOLE_SPACE:
        return decide_whole_space(params, p, alpha, J, tol)
    if domain == DomainKind.UNIT_BALL:
        return decide_unit_ball(params, p, alpha, J, tol)
    if domain == DomainKind.BOUNDED_SMOOTH:
        if J.kind != "all":
            raise PreconditionViolated(
                "general bounded domains are only decided for J = all"
            )
        return decide_bounded_domain(params, p, alpha, tol)
    return decide_exterior(params, p, alpha, domain, tol)


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
    from .spectral import in_region, region_section4

    if j < 0:
        raise ValueError("j must be >= 0")
    lam = eigen_lambda(params.N, j)
    region = region_section4(params, p, alpha)
    mu = params.b - (2.0 - alpha) * (params.N - alpha + params.c)
    flag_i = not in_region(region, complex(mu + lam), tol=0.0)
    flag_ii = params.b + gamma_p(params.N, p, alpha, params.c) + lam > 0.0
    D_lam = discriminant(params) + lam
    gap = abs(base_alpha(params, p) - alpha)
    flag_iii = D_lam > 0.0 and gap < math.sqrt(D_lam)
    flag_iv = gap < sqrt_nonneg_re(D_lam).real
    return flag_i, flag_ii, flag_iii, flag_iv
