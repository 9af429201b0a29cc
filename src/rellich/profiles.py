"""Compactly supported C^2 test profiles, evaluated as jets.

A Profile1D carries one callable, ``jet(s) -> (v, v', v'')``, evaluated
in one pass, on a compact support interval; all quadrature-based
verification is built on these.  ``Profile1D.integrand`` builds the
linear combinations s^power (a2 v'' + a1 v' + a0 v) that the reductions
integrate, one row each, as one plain callable that stacks the rows from
one jet call: ``lp_norm`` locates their sign changes and critical points
from their values, whatever the profile.

Every profile here is built on the bump psi(t) = (1 - t^2)^3, with t the
affine variable that maps the support onto [-1, 1]; psi vanishes to
second order at the ends.  ``bump`` evaluates its jet in closed form,
from the factored q = (1 - t)(1 + t), so values and derivatives keep
their digits up to the ends of the support.  ``plateau_profile`` is a
bump on [-T, T]; ``radial_power_bump`` composes a jet with a change of
variable.  The critical family phi(e^{-eps s}) has no profile here:
``radial.critical_rows`` reads it on the fixed support of phi, in x = e^{-eps s}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Profile1D:
    jet: object  # ndarray -> (v, v', v''), ndarrays of its shape
    support: tuple[float, float]
    label: str = ""

    def __post_init__(self):
        a, b = self.support
        if not (b > a):
            raise ValueError(f"empty support {self.support}")

    def __call__(self, s):
        return self.jet(s)[0]

    def integrand(self, *rows):
        """f(s) = s^power (a2 v''(s) + a1 v'(s) + a0 v(s)) for each row (a2, a1, a0, power).

        A row may leave out its trailing zeros: (1.0, beta) is v'' + beta v'.
        One row gives an array of the shape of s; k rows give the stack of
        shape (k, *s.shape) that ``lp_norm`` takes, from one jet call.
        """
        plans = []
        for row in rows:
            a2, a1, a0, power = (*row, *(0.0,) * (4 - len(row)))
            plans.append(([(a, k) for k, a in enumerate((a0, a1, a2)) if a != 0.0], power))

        def f(s):
            s = np.asarray(s, dtype=float)
            jet = self.jet(s)
            out = np.empty((len(plans), *s.shape))
            for row, (terms, power) in zip(out, plans):
                row[...] = sum(a * jet[k] for a, k in terms) if terms else 0.0
                if power:
                    row *= s**power
            return out[0] if len(plans) == 1 else out

        return f


def bump(a: float, b: float, label: str = "") -> Profile1D:
    """The bump psi(t) = (1 - t^2)^3, t = (s - mid) / half, on [a, b], a < b;
    peak value 1 at the center, zero outside.

    With q = max((1 - t)(1 + t), 0) the jet is (q^3, -6 t q^2 / half,
    -6 q (1 - 5 t^2) / half^2), exactly zero off the support.  The
    factored q keeps its digits near the ends, where 1 - t^2 and the
    expanded series 1 - 3t^2 + 3t^4 - t^6 cancel.
    """
    mid, half = 0.5 * (a + b), 0.5 * (b - a)

    def jet(s):
        t = (np.asarray(s, dtype=float) - mid) / half
        q = np.maximum((1.0 - t) * (1.0 + t), 0.0)
        q2 = q * q
        return q2 * q, -6.0 / half * t * q2, -6.0 / (half * half) * q * (1.0 - 5.0 * t * t)

    return Profile1D(jet, (a, b), label or f"bump[{a:g},{b:g}]")


def plateau_profile(T: float) -> Profile1D:
    """v_T(s) = psi(s/T) on [-T, T]; derivatives scale as 1/T and 1/T^2.

    The near-extremizer family: as T grows the derivative terms vanish
    and separable Rellich ratios approach the zero-order coefficient.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    return bump(-T, T, label=f"plateau[T={T:g}]")


def radial_power_bump(q: float, T: float) -> Profile1D:
    """Radial profile u(r) = r^{-q} psi(s/T), s = -log r.

    Used as a near-extremizer for the Hardy constant ((N-2+beta)/p)^2
    with q = (N-2+beta)/p.  Derivatives are with respect to r.
    """
    h = bump(-T, T)

    def jet(r):
        r = np.asarray(r, dtype=float)
        h0, h1, h2 = h.jet(-np.log(r))
        return (r ** (-q) * h0,
                r ** (-q - 1) * (-q * h0 - h1),
                r ** (-q - 2) * (q * (q + 1) * h0 + (2 * q + 1) * h1 + h2))

    return Profile1D(jet, (math.exp(-T), math.exp(T)), f"r^-{q:g}*bump(T={T:g})")


def check_derivatives(v: Profile1D, points: int = 100, rel_tol: float = 1e-6) -> float:
    """Spot-check v', v'' against central finite differences at interior points.

    A test oracle for the profiles that are not polynomial.  Returns the
    worst relative error; raises AssertionError beyond rel_tol.
    """
    a, b = v.support
    # per-point steps proportional to |s| handle multiscale profiles
    # (radial ones compress features near r -> 0); the factor ladder
    # brackets the truncation/roundoff sweet spot
    pad = (b - a) * 1e-3
    s = np.linspace(a + pad, b - pad, points)
    v0, v1, v2 = v.jet(s)
    scale1 = float(np.max(np.abs(v1))) + 1e-30
    scale2 = float(np.max(np.abs(v2))) + 1e-30
    worst = math.inf
    for factor in (2e-4, 5e-5, 1.25e-5, 3e-6):
        h = factor * (np.abs(s) + (b - a) * 0.05)
        up, down = v(s + h), v(s - h)
        err1 = float(np.max(np.abs((up - down) / (2 * h) - v1))) / scale1
        err2 = float(np.max(np.abs((up - 2 * v0 + down) / h**2 - v2))) / scale2
        worst = min(worst, max(err1, err2))
    if worst > rel_tol:
        raise AssertionError(
            f"analytic derivatives disagree with finite differences: {worst:.3e}"
        )
    return worst


def bump_corpus(seed: int, count: int,
                center_range: tuple[float, float] = (1.5, 10.0),
                left_min: float = 0.0) -> list[Profile1D]:
    """Deterministic corpus of bumps with support in (left_min, inf), half-widths 0.4 to 3."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        c = float(rng.uniform(*center_range))
        w = float(rng.uniform(0.4, 3.0))
        w = min(w, 0.9 * (c - left_min))  # keep support right of left_min
        out.append(bump(c - w, c + w, label=f"corpus[{i}]"))
    return out
