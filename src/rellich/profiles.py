"""Compactly supported C^2 test profiles, evaluated as jets.

A Profile1D carries one callable, ``jet(s) -> (v, v', v'')``, evaluated
in one pass, on a compact support interval; all quadrature-based
verification is built on these.  ``Profile1D.integrand`` builds the
linear combinations s^power (a2 v'' + a1 v' + a0 v) that the reductions
integrate, as plain callables: ``lp_norm`` locates their sign changes
and critical points from their values, whatever the profile.

The workhorse is the polynomial bump psi(t) = (1 - t^2)^3 on [-1, 1],
which vanishes to second order at the endpoints.  The jet of a
polynomial profile comes from its power-series coefficients in the affine
variable t that maps the support onto [-1, 1]; a bump on another support
is ``bump`` on that support.  ``log_squeezed`` and ``radial_power_bump``
compose a jet with a change of variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: psi(t) = (1 - t^2)^3 by increasing powers of t
PSI = (1.0, 0.0, -3.0, 0.0, 3.0, 0.0, -1.0)


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

    def integrand(self, a2=0.0, a1=0.0, a0=0.0, power: float = 0.0):
        """f(s) = s^power (a2 v''(s) + a1 v'(s) + a0 v(s)), as a callable.

        Each coefficient is a number or a tuple of power-series
        coefficients in s.
        """
        terms = [(a, k) for k, a in enumerate((a0, a1, a2)) if a != 0.0]

        def f(s):
            s = np.asarray(s, dtype=float)
            jet = self.jet(s)
            out = sum(_at(a, s) * jet[k] for a, k in terms) if terms else np.zeros_like(s)
            return out * s**power if power else out

        return f


def _at(a, s):
    """The coefficient a (a number, or power-series coefficients in s) at s."""
    if not isinstance(a, tuple):
        return a
    out = 0.0
    for c in reversed(a):
        out = out * s + c
    return out


@lru_cache(maxsize=8)
def _t_derivatives(coefficients: tuple[float, ...]) -> np.ndarray:
    """Power series in t of v and its first two t-derivatives, as rows."""
    c = np.array(coefficients)
    k = np.arange(len(c))
    rows = np.zeros((3, len(c)))
    rows[0] = c
    rows[1, :-1] = k[1:] * c[1:]
    rows[2, :-2] = k[2:] * k[1:-1] * c[2:]
    rows.setflags(write=False)  # shared by every caller of the cache
    return rows


def polynomial_profile(coefficients, support: tuple[float, float],
                       label: str = "") -> Profile1D:
    """The profile with power-series coefficients ``coefficients`` in the
    affine variable t that maps ``support`` onto [-1, 1]; zero outside.

    The jet is one product of the powers of t with the coefficients of v,
    v' and v'' (derivatives in s = mid + half t) as three rows, made at its
    first call so that building a profile stays cheap.
    """
    a, b = support
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    coefficients = tuple(map(float, coefficients))
    rows = None

    def jet(s):
        nonlocal rows
        if rows is None:
            rows = _t_derivatives(coefficients) / np.array([[1.0], [half], [half * half]])
        t = (np.asarray(s, dtype=float) - mid) / half
        flat = t.ravel()
        powers = np.empty((rows.shape[1], flat.size))
        powers[0] = 1.0
        for k in range(1, len(powers)):
            np.multiply(powers[k - 1], flat, out=powers[k])
        out = rows @ powers
        out[:, np.abs(flat) >= 1.0] = 0.0
        return tuple(out.reshape((3, *t.shape)))

    return Profile1D(jet, (a, b), label)


def bump(a: float, b: float, label: str = "") -> Profile1D:
    """Polynomial bump (1 - t^2)^3 mapped onto [a, b], a < b; peak value 1 at the center."""
    return polynomial_profile(PSI, (a, b), label or f"bump[{a:g},{b:g}]")


def plateau_profile(T: float) -> Profile1D:
    """v_T(s) = psi(s/T) on [-T, T]; derivatives scale as 1/T and 1/T^2.

    The near-extremizer family: as T grows the derivative terms vanish
    and separable Rellich ratios approach the zero-order coefficient.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    return bump(-T, T, label=f"plateau[T={T:g}]")


def log_squeezed(phi: Profile1D, eps: float) -> Profile1D:
    """v(s) = phi(e^{-eps s}), the epsilon-indexed critical family.

    For phi supported in (a0, b0) with 0 < a0 < b0 < 1 the support is
    [-log(b0)/eps, -log(a0)/eps], marching to +infinity as eps -> 0.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    a0, b0 = phi.support
    if not (0.0 < a0 < b0 < 1.0):
        raise ValueError("phi must be supported inside (0, 1)")

    def jet(s):
        x = np.exp(-eps * np.asarray(s, dtype=float))
        v0, v1, v2 = phi.jet(x)
        return v0, -eps * x * v1, eps**2 * (x**2 * v2 + x * v1)

    return Profile1D(jet, (-math.log(b0) / eps, -math.log(a0) / eps),
                     f"{phi.label}(r^eps), eps={eps:g}")


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
