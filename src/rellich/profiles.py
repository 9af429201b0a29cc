"""Compactly supported C^2 test profiles, evaluated as jets.

A Profile1D carries one callable, ``jet(s) -> (v, v', v'')``, evaluated
in one pass, on a compact support interval; all quadrature-based
verification is built on these.  ``jet_rows`` builds the rows w (a2 v'' +
a1 v' + a0 v) of a jet that the reductions integrate as one stack from one
jet call, which can pick each entry's own row for ``lp_norm``'s sampler;
``Profile1D.integrand`` builds a profile's, w = s^power.  ``lp_norm`` locates
their sign changes and critical points from their values, whatever the profile.

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

from .errors import PreconditionViolated


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

        A row may leave out its trailing zeros: (1.0, beta) is v'' + beta v'.  The
        ``jet_rows`` stack of the rows, with the weight s^power where power is not 0.
        """
        rows = [(*row, *(0.0,) * (4 - len(row))) for row in rows]
        return jet_rows(self.jet, [(a2, a1, a0, (lambda s, q=power: s**q) if power else None)
                                   for a2, a1, a0, power in rows])


def jet_rows(jet, rows):
    """The rows w (a2 v'' + a1 v' + a0 v) of the jet (v, v', v''), one per row (a2, a1, a0, w)
    with w a callable weight or None: one stack from one jet call, of the shape of s for
    one row, else (k, *s.shape).  Its ``pick(x, which)``, row which[i] at x[i] alone in the
    shape of x, takes a0 v, adds a1 v' and a2 v'' and multiplies by w as the stack does, so
    its values are the stack's bit for bit.  A weight that overflows is ``lp_norm``'s
    NonFiniteIntegrand of its row.  PreconditionViolated for no rows.
    """
    if not rows:
        raise PreconditionViolated("a stack of rows needs at least one row (a2, a1, a0, w)")
    *coefficients, ws = zip(*rows)
    c2, c1, c0 = np.array(coefficients, dtype=float)
    weights = [(i, w) for i, w in enumerate(ws) if w is not None]

    def at(x, which, col):
        v0, v1, v2 = jet(x)
        out = c0[which].reshape(col) * v0
        out += c1[which].reshape(col) * v1
        out += c2[which].reshape(col) * v2
        return out

    def stack(s):
        s = np.asarray(s, dtype=float)
        out = at(s, slice(None), (-1,) + (1,) * s.ndim)
        for i, w in weights:
            with np.errstate(over="ignore", invalid="ignore"):
                out[i] *= w(s)
        return out[0] if len(rows) == 1 else out

    def pick(x, which):
        out = at(x, which, (-1,) + (1,) * (x.ndim - 1))
        for i, w in weights:
            mine = which == i
            with np.errstate(over="ignore", invalid="ignore"):
                out[mine] *= w(x[mine])
        return out

    stack.pick = pick
    return stack


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
