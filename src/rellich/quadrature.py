"""Adaptive Gauss-Legendre integrals and L^p norms on an interval.

``integrate(f, a, b)`` is the signed integral of f and ``lp_norm(f,
support, p)`` the norm ||f||_{L^p(support)}, 1 <= p <= inf, computed from
the signed f.  Both return (value, err).

Integrals use composite ``spec.nodes``-point Gauss-Legendre rules and
double the panel count until the change between two successive sums is
at most ``rel_tol`` times the integral of |integrand| from the same
nodes, so an integral that cancels to zero stops as early as one that
does not.

For finite p, |f|^p has kinks at the sign changes of f, where panel
doubling converges only algebraically.  ``lp_norm`` runs the 1- and
2-panel passes first and returns when they agree, which covers smooth
integrands.  Otherwise it brackets the sign changes of f between
consecutive nodes of the 2-panel pass, narrows all brackets together by
Illinois steps until each holds a negligible share of the |f|^p mass,
and integrates the pieces between the split points under one tolerance
for the whole norm: the panels of a piece double only while its change
exceeds its share of ``rel_tol * integral``.

For p = inf the norm is the largest local maximum of |f| on a grid of
``SUP_GRID`` intervals.  Every local maximum is polished at once:
each step samples a finer grid around all of them in one call of f, and a
maximum stops when its bracket is narrow enough or cannot hold the sup.

An optional ``shape`` builds, when first needed, a polynomial P with
f = w P, w > 0 (constant for p = inf), as ``Profile1D.integrand`` does
for polynomial profiles.  The points then come from P, the values still
from f: the split points are the real roots of P, and the sup is the
largest |f| at the ends and at the real roots of P' (as in chebfun,
Battles & Trefethen, SISC 2004).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonFiniteIntegrand


@dataclass(frozen=True)
class QuadratureSpec:
    nodes: int = 64  # Gauss-Legendre points per panel
    rel_tol: float = 1e-10  # stop when successive estimates agree to this


DEFAULT_QUAD = QuadratureSpec()

#: panel counts 1, 2, 4, ..., 2^MAX_REFINEMENTS
MAX_REFINEMENTS = 12

#: grid intervals searched for the p = inf norm when f has no shape
SUP_GRID = 2_000

#: share of the tolerance that the split points of lp_norm may cost
_SPLIT_SHARE = 0.1

#: points sampled on each side of a maximum per polish step of the sup
_ZOOM = 8

#: largest imaginary part, relative to the support, of a root taken as real
_NEAR_REAL = 1e-6

#: Illinois steps per bracket and polish steps per maximum; both loops
#: end long before on their own tests, this only bounds them
_MAX_STEPS = 100


@lru_cache(maxsize=8)
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _sampler(f):
    """pts -> f(pts) as an array of finite floats.

    The first call decides how f is called: as it is, unless it raises or
    returns the wrong shape on an array, in which case f is taken for a
    scalar-only callable and wrapped in np.vectorize.
    """
    call = None

    def sample(pts: np.ndarray) -> np.ndarray:
        nonlocal call
        if call is None:
            call = f
            try:
                vals = np.asarray(f(pts), dtype=float)
            except (TypeError, ValueError):
                vals = None
            if vals is None or vals.shape != pts.shape:
                call = np.vectorize(f, otypes=[float])
                vals = call(pts)
        else:
            vals = np.asarray(call(pts), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise NonFiniteIntegrand("integrand returned non-finite values")
        return vals

    return sample


def _rule(jobs, spec: QuadratureSpec):
    """Composite rules for (a, b, panels) jobs, concatenated.

    Returns (nodes, weights, offsets), offsets[i] being where the nodes
    of job i start.
    """
    x, w = _gl_rule(spec.nodes)
    a, b, k = (np.array(col, dtype=float) for col in zip(*jobs))
    counts = k.astype(int)
    starts = np.cumsum(counts) - counts
    h = np.repeat((b - a) / k, counts)
    mid = np.repeat(a, counts) + (np.arange(counts.sum()) - np.repeat(starts, counts) + 0.5) * h
    half = 0.5 * h
    return ((mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel(),
            starts * spec.nodes)


def _sums(sample, jobs, g, spec: QuadratureSpec):
    """(sum, sum of |.|) of the rule for g(f) on each (a, b, panels) job.

    f is sampled once for all jobs together.
    """
    pts, wts, offsets = _rule(jobs, spec)
    terms = g(sample(pts)) * wts
    return list(zip(np.add.reduceat(terms, offsets).tolist(),
                    np.add.reduceat(np.abs(terms), offsets).tolist()))


def _converge(sample, edges, g, spec: QuadratureSpec, first=None):
    """Integral of g(f) over [edges[0], edges[-1]], piece by piece.

    Each piece between consecutive edges starts from its 1- and 2-panel
    sums (``first`` holds them when there is one piece and they are
    known).  While the total change exceeds rel_tol times the integral of
    |g(f)|, each piece whose change exceeds its share of that tolerance
    doubles its panels, up to 2^MAX_REFINEMENTS.  Returns (value, err).
    """
    pieces = list(zip(edges[:-1], edges[1:]))
    if first is None:
        first = _sums(sample, [(a, b, k) for a, b in pieces for k in (1, 2)], g, spec)
    prev, cur = first[0::2], first[1::2]
    panels = [2] * len(pieces)
    limit = 2 ** MAX_REFINEMENTS
    while True:
        errs = [abs(c[0] - q[0]) for c, q in zip(cur, prev)]
        tol = spec.rel_tol * sum(c[1] for c in cur)
        if sum(errs) <= tol:
            break
        todo = [i for i, e in enumerate(errs)
                if e > tol / len(pieces) and panels[i] < limit]
        if not todo:
            break
        for i in todo:
            panels[i] *= 2
        new = _sums(sample, [(*pieces[i], panels[i]) for i in todo], g, spec)
        for i, s in zip(todo, new):
            prev[i], cur[i] = cur[i], s
    return sum(c[0] for c in cur), sum(errs)


def integrate(f, a: float, b: float, spec: QuadratureSpec = DEFAULT_QUAD
              ) -> tuple[float, float]:
    """Integral of f over [a, b] with an error estimate.

    Returns (value, err) where err is the change at the last refinement;
    refinement stops once err is at most rel_tol times the integral of
    |f| from the same nodes.
    """
    if b <= a:
        return 0.0, 0.0
    return _converge(_sampler(f), [a, b], lambda v: v, spec)


def _split_points(sample, xs, vs, p: float, tol: float):
    """Sign changes of f between consecutive points xs (values vs).

    All brackets are narrowed together by Illinois steps until the |f|^p
    mass of each (its width times the larger end value to the p) is at
    most its share of tol, or an end value is exactly zero.  Returns
    (false-position split points, summed bracket masses).
    """
    i = np.flatnonzero((vs[:-1] >= 0) != (vs[1:] >= 0))
    lo, hi, f_lo, f_hi = xs[i], xs[i + 1], vs[i], vs[i + 1]
    w_lo, w_hi = f_lo.copy(), f_hi.copy()  # Illinois-weighted end values
    last = np.zeros(len(i), dtype=int)  # end moved last: -1 lo, +1 hi
    cap = tol / max(len(i), 1)

    def masses():
        m = (hi - lo) * np.maximum(np.abs(f_lo), np.abs(f_hi)) ** p
        return np.where(f_lo * f_hi == 0.0, 0.0, m)

    for _ in range(_MAX_STEPS):
        # a bracket two ulps wide cannot be narrowed further
        act = np.flatnonzero((masses() > cap)
                             & (hi - lo > 4e-16 * np.maximum(np.abs(lo), np.abs(hi))))
        if not len(act):
            break
        x = hi[act] - w_hi[act] * (hi[act] - lo[act]) / (w_hi[act] - w_lo[act])
        x = np.clip(x, lo[act], hi[act])
        fx = sample(x)
        left = (fx >= 0) == (f_lo[act] >= 0)  # the sign change lies right of x
        a, b = act[left], act[~left]
        lo[a], f_lo[a], w_lo[a] = x[left], fx[left], fx[left]
        hi[b], f_hi[b], w_hi[b] = x[~left], fx[~left], fx[~left]
        w_hi[a[last[a] == -1]] *= 0.5
        w_lo[b[last[b] == 1]] *= 0.5
        last[a], last[b] = -1, 1
    roots = np.clip(lo - f_lo * (hi - lo) / (f_hi - f_lo), lo, hi)
    return roots.tolist(), float(np.sum(masses()))


def _sup_norm(sample, a: float, b: float, spec: QuadratureSpec):
    """(sup |f| on [a, b], err): every local maximum of a grid, polished.

    Each maximum is a centre c with half-width d and values at c - d, c,
    c + d, the centre being the largest.  A step samples _ZOOM points on
    each side of c at spacing d / (_ZOOM + 1) and recentres on the best,
    all maxima in one call of f.  If the centre is within d/2 of a smooth
    maximum, its value is short of it by at most a quarter of the spread
    (centre minus lower neighbour), so best + spread bounds the sup.  A
    maximum stops when it cannot hold the sup or when d is at most
    sqrt(rel_tol) grid steps: its shortfall is then about rel_tol times the
    change of |f| over one grid step.
    """
    s = np.linspace(a, b, SUP_GRID + 1)
    v = np.abs(sample(s))
    pad = np.array([-1.0])
    i = np.flatnonzero((v >= np.concatenate((pad, v[:-1])))
                       & (v >= np.concatenate((v[1:], pad))))
    c, f_c = s[i], v[i]
    f_lo, f_hi = v[np.maximum(i - 1, 0)], v[np.minimum(i + 1, len(s) - 1)]
    d = np.full(len(i), (b - a) / SUP_GRID)
    width = math.sqrt(spec.rel_tol) * (b - a) / SUP_GRID
    steps = np.arange(-_ZOOM, _ZOOM + 1) / (_ZOOM + 1)
    for _ in range(_MAX_STEPS):
        spread = f_c - np.minimum(f_lo, f_hi)
        act = np.flatnonzero((d > width) & (f_c + spread >= np.max(f_c)))
        if not len(act):
            break
        x = np.clip(c[act, None] + d[act, None] * steps, a, b)
        fx = np.abs(sample(x.ravel())).reshape(x.shape)
        row = np.arange(len(act))
        k = np.argmax(fx, axis=1)
        left = np.where(k > 0, fx[row, k - 1], f_lo[act])
        right = np.where(k < 2 * _ZOOM, fx[row, np.minimum(k + 1, 2 * _ZOOM)], f_hi[act])
        c[act], f_c[act], f_lo[act], f_hi[act] = x[row, k], fx[row, k], left, right
        d[act] /= _ZOOM + 1
    top = float(np.max(f_c))
    spread = f_c - np.minimum(f_lo, f_hi)
    return top, max(float(np.max(f_c + spread)) - top, math.ulp(top))


def _real_roots(coefficients, domain, a: float, b: float) -> np.ndarray:
    """Sorted real roots inside (a, b) of sum c_k t^k, t mapping domain onto [-1, 1].

    They are companion-matrix eigenvalues.  Rounding can split a double
    root into a near-real pair, so a root counts as real up to _NEAR_REAL;
    a spare split point or sup candidate costs only a few evaluations.
    """
    c = np.asarray(coefficients, dtype=float)
    n = int(np.flatnonzero(c)[-1]) if c.any() else 0  # the degree
    if n < 1:
        return np.empty(0)
    companion = np.eye(n, k=-1)
    companion[:, -1] = -c[:n] / c[n]
    t = np.linalg.eigvals(companion)
    lo, hi = domain
    half = 0.5 * (hi - lo)
    x = np.sort(0.5 * (lo + hi) + half * t.real[half * np.abs(t.imag) <= _NEAR_REAL * (b - a)])
    return x[(x > a) & (x < b)]


def _sup_at(sample, a: float, b: float, xs: np.ndarray):
    """(max |f| over a, b and the critical points xs of f, err).

    Each critical point also gets neighbours at +-h = sqrt(eps) (b - a).
    The computed point lies far within h/2 of the exact one, so, as in
    _sup_norm, the best of the three plus their spread bounds |f| there;
    the spread also shows the rounding of f.
    """
    h = math.sqrt(np.finfo(float).eps) * (b - a)
    pts = np.clip(np.concatenate(([a, b], xs - h, xs, xs + h)), a, b)
    v = np.abs(sample(pts))
    top = float(np.max(v))
    trio = v[2:].reshape(3, -1)
    bound = np.max(2.0 * trio.max(axis=0) - trio.min(axis=0), initial=top)
    return top, max(float(bound) - top, math.ulp(top))


def lp_norm(f, support: tuple[float, float], p: float,
            spec: QuadratureSpec = DEFAULT_QUAD, shape=None) -> tuple[float, float]:
    """(||f||_{L^p(support)}, error estimate of the norm) for 1 <= p <= inf.

    f is the signed function.  shape, if given, builds a polynomial P
    with f = w P on the support for some w > 0, constant when p = inf, as
    (c, (lo, hi)): P(s) = sum c[k] t^k with t = (2 s - lo - hi) / (hi - lo).
    It is called once, and only when the points it locates are needed.
    Without it lp_norm finds the sign changes and maxima of f itself.
    For finite p the estimate covers the last refinement change and the
    split points, for p = inf the brackets of the maxima.
    """
    a, b = support
    if not math.isinf(p) and p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if b <= a:
        return 0.0, 0.0
    sample = _sampler(f)
    if math.isinf(p):
        if shape is None:
            return _sup_norm(sample, a, b, spec)
        c, domain = shape()
        dc = np.arange(1, len(c)) * np.asarray(c)[1:]  # P' in t, times (hi - lo) / 2
        return _sup_at(sample, a, b, _real_roots(dc, domain, a, b))

    def g(v):
        return np.abs(v) ** p

    pts, wts, offsets = _rule([(a, b, 1), (a, b, 2)], spec)
    vals = sample(pts)
    n = offsets[1]
    i1, i2 = np.add.reduceat(g(vals) * wts, offsets).tolist()
    split_err = 0.0
    if abs(i2 - i1) <= spec.rel_tol * i2:
        total, err = i2, abs(i2 - i1)
    else:
        if shape is None:
            roots, split_err = _split_points(sample, pts[n:], vals[n:], p,
                                             _SPLIT_SHARE * spec.rel_tol * i2)
        else:
            roots = _real_roots(*shape(), a, b).tolist()
        first = None if roots else [(i1, i1), (i2, i2)]
        total, err = _converge(sample, [a, *roots, b], g, spec, first)
    norm = total ** (1.0 / p)
    if total <= 0:
        return norm, (err + split_err) ** (1.0 / p)
    return norm, norm * (err + split_err) / (p * total)
