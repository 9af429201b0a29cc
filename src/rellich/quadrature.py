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
integrands.  Otherwise it splits the support at the sign changes of f and
integrates the pieces between the split points under one tolerance for
the whole norm: the panels of a piece double only while its change
exceeds its share of ``rel_tol * integral``.  For p = inf the norm is
the largest |f| at the ends and at the critical points of f.

One locator finds both kinds of point, as chebfun does (Battles &
Trefethen, SISC 2004): the Legendre series of the polynomial that
interpolates f at the ``spec.nodes`` Gauss nodes of the support, chopped
where its coefficients reach rounding, has the split points as the real
roots and the critical points as the real roots of its derivative, both
eigenvalues of a colleague matrix.  For finite p the nodes are those of
the 1-panel pass, so locating costs no call of f; for p = inf it costs
one.  A piece whose series is not resolved is halved, up to a fixed
number of pieces.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonFiniteIntegrand, PreconditionViolated

#: allowed Gauss-Legendre points per panel.  The locator's series has as
#: many terms, resolves degrees below three quarters of that (the package's
#: integrands reach degree 8) and its matrices are that size squared
NODES_RANGE = (16, 512)


@dataclass(frozen=True)
class QuadratureSpec:
    nodes: int = 64  # Gauss-Legendre points per panel, within NODES_RANGE
    rel_tol: float = 1e-10  # stop when successive estimates agree to this, in (0, 1)

    def __post_init__(self):
        lo, hi = NODES_RANGE
        if isinstance(self.nodes, bool) or not isinstance(self.nodes, numbers.Integral) \
                or not lo <= self.nodes <= hi:
            raise PreconditionViolated(f"nodes must be an integer in [{lo}, {hi}], "
                                       f"got {self.nodes!r}")
        if not (isinstance(self.rel_tol, numbers.Real) and 0.0 < self.rel_tol < 1.0):
            raise PreconditionViolated(f"rel_tol must lie in (0, 1), got {self.rel_tol!r}")


DEFAULT_QUAD = QuadratureSpec()

#: panel counts 1, 2, 4, ..., 2^MAX_REFINEMENTS
MAX_REFINEMENTS = 12

#: a Legendre coefficient below this share of the largest one counts as
#: zero; a series is resolved when its last quarter is zero
_CHOP = 1e-10

#: pieces the point locator samples at most, the first included
_MAX_PIECES = 64

#: largest imaginary part of a root taken as real, and nearest distance of
#: a split point to an end of the support, both relative to the support
_NEAR_REAL = 1e-6


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


@lru_cache(maxsize=8)
def _legendre(n: int):
    """(T, D, J, scl) for series of n Legendre terms on [-1, 1].

    T maps values at the n Gauss nodes to the coefficients of the
    interpolant.  It is the inverse of the Legendre-Vandermonde matrix: the
    transposed Gauss rule is exact too, but at 64 nodes it leaves rounding
    of 2e-13 in the coefficients, a hundred times more.  D maps
    coefficients to those of the derivative, and J with scl gives the
    colleague matrix of ``_roots``.
    """
    x, _ = _gl_rule(n)
    k = np.arange(n)
    T = np.linalg.inv(np.polynomial.legendre.legvander(x, n - 1))
    D = np.where((k > k[:, None]) & ((k - k[:, None]) % 2 == 1), 2.0 * k[:, None] + 1, 0.0)
    scl = 1.0 / np.sqrt(2.0 * k + 1)
    J = np.diag(k[1:] * scl[:-1] * scl[1:], 1)
    out = T, D, J + J.T, scl
    for m in out:
        m.setflags(write=False)  # shared by every caller of the cache
    return out


def _roots(c, J, scl) -> np.ndarray:
    """Complex roots of sum c[k] P_k, c[-1] != 0: eigenvalues of its colleague matrix."""
    d = len(c) - 1
    m = J[:d, :d].copy()
    m[:, -1] -= c[:-1] * (scl[:d] * (d / ((2 * d - 1) * scl[d - 1] * c[-1])))
    return np.linalg.eigvals(m)


def _locate(sample, a: float, b: float, vals: np.ndarray, spec: QuadratureSpec,
            sup: bool) -> tuple[np.ndarray, float]:
    """(sorted real roots inside (a, b) of f, or of f' when sup, bound), as chebfun finds them.

    vals holds f at the spec.nodes Gauss nodes of [a, b].  A piece takes
    its Legendre series from its nodes, drops the trailing coefficients
    below _CHOP of the largest and gives the real eigenvalues of the
    colleague matrix of what is left (or of its derivative).  Rounding can
    split a double root into a near-real pair, so a root counts as real up
    to _NEAR_REAL, and one within _NEAR_REAL of an end of the support is
    that end.  A piece whose series is not resolved is halved, all new
    halves sampled in one call, until _MAX_PIECES pieces have been
    sampled.  The halving points are split points and sup candidates too,
    except one between two pieces still unresolved at that cap.  Such a
    piece is left to panel doubling for finite p.  For the sup it gives its
    nodes as candidates, and bound is the largest node value plus its
    spread (as in ``_sup_at``, with the nodes as neighbours), 0 without
    such pieces.
    """
    n = spec.nodes
    x, _ = _gl_rule(n)
    T, D, J, scl = _legendre(n)
    near = _NEAR_REAL * (b - a)
    pieces, mids, out, bound = [(a, b)], [], [], 0.0
    while True:
        c = T @ vals.reshape(len(pieces), n).T
        mag = np.abs(c)
        big = mag > _CHOP * mag.max(axis=0)
        big[0] = True  # a piece where f vanishes has degree 0
        degree = (n - 1 - np.argmax(big[::-1], axis=0)).tolist()  # after the chop
        rest, rows = [], []
        for i, ((lo, hi), d, ci) in enumerate(zip(pieces, degree, c.T)):
            if d >= n - n // 4:
                rest.append((lo, hi))
                rows.append(i)
            elif d > (1 if sup else 0):  # f (f') has a root to find
                t = _roots(D[:d, :d + 1] @ ci[:d + 1] if sup else ci[:d + 1], J, scl)
                mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
                out += [mid + half * r.real for r in t.tolist()
                        if half * abs(r.imag) <= near and abs(r.real) <= 1.0 + _NEAR_REAL]
        if not rest:
            break
        if 1 + 2 * (len(mids) + len(rest)) > _MAX_PIECES:
            if sup:
                out += [0.5 * (lo + hi + (hi - lo) * t) for lo, hi in rest for t in x.tolist()]
                v = np.abs(vals.reshape(len(pieces), n)[rows])
                lower = np.minimum(np.concatenate((v[:, :1], v[:, :-1]), axis=1),
                                   np.concatenate((v[:, 1:], v[:, -1:]), axis=1))
                bound = float(np.max(2.0 * v - lower))
            break
        mids += [0.5 * (lo + hi) for lo, hi in rest]
        pieces = [piece for (lo, hi), m in zip(rest, mids[-len(rest):])
                  for piece in ((lo, m), (m, hi))]
        edges = np.array(pieces)
        vals = sample((edges.mean(axis=1)[:, None]
                       + 0.5 * (edges[:, 1] - edges[:, 0])[:, None] * x).ravel())
    # f may have a kink where a piece was halved, unless it lies between two
    # pieces that stayed unresolved
    inner = {lo for lo, _ in rest} & {hi for _, hi in rest}
    out += [m for m in mids if m not in inner]
    return np.array(sorted(s for s in out if a + near < s < b - near)), bound


def _sup_at(sample, a: float, b: float, xs: np.ndarray):
    """(max |f| over a, b and the critical points xs of f, err).

    Each critical point also gets neighbours at +-h = sqrt(eps) (b - a).
    The computed point lies far within h/2 of the exact one, so the best
    of the three plus their spread (the centre minus the lower neighbour,
    at least four times the shortfall of the centre near a smooth maximum)
    bounds |f| there; the spread also shows the rounding of f.
    """
    h = math.sqrt(np.finfo(float).eps) * (b - a)
    pts = np.clip(np.concatenate(([a, b], xs - h, xs, xs + h)), a, b)
    v = np.abs(sample(pts))
    top = float(np.max(v))
    trio = v[2:].reshape(3, -1)
    bound = np.max(2.0 * trio.max(axis=0) - trio.min(axis=0), initial=top)
    return top, max(float(bound) - top, math.ulp(top))


def lp_norm(f, support: tuple[float, float], p: float,
            spec: QuadratureSpec = DEFAULT_QUAD) -> tuple[float, float]:
    """(||f||_{L^p(support)}, error estimate of the norm) for 1 <= p <= inf.

    f is the signed function.  For finite p the estimate is the last
    refinement change, for p = inf the spread of |f| around the sup.
    """
    a, b = support
    if not math.isinf(p) and p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if b <= a:
        return 0.0, 0.0
    sample = _sampler(f)
    if math.isinf(p):
        vals = sample(0.5 * (a + b) + 0.5 * (b - a) * _gl_rule(spec.nodes)[0])
        xs, bound = _locate(sample, a, b, vals, spec, sup=True)
        top, err = _sup_at(sample, a, b, xs)
        return top, max(err, bound - top)

    def g(v):
        return np.abs(v) ** p

    pts, wts, offsets = _rule([(a, b, 1), (a, b, 2)], spec)
    vals = sample(pts)
    i1, i2 = np.add.reduceat(g(vals) * wts, offsets).tolist()
    if abs(i2 - i1) <= spec.rel_tol * i2:
        total, err = i2, abs(i2 - i1)
    else:
        roots = _locate(sample, a, b, vals[:offsets[1]], spec, sup=False)[0].tolist()
        first = None if roots else [(i1, i1), (i2, i2)]
        total, err = _converge(sample, [a, *roots, b], g, spec, first)
    norm = total ** (1.0 / p)
    if total <= 0:
        return norm, err ** (1.0 / p)
    return norm, norm * err / (p * total)
