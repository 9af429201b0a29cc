"""Command-line interface: decisions, spectra, counterexamples, verification.

Subcommands
    check           validity decision + constant for (N, c, b, p, alpha, domain, J)
    spectrum        spectral classification of a point; --sample dumps the
                    parabola as CSV (re, im, tag) for plotting
    counterexample  epsilon-family ratios (CSV) with fitted log-log slope,
                    or the boundary witness report
    verify          quadrature-backed verification targets

Output is JSON on stdout (schema_version 1); CSV goes to --output when
given.  Exit codes: 0 pass/holds, 1 precondition (also a non-finite
alpha, lambda, --log-eps or tolerance, an --xi-max whose square is not
finite, an --N or a degree beyond float range, an exterior --domain
with a --J other than all, --quad-nodes outside 16..512, a
--quad-rel-tol outside (0, 1), a --sweep-alpha count above 100000, a
--grid outside 2..100000, a --sample-q outside 0..100000, a --count
outside 1..1000, a verify rellich or dissipativity corpus (--harmonics
degrees times --count) above 5000 profiles, an empty corpus, fewer than
two distinct --eps values, a Hardy constant beyond float range, or a p
so large that a power of the verified inequality or an integral of
|f|^p overflows), 2 fail, 3 unsupported regime, 64 usage.  The ranges
are checked before anything is allocated.
RELLICH_TOL overrides the default tolerance.

check, check --sweep-alpha and a spectrum point are closed-form and run
without numpy; verify, counterexample and spectrum --sample import numpy
and the numeric modules when they run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .errors import OutOfRange, PreconditionViolated, RellichError, UnsupportedRegime
from .params import (
    DEFAULT_TOL,
    EPS_LADDER,
    OperatorParams,
    check_finite,
    check_tol,
    critical_alphas,
    parse_p,
)
from .spectral import (
    ADomain,
    GammaInterval,
    classify_A,
    classify_gamma,
    region_section3,
    region_section4,
)
from .validity import DomainKind, HarmonicSet, decide

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_FAIL = 2
EXIT_UNSUPPORTED = 3
EXIT_USAGE = 64

#: most points of a --sweep-alpha grid
SWEEP_MAX = 100_000

#: most spectrum --sample-q points, most verify --count profiles per degree, and
#: most profiles of a verify corpus over all --harmonics degrees
SAMPLE_Q_MAX = 100_000
COUNT_MAX = 1_000
CORPUS_MAX = 5_000

_DOMAINS = {
    "rn": DomainKind.WHOLE_SPACE,
    "ball": DomainKind.UNIT_BALL,
    "bounded": DomainKind.BOUNDED_SMOOTH,
    "exterior": DomainKind.EXTERIOR_SMOOTH,
    "exterior-ball": DomainKind.EXTERIOR_BALL,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(obj) -> None:
    obj = dict(obj)
    obj["schema_version"] = SCHEMA_VERSION
    print(json.dumps(obj, sort_keys=True))


def _tol(args) -> float:
    if args.tol is not None:
        return check_tol(args.tol)
    env = os.environ.get("RELLICH_TOL")
    return check_tol(float(env)) if env else DEFAULT_TOL


def _params(args) -> OperatorParams:
    return OperatorParams(args.N, args.c, args.b)


def _write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(f"{x:.17g}" if isinstance(x, float) else str(x) for x in row)
              for row in rows]
    text = "\n".join(lines) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _parse_sweep(text: str) -> list[float]:
    """The grid LO:HI:COUNT, bit for bit as np.linspace(LO, HI, COUNT) builds it."""
    lo, hi, count = text.split(":")
    lo, hi, n = float(lo), float(hi), int(count)
    if n < 2:
        raise ValueError("sweep needs at least 2 points")
    if n > SWEEP_MAX:
        raise OutOfRange(f"sweep has at most {SWEEP_MAX} points, got {n}")
    delta = hi - lo
    step = delta / (n - 1)
    if step == 0:  # a subnormal or zero step: scale i / (n - 1) instead, as numpy does
        grid = [i / (n - 1) * delta + lo for i in range(n)]
    else:
        grid = [i * step + lo for i in range(n)]
    grid[-1] = hi
    return grid


def cmd_check(args) -> int:
    if args.sweep_alpha is None and args.alpha is None:
        print("error: check needs --alpha or --sweep-alpha", file=sys.stderr)
        return EXIT_USAGE
    params = _params(args)
    p = parse_p(args.p)
    J = HarmonicSet.parse(args.J)
    domain = _DOMAINS[args.domain]
    tol = _tol(args)

    if args.sweep_alpha:
        rows = []
        for a in _parse_sweep(args.sweep_alpha):
            v = decide(params, p, alpha=a, domain=domain, J=J, tol=tol)
            rows.append((a, int(v.holds), "" if v.best_constant is None else v.best_constant))
        _write_csv(args.output, ["alpha", "holds", "best_constant"], rows)
        _emit({"sweep": {"points": len(rows), "holds": sum(row[1] for row in rows)},
               "output": args.output or "-", "tolerance": tol})
        return EXIT_OK

    verdict = decide(params, p, alpha=args.alpha, domain=domain, J=J, tol=tol)
    _emit({"holds": verdict.holds,
           "failing_modes": [{"n": n, "branch": b.value} for n, b in verdict.failing_modes],
           "best_constant": verdict.best_constant,
           "critical_alphas": [[n, *critical_alphas(params, p, n)]
                               for n in range(11) if J.contains(n)],
           "notes": verdict.notes, "tolerance": tol})
    return EXIT_OK if verdict.holds else EXIT_FAIL


def cmd_spectrum(args) -> int:
    params = _params(args)
    p = parse_p(args.p)
    if args.alpha is not None:
        region = region_section4(params, p, args.alpha)
    else:
        region = region_section3(params, p)

    if args.sample:
        xi_max = args.xi_max
        top = xi_max * xi_max  # the deepest Q sample; x * x overflows to inf, x**2 raises
        if not math.isfinite(top):
            raise PreconditionViolated(f"--xi-max and its square must be finite, got {xi_max}")
        if not 0 <= args.sample_q <= SAMPLE_Q_MAX:
            raise OutOfRange(f"--sample-q must lie in 0..{SAMPLE_Q_MAX}, got {args.sample_q}")
        import numpy as np

        xi = np.linspace(-xi_max, xi_max, 1000)
        rows = [(float(-x * x - region.omega), float(x * region.k), "P") for x in xi]
        if args.sample_q:
            # interior points of Q: push parabola points further left
            rng = np.random.default_rng(args.seed_q)
            for _ in range(args.sample_q):
                x = float(rng.uniform(-xi_max, xi_max))
                depth = float(rng.uniform(0.05, top))
                rows.append((float(-x * x - region.omega - depth),
                             float(x * region.k), "Q"))
        _write_csv(args.output, ["re", "im", "tag"], rows)
        _emit({"sampled": len(rows), "k": region.k, "omega": region.omega,
               "output": args.output or "-"})
        return EXIT_OK

    if args.lam is None:
        raise PreconditionViolated("--lambda is required unless --sample is given")
    parts = [float(x) for x in args.lam.split(",")]
    lam = check_finite("lambda", complex(parts[0], parts[1] if len(parts) > 1 else 0.0))
    if args.interval is not None:
        interval = GammaInterval.HALF_LINE if args.interval == "half" \
            else GammaInterval.UNIT_INTERVAL
        cls = classify_gamma(params, p, interval, lam, tol=_tol(args))
        where = f"gamma {args.interval}"
    else:
        dom = ADomain.WHOLE_SPACE if args.domain == "rn" else ADomain.UNIT_BALL
        cls = classify_A(params, p, HarmonicSet.parse(args.J), dom, lam, tol=_tol(args))
        where = f"A {args.domain} J={args.J}"
    _emit(
        {
            "operator": where,
            "lambda": [lam.real, lam.imag],
            "in_spectrum": cls.in_spectrum,
            "in_approx": cls.in_approx,
            "in_point_certified": cls.in_point_certified,
            "in_residual_not_approx": cls.in_residual_not_approx,
            "k": region.k,
            "omega": region.omega,
        }
    )
    return EXIT_OK


def _quad(args):
    """The QuadratureSpec of the --quad-* options, its own defaults where none is given."""
    from .quadrature import QuadratureSpec

    given = {"nodes": args.quad_nodes, "rel_tol": args.quad_rel_tol}
    return QuadratureSpec(**{k: v for k, v in given.items() if v is not None})


def cmd_counterexample(args) -> int:
    from .radial import boundary_counterexample, counterexample_ratio, fit_loglog_slope

    params = _params(args)
    p = parse_p(args.p)
    if args.mode == "boundary":
        if args.alpha is None:
            raise PreconditionViolated("--alpha is required for boundary mode")
        rep = boundary_counterexample(params, args.alpha, p, grid=args.grid)
        _emit(
            {
                "mode": "boundary",
                "residual_sup": rep.residual_sup,
                "norm_finite": rep.norm_finite,
                "active": rep.active,
            }
        )
        return EXIT_OK
    eps = [float(x) for x in args.eps.split(",")]
    quad = _quad(args)
    ratios = [
        counterexample_ratio(params, p, args.n, args.mode, e, spec=quad).ratio
        for e in eps
    ]
    slope = fit_loglog_slope(eps, ratios)
    _write_csv(args.output, ["epsilon", "ratio"], list(zip(eps, ratios)))
    _emit(
        {
            "mode": args.mode,
            "n": args.n,
            "eps": eps,
            "ratios": ratios,
            "slope": slope,
        }
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    if not 1 <= args.count <= COUNT_MAX:
        raise OutOfRange(f"--count must lie in 1..{COUNT_MAX}, got {args.count}")
    by_degree = args.target in ("rellich", "dissipativity")  # count profiles per degree
    if by_degree and len(args.harmonics) * args.count > CORPUS_MAX:
        raise OutOfRange(f"the corpus of --harmonics times --count has at most {CORPUS_MAX} "
                         f"profiles, got {len(args.harmonics)} x {args.count}")
    from .profiles import bump_corpus
    from .verify import (
        verify_aux_remainder,
        verify_critical_log,
        verify_dissipativity,
        verify_hardy,
        verify_oned_inequality,
        verify_rellich,
        verify_remainder,
    )

    params = _params(args)
    p = parse_p(args.p)
    seed = args.seed
    quad = _quad(args)
    if by_degree:
        corpus = [(n, v) for n in args.harmonics for v in bump_corpus(seed + n, args.count)]
    if args.target == "rellich":
        report = verify_rellich(params, p, args.alpha, _DOMAINS[args.domain],
                                HarmonicSet.parse(args.J), corpus, spec=quad, tol=_tol(args))
    elif args.target == "hardy":
        (u,) = bump_corpus(seed, 1, center_range=(1.0, 1.5))
        report = verify_hardy(args.N, p, args.beta, u, spec=quad)
    elif args.target == "remainder":
        corpus = bump_corpus(seed, args.count, center_range=(1.5, 9.0),
                             left_min=math.log(2.0))
        report = verify_remainder(params, p, args.alpha, corpus, spec=quad)
    elif args.target == "critical":
        report = verify_critical_log(params, p, args.n, args.mode, log_eps=args.log_eps,
                                     spec=quad)
    elif args.target == "aux":
        (v,) = bump_corpus(seed, 1)
        report = verify_aux_remainder(args.beta, args.lam_real, p, v, spec=quad)
    elif args.target == "oned":
        corpus = bump_corpus(seed, args.count)
        report = verify_oned_inequality(args.beta, p, args.a, args.log_eps, corpus,
                                        spec=quad)
    else:  # dissipativity, the last of the choices
        report = verify_dissipativity(params, p, args.lam_real, corpus, spec=quad)
    _emit({"claim": report.claim, "passed": report.passed, "min_margin": report.min_margin,
           "tolerance": report.tolerance, "notes": report.notes, "seed": seed,
           "samples": [{"descriptor": d, "lhs": lhs, "rhs": rhs, "margin": m}
                       for d, lhs, rhs, m in report.samples]})
    return EXIT_OK if report.passed else EXIT_FAIL


def build_parser() -> _Parser:
    top = _Parser(prog="rellich", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--N", type=int, required=True, help="space dimension")
        sp.add_argument("--c", type=float, default=0.0, help="drift coefficient")
        sp.add_argument("--b", type=float, default=0.0, help="potential coefficient")
        sp.add_argument("--p", type=str, default="2", help="exponent in [1, inf]")
        sp.add_argument("--alpha", type=float, default=None, help="weight exponent")
        sp.add_argument("--tol", type=float, default=None,
                        help="decision tolerance (default 1e-9 or RELLICH_TOL)")

    def quadrature(sp):
        sp.add_argument("--quad-nodes", dest="quad_nodes", type=int, default=None,
                        help="Gauss-Legendre nodes per panel (default 64)")
        sp.add_argument("--quad-rel-tol", dest="quad_rel_tol", type=float, default=None,
                        help="panel refinement relative tolerance (default 1e-10)")

    sp = sub.add_parser("check", help="decide a Rellich inequality")
    common(sp)
    sp.add_argument("--domain", choices=sorted(_DOMAINS), default="rn")
    sp.add_argument("--J", type=str, default="all",
                    help="harmonic set: all | ge:N | set:a,b | ne:a,b")
    sp.add_argument("--sweep-alpha", dest="sweep_alpha", type=str, default=None,
                    help="decide on an alpha grid LO:HI:COUNT, emit CSV")
    sp.add_argument("-o", "--output", type=str, default=None)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("spectrum", help="classify a spectral point or sample P")
    common(sp)
    sp.add_argument("--interval", choices=["half", "unit"], default=None,
                    help="classify the radial operator on (0,inf) or (0,1)")
    sp.add_argument("--domain", choices=["rn", "ball"], default="rn")
    sp.add_argument("--J", type=str, default="all")
    sp.add_argument("--lambda", dest="lam", type=str, default=None,
                    help="point to classify: re or re,im")
    sp.add_argument("--sample", action="store_true",
                    help="emit parabola point cloud as CSV (1000 points)")
    sp.add_argument("--sample-q", dest="sample_q", type=int, default=0,
                    help="append this many interior points of Q, tagged Q (0..100000)")
    sp.add_argument("--seed-q", dest="seed_q", type=int, default=0)
    sp.add_argument("--xi-max", dest="xi_max", type=float, default=5.0)
    sp.add_argument("-o", "--output", type=str, default=None)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("counterexample", help="failure witnesses")
    common(sp)
    sp.add_argument("--n", type=int, default=0, help="harmonic degree")
    sp.add_argument("--mode", choices=["minus", "plus", "boundary"], required=True)
    sp.add_argument("--eps", type=str,
                    default=",".join(str(e) for e in EPS_LADDER))
    sp.add_argument("--grid", type=int, default=400, help="boundary log-grid points, 2..100000")
    sp.add_argument("-o", "--output", type=str, default=None)
    quadrature(sp)
    sp.set_defaults(func=cmd_counterexample)

    sp = sub.add_parser("verify", help="quadrature-backed verification")
    sp.add_argument("target", choices=["rellich", "hardy", "remainder", "critical",
                                       "aux", "oned", "dissipativity"])
    common(sp)
    sp.add_argument("--domain", choices=sorted(_DOMAINS), default="rn")
    sp.add_argument("--J", type=str, default="all")
    sp.add_argument("--n", type=int, default=0)
    sp.add_argument("--mode", choices=["minus", "plus"], default="minus")
    sp.add_argument("--beta", type=float, default=0.0)
    sp.add_argument("--lambda", dest="lam_real", type=float, default=1.0)
    sp.add_argument("--a", type=float, default=1.0)
    sp.add_argument("--log-eps", dest="log_eps", type=float, default=0.5)
    sp.add_argument("--count", type=int, default=3, help="profiles per degree, 1..1000")
    sp.add_argument("--harmonics", type=lambda s: [int(x) for x in s.split(",")],
                    default=[0, 1], help="corpus degrees, comma separated; rellich and "
                    "dissipativity take at most 5000 profiles over all degrees")
    sp.add_argument("--seed", type=int, default=0)
    quadrature(sp)
    sp.set_defaults(func=cmd_verify, alpha=0.0)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        if args.alpha is not None:
            check_finite("alpha", args.alpha)
        return args.func(args)
    except UnsupportedRegime as exc:
        _emit({"error": str(exc), "kind": "unsupported_regime"})
        return EXIT_UNSUPPORTED
    except (PreconditionViolated, ValueError) as exc:
        _emit({"error": str(exc), "kind": "precondition"})
        return EXIT_PRECONDITION
    except RellichError as exc:
        _emit({"error": str(exc), "kind": type(exc).__name__})
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
