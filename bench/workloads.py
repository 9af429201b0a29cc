"""The four workloads: seeded inputs, the call each operation makes, its check.

Every workload is a list of operations built from the seed alone.  The
operations come in blocks that hold one case per stratum (domain kind,
harmonic set, exponent p, ...), and the continuous draws of each stratum
are Latin-hypercube samples across the blocks.  Any run that covers whole
blocks therefore sees every stratum in its fixed share, and different
seeds give different inputs with the same distribution, which keeps the
figures of one seed close to those of another.

Expected results are computed while the operations are built, before any
timing: a check only compares.  Each builder takes the seed and ``wrap``,
which is applied to every profile the workload builds; the traced run
passes the tracer's profile wrapper.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
from rellich import (
    ADomain,
    DomainKind,
    GammaInterval,
    HarmonicSet,
    OperatorParams,
    bump,
    critical_alphas,
    plateau_profile,
)

import oracle

INF = math.inf
P_ALL = (1.0, 1.5, 2.0, 3.0, 4.0, INF)
P_INNER = (1.5, 2.0, 3.0, 4.0)  # 1 < p < inf
P_SWEEP = (1.0, 1.5, 2.0, 3.0, INF)  # the shares of the c12 acceptance sweep
J_KINDS = ("all", "at_least", "finite", "excluding")

# blocks per pass of each workload; a block holds one operation per stratum
DECIDE_BLOCKS = 128
# the median case of verify-sweep lies in the wide cost spread of the p = 1.5
# cases; with 5 blocks it moved by about 0.2 of itself from seed to seed, and
# many cases run once each average the host's speed over the whole run
VERIFY_BLOCKS = 40
RATIO_BLOCKS = 200
CLI_BLOCKS = 4

# the checkout the benchmark runs in; the package is imported from src/
ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Op:
    """One operation: call() runs it, check(result) says whether it is right.

    local(), when set, runs the same operation in this process; the traced
    run uses it for operations whose call() starts a child process.
    """

    call: Callable[[], Any]
    check: Callable[[Any], bool]
    label: str
    local: Callable[[], Any] | None = None


def _lib(module: str, name: str, *args, **kwargs):
    """Call rellich.<module>.<name> as bound at call time, so tracing can rebind it."""
    return getattr(sys.modules[f"rellich.{module}"], name)(*args, **kwargs)


def _call(module, name, *args, **kwargs):
    return lambda: _lib(module, name, *args, **kwargs)


def _lhs(rng, n: int) -> list[float]:
    """n uniforms in [0, 1), one in each of n equal strata, in random order."""
    return ((rng.permutation(n) + rng.random(n)) / n).tolist()


def _close(x: float, y: float, rel: float) -> bool:
    return abs(x - y) <= rel * max(abs(x), abs(y), 1.0)


def _hset(J: tuple):
    if J[0] == "all":
        return HarmonicSet.all()
    if J[0] == "at_least":
        return HarmonicSet.at_least(J[1])
    if J[0] == "finite":
        return HarmonicSet.finite(J[1])
    return HarmonicSet.excluding(J[1])


def _draw_J(rng, kind: str) -> tuple:
    if kind == "all":
        return ("all",)
    if kind == "at_least":
        return ("at_least", int(rng.integers(0, 4)))
    picks = rng.choice(10 if kind == "finite" else 5,
                       size=int(rng.integers(1, 4)), replace=False)
    return (kind, tuple(sorted(int(j) for j in picks)))


def _member_near(J: tuple, start: int) -> int:
    if J[0] == "finite":
        return J[1][start % len(J[1])]
    j = start
    while not oracle.contains(J, j):
        j += 1
    return j


# ---------------------------------------------------------------------------
# decide-sweep


def _decide_check(modes, const, must_fail, certified):
    def check(v) -> bool:
        got = [(int(j), br.value) for j, br in v.failing_modes]
        if v.holds != (not modes) or got != modes:
            return False
        if must_fail and v.holds:
            return False
        if certified is not None and not (v.holds and v.best_constant is not None
                                          and _close(v.best_constant, certified, 1e-9)):
            return False
        if const is None:
            return v.best_constant is None
        return v.best_constant is not None and _close(v.best_constant, const, 1e-9)

    return check


def build_decide(seed: int, wrap=None) -> list[Op]:
    """Decisions on every domain kind and harmonic-set variant, classifications, lemma flags.

    |alpha - base| is log-uniform on [1e-2, 1e3] (the linear harmonic scan
    grows with it); in one block of ten per stratum alpha is set exactly to
    a critical exponent of a mode in J.  Non-finite and huge alphas are
    left out: each one scans for about 20 s.
    """
    rng = np.random.default_rng(seed)
    strata = [(d, jk) for d in ("whole_space", "unit_ball") for jk in J_KINDS]
    strata += [("bounded_smooth", "all"), ("exterior_smooth", "all"),
               ("exterior_ball", "all")]
    strata = [(d, jk, sign) for d, jk in strata for sign in (1.0, -1.0)]
    draws = {s: tuple(_lhs(rng, DECIDE_BLOCKS) for _ in range(3))
             for s in range(len(strata))}
    z_draws = [_lhs(rng, DECIDE_BLOCKS) for _ in range(3)]
    ops: list[Op] = []
    for blk in range(DECIDE_BLOCKS):
        block: list[Op] = []
        for s, (domain, jk, sign) in enumerate(strata):
            u_mag, u_D, u_c = (d[blk] for d in draws[s])
            k = blk + s
            N = 2 + k % 8
            c = -2.0 + 4.0 * u_c
            inner = domain in ("bounded_smooth", "exterior_smooth")
            p = P_INNER[k % 4] if inner else P_ALL[k % 6]
            D = 9.0 * u_D if inner else -1.0 + 10.0 * u_D
            b = D - ((N - 2 + c) / 2.0) ** 2
            J = _draw_J(rng, jk)
            P = OperatorParams(N, c, b)
            critical = k % 10 == 0
            if critical:
                n = _member_near(J, int(rng.integers(0, 6)))
                alpha = critical_alphas(P, p, n)[int(rng.integers(2))]
            else:
                alpha = oracle.base(N, c, p) + sign * 10.0 ** (-2.0 + 5.0 * u_mag)
            modes, const = oracle.decide(N, c, b, p, alpha, domain, J)
            certified = None
            # alpha_0^- sits on the edge of the certified range: not certified
            if not critical and J[0] == "all" and domain != "exterior_smooth":
                certified = oracle.certified_constant(N, c, b, p, alpha)
            block.append(Op(
                _call("validity", "decide", P, p, alpha, DomainKind(domain), _hset(J)),
                _decide_check(modes, const, critical, certified),
                f"decide {domain} J={jk}",
            ))
        block += _classify_ops(rng, blk, [z[blk] for z in z_draws])
        block += _lemma_ops(rng, 2)
        ops += [block[i] for i in rng.permutation(len(block))]
    return ops


def _classify_ops(rng, blk: int, u: list[float]) -> list[Op]:
    def params():
        N = int(rng.integers(2, 10))
        c = float(rng.uniform(-2, 2))
        return N, c, P_ALL[int(rng.integers(len(P_ALL)))]

    def expect(flag):
        return lambda cls: cls.in_spectrum == flag

    ops = []
    # points on (and next to) a shifted parabola P - lambda_j, with j up to
    # 10^3: the harmonic scan of the whole-space classification grows with j
    for i, off in enumerate((0.0, 0.5)):
        N, c, p = params()
        J = _draw_J(rng, J_KINDS[(blk + i) % 4])
        j = _member_near(J, int(10.0 ** (3.0 * u[i])))
        k, omega = oracle.region(N, c, p)
        xi = float(rng.uniform(-5, 5))
        z = complex(-xi * xi - omega - oracle.lam(N, j) + off, k * xi)
        ops.append(Op(
            _call("spectral", "classify_A", OperatorParams(N, c), p, _hset(J),
                  ADomain.WHOLE_SPACE, z),
            expect(oracle.spectrum_A(N, c, p, J, "whole_space", z)),
            "classify_A whole_space",
        ))
    N, c, p = params()
    J = _draw_J(rng, J_KINDS[blk % 4])
    z = complex(-(10.0 ** (3.0 * u[2])) + float(rng.uniform(-1, 1)),
                float(rng.uniform(-20, 20)))
    ops.append(Op(
        _call("spectral", "classify_A", OperatorParams(N, c), p, _hset(J),
              ADomain.UNIT_BALL, z),
        expect(oracle.spectrum_A(N, c, p, J, "unit_ball", z)),
        "classify_A unit_ball",
    ))
    for interval in ("half_line", "unit_interval"):
        N, c, p = params()
        k, omega = oracle.region(N, c, p)
        xi = float(rng.uniform(-5, 5))
        z = complex(-xi * xi - omega - float(rng.uniform(0, 2)), k * xi)
        ops.append(Op(
            _call("spectral", "classify_gamma", OperatorParams(N, c), p,
                  GammaInterval(interval), z),
            expect(oracle.spectrum_gamma(N, c, p, interval, z)),
            f"classify_gamma {interval}",
        ))
    return ops


def _lemma_ops(rng, count: int) -> list[Op]:
    """The four conditions of the parameter lemma agree away from their boundaries."""
    ops = []
    while len(ops) < count:
        N = int(rng.integers(2, 13))
        c = float(rng.uniform(-4, 4))
        b = float(rng.uniform(-5, 5))
        p = (*P_ALL, 5.0)[int(rng.integers(7))]
        alpha = float(rng.uniform(-6, 6))
        j = int(rng.integers(0, 6))
        lam_j = oracle.lam(N, j)
        second = b + oracle.gamma(N, p, alpha, c) + lam_j
        if abs(second) < 1e-7 or abs(oracle.disc(N, c, b) + lam_j) < 1e-7:
            continue
        expected = second > 0

        def check(flags, expected=expected):
            return len(set(flags)) == 1 and flags[1] == expected

        ops.append(Op(_call("validity", "lemma_parameters_flags",
                            OperatorParams(N, c, b), p, alpha, j),
                      check, "lemma_parameters_flags"))
    return ops


# ---------------------------------------------------------------------------
# verify-sweep


def build_verify(seed: int, wrap=None) -> list[Op]:
    """verify_rellich with the distribution of the c12 acceptance sweep.

    Strata: p in {1, 1.5, 2, 3, inf} x {holds with C, exactly critical} x
    {whole space, unit ball}, one case each per block; critical cases cycle
    through modes n in {0, 1, 2} and both branches.  The corpus is c12's
    two bumps.
    """
    wrap = wrap or (lambda v: v)
    corpus = [(0, wrap(bump(1.0, 3.0))), (1, wrap(bump(2.0, 6.0)))]
    rng = np.random.default_rng(seed)
    strata = [(p, kind, dom) for p in P_SWEEP for kind in ("holds", "critical")
              for dom in (DomainKind.WHOLE_SPACE, DomainKind.UNIT_BALL)]
    draws = [tuple(_lhs(rng, VERIFY_BLOCKS) for _ in range(3)) for _ in strata]
    ops: list[Op] = []
    for blk in range(VERIFY_BLOCKS):
        block = []
        for s, (p, kind, dom) in enumerate(strata):
            u_D, u_c, u_a = (d[blk] for d in draws[s])
            k = blk + s
            N = 3 + k % 6
            c = -2.0 + 4.0 * u_c
            if kind == "holds":
                D = 0.8 + 8.2 * u_D
                b = D - ((N - 2 + c) / 2.0) ** 2
                alpha = oracle.base(N, c, p) + (-0.7 + 1.4 * u_a) * math.sqrt(D)
                label = f"verify p={p:g} holds {dom.value}"
            else:
                # D >= 2.25 keeps the epsilon family in its asymptotic regime
                D = 2.25 + 3.75 * u_D
                b = D - ((N - 2 + c) / 2.0) ** 2
                n, branch = divmod(k % 6, 2)
                alpha = critical_alphas(OperatorParams(N, c, b), p, n)[branch]
                label = f"verify p={p:g} critical {dom.value}"
            block.append(Op(
                _call("verify", "verify_rellich", OperatorParams(N, c, b), p, alpha,
                      dom, HarmonicSet.all(), corpus),
                lambda rep: rep.passed,
                label,
            ))
        ops += [block[i] for i in rng.permutation(len(block))]
    return ops


# ---------------------------------------------------------------------------
# ratio-smooth


def build_ratio(seed: int, wrap=None) -> list[Op]:
    """Plateau near-extremizer ratios in the certified range, plus dissipativity.

    rellich_ratio_separable(plateau_profile(T)) with T log-uniform on
    [50, 400], p in {1.5, 2, 3} and modes n in {0, 1}; one
    verify_dissipativity call at p = 2 per block.  The integrands are
    smooth apart from sign changes of the top integrand close to the ends
    of the support, which make about a third of the p = 1.5, n = 0 ratios
    refine more than once.
    """
    wrap = wrap or (lambda v: v)
    rng = np.random.default_rng(seed)
    strata = [(p, n) for p in (1.5, 2.0, 3.0) for n in (0, 1)]
    draws = [tuple(_lhs(rng, RATIO_BLOCKS) for _ in range(4)) for _ in range(len(strata) + 1)]
    ops: list[Op] = []
    for blk in range(RATIO_BLOCKS):
        block = []
        for s, (p, n) in enumerate(strata):
            u_D, u_c, u_a, u_T = (d[blk] for d in draws[s])
            N = 3 + (blk + s) % 6
            c = -2.0 + 4.0 * u_c
            D = 0.8 + 8.2 * u_D
            b = D - ((N - 2 + c) / 2.0) ** 2
            alpha = oracle.base(N, c, p) + (-0.7 + 1.4 * u_a) * math.sqrt(D)
            T = 50.0 * 8.0 ** u_T
            C = oracle.certified_constant(N, c, b, p, alpha)
            den = oracle.bump_norm(-T, T, p)

            def check(rep, C=C, den=den):
                return (_close(rep.denominator, den, 1e-9)
                        and rep.ratio >= C * (1.0 - 1e-9))

            block.append(Op(
                _call("radial", "rellich_ratio_separable", OperatorParams(N, c, b),
                      p, alpha, n, wrap(plateau_profile(T))),
                check,
                f"ratio p={p:g} n={n}",
            ))
        u_lam, u_c, _, u_T = (d[blk] for d in draws[-1])
        N = 3 + blk % 6
        corpus = [(blk % 2, wrap(plateau_profile(50.0 * 8.0 ** u_T)))]
        block.append(Op(
            _call("verify", "verify_dissipativity",
                  OperatorParams(N, -2.0 + 4.0 * u_c), 2.0, 0.5 + 4.5 * u_lam, corpus),
            lambda rep: rep.passed,
            "dissipativity p=2",
        ))
        ops += [block[i] for i in rng.permutation(len(block))]
    return ops


# ---------------------------------------------------------------------------
# cli-mix


def _fmt(x: float) -> str:
    return "inf" if math.isinf(x) else repr(float(x))


def _main_inprocess(argv: list[str]) -> tuple[int, str]:
    """rellich.cli.main(argv) in this process: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = _lib("cli", "main", argv)
    return code, buf.getvalue()


def _main_child(argv: list[str], env: dict, cwd: str) -> tuple[int, str]:
    out = subprocess.run([sys.executable, "-m", "rellich.cli", *argv], env=env,
                         cwd=cwd, capture_output=True, text=True, timeout=120)
    return out.returncode, out.stdout


def child_env() -> dict:
    """This process's environment, with src/ first on PYTHONPATH."""
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("RELLICH_TOL", None)
    return env


def _cli_argvs(rng) -> list[tuple[list[str], int]]:
    """(argv, documented exit code) for check, sweep, spectrum, counterexample, verify."""
    doms = {"rn": "whole_space", "ball": "unit_ball", "exterior-ball": "exterior_ball"}
    jtext = {"all": "all", "at_least": "ge:1", "finite": "set:0,2", "excluding": "ne:0"}
    jval = {"all": ("all",), "at_least": ("at_least", 1), "finite": ("finite", (0, 2)),
            "excluding": ("excluding", (0,))}
    out = []
    for blk in range(CLI_BLOCKS):
        block = []
        N, c = 3 + blk % 6, float(rng.uniform(-2, 2))

        def common(D, p):
            b = D - ((N - 2 + c) / 2.0) ** 2
            return b, ["--N", str(N), f"--c={_fmt(c)}", f"--b={_fmt(b)}", "--p", _fmt(p)]

        # check: one decision, exit 0 if it holds and 2 if it fails
        p = P_SWEEP[blk % 5]
        dom = ("rn", "ball", "exterior-ball")[blk % 3]
        jk = J_KINDS[blk % 4] if dom != "exterior-ball" else "all"
        b, args = common(float(rng.uniform(-1, 9)), p)
        if blk % 5 == 0:
            alpha = critical_alphas(OperatorParams(N, c, b), p, int(rng.integers(3)))[blk % 2]
        else:
            alpha = oracle.base(N, c, p) + float(rng.choice([-1, 1])) * 10.0 ** float(
                rng.uniform(-2, 1.5))
        modes, _ = oracle.decide(N, c, b, p, alpha, doms[dom], jval[jk])
        block.append((["check", *args, f"--alpha={_fmt(alpha)}", "--domain", dom,
                       "--J", jtext[jk]], 2 if modes else 0))
        # check --sweep-alpha: CSV rows on stdout, exit 0
        p = P_SWEEP[(blk + 2) % 5]
        b, args = common(float(rng.uniform(0.5, 9)), p)
        bs = oracle.base(N, c, p)
        lo, hi = bs - float(rng.uniform(2, 4)), bs + float(rng.uniform(2, 4))
        block.append((["check", *args, "--domain", ("rn", "ball")[blk % 2],
                       f"--sweep-alpha={_fmt(lo)}:{_fmt(hi)}:101"], 0))
        # spectrum: classify one point, exit 0
        p = P_SWEEP[(blk + 1) % 5]
        _, args = common(float(rng.uniform(0, 9)), p)
        where = (["--interval", "half"], ["--interval", "unit"],
                 ["--domain", "rn", "--J", "ge:1"], ["--domain", "ball"])[blk % 4]
        lam = f"--lambda={_fmt(float(rng.uniform(-30, 2)))},{_fmt(float(rng.uniform(-5, 5)))}"
        block.append((["spectrum", *args, *where, lam], 0))
        # counterexample: epsilon family at a critical exponent, real roots
        p = (1.5, 2.0, 3.0)[blk % 3]
        _, args = common(float(rng.uniform(2.25, 6)), p)
        block.append((["counterexample", *args, "--n", str(blk % 3), "--mode",
                       ("minus", "plus")[blk % 2], "--eps", "0.1,0.05,0.025"], 0))
        # verify rellich at p = 2 in the certified range: passes, exit 0
        D = float(rng.uniform(0.8, 9))
        _, args = common(D, 2.0)
        alpha = oracle.base(N, c, 2.0) + float(rng.uniform(-0.7, 0.7)) * math.sqrt(D)
        block.append((["verify", "rellich", *args, f"--alpha={_fmt(alpha)}",
                       "--domain", ("rn", "ball")[blk % 2], "--count", "2",
                       "--harmonics", "0,1", "--seed", str(int(rng.integers(1000)))], 0))
        out += [block[i] for i in rng.permutation(len(block))]
    return out


def build_cli(seed: int, wrap=None) -> list[Op]:
    """Invocations of python -m rellich.cli, one child at a time.

    The reference stdout of each argv is rellich.cli.main(argv) run in this
    process; every child must reproduce it byte for byte and exit with the
    documented code.
    """
    rng = np.random.default_rng(seed)
    env, cwd = child_env(), str(ROOT)
    ops = []
    for argv, code in _cli_argvs(rng):
        ref_code, ref_out = _main_inprocess(argv)

        def check(res, code=code, ref=(ref_code, ref_out)):
            return res == ref and res[0] == code

        ops.append(Op(lambda argv=argv: _main_child(argv, env, cwd), check,
                      f"cli {argv[0]}", local=lambda argv=argv: _main_inprocess(argv)))
    return ops


BUILDERS = {
    "decide-sweep": build_decide,
    "verify-sweep": build_verify,
    "ratio-smooth": build_ratio,
    "cli-mix": build_cli,
}
