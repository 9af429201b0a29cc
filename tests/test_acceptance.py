"""Acceptance criteria: one test per criterion, pinned tolerances and budgets.

Run as a module for a standalone report:

    python -m pytest tests/test_acceptance.py -v
    python tests/test_acceptance.py          # prints PASS/FAIL per criterion
"""

import math
import time

import numpy as np
import scipy.linalg

from rellich import (
    DomainKind,
    HarmonicSet,
    OperatorParams,
    base_alpha,
    best_constant,
    bump,
    counterexample_ratio,
    critical_alphas,
    decide,
    discriminant,
    dist_to_parabola,
    eigen_lambda,
    fit_loglog_slope,
    gamma_p,
    kelvin_transform,
    lemma_parameters_flags,
    oned_green_reconstruct,
    plateau_profile,
    rellich_ratio_separable,
    verify_aux_remainder,
    verify_critical_log,
    verify_rellich,
    verify_remainder,
)
from rellich.params import EPS_LADDER

P5 = OperatorParams(5, 0, 0)
INF = math.inf
ALL = HarmonicSet.all()


def _report(num, name, t, budget, detail=""):
    extra = f" ({detail})" if detail else ""
    print(f"[acceptance] {num:>2}. {name}: PASS in {t:.3f}s (budget {budget:g}s){extra}")


def test_c01_classical_constants():
    t0 = time.perf_counter()
    c5 = best_constant(P5, 2, 0.0)
    c10 = best_constant(OperatorParams(10, 0, 0), 2, 0.0)
    t = time.perf_counter() - t0
    assert abs(c5 - 1.25) <= 1e-12
    assert abs(c10 - 15.0) <= 1e-12
    assert t < 1e-3, f"runtime {t}s exceeds 1 ms"
    _report(1, "classical constants", t, 1e-3, f"C5={c5}, C10={c10}")


def test_c02_laplacian_ball_characterization():
    t0 = time.perf_counter()
    tol = 1e-9
    mismatches = 0
    total = 0
    for N in range(3, 9):
        for p in (1.5, 2.0, 3.0, INF):
            inv = 0.0 if math.isinf(p) else 1.0 / p
            kink = N * (1.0 - inv)
            excl = [2.0 - N * inv - n for n in range(0, 11)]
            for alpha in np.linspace(-8.0, 8.0, 400):
                a = float(alpha)
                closed_holds = (a < kink - tol) and all(
                    abs(a - e) > tol for e in excl
                )
                got = decide(OperatorParams(N), p, a, DomainKind.UNIT_BALL, ALL, tol).holds
                total += 1
                mismatches += got != closed_holds
    t = time.perf_counter() - t0
    assert mismatches == 0, f"{mismatches}/{total} grid mismatches"
    assert t < 1.0, f"runtime {t}s exceeds 1 s"
    _report(2, "Laplacian ball characterization", t, 1.0, f"{total} grid points")


def test_c03_parameter_lemma_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 10_000:
        N = int(rng.integers(2, 13))
        c = float(rng.uniform(-4, 4))
        b = float(rng.uniform(-5, 5))
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0, 5.0, INF]))
        alpha = float(rng.uniform(-6, 6))
        j = int(rng.integers(0, 6))
        P = OperatorParams(N, c, b)
        lam = eigen_lambda(N, j)
        if abs(b + gamma_p(N, p, alpha, c) + lam) < 1e-7:
            continue
        if abs(discriminant(P) + lam) < 1e-7:
            continue
        flags = lemma_parameters_flags(P, p, alpha, j)
        assert len(set(flags)) == 1, (N, c, b, p, alpha, j, flags)
        checked += 1
    t = time.perf_counter() - t0
    assert t < 1.0, f"runtime {t}s exceeds 1 s"
    _report(3, "parameter lemma equivalence", t, 1.0, f"{checked} draws")


def test_c04_counterexample_decay():
    t0 = time.perf_counter()
    eps = [0.1, 0.05, 0.025]
    slopes = {}
    for p in (2.0, 3.0, INF):
        ratios = [r.ratio for r in counterexample_ratio(P5, p, 0, "minus", eps)]
        slopes[p] = fit_loglog_slope(eps, ratios)
        assert 0.95 <= slopes[p] <= 1.05, (p, slopes[p], ratios)
    t = time.perf_counter() - t0
    assert t < 5.0, f"runtime {t}s exceeds 5 s"
    detail = ", ".join(f"p={p:g}: {s:.4f}" for p, s in slopes.items())
    _report(4, "counterexample decay slopes", t, 5.0, detail)


def _inrange_cases(count, seed=77):
    rng = np.random.default_rng(seed)
    cases = [(P5, 2.0, 0.0)]
    while len(cases) < count:
        N = int(rng.integers(3, 9))
        c = float(rng.uniform(-2, 2))
        D = float(rng.uniform(0.8, 9.0))
        b = D - ((N - 2 + c) / 2) ** 2
        p = float(rng.choice([1.5, 2.0, 3.0]))
        P = OperatorParams(N, c, b)
        alpha = base_alpha(P, p) + float(rng.uniform(-0.7, 0.7)) * math.sqrt(D)
        if best_constant(P, p, alpha) is None:
            continue
        cases.append((P, p, alpha))
    return cases


def test_c05_extremizer_convergence():
    t0 = time.perf_counter()
    v200 = plateau_profile(200.0)
    for P, p, alpha in _inrange_cases(10):
        C = best_constant(P, p, alpha)
        ratio = rellich_ratio_separable(P, p, alpha, 0, v200).ratio
        assert abs(ratio - C) <= 0.02 * C, (P, p, alpha, ratio, C)
    t = time.perf_counter() - t0
    assert t < 10.0, f"runtime {t}s exceeds 10 s"
    _report(5, "extremizer convergence at T=200", t, 10.0, "10 parameter sets")


def test_c06_parabola_distance_oracle():
    from test_spectral import brute_force_distance

    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(1000):
        beta = float(rng.uniform(-5, 5))
        lam = float(rng.uniform(-50, 10))
        err = abs(dist_to_parabola(beta, lam) - brute_force_distance(beta, lam))
        worst = max(worst, err)
    t = time.perf_counter() - t0
    assert worst < 1e-8, f"max error {worst}"
    assert t < 1.0, f"runtime {t}s exceeds 1 s"
    _report(6, "parabola distance formula", t, 1.0, f"max err {worst:.2e}")


def test_c07_discretized_ode_spectrum():
    t0 = time.perf_counter()
    S, n = 200.0, 10_000
    h = S / (n + 1)
    inflation = 1e-2
    for beta in (-1.0, 0.0, 1.0):
        upper = 1.0 / h**2 + beta / (2 * h)
        lower = 1.0 / h**2 - beta / (2 * h)
        assert upper > 0 and lower > 0  # symmetrizable
        d = np.full(n, -2.0 / h**2)
        e = np.full(n - 1, math.sqrt(upper * lower))
        eigs = scipy.linalg.eigvalsh_tridiagonal(d, e)
        # Q(beta) contains the nonpositive real axis; Hausdorff inflation
        # tolerates tiny positive drift
        assert float(np.max(eigs)) <= inflation, (beta, float(np.max(eigs)))
        if beta > 0:
            # interior eigenvalues are certified for positive drift
            assert float(np.max(eigs)) < 0.0
            assert float(np.max(eigs)) <= -(beta**2) / 4 + inflation
    t = time.perf_counter() - t0
    assert t < 60.0, f"runtime {t}s exceeds 60 s"
    _report(7, "discretized ODE spectrum in Q", t, 60.0, f"{n} mesh points x 3 drifts")


def test_c08_one_dimensional_identities():
    t0 = time.perf_counter()
    for beta in (1.0, -2.0):
        err = oned_green_reconstruct(beta, bump(1.0, 2.0))
        assert err < 1e-6, (beta, err)
    rng = np.random.default_rng(8)
    for _ in range(50):
        beta = float(rng.uniform(-4, 4))
        lam = float(rng.uniform(0.05, 5))
        p = float(rng.uniform(1.2, 4.0))
        c0 = float(rng.uniform(0.5, 8))
        w = float(rng.uniform(0.3, 0.9)) * c0
        rep = verify_aux_remainder(beta, lam, p, bump(c0 - w, c0 + w))
        assert rep.passed and rep.min_margin >= -rep.tolerance
    t = time.perf_counter() - t0
    assert t < 5.0, f"runtime {t}s exceeds 5 s"
    _report(8, "one-dimensional identities", t, 5.0, "Green + 50 aux draws")


def test_c09_remainder_inequality():
    t0 = time.perf_counter()
    corpus = [
        bump(0.8, 2.0), bump(1.0, 4.0), bump(2.0, 3.0), bump(3.0, 7.0),
        bump(1.5, 9.0), bump(5.0, 6.5), bump(0.75, 1.25),
        bump(9.0, 9.8),      # r ~ 1e-4
        bump(11.0, 12.5),    # r ~ 1e-5
        bump(13.5, 14.5),    # r ~ 1e-6, deep-log stress
    ]
    rep = verify_remainder(P5, 2, 0.0, corpus)
    t = time.perf_counter() - t0
    assert "c_rem=0.3125" in rep.claim
    assert rep.passed and len(rep.samples) == 10
    assert all(m >= -rep.tolerance for *_d, m in rep.samples)
    assert t < 10.0, f"runtime {t}s exceeds 10 s"
    _report(9, "remainder inequality c=0.3125", t, 10.0,
            f"min margin {rep.min_margin:.3g}")


def test_c10_critical_logarithmic():
    t0 = time.perf_counter()
    rep = verify_critical_log(P5, 2, 0, "minus")
    t = time.perf_counter() - t0
    weighted = [lhs for _d, lhs, *_ in rep.samples]
    unweighted = [r.ratio for r in counterexample_ratio(P5, 2, 0, "minus", EPS_LADDER)]
    assert min(weighted) > 0.1, weighted
    # stability of the weighted family vs collapse of the unweighted one
    assert min(weighted) >= 0.25 * max(weighted), weighted
    assert unweighted[-1] <= 0.25 * unweighted[0], unweighted
    assert rep.passed
    assert t < 10.0, f"runtime {t}s exceeds 10 s"
    _report(10, "critical logarithmic inequality", t, 10.0,
            f"inf weighted {min(weighted):.4g}")


def test_c11_kelvin_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    agree = 0
    for _ in range(1000):
        N = int(rng.integers(2, 11))
        c = float(rng.uniform(-4, 4))
        b = float(rng.uniform(-5, 5))
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0, INF]))
        alpha = float(rng.uniform(-6, 6))
        P = OperatorParams(N, c, b)
        v1 = decide(P, p, alpha, DomainKind.EXTERIOR_BALL)
        tp, ta = kelvin_transform(P, p, alpha)
        v2 = decide(tp, p, ta, DomainKind.UNIT_BALL)
        agree += v1.holds == v2.holds
    t = time.perf_counter() - t0
    assert agree == 1000, f"{agree}/1000 agreements"
    assert t < 1.0, f"runtime {t}s exceeds 1 s"
    _report(11, "Kelvin exterior/ball consistency", t, 1.0, "1000/1000")


def test_c12_full_sweep_coherence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    corpus = [(0, bump(1.0, 3.0)), (1, bump(2.0, 6.0))]
    holds_count = fails_count = 0
    done = 0
    while done < 200:
        N = int(rng.integers(3, 9))
        c = float(rng.uniform(-2, 2))
        p = float(rng.choice([1.5, 2.0, 3.0, 1.0, INF]))
        domain = DomainKind.WHOLE_SPACE if rng.integers(2) else DomainKind.UNIT_BALL
        if rng.integers(2):
            # inside the certified range: the decision holds with C
            D = float(rng.uniform(0.8, 9.0))
            b = D - ((N - 2 + c) / 2) ** 2
            P = OperatorParams(N, c, b)
            alpha = base_alpha(P, p) + float(rng.uniform(-0.7, 0.7)) * math.sqrt(D)
            if best_constant(P, p, alpha) is None:
                continue
            rep = verify_rellich(P, p, alpha, domain, ALL, corpus)
            assert rep.passed, (P, p, alpha, domain, rep.samples)
            holds_count += 1
        else:
            # exactly critical, real roots well separated (D >= 2.25 keeps
            # the epsilon-family in its asymptotic decay regime); the ball
            # turns the plus branch into a boundary obstruction, checked
            # through the harmonic witness instead
            n = int(rng.integers(0, 3))
            D = float(rng.uniform(2.25, 6.0))
            b = D - ((N - 2 + c) / 2) ** 2
            P = OperatorParams(N, c, b)
            branch = int(rng.integers(2))
            alpha = critical_alphas(P, p, n)[branch]
            rep = verify_rellich(P, p, alpha, domain, ALL, corpus)
            assert rep.passed, (P, p, alpha, domain, rep.samples)
            fails_count += 1
        done += 1
    t = time.perf_counter() - t0
    assert t < 120.0, f"runtime {t}s exceeds 120 s"
    _report(12, "full-sweep decision/numerics coherence", t, 120.0,
            f"{holds_count} holds + {fails_count} failure modes")


ALL_CRITERIA = [
    test_c01_classical_constants,
    test_c02_laplacian_ball_characterization,
    test_c03_parameter_lemma_equivalence,
    test_c04_counterexample_decay,
    test_c05_extremizer_convergence,
    test_c06_parabola_distance_oracle,
    test_c07_discretized_ode_spectrum,
    test_c08_one_dimensional_identities,
    test_c09_remainder_inequality,
    test_c10_critical_logarithmic,
    test_c11_kelvin_consistency,
    test_c12_full_sweep_coherence,
]


def main():
    failures = 0
    for fn in ALL_CRITERIA:
        try:
            fn()
        except Exception as exc:  # keep going; report every criterion
            failures += 1
            num = fn.__name__[6:8]
            print(f"[acceptance] {int(num):>2}. {fn.__name__}: FAIL ({exc})")
    total = len(ALL_CRITERIA)
    print(f"[acceptance] {total - failures}/{total} criteria passed")
    return 1 if failures else 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
