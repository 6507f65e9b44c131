"""Acceptance suite: one test per shipping criterion, pinned tolerances.

Each test prints a single `[acceptance] criterion N: PASS|FAIL` line so the
run log doubles as the sign-off record.
"""

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.special import gamma as Gamma

from fjerk.chaos import (
    CHAOTIC,
    PERIODIC,
    classify_attractor,
    cluster_values,
    extract_extrema,
    spectrum_from_log,
    sweep_bifurcation,
)
from fjerk.exceptions import CaseNotSatisfied, NoPositiveRoot, ZeroCoefficient
from fjerk.hopf import (
    aa4_polynomial,
    discriminant_delta,
    gamma_H_incomm,
    hopf_commensurate,
    hopf_incommensurate,
    r_candidates,
    sign_change_analysis,
)
from fjerk.model import JerkParams, OrderSpec, ReducedOrders, vector_field
from fjerk.solver import SolveConfig, caputo_abm, integrate, integrate_with_tangent

A, B = 0.129, 7.0


@contextmanager
def report(n):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {n}: FAIL")
        raise
    print(f"[acceptance] criterion {n}: PASS")


def mittag_leffler_minus(alpha, t, n_terms=200):
    acc = np.zeros_like(t, dtype=float)
    term_mag = None
    for k in range(n_terms):
        term = (-1.0) ** k * t ** (alpha * k) / Gamma(alpha * k + 1.0)
        acc += term
        term_mag = np.max(np.abs(term))
    # alternating series with eventually decreasing terms: the remainder is
    # bounded by the last included term, which must be negligible
    assert term_mag < 1e-12
    return acc


def test_criterion_1_solver_accuracy_vs_mittag_leffler():
    with report(1):
        for alpha in (0.5, 0.7, 0.99):
            t0 = time.monotonic()
            t, Y, _ = caputo_abm(lambda t, u: -u, [alpha], [1.0], 1e-3, 1000)
            exact = mittag_leffler_minus(alpha, t)
            rel = abs(Y[-1, 0] - exact[-1]) / abs(exact[-1])
            assert rel < 1e-4, f"alpha={alpha}: relative error {rel:g} at t=1"
            assert time.monotonic() - t0 < 5.0


def test_criterion_2_integer_order_matches_runge_kutta():
    with report(2):
        params = JerkParams(A, B, 5.0)
        cfg = SolveConfig(h=2e-4, t_end=10.0, initial_state=(0.0, 0.0, 0.0))
        traj = integrate(params, OrderSpec.commensurate(1.0), cfg)
        sol = solve_ivp(
            lambda t, s: vector_field(params, s),
            (0.0, cfg.t_end),
            cfg.initial_state,
            rtol=1e-10,
            atol=1e-12,
            dense_output=True,
        )
        ref = sol.sol(traj.t).T
        sup = np.max(np.abs(traj.states - ref))
        assert sup < 1e-4, f"sup-norm difference {sup:g}"


def test_criterion_3_modulus_candidate_property_suite():
    with report(3):
        rng = np.random.default_rng(31337)
        t0 = time.monotonic()
        for case in ("I", "II"):
            for _ in range(1000):
                if case == "I":
                    alpha = rng.uniform(2.0 / 3.0 + 1e-4, 1.0)
                    b = rng.uniform(0.1, 10.0)
                else:
                    alpha = rng.uniform(1e-3, 2.0 / 3.0 - 1e-4)
                    b = -rng.uniform(0.1, 10.0)
                p = JerkParams(rng.uniform(0.05, 2.0), b, rng.uniform(-8.0, 8.0))
                theta = np.pi * alpha / 2.0
                assert discriminant_delta(p, theta) > 0.0
                rc = r_candidates(p, theta)
                assert rc.product < 0.0
                assert (rc.r1 > 0.0) != (rc.r2 > 0.0)
                assert abs(rc.r1 * rc.r2 - rc.product) <= 1e-10 * max(
                    1.0, abs(rc.product)
                )
        assert time.monotonic() - t0 < 1.0


def test_criterion_4_hopf_residuals_and_integer_edge():
    with report(4):
        for alpha in (0.91, 0.98, 0.99):
            for branch in ("plus", "minus"):
                sol = hopf_commensurate(A, B, alpha, branch)
                assert abs(sol.residual_re) < 1e-8
                assert abs(sol.residual_im) < 1e-8
        for branch in ("plus", "minus"):
            assert hopf_commensurate(A, B, 1.0, branch).epsilon_H == 0.0


def test_criterion_5_reduction_equivalence():
    with report(5):
        rng = np.random.default_rng(550)
        done = 0
        while done < 50:
            u = int(rng.integers(3, 30))
            lo = int(np.floor(2.0 * u / 3.0)) + 1
            if lo > u:
                continue
            v = int(rng.integers(lo, u + 1))
            frac = Fraction(v, u)
            if abs(float(frac) - 2.0 / 3.0) < 2e-3:
                continue
            orders = OrderSpec.incommensurate(frac, frac, frac)
            try:
                sol_i = hopf_incommensurate(A, B, orders, "plus")
            except (CaseNotSatisfied, ZeroCoefficient):
                continue
            sol_c = hopf_commensurate(A, B, float(frac), "plus")
            gamma_i = sol_i.gamma_H ** sol_i.reduced.p
            assert abs(gamma_i - sol_c.gamma_H) <= 1e-9 * max(1.0, abs(sol_c.gamma_H))
            assert abs(sol_i.epsilon_H - sol_c.epsilon_H) <= 1e-9 * max(
                1.0, abs(sol_c.epsilon_H)
            )
            done += 1


def test_criterion_6_sign_change_oracle():
    with report(6):
        rng = np.random.default_rng(66)
        t0 = time.monotonic()
        matched = 0
        for p in range(1, 9):
            for q in range(1, 9):
                for m in range(1, p + 1):  # p >= m: guaranteed cases I/III
                    M = max(p, q, m)
                    red = ReducedOrders(M=M, p=p, q=q, m=m)
                    for _ in range(20):
                        a = float(rng.uniform(0.05, 2.0))
                        b = float(rng.uniform(0.2, 10.0))
                        try:
                            poly = aa4_polynomial(a, b, red, "plus")
                            rep = sign_change_analysis(poly, red)
                        except ZeroCoefficient:
                            continue
                        signs = [1 if c > 0 else -1 for _, c in poly.terms]
                        brute = sum(
                            1 for x, y in zip(signs, signs[1:]) if x != y
                        )
                        assert rep.inversions == brute
                        if brute != 1:
                            continue
                        try:
                            gamma = gamma_H_incomm(a, b, red, "plus")
                        except NoPositiveRoot:
                            raise AssertionError(
                                f"guaranteed root missing for {(p, q, m)}"
                            )
                        deg = poly.terms[0][0]
                        c = np.zeros(deg + 1)
                        for e, co in poly.terms:
                            c[deg - e] += co
                        roots = np.roots(c)
                        pos = [
                            r.real
                            for r in roots
                            if abs(r.imag) < 1e-7 * max(1.0, abs(r))
                            and r.real > 1e-12
                        ]
                        assert len(pos) == 1, f"{(p, q, m)}: {sorted(pos)}"
                        assert abs(gamma - pos[0]) <= 1e-9 * max(1.0, pos[0])
                        matched += 1
        assert matched > 2000
        assert time.monotonic() - t0 < 10.0


def test_criterion_7_chaos_reproduction():
    with report(7):
        t0 = time.monotonic()
        cfg = SolveConfig(h=0.005, t_end=300.0, initial_state=(0.0, 0.0, 0.0))

        def run(alpha, eps):
            traj, log = integrate_with_tangent(
                JerkParams(A, B, eps), OrderSpec.commensurate(alpha), cfg, 200
            )
            spec = spectrum_from_log(log, cfg, 0.3)
            extrema = extract_extrema(traj, 0.3)
            return spec, classify_attractor(extrema, spec)

        spec, cls = run(0.99, 7.780)
        assert spec.lambda1 > 0.0
        assert cls.kind == CHAOTIC

        spec, _ = run(0.98, 7.750)
        assert spec.lambda1 <= 0.0

        spec, cls = run(0.99, 3.783)
        assert cls.kind == PERIODIC and cls.n_clusters == 1
        assert time.monotonic() - t0 < 300.0


def test_criterion_8_two_branch_structure():
    with report(8):
        cfg = SolveConfig(h=0.005, t_end=300.0, initial_state=(0.0, 0.0, 0.0))
        res = sweep_bifurcation(
            JerkParams(A, B, 0.0),
            OrderSpec.commensurate(0.91),
            (3.781, 7.780),
            100,
            cfg,
            transient_fraction=0.3,
            workers=1,
        )
        assert len(res.points) == 100
        pt = res.points[-1]
        assert pt.epsilon == pytest.approx(7.780)
        assert not pt.diverged
        union = np.concatenate([pt.maxima, pt.minima])
        tol = 1e-2 * (union.max() - union.min())
        assert len(cluster_values(union, tol)) == 2


def test_criterion_9_incommensurate_chaos():
    with report(9):
        t0 = time.monotonic()
        orders = OrderSpec.incommensurate("1", "99/100", "1")

        cfg = SolveConfig(h=0.005, t_end=300.0, initial_state=(0.0, 0.0, 0.0))
        traj, log = integrate_with_tangent(JerkParams(A, B, 7.913), orders, cfg, 200)
        spec = spectrum_from_log(log, cfg, 0.3)
        assert spec.lambda1 > 0.0
        maxima, minima = extract_extrema(traj, 0.3)
        spread = float(
            np.concatenate([maxima, minima]).max()
            - np.concatenate([maxima, minima]).min()
        )
        assert len(cluster_values(maxima, 1e-3 * spread)) > 20

        # a periodic orbit has exact lambda1 = 0; the finite-horizon estimate
        # decays like 1/t_end, so the window is doubled to push the bias well
        # below the chaos threshold
        cfg2 = SolveConfig(h=0.005, t_end=600.0, initial_state=(0.0, 0.0, 0.0))
        traj2 = integrate(JerkParams(A, B, 4.102), orders, cfg2)
        cls = classify_attractor(extract_extrema(traj2, 0.5))
        assert cls.kind == PERIODIC and cls.n_clusters <= 2
        assert time.monotonic() - t0 < 300.0


def test_criterion_10_sweep_determinism_across_threads(tmp_path):
    with report(10):
        outputs = []
        for threads in ("1", "4"):
            out_dir = tmp_path / f"t{threads}"
            env = dict(os.environ, FJERK_THREADS=threads)
            proc = subprocess.run(
                [
                    sys.executable, "-m", "fjerk.cli", "sweep",
                    "--a", "0.129", "--b", "7", "--alpha", "0.91",
                    "--eps-min", "7.0", "--eps-max", "7.6", "--n", "6",
                    "--h", "0.01", "--t-end", "30", "--x0", "0.1,0,0",
                    "--out", str(out_dir),
                ],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            with open(out_dir / "sweep.csv", "rb") as fh:
                outputs.append(fh.read())
        assert outputs[0] == outputs[1]
