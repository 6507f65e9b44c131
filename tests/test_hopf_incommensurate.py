import cmath
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from fjerk import hopf
from fjerk.exceptions import (
    CaseNotSatisfied,
    NoPositiveRoot,
    UnsupportedClassification,
    ZeroCoefficient,
)
from fjerk.hopf import (
    aa4_polynomial,
    char_eval_polar_incomm,
    classify_stability,
    epsilon_H_incomm,
    gamma_H_incomm,
    hopf_commensurate,
    hopf_incommensurate,
    sign_change_analysis,
)
from fjerk.model import JerkParams, OrderSpec, ReducedOrders, equilibria, reduce_orders

A, B = 0.129, 7.0
RNG = np.random.default_rng(424242)

# Frozen critical pair for orders (1, 99/100, 1), branch plus; gamma is the
# modulus in the lifted variable, cross-checked against the lone positive real
# root of the dense companion form of the eliminated polynomial.
GOLDEN_INCOMM = (1.009826644716634, -0.10070851511176636)


def lifted_roots(params, reduced, branch):
    """Companion-matrix oracle: roots of the dense lifted characteristic."""
    s = -1.0 if branch == "plus" else 1.0
    deg = reduced.p + reduced.q + reduced.m
    c = np.zeros(deg + 1)
    c[0] = 1.0
    c[deg - (reduced.p + reduced.q)] += params.a * params.epsilon
    c[deg - reduced.p] += params.b
    c[deg] += s * 2.0 * params.epsilon
    return np.roots(c)


# ---------------------------------------------------------------- polar evaluation


def test_polar_eval_matches_complex_oracle():
    red = ReducedOrders(M=10, p=9, q=8, m=10)
    p = JerkParams(0.4, 3.0, 1.2)
    for r in (0.3, 1.0, 1.7):
        re, im = char_eval_polar_incomm(p, red, "plus", r)
        lam = r * cmath.exp(1j * red.theta)
        val = (
            lam ** (red.p + red.q + red.m)
            + p.a * p.epsilon * lam ** (red.p + red.q)
            + p.b * lam**red.p
            - 2.0 * p.epsilon
        )
        assert re == pytest.approx(val.real, rel=1e-10, abs=1e-12)
        assert im == pytest.approx(val.imag, rel=1e-10, abs=1e-12)


def test_polar_eval_high_degree_stays_finite():
    red = reduce_orders(OrderSpec.incommensurate("1", "99/100", "1"))
    p = JerkParams(A, B, 0.5)
    re, im = char_eval_polar_incomm(p, red, "plus", 1.01)
    assert math.isfinite(re) and math.isfinite(im)


def test_polar_eval_rejects_nonpositive_r():
    red = ReducedOrders(M=4, p=4, q=3, m=2)
    with pytest.raises(ValueError):
        char_eval_polar_incomm(JerkParams(A, B, 1.0), red, "plus", 0.0)


# ---------------------------------------------------------------- eliminated polynomial


def test_aa4_exponents_nearly_commensurate():
    red = reduce_orders(OrderSpec.incommensurate("1", "99/100", "1"))
    poly = aa4_polynomial(A, B, red, "plus")
    # p = m = 100: collapsed three-term form divided through by r^p
    assert tuple(e for e, _ in poly.terms) == (398, 199, 0)


def test_aa4_exponents_distinct_orders():
    red = reduce_orders(OrderSpec.incommensurate("1/2", "1/3", "1/4"))
    # (M, p, q, m) = (12, 6, 4, 3): p > m, four distinct exponents
    poly = aa4_polynomial(A, B, red, "plus")
    assert tuple(e for e, _ in poly.terms) == (23, 16, 13, 6)


def test_aa4_leading_coefficient_sign():
    red = reduce_orders(OrderSpec.incommensurate("1/2", "1/3", "1/4"))
    poly = aa4_polynomial(A, B, red, "plus")
    # leading coefficient a*sin(m*theta) > 0 for m*theta in (0, pi/2]
    assert poly.terms[0][1] > 0.0


def test_aa4_descending_exponents_property():
    for _ in range(100):
        M = int(RNG.integers(2, 12))
        p, q, m = (int(RNG.integers(1, M + 1)) for _ in range(3))
        red = ReducedOrders(M=M, p=p, q=q, m=m)
        poly = aa4_polynomial(
            float(RNG.uniform(0.05, 2.0)), float(RNG.uniform(0.2, 9.0)), red, "plus"
        )
        exps = [e for e, _ in poly.terms]
        assert all(x > y for x, y in zip(exps, exps[1:]))


def test_aa4_root_solves_polar_system():
    # at gamma_H the eliminated polynomial vanishes together with both polar
    # parts once eps_H is substituted back
    red = reduce_orders(OrderSpec.incommensurate("1", "99/100", "1"))
    gamma = gamma_H_incomm(A, B, red, "plus")
    eps = epsilon_H_incomm(A, B, red, gamma, "plus")
    re, im = char_eval_polar_incomm(JerkParams(A, B, eps), red, "plus", gamma)
    assert abs(re) < 1e-8
    assert abs(im) < 1e-8


# ---------------------------------------------------------------- sign cases


def test_sign_case_one_single_inversion():
    red = reduce_orders(OrderSpec.incommensurate("1/2", "1/3", "1/4"))
    rep = sign_change_analysis(aa4_polynomial(A, B, red, "plus"), red)
    assert rep.case_label == "I"
    assert rep.subcase is None
    assert rep.inversions == 1
    assert rep.positive_root_guaranteed


def test_sign_case_three_collapsed():
    red = reduce_orders(OrderSpec.incommensurate("1", "99/100", "1"))
    rep = sign_change_analysis(aa4_polynomial(A, B, red, "plus"), red)
    assert rep.case_label == "III"
    assert rep.inversions == 1
    assert len(rep.sign_sequence) == 3


def test_sign_case_two_subcase_label():
    red = reduce_orders(OrderSpec.incommensurate("9/10", "1", "1"))
    rep = sign_change_analysis(aa4_polynomial(A, B, red, "plus"), red)
    assert rep.case_label == "II"
    assert rep.subcase == "ii"  # (p+q+m)*theta = 29*pi/20 > pi


def test_sign_counts_match_brute_force():
    for _ in range(300):
        M = int(RNG.integers(2, 10))
        p, q, m = (int(RNG.integers(1, M + 1)) for _ in range(3))
        red = ReducedOrders(M=M, p=p, q=q, m=m)
        a = float(RNG.uniform(0.05, 2.0))
        b = float(RNG.uniform(0.2, 9.0))
        try:
            poly = aa4_polynomial(a, b, red, "plus")
            rep = sign_change_analysis(poly, red)
        except ZeroCoefficient:
            continue
        signs = [1 if c > 0 else -1 for _, c in poly.terms]
        brute = sum(1 for x, y in zip(signs, signs[1:]) if x != y)
        assert rep.inversions == brute
        assert rep.positive_root_guaranteed == (brute == 1)


def test_zero_coefficient_raises():
    # q*theta = pi with q = 2, M = 1 is impossible (q <= M); use m*theta: with
    # M = 2, m = 2 the leading coefficient a*sin(pi/2*2/2) stays positive, so
    # force sin(q*theta) = 0 instead via q = 2M -> not representable. Use the
    # constant term: sin(p*theta) = 0 needs p*theta = pi, i.e. p = 2M, also
    # impossible. The reachable degeneracy is the collapsed middle term.
    red = ReducedOrders(M=4, p=3, q=2, m=3)  # p = m: collapsed form
    theta = red.theta
    # choose a*b so that -a*b*sin(q*theta) + s2*sin((2p+q)*theta) ~ 0
    target = -2.0 * math.sin((2 * red.p + red.q) * theta) / math.sin(red.q * theta)
    a = 1.0
    b = target / a
    with pytest.raises(ZeroCoefficient):
        sign_change_analysis(aa4_polynomial(a, b, red, "plus"), red)


# ---------------------------------------------------------------- critical modulus


def test_gamma_matches_companion_oracle_small_degrees():
    checked = 0
    for _ in range(60):
        M = int(RNG.integers(2, 8))
        m = int(RNG.integers(1, M + 1))
        p = int(RNG.integers(m, M + 1))  # p >= m keeps the guaranteed cases
        q = int(RNG.integers(1, M + 1))
        red = ReducedOrders(M=M, p=p, q=q, m=m)
        a = float(RNG.uniform(0.05, 2.0))
        b = float(RNG.uniform(0.2, 9.0))
        try:
            gamma = gamma_H_incomm(a, b, red, "plus")
        except (CaseNotSatisfied, ZeroCoefficient, NoPositiveRoot):
            continue
        poly = aa4_polynomial(a, b, red, "plus")
        deg = poly.terms[0][0]
        c = np.zeros(deg + 1)
        for e, co in poly.terms:
            c[deg - e] += co
        roots = np.roots(c)
        pos = sorted(
            r.real for r in roots if abs(r.imag) < 1e-7 * max(1.0, abs(r)) and r.real > 1e-12
        )
        assert len(pos) == 1
        assert gamma == pytest.approx(pos[0], rel=1e-9)
        checked += 1
    assert checked >= 30


def brent_trace(solve, f, lo, hi, xtol):
    """The points at which a Brent solver evaluates f, then its root or error type."""
    xs = []

    def traced(x):
        xs.append(x)
        return f(x)

    try:
        xs.append(solve(traced, lo, hi, xtol))
    except (ValueError, RuntimeError) as err:
        xs.append(type(err))
    return xs


def assert_brent_port_equals_scipy(f, lo, hi, xtol=1e-15):
    port = brent_trace(lambda g, a, b, t: hopf._brentq(g, a, b, t, 8.9e-16), f, lo, hi, xtol)
    ref = brent_trace(lambda g, a, b, t: brentq(g, a, b, xtol=t, rtol=8.9e-16), f, lo, hi, xtol)
    assert port == ref


@pytest.mark.parametrize("orders", ["3/5,3/5,2/3", "2/3,3/5,3/5", "3/4,3/5,3/5", "1/2,2/3,3/4"])
def test_brent_port_equals_scipy_brentq_bit_for_bit(orders, monkeypatch):
    calls, port = [], hopf._brentq

    def spy(f, lo, hi, xtol, rtol):
        calls.append((f, lo, hi))
        return port(f, lo, hi, xtol, rtol)

    monkeypatch.setattr(hopf, "_brentq", spy)
    spec = OrderSpec.incommensurate(*orders.split(","))
    for a, b in ((A, B), (0.5, 2.0), (1.0, 0.3)):
        hopf_incommensurate(a, b, spec)
    monkeypatch.undo()
    assert len(calls) == 3
    for f, lo, hi in calls:
        assert_brent_port_equals_scipy(f, lo, hi)


@pytest.mark.parametrize("xtol", [1e-2, 1e-5, 1e-9, 1e-15])
def test_brent_port_evaluates_where_scipy_brentq_does(xtol):
    for f in (lambda x: x**3 - 2.0, lambda x: math.cos(x) - x, lambda x: math.exp(x) - 5.0,
              lambda x: math.atan(x - 1.0) + 1e-3, lambda x: math.tanh(5.0 * (x - 0.3))):
        for lo, hi in ((0.0, 3.0), (-1.0, 4.0), (3.0, 0.0)):
            assert_brent_port_equals_scipy(f, lo, hi, xtol)


@pytest.mark.parametrize("f, error", [
    (lambda x: x * x + 1.0, ValueError),  # same-sign bracket
    (lambda x: math.nan, ValueError),
    (lambda x: x - 0.5 if x > 0.25 else math.nan, ValueError),  # NaN at an iterate
    (lambda x: (x - 0.3) ** 5, RuntimeError),  # too flat to converge in 100 iterations
])
def test_brent_port_raises_as_scipy_brentq(f, error):
    assert_brent_port_equals_scipy(f, 0.0, 3.0)
    with pytest.raises(error):
        hopf._brentq(f, 0.0, 3.0, 1e-15, 8.9e-16)


def test_hopf_incommensurate_golden():
    sol = hopf_incommensurate(A, B, OrderSpec.incommensurate("1", "99/100", "1"), "plus")
    assert sol.gamma_H == pytest.approx(GOLDEN_INCOMM[0], rel=1e-9)
    assert sol.epsilon_H == pytest.approx(GOLDEN_INCOMM[1], rel=1e-9)
    assert abs(sol.residual_re) < 1e-8
    assert abs(sol.residual_im) < 1e-8
    assert (sol.reduced.M, sol.reduced.p, sol.reduced.q, sol.reduced.m) == (
        100,
        100,
        99,
        100,
    )


def test_reduction_equivalence_with_commensurate():
    # a commensurate order run through the incommensurate machinery must give
    # the same critical pair (gamma in the lifted variable satisfies
    # gamma_lift^p = gamma_cubic)
    for alpha in ("99/100", "91/100", "9/10", "3/4"):
        orders = OrderSpec.incommensurate(alpha, alpha, alpha)
        sol_i = hopf_incommensurate(A, B, orders, "plus")
        sol_c = hopf_commensurate(A, B, float(sol_i.reduced.p / sol_i.reduced.M), "plus")
        assert sol_i.gamma_H ** sol_i.reduced.p == pytest.approx(
            sol_c.gamma_H, rel=1e-9
        )
        assert sol_i.epsilon_H == pytest.approx(sol_c.epsilon_H, rel=1e-9)


def test_integer_order_matches_commensurate_exactly():
    # orders (1, 1, 1) lift to the commensurate cubic on theta = pi/2
    sol_i = hopf_incommensurate(A, B, OrderSpec.incommensurate(1, 1, 1), "plus")
    sol_c = hopf_commensurate(A, B, 1.0, "plus")
    assert sol_i.epsilon_H == 0.0
    assert sol_i.gamma_H == sol_c.gamma_H


def test_hopf_incommensurate_case_gate():
    with pytest.raises(CaseNotSatisfied):
        hopf_incommensurate(A, B, OrderSpec.incommensurate("9/10", "1", "1"), "plus")


def test_hopf_incommensurate_rejects_nonpositive_constants():
    with pytest.raises(ValueError):
        hopf_incommensurate(-0.1, B, OrderSpec.incommensurate("1", "99/100", "1"))
    with pytest.raises(ValueError):
        hopf_incommensurate(A, -B, OrderSpec.incommensurate("1", "99/100", "1"))


def test_critical_eigenvalue_modulus_is_gamma_to_the_M():
    # the lifted companion roots at (gamma_H, eps_H) include a conjugate pair
    # on the ray arg = +-theta whose modulus is gamma_H
    orders = OrderSpec.incommensurate("3/4", "3/4", "3/4")
    sol = hopf_incommensurate(A, B, orders, "plus")
    roots = lifted_roots(JerkParams(A, B, sol.epsilon_H), sol.reduced, "plus")
    d = np.abs(roots - sol.gamma_H * np.exp(1j * sol.reduced.theta))
    assert d.min() < 1e-8


def test_classify_stability_refuses_lifted_degree_above_600():
    # 1,299/300,1 lifts to (300, 299, 300): degree 899
    params = JerkParams(A, B, 7.78)
    orders = OrderSpec.incommensurate("1", "299/300", "1")
    with pytest.raises(UnsupportedClassification, match="899"):
        classify_stability(params, orders, equilibria(params)[0])
