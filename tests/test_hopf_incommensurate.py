import cmath
import math
from fractions import Fraction

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
    MARGINAL,
    STABLE,
    UNSTABLE,
    aa4_polynomial,
    char_eval_polar_incomm,
    classify_stability,
    epsilon_H_incomm,
    gamma_H_incomm,
    hopf_commensurate,
    hopf_incommensurate,
    sign_change_analysis,
)
from fjerk.model import (
    Equilibrium,
    JerkParams,
    OrderSpec,
    ReducedOrders,
    equilibria,
    reduce_orders,
)

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


# ---------------------------------------------------------------- lifted verdicts


def dense_verdict(params, reduced, branch):
    """The argument criterion on the companion-matrix roots, threshold +-1e-9."""
    margin = np.abs(np.angle(lifted_roots(params, reduced, branch))).min() - reduced.theta
    return STABLE if margin > 1e-9 else MARGINAL if margin >= -1e-9 else UNSTABLE


def ray_crossings(params, reduced, branch):
    """eps at which a lifted root lies on the threshold ray arg w = theta.

    There lam = w^M = i*y, and eps = -P0/P1 is real: the sign changes of
    Im(P0 * conj(P1)) on a y grid, refined with SciPy's brentq.
    """
    s = -1.0 if branch == "plus" else 1.0
    s1, s2, s3 = (k / reduced.M for k in np.cumsum([reduced.p, reduced.q, reduced.m]))

    def parts(y):
        lam = 1j * y
        return lam**s3 + params.b * lam**s1, params.a * lam**s2 + 2.0 * s

    def g(y):
        p0, p1 = parts(y)
        return (p0 * p1.conjugate()).imag

    ys = np.geomspace(1e-3, 1e3, 1201)
    gs = [g(y) for y in ys]
    out = []
    for y1, y2, g1, g2 in zip(ys, ys[1:], gs, gs[1:]):
        if g1 * g2 < 0:
            p0, p1 = parts(brentq(g, y1, y2, xtol=1e-15, rtol=1e-15))
            if abs(p1) > 1e-9 * abs(p0):  # where P1 = 0 no eps is critical
                out.append((-p0 / p1).real)
    return out


def family_orders(family, v, u):
    return OrderSpec.incommensurate(*family.replace("v/u", f"{v}/{u}").split(","))


def test_lifted_verdicts_match_dense_roots():
    # the four families at lifted degree <= 200, both branches, random eps,
    # and eps_H (where the Hopf solver has one) and every eps at which a root
    # crosses the ray, each times 1 +- {2e-2, 1e-3, 1e-6}
    rng = np.random.default_rng(20071)
    offsets = [f * d for d in (2e-2, 1e-3, 1e-6) for f in (-1.0, 1.0)]
    seen = {STABLE: 0, MARGINAL: 0, UNSTABLE: 0}
    for family in ("1,v/u,1", "v/u,v/u,v/u", "v/u,1,1", "1,1,v/u"):
        for _ in range(2):
            u = int(rng.integers(20, 51))
            orders = family_orders(family, int(rng.integers(math.ceil(0.7 * u), u)), u)
            red = reduce_orders(orders)
            assert red.p + red.q + red.m <= 200
            try:
                eps_h = [hopf_incommensurate(A, B, orders, "plus").epsilon_H]
            except CaseNotSatisfied:
                eps_h = []
            for branch in ("plus", "minus"):
                crit = eps_h + ray_crossings(JerkParams(A, B, 1.0), red, branch)
                near = [e * (1.0 + d) for e in crit for d in offsets]
                grid = [*rng.uniform(-9.0, 9.0, 2), *near]
                for eps in grid:
                    params = JerkParams(A, B, float(eps))
                    eq = next(e for e in equilibria(params) if e.branch == branch)
                    verdict = dense_verdict(params, red, branch)
                    assert classify_stability(params, orders, eq) == verdict, (orders, branch, eps)
                    seen[verdict] += 1
    assert min(seen.values()) >= 10, seen


def test_lifted_verdicts_match_dense_roots_at_paper_orders():
    orders = OrderSpec.incommensurate("1", "99/100", "1")
    red = reduce_orders(orders)
    eps_h = hopf_incommensurate(A, B, orders, "plus").epsilon_H
    verdicts = []
    for d in (-2e-2, -1e-3, -1e-6, 1e-6, 1e-3, 2e-2):
        params = JerkParams(A, B, eps_h * (1.0 + d))
        eq = next(e for e in equilibria(params) if e.branch == "plus")
        verdicts.append(classify_stability(params, orders, eq))
        assert verdicts[-1] == dense_verdict(params, red, "plus")
    assert verdicts[0] != verdicts[-1]  # the verdict flips across eps_H


@pytest.mark.parametrize("alpha", ["99/100", "97/100", "93/100", "91/100", "9/10", "3/4"])
def test_lifted_count_equals_cubic_verdict_on_commensurate_orders(alpha):
    lifted = OrderSpec.incommensurate(alpha, alpha, alpha)
    cubic = OrderSpec.commensurate(Fraction(alpha))
    for branch in ("plus", "minus"):
        try:
            eps_h = hopf_commensurate(A, B, float(Fraction(alpha)), branch).epsilon_H
        except NoPositiveRoot:  # the minus branch below its fold
            continue
        for f in (1.0 - 1e-3, 1.0 + 1e-3):
            params = JerkParams(A, B, eps_h * f)
            eq = next(e for e in equilibria(params) if e.branch == branch)
            assert classify_stability(params, lifted, eq) == classify_stability(params, cubic, eq)


def test_lifted_count_equals_cubic_verdict_at_integer_order():
    # eps_H = 0 at integer order, so probe eps across both branches instead
    for eps in (-5.0, -0.3, 0.3, 1.0, 2.0 / A, 5.0):
        params = JerkParams(A, B, eps)
        for eq in equilibria(params):
            assert classify_stability(params, OrderSpec.incommensurate(1, 1, 1), eq) == (
                classify_stability(params, OrderSpec.commensurate(1), eq)
            )


def test_zero_epsilon_is_unstable_on_both_paths():
    # lam = 0 is then a characteristic root, and np.angle(0) = 0
    params = JerkParams(A, B, 0.0)
    for orders in (OrderSpec.commensurate(0.91), OrderSpec.incommensurate("1", "99/100", "1"),
                   OrderSpec.incommensurate("9/10", "1", "1")):
        for branch in ("plus", "minus"):
            eq = Equilibrium((0.0, 0.0, 0.0), branch, degenerate=True)
            assert classify_stability(params, orders, eq) == UNSTABLE


def test_lifted_verdict_at_extreme_epsilon():
    # scaled sums keep math.exp from overflowing while brackets widen
    lifted = OrderSpec.incommensurate("9/10", "9/10", "9/10")
    for eps in (1e200, -1e200):
        params = JerkParams(A, B, eps)
        for eq in equilibria(params):
            assert classify_stability(params, lifted, eq) == (
                classify_stability(params, OrderSpec.commensurate(Fraction(9, 10)), eq)
            )
    # the real root -+2*eps/b (arg 0 or pi) and a pair near +-i*sqrt(b)
    params = JerkParams(A, B, 1e-200)
    assert [classify_stability(params, lifted, eq) for eq in equilibria(params)] == [
        UNSTABLE, STABLE]


def test_tiny_epsilon_cubic_verdict_equals_lifted_count():
    # on the minus branch np.roots returns the real root -2*eps/b as exactly
    # 0.0 for eps below about 1e-30; its arg is pi, not 0, so the verdict
    # stays STABLE, as the lifted count at the same orders says
    lifted = OrderSpec.incommensurate("9/10", "9/10", "9/10")
    cubic = OrderSpec.commensurate(Fraction(9, 10))
    for k in range(-300, -17):
        params = JerkParams(A, B, 10.0**k)
        for eq in equilibria(params):
            assert classify_stability(params, cubic, eq) == (
                classify_stability(params, lifted, eq)), (k, eq.branch)


def exp_terms(*pairs):
    return [(float(e), math.log(abs(c)), float(c)) for e, c in pairs]


def test_exp_sum_zeros_by_rolle_recursion():
    # (e^t - 1)(e^t - 2)(e^t - 3): three simple zeros
    zeros = hopf._exp_sum_zeros(exp_terms((3, 1), (2, -6), (1, 11), (0, -6)))
    assert zeros == pytest.approx([0.0, math.log(2.0), math.log(3.0)], abs=1e-14)
    # (e^t - 1)^2 touches zero at a zero of its derivative
    assert hopf._exp_sum_zeros(exp_terms((2, 1), (1, -2), (0, 1))) == [0.0]
    assert hopf._exp_sum_zeros(exp_terms((2, 1), (1, 1), (0, 1))) == []
    # zeros far out, where unscaled terms reach 1e600 and 1e-900
    zeros = hopf._exp_sum_zeros(exp_terms((3, 1), (1, -1e300), (0, 1e-300)))
    assert zeros == pytest.approx([-600.0 * math.log(10.0), 150.0 * math.log(10.0)], rel=1e-14)


def test_sheet_count_of_a_zero_on_the_ray():
    # lam^2 - 2 cos(phi) lam + 1 has its zeros at e^(+-i*phi), on the ray:
    # the count is None, or 0 or 2 as rounding puts them on one side
    counts = set()
    for k in range(1, 30):
        phi = k * math.pi / 31
        counts.add(hopf._sheet_count([(2.0, 1.0), (1.0, -2.0 * math.cos(phi)), (0.0, 1.0)], phi))
    assert None in counts and counts <= {None, 0, 2}
    # one zero at lam = 4 inside, the pair e^(+-i*pi/4) outside |arg| < pi/6
    r2 = math.sqrt(2.0)
    terms = [(3.0, 1.0), (2.0, -4.0 - r2), (1.0, 1.0 + 4.0 * r2), (0.0, -4.0)]
    assert hopf._sheet_count(terms, math.pi / 6) == 1
    assert hopf._sheet_count(terms, math.pi / 3) == 3


@pytest.mark.parametrize("outer, inner, verdict", [
    (0, 0, STABLE),
    (1, 1, UNSTABLE),
    (1, 0, MARGINAL),
    (None, 2, UNSTABLE),  # a zero on the outer ray and two inside
    (None, None, MARGINAL),
    (2, None, MARGINAL),  # a zero on the inner ray
])
def test_lifted_verdict_from_the_two_counts(outer, inner, verdict, monkeypatch):
    counts = iter((outer, inner))
    monkeypatch.setattr(hopf, "_sheet_count", lambda terms, phi: next(counts))
    params = JerkParams(A, B, 1.0)
    assert classify_stability(params, OrderSpec.incommensurate("1", "9/10", "1"),
                              equilibria(params)[0]) == verdict
