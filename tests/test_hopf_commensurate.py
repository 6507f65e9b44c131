import cmath
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from fjerk import hopf
from fjerk.exceptions import (
    CaseNotSatisfied,
    ExcludedAlpha,
    NegativeDiscriminant,
    NoPositiveRoot,
    SingularAngle,
)
from fjerk.hopf import (
    STABLE,
    UNSTABLE,
    classify_stability,
    discriminant_delta,
    hopf_commensurate,
    r_candidates,
)
from fjerk.model import JerkParams, OrderSpec, equilibria

A, B = 0.129, 7.0
RNG = np.random.default_rng(911)

# Frozen critical pairs, independently cross-checked by solving the coupled
# polar system with a Newton-type root finder from scattered starting points.
GOLDEN = {
    (0.91, "plus"): (2.7198723009641923, -1.9192659031428432),
    (0.91, "minus"): (2.9138501264139554, 7.706035085412491),
    (0.98, "plus"): (2.6493524259151937, -0.40208026344348036),
    (0.98, "minus"): (2.6553793830410837, 1.0786883681143755),
    (0.99, "plus"): (2.6466510066902766, -0.20057792278436964),
    (0.99, "minus"): (2.6481382407921696, 0.5325901791158744),
}


def draw_case_one():
    """alpha > 2/3 with b > 0 (staying clear of the singular angle)."""
    while True:
        alpha = RNG.uniform(2.0 / 3.0 + 5e-3, 1.0)
        if abs(alpha - 2.0 / 3.0) > 2e-3:
            break
    a = RNG.uniform(0.05, 2.0)
    b = RNG.uniform(0.2, 10.0)
    eps = RNG.uniform(-8.0, 8.0)
    return JerkParams(a, b, eps), alpha


def draw_case_two():
    """alpha < 2/3 with b < 0."""
    alpha = RNG.uniform(0.05, 2.0 / 3.0 - 5e-3)
    a = RNG.uniform(0.05, 2.0)
    b = -RNG.uniform(0.2, 10.0)
    eps = RNG.uniform(-8.0, 8.0)
    return JerkParams(a, b, eps), alpha


# ---------------------------------------------------------------- cubic basics


def cubic_terms(params, branch):
    return hopf._char_terms(params.a, params.b, params.epsilon, 1, 1, 1, hopf._branch_sign(branch))


def cubic_polar(params, branch, r, theta):
    """Real and imaginary parts of the cubic at lambda = r*e^(i*theta)."""
    return hopf._polar(cubic_terms(params, branch), r, theta)


def test_char_cubic_coefficients():
    p = JerkParams(0.5, 3.0, 2.0)
    assert cubic_terms(p, "plus") == [(3, 1.0), (2, 1.0), (1, 3.0), (0, -4.0)]
    assert cubic_terms(p, "minus") == [(3, 1.0), (2, 1.0), (1, 3.0), (0, 4.0)]


def test_polar_eval_matches_complex_arithmetic():
    for _ in range(300):
        p, alpha = draw_case_one()
        theta = RNG.uniform(0.0, math.pi)
        r = RNG.uniform(0.01, 10.0)
        branch = "plus" if RNG.random() < 0.5 else "minus"
        re, im = cubic_polar(p, branch, r, theta)
        lam = r * cmath.exp(1j * theta)
        s = -1.0 if branch == "plus" else 1.0
        val = lam**3 + p.a * p.epsilon * lam**2 + p.b * lam + s * 2.0 * p.epsilon
        assert re == pytest.approx(val.real, rel=1e-10, abs=1e-9)
        assert im == pytest.approx(val.imag, rel=1e-10, abs=1e-9)


def test_polar_eval_theta_reflection():
    p = JerkParams(0.3, 4.0, 1.7)
    re1, im1 = cubic_polar(p, "plus", 2.0, 1.1)
    re2, im2 = cubic_polar(p, "plus", 2.0, -1.1)
    assert re1 == pytest.approx(re2)
    assert im1 == pytest.approx(-im2)


# ---------------------------------------------------------------- modulus candidates


def test_discriminant_alpha_one_example():
    # theta = pi/2: delta = a^2 eps^2 sin^2(pi) - 4 b sin(3 pi/2) sin(pi/2) = 4b
    p = JerkParams(0.5, 7.0, 3.0)
    assert discriminant_delta(p, math.pi / 2) == pytest.approx(28.0)


def test_r_candidates_alpha_one():
    p = JerkParams(0.5, 7.0, 3.0)
    rc = r_candidates(p, math.pi / 2)
    # sin(2 theta) = 0, sin(3 theta) = -1: roots are -+sqrt(7)
    assert sorted((rc.r1, rc.r2)) == pytest.approx(
        [-math.sqrt(7.0), math.sqrt(7.0)], rel=1e-12
    )
    assert rc.product == pytest.approx(-7.0)


def test_r_candidates_case_one_properties():
    for _ in range(1000):
        p, alpha = draw_case_one()
        theta = math.pi * alpha / 2.0
        delta = discriminant_delta(p, theta)
        assert delta > 0.0
        rc = r_candidates(p, theta)
        assert rc.product < 0.0  # opposite signs: exactly one admissible root
        assert (rc.r1 > 0.0) != (rc.r2 > 0.0)
        assert rc.r1 * rc.r2 == pytest.approx(rc.product, rel=1e-10)


def test_r_candidates_case_two_properties():
    for _ in range(1000):
        p, alpha = draw_case_two()
        theta = math.pi * alpha / 2.0
        assert discriminant_delta(p, theta) > 0.0
        rc = r_candidates(p, theta)
        assert rc.product < 0.0
        assert rc.r1 * rc.r2 == pytest.approx(rc.product, rel=1e-10)


def test_r_candidates_are_imaginary_part_roots():
    for _ in range(200):
        p, alpha = draw_case_one()
        theta = math.pi * alpha / 2.0
        rc = r_candidates(p, theta)
        for r in (rc.r1, rc.r2):
            if r <= 0:
                continue
            _, im = cubic_polar(p, "plus", r, theta)
            assert abs(im) < 1e-8 * max(1.0, abs(r) ** 3)


def test_r_candidates_singular_at_two_thirds():
    with pytest.raises(SingularAngle):
        r_candidates(JerkParams(A, B, 1.0), math.pi / 3.0)


def test_r_candidates_negative_discriminant():
    # b > 0 with alpha < 2/3 makes -4 b sin(3 theta) sin(theta) < 0 possible
    p = JerkParams(0.01, 50.0, 0.0)
    theta = math.pi * 0.5 / 2.0
    with pytest.raises(NegativeDiscriminant):
        r_candidates(p, theta)


# ---------------------------------------------------------------- critical pairs


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_hopf_golden_values(key):
    alpha, branch = key
    sol = hopf_commensurate(A, B, alpha, branch)
    g, e = GOLDEN[key]
    assert sol.gamma_H == pytest.approx(g, rel=1e-9)
    assert sol.epsilon_H == pytest.approx(e, rel=1e-9)
    assert abs(sol.residual_re) < 1e-8
    assert abs(sol.residual_im) < 1e-8


def test_hopf_alpha_one_is_exactly_zero():
    for branch in ("plus", "minus"):
        sol = hopf_commensurate(A, B, 1.0, branch)
        assert sol.epsilon_H == 0.0
        assert sol.gamma_H == pytest.approx(math.sqrt(B), rel=1e-9)


def test_hopf_residuals_random_case_one():
    for _ in range(100):
        p, alpha = draw_case_one()
        branch = "plus" if RNG.random() < 0.5 else "minus"
        try:
            sol = hopf_commensurate(p.a, p.b, alpha, branch)
        except (NoPositiveRoot, SingularAngle, ExcludedAlpha):
            continue
        scale = max(1.0, sol.gamma_H**3, abs(p.a * sol.epsilon_H) * sol.gamma_H**2)
        assert abs(sol.residual_re) / scale < 1e-8
        assert abs(sol.residual_im) / scale < 1e-8


def eliminated_quadratic(a, b, alpha, branch):
    """Coefficients (u^2, u, 1) of the eps-eliminated equation in u = r^2."""
    th = math.pi * alpha / 2.0
    s = -1.0 if branch == "plus" else 1.0
    return (a * math.sin(th), 2 * s * math.sin(3 * th) - a * b * math.sin(th),
            2 * s * b * math.sin(th))


def minus_fold_alpha():
    """Order where the minus-branch quadratic's two positive roots merge."""
    def disc(alpha):
        c2, c1, c0 = eliminated_quadratic(A, B, alpha, "minus")
        return c1 * c1 - 4 * c2 * c0
    return brentq(disc, 0.7, 0.99, xtol=1e-15)


def test_hopf_minus_branch_just_above_fold():
    fold = minus_fold_alpha()
    assert fold == pytest.approx(0.8951004, abs=1e-7)
    sol = hopf_commensurate(A, B, fold + 1e-8, "minus")
    assert abs(sol.residual_re) <= 1e-8
    assert abs(sol.residual_im) <= 1e-8
    with pytest.raises(NoPositiveRoot):
        hopf_commensurate(A, B, fold - 1e-6, "minus")


def test_hopf_minus_branch_returns_smaller_root():
    u_small, u_large = sorted(np.roots(eliminated_quadratic(A, B, 0.9, "minus")).real)
    sol = hopf_commensurate(A, B, 0.9, "minus")
    assert sol.gamma_H == pytest.approx(3.0392, rel=1e-4)
    assert sol.gamma_H == pytest.approx(math.sqrt(u_small), rel=1e-12)
    # the larger root is a second critical pair at a larger eps
    th = math.pi * 0.9 / 2.0
    r = math.sqrt(u_large)
    eps2 = -(r**3 * math.cos(3 * th) + B * r * math.cos(th)) / (
        A * r * r * math.cos(2 * th) + 2.0)
    re, im = cubic_polar(JerkParams(A, B, eps2), "minus", r, th)
    assert abs(re) < 1e-8 and abs(im) < 1e-8
    assert eps2 > sol.epsilon_H


def test_hopf_rejects_singular_neighbourhood():
    with pytest.raises(SingularAngle):
        hopf_commensurate(A, B, 0.6667, "plus")


def test_hopf_rejects_wrong_case():
    with pytest.raises(CaseNotSatisfied):
        hopf_commensurate(A, B, 0.5, "plus")  # alpha < 2/3 needs b < 0
    with pytest.raises(CaseNotSatisfied):
        hopf_commensurate(A, -B, 0.9, "plus")  # alpha > 2/3 needs b > 0


# ---------------------------------------------------------------- stability verdicts


def test_minus_branch_verdict_flips_at_critical_epsilon():
    orders = OrderSpec.commensurate(0.91)
    eps_h = GOLDEN[(0.91, "minus")][1]
    for eps, expected in ((eps_h - 1e-3, STABLE), (eps_h + 1e-3, UNSTABLE)):
        p = JerkParams(A, B, eps)
        eq = equilibria(p)[1]
        assert eq.branch == "minus"
        assert classify_stability(p, orders, eq) == expected


def test_plus_branch_always_unstable_here():
    orders = OrderSpec.commensurate(0.91)
    for eps in (0.5, 3.0, 7.9):
        p = JerkParams(A, B, eps)
        eq = equilibria(p)[0]
        assert classify_stability(p, orders, eq) == UNSTABLE


def test_stability_agrees_with_root_argument_oracle():
    orders = OrderSpec.commensurate(0.91)
    for eps in (1.0, 4.0, 6.0, 7.9):
        p = JerkParams(A, B, eps)
        for eq, s in zip(equilibria(p), (-1.0, 1.0)):
            lam = np.roots([1.0, p.a * eps, p.b, s * 2.0 * eps])
            oracle = (
                STABLE
                if np.min(np.abs(np.angle(lam))) > 0.91 * math.pi / 2.0
                else UNSTABLE
            )
            assert classify_stability(p, orders, eq) == oracle
