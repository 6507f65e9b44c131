"""Hopf critical-value analysis of the fractional jerk system.

Commensurate path: the cubic characteristic polynomial at an equilibrium is
evaluated on the ray arg(lambda) = pi*alpha/2; eliminating eps between the
real and imaginary parts leaves a quadratic in gamma^2, solved in closed form
for the critical pair (gamma_H, eps_H).

Incommensurate path: rational orders are lifted to integer exponents
(M, p, q, m); eliminating eps between the real and imaginary parts yields a
sparse pseudo-polynomial whose single positive root (guaranteed by a
sign-change argument) is the critical modulus in the lifted variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq

from .exceptions import (
    CaseNotSatisfied,
    ExcludedAlpha,
    ExcludedDenominator,
    NegativeDiscriminant,
    NoPositiveRoot,
    SingularAngle,
    UnsupportedClassification,
    ZeroCoefficient,
)
from .model import (
    MINUS,
    PLUS,
    Equilibrium,
    JerkParams,
    OrderSpec,
    ReducedOrders,
    jacobian_at,
    reduce_orders,
)

__all__ = [
    "CharCubic",
    "PseudoPoly",
    "HopfSolution",
    "SignCaseReport",
    "char_cubic",
    "char_eval_polar_comm",
    "discriminant_delta",
    "r_candidates",
    "hopf_commensurate",
    "excluded_alphas",
    "char_eval_polar_incomm",
    "epsilon_H_incomm",
    "aa4_polynomial",
    "sign_change_analysis",
    "gamma_H_incomm",
    "hopf_incommensurate",
    "classify_stability",
]

STABLE = "stable"
UNSTABLE = "unstable"
MARGINAL = "marginal"

_RESIDUAL_TOL = 1e-8
_SIGN_TOL = 1e-14
_DENOM_GUARD = 1e-10


def _branch_sign(branch: str) -> float:
    """Sign of the 2*eps constant term: -1 for E1 (x=+eps), +1 for E2."""
    if branch == PLUS:
        return -1.0
    if branch == MINUS:
        return 1.0
    raise ValueError(f"branch must be {PLUS!r} or {MINUS!r}, got {branch!r}")


@dataclass(frozen=True)
class CharCubic:
    """lambda^3 + a*eps*lambda^2 + b*lambda -+ 2*eps at one equilibrium."""

    coefficients: tuple[float, float, float, float]  # (c3, c2, c1, c0)
    branch: str

    def eval(self, lam: complex) -> complex:
        c3, c2, c1, c0 = self.coefficients
        return ((c3 * lam + c2) * lam + c1) * lam + c0


@dataclass(frozen=True)
class PseudoPoly:
    """Sparse polynomial sum(c_i * r^e_i) with strictly descending exponents."""

    terms: tuple[tuple[int, float], ...]
    theta: float

    def eval_scaled(self, r: float) -> float:
        """Evaluate after dividing by r^e_max (r >= 1) or r^e_min (r < 1).

        Division by a positive power preserves the sign and root locations on
        r > 0 while avoiding overflow at large exponents.
        """
        exps = [e for e, _ in self.terms]
        shift = max(exps) if r >= 1.0 else min(exps)
        return float(sum(c * r ** (e - shift) for e, c in self.terms))


@dataclass(frozen=True)
class HopfSolution:
    """Critical pair (gamma_H, eps_H) with the characteristic residuals.

    For the incommensurate path gamma_H is the modulus in the lifted
    variable lambda^(1/M); the corresponding Jacobian-eigenvalue modulus is
    gamma_H**M.
    """

    gamma_H: float
    epsilon_H: float
    theta: float
    branch: str
    residual_re: float
    residual_im: float
    reduced: ReducedOrders | None = None


@dataclass(frozen=True)
class SignCaseReport:
    """Sign pattern of the eliminated polynomial and its inversion count."""

    case_label: str  # "I" (p>m), "II" (p<m), "III" (p=m)
    subcase: str | None
    sign_sequence: tuple[int, ...]
    inversions: int
    positive_root_guaranteed: bool


class RCandidates(NamedTuple):
    r1: float
    r2: float
    product: float


def char_cubic(params: JerkParams, branch: str) -> CharCubic:
    s = _branch_sign(branch)
    return CharCubic(
        (1.0, params.a * params.epsilon, params.b, s * 2.0 * params.epsilon), branch
    )


def char_eval_polar_comm(
    params: JerkParams, branch: str, r: float, theta: float
) -> tuple[float, float]:
    """Real and imaginary parts of the cubic at lambda = r*e^(i*theta)."""
    a, b, eps = params.a, params.b, params.epsilon
    s = _branch_sign(branch)
    re = (
        r**3 * math.cos(3 * theta)
        + r**2 * a * eps * math.cos(2 * theta)
        + b * r * math.cos(theta)
        + s * 2.0 * eps
    )
    im = (
        r**3 * math.sin(3 * theta)
        + r**2 * a * eps * math.sin(2 * theta)
        + b * r * math.sin(theta)
    )
    return re, im


def discriminant_delta(params: JerkParams, theta: float) -> float:
    """a^2 eps^2 sin^2(2 theta) - 4 b sin(3 theta) sin(theta)."""
    a, b, eps = params.a, params.b, params.epsilon
    return (a * eps * math.sin(2 * theta)) ** 2 - 4.0 * b * math.sin(
        3 * theta
    ) * math.sin(theta)


def r_candidates(params: JerkParams, theta: float) -> RCandidates:
    """Roots of the imaginary-part quadratic in the modulus r."""
    a, b, eps = params.a, params.b, params.epsilon
    s3 = math.sin(3 * theta)
    if abs(s3) < 1e-12:
        raise SingularAngle(f"sin(3*theta) = {s3:g} at theta = {theta:g} (alpha = 2/3)")
    delta = discriminant_delta(params, theta)
    if delta < 0:
        raise NegativeDiscriminant(f"discriminant {delta:g} < 0")
    root = math.sqrt(delta)
    r1 = (-a * eps * math.sin(2 * theta) + root) / (2.0 * s3)
    r2 = (-a * eps * math.sin(2 * theta) - root) / (2.0 * s3)
    return RCandidates(r1, r2, b * math.sin(theta) / s3)


def hopf_commensurate(a: float, b: float, alpha: float, branch: str) -> HopfSolution:
    """Solve the coupled real/imaginary system for (gamma_H, eps_H).

    Eliminating eps between the two polar equations and dividing by r leaves
    a quadratic in u = r^2,

        a sin(theta) u^2 + (2 s sin(3 theta) - a b sin(theta)) u
            + 2 s b sin(theta) = 0,

    with s = -1 on the plus branch and +1 on the minus branch. gamma_H is the
    square root of its smaller positive root and eps_H follows from the real
    part. The plus branch has one positive root; above its fold order the
    minus branch has two, and the larger gives a second critical pair that
    is not returned.
    """
    if a <= 0:
        raise ValueError(f"a must be positive, got {a}")
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if abs(alpha - 2.0 / 3.0) < 1e-3:
        # sin(3*theta) ~ 0 makes the critical modulus blow up; reject the
        # whole neighborhood rather than return a junk root.
        raise SingularAngle(f"alpha = {alpha} too close to 2/3: sin(3*theta) vanishes")
    if not ((alpha > 2.0 / 3.0 and b > 0) or (alpha < 2.0 / 3.0 and b < 0)):
        raise CaseNotSatisfied(
            f"need alpha > 2/3 with b > 0 or alpha < 2/3 with b < 0; "
            f"got alpha = {alpha}, b = {b}"
        )
    theta = math.pi * alpha / 2.0
    s = _branch_sign(branch)

    s1 = math.sin(theta)
    c2, c1, c0 = a * s1, 2.0 * s * math.sin(3 * theta) - a * b * s1, 2.0 * s * b * s1
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0:
        raise NoPositiveRoot(f"eliminated quadratic in r^2 has discriminant {disc:g} < 0")
    # q = -(c1 + sign(c1) sqrt(disc)) / 2 avoids cancellation; the roots are
    # q / c2 and c0 / q (c0 != 0 since b != 0, so q != 0)
    q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
    positive = [u for u in (q / c2, c0 / q) if u > 0]
    if not positive:
        raise NoPositiveRoot("eliminated quadratic in r^2 has no positive root")

    gamma = math.sqrt(min(positive))
    denom = gamma**2 * a * math.cos(2 * theta) + s * 2.0
    if abs(denom) < _DENOM_GUARD:
        raise ExcludedAlpha(
            f"critical-value denominator {denom:g} vanishes at alpha = {alpha}"
        )
    if alpha == 1.0:
        # cos(theta) and cos(3*theta) vanish identically at theta = pi/2, so
        # the numerator is exactly zero; avoid the O(1e-16) floating residue.
        eps_h = 0.0
    else:
        eps_h = -(gamma**3 * math.cos(3 * theta) + gamma * b * math.cos(theta)) / denom
    params_h = JerkParams(a, b, eps_h)
    res_re, res_im = char_eval_polar_comm(params_h, branch, gamma, theta)
    return HopfSolution(gamma, eps_h, theta, branch, res_re, res_im)


def excluded_alphas(a: float, gamma: float) -> list[float]:
    """Orders in (0, 1] at which the eps_H denominator vanishes.

    Solutions of cos(pi*alpha) = +-2/(a*gamma^2); empty when the ratio
    exceeds 1 in magnitude.
    """
    if a <= 0 or gamma <= 0:
        raise ValueError("a and gamma must be positive")
    c = 2.0 / (a * gamma**2)
    out = []
    for target in (c, -c):
        if abs(target) <= 1.0:
            alpha = math.acos(target) / math.pi
            if 0.0 < alpha <= 1.0:
                out.append(alpha)
    return sorted(out)


def _incomm_terms(
    a: float, b: float, eps: float, reduced: ReducedOrders, s: float
) -> list[tuple[int, float]]:
    p, q, m = reduced.p, reduced.q, reduced.m
    return [
        (p + q + m, 1.0),
        (p + q, a * eps),
        (p, b),
        (0, s * 2.0 * eps),
    ]


def char_eval_polar_incomm(
    params: JerkParams, reduced: ReducedOrders, branch: str, r: float
) -> tuple[float, float]:
    """Lifted characteristic value at lambda = r*e^(i*theta), theta = pi/(2M).

    Large exponents are handled with 80-bit intermediates; powers that still
    overflow raise OverflowError rather than returning inf.
    """
    if r <= 0:
        raise ValueError(f"r must be positive, got {r}")
    s = _branch_sign(branch)
    theta = reduced.theta
    terms = _incomm_terms(params.a, params.b, params.epsilon, reduced, s)
    use_ld = (reduced.p + reduced.q + reduced.m) > 300
    rr = np.longdouble(r) if use_ld else r
    re = im = np.longdouble(0.0) if use_ld else 0.0
    for k, c in terms:
        mag = c * rr**k
        re = re + mag * math.cos(k * theta)
        im = im + mag * math.sin(k * theta)
    re, im = float(re), float(im)
    if not (math.isfinite(re) and math.isfinite(im)):
        raise OverflowError(f"polar evaluation overflowed at r = {r:g}")
    return re, im


def epsilon_H_incomm(
    a: float, b: float, reduced: ReducedOrders, gamma: float, branch: str
) -> float:
    """Critical parameter from the real part at the critical modulus."""
    s = _branch_sign(branch)
    p, q, m = reduced.p, reduced.q, reduced.m
    theta = reduced.theta
    g = np.longdouble(gamma)
    denom = float(g ** (p + q) * math.cos((p + q) * theta) * a + s * 2.0)
    if abs(denom) < _DENOM_GUARD:
        raise ExcludedDenominator(f"denominator {denom:g} below guard {_DENOM_GUARD}")
    num = float(
        g ** (p + q + m) * math.cos((p + q + m) * theta)
        + g**p * math.cos(p * theta) * b
    )
    return -num / denom


def aa4_polynomial(
    a: float, b: float, reduced: ReducedOrders, branch: str = PLUS
) -> PseudoPoly:
    """The eps-eliminated sparse polynomial whose positive root is gamma_H.

    For p = m the two middle exponents coincide; the collapsed three-term
    form (divided through by r^p) is emitted.
    """
    p, q, m = reduced.p, reduced.q, reduced.m
    theta = reduced.theta
    s2 = _branch_sign(branch) * 2.0
    if p == m:
        terms = [
            (2 * p + 2 * q, a * math.sin(p * theta)),
            (p + q, -a * b * math.sin(q * theta) + s2 * math.sin((2 * p + q) * theta)),
            (0, s2 * b * math.sin(p * theta)),
        ]
    else:
        terms = [
            (2 * p + 2 * q + m, a * math.sin(m * theta)),
            (2 * p + q, -a * b * math.sin(q * theta)),
            (p + q + m, s2 * math.sin((p + q + m) * theta)),
            (p, s2 * b * math.sin(p * theta)),
        ]
        terms.sort(key=lambda t: -t[0])
    return PseudoPoly(tuple(terms), theta)


def sign_change_analysis(poly: PseudoPoly, reduced: ReducedOrders) -> SignCaseReport:
    """Coefficient sign sequence, inversion count, and case bookkeeping."""
    p, q, m = reduced.p, reduced.q, reduced.m
    theta = reduced.theta
    if p > m:
        case, angle = "I", None
    elif p < m:
        case, angle = "II", (p + q + m) * theta
    else:
        case, angle = "III", (2 * p + q) * theta
    subcase = None
    if angle is not None:
        if angle < math.pi:
            subcase = "i"
        elif angle == math.pi:
            subcase = "iii"
        else:
            subcase = "ii"

    signs = []
    for e, c in poly.terms:
        if abs(c) < _SIGN_TOL:
            raise ZeroCoefficient(
                f"coefficient {c:g} of r^{e} is sign-ambiguous (below {_SIGN_TOL})"
            )
        signs.append(1 if c > 0 else -1)
    inversions = sum(1 for x, y in zip(signs, signs[1:]) if x != y)
    return SignCaseReport(case, subcase, tuple(signs), inversions, inversions == 1)


def _eval_scaled_grid(poly: PseudoPoly, grid: np.ndarray) -> np.ndarray:
    """Vectorized PseudoPoly.eval_scaled over a positive grid."""
    exps = np.array([e for e, _ in poly.terms], dtype=float)
    coeffs = np.array([c for _, c in poly.terms])
    out = np.empty_like(grid)
    below = grid < 1.0
    for mask, shift in ((below, exps.min()), (~below, exps.max())):
        if mask.any():
            out[mask] = (coeffs * grid[mask][:, None] ** (exps - shift)).sum(axis=1)
    return out


def gamma_H_incomm(
    a: float, b: float, reduced: ReducedOrders, branch: str = PLUS
) -> float:
    """The unique positive root of the eliminated sparse polynomial.

    Bracketed by the Cauchy bound 1 + max|c|/|c_lead| and refined with Brent.
    """
    poly = aa4_polynomial(a, b, reduced, branch)
    report = sign_change_analysis(poly, reduced)
    if not report.positive_root_guaranteed:
        raise CaseNotSatisfied(
            f"sign sequence {report.sign_sequence} has {report.inversions} "
            "inversions; a unique positive root is not guaranteed"
        )
    coeffs = [c for _, c in poly.terms]
    bound = 1.0 + max(abs(c) for c in coeffs[1:]) / abs(coeffs[0])
    f = poly.eval_scaled
    # one sign inversion means the trailing and leading coefficients have
    # opposite signs, so (0, Cauchy bound] always brackets the root
    lo, hi = 1e-9, bound
    if f(lo) * f(hi) > 0:
        grid = np.geomspace(lo, hi, 2000)
        vals = _eval_scaled_grid(poly, grid)
        bracket = None
        for i in range(len(grid) - 1):
            if vals[i] * vals[i + 1] <= 0:
                bracket = (grid[i], grid[i + 1])
                break
        if bracket is None:
            raise NoPositiveRoot(
                "no sign-changing bracket on (0, Cauchy bound]; inconsistent "
                "with the one-inversion guarantee"
            )
        lo, hi = bracket
    root = brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16)
    if abs(f(root)) > 1e-9:
        raise NoPositiveRoot(f"scaled residual {f(root):g} too large at r = {root:g}")
    return float(root)


def hopf_incommensurate(
    a: float, b: float, orders: OrderSpec, branch: str = PLUS
) -> HopfSolution:
    """Full incommensurate pipeline: reduce, eliminate, root-find, verify."""
    if a <= 0 or b <= 0:
        raise ValueError("the incommensurate analysis requires a > 0 and b > 0")
    reduced = reduce_orders(orders)
    if reduced.m > reduced.p and (reduced.p + reduced.q + reduced.m) * reduced.theta > math.pi:
        raise CaseNotSatisfied(
            f"(p, q, m) = ({reduced.p}, {reduced.q}, {reduced.m}) with M = {reduced.M}: "
            "m > p and (p+q+m)*theta > pi falls outside both guaranteed cases"
        )
    gamma = gamma_H_incomm(a, b, reduced, branch)
    eps_h = epsilon_H_incomm(a, b, reduced, gamma, branch)
    res_re, res_im = char_eval_polar_incomm(
        JerkParams(a, b, eps_h), reduced, branch, gamma
    )
    return HopfSolution(gamma, eps_h, reduced.theta, branch, res_re, res_im, reduced)


def classify_stability(
    params: JerkParams, orders: OrderSpec, eq: Equilibrium
) -> str:
    """Asymptotic stability of an equilibrium by the argument criterion.

    Commensurate: Jacobian eigenvalues against the threshold alpha*pi/2.
    Incommensurate: roots of the lifted integer-exponent polynomial against
    pi/(2M); refused above lifted degree 600.
    """
    tol = 1e-9
    if orders.is_commensurate:
        lam = np.linalg.eigvals(jacobian_at(params, eq))
        margin = np.abs(np.angle(lam)).min() - orders.alpha * math.pi / 2.0
    else:
        reduced = reduce_orders(orders)
        degree = reduced.p + reduced.q + reduced.m
        if degree > 600:
            raise UnsupportedClassification(
                f"lifted degree {degree} > 600: dense root-finding unreliable"
            )
        s = _branch_sign(eq.branch)
        eps = params.epsilon
        coeffs = np.zeros(degree + 1)
        coeffs[0] = 1.0
        coeffs[degree - (reduced.p + reduced.q)] = params.a * eps
        coeffs[degree - reduced.p] += params.b
        coeffs[degree] += s * 2.0 * eps
        lam = np.roots(coeffs)
        margin = np.abs(np.angle(lam)).min() - reduced.theta
    if margin > tol:
        return STABLE
    if margin >= -tol:
        return MARGINAL
    return UNSTABLE
