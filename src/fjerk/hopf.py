"""Hopf critical-value analysis of the fractional jerk system.

Both paths use one characteristic polynomial at an equilibrium,

    lambda^(p+q+m) + a*eps*lambda^(p+q) + b*lambda^p -+ 2*eps,

evaluated on the ray arg(lambda) = theta. Rational orders are lifted to
integer exponents (M, p, q, m) with theta = pi/(2M); a commensurate order
alpha is the cubic (p, q, m) = (1, 1, 1) on theta = pi*alpha/2. Eliminating
eps between the real and imaginary parts leaves a sparse polynomial in the
modulus r. For p = m it is a quadratic in r^(p+q), solved in closed form;
otherwise its single positive root (guaranteed by a sign-change argument)
is exp of the one zero in t = ln r of the polynomial as a sum of real
exponentials, found as the stability count finds its zeros. The critical
pair (gamma_H, eps_H) follows.

Stability verdicts take the roots of the cubic for a commensurate order.
For rational orders they count, without solving the polynomial of degree
p+q+m, its roots w with |arg w| < theta (+-1e-9) on the principal sheet:
there the lifted polynomial is a sum of four real powers of w^M of degree
at most 3 (see ``classify_stability``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import (
    CaseNotSatisfied,
    ExcludedAlpha,
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
    reduce_orders,
)

__all__ = [
    "PseudoPoly",
    "HopfSolution",
    "SignCaseReport",
    "discriminant_delta",
    "r_candidates",
    "hopf_commensurate",
    "aa4_polynomial",
    "sign_change_analysis",
    "gamma_H_incomm",
    "hopf_incommensurate",
    "classify_stability",
]

STABLE = "stable"
UNSTABLE = "unstable"
MARGINAL = "marginal"

_SIGN_TOL = 1e-14
_DENOM_GUARD = 1e-10

_Lift = tuple[int, int, int]
_Terms = list[tuple[int, float]]
_CUBIC: _Lift = (1, 1, 1)  # the commensurate cubic as a lift


def _branch_sign(branch: str) -> float:
    """Sign of the 2*eps constant term: -1 for E1 (x=+eps), +1 for E2."""
    if branch == PLUS:
        return -1.0
    if branch == MINUS:
        return 1.0
    raise ValueError(f"branch must be {PLUS!r} or {MINUS!r}, got {branch!r}")


@dataclass(frozen=True)
class PseudoPoly:
    """Sparse polynomial sum(c_i * r^e_i) with strictly descending exponents."""

    terms: tuple[tuple[int, float], ...]


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

    @property
    def inversions(self) -> int:
        s = self.sign_sequence
        return sum(1 for x, y in zip(s, s[1:]) if x != y)

    @property
    def positive_root_guaranteed(self) -> bool:
        return self.inversions == 1


class RCandidates(NamedTuple):
    r1: float
    r2: float
    product: float


def _char_parts(a: float, b: float, p: int, q: int, m: int, s: float) -> tuple[_Terms, _Terms]:
    """The characteristic polynomial P = P0 + eps*P1 as the terms of P0 and P1.

    (exponent, coefficient) pairs of lambda^(p+q+m) + b*lambda^p and of
    a*lambda^(p+q) + 2*s; s = -1 on the plus branch and +1 on the minus one.
    The exponents of P0 and P1 are disjoint.
    """
    return [(p + q + m, 1.0), (p, b)], [(p + q, a), (0, s * 2.0)]


def _char_terms(a: float, b: float, eps: float, p: int, q: int, m: int, s: float) -> _Terms:
    """Terms of P at one eps, in descending exponent order."""
    free, slope = _char_parts(a, b, p, q, m, s)
    return sorted(free + [(k, eps * c) for k, c in slope], reverse=True)


def _polar(terms: _Terms, r: float, theta: float) -> tuple[float, float]:
    """Real and imaginary parts of sum(c * lambda^k) at lambda = r*e^(i*theta).

    Powers and sums that overflow raise OverflowError rather than returning
    inf. Every exponent k is at most the degree d, so |r^k| <= max(1, r^d):
    a float overflows only where r^d nears 1e308, at any degree.
    """
    re = im = 0.0
    for k, c in terms:
        mag = c * r**k
        re = re + mag * math.cos(k * theta)
        im = im + mag * math.sin(k * theta)
    re, im = float(re), float(im)
    if not (math.isfinite(re) and math.isfinite(im)):
        raise OverflowError(f"polar evaluation overflowed at r = {r:g}")
    return re, im


def _lift(reduced: ReducedOrders) -> _Lift:
    return reduced.p, reduced.q, reduced.m


def _eliminated(parts: tuple[_Terms, _Terms], lift: _Lift, theta: float) -> PseudoPoly:
    """Re(P1)*Im(P0) - Re(P0)*Im(P1) on the ray theta, as a sparse polynomial in r.

    It vanishes exactly where some eps zeroes both parts of P0 + eps*P1.
    For p = m two exponents coincide, and the merged three-term form is
    divided through by r^p: a quadratic in v = r^(p+q).
    """
    free, slope = parts
    p, _, m = lift
    shift = p if p == m else 0
    coeffs: dict[int, float] = {}
    for ke, ce in slope:
        for kf, cf in free:
            k = ke + kf - shift
            coeffs[k] = coeffs.get(k, 0.0) + ce * cf * math.sin((kf - ke) * theta)
    return PseudoPoly(tuple(sorted(coeffs.items(), reverse=True)))


def _critical_modulus(poly: PseudoPoly, quadratic: bool) -> float:
    """Smallest positive root of the eliminated polynomial.

    A quadratic in v = r^k is solved in closed form; otherwise the single
    positive root that one sign inversion guarantees is exp of the single
    zero in t = ln r of the sum of exponentials (``_exp_sum_zeros``), found
    on the whole line, so that no bracket in r bounds it. A discriminant or
    a coefficient that overflows raises OverflowError.
    """
    if quadratic:
        (_, c2), (k, c1), (_, c0) = poly.terms
        disc = c1 * c1 - 4.0 * c2 * c0
        if not math.isfinite(disc):
            raise OverflowError(f"discriminant of the eliminated quadratic in r^{k} overflowed "
                                f"(coefficients {c2:g}, {c1:g}, {c0:g})")
        if disc < 0:
            raise NoPositiveRoot(f"eliminated quadratic in r^{k} has discriminant {disc:g} < 0")
        # q = -(c1 + sign(c1) sqrt(disc)) / 2 avoids cancellation; the roots
        # are q / c2 and c0 / q (c0 != 0 since b != 0, so q != 0)
        q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
        positive = [v for v in (q / c2, c0 / q) if v > 0]
        if not positive:
            raise NoPositiveRoot(f"eliminated quadratic in r^{k} has no positive root")
        # math.sqrt is correctly rounded and pow is not
        return math.sqrt(min(positive)) if k == 2 else min(positive) ** (1.0 / k)
    terms = _log_terms(poly.terms)
    if not all(math.isfinite(lc) for _, lc, _ in terms):
        raise OverflowError("a coefficient of the eliminated polynomial overflowed")
    (t,) = _exp_sum_zeros(terms)
    return math.exp(t)


def _critical_eps(
    parts: tuple[_Terms, _Terms], theta: float, gamma: float
) -> tuple[float, float, float]:
    """eps_H from the real part at the critical modulus, and the residuals.

    Returns (eps_H, Re P, Im P) with P = P0 + eps_H*P1 at gamma*e^(i*theta);
    raises ExcludedAlpha when Re P1, the eps coefficient of the real part,
    vanishes.
    """
    re0, im0 = _polar(parts[0], gamma, theta)
    re1, im1 = _polar(parts[1], gamma, theta)
    if abs(re1) < _DENOM_GUARD:
        raise ExcludedAlpha(f"critical-value denominator {re1:g} below guard {_DENOM_GUARD}")
    # every order is 1: cos(theta) and cos(3*theta) vanish identically, so the
    # numerator is exactly zero; avoid the O(1e-16) floating residue
    eps_h = 0.0 if theta == math.pi / 2.0 else -re0 / re1
    return eps_h, re0 + eps_h * re1, im0 + eps_h * im1


def _im_over_r(params: JerkParams, theta: float) -> tuple[float, float, float]:
    """Coefficients (r^2, r, 1) of Im(cubic)/r on the ray theta (either branch)."""
    terms = _char_terms(params.a, params.b, params.epsilon, *_CUBIC, 1.0)
    c3, c2, c1, _ = (c * math.sin(k * theta) for k, c in terms)
    return c3, c2, c1


def discriminant_delta(params: JerkParams, theta: float) -> float:
    """a^2 eps^2 sin^2(2 theta) - 4 b sin(3 theta) sin(theta)."""
    c3, c2, c1 = _im_over_r(params, theta)
    return c2 * c2 - 4.0 * c3 * c1


def r_candidates(params: JerkParams, theta: float) -> RCandidates:
    """Roots of the imaginary-part quadratic in the modulus r."""
    c3, c2, c1 = _im_over_r(params, theta)
    if abs(c3) < 1e-12:
        raise SingularAngle(f"sin(3*theta) = {c3:g} at theta = {theta:g} (alpha = 2/3)")
    delta = discriminant_delta(params, theta)
    if delta < 0:
        raise NegativeDiscriminant(f"discriminant {delta:g} < 0")
    root = math.sqrt(delta)
    return RCandidates((-c2 + root) / (2.0 * c3), (-c2 - root) / (2.0 * c3), c1 / c3)


def hopf_commensurate(a: float, b: float, alpha: float, branch: str) -> HopfSolution:
    """Solve the coupled real/imaginary system for (gamma_H, eps_H).

    The cubic is the lifted polynomial with (p, q, m) = (1, 1, 1) on the ray
    theta = pi*alpha/2, so eliminating eps leaves a quadratic in u = r^2.
    gamma_H is the square root of its smaller positive root and eps_H
    follows from the real part. The plus branch has one positive root; above
    its fold order the minus branch has two, and the larger gives a second
    critical pair that is not returned.
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
    parts = _char_parts(a, b, *_CUBIC, _branch_sign(branch))
    gamma = _critical_modulus(_eliminated(parts, _CUBIC, theta), quadratic=True)
    eps_h, res_re, res_im = _critical_eps(parts, theta, gamma)
    return HopfSolution(gamma, eps_h, theta, branch, res_re, res_im)


def aa4_polynomial(
    a: float, b: float, reduced: ReducedOrders, branch: str = PLUS
) -> PseudoPoly:
    """The eps-eliminated sparse polynomial whose positive root is gamma_H.

    For p = m the two middle exponents coincide; the collapsed three-term
    form (divided through by r^p) is emitted.
    """
    lift = _lift(reduced)
    return _eliminated(_char_parts(a, b, *lift, _branch_sign(branch)), lift, reduced.theta)


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
    return SignCaseReport(case, subcase, tuple(signs))


def gamma_H_incomm(
    a: float, b: float, reduced: ReducedOrders, branch: str = PLUS
) -> float:
    """The unique positive root of the eliminated sparse polynomial.

    Closed form when p = m (a quadratic in r^(p+q)), otherwise exp of the
    zero in t = ln r (``_critical_modulus``). Case II(ii), m > p with
    (p+q+m)*theta > pi, is refused, as is a sign sequence with other than
    one inversion.
    """
    poly = aa4_polynomial(a, b, reduced, branch)
    report = sign_change_analysis(poly, reduced)
    if (report.case_label, report.subcase) == ("II", "ii"):
        raise CaseNotSatisfied(
            f"(p, q, m) = ({reduced.p}, {reduced.q}, {reduced.m}) with M = {reduced.M}: "
            "m > p and (p+q+m)*theta > pi falls outside both guaranteed cases"
        )
    if not report.positive_root_guaranteed:
        raise CaseNotSatisfied(
            f"sign sequence {report.sign_sequence} has {report.inversions} "
            "inversions; a unique positive root is not guaranteed"
        )
    return _critical_modulus(poly, quadratic=reduced.p == reduced.m)


def hopf_incommensurate(
    a: float, b: float, orders: OrderSpec, branch: str = PLUS
) -> HopfSolution:
    """Full incommensurate pipeline: reduce, eliminate, root-find, verify.

    The pair is verified on P itself: |P(gamma_H e^(i*theta))| over the sum
    of its terms' moduli above 1e-9 raises NoPositiveRoot, e.g. where gamma_H
    is rounded and raised to a huge lift's powers.
    """
    if a <= 0 or b <= 0:
        raise ValueError("the incommensurate analysis requires a > 0 and b > 0")
    reduced = reduce_orders(orders)
    (p, q, m), theta = _lift(reduced), reduced.theta
    gamma = gamma_H_incomm(a, b, reduced, branch)
    s = _branch_sign(branch)
    eps_h, res_re, res_im = _critical_eps(_char_parts(a, b, p, q, m, s), theta, gamma)
    scale = sum(abs(c) * gamma**k for k, c in _char_terms(a, b, eps_h, p, q, m, s))
    if math.hypot(res_re, res_im) > 1e-9 * scale:
        raise NoPositiveRoot(f"relative residual {math.hypot(res_re, res_im) / scale:g} of P "
                             f"at (gamma_H, eps_H) = ({gamma!r}, {eps_h!r}) above 1e-9")
    return HopfSolution(gamma, eps_h, theta, branch, res_re, res_im, reduced)


def _log_terms(terms) -> list[tuple[float, float, float]]:
    """Nonzero terms c * r^e as (e, ln|c|, c): the sum of c * e^(e*t) in t = ln r."""
    return [(e, math.log(abs(c)), c) for e, c in terms if c != 0.0]


def _exp_sum(terms: list[tuple[float, float, float]], t: float, shift: float) -> float:
    """sum(c * e^(e*t)) over (e, ln|c|, c) terms, divided by e^shift.

    With shift at least the log-modulus of the largest term no exponent is
    positive, so math.exp cannot overflow however wide a bracket grows.
    """
    return sum(math.copysign(math.exp(e * t + lc - shift), c) for e, lc, c in terms)


def _exp_sum_zeros(terms: list[tuple[float, float, float]]) -> list[float]:
    """Sign changes in t of sum(c * e^(e*t)), by Rolle recursion.

    The (e, ln|c|, c) terms have strictly descending exponents and nonzero
    coefficients, so there are at most len(terms) - 1 zeros (Descartes).
    Two terms balance in closed form. Otherwise the sum divided by its last
    term is monotone between the zeros of its derivative, a sum of one term
    fewer; each interval holding a sign change is bracketed, widened
    towards an infinite end until the sign of the dominant term shows, and
    bisected until at most 1e-15 + 8.9e-16 |t| wide; its midpoint is the
    zero. A zero exactly at a zero of the derivative is listed too. The sum
    is evaluated scaled by its largest term.
    """
    if len(terms) < 2:
        return []
    if len(terms) == 2:
        (e1, l1, c1), (e2, l2, c2) = terms
        return [(l2 - l1) / (e1 - e2)] if (c1 < 0) != (c2 < 0) else []
    e0 = terms[-1][0]
    slopes = [(e - e0, lc + math.log(e - e0), c) for e, lc, c in terms[:-1]]
    knots = _exp_sum_zeros(slopes) or [0.0]

    def f(t: float) -> float:
        return _exp_sum(terms, t, max(e * t + lc for e, lc, _ in terms))

    zeros = []
    # None stands for -inf and +inf, where the sum has its last and first term's sign
    ends = [(None, terms[-1][2]), *((t, f(t)) for t in knots), (None, terms[0][2])]
    for (lo, flo), (hi, fhi) in zip(ends, ends[1:]):
        if lo is not None and flo == 0.0:
            zeros.append(lo)
        if not (flo < 0 < fhi or fhi < 0 < flo):
            continue
        if lo is None:
            lo = _widen(f, hi, -1.0, flo < 0)
        if hi is None:
            hi = _widen(f, lo, 1.0, fhi < 0)
        t = 0.5 * (lo + hi)
        while hi - lo > 1e-15 + 8.9e-16 * abs(t):  # the tolerance exceeds one ulp of t, so this ends
            if (f(t) < 0) == (flo < 0):
                lo = t
            else:
                hi = t
            t = 0.5 * (lo + hi)
        zeros.append(t)
    return zeros


def _widen(f, t: float, step: float, negative: bool) -> float:
    """First t + step*2^k (k = 0, 1, ...) at which f has the given sign."""
    while (f(t + step) < 0) != negative:
        step *= 2.0
    return t + step


def _sheet_count(terms: list[tuple[float, float]], phi: float) -> int | None:
    """Zeros of Q(lam) = sum(c * lam^e) (principal powers) in |arg lam| < phi.

    Argument principle on the sector: N = (e_max*phi - D)/pi, where D is the
    change of arg Q along the ray lam = e^(t + i*phi), t from -inf to +inf.
    Re Q and Im Q on the ray are sums of real exponentials in t; between
    consecutive zeros of either the curve stays in one open quadrant, so the
    arg change between samples taken there is their principal difference.
    Returns None when Re Q and Im Q vanish together, i.e. a zero lies on the
    ray (to rounding). The constant term must be nonzero.
    """
    parts = [[(e, c * trig(e * phi)) for e, c in terms] for trig in (math.cos, math.sin)]
    re, im = (_log_terms(part) for part in parts)
    both = re + im
    ts = sorted(set(_exp_sum_zeros(re) + _exp_sum_zeros(im)))
    mids = [(t1 + t2) / 2.0 for t1, t2 in zip(ts, ts[1:])]
    samples = [ts[0] - 1.0, *mids, ts[-1] + 1.0] if ts else [0.0]
    x0, y0 = terms[-1][1], 0.0  # Q(0) is the constant term
    arg0, turn = math.atan2(y0, x0), 0.0
    for t in samples:
        shift = max(e * t + lc for e, lc, _ in both)
        x, y = _exp_sum(re, t, shift), _exp_sum(im, t, shift)
        if (x < 0) != (x0 < 0) and (y < 0) != (y0 < 0) and y0 != 0.0:
            return None
        arg = math.atan2(y, x)
        turn += math.remainder(arg - arg0, 2.0 * math.pi)
        x0, y0, arg0 = x, y, arg
    # Q ~ lam^e_max as t -> inf
    e_max = terms[0][0]
    turn += math.remainder(e_max * phi - arg0, 2.0 * math.pi)
    return round((e_max * phi - turn) / math.pi)


def classify_stability(params: JerkParams, orders: OrderSpec, eq: Equilibrium) -> str:
    """Asymptotic stability of an equilibrium by the argument criterion.

    The verdict compares the smallest |arg| among the characteristic roots
    with the ray angle, within +-1e-9: STABLE above it, UNSTABLE below,
    MARGINAL inside the band. A commensurate order takes the roots of the
    cubic (the Jacobian eigenvalues) and compares them with alpha*pi/2; a
    root that ``np.roots`` returns as exactly 0 while the constant term is
    not 0 is recovered from the product of the roots.

    Rational orders count roots instead of finding them. With lam = w^M the
    roots w of the lifted polynomial with |arg w| < pi/M are exactly the
    zeros of Q(lam) = lam^((p+q+m)/M) + a*eps*lam^((p+q)/M) + b*lam^(p/M)
    -+ 2*eps (principal powers); every other root lies at least pi/(2M)
    beyond the ray pi/(2M). So the verdict is STABLE when Q has no zero in
    |arg lam| <= pi/2 + M*1e-9, UNSTABLE when it has one in
    |arg lam| < pi/2 - M*1e-9, and MARGINAL otherwise. A zero on the outer
    ray rules out STABLE, and one on the inner ray gives MARGINAL.
    ``_sheet_count`` counts by the argument principle, at a cost that does
    not grow with M. At eps = 0, lam = 0 is
    a root and the verdict is UNSTABLE, as np.angle(0) = 0 makes it on the
    cubic path. Both sectors lie on the principal sheet only while
    M*1e-9 < pi/2, so from M*1e-9 >= pi/2 on (M of about 1.6e9) the
    verdict is refused with UnsupportedClassification.
    """
    tol = 1e-9
    s = _branch_sign(eq.branch)
    if orders.is_commensurate:
        coeffs = [c for _, c in _char_terms(params.a, params.b, params.epsilon, *_CUBIC, s)]
        roots = np.roots(coeffs)
        if coeffs[-1] != 0.0 and np.count_nonzero(roots) == len(roots) - 1:
            # a root far below the others can come out as exactly 0 (on the
            # minus branch, -2*eps/b for eps below about 1e-30); the product
            # of the roots, -c0/c3, gives it back
            zero = roots == 0.0
            roots[zero] = -coeffs[-1] / (coeffs[0] * np.prod(roots[~zero]))
        margin = np.abs(np.angle(roots)).min() - orders.alpha * math.pi / 2.0
        if margin > tol:
            return STABLE
        if margin >= -tol:
            return MARGINAL
        return UNSTABLE
    reduced = reduce_orders(orders)
    lift, M = _lift(reduced), reduced.M
    if M * tol >= math.pi / 2.0:
        raise UnsupportedClassification(
            f"M = {M}: the sectors pi/2 +- M*1e-9 leave the principal sheet once M*1e-9 >= pi/2"
        )
    if params.epsilon == 0.0:
        return UNSTABLE
    terms = [(k / M, c) for k, c in _char_terms(params.a, params.b, params.epsilon, *lift, s)]
    if _sheet_count(terms, math.pi / 2.0 + M * tol) == 0:
        return STABLE
    return UNSTABLE if _sheet_count(terms, math.pi / 2.0 - M * tol) else MARGINAL
