"""Output checks of the benchmark, built on computations made apart from fjerk.

Every check takes the program's outputs and returns a list of problems (empty
when the outputs are right), so `selftest.py` can feed each one a wrong answer.
The references here do not call the library: the vector field, the Jacobian,
the characteristic polynomials and the predictor-corrector are written out
again from the equations.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

import numpy as np

# Tolerances, fixed before any output was seen.
RESIDUAL_TOL = 1e-8      # |char. polynomial| at gamma_H e^{i theta}
ARG_TOL = 1e-9           # | |arg lambda| - alpha pi / 2 |
MODULUS_RTOL = 1e-8      # |lambda| against gamma_H
AGREE_RTOL = 1e-9        # (v/u)^3 lift against commensurate alpha = v/u
DFF_RTOL = 1e-9          # library trajectory against the plain DFF scheme


def jerk_field(a, b, eps, s):
    """(y, z, -eps^2 - b y - a eps z + x^2), written out from the equations."""
    x, y, z = s
    return np.array([y, z, -eps * eps - b * y - a * eps * z + x * x])


def dff_predictor_corrector(a, b, eps, alphas, y0, h, n_steps):
    """Plain Diethelm-Ford-Freed predictor-corrector (Nonlinear Dyn. 29, 2002).

    Weights are taken straight from the paper's formulas for every step
    (no precomputed lag tables); one order per equation.
    """
    alphas = np.asarray(alphas, float)
    y0 = np.asarray(y0, float)
    gam1 = np.array([math.gamma(al + 1.0) for al in alphas])
    gam2 = np.array([math.gamma(al + 2.0) for al in alphas])
    ha = h ** alphas
    Y = np.empty((n_steps + 1, 3))
    F = np.empty((n_steps + 1, 3))
    Y[0] = y0
    F[0] = jerk_field(a, b, eps, y0)
    for n in range(n_steps):
        j = np.arange(n + 1, dtype=float)[:, None]
        bw = (n + 1 - j) ** alphas - (n - j) ** alphas
        yp = y0 + ha / gam1 * (bw * F[: n + 1]).sum(axis=0)
        aw = (n - j + 2) ** (alphas + 1) + (n - j) ** (alphas + 1) - 2 * (n - j + 1) ** (alphas + 1)
        aw[0] = n ** (alphas + 1) - (n - alphas) * (n + 1) ** alphas
        fp = jerk_field(a, b, eps, yp)
        Y[n + 1] = y0 + ha / gam2 * (fp + (aw * F[: n + 1]).sum(axis=0))
        F[n + 1] = jerk_field(a, b, eps, Y[n + 1])
    return Y


def _branch_sign(branch):
    """Sign of the 2*eps constant term: E1 = (+eps, 0, 0) gives -1."""
    return -1.0 if branch == "plus" else 1.0


def cubic_residual(a, b, eps, branch, gamma, alpha):
    """|lambda^3 + a eps lambda^2 + b lambda -+ 2 eps| at gamma e^{i alpha pi / 2}."""
    lam = gamma * complex(math.cos(alpha * math.pi / 2), math.sin(alpha * math.pi / 2))
    return abs(lam**3 + a * eps * lam**2 + b * lam + _branch_sign(branch) * 2.0 * eps)


def lift(orders):
    """(M, p, q, m) of rational orders: M = lcm of the denominators."""
    fr = [Fraction(o) for o in orders]
    M = math.lcm(*(f.denominator for f in fr))
    p, q, m = (int(f * M) for f in fr)
    return M, p, q, m


def lifted_residual(a, b, eps, branch, gamma, orders):
    """|w^(p+q+m) + a eps w^(p+q) + b w^p -+ 2 eps| at w = gamma e^{i pi / (2M)}."""
    M, p, q, m = lift(orders)
    w = gamma * complex(math.cos(math.pi / (2 * M)), math.sin(math.pi / (2 * M)))
    return abs(w ** (p + q + m) + a * eps * w ** (p + q) + b * w**p
               + _branch_sign(branch) * 2.0 * eps)


def jacobian_eigs(a, b, eps, branch):
    """Eigenvalues of the Jacobian at E1 = (eps,0,0) or E2 = (-eps,0,0)."""
    x = eps if branch == "plus" else -eps
    J = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [2.0 * x, -b, -a * eps]])
    return np.linalg.eigvals(J)


def _minus_quadratic(a, b, alpha):
    """Coefficients (c2, c1, c0) of the minus-branch quadratic in u = r^2.

    Eliminating eps between the polar parts of the cubic at r e^{i theta}
    leaves a sin(theta) u^2 + (2 s sin 3theta - a b sin theta) u
    + 2 s b sin(theta) = 0, with s = +1 on the minus branch.
    """
    th = math.pi * alpha / 2
    s1, s3 = math.sin(th), math.sin(3 * th)
    return a * s1, 2 * s3 - a * b * s1, 2 * b * s1


def minus_fold_alpha(a, b):
    """Order below which the minus branch has no critical modulus.

    The quadratic's roots are real and positive once its discriminant turns
    positive; bisect for that order on (2/3, 1).
    """
    def disc(alpha):
        c2, c1, c0 = _minus_quadratic(a, b, alpha)
        return c1 * c1 - 4 * c2 * c0

    lo, hi = 2.0 / 3.0 + 1e-9, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if disc(mid) < 0 else (lo, mid)
    return hi


def minus_critical_eps(a, b, alpha):
    """eps at both critical moduli of the minus branch, smaller modulus first."""
    c2, c1, c0 = _minus_quadratic(a, b, alpha)
    root = math.sqrt(c1 * c1 - 4 * c2 * c0)
    th = math.pi * alpha / 2
    out = []
    for u in ((-c1 - root) / (2 * c2), (-c1 + root) / (2 * c2)):
        r = math.sqrt(u)
        out.append(-(r**3 * math.cos(3 * th) + b * r * math.cos(th))
                   / (a * r * r * math.cos(2 * th) + 2))
    return tuple(out)


def check_hopf_commensurate(a, b, sols):
    """sols: [(alpha, branch, gamma_H, eps_H)]."""
    bad = []
    for alpha, branch, gamma, eps in sols:
        res = cubic_residual(a, b, eps, branch, gamma, alpha)
        if not res <= RESIDUAL_TOL:
            bad.append(f"alpha={alpha!r} {branch}: cubic residual {res:.3g}")
        lam = jacobian_eigs(a, b, eps, branch)
        hit = (np.abs(np.abs(np.angle(lam)) - alpha * math.pi / 2) <= ARG_TOL) & (
            np.abs(np.abs(lam) - gamma) <= MODULUS_RTOL * gamma)
        if hit.sum() != 2:
            bad.append(f"alpha={alpha!r} {branch}: no eigenvalue pair on arg = alpha pi/2")
    return bad


def check_hopf_incommensurate(a, b, sols):
    """sols: [(orders, branch, gamma_H, eps_H)] with orders as Fractions."""
    bad = []
    for orders, branch, gamma, eps in sols:
        res = lifted_residual(a, b, eps, branch, gamma, orders)
        if not res <= RESIDUAL_TOL:
            bad.append(f"orders={orders}: lifted residual {res:.3g}")
    return bad


def check_lift_agrees(pairs):
    """pairs: [(v/u, lifted (gamma, eps) of (v/u)^3, commensurate (gamma, eps))]."""
    bad = []
    for frac, (g_i, e_i), (g_c, e_c) in pairs:
        g_i = g_i ** frac.numerator
        if abs(g_i - g_c) > AGREE_RTOL * max(1.0, abs(g_c)) or abs(e_i - e_c) > AGREE_RTOL * max(1.0, abs(e_c)):
            bad.append(f"(v/u)^3 with v/u={frac}: ({g_i!r}, {e_i!r}) vs commensurate ({g_c!r}, {e_c!r})")
    return bad


def check_stability_flips(verdicts):
    """verdicts: [(label, verdict below eps_H, verdict above eps_H)]."""
    return [f"{label}: {lo} below eps_H, {hi} above"
            for label, lo, hi in verdicts if {lo, hi} != {"stable", "unstable"}]


def check_cli_hopf(pairs):
    """pairs: [(argv, CLI stdout, library eps_H)]; equality is exact."""
    bad = []
    for argv, stdout, eps in pairs:
        m = re.search(r"^epsilon_H=(\S+)$", stdout, re.M)
        if m is None or float(m.group(1)) != eps:
            bad.append(f"{' '.join(argv)}: CLI epsilon_H {m and m.group(1)} != library {eps!r}")
    return bad


def gap_clusters(values, rel_tol):
    """Number of groups of sorted values split at gaps above rel_tol * spread."""
    v = np.sort(np.asarray(values, float))
    if v.size == 0:
        return 0
    return 1 + int(np.sum(np.diff(v) > rel_tol * (v[-1] - v[0])))


def check_sweep_lanes(eps_grid, classes, extrema, eps_top, eps_chaos):
    """classes: library verdict kinds; extrema: [(maxima, minima)] per lane."""
    bad = []
    if classes[0] != "periodic":
        bad.append(f"lowest lane eps={eps_grid[0]!r} classified {classes[0]}")
    if eps_grid[-1] != eps_top:
        bad.append(f"top lane at eps={eps_grid[-1]!r}, expected {eps_top!r}")
    top = np.concatenate(extrema[-1])
    if gap_clusters(top, 1e-2) != 2:
        bad.append(f"top lane extrema form {gap_clusters(top, 1e-2)} branches, expected 2")
    for eps, kind in zip(eps_grid, classes):
        if eps >= eps_chaos and kind != "chaotic":
            bad.append(f"lane eps={eps!r} classified {kind}, expected chaotic")
    return bad


def check_dff(states, reference):
    """states: the library's trajectory on the DFF reference's time grid."""
    scale = max(1.0, float(np.abs(reference).max()))
    err = float(np.abs(states - reference).max())
    return [] if err <= DFF_RTOL * scale else [f"trajectory differs from DFF reference by {err:.3g}"]


def parse_sweep_csv(text):
    """[(epsilon, kind, value)] of the extrema rows of a sweep CSV."""
    lines = text.splitlines()
    if not lines or lines[0] != "epsilon,kind,x_value":
        return None
    rows = []
    for line in lines[1:]:
        eps, kind, value = line.split(",")
        if kind != "divergent":
            rows.append((float(eps), kind, float(value)))
    return rows


def check_sweep_csv(rows, eps_grid, extrema):
    """rows re-read from sweep.csv must equal the in-memory extrema bit for bit."""
    if rows is None:
        return ["sweep.csv lacks its header"]
    expected = [(float(e), kind, float(v))
                for e, (mx, mn) in zip(eps_grid, extrema)
                for kind, vals in (("max", mx), ("min", mn)) for v in vals]
    if len(rows) != len(expected):
        return [f"sweep.csv has {len(rows)} rows, expected {len(expected)}"]
    return [f"sweep.csv row {i + 2}: {got} != {want}"
            for i, (got, want) in enumerate(zip(rows, expected)) if got != want][:5]


def check_svg_markers(svg_text, eps_grid, extrema):
    """One circle per (eps, extremum): same x pixel count per lane as extrema."""
    xs = [float(m) for m in re.findall(r'<circle cx="([-0-9.]+)"', svg_text)]
    want = [len(mx) + len(mn) for mx, mn in extrema]
    if len(xs) != sum(want):
        return [f"SVG has {len(xs)} markers, expected {sum(want)}"]
    got = [len(list(g)) for _, g in itertools.groupby(xs)]
    return [] if got == [w for w in want if w] else [f"SVG markers per lane {got} != {want}"]


def expected_renorms(t_end, h, renorm_every, transient):
    """Renormalisations at times k*renorm_every*h <= t_end after the transient."""
    h, t_end, transient = (Fraction(str(v)) for v in (h, t_end, transient))
    step = h * renorm_every
    cut = transient * t_end
    n_total = int(t_end / h) // renorm_every
    return sum(1 for k in range(1, n_total + 1) if k * step > cut)


def check_spectra(spectra, expected_count):
    """spectra: [(label, exponents, renorm_count)]."""
    bad = []
    for label, exps, count in spectra:
        if not all(math.isfinite(x) for x in exps):
            bad.append(f"{label}: non-finite exponents {exps}")
        elif not exps[0] > 0.0:
            bad.append(f"{label}: lambda1 = {exps[0]!r} is not positive")
        if count != expected_count:
            bad.append(f"{label}: {count} renormalisations, expected {expected_count}")
    return bad
