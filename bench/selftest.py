#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Each case runs one check of checks.py on a right answer, which must pass,
and on a deliberately wrong one, which must fail. Exits 1 if any case does
not behave so. Takes a few seconds.
"""

from __future__ import annotations

import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fjerk import chaos, hopf, output, solver  # noqa: E402
from fjerk.model import JerkParams, OrderSpec  # noqa: E402

import checks  # noqa: E402

A, B = 0.129, 7.0
CASES = []


def case(fn):
    CASES.append(fn)
    return fn


@case
def eps_h_shifted_by_1e_6():
    s = hopf.hopf_commensurate(A, B, 0.95, "minus")
    right = [(0.95, "minus", s.gamma_H, s.epsilon_H)]
    wrong = [(0.95, "minus", s.gamma_H, s.epsilon_H + 1e-6)]
    return checks.check_hopf_commensurate(A, B, right), checks.check_hopf_commensurate(A, B, wrong)


@case
def gamma_h_off_the_eigenvalue_modulus():
    s = hopf.hopf_commensurate(A, B, 0.93, "plus")
    right = [(0.93, "plus", s.gamma_H, s.epsilon_H)]
    wrong = [(0.93, "plus", s.gamma_H * (1 + 1e-6), s.epsilon_H)]
    return checks.check_hopf_commensurate(A, B, right), checks.check_hopf_commensurate(A, B, wrong)


@case
def lifted_eps_h_shifted_by_1e_6():
    orders = (Fraction(1), Fraction(97, 100), Fraction(1))
    s = hopf.hopf_incommensurate(A, B, OrderSpec.incommensurate(*orders), "plus")
    right = [(orders, "plus", s.gamma_H, s.epsilon_H)]
    wrong = [(orders, "plus", s.gamma_H, s.epsilon_H + 1e-6)]
    return (checks.check_hopf_incommensurate(A, B, right),
            checks.check_hopf_incommensurate(A, B, wrong))


@case
def lift_disagrees_with_commensurate():
    frac = Fraction(9, 10)
    s = hopf.hopf_incommensurate(A, B, OrderSpec.incommensurate(frac, frac, frac), "plus")
    c = hopf.hopf_commensurate(A, B, 0.9, "plus")
    right = [(frac, (s.gamma_H, s.epsilon_H), (c.gamma_H, c.epsilon_H))]
    wrong = [(frac, (s.gamma_H, s.epsilon_H * (1 + 1e-7)), (c.gamma_H, c.epsilon_H))]
    return checks.check_lift_agrees(right), checks.check_lift_agrees(wrong)


@case
def stability_does_not_flip():
    return (checks.check_stability_flips([("x", "stable", "unstable")]),
            checks.check_stability_flips([("x", "stable", "stable")]))


@case
def cli_eps_h_differs_in_the_last_digit():
    eps = hopf.hopf_commensurate(A, B, 0.95, "minus").epsilon_H
    right = f"branch=minus\nepsilon_H={output.fmt(eps)}\n"
    wrong = f"branch=minus\nepsilon_H={output.fmt(np.nextafter(eps, np.inf))}\n"
    return (checks.check_cli_hopf([(["hopf"], right, eps)]),
            checks.check_cli_hopf([(["hopf"], wrong, eps)]))


def _small_sweep(tmp):
    res = chaos.sweep_bifurcation(JerkParams(A, B, 0.0), OrderSpec.commensurate(0.91),
                                  (6.0, 7.0), 3, solver.SolveConfig(t_end=20.0), workers=1)
    csv_path, svg_path = Path(tmp) / "sweep.csv", Path(tmp) / "b.svg"
    output.write_sweep_csv(res, csv_path)
    output.render_svg([(pt.epsilon, v) for pt in res.points
                       for v in np.concatenate([pt.maxima, pt.minima])], "bifurcation", svg_path)
    grid = [pt.epsilon for pt in res.points]
    return grid, [(pt.maxima, pt.minima) for pt in res.points], csv_path.read_text(), \
        svg_path.read_text()


@case
def one_extremum_altered_in_the_reread_csv():
    with tempfile.TemporaryDirectory() as tmp:
        grid, extrema, csv_text, _ = _small_sweep(tmp)
    lines = csv_text.splitlines()
    eps, kind, value = lines[3].split(",")
    lines[3] = ",".join((eps, kind, output.fmt(np.nextafter(float(value), np.inf))))
    return (checks.check_sweep_csv(checks.parse_sweep_csv(csv_text), grid, extrema),
            checks.check_sweep_csv(checks.parse_sweep_csv("\n".join(lines)), grid, extrema))


@case
def one_svg_marker_missing():
    with tempfile.TemporaryDirectory() as tmp:
        grid, extrema, _, svg_text = _small_sweep(tmp)
    start = svg_text.index("<circle")
    wrong = svg_text[:start] + svg_text[svg_text.index("\n", start) + 1:]
    return (checks.check_svg_markers(svg_text, grid, extrema),
            checks.check_svg_markers(wrong, grid, extrema))


def _lanes(kinds, top_branches=2):
    grid = [3.8, 5.0, 6.0, 7.78]
    top = (np.array([1.0, 1.01]), np.array([-2.0, -2.01]) if top_branches == 2 else np.array([0.5]))
    extrema = [(np.array([1.0]), np.array([0.0]))] * 3 + [top]
    return grid, kinds, extrema


@case
def lowest_lane_not_periodic():
    right = _lanes(["periodic", "periodic", "chaotic", "chaotic"])
    wrong = _lanes(["chaotic", "periodic", "chaotic", "chaotic"])
    return (checks.check_sweep_lanes(*right, 7.78, 5.5), checks.check_sweep_lanes(*wrong, 7.78, 5.5))


@case
def chaotic_lane_classified_periodic():
    wrong = _lanes(["periodic", "periodic", "periodic", "chaotic"])
    return (checks.check_sweep_lanes(*_lanes(["periodic"] * 2 + ["chaotic"] * 2), 7.78, 5.5),
            checks.check_sweep_lanes(*wrong, 7.78, 5.5))


@case
def top_lane_with_one_branch():
    kinds = ["periodic", "periodic", "chaotic", "chaotic"]
    wrong = _lanes(kinds, top_branches=1)
    return (checks.check_sweep_lanes(*_lanes(kinds), 7.78, 5.5),
            checks.check_sweep_lanes(*wrong, 7.78, 5.5))


@case
def trajectory_off_the_dff_scheme():
    eps, orders = 6.0, OrderSpec.incommensurate("1", "9/10", "1")
    traj = solver.integrate(JerkParams(A, B, eps), orders, solver.SolveConfig(t_end=2.0))
    ref = checks.dff_predictor_corrector(A, B, eps, orders.alphas, (0, 0, 0), 0.005, 400)
    wrong = traj.states.copy()
    wrong[200, 1] += 1e-6
    return checks.check_dff(traj.states, ref), checks.check_dff(wrong, ref)


@case
def lambda1_not_positive():
    return (checks.check_spectra([("p", (0.2, 0.0, -1.0), 88)], 88),
            checks.check_spectra([("p", (-0.01, -0.02, -1.0), 88)], 88))


@case
def non_finite_exponent():
    return (checks.check_spectra([("p", (0.2, 0.0, -1.0), 88)], 88),
            checks.check_spectra([("p", (0.2, float("nan"), -1.0), 88)], 88))


@case
def renormalisation_count_off_by_one():
    n = checks.expected_renorms(125.0, 0.005, 200, 0.3)
    return (checks.check_spectra([("p", (0.2, 0.0, -1.0), 88)], n),
            checks.check_spectra([("p", (0.2, 0.0, -1.0), 89)], n))


def main():
    failures = 0
    for fn in CASES:
        right, wrong = fn()
        ok = not right and bool(wrong)
        failures += not ok
        detail = f"right answer flagged: {right}" if right else (
            "wrong answer passed" if not wrong else wrong[0])
        print(f"{'PASS' if ok else 'FAIL'} {fn.__name__}: {detail}")
    print(f"{len(CASES) - failures}/{len(CASES)} checks reject their wrong answer")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
