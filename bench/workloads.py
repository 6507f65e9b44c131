"""The three paper workloads: seeded inputs, one timed round, output checks.

Each workload draws its inputs from the seed once (`__init__`), then the
loop in `run.py` repeats `run_round` for the run length. A round is one
full pass of the workload; every round attempts the same operations, so the
share of failed operations does not depend on the run length. `check` tests
the first round's outputs with `checks.py`; `same` tells whether a later
round reproduced them.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from fjerk import chaos, cli, hopf, model, output, solver
from fjerk.exceptions import FjerkError
from fjerk.model import JerkParams, OrderSpec, equilibria
from fjerk.solver import SolveConfig

import checks

# Paper defaults: a, b, step, initial state, transient share; full memory.
A, B, H, X0, TRANSIENT = 0.129, 7.0, 0.005, (0.0, 0.0, 0.0), 0.3
MB = 1024.0 * 1024.0


@dataclass
class Round:
    wall_s: float       # the whole round, outputs included
    attempted: int
    failed: int
    ops_per_s: float    # main operations per second of the phase that runs them
    outputs: object     # what `check` and `same` look at
    layers: dict        # per-layer values the spans cannot give


def _history_bytes(alphas, n_steps):
    """History F, weight tables (Wb, WaR, a0) and state array Y of caputo_abm."""
    rows = n_steps + 1
    groups = len(set(alphas))
    return 8 * rows * (len(alphas) + 3 * groups + len(alphas) + 1)


def _counting(field):
    """rhs(t, s) = field(s) that counts its calls and the time spent in them."""
    tally = {"calls": 0, "s": 0.0}

    def rhs(t, s):
        t0 = time.perf_counter()
        out = field(s)
        tally["s"] += time.perf_counter() - t0
        tally["calls"] += 1
        return out

    return rhs, tally


def _history_probe(field, alphas, y0, n_steps, **renorm):
    """caputo_abm with a counting rhs at n_steps and at a quarter of it.

    Self time (caputo_abm time minus rhs time) at the two horizons: a ratio
    near 16 means the O(N^2) convolution dominates, near 4 per-step overhead.
    """
    out = {}
    for key, n in (("", n_steps), ("_quarter", n_steps // 4)):
        rhs, tally = _counting(field)
        t0 = time.perf_counter()
        solver.caputo_abm(rhs, alphas, y0, H, n, None, **renorm)
        total = time.perf_counter() - t0
        out[f"solver.history{key}_s"] = total - tally["s"]
        if not key:
            out["solver.rhs_calls"] = tally["calls"]
            out["solver.rhs_s"] = tally["s"]
    return out


class SweepA091:
    """The alpha = 0.91 bifurcation diagram, as `fjerk sweep --svg` makes it."""

    name = "sweep-a091"
    ALPHA, EPS_LO, EPS_HI, N_POINTS, T_END = 0.91, 3.781, 7.78, 6, 150.0
    EPS_CHAOS = 5.5   # every lane at or above this epsilon is chaotic at T_END
    DFF_T = 10.0      # opening stretch compared with the plain DFF scheme

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        # The seed moves the lowest lane up to 0.1 above the paper's 3.781,
        # which shifts every lane below the top one (fixed at 7.78).
        self.eps_lo = self.EPS_LO + 0.1 * float(rng.random())
        self.dff_lane = int(rng.integers(self.N_POINTS))
        self.orders = OrderSpec.commensurate(self.ALPHA)
        self.cfg = SolveConfig(h=H, t_end=self.T_END, initial_state=X0)
        self.workers = min(2, os.cpu_count() or 1)
        self.out_dir = out_dir
        self.n_steps = self.cfg.n_steps

    def run_round(self):
        csv_path = self.out_dir / "sweep.csv"
        svg_path = self.out_dir / "bifurcation.svg"
        t0 = time.perf_counter()
        res = chaos.sweep_bifurcation(
            JerkParams(A, B, 0.0), self.orders, (self.eps_lo, self.EPS_HI), self.N_POINTS,
            self.cfg, transient_fraction=TRANSIENT, workers=self.workers,
        )
        kinds = [chaos.classify_attractor(None if pt.diverged else (pt.maxima, pt.minima)).kind
                 for pt in res.points]
        t1 = time.perf_counter()
        output.write_sweep_csv(res, csv_path)
        scatter = [(pt.epsilon, v) for pt in res.points if not pt.diverged
                   for v in np.concatenate([pt.maxima, pt.minima])]
        output.render_svg(scatter, "bifurcation", svg_path,
                          title=f"bifurcation a={A:g} b={B:g} orders={self.ALPHA:g}")
        t2 = time.perf_counter()
        failed = sum(pt.diverged for pt in res.points)
        layers = {"output.csv_mb": csv_path.stat().st_size / MB,
                  "solver.history_mb": _history_bytes([self.ALPHA] * 3, self.n_steps) / MB}
        return Round(t2 - t0, self.N_POINTS + 2, failed, self.N_POINTS / (t1 - t0),
                     (res, kinds, csv_path.read_bytes(), svg_path.read_text()), layers)

    def check(self, outputs):
        res, kinds, csv_bytes, svg_text = outputs
        grid = [pt.epsilon for pt in res.points]
        extrema = [(pt.maxima, pt.minima) for pt in res.points]
        bad = [f"lane eps={pt.epsilon!r} diverged at t={pt.divergence_time}"
               for pt in res.points if pt.diverged]
        bad += checks.check_sweep_lanes(grid, kinds, extrema, self.EPS_HI, self.EPS_CHAOS)
        bad += checks.check_sweep_csv(checks.parse_sweep_csv(csv_bytes.decode()), grid, extrema)
        bad += checks.check_svg_markers(svg_text, grid, extrema)
        eps = grid[self.dff_lane]
        n = int(round(self.DFF_T / H))
        traj = solver.integrate(JerkParams(A, B, eps), self.orders,
                                SolveConfig(h=H, t_end=self.DFF_T, initial_state=X0))
        ref = checks.dff_predictor_corrector(A, B, eps, self.orders.alphas, X0, H, n)
        bad += checks.check_dff(traj.states, ref)
        return bad

    @staticmethod
    def same(a, b):
        return a[1] == b[1] and a[2] == b[2] and all(
            np.array_equal(p.maxima, q.maxima) and np.array_equal(p.minima, q.minima)
            for p, q in zip(a[0].points, b[0].points))

    def trace_extras(self):
        params = JerkParams(A, B, self.EPS_HI)
        return _history_probe(lambda s: model.vector_field(params, s), [self.ALPHA] * 3, X0,
                              self.n_steps)


class Spectrum:
    """The paper's two chaotic Lyapunov spectra through lyapunov_spectrum."""

    name = "spectrum"
    T_END, RENORM = 85.0, 200
    POINTS = (("alpha=0.99", OrderSpec.commensurate(0.99), 7.78),
              ("alphas=1,99/100,1", OrderSpec.incommensurate("1", "99/100", "1"), 7.913))

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        # The seed moves each epsilon by less than 5e-4, so both points stay
        # the paper's to its three decimals.
        self.points = [(label, orders, eps + (float(rng.random()) - 0.5) * 1e-3)
                       for label, orders, eps in self.POINTS]
        self.cfg = SolveConfig(h=H, t_end=self.T_END, initial_state=X0)
        self.n_steps = self.cfg.n_steps

    def run_round(self):
        t0 = time.perf_counter()
        spectra = [(label, chaos.lyapunov_spectrum(JerkParams(A, B, eps), orders, self.cfg,
                                                   self.RENORM, TRANSIENT))
                   for label, orders, eps in self.points]
        wall = time.perf_counter() - t0
        n_renorm = self.n_steps // self.RENORM
        rewrite = sum((k * self.RENORM + 1) * 9 * 8 for k in range(1, n_renorm + 1))
        layers = {
            "solver.renorm_rewrite_mb": len(self.points) * rewrite / MB,
            "solver.history_mb": max(_history_bytes(self._tangent_alphas(o), self.n_steps)
                                     for _, o, _ in self.points) / MB,
        }
        outputs = [(label, s.exponents, s.renorm_count) for label, s in spectra]
        return Round(wall, len(self.points), 0, len(self.points) / wall, outputs, layers)

    def check(self, outputs):
        expected = checks.expected_renorms(self.T_END, H, self.RENORM, TRANSIENT)
        return checks.check_spectra(outputs, expected)

    @staticmethod
    def same(a, b):
        return a == b

    @staticmethod
    def _tangent_alphas(orders):
        a1, a2, a3 = orders.alphas
        return [a1, a2, a3] + [a1] * 3 + [a2] * 3 + [a3] * 3

    def trace_extras(self):
        _, orders, eps = self.points[0]
        params = JerkParams(A, B, eps)

        def field(s):
            out = np.empty(12)
            out[:3] = model.vector_field(params, s[:3])
            out[3:] = (model.jacobian(params, s[:3]) @ s[3:].reshape(3, 3)).reshape(-1)
            return out

        y0 = np.concatenate([X0, np.eye(3).reshape(-1)])
        return _history_probe(field, self._tangent_alphas(orders), y0, self.n_steps,
                              renorm_every=self.RENORM, renorm_cols=np.arange(3, 12),
                              renorm_shape=(3, 3))


class HopfCurve:
    """The eps_H(alpha) curve: critical pairs, stability flips, CLI runs."""

    name = "hopf-curve"
    N_COMM = 1000         # commensurate draws per branch
    N_INCOMM = 50         # draws per incommensurate family
    FLIP = 0.02           # classify at eps_H * (1 -+ FLIP) at most
    CLASSIFY_V = (91, 93, 97, 99)   # v of the v/100 orders classified (degree 273-299)

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        fold = checks.minus_fold_alpha(A, B)
        # Admissible commensurate pairs: alpha in (2/3, 1]. The plus branch
        # leaves out the 1e-3 neighbourhood of 2/3 that hopf_commensurate
        # refuses (sin 3 theta vanishes); the minus branch has no critical
        # modulus below the fold, and the draws keep 1e-6 above it.
        self.comm = []
        for branch, lo in (("plus", 2.0 / 3.0 + 1e-3), ("minus", fold + 1e-6)):
            kept = 0
            while kept < self.N_COMM:
                alpha = 1.0 - float(rng.random()) / 3.0
                if alpha >= lo:
                    self.comm.append((alpha, branch))
                    kept += 1
        # The minus-branch equilibrium is unstable between its two critical
        # eps; near the fold they close in, so the classification offset
        # stays within a quarter of that gap.
        self.flip = {}
        for alpha, branch in self.comm:
            if branch == "minus":
                e1, e2 = checks.minus_critical_eps(A, B, alpha)
                self.flip[alpha] = min(self.FLIP, (e2 - e1) / (4 * e1))
        self.incomm = []
        for family in ("1,v/u,1", "v/u,v/u,v/u"):
            for _ in range(self.N_INCOMM):
                u = int(rng.integers(20, 101))
                v = int(rng.integers(math.ceil(0.7 * u), u))
                self.incomm.append(self._orders(family, Fraction(v, u)))
        # One order of each family at degree near 300 is classified on both
        # sides of eps_H.
        self.classify = [self._orders(f, Fraction(int(rng.choice(self.CLASSIFY_V)), 100))
                         for f in ("1,v/u,1", "v/u,v/u,v/u")]
        alpha_minus = next(al for al, br in self.comm if br == "minus")
        alpha_plus = next(al for al, br in self.comm if br == "plus")
        common = ["hopf", "--a", repr(A), "--b", repr(B)]
        # (argv, key of the library solution its epsilon_H must equal)
        self.cli_runs = [
            (common + ["--alpha", repr(alpha_minus), "--branch", "minus"], (alpha_minus, "minus")),
            (common + ["--alpha", repr(alpha_plus), "--branch", "plus"], (alpha_plus, "plus")),
            (common + ["--alphas", ",".join(str(f) for f in self.classify[0])], self.classify[0]),
        ]
        self.env = dict(os.environ, PYTHONPATH=str(Path(solver.__file__).parents[1]))

    @staticmethod
    def _orders(family, frac):
        return (Fraction(1), frac, Fraction(1)) if family == "1,v/u,1" else (frac,) * 3

    def _solve_incomm(self, orders):
        return hopf.hopf_incommensurate(A, B, OrderSpec.incommensurate(*orders), "plus")

    @staticmethod
    def _flip(orders, branch, eps_h, delta):
        verdicts = []
        for f in (1.0 - delta, 1.0 + delta):
            params = JerkParams(A, B, eps_h * f)
            eq = next(e for e in equilibria(params) if e.branch == branch)
            verdicts.append(hopf.classify_stability(params, orders, eq))
        return verdicts

    def run_round(self):
        failed = 0
        t0 = time.perf_counter()
        comm, incomm = [], []
        for alpha, branch in self.comm:
            try:
                s = hopf.hopf_commensurate(A, B, alpha, branch)
                comm.append((alpha, branch, s.gamma_H, s.epsilon_H))
            except FjerkError:
                failed += 1
        for orders in self.incomm + self.classify:
            try:
                s = self._solve_incomm(orders)
                incomm.append((orders, "plus", s.gamma_H, s.epsilon_H))
            except FjerkError:
                failed += 1
        t1 = time.perf_counter()
        n_solves = len(self.comm) + len(self.incomm) + len(self.classify)
        flips = [((alpha, branch),
                  *self._flip(OrderSpec.commensurate(alpha), branch, eps_h, self.flip[alpha]))
                 for alpha, branch, _, eps_h in comm if branch == "minus"]
        eps_of = {orders: eps_h for orders, _, _, eps_h in incomm}
        flips += [(o, *self._flip(OrderSpec.incommensurate(*o), "plus", eps_of[o], self.FLIP))
                  for o in self.classify if o in eps_of]
        n_classify = 2 * (self.N_COMM + len(self.classify))
        cli_runs, cli_s = [], []
        for argv, _ in self.cli_runs:
            tc = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "fjerk.cli", *argv], env=self.env,
                                  capture_output=True, text=True, timeout=60)
            cli_s.append(time.perf_counter() - tc)
            failed += proc.returncode != 0
            cli_runs.append((argv, proc.stdout))
        wall = time.perf_counter() - t0
        return Round(wall, n_solves + n_classify + len(self.cli_runs), failed,
                     n_solves / (t1 - t0), (comm, incomm, flips, cli_runs),
                     {"cli.process_s": statistics.median(cli_s)})

    def check(self, outputs):
        comm, incomm, flips, cli_runs = outputs
        lift = []
        for orders, _, g, e in incomm:
            if orders[0] == orders[1] == orders[2]:
                c = hopf.hopf_commensurate(A, B, float(orders[0]), "plus")
                lift.append((orders[0], (g, e), (c.gamma_H, c.epsilon_H)))
        library = {(al, br): e for al, br, _, e in comm}
        library.update({o: e for o, _, _, e in incomm})
        cli_pairs = [(argv, stdout, library[key])
                     for (argv, key), (_, stdout) in zip(self.cli_runs, cli_runs)]
        return (checks.check_hopf_commensurate(A, B, comm)
                + checks.check_hopf_incommensurate(A, B, incomm)
                + checks.check_lift_agrees(lift)
                + checks.check_stability_flips(flips)
                + checks.check_cli_hopf(cli_pairs))

    @staticmethod
    def same(a, b):
        return a[0] == b[0] and a[1] == b[1] and a[2] == b[2] and [x[1] for x in a[3]] == [
            x[1] for x in b[3]]

    def trace_extras(self):
        times = []
        for argv, _ in self.cli_runs:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                cli.main(argv)
                times.append(time.perf_counter() - t0)
        return {"cli.main_s": statistics.median(times)}


WORKLOADS = {w.name: w for w in (SweepA091, Spectrum, HopfCurve)}
