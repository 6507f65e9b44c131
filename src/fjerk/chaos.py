"""Chaos diagnostics: Lyapunov spectra, bifurcation extrema, parameter sweeps."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import DivergenceError, EmptyAfterTransient, InvalidConfig
from .model import JerkParams, OrderSpec
from .solver import SolveConfig, Trajectory, integrate, integrate_with_tangent

__all__ = [
    "LyapunovSpectrum",
    "SweepPoint",
    "SweepResult",
    "AttractorClass",
    "lyapunov_spectrum",
    "spectrum_from_log",
    "extract_extrema",
    "sweep_bifurcation",
    "classify_attractor",
    "cluster_values",
    "worker_count",
]

FIXED_POINT = "fixed_point"
PERIODIC = "periodic"
CHAOTIC = "chaotic"
DIVERGENT = "divergent"

LAMBDA1_CHAOS_THRESHOLD = 0.005
MAX_PERIODIC_CLUSTERS = 32
# Most sweep points per lane block, stepped together by one integrate call.
LANE_BLOCK = 4


@dataclass(frozen=True)
class LyapunovSpectrum:
    """Time-averaged log stretch rates of the three tangent directions."""

    exponents: tuple[float, float, float]  # descending
    t_span: float
    renorm_count: int
    converged: bool

    @property
    def lambda1(self) -> float:
        return self.exponents[0]


@dataclass(frozen=True)
class AttractorClass:
    kind: str  # fixed_point | periodic | chaotic | divergent
    n_clusters: int | None = None


@dataclass(frozen=True)
class SweepPoint:
    epsilon: float
    maxima: np.ndarray
    minima: np.ndarray
    spectrum: LyapunovSpectrum | None
    diverged: bool = False
    divergence_time: float | None = None


@dataclass(frozen=True)
class SweepResult:
    epsilon_grid: np.ndarray
    points: list[SweepPoint]
    params_base: JerkParams
    orders: OrderSpec
    config: SolveConfig
    transient_fraction: float


def worker_count() -> int:
    """Worker pool size; FJERK_THREADS overrides the available parallelism.

    A value below 1 means one worker; one that is not an integer raises
    ValueError. Workers only share out a sweep's lane blocks, which the grid
    alone fixes, so the results are the same for every count.
    """
    env = os.environ.get("FJERK_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"FJERK_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def lyapunov_spectrum(
    params: JerkParams,
    orders: OrderSpec,
    cfg: SolveConfig,
    renorm_every: int = 200,
    transient_fraction: float = 0.3,
) -> LyapunovSpectrum:
    """Benettin-style spectrum from QR-renormalized tangent propagation.

    Log stretch factors accumulated after discarding the leading transient
    fraction of the horizon; ``converged`` reflects the drift of the largest
    exponent's running estimate over the last quartile.
    """
    if cfg.t_end < 100 * cfg.h:
        raise InvalidConfig("horizon too short for a meaningful spectrum")
    _, log = integrate_with_tangent(params, orders, cfg, renorm_every)
    return spectrum_from_log(log, cfg, transient_fraction)


def spectrum_from_log(log, cfg: SolveConfig, transient_fraction: float) -> LyapunovSpectrum:
    """Spectrum from the TangentLog of an ``integrate_with_tangent`` run."""
    t_cut = transient_fraction * cfg.t_end
    keep = log.renorm_times > t_cut
    if not np.any(keep):
        raise InvalidConfig("no renormalizations after the transient window")
    times = log.renorm_times[keep]
    logs = log.log_norms[keep]
    t0 = t_cut if keep.all() else log.renorm_times[~keep][-1]
    span = times[-1] - t0
    exps = logs.sum(axis=0) / span
    order = np.argsort(exps)[::-1]
    exps = exps[order]

    running = np.cumsum(logs[:, order[0]]) / (times - t0)
    tail = running[-max(1, len(running) // 4):]
    converged = bool(tail.max() - tail.min() < 0.005)
    return LyapunovSpectrum(tuple(exps.tolist()), span, int(len(times)), converged)


def extract_extrema(
    traj: Trajectory, transient_fraction: float = 0.3
) -> tuple[np.ndarray, np.ndarray]:
    """Interior local maxima and minima of x(t) after the transient.

    Three-point detection with parabolic refinement of the extremal value.
    """
    if not 0.0 <= transient_fraction < 1.0:
        raise ValueError(f"transient_fraction must lie in [0, 1), got {transient_fraction}")
    x = traj.x[int(transient_fraction * (len(traj.t) - 1)):]
    if len(x) < 3:
        raise EmptyAfterTransient(f"{len(x)} samples after transient, need >= 3")
    left, mid, right = x[:-2], x[1:-1], x[2:]
    is_max = (mid > left) & (mid > right)
    is_min = (mid < left) & (mid < right)

    def refine(mask):
        ym, y0, yp = left[mask], mid[mask], right[mask]
        denom = ym - 2.0 * y0 + yp
        out = y0.copy()
        ok = denom != 0.0
        out[ok] = y0[ok] - (ym[ok] - yp[ok]) ** 2 / (8.0 * denom[ok])
        return out

    return refine(is_max), refine(is_min)


def cluster_values(values: np.ndarray, tol: float) -> list[float]:
    """Greedy 1-D clustering: sorted values merged while gaps stay below tol."""
    values = np.sort(np.asarray(values, dtype=float))
    if values.size == 0:
        return []
    centers = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > tol:
            centers.append(float(values[start:i].mean()))
            start = i
    return centers


def classify_attractor(
    extrema: tuple[np.ndarray, np.ndarray] | None,
    spectrum: LyapunovSpectrum | None = None,
) -> AttractorClass:
    """Label an attractor from its extrema (and optionally its spectrum).

    None stands for a diverged run. Maxima are clustered with absolute
    tolerance 1e-3 times the spread of all extremal values.
    """
    if extrema is None:
        return AttractorClass(DIVERGENT)
    maxima, minima = extrema
    allv = np.concatenate([maxima, minima])
    if allv.size == 0:
        return AttractorClass(FIXED_POINT)
    spread = float(allv.max() - allv.min())
    if spread < 1e-6:
        return AttractorClass(FIXED_POINT)
    n = len(cluster_values(maxima, 1e-3 * spread))
    if (spectrum is not None and spectrum.lambda1 > LAMBDA1_CHAOS_THRESHOLD) or (
        n > MAX_PERIODIC_CLUSTERS
    ):
        return AttractorClass(CHAOTIC, n)
    return AttractorClass(PERIODIC, n)


def _sweep_point(eps, traj, transient_fraction, spec=None) -> SweepPoint:
    if traj.divergence_time is not None:
        return SweepPoint(eps, np.empty(0), np.empty(0), None, True, traj.divergence_time)
    return SweepPoint(eps, *extract_extrema(traj, transient_fraction), spec)


def _sweep_block(args) -> list[SweepPoint]:
    (lanes, orders, cfg, with_lyap, transient_fraction, renorm_every) = args
    if not with_lyap:
        trajs = integrate(lanes, orders, cfg)
        return [_sweep_point(p.epsilon, traj, transient_fraction) for p, traj in zip(lanes, trajs)]
    (p,) = lanes  # one tangent run per point
    try:
        traj, log = integrate_with_tangent(p, orders, cfg, renorm_every)
    except DivergenceError as err:
        traj, log = Trajectory(np.empty(0), np.empty((0, 3)), cfg, orders, err.time), None
    spec = None if log is None else spectrum_from_log(log, cfg, transient_fraction)
    return [_sweep_point(p.epsilon, traj, transient_fraction, spec)]


def sweep_bifurcation(
    params_base: JerkParams,
    orders: OrderSpec,
    eps_range: tuple[float, float],
    n_points: int,
    cfg: SolveConfig,
    with_lyapunov: bool = False,
    transient_fraction: float = 0.3,
    renorm_every: int = 200,
    workers: int | None = None,
) -> SweepResult:
    """Run the integrator over a uniform epsilon grid and collect extrema.

    The grid splits into contiguous blocks of at most LANE_BLOCK points, as
    even as they come; the block size depends on ``n_points`` alone. Each
    block is stepped as one batched ``integrate`` call whose lanes agree with
    single-point runs to rounding (1.1e-13 of max|state| measured over 30000
    steps at alpha=0.91). With ``with_lyapunov`` every point is a block of
    its own, one tangent run.
    A process pool of ``workers`` (default: FJERK_THREADS or the CPU count),
    capped at the number of blocks, shares out the blocks; a single block or
    worker runs in this process. Results are ordered by epsilon and are the
    same for every worker count; divergent runs are recorded inline.
    """
    if n_points < 1:
        raise InvalidConfig(f"n_points must be >= 1, got {n_points}")
    lo, hi = eps_range
    if hi < lo:
        raise InvalidConfig(f"eps range must be ascending, got [{lo}, {hi}]")
    grid = np.linspace(lo, hi, n_points) if n_points > 1 else np.array([lo])
    n_blocks = n_points if with_lyapunov else -(-n_points // LANE_BLOCK)
    tasks = [
        ([replace(params_base, epsilon=float(eps)) for eps in block],
         orders, cfg, with_lyapunov, transient_fraction, renorm_every)
        for block in np.array_split(grid, n_blocks)
    ]
    n_workers = min(workers if workers is not None else worker_count(), n_blocks)
    if n_workers <= 1:
        blocks = [_sweep_block(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            blocks = list(pool.map(_sweep_block, tasks))
    points = [pt for block in blocks for pt in block]
    return SweepResult(grid, points, params_base, orders, cfg, transient_fraction)
