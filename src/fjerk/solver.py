"""Predictor-corrector integration of Caputo fractional systems.

Adams-Bashforth-Moulton product-integration scheme: rectangle-rule predictor,
trapezoid-rule corrector (one pass), with per-equation orders and the full
history in every convolution.

Each history sum is split as in the fast convolution of Hairer, Lubich &
Schlichte (SIAM J. Sci. Stat. Comput. 6, 1985). The near field, the current
block of the last few dozen steps, is summed directly at every step. The far
field, all older history, is added to the sums of future steps in square
blocks of doubling size, each by one FFT convolution. This costs
O(N log^2 N) for N steps in place of O(N^2), and the sums agree with the
direct ones to rounding level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import gamma as _gamma

from .exceptions import DivergenceError, InvalidConfig, TangentCollapse
from .model import JerkParams, OrderSpec, jacobian, vector_field

__all__ = [
    "SolveConfig",
    "Trajectory",
    "TangentLog",
    "AbmWeights",
    "abm_weights",
    "caputo_abm",
    "integrate",
    "integrate_with_tangent",
]


@dataclass(frozen=True)
class SolveConfig:
    """Step size, horizon and initial state."""

    h: float = 0.005
    t_end: float = 300.0
    initial_state: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.h <= 0:
            raise InvalidConfig(f"step size must be positive, got h={self.h}")
        if self.t_end < self.h:
            raise InvalidConfig(f"t_end={self.t_end} shorter than one step h={self.h}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.h))


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled solution path.

    A lane of a batched ``integrate`` that diverged ends at its last finite
    step, and ``divergence_time`` is the time of its first non-finite one.
    """

    t: np.ndarray
    states: np.ndarray  # shape (len(t), 3)
    config: SolveConfig
    orders: OrderSpec
    divergence_time: float | None = None

    @property
    def x(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.states[:, 1]

    @property
    def z(self) -> np.ndarray:
        return self.states[:, 2]


@dataclass(frozen=True)
class TangentLog:
    """Per-renormalization log stretch factors of the three tangent directions."""

    renorm_times: np.ndarray
    log_norms: np.ndarray  # shape (n_renorms, 3)


@dataclass(frozen=True)
class AbmWeights:
    """Product-integration weights for one order alpha.

    ``predictor[k]`` is the rectangle-rule weight at history lag k.
    ``corrector[k]`` is the trapezoid-rule weight at lag k >= 1, with
    ``corrector[0]`` the weight of the new (corrected) node itself.
    ``boundary[n]`` is the extra trapezoid weight of the j=0 node when
    computing the state at step n+1.
    """

    alpha: float
    h: float
    predictor: np.ndarray
    corrector: np.ndarray
    boundary: np.ndarray


def abm_weights(alpha: float, n: int, h: float) -> AbmWeights:
    """Weights of the predictor-corrector scheme for lags 0..n-1.

    Discretizes the convolution with kernel (t - tau)^(alpha-1) / Gamma(alpha):
    the predictor uses piecewise-constant (rectangle) product integration, the
    corrector piecewise-linear (trapezoid).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if n < 1:
        raise ValueError(f"need at least one step, got n={n}")
    k = np.arange(n, dtype=float)
    ha = h**alpha
    predictor = ha / _gamma(alpha + 1.0) * ((k + 1.0) ** alpha - k**alpha)
    c = ha / _gamma(alpha + 2.0)
    corrector = np.empty(n)
    corrector[0] = c
    kk = k[1:]
    corrector[1:] = c * ((kk + 1.0) ** (alpha + 1.0) - 2.0 * kk ** (alpha + 1.0)
                         + (kk - 1.0) ** (alpha + 1.0))
    boundary = c * (k ** (alpha + 1.0) - (k - alpha) * (k + 1.0) ** alpha)
    return AbmWeights(alpha, h, predictor, corrector, boundary)


# Near-field width r: the last r steps of history are summed directly at every
# step, and older history reaches the sums through far-field squares of side
# r * 2**v. FFT length times columns per transform is capped at _FFT_CHUNK so
# the transform temporaries stay small.
_BLOCK = 64
_FFT_CHUNK = 1 << 16


class _AlphaGroup:
    """Shared weight tables and history for all components of one order."""

    __slots__ = ("cols", "tan", "c_now", "bnd", "Wb", "WaR", "b", "a", "F",
                 "farP", "farC", "spectra")

    def __init__(self, alpha: float, cols: np.ndarray, n: int, h: float, tan):
        w = abm_weights(alpha, n + 1, h)  # lags 0..n
        W = min(_BLOCK, n)
        self.cols = _as_slice(cols)
        self.tan = tan
        self.c_now = w.corrector[0]
        # Every sum gives the j=0 node the interior corrector weight of its
        # lag; bnd[n] turns that into the boundary weight.
        self.bnd = w.boundary[:n] - w.corrector[1:]
        # Reversed near-field layouts so every step's sum is a contiguous
        # slice: Wb[i] = predictor[W-1-i]; WaR[i] = corrector[W-i].
        self.Wb = w.predictor[W - 1::-1].copy()
        self.WaR = w.corrector[W:0:-1].copy()
        self.F = np.empty((n + 1, len(cols)))
        self.b = w.predictor
        self.a = w.corrector
        self.farP = np.zeros((n, len(cols)))
        self.farC = np.zeros((n, len(cols)))
        self.spectra = {}

    def add_far_field(self, m: int, L: int, rows: int) -> None:
        """Add the sums over F[m-L:m] to the far-field rows [m, m+rows).

        Row m+p takes history row m-L+i at predictor lag L+p-i, which runs
        over 1..L+rows-1, so a circular convolution of length L+rows is
        exact. The corrector lag is one more. Full squares (rows = L) reuse
        the kernel spectra of their level.
        """
        S = L + rows
        spec = self.spectra.get(L) if rows == L else None
        if spec is None:
            k = np.zeros((2, S))
            k[0, 1:] = self.b[1:S]
            k[1, 1:] = self.a[2:S + 1]
            spec = np.fft.rfft(k, axis=1).T
            if rows == L:
                self.spectra[L] = spec
        block = self.F[m - L:m]
        step = max(1, _FFT_CHUNK // S)
        for c in range(0, block.shape[1], step):
            cs = slice(c, c + step)
            X = np.fft.rfft(block[:, cs], n=S, axis=0)
            self.farP[m:m + rows, cs] += np.fft.irfft(X * spec[:, :1], n=S, axis=0)[L:]
            self.farC[m:m + rows, cs] += np.fft.irfft(X * spec[:, 1:], n=S, axis=0)[L:]


def _right_multiply(rows: np.ndarray, sel, Rinv: np.ndarray) -> None:
    """Right-multiply each length-q run of rows[:, sel] by Rinv (q x q)."""
    block = rows[:, sel]
    rows[:, sel] = (block.reshape(-1, Rinv.shape[0]) @ Rinv).reshape(block.shape)


def _as_slice(idx: np.ndarray):
    """A contiguous index array as a slice, so indexing it gives a view."""
    if idx.size and idx[-1] - idx[0] + 1 == idx.size:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


@np.errstate(over="ignore", invalid="ignore")
def caputo_abm(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    alphas: Sequence[float],
    y0: Sequence[float],
    h: float,
    n_steps: int,
    memory_steps: int | None = None,
    renorm_every: int | None = None,
    renorm_cols: np.ndarray | None = None,
    renorm_shape: tuple[int, int] | None = None,
) -> tuple[np.ndarray, np.ndarray, TangentLog | None]:
    """Integrate D^alpha_i y_i = rhs_i(t, y) with y(0) = y0.

    One predictor-corrector pass per step; each component uses the weight
    table of its own order, and every history sum runs over the full history.
    ``memory_steps`` accepts only ``None``. The slot stays because the
    benchmark (``bench/workloads.py``) passes ``None`` positionally; it is
    deleted together with that call (ROADMAP item 1).

    When ``renorm_every`` is set, the components in ``renorm_cols``
    (interpreted as a matrix of ``renorm_shape`` whose columns are tangent
    vectors) are re-orthonormalized by QR every so many steps; the linear
    history, its precomputed far-field sums and the effective initial
    condition are transformed alongside, which is exact for linear tangent
    dynamics.

    A 1-D ``y0`` raises DivergenceError at the first non-finite state. A 2-D
    ``y0`` of shape (B, d) holds B lanes of one system, stepped as one state
    of B*d columns: ``alphas`` has the d orders, ``rhs`` maps (B, d) to
    (B, d), Y has shape (N+1, B, d), and ``renorm_cols`` index the flattened
    state. A lane whose state turns non-finite is recorded at that step and
    its rows of Y are NaN from there on; the other lanes continue, since
    every history sum and transform acts on each column alone.
    """
    y0 = np.array(y0, dtype=float)
    shape = y0.shape
    alphas = np.asarray(alphas, dtype=float)
    if y0.ndim not in (1, 2) or alphas.size != shape[-1]:
        raise ValueError("one order per component required")
    y0 = y0.reshape(-1)
    d = y0.size
    lanes = len(shape) == 2
    if lanes:
        alphas = np.tile(alphas, shape[0])
        lane_rhs = rhs

        def rhs(t, y):
            return lane_rhs(t, y.reshape(shape)).reshape(-1)

        first = np.full(shape[0], n_steps + 1)  # each lane's first non-finite step
    if memory_steps is not None:
        raise ValueError(f"memory_steps must be None (full memory), got {memory_steps}")
    if renorm_every is not None:
        if renorm_every < 1:
            raise ValueError(f"renorm_every must be >= 1, got {renorm_every}")
        if renorm_cols is None or renorm_shape is None:
            raise ValueError("renorm_every needs renorm_cols and renorm_shape")
        rcols = np.asarray(renorm_cols)
        rshape = renorm_shape
    N = n_steps
    t = h * np.arange(N + 1)
    Y = np.empty((N + 1, d))
    Y[0] = y0

    groups = []
    for alpha in sorted(set(alphas.tolist())):
        cols = np.nonzero(alphas == alpha)[0]
        tan = None
        if renorm_every is not None:
            gi = np.nonzero(np.isin(cols, rcols))[0]
            tan = _as_slice(gi) if gi.size else None
        groups.append(_AlphaGroup(alpha, cols, N, h, tan))

    f0 = np.asarray(rhs(0.0, y0), dtype=float)
    for g in groups:
        g.F[0] = f0[g.cols]

    log_times: list[float] = []
    log_norms: list[np.ndarray] = []
    written = 0  # far-field rows [.., written) already hold square sums
    yp = np.empty(d)
    yc = np.empty(d)
    for n in range(N):
        lo = n - n % _BLOCK
        if lo == n and n:
            # Hairer-Lubich-Schlichte splitting: at m = r * 2**v * odd,
            # F[m-L:m] with L = r * 2**v feeds rows [m, m+L).
            L = _BLOCK * ((n // _BLOCK) & -(n // _BLOCK))
            rows = min(L, N - n)
            for g in groups:
                g.add_far_field(n, L, rows)
            written = max(written, n + rows)
        i0 = lo - n - 1  # the near field's weights end the reversed tables
        tn1 = t[n + 1]
        yp[:] = y0
        for g in groups:
            yp[g.cols] += np.dot(g.Wb[i0:], g.F[lo:n + 1]) + g.farP[n]
        fp = rhs(tn1, yp)
        yc[:] = y0
        for g in groups:
            s = np.dot(g.WaR[i0:], g.F[lo:n + 1]) + g.bnd[n] * g.F[0] + g.farC[n]
            yc[g.cols] += s + g.c_now * fp[g.cols]
        if not np.isfinite(yc).all():
            if not lanes:
                raise DivergenceError(tn1)
            dead = ~np.isfinite(yc.reshape(shape)).all(axis=1)
            first[dead & (first > N)] = n + 1
            if (first <= n + 1).all():
                break
        fn = rhs(tn1, yc)
        Y[n + 1] = yc
        for g in groups:
            g.F[n + 1] = fn[g.cols]

        if renorm_every is not None and (n + 1) % renorm_every == 0:
            Phi = yc[rcols].reshape(rshape)
            Q, R = np.linalg.qr(Phi)
            sign = np.sign(np.diag(R))
            sign[sign == 0.0] = 1.0
            Q *= sign
            R = (R.T * sign).T
            diag = np.diag(R)
            if np.any(diag < 1e-300):
                raise TangentCollapse(f"stretch factor underflow at t = {tn1:g}")
            log_times.append(tn1)
            log_norms.append(np.log(diag))
            Rinv = np.linalg.inv(R)
            yc[rcols] = Q.reshape(-1)
            Y[n + 1] = yc
            y0[rcols] = (y0[rcols].reshape(rshape) @ Rinv).reshape(-1)
            # Right-multiplying past tangent states (and hence their linear
            # RHS values, and the far-field sums already formed from them for
            # future steps) by Rinv keeps the stored history consistent.
            for g in groups:
                if g.tan is None:
                    continue
                _right_multiply(g.F[:n + 2], g.tan, Rinv)
                _right_multiply(g.farP[n + 1:written], g.tan, Rinv)
                _right_multiply(g.farC[n + 1:written], g.tan, Rinv)
            fn2 = rhs(tn1, yc)
            for g in groups:
                g.F[n + 1] = fn2[g.cols]

    log = None
    if renorm_every is not None:
        log = TangentLog(np.asarray(log_times), np.asarray(log_norms).reshape(-1, rshape[1]))
    Y = Y.reshape((N + 1,) + shape)
    if lanes:
        for lane, k in enumerate(first):
            Y[k:, lane] = np.nan
    return t, Y, log


def integrate(
    params: JerkParams | Sequence[JerkParams], orders: OrderSpec, cfg: SolveConfig
) -> Trajectory | list[Trajectory]:
    """Solve the jerk system; each equation uses its own order's weights.

    One JerkParams gives its Trajectory and raises DivergenceError at the
    first non-finite step. A sequence of B JerkParams is a block of lanes
    with shared orders and ``cfg``, stepped as one (B, 3) state in a single
    loop; it gives one Trajectory per lane, and a lane that diverges ends
    there with its ``divergence_time`` set while the others run on. A lane
    agrees with its own single run to rounding, as the history sums add up
    in another order.
    """
    if isinstance(params, JerkParams):
        p, y0 = params, cfg.initial_state
    else:
        lanes = list(params)
        p = JerkParams(np.array([q.a for q in lanes]), np.array([q.b for q in lanes]),
                       np.array([q.epsilon for q in lanes]))
        y0 = np.tile(cfg.initial_state, (len(lanes), 1))
    t, Y, _ = caputo_abm(
        lambda t, s: vector_field(p, s), orders.alphas, y0, cfg.h, cfg.n_steps
    )
    if Y.ndim == 2:
        return Trajectory(t, Y, cfg, orders)
    trajs = []
    for lane in range(Y.shape[1]):
        nan = np.isnan(Y[:, lane, 0])  # caputo_abm's NaN rows of a diverged lane
        k = int(nan.argmax()) if nan[-1] else len(t)
        trajs.append(Trajectory(t[:k], Y[:k, lane], cfg, orders, t[k] if nan[-1] else None))
    return trajs


def integrate_with_tangent(
    params: JerkParams,
    orders: OrderSpec,
    cfg: SolveConfig,
    renorm_every: int = 200,
) -> tuple[Trajectory, TangentLog]:
    """Co-integrate three tangent vectors under the linearized flow.

    The tangent matrix (columns = directions) follows the Jacobian of the
    vector field evaluated along the trajectory, with the same per-equation
    fractional orders; Gram-Schmidt (QR) renormalization runs every
    ``renorm_every`` steps and the log stretch factors are recorded.
    """
    if renorm_every < 1:
        raise InvalidConfig(f"renorm_every must be >= 1, got {renorm_every}")
    a1, a2, a3 = orders.alphas
    alphas = np.array([a1, a2, a3, a1, a1, a1, a2, a2, a2, a3, a3, a3])
    y0 = np.concatenate([np.asarray(cfg.initial_state, float), np.eye(3).reshape(-1)])

    def rhs(t, s):
        out = np.empty(12)
        out[:3] = vector_field(params, s)
        out[3:] = (jacobian(params, s[:3]) @ s[3:].reshape(3, 3)).reshape(-1)
        return out

    t, Y, log = caputo_abm(
        rhs,
        alphas,
        y0,
        cfg.h,
        cfg.n_steps,
        renorm_every=renorm_every,
        renorm_cols=np.arange(3, 12),
        renorm_shape=(3, 3),
    )
    traj = Trajectory(t, Y[:, :3], cfg, orders)
    return traj, log
