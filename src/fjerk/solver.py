"""Predictor-corrector integration of Caputo fractional systems.

Adams-Bashforth-Moulton product-integration scheme: rectangle-rule predictor,
trapezoid-rule corrector (one pass), with per-equation orders and the full
history in every convolution.

Each history sum is split as in the fast convolution of Hairer, Lubich &
Schlichte (SIAM J. Sci. Stat. Comput. 6, 1985). The near field, the current
block of up to ``_BLOCK`` = 128 steps, is summed directly at every step. The
far field, all older history, is added to the sums of future steps in square
blocks of doubling size, each by one FFT convolution. This costs
O(N log^2 N) for N steps in place of O(N^2), and the sums agree with the
direct ones to rounding level.

Past the far field, a step's time is Python overhead, so a step makes
eight calls: seven numpy calls and one ``math.isfinite``. The loop runs
over near-field blocks and, within one, over offsets, with the near-field
weights of every offset prepared once. There is one history F and one
array of far-field rows FAR (N, 2, d), whatever the orders. The field is
f(s) = M(x) s + c (``model._Field``), and F holds g = f - c, so that c
rides in the far-field rows with y0, the corrector's boundary term of the
j=0 node and the far-field sums. A step n -> n+1 at offset k is

    near[k].dot(F[lo:n+1], S)   # S (2, d): predictor and corrector sums
    S += FAR[n]                 # S = (yp, corrector's sum without the new node)
    update(S, Y[n+1])           # yc = S[1] + a0 * g(yp): x write, one product
    isfinite(yc.dot(yc))        # the step's only finiteness test
    product(yc, F[n+1])         # g(yc): x write, one product

where a0 is the weight of the new node and ``update`` multiplies the pair
by [diag(a0) M(x) | I], so f(yp) is never stored. Each distinct order has
one weight table by lag, the predictor's and the corrector's weight of a
history row (``_weight_tables``): the near-field weights are its first
lags, reversed, and the far-field kernels its FFT. With G distinct orders
the dot is one (2G, k+1) product and one ``np.take`` picks each column's
pair; the far field transforms all columns at once, each multiplied by
the spectrum of its own order.
Only a step whose corrected state is not finite redoes the update lane by
lane, since a dense product would spread a non-finite lane over all of
them, and then tests each lane. ``model.lane_field`` and, with the
tangent, ``model.tangent_field`` are the fields; ``caputo_abm`` adapts an
``rhs(t, s)`` with c = 0. On a 2-vCPU host one 3-lane block at alpha=0.91,
h=0.005 takes 7.5-9 us/step (t_end=150); the host's load moves this figure
up to twofold.

A renormalised run keeps its q tangent vectors as rows of V, each vector
contiguous in the state. Every ``renorm_every`` steps the frame is
factored, V^T = QT, where T is the triangle accumulated since the last
rewrite of the frame, and log diag(T) - log diag(T_prev) are that
interval's stretch factors: with eager re-orthonormalisation each interval
would give R_k, and T_k = R_k T_(k-1), so the two logs are the same in
exact arithmetic (Geist, Parlitz & Lauterborn, Prog. Theor. Phys. 83,
1990). Only once an accumulated factor reaches e^-tau or e^tau (``_TAU``)
is the frame rewritten: V = Q^T, and the stored history and far-field
rows, linear in V, become T^-T V, on flat rows one product with
kron(T^-1, I) taken ``_REWRITE_ROWS`` rows at a time. A rewrite touches
O(N) stored rows, so the eager schedule, a rewrite at every
renormalisation, spends O(N^2 / renorm_every) on them; tau = 0 is that
schedule bit for bit. After the loop, the rows of Y stepped in a
deferred frame are mapped through T^-1, so Y holds what eager
re-orthonormalisation gives. The deferral is exact only when the vectors
follow one linear flow, each vector on its own; ``caputo_abm`` states it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exceptions import DivergenceError, InvalidConfig, TangentCollapse
from .model import JerkParams, OrderSpec, lane_field, tangent_field

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
        for name in ("h", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidConfig(f"{name} must be finite, got {name}={getattr(self, name)}")
        if self.h <= 0:
            raise InvalidConfig(f"step size must be positive, got h={self.h}")
        if self.t_end < self.h:
            raise InvalidConfig(f"t_end={self.t_end} shorter than one step h={self.h}")
        # from 2**53 on, a float no longer counts whole steps
        if not self.t_end / self.h < 2.0**53:
            raise InvalidConfig(f"t_end/h is not a finite step count below 2**53 "
                                f"(t_end={self.t_end}, h={self.h})")
        if len(self.initial_state) != 3 or not all(map(math.isfinite, self.initial_state)):
            raise InvalidConfig(f"initial_state must be three finite numbers, "
                                f"got {self.initial_state}")

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
    divergence_time: float | None = None

    @property
    def x(self) -> np.ndarray:
        return self.states[:, 0]


@dataclass(frozen=True)
class TangentLog:
    """Log stretch factors of the tangent directions, one row per renormalisation.

    ``log_norms[k]`` is the interval ending at ``renorm_times[k]``: the
    log of diag(R_k) of eager re-orthonormalisation, here formed as
    log diag(T_k) - log diag(T_(k-1)) of the accumulated triangle.
    ``rewrite_times`` are the renormalisations that also rewrote the frame
    and the stored history (all of them at ``_TAU`` = 0).
    """

    renorm_times: np.ndarray
    log_norms: np.ndarray  # shape (n_renorms, q)
    rewrite_times: np.ndarray


@dataclass(frozen=True)
class AbmWeights:
    """Product-integration weights for one order alpha.

    ``predictor[k]`` is the rectangle-rule weight at history lag k.
    ``corrector[k]`` is the trapezoid-rule weight at lag k >= 1, with
    ``corrector[0]`` the weight of the new (corrected) node itself.
    ``boundary[n]`` is the extra trapezoid weight of the j=0 node when
    computing the state at step n+1.
    """

    predictor: np.ndarray
    corrector: np.ndarray
    boundary: np.ndarray


# Cephes Gamma (S. L. Moshier, Cephes Math Library, 1984-2000), the routine
# behind scipy.special.gamma, on [1, 3] only: reduce into [2, 3) by the
# recurrence, then z * P(x-2) / Q(x-2), each polynomial by Horner (polevl).
_GAMMA_P = (
    1.60119522476751861407e-4,
    1.19135147006586384913e-3,
    1.04213797561761569935e-2,
    4.76367800457137231464e-2,
    2.07448227648435975150e-1,
    4.94214826801497100753e-1,
    9.99999999999999996796e-1,
)
_GAMMA_Q = (
    -2.31581873324120129819e-5,
    5.39605580493303397842e-4,
    -4.45641913851797240494e-3,
    1.18139785222060435552e-2,
    3.58236398605498653373e-2,
    -2.34591795718243348568e-1,
    7.14304917030273074085e-2,
    1.00000000000000000320e0,
)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _gamma(x: float) -> float:
    """Gamma(x) for x in [1, 3], bit for bit as Cephes (and scipy.special.gamma)."""
    if not 1.0 <= x <= 3.0:
        raise ValueError(f"_gamma covers [1, 3] only, got {x!r}")
    z = 1.0
    if x >= 3.0:
        x -= 1.0
        z *= x
    if x < 2.0:
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    return z * _polevl(x, _GAMMA_P) / _polevl(x, _GAMMA_Q)


def abm_weights(alpha: float, n: int, h: float) -> AbmWeights:
    """Weights of the predictor-corrector scheme for lags 0..n-1.

    Discretizes the convolution with kernel (t - tau)^(alpha-1) / Gamma(alpha):
    the predictor uses piecewise-constant (rectangle) product integration, the
    corrector piecewise-linear (trapezoid). Gamma(alpha+1) and Gamma(alpha+2)
    come from ``_gamma``, a port of Cephes ``Gamma`` on [1, 3] that equals
    ``scipy.special.gamma`` bit for bit there, so the tables are exactly the
    ones SciPy's Gamma gives.
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
    return AbmWeights(predictor, corrector, boundary)


# Near-field width r: the last r steps of history are summed directly at every
# step, and older history reaches the sums through far-field squares of side
# r * 2**v. FFT length times columns per transform is capped at _FFT_CHUNK so
# the transform temporaries stay small.
_BLOCK = 128
_FFT_CHUNK = 1 << 16
# Rows per product of the renormalisation's history rewrite. A (rows, 9) by
# (9, 9) product of many more rows crosses OpenBLAS's threading threshold:
# unchunked, two t_end=85 tangent runs peaked at 64 MB RSS, against 43 MB
# chunked or on one BLAS thread.
_REWRITE_ROWS = 2048
# Log stretch tau at which a renormalisation rewrites the tangent frame:
# an accumulated stretch factor outside (e^-tau, e^tau) triggers it. At 0
# every renormalisation rewrites (the eager schedule). At 4 the t_end=85
# spectra at alpha=0.99, eps=7.78 and 1,99/100,1, eps=7.913 rewrite 5 and
# 9 times in place of 85, and the t_end=300 criterion runs 4 to 29 times
# in place of 300.
_TAU = 4.0


def _weight_tables(alphas: np.ndarray, N: int, h: float, g0: np.ndarray,
                   c: np.ndarray, FAR: np.ndarray):
    """The weight table of each distinct order, by history lag.

    Returns (group, kernel, a0): column j has order number ``group[j]``,
    ``kernel[g]`` = (predictor[:N], corrector[1:]) of that order holds, at
    lag i, the weight a history row takes in the predictor sum and in the
    corrector sum, and ``a0`` is each column's weight of the new node.
    Adds each column's boundary term and the sums of the field's constant
    ``c`` to the far-field rows ``FAR``. A function of its own, so that the
    full tables of ``abm_weights`` are freed on return.
    """
    orders, group = np.unique(alphas, return_inverse=True)
    kernel = np.empty((orders.size, 2, N))
    a0 = np.empty(orders.size)
    for g, alpha in enumerate(orders.tolist()):
        w = abm_weights(alpha, N + 1, h)  # lags 0..N
        kernel[g] = w.predictor[:N], w.corrector[1:]
        a0[g] = w.corrector[0]
        # Every sum gives the j=0 node the interior corrector weight of its
        # lag; boundary[n] - corrector[n+1] turns that into the boundary
        # weight. The history holds f - c, so c enters with the total weight
        # of each sum, the running sums of the same tables. Column by column,
        # so that no (N, d) temporary is made.
        edge = w.boundary[:N] - w.corrector[1:]
        total = np.cumsum(w.predictor[:N]), np.cumsum(w.corrector[:N]) + w.boundary[:N]
        for j in np.flatnonzero(group == g):
            FAR[:, 1, j] += edge * g0[j]
            if c[j]:
                FAR[:, 0, j] += c[j] * total[0]
                FAR[:, 1, j] += c[j] * total[1]
    return group, kernel, a0[group]


def _add_far_field(F, FAR, m: int, L: int, rows: int, kernel, group, spectra: dict) -> None:
    """Add the sums over F[m-L:m] to the far-field rows [m, m+rows).

    Row m+p takes history row m-L+i at lag L+p-i, which runs over
    1..L+rows-1, so a circular convolution of length L+rows with the
    ``kernel`` of each column's order (``_weight_tables``) is exact.
    Contiguous chunks of all columns are transformed together, each column
    multiplied by its own order's spectrum. Full squares (rows = L) reuse
    the kernel spectra of their level, kept in ``spectra``.
    """
    S = L + rows
    spec = spectra.get(L) if rows == L else None
    if spec is None:
        k = kernel[:, :, :S].copy()
        k[:, :, 0] = 0.0
        spec = np.fft.rfft(k).T  # (frequency, sum, order)
        if rows == L:
            spectra[L] = spec
    step = max(1, _FFT_CHUNK // S)
    for c in range(0, F.shape[1], step):
        cs = slice(c, c + step)
        X = np.fft.rfft(F[m - L:m, cs], n=S, axis=0)
        for r in range(2):
            FAR[m:m + rows, r, cs] += np.fft.irfft(X * spec[:, r, group[cs]], n=S, axis=0)[L:]


class _RhsField:
    """``caputo_abm``'s ``rhs(t, s)`` as a field with constant c = 0.

    ``product`` writes rhs(clock[0], s); the corrector's (``k`` given) takes
    the flat pair (s, r) and writes r + k * rhs(clock[0], s). The rhs keeps
    each lane to itself, so there is no ``lanewise``.
    """

    lanewise = None

    def __init__(self, rhs, clock: list, d: int, k: np.ndarray | None = None):
        self.rhs, self.clock, self.k = rhs, clock, k
        self.c = np.zeros(d)

    def product(self, s, out):
        d = self.c.size
        out[:] = self.rhs(self.clock[0], s[:d])
        if self.k is not None:
            out *= self.k
            out += s[d:]
        return out

    def corrector(self, k):
        return _RhsField(self.rhs, self.clock, self.c.size, k)


def _transform_rows(rows: np.ndarray, cols, K: np.ndarray) -> None:
    """rows[:, cols] @= K in place, ``_REWRITE_ROWS`` rows per product."""
    for r in range(0, len(rows), _REWRITE_ROWS):
        chunk = rows[r:r + _REWRITE_ROWS]
        chunk[:, cols] = chunk[:, cols] @ K


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
    vectors, at most as many as their dimension) are factored by QR every
    so many steps, and the log stretch factors of each interval go to the
    TangentLog. The frame is re-orthonormalised, with the linear history
    and the far-field rows (which carry the initial condition) transformed
    alongside, only when an accumulated stretch factor leaves
    (e^-tau, e^tau) (module docstring). Y holds the re-orthonormalised
    frame of every interval, as with a rewrite at every renormalisation.
    The contract: the columns of that matrix are the tangent vectors of
    the rhs's linear flow, each vector's rate a linear map of that vector
    alone, the same map for all of them. Then deferring the rewrite is
    exact in exact arithmetic; otherwise (say, rows of a row-major tangent
    matrix) only the eager schedule, tau = 0, gives the intended result.
    Bad renorm arguments raise ValueError on entry.

    A 1-D ``y0`` raises DivergenceError at the first non-finite state. A 2-D
    ``y0`` of shape (B, d) holds B lanes of one system, stepped as one state
    of B*d columns: ``alphas`` has the d orders, ``rhs`` gets and returns the
    flat (B*d,) state with lane k in entries k*d .. k*d+d-1, Y has shape
    (N+1, B, d), and ``renorm_cols`` index the flat state. ``rhs`` must keep
    each lane's output to its own input. A lane whose state turns non-finite
    is recorded at that step, and its rows of Y are NaN from there on. At
    that step (and again should it diverge anew) its columns of the
    history, of the far-field rows and of the state are set to 0, so the
    dead lane goes on from 0 with no history instead of carrying inf or NaN
    into every later rhs call. The other lanes continue, since every
    history sum and transform acts on each column alone. The loop stops
    once every lane has diverged.
    """
    if memory_steps is not None:
        raise ValueError(f"memory_steps must be None (full memory), got {memory_steps}")
    renorm = None
    if renorm_every is not None:
        if renorm_every < 1:
            raise ValueError(f"renorm_every must be >= 1, got {renorm_every}")
        if renorm_cols is None or renorm_shape is None:
            raise ValueError("renorm_every needs renorm_cols and renorm_shape")
        cols = np.asarray(renorm_cols)
        dim, q = renorm_shape
        if not 1 <= q <= dim:
            raise ValueError(f"renorm_shape {renorm_shape} needs 1 <= vectors <= dimensions")
        if cols.size != dim * q:
            raise ValueError(f"renorm_cols has {cols.size} entries, renorm_shape {renorm_shape} "
                             f"needs {dim * q}")
        if cols.min() < 0 or cols.max() >= np.size(y0):
            raise ValueError(f"renorm_cols must index the {np.size(y0)} state entries")
        # the solver keeps the vectors as rows: vector j is rows[j*dim:(j+1)*dim]
        renorm = (renorm_every, cols.reshape(renorm_shape).T.ravel(), q)
    clock = [0.0]
    field = _RhsField(rhs, clock, np.size(y0))
    return _pece(field, alphas, y0, h, n_steps, renorm, clock)[:3]


@np.errstate(over="ignore", invalid="ignore")
def _pece(field, alphas, y0, h, N, renorm=None, clock=None):
    """caputo_abm's stepping loop on a field f(s) = g(s) + c.

    ``field.product(s, out)`` writes g(s) = f(s) - c and ``field.c`` is the
    constant. ``field.corrector(k)`` is a field whose ``product`` maps the
    flat pair (s, r) to r + k * g(s), and whose ``lanewise`` is None or does
    the same lane by lane (see ``model._Field``). A step calls the corrector
    once, with the predicted state and the corrector's sum, and the field
    once, for the corrected state; only a step whose corrected state is not
    finite calls ``lanewise``. ``renorm`` is None or (renorm_every, rows,
    q): the q tangent vectors are the consecutive equal runs of the state's
    entries ``rows``. A ``clock`` list gets the time of each step in its
    first item before the step's calls.

    A 1-D ``y0`` is one lane. Returns (t, Y, log, first), ``first`` each
    lane's first non-finite step (N+1 if none); a 1-D run that diverged
    raises DivergenceError instead.
    """
    y0 = np.array(y0, dtype=float)
    shape = y0.shape
    alphas = np.asarray(alphas, dtype=float)
    if y0.ndim not in (1, 2) or alphas.size != shape[-1]:
        raise ValueError("one order per component required")
    n_lanes = shape[0] if y0.ndim == 2 else 1
    y0 = y0.reshape(-1)
    d = y0.size
    alphas = np.tile(alphas, n_lanes)
    next_renorm = 0
    if renorm is not None:
        renorm_every, rcols, n_vectors = renorm
        next_renorm = renorm_every
        prev = np.ones(n_vectors)  # diag(T) at the last renormalisation since a rewrite
        deferred = []  # (step, kron(T^-1, I)) of each renormalisation that kept its frame
    t = h * np.arange(N + 1)
    Y = np.empty((N + 1, d))
    Y[0] = y0
    first = np.full(n_lanes, N + 1)  # each lane's first non-finite step

    # One history of g = f - c and one array of far-field rows, FAR[n] =
    # (predictor, corrector) terms of step n+1: y0, the boundary term, the
    # sums of c and the far-field sums.
    F = np.empty((N + 1, d))
    field.product(y0, F[0])
    FAR = np.empty((N, 2, d))
    FAR[:] = y0
    group, kernel, a0 = _weight_tables(alphas, N, h, F[0], field.c, FAR)
    spectra = {}
    corrector = field.corrector(a0)
    update, lanewise, product = corrector.product, corrector.lanewise, field.product

    # The near-field dot of offset k gives both sums of every order, as
    # rows 2g (predictor) and 2g+1 (corrector) of order g: the first W lags
    # of its table, reversed, so that each offset's weights are a tail of
    # them. With several orders, np.take picks each column's pair.
    W = min(_BLOCK, N)
    near = kernel[:, :, :W][:, :, ::-1].reshape(2 * len(kernel), W)
    near = [near[:, W - 1 - k:].copy() for k in range(W)]  # contiguous: a faster dot
    S = np.empty((2, d))
    sums, pick = S, None
    if len(kernel) > 1:
        sums = np.empty((2 * len(kernel), d))
        pick = (2 * group + np.arange(2)[:, None]) * d + np.arange(d)
    pair = S.reshape(-1)  # (predicted state, corrector's sum)

    log_times: list[float] = []
    log_norms: list[np.ndarray] = []
    rewrite_times: list[float] = []
    for lo in range(0, N, _BLOCK):
        if lo:
            # Hairer-Lubich-Schlichte splitting: at m = r * 2**v * odd,
            # F[m-L:m] with L = r * 2**v feeds rows [m, m+L).
            j = lo // _BLOCK
            L = _BLOCK * (j & -j)
            _add_far_field(F, FAR, lo, L, min(L, N - lo), kernel, group, spectra)
        for k, n in enumerate(range(lo, min(lo + _BLOCK, N))):
            if clock is not None:
                clock[0] = t[n + 1]
            near[k].dot(F[lo:n + 1], sums)
            if pick is not None:
                np.take(sums, pick, out=S, mode="clip")
            S += FAR[n]
            # yc = S[1] + a0 * g(S[0]); a0 * c is in the far-field rows
            yc = Y[n + 1]
            update(pair, yc)
            # A sum of squares is finite when every entry is; when it is not
            # (an entry is non-finite, or finite entries overflow it), redo
            # the update lane by lane, so that a non-finite lane stays in
            # its own columns, and test each lane.
            if not math.isfinite(yc.dot(yc)):
                if lanewise is not None:
                    lanewise(pair, yc)
                dead = ~np.isfinite(yc.reshape(n_lanes, -1)).all(axis=1)
                if dead.any():
                    first[dead & (first > N)] = n + 1
                    if (first <= n + 1).all():
                        break
                    cols = np.repeat(dead, shape[-1])
                    yc[cols] = 0.0
                    F[:n + 1, cols] = 0.0
                    FAR[n + 1:, :, cols] = 0.0

            if n + 1 == next_renorm:
                tn1 = t[n + 1]
                next_renorm += renorm_every
                V = yc[rcols].reshape(n_vectors, -1)
                Q, T = np.linalg.qr(V.T)  # T: accumulated since the last rewrite
                sign = np.sign(np.diag(T))
                sign[sign == 0.0] = 1.0
                Q *= sign
                T = (T.T * sign).T
                diag = np.diag(T)
                if np.any(diag < 1e-300 * prev):
                    raise TangentCollapse(f"stretch factor underflow at t = {tn1:g}")
                log_diag = np.log(diag)
                log_times.append(tn1)
                log_norms.append(log_diag - np.log(prev))
                # On a flat row, T^-T V is one product with kron(T^-1, I).
                K = np.kron(np.linalg.inv(T), np.eye(V.shape[1]))
                if np.any(np.abs(log_diag) >= _TAU):
                    rewrite_times.append(tn1)
                    prev = np.ones(n_vectors)
                    yc[rcols] = Q.T.reshape(-1)
                    # The history and every term of the far-field rows (y0,
                    # the boundary term, the sums formed so far) are linear
                    # in V, and c is 0 in its columns, so all become T^-T V.
                    _transform_rows(F[:n + 1], rcols, K)
                    _transform_rows(FAR[n + 1:].reshape(-1, d), rcols, K)
                else:
                    prev = diag
                    deferred.append((n + 1, K))

            product(yc, F[n + 1])
        else:
            continue
        break  # every lane has diverged

    if len(shape) == 1 and first[0] <= N:
        raise DivergenceError(t[first[0]])
    log = None
    if renorm is not None:
        # Rows from a deferred renormalisation up to the next one hold its
        # frame Q T; T^-1 maps them to the orthonormal frame Q.
        for k, K in deferred:
            _transform_rows(Y[k:k + renorm_every], rcols, K)
        log = TangentLog(np.asarray(log_times), np.asarray(log_norms).reshape(-1, n_vectors),
                         np.asarray(rewrite_times))
    Y = Y.reshape(N + 1, n_lanes, -1)
    for lane, k in enumerate(first):
        Y[k:, lane] = np.nan
    return t, Y.reshape((N + 1,) + shape), log, first


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
        field, y0 = lane_field([params]), cfg.initial_state
    else:
        lanes = list(params)
        field, y0 = lane_field(lanes), np.tile(cfg.initial_state, (len(lanes), 1))
    t, Y, _, first = _pece(field, orders.alphas, y0, cfg.h, cfg.n_steps)
    if Y.ndim == 2:
        return Trajectory(t, Y)
    return [Trajectory(t[:k], Y[:k, lane], t[k] if k < len(t) else None)
            for lane, k in enumerate(first)]


def integrate_with_tangent(
    params: JerkParams,
    orders: OrderSpec,
    cfg: SolveConfig,
    renorm_every: int = 200,
) -> tuple[Trajectory, TangentLog]:
    """Co-integrate three tangent vectors under the linearized flow.

    The state is (x, y, z, v1, v2, v3) (``model.tangent_field``): each
    tangent vector, started at a unit vector, follows the Jacobian of the
    vector field evaluated along the trajectory, with the same per-equation
    fractional orders. Every ``renorm_every`` steps the frame is factored
    by QR and the log stretch factors of the interval are recorded; the
    frame and its history are re-orthonormalised only when an accumulated
    stretch factor leaves (e^-tau, e^tau) (module docstring). The vectors
    follow one linear flow, so this deferral is exact in exact arithmetic:
    the exponents match a rewrite at every renormalisation to rounding
    (within 5e-12 at the criterion points, t_end=85 and 300), and the
    saturation of lambda2 and lambda3 is the same. ``log.rewrite_times``
    lists the renormalisations that rewrote.
    """
    if renorm_every < 1:
        raise InvalidConfig(f"renorm_every must be >= 1, got {renorm_every}")
    alphas = np.tile(orders.alphas, 4)
    y0 = np.concatenate([np.asarray(cfg.initial_state, float), np.eye(3).reshape(-1)])
    t, Y, log, _ = _pece(tangent_field(params), alphas, y0, cfg.h, cfg.n_steps,
                         (renorm_every, slice(3, 12), 3))
    return Trajectory(t, Y[:, :3]), log
