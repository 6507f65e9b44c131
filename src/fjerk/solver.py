"""Predictor-corrector integration of Caputo fractional systems.

Adams-Bashforth-Moulton product-integration scheme: rectangle-rule predictor,
trapezoid-rule corrector (one pass), with per-equation orders and the full
history in every convolution.

Each history sum is split in two. The near field, the rows of the step's
own block of ``_BLOCK`` = 128 steps and of the block before, is summed
directly with the exact weights. All older rows are held in K modes of a
sum-of-exponentials kernel (Jiang, Zhang, Zhang & Zhang, Commun. Comput.
Phys. 21, 2017; Lubich & Schädle, SIAM J. Sci. Comput. 24, 2002): on
[128 h, N h], t^(alpha-1) / Gamma(alpha) is sum_l w_l exp(-x_l t) within
2e-15 relative (``_modes``), with some 180 nodes x_l shared by all orders
and weights w_l for each. Once a block the modes decay and take in one block
of rows, a (K x 128)(128 x d) product, and the far-field sums of all the
block's steps are one (256 x K)(K x d) product, each mode with its exact
weight of a rectangle and of a hat. That is O(N K d) work, and beyond the
states Y only O(K d) memory and a history window W of 3 * 128 + 1 rows.
At n = 6000 the far-field sums agree with a 40-digit direct sum as closely
as a float64 direct sum does (within 4.4e-14 of max|state|, sums some 100
times its size).

A step's time is Python overhead, so a step makes eight calls: seven numpy
calls and one ``math.isfinite``. The loop runs over blocks and, within one,
over offsets, with the near-field weights of every offset prepared once.
The field is f(s) = M(x) s + c (``model._Field``), and W holds g = f - c.
Each block has its far rows ``far`` (block, 2, d): the predictor's and the
corrector's terms of each step that do not change within the block, y0,
the sums of c (t^alpha / Gamma(alpha+1), in closed form), the boundary term
of row 0 and the modes' sums. A step n -> n+1 at offset k is

    near[k].dot(W[r:k+2r+1], S)   # S (2, d): predictor and corrector sums
    S += far[k]                   # S = (yp, corrector's sum without the new node)
    update(S, Y[n+1])             # yc = S[1] + a0 * g(yp): x write, one product
    isfinite(yc.dot(yc))          # the step's only finiteness test
    product(yc, W[k+2r+1])        # g(yc): x write, one product

where a0 is the weight of the new node and ``update`` multiplies the pair
by [diag(a0) M(x) | I], so f(yp) is never stored. Each distinct order has
one near-field table by lag, the predictor's and the corrector's weight of
a history row (``_weight_tables``), reversed. With G distinct orders the dot
is one (2G, k+r+1) product and one ``np.take`` picks each column's pair.
Only a step whose corrected state is not finite redoes the update lane by
lane, since a dense product would spread a non-finite lane over all of
them, and then tests each lane. ``model.lane_field`` and, with the
tangent, ``model.tangent_field`` are the fields; ``caputo_abm`` adapts an
``rhs(t, s)`` with c = 0.

A renormalised run keeps its q tangent vectors as rows of V, each vector
contiguous in the state. Every ``renorm_every`` steps the frame is
re-orthonormalised, V^T = QR and V = Q^T, and log diag(R) are the
interval's stretch factors (Geist, Parlitz & Lauterborn, Prog. Theor. Phys.
83, 1990). All that later steps read of the history is linear in V and
becomes R^-T V, on flat rows one product with kron(R^-1, I): the near rows,
the modes, the block's remaining far rows, y0 and g(y0), at most some 700
rows whatever N.
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

    ``log_norms[k]`` is log diag(R_k) of the QR factorisation V^T = Q R_k
    that re-orthonormalises the frame at ``renorm_times[k]``.
    """

    renorm_times: np.ndarray
    log_norms: np.ndarray  # shape (n_renorms, q)


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


def _binomials(p: float, m: int) -> list[float]:
    """The binomial coefficients C(p, 0), ..., C(p, m-1)."""
    out = [1.0]
    for j in range(1, m):
        out.append(out[-1] * (p - j + 1) / j)
    return out


def abm_weights(alpha: float, n: int, h: float) -> AbmWeights:
    """Weights of the predictor-corrector scheme for lags 0..n-1.

    Discretizes the convolution with kernel (t - tau)^(alpha-1) / Gamma(alpha):
    the predictor uses piecewise-constant (rectangle) product integration, the
    corrector piecewise-linear (trapezoid). Gamma(alpha+1) and Gamma(alpha+2)
    come from ``_gamma``, a port of Cephes ``Gamma`` on [1, 3] that equals
    ``scipy.special.gamma`` bit for bit there.

    The differences of powers are formed without cancellation: the
    predictor's (k+1)^a - k^a as k^a expm1(a log1p(1/k)), and, from lag 16
    on, the corrector's and the boundary term's as binomial series in 1/k.
    Below lag 16 the corrector differences two such rises, and the boundary
    term is a (k+1)^a - k ((k+1)^a - k^a). Against a 40-digit reference each
    weight is within 3e-13 relative for alpha >= 0.01 (within 1e-14 for
    alpha >= 0.3), where the plain formulas were off by up to 5.2e-6 at
    alpha = 0.91 and 9.3e-5 at alpha = 0.01 at lag 59999.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if n < 1:
        raise ValueError(f"need at least one step, got n={n}")
    k = np.arange(n, dtype=float)
    beta = alpha + 1.0

    def rise(p):  # (k+1)^p - k^p at every lag k
        return np.concatenate([[1.0], k[1:] ** p * np.expm1(p * np.log1p(1.0 / k[1:]))])

    predictor = rise(alpha)
    corrector = np.concatenate([[1.0], np.diff(rise(beta))])
    boundary = alpha * (k + 1.0) ** alpha - k * predictor
    # From lag 16 on: (1+x)^b - 2 + (1-x)^b = 2 sum_m C(b, 2m) x^(2m) and
    # 1 - (1-ax)(1+x)^a = (1+a) sum_(m>=2) (m-1)/m C(a, m-1) x^m, x = 1/k,
    # truncated where the terms fall below 1e-17 of the first at k = 16.
    kf = k[16:]
    x = 1.0 / kf
    cb, ca = _binomials(beta, 19), _binomials(alpha, 17)
    corrector[16:] = 2.0 * kf ** (alpha - 1.0) * _polevl(
        x * x, [cb[2 * m] for m in range(9, 0, -1)])
    boundary[16:] = kf ** (alpha - 1.0) * _polevl(
        x, [beta * (m - 1) / m * ca[m - 1] for m in range(17, 1, -1)])
    ha = h**alpha
    c = ha / _gamma(alpha + 2.0)
    return AbmWeights(ha / _gamma(alpha + 1.0) * predictor, c * corrector, c * boundary)


# Near-field block r: a step sums the rows of its own block and of the block
# before directly, at lags 0..2r-1; all older rows reach it through the
# exponential modes (``_modes``), which take in one block of rows per block.
_BLOCK = 128


def _modes(orders, h: float, N: int):
    """Nodes x (K,) and weights w (K, G) of a sum of exponentials.

    sum_l w[l, g] exp(-x[l] t) is t^(alpha_g - 1) / Gamma(alpha_g), order g
    of ``orders``, on [``_BLOCK`` h, N h], within 2e-15 relative. The
    kernel is (sin(pi alpha) / pi) times the integral of x^-alpha e^(-x t)
    over x > 0, here by the trapezoid rule in u = ln x with step 1/4 from
    x t = 1e-15 at t = N h to x t = 45 at t = ``_BLOCK`` h. The nodes below
    the first have exp(-x t) = 1 to rounding, and their geometric series
    of weights is one mode at x = 0; at alpha = 1 it is the whole kernel.
    """
    u = np.arange(math.log(1e-15 / (N * h)), math.log(45.0 / (_BLOCK * h)) + 0.25, 0.25)
    x = np.concatenate([[0.0], np.exp(u)])
    w = np.empty((x.size, len(orders)))
    for g, alpha in enumerate(orders):
        beta = 1.0 - alpha
        # sin(pi alpha) at alpha near 1 would lose digits to the rounding of pi alpha
        s = 0.25 * math.sin(math.pi * min(alpha, beta)) / math.pi
        w[1:, g] = s * np.exp(beta * u)
        w[0, g] = 1.0 if beta == 0.0 else s * math.exp(beta * u[0]) / math.expm1(0.25 * beta)
    return x, w


def _weight_tables(orders, N: int, h: float):
    """Each order's near-field table, step terms and weight of the new node.

    Returns (near, total, edge, a0). ``near[g]`` = (predictor, corrector[1:])
    of order g at lags 0..2 ``_BLOCK``-1: the weights a history row takes
    in the predictor sum and in the corrector sum. Of step n -> n+1,
    ``total[g, n]`` = t_(n+1)^alpha / Gamma(alpha+1) is the total weight of
    either sum, which the field's constant c takes, and ``edge[g, n]`` turns
    the interior corrector weight of row 0 into its boundary weight. A
    function of its own, so that the full tables of ``abm_weights`` are
    freed on return.
    """
    L = 2 * _BLOCK
    G = len(orders)
    near, total, edge, a0 = np.empty((G, 2, L)), np.empty((G, N)), np.empty((G, N)), np.empty(G)
    for g, alpha in enumerate(orders):
        w = abm_weights(alpha, max(N, L) + 1, h)
        near[g] = w.predictor[:L], w.corrector[1:L + 1]
        a0[g] = w.corrector[0]
        total[g] = h**alpha / _gamma(alpha + 1.0) * np.arange(1, N + 1) ** alpha
        edge[g] = w.boundary[:N] - w.corrector[1:N + 1]
    return near, total, edge, a0


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
    vectors, at most as many as their dimension) are re-orthonormalised by
    QR every so many steps, with everything later steps read of their
    history transformed alongside, and the log stretch factors of each
    interval go to the TangentLog. Bad renorm arguments raise ValueError on
    entry.

    A 1-D ``y0`` raises DivergenceError at the first non-finite state. A 2-D
    ``y0`` of shape (B, d) holds B lanes of one system, stepped as one state
    of B*d columns: ``alphas`` has the d orders, ``rhs`` gets and returns the
    flat (B*d,) state with lane k in entries k*d .. k*d+d-1, Y has shape
    (N+1, B, d), and ``renorm_cols`` index the flat state. ``rhs`` must keep
    each lane's output to its own input. A lane whose state turns non-finite
    is recorded at that step, and its rows of Y are NaN from there on. At
    that step (and again should it diverge anew) its columns of the
    history, of the modes and of the state are set to 0, so the dead lane
    goes on from 0 with no history instead of carrying inf or NaN into
    every later rhs call. The other lanes continue, since every history sum
    and transform acts on each column alone. The loop stops once every lane
    has diverged.
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
    t = h * np.arange(N + 1)
    Y = np.empty((N + 1, d))
    Y[0] = y0
    first = np.full(n_lanes, N + 1)  # each lane's first non-finite step

    # The history of g = f - c is a window of three blocks and one row:
    # W[j] holds g at step lo - 2r + j. The near rows of offset k, those of
    # its block and of the block before, are W[r:k+2r+1], the modes take in
    # W[:r], and the new row is W[k+2r+1]. Rows of steps before 0 are zero.
    r = _BLOCK
    W = np.zeros((3 * r + 1, d))
    field.product(y0, W[2 * r])
    g0, c = W[2 * r].copy(), field.c.copy()
    orders, group = np.unique(alphas, return_inverse=True)
    kernel, total, edge, a0 = _weight_tables(orders.tolist(), N, h)
    corrector = field.corrector(a0[group])
    update, lanewise, product = corrector.product, corrector.lanewise, field.product

    # The near-field dot of offset k gives both sums of every order, as
    # rows 2g (predictor) and 2g+1 (corrector) of order g: its table's lags,
    # reversed, so that each offset's weights are a tail of them. With
    # several orders, np.take picks each column's pair.
    near = kernel[:, :, ::-1].reshape(2 * len(kernel), 2 * r)
    near = [near[:, r - 1 - k:].copy() for k in range(r)]  # contiguous: a faster dot
    S = np.empty((2, d))
    sums, pick = S, None
    if len(kernel) > 1:
        sums = np.empty((2 * len(kernel), d))
        pick = (2 * group + np.arange(2)[:, None]) * d + np.arange(d)
    pair = S.reshape(-1)  # (predicted state, corrector's sum)

    # Modes: M[l] = sum over rows j older than the near field of
    # exp(-x[l] (m - j) h) g_j, m the first near row. At offset k a row's
    # lag is (k + r) + (m - j), so the far-field sums of the block are one
    # product with ``read``: rows 2k and 2k+1 hold exp(-x (k + r) h) and
    # exp(-x (k + r + 1) h) times each mode's exact weight of a rectangle
    # and of a hat of width h. Each column multiplies its modes by the
    # weights of its own order.
    x, w = _modes(orders.tolist(), h, max(N, 2 * r))  # read from step 2r on
    w = w[:, group]
    p_w, c_w = np.full(x.size, h), np.full(x.size, h)
    z = x[1:] * h
    p_w[1:] = -np.expm1(-z) / x[1:]
    c_w[1:] = h * (np.sinh(z / 2) / (z / 2)) ** 2
    lag = np.arange(r, 2 * r + 1)[:, None] * h
    read = np.empty((2 * r, x.size))
    read[0::2] = p_w * np.exp(-x * lag[:-1])
    read[1::2] = c_w * np.exp(-x * lag[1:])
    take_in = np.exp(-x[:, None] * h * np.arange(r, 0, -1))  # (K, r) row weights
    decay = np.exp(-x * r * h)[:, None]
    M = np.zeros((x.size, d))

    def live():
        # every term later steps read that is linear in the history: the
        # near rows, the modes, the block's remaining far rows, y0, g(y0),
        # and c, which is 0 in the renormalised columns
        return W[r:k + 2 * r + 1], M, far[k + 1:].reshape(-1, d), y0[None], g0[None], c[None]

    log_times: list[float] = []
    log_norms: list[np.ndarray] = []
    for lo in range(0, N, r):
        hi = min(lo + r, N)
        # far[k] = (predictor, corrector) terms of step lo+k -> lo+k+1: y0,
        # the sums of c, the boundary term of row 0 and the far-field sums
        far = np.empty((hi - lo, 2, d))
        far[:] = y0
        far += c * total[group, lo:hi].T[:, None]
        far[:, 1] += g0 * edge[group, lo:hi].T
        if lo >= 2 * r:
            M *= decay
            M += take_in @ W[:r]
            far += (read[:2 * (hi - lo)] @ (w * M)).reshape(hi - lo, 2, d)
        for k, n in enumerate(range(lo, hi)):
            if clock is not None:
                clock[0] = t[n + 1]
            near[k].dot(W[r:k + 2 * r + 1], sums)
            if pick is not None:
                np.take(sums, pick, out=S, mode="clip")
            S += far[k]
            # yc = S[1] + a0 * g(S[0]); a0 * c is in the far rows
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
                    for a in live():
                        a[:, cols] = 0.0

            if n + 1 == next_renorm:
                next_renorm += renorm_every
                V = yc[rcols].reshape(n_vectors, -1)
                Q, R = np.linalg.qr(V.T)
                sign = np.sign(np.diag(R))
                sign[sign == 0.0] = 1.0
                R = (R.T * sign).T
                diag = np.diag(R)
                if np.any(diag < 1e-300):
                    raise TangentCollapse(f"stretch factor underflow at t = {t[n + 1]:g}")
                log_times.append(t[n + 1])
                log_norms.append(np.log(diag))
                yc[rcols] = (Q * sign).T.reshape(-1)
                # V becomes R^-T V: on a flat row, one product with kron(R^-1, I)
                K = np.kron(np.linalg.inv(R), np.eye(V.shape[1]))
                for a in live():
                    a[:, rcols] = a[:, rcols] @ K

            product(yc, W[k + 2 * r + 1])
        else:
            W[:2 * r + 1] = W[r:]
            continue
        break  # every lane has diverged

    if len(shape) == 1 and first[0] <= N:
        raise DivergenceError(t[first[0]])
    log = None
    if renorm is not None:
        log = TangentLog(np.asarray(log_times), np.asarray(log_norms).reshape(-1, n_vectors))
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
    fractional orders. Every ``renorm_every`` steps the frame and the
    history that later steps read are re-orthonormalised by QR, and the log
    stretch factors of the interval are recorded (module docstring).
    """
    if renorm_every < 1:
        raise InvalidConfig(f"renorm_every must be >= 1, got {renorm_every}")
    alphas = np.tile(orders.alphas, 4)
    y0 = np.concatenate([np.asarray(cfg.initial_state, float), np.eye(3).reshape(-1)])
    t, Y, log, _ = _pece(tangent_field(params), alphas, y0, cfg.h, cfg.n_steps,
                         (renorm_every, slice(3, 12), 3))
    return Trajectory(t, Y[:, :3]), log
