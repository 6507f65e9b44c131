"""Quadratic jerk system: parameters, equilibria, Jacobian, order reduction.

The system is

    D^a1 x = y
    D^a2 y = z
    D^a3 z = -eps^2 - b*y - a*eps*z + x^2

with Caputo derivatives of orders in (0, 1].
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .exceptions import NonRationalOrder

__all__ = [
    "JerkParams",
    "OrderSpec",
    "ReducedOrders",
    "Equilibrium",
    "vector_field",
    "lane_field",
    "tangent_field",
    "equilibria",
    "jacobian",
    "jacobian_at",
    "reduce_orders",
]

PLUS = "plus"
MINUS = "minus"

_RationalLike = int | Fraction | str


@dataclass(frozen=True)
class JerkParams:
    """System constants a, b and the bifurcation parameter epsilon."""

    a: float
    b: float
    epsilon: float

    @property
    def degenerate(self) -> bool:
        """True when epsilon = 0 and the two equilibria coincide."""
        return self.epsilon == 0.0


def _fraction(value: _RationalLike) -> Fraction:
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"order {value!r} has a zero denominator") from None


def _as_fraction(value: _RationalLike | float) -> Fraction:
    if isinstance(value, float):
        raise NonRationalOrder(
            f"incommensurate orders must be exact rationals, got float {value!r}; "
            "pass a Fraction, an int, or a string like '99/100'"
        )
    return _fraction(value)


@dataclass(frozen=True)
class OrderSpec:
    """Fractional orders: one commensurate alpha or a rational triple.

    Use the :meth:`commensurate` / :meth:`incommensurate` constructors.
    """

    alphas: tuple[float, float, float]
    is_commensurate: bool
    rationals: tuple[Fraction, Fraction, Fraction] | None = None

    @classmethod
    def commensurate(cls, alpha: float | _RationalLike) -> "OrderSpec":
        """Single shared order alpha in (0, 1].

        A rational input (Fraction, int, or '99/100') is remembered exactly so
        the order-reduction path stays available; a float is accepted for
        simulation but cannot be reduced.
        """
        rationals = None
        if not isinstance(alpha, float):
            frac = _fraction(alpha)
            rationals = (frac, frac, frac)
            alpha = float(frac)
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"order alpha must lie in (0, 1], got {alpha}")
        return cls((alpha, alpha, alpha), True, rationals)

    @classmethod
    def incommensurate(
        cls,
        a1: _RationalLike,
        a2: _RationalLike,
        a3: _RationalLike,
    ) -> "OrderSpec":
        """Per-equation rational orders v_i/u_i, each in (0, 1]."""
        fracs = tuple(_as_fraction(v) for v in (a1, a2, a3))
        for f in fracs:
            if not 0 < f <= 1:
                raise ValueError(f"order {f} outside (0, 1]")
            if float(f) == 0.0:
                raise ValueError("an order underflows to 0.0 as a float")
        return cls(tuple(float(f) for f in fracs), False, fracs)

    @property
    def alpha(self) -> float:
        if not self.is_commensurate:
            raise ValueError("incommensurate OrderSpec has no single alpha")
        return self.alphas[0]


@dataclass(frozen=True)
class ReducedOrders:
    """Integer order lift: M = lcm of denominators, (p, q, m) = M * alphas."""

    M: int
    p: int
    q: int
    m: int
    theta: float = field(init=False)

    def __post_init__(self):
        if self.M <= 0 or not all(0 < k <= self.M for k in (self.p, self.q, self.m)):
            raise ValueError(f"invalid reduction M={self.M}, p={self.p}, q={self.q}, m={self.m}")
        # theta = pi/(2M) and the Hopf exponents, up to 5M, are used as floats
        if 5 * self.M > sys.float_info.max:
            raise ValueError(
                f"M = lcm of the denominators ({self.M.bit_length()} bits) is too large: "
                "theta = pi/(2M) and exponents up to 5M must be floats"
            )
        object.__setattr__(self, "theta", math.pi / (2 * self.M))


@dataclass(frozen=True)
class Equilibrium:
    """One of the fixed points (+eps, 0, 0) or (-eps, 0, 0)."""

    point: tuple[float, float, float]
    branch: str

    @property
    def degenerate(self) -> bool:
        """True at the origin, where eps = 0 merges the two fixed points."""
        return self.point == (0.0, 0.0, 0.0)


def vector_field(params: JerkParams, state: Sequence[float]) -> np.ndarray:
    """Right-hand side (y, z, -eps^2 - b*y - a*eps*z + x^2) at one state.

    Only state[:3] is read.
    """
    x, y, z = state[0], state[1], state[2]
    eps = params.epsilon
    return np.array([y, z, -eps * eps - params.b * y - params.a * eps * z + x * x])


# f(s) = A s + c + x^2 e3 with A = jacobian(params, 0) and c = (0, 0, -eps^2),
# which for a given x is M(x) s + c with M(x) = A + x e3 e1^T; likewise
# J(x) = A + 2x e3 e1^T. Each field below is block-diagonal in 3 x 3 blocks,
# and every block's (2, 0) entry is a multiple of its lane's x: the field
# writes those entries through one strided view, so M(x) s is one product.


def _diagonal_blocks(M: np.ndarray, n: int) -> np.ndarray:
    """The n diagonal 3 x 3 blocks of M's first 3n columns, as a (n, 3, 3) view."""
    row, item = M.strides
    return np.lib.stride_tricks.as_strided(M, (n, 3, 3), (3 * (row + item), row, item))


class _Field:
    """A field f(s) = M(x) s + c.

    The state holds B lanes of m blocks of 3 entries, lane by lane, and M is
    block-diagonal: block j of a lane is A with ``scales[j]`` times the
    lane's x (its first entry) at (2, 0), and c holds -eps^2 at entry 2 of
    each lane. Either every lane is one block (scale 1), or there is one
    lane. ``product(s, out)`` writes M(x) s, the field less its constant
    ``c``, unchecked, into ``out`` (a C-contiguous float array of s's shape)
    and returns it. ``corrector(k)`` is a field of the same kind for a
    predictor-corrector step: its ``product`` takes the flat (2d,) pair
    (s, r) and writes r + k * (f(s) - c), one product of the matrix
    [diag(k) M(x) | I]. ``lanewise`` does what ``product`` does with one
    product per block, so a non-finite lane stays in its own entries. A
    field writes its own matrix, so it serves one thread at a time.
    """

    def __init__(self, lanes: Sequence[JerkParams], scales: Sequence[float],
                 k: np.ndarray | None = None):
        self.lanes, self.scales = lanes, scales
        B, m = len(lanes), len(scales)
        self.d = d = 3 * B * m
        A = np.zeros((d, d))
        _diagonal_blocks(A, B * m)[:] = np.repeat(
            [jacobian(p, (0.0, 0.0, 0.0)) for p in lanes], m, axis=0)
        self.M = A if k is None else np.hstack([k[:, None] * A, np.eye(d)])
        self.blocks = _diagonal_blocks(self.M, B * m)
        self.x = x = self.blocks[:, 2, 0]
        # an array: a float would be converted at every call
        self.kx = kx = np.tile(scales, B) * (1.0 if k is None else k[2::3])
        self.c = np.zeros(d)
        self.c[2::3 * m] = [-p.epsilon * p.epsilon for p in lanes]
        self.stack = (B * m, 3, 1)
        # each lane's x: a strided slice, or, for one lane of several blocks,
        # the scalar s[0], which numpy spreads over the blocks faster than a
        # length-1 slice
        self.xs = xs = slice(0, d, 3) if m == 1 else 0
        dot, multiply = self.M.dot, np.multiply

        def product(s, out):  # a closure: it runs twice a solver step
            multiply(s[xs], kx, out=x)
            return dot(s, out)

        self.product = product

    def corrector(self, k: np.ndarray) -> "_Field":
        return _Field(self.lanes, self.scales, k)

    def lanewise(self, s, out):
        d = self.d
        np.multiply(s[self.xs], self.kx, out=self.x)
        np.matmul(self.blocks, s[:d].reshape(self.stack), out=out.reshape(self.stack))
        if s.size > d:
            out += s[d:]
        return out


def lane_field(lanes: Sequence[JerkParams]) -> _Field:
    """The vector field of B parameter sets on the flat (3B,) state of B lanes.

    Lane k is entries 3k..3k+2. The field is one product with a dense
    block-diagonal (3B x 3B) matrix. Its zero blocks would spread a
    non-finite lane as NaN (0 * inf) into the others, and ``product`` does
    not check: a caller tests the result and, when it is not finite, redoes
    it with ``lanewise``, one 3 x 3 product per lane, which keeps each
    lane's output to its own input, as ``solver._pece`` does.
    """
    return _Field(list(lanes), (1.0,))


def tangent_field(params: JerkParams) -> _Field:
    """The field with its linearisation on s = (x, y, z, v1, v2, v3).

    f(s) = (vector_field(s), J v1, J v2, J v3) with J = jacobian(s[:3]):
    each tangent vector is three contiguous entries, so the (12 x 12)
    matrix is block-diagonal, M(x) for the state and J(x) for each vector.
    """
    return _Field([params], (1.0, 2.0, 2.0, 2.0))


def equilibria(params: JerkParams) -> list[Equilibrium]:
    """Fixed points E1 = (eps, 0, 0), E2 = (-eps, 0, 0).

    At eps = 0 the two coincide; a single flagged equilibrium at the origin
    is returned.
    """
    eps = params.epsilon
    if eps == 0.0:
        return [Equilibrium((0.0, 0.0, 0.0), PLUS)]
    return [
        Equilibrium((eps, 0.0, 0.0), PLUS),
        Equilibrium((-eps, 0.0, 0.0), MINUS),
    ]


def jacobian(params: JerkParams, state: Iterable[float]) -> np.ndarray:
    """Jacobian of the vector field at an arbitrary state."""
    x, _, _ = state
    return np.array(
        [
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [2.0 * x, -params.b, -params.a * params.epsilon],
        ]
    )


def jacobian_at(params: JerkParams, eq: Equilibrium) -> np.ndarray:
    """Jacobian at an equilibrium; bottom row (+-2*eps, -b, -a*eps)."""
    return jacobian(params, eq.point)


def reduce_orders(orders: OrderSpec) -> ReducedOrders:
    """Exact integer lift (M, p, q, m) with M = lcm(u1, u2, u3).

    Requires rational orders; floats on the commensurate path are rejected
    rather than silently rationalized.
    """
    if orders.rationals is None:
        raise NonRationalOrder(
            "order reduction needs exact rational orders; construct the "
            "OrderSpec from Fractions or strings like '99/100'"
        )
    f1, f2, f3 = orders.rationals
    M = math.lcm(f1.denominator, f2.denominator, f3.denominator)
    p, q, m = (int(M * f) for f in (f1, f2, f3))
    return ReducedOrders(M=M, p=p, q=q, m=m)
