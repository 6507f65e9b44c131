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
from typing import Callable, Iterable, Sequence

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


def _as_fraction(value: _RationalLike | float) -> Fraction:
    if isinstance(value, float):
        raise NonRationalOrder(
            f"incommensurate orders must be exact rationals, got float {value!r}; "
            "pass a Fraction, an int, or a string like '99/100'"
        )
    return Fraction(value)


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
            frac = Fraction(alpha)
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
    degenerate: bool = False


def vector_field(params: JerkParams, state: Sequence[float]) -> np.ndarray:
    """Right-hand side (y, z, -eps^2 - b*y - a*eps*z + x^2) at one state.

    Only state[:3] is read.
    """
    x, y, z = state[0], state[1], state[2]
    eps = params.epsilon
    return np.array([y, z, -eps * eps - params.b * y - params.a * eps * z + x * x])


# f(s) = A s + c + x^2 e3 with A = jacobian(params, 0) and c = (0, 0, -eps^2),
# which for a given x is (A + x e3 e1^T) s + c; likewise J(x) = A + 2x e3 e1^T.
# The two functions below write x (or 2x) into their matrix, so an evaluation
# is one matrix product and one add.


def lane_field(lanes: Sequence[JerkParams]) -> Callable[[np.ndarray], np.ndarray]:
    """The vector field of B parameter sets on the flat (3B,) state of B lanes.

    Lane k is entries 3k..3k+2 and has a 3 x 3 product of its own, so a
    non-finite lane (0 * inf is NaN) leaves the others untouched. The field
    writes its own matrices, so it serves one thread at a time.
    """
    A = np.array([jacobian(p, (0.0, 0.0, 0.0)) for p in lanes])
    x = A[:, 2, 0]
    c = np.zeros(3 * len(A))
    c[2::3] = [-p.epsilon * p.epsilon for p in lanes]
    stack = (len(A), 3, 1)

    def field(s: np.ndarray) -> np.ndarray:
        x[:] = s[::3]
        out = np.matmul(A, s.reshape(stack)).reshape(-1)
        out += c
        return out

    return field


def tangent_field(params: JerkParams) -> Callable[[np.ndarray], np.ndarray]:
    """(vector_field(s), jacobian(s[:3]) @ Phi) on s = (x, y, z, Phi row-major).

    The field writes its own matrix, so it serves one thread at a time.
    """
    M = np.zeros((12, 12))
    M[:3, :3] = jacobian(params, (0.0, 0.0, 0.0))
    M[3:, 3:] = np.kron(M[:3, :3], np.eye(3))
    two_x = M.reshape(-1)[9 * 12 + 3::13]  # M[9, 3], M[10, 4], M[11, 5]
    c = -params.epsilon * params.epsilon

    def field(s: np.ndarray) -> np.ndarray:
        x = s[0]
        M[2, 0] = x
        two_x[:] = x + x
        out = M @ s
        out[2] += c
        return out

    return field


def equilibria(params: JerkParams) -> list[Equilibrium]:
    """Fixed points E1 = (eps, 0, 0), E2 = (-eps, 0, 0).

    At eps = 0 the two coincide; a single flagged equilibrium at the origin
    is returned.
    """
    eps = params.epsilon
    if eps == 0.0:
        return [Equilibrium((0.0, 0.0, 0.0), PLUS, degenerate=True)]
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
