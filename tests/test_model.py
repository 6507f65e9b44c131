import numpy as np
import pytest
from fractions import Fraction

from fjerk.exceptions import InvalidConfig, NonRationalOrder
from fjerk.model import (
    MINUS,
    PLUS,
    JerkParams,
    OrderSpec,
    equilibria,
    jacobian,
    jacobian_at,
    lane_field,
    reduce_orders,
    tangent_field,
    vector_field,
)

RNG = np.random.default_rng(20240817)


def test_vector_field_origin_zero_eps():
    p = JerkParams(0.129, 7.0, 0.0)
    assert np.allclose(vector_field(p, np.zeros(3)), np.zeros(3))


def test_vector_field_components():
    p = JerkParams(0.5, 2.0, 3.0)
    f = vector_field(p, np.array([1.0, -1.0, 2.0]))
    # y, z, -eps^2 - b*y - a*eps*z + x^2
    assert f[0] == -1.0
    assert f[1] == 2.0
    assert f[2] == pytest.approx(-9.0 + 2.0 - 3.0 + 1.0)


def test_equilibria_pair():
    p = JerkParams(0.129, 7.0, 2.5)
    eqs = equilibria(p)
    assert len(eqs) == 2
    by_branch = {e.branch: e for e in eqs}
    assert by_branch[PLUS].point == (2.5, 0.0, 0.0)
    assert by_branch[MINUS].point == (-2.5, 0.0, 0.0)
    assert not any(e.degenerate for e in eqs)


def test_equilibria_degenerate_at_zero_eps():
    eqs = equilibria(JerkParams(0.129, 7.0, 0.0))
    assert len(eqs) == 1
    assert eqs[0].point == (0.0, 0.0, 0.0)
    assert eqs[0].degenerate


def test_vector_field_vanishes_at_equilibria():
    for _ in range(50):
        p = JerkParams(RNG.uniform(0.05, 2), RNG.uniform(-5, 8), RNG.uniform(-6, 6))
        for eq in equilibria(p):
            f = vector_field(p, np.asarray(eq.point))
            assert np.max(np.abs(f)) < 1e-12


def test_jacobian_matches_finite_differences():
    p = JerkParams(0.7, 3.0, 1.4)
    eq = equilibria(p)[0]
    J = jacobian_at(p, eq)
    s0 = np.asarray(eq.point, dtype=float)
    step = 1e-6
    for j in range(3):
        d = np.zeros(3)
        d[j] = step
        col = (vector_field(p, s0 + d) - vector_field(p, s0 - d)) / (2 * step)
        assert np.allclose(J[:, j], col, atol=1e-6)


def _random_lanes(n):
    lanes = [JerkParams(RNG.uniform(0.05, 2), RNG.uniform(-5, 8), RNG.uniform(-6, 6))
             for _ in range(n - 1)]
    return lanes + [JerkParams(0.129, 7.0, 0.0)]


def test_lane_field_matches_vector_field_per_lane():
    for n_lanes in (1, 2, 5):
        lanes = _random_lanes(n_lanes)
        field = lane_field(lanes)
        for _ in range(20):
            s = RNG.uniform(-8, 8, size=3 * n_lanes)
            out = field(s)
            assert out.shape == s.shape
            for k, p in enumerate(lanes):
                ref = vector_field(p, s[3 * k:3 * k + 3])
                assert np.max(np.abs(out[3 * k:3 * k + 3] - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_tangent_field_matches_vector_field_and_jacobian():
    for p in _random_lanes(6):
        field = tangent_field(p)
        for _ in range(20):
            s = RNG.uniform(-8, 8, size=12)
            # the tangent vectors are the rows of V
            ref = np.concatenate([vector_field(p, s),
                                  (s[3:].reshape(3, 3) @ jacobian(p, s[:3]).T).reshape(-1)])
            assert np.max(np.abs(field(s) - ref)) <= 1e-14 * np.max(np.abs(ref))


@np.errstate(invalid="ignore", over="ignore")
def test_lane_field_keeps_a_non_finite_lane_to_itself():
    # 0 * inf is NaN, so one product across lanes would spread it to all
    lanes = _random_lanes(4)
    field = lane_field(lanes)
    for bad in (np.inf, -np.inf, np.nan):
        for k in range(len(lanes)):
            for i in range(3):
                s = RNG.uniform(-8, 8, size=12)
                s[3 * k + i] = bad
                out = field(s).reshape(4, 3)
                assert not np.all(np.isfinite(out[k]))
                assert np.all(np.isfinite(np.delete(out, k, axis=0)))


@np.errstate(over="ignore")
def test_lane_field_keeps_an_overflowing_lane_to_itself():
    # a finite x of 1e200 overflows x^2 to inf in its own lane only
    lanes = _random_lanes(4)
    field = lane_field(lanes)
    for k in range(len(lanes)):
        s = RNG.uniform(-8, 8, size=12)
        s[3 * k] = 1e200
        out = field(s)
        assert out[3 * k + 2] == np.inf
        for j, p in enumerate(lanes):
            if j != k:
                ref = vector_field(p, s[3 * j:3 * j + 3])
                assert np.max(np.abs(out[3 * j:3 * j + 3] - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("build", ["lane_field", "tangent_field"])
def test_field_into_out_matches_returned_field(build):
    if build == "lane_field":
        field, size = lane_field(_random_lanes(3)), 9
    else:
        field, size = tangent_field(_random_lanes(2)[0]), 12
    for _ in range(20):
        s = RNG.uniform(-8, 8, size=size)
        out = np.full(size, np.nan)
        assert field(s, out) is out
        assert np.array_equal(out, field(s))


def test_commensurate_spec():
    o = OrderSpec.commensurate(0.91)
    assert o.is_commensurate
    assert o.alpha == 0.91
    assert o.alphas == (0.91, 0.91, 0.91)


def test_commensurate_keeps_fractions():
    o = OrderSpec.commensurate(Fraction(91, 100))
    red = reduce_orders(o)
    assert (red.M, red.p, red.q, red.m) == (100, 91, 91, 91)


def test_commensurate_from_string():
    o = OrderSpec.commensurate("91/100")
    red = reduce_orders(o)
    assert (red.M, red.p, red.q, red.m) == (100, 91, 91, 91)


@pytest.mark.parametrize("bad", [0.0, -0.2, 1.0001, 2.0])
def test_commensurate_rejects_out_of_range(bad):
    with pytest.raises((InvalidConfig, ValueError)):
        OrderSpec.commensurate(bad)


def test_incommensurate_rejects_floats():
    with pytest.raises(NonRationalOrder):
        OrderSpec.incommensurate(1.0, 0.99, 1.0)


@pytest.mark.parametrize("make", [
    lambda: OrderSpec.commensurate("1/0"),
    lambda: OrderSpec.incommensurate("1/0", "1", "1"),
    lambda: OrderSpec.incommensurate("1", "1", "0/0"),
])
def test_zero_denominator_orders_raise_value_error(make):
    with pytest.raises(ValueError, match="zero denominator"):
        make()


def test_reduce_orders_examples():
    red = reduce_orders(OrderSpec.incommensurate("1", "99/100", "1"))
    assert (red.M, red.p, red.q, red.m) == (100, 100, 99, 100)
    red = reduce_orders(OrderSpec.incommensurate("1/2", "1/3", "1/4"))
    assert (red.M, red.p, red.q, red.m) == (12, 6, 4, 3)
    assert red.theta == pytest.approx(np.pi / 24, rel=0, abs=1e-15)


def test_reduce_orders_exactness_property():
    for _ in range(200):
        dens = RNG.integers(1, 30, size=3)
        nums = [int(RNG.integers(1, d + 1)) for d in dens]
        o = OrderSpec.incommensurate(
            Fraction(nums[0], int(dens[0])),
            Fraction(nums[1], int(dens[1])),
            Fraction(nums[2], int(dens[2])),
        )
        red = reduce_orders(o)
        # exact recovery: p/M etc. reproduce the input rationals
        assert Fraction(red.p, red.M) == Fraction(nums[0], int(dens[0]))
        assert Fraction(red.q, red.M) == Fraction(nums[1], int(dens[1]))
        assert Fraction(red.m, red.M) == Fraction(nums[2], int(dens[2]))
        assert all(0 < k <= red.M for k in (red.p, red.q, red.m))


def test_degenerate_flag():
    assert JerkParams(1.0, 1.0, 0.0).degenerate
    assert not JerkParams(1.0, 1.0, 1e-9).degenerate
