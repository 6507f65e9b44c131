import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.special import gamma as Gamma

from fjerk import solver
from fjerk.exceptions import DivergenceError, InvalidConfig, TangentCollapse
from fjerk.model import JerkParams, OrderSpec, equilibria, jacobian, lane_field, vector_field
from fjerk.solver import (
    _BLOCK,
    _gamma,
    SolveConfig,
    abm_weights,
    caputo_abm,
    integrate,
    integrate_with_tangent,
)


def mittag_leffler_minus(alpha, t, n_terms=200):
    """E_alpha(-t^alpha) by its (alternating) power series, high-precision region."""
    acc = np.zeros_like(t, dtype=float)
    for k in range(n_terms):
        acc += (-1.0) ** k * t ** (alpha * k) / Gamma(alpha * k + 1.0)
    return acc


# ---------------------------------------------------------------- weights


def test_predictor_weight_zero_lag():
    w = abm_weights(0.5, 10, 1.0)
    assert w.predictor[0] == pytest.approx(1.0 / Gamma(1.5))


def test_predictor_weights_telescope():
    # sum of rectangle weights over lags 0..n-1 equals (n*h)^alpha / Gamma(alpha+1)
    for alpha in (0.3, 0.7, 0.95, 1.0):
        for n in (1, 7, 40):
            h = 0.05
            w = abm_weights(alpha, n, h)
            assert w.predictor.sum() == pytest.approx(
                (n * h) ** alpha / Gamma(alpha + 1.0), rel=1e-12
            )


def test_corrector_weights_alpha_one_are_trapezoid():
    h = 0.1
    w = abm_weights(1.0, 6, h)
    assert w.corrector[0] == pytest.approx(h / 2.0)
    assert np.allclose(w.corrector[1:], h)
    # boundary weight: h/2 at the j=0 node for every step
    assert np.allclose(w.boundary[1:], h / 2.0)


def test_predictor_weights_alpha_one_are_euler():
    w = abm_weights(1.0, 5, 0.2)
    assert np.allclose(w.predictor, 0.2)


def test_weights_reject_bad_alpha():
    with pytest.raises(ValueError):
        abm_weights(0.0, 5, 0.1)
    with pytest.raises(ValueError):
        abm_weights(1.2, 5, 0.1)


def test_gamma_port_equals_scipy_gamma_bit_for_bit():
    grid = np.linspace(1.0, 3.0, 200_001)
    assert {1.0, 2.0, 3.0} <= set(grid)
    edges = [np.nextafter(v, w) for v, w in ((1.0, 2.0), (2.0, 1.0), (2.0, 3.0), (3.0, 1.0))]
    x = np.concatenate([grid, edges, np.random.default_rng(5).uniform(1.0, 3.0, 20_000)])
    assert np.array_equal([_gamma(float(v)) for v in x], Gamma(x))


@pytest.mark.parametrize("x", [0.999, 3.0000001, float("nan"), float("inf")])
def test_gamma_port_rejects_arguments_outside_its_range(x):
    with pytest.raises(ValueError):
        _gamma(x)


def test_abm_weights_equal_tables_built_with_scipy_gamma(monkeypatch):
    alphas = [float(a) for a in np.linspace(0.01, 1.0, 100)] + [0.91, 0.99]
    ours = [abm_weights(a, 400, 0.005) for a in alphas]
    monkeypatch.setattr(solver, "_gamma", Gamma)
    for a, w in zip(alphas, ours):
        ref = abm_weights(a, 400, 0.005)
        for name in ("predictor", "corrector", "boundary"):
            assert np.array_equal(getattr(w, name), getattr(ref, name)), (a, name)


# ---------------------------------------------------------------- scalar relaxation


@pytest.mark.parametrize("alpha", [0.5, 0.7, 0.99])
def test_scalar_relaxation_against_mittag_leffler(alpha):
    h = 1e-3
    n = 1000
    t, Y, _ = caputo_abm(lambda t, u: -u, [alpha], [1.0], h, n)
    exact = mittag_leffler_minus(alpha, t)
    err = np.abs(Y[:, 0] - exact)
    # the kernel singularity concentrates the error in the first few steps;
    # away from t = 0 the scheme is well inside the tolerance
    assert err[-1] / abs(exact[-1]) < 1e-5
    assert np.max(err[t >= 0.1]) < 1e-4


def test_scalar_relaxation_convergence_order():
    alpha = 0.6
    errs = []
    for h in (4e-3, 2e-3, 1e-3):
        n = int(round(1.0 / h))
        t, Y, _ = caputo_abm(lambda t, u: -u, [alpha], [1.0], h, n)
        exact = mittag_leffler_minus(alpha, t)
        errs.append(abs(Y[-1, 0] - exact[-1]))
    for e_coarse, e_fine in zip(errs, errs[1:]):
        assert e_coarse / e_fine >= 1.8


def _dff_benchmark(alpha):
    """D^alpha y = f(t, y) with exact solution y = t^8 - 3 t^(4 + alpha/2) + 9/4 t^alpha.

    The nonlinear test problem of Diethelm, Ford & Freed (Nonlinear Dyn. 29,
    2002), with y(0) = 0.
    """
    def rhs(t, y):
        return (40320.0 / Gamma(9.0 - alpha) * t ** (8.0 - alpha)
                - 3.0 * Gamma(5.0 + alpha / 2) / Gamma(5.0 - alpha / 2) * t ** (4.0 - alpha / 2)
                + 2.25 * Gamma(alpha + 1.0) + (1.5 * t ** (alpha / 2) - t**4) ** 3 - y**1.5)

    def exact(t):
        return t**8 - 3.0 * t ** (4.0 + alpha / 2) + 2.25 * t**alpha

    return rhs, exact


@pytest.mark.parametrize("alpha", [0.6, 0.91, 1.0])
def test_convergence_order_on_nonlinear_benchmark(alpha):
    # the scheme converges as h^min(2, 1 + alpha); the max-norm error over
    # the grid shows it, while the end-point error is erratic at alpha = 0.6
    rhs, exact = _dff_benchmark(alpha)
    errs = []
    for m in (80, 160, 320, 640):
        t, Y, _ = caputo_abm(rhs, [alpha], [0.0], 1.0 / m, m)
        errs.append(np.max(np.abs(Y[:, 0] - exact(t))))
    observed = np.log2(errs[-2] / errs[-1])
    assert abs(observed - min(2.0, 1.0 + alpha)) <= 0.1


def test_alpha_one_matches_exponential():
    h = 1e-3
    t, Y, _ = caputo_abm(lambda t, u: -u, [1.0], [1.0], h, 2000)
    assert np.max(np.abs(Y[:, 0] - np.exp(-t))) < 1e-5


# ---------------------------------------------------------------- direct reference


@np.errstate(over="ignore", invalid="ignore")
def direct_abm(rhs, alphas, y0, h, n, renorm_every=None, rcols=None, rshape=None):
    """The scheme with every history sum formed directly, in O(n^2)."""
    y0 = np.array(y0, dtype=float)
    w = [abm_weights(a, n + 1, h) for a in alphas]
    b = np.array([x.predictor for x in w]).T  # (lag, component)
    a = np.array([x.corrector for x in w]).T
    a0 = np.array([x.boundary for x in w]).T
    Y = np.empty((n + 1, y0.size))
    F = np.empty_like(Y)
    Y[0], F[0] = y0, rhs(0.0, y0)
    for k in range(n):
        tk = h * (k + 1)
        yp = y0 + (b[k::-1] * F[: k + 1]).sum(axis=0)
        yc = y0 + a0[k] * F[0] + (a[k:0:-1] * F[1 : k + 1]).sum(axis=0) + a[0] * rhs(tk, yp)
        if not np.all(np.isfinite(yc)):
            raise DivergenceError(tk)
        if renorm_every and (k + 1) % renorm_every == 0:
            Q, R = np.linalg.qr(yc[rcols].reshape(rshape))
            sign = np.where(np.diag(R) < 0.0, -1.0, 1.0)
            Rinv = np.linalg.inv((R.T * sign).T)
            yc[rcols] = (Q * sign).reshape(-1)
            y0[rcols] = (y0[rcols].reshape(rshape) @ Rinv).reshape(-1)
            F[: k + 1, rcols] = (F[: k + 1, rcols].reshape(-1, rshape[1]) @ Rinv).reshape(k + 1, -1)
        Y[k + 1], F[k + 1] = yc, rhs(tk, yc)
    return Y


def _jerk_rhs(eps):
    params = JerkParams(0.129, 7.0, eps)
    return lambda t, s: vector_field(params, s)


def _tangent_rhs(eps):
    params = JerkParams(0.129, 7.0, eps)

    def rhs(t, s):
        tangent = jacobian(params, s[:3]) @ s[3:].reshape(3, 3)
        return np.concatenate([vector_field(params, s), tangent.reshape(-1)])

    return rhs


@pytest.mark.parametrize("n", [1, 63, _BLOCK - 1, 3000, 375 * _BLOCK // 8])
@pytest.mark.parametrize("alphas", [(0.6,) * 3, (0.91,) * 3, (1.0,) * 3, (1.0, 0.99, 1.0)])
def test_full_memory_matches_direct_sum(alphas, n):
    # up to n = _BLOCK - 1 there is no far field; n = 46.875 near-field
    # blocks is not a multiple of the block, and the far field runs at six
    # levels, squares of 1 to 32 blocks, the last partial
    rhs, y0 = _jerk_rhs(5.0), (-4.5, 0.1, 0.1)
    _, Y, _ = caputo_abm(rhs, alphas, y0, 0.01, n)
    ref = direct_abm(rhs, alphas, y0, 0.01, n)
    assert np.max(np.abs(Y - ref)) <= 1e-12 * np.max(np.abs(ref))
    if len(set(alphas)) > 1:
        # two lanes at interleaved orders: each order group's sums reach its
        # columns of both lanes through the masked merge
        y0s = [y0, (-3.0, 0.2, -0.1)]
        field = lane_field([JerkParams(0.129, 7.0, 5.0)] * 2)
        _, Y, _ = caputo_abm(lambda t, s: field(s), alphas, y0s, 0.01, n)
        for lane, y0 in enumerate(y0s):
            ref = direct_abm(rhs, alphas, y0, 0.01, n)
            assert np.max(np.abs(Y[:, lane] - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_renormalized_tangent_matches_direct_sum():
    # two order groups (8 + 4 columns), all three directions contracting:
    # each renormalization scales the stored history up, and with it the
    # rounding of either summation, so a stretching run would test that
    # growth rather than the far field
    rhs, n = _tangent_rhs(0.5), 3000
    orders = (1.0, 0.99, 1.0, 1.0, 1.0, 1.0, 0.99, 0.99, 0.99, 1.0, 1.0, 1.0)
    y0 = np.concatenate([[-0.4, 0.05, 0.05], np.eye(3).reshape(-1)])
    rcols = np.arange(3, 12)
    _, Y, log = caputo_abm(rhs, orders, y0, 0.01, n, renorm_every=100,
                           renorm_cols=rcols, renorm_shape=(3, 3))
    ref = direct_abm(rhs, orders, y0, 0.01, n, 100, rcols, (3, 3))
    assert len(log.renorm_times) == n // 100
    assert np.max(np.abs(Y - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_renormalization_keeps_the_given_column_order():
    # renorm_cols in column-major order: the QR and the history rewrite must
    # take the tangent entries in the same (given) order
    rhs, n = _tangent_rhs(0.5), 600
    y0 = np.concatenate([[-0.4, 0.05, 0.05], np.eye(3).reshape(-1)])
    rcols = np.array([3, 6, 9, 4, 7, 10, 5, 8, 11])
    _, Y, _ = caputo_abm(rhs, [0.9] * 12, y0, 0.01, n, renorm_every=100,
                         renorm_cols=rcols, renorm_shape=(3, 3))
    ref = direct_abm(rhs, [0.9] * 12, y0, 0.01, n, 100, rcols, (3, 3))
    assert np.max(np.abs(Y - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_divergence_step_matches_direct_sum():
    rhs, y0 = _jerk_rhs(0.0), (10.0, 10.0, 10.0)
    with pytest.raises(DivergenceError) as ref:
        direct_abm(rhs, (0.95,) * 3, y0, 0.01, 5000)
    with pytest.raises(DivergenceError) as exc:
        caputo_abm(rhs, (0.95,) * 3, y0, 0.01, 5000)
    assert ref.value.time > _BLOCK * 0.01  # the far field has run
    assert exc.value.time == ref.value.time


@pytest.mark.parametrize("orders, t_end", [(OrderSpec.commensurate(0.91), 30.0),
                                           (OrderSpec.incommensurate("1", "99/100", "1"), 20.0)])
def test_lanes_match_single_runs(orders, t_end):
    # the batched history sums add up in another order than a single lane's,
    # so lanes agree with their own runs to rounding, not bit for bit
    # (observed <= 1.3e-15 of max|state|). A chaotic lane then separates like
    # any rounding change: at orders 1,99/100,1 the two lanes at eps >= 6.98
    # reach 2e-14 at t=20 and 2e-12 at t=30.
    cfg = SolveConfig(h=0.01, t_end=t_end, initial_state=(0.1, 0.0, 0.0))
    lanes = [JerkParams(0.129, 7.0, eps) for eps in np.linspace(3.781, 7.78, 6)]
    for params, lane in zip(lanes, integrate(lanes, orders, cfg)):
        single = integrate(params, orders, cfg)
        assert lane.divergence_time is None
        assert np.array_equal(lane.t, single.t)
        assert np.max(np.abs(lane.states - single.states)) <= 1e-12 * np.max(np.abs(single.states))


def test_single_lane_block_is_bitwise_identical():
    params = JerkParams(0.129, 7.0, 7.78)
    cfg = SolveConfig(h=0.01, t_end=30.0, initial_state=(0.1, 0.0, 0.0))
    (lane,) = integrate([params], OrderSpec.commensurate(0.91), cfg)
    assert np.array_equal(lane.states, integrate(params, OrderSpec.commensurate(0.91), cfg).states)


def test_diverging_lane_keeps_its_own_time():
    # from x0 = (3, 0, 0) the three lowest epsilons diverge after the far
    # field has run and the others stay bounded; NaN must stay in its lane.
    # At orders 1,99/100,1 a dead lane's columns are scattered over both
    # order groups, and one lane-column mask zeroes them.
    cfg = SolveConfig(h=0.01, t_end=20.0, initial_state=(3.0, 0.0, 0.0))
    lanes = [JerkParams(0.129, 7.0, eps) for eps in np.linspace(0.5, 8.0, 8)]
    for orders in (OrderSpec.commensurate(0.91), OrderSpec.incommensurate("1", "99/100", "1")):
        diverged = 0
        for params, lane in zip(lanes, integrate(lanes, orders, cfg)):
            assert np.all(np.isfinite(lane.states))
            try:
                single = integrate(params, orders, cfg)
            except DivergenceError as err:
                diverged += 1
                assert lane.divergence_time == err.time > _BLOCK * cfg.h
                assert lane.t[-1] + cfg.h == pytest.approx(err.time)
                continue
            assert lane.divergence_time is None
            assert (np.max(np.abs(lane.states - single.states))
                    <= 1e-12 * np.max(np.abs(single.states)))
        assert diverged == 3


def test_lane_rows_are_nan_from_their_own_divergence_step():
    rhs = lambda t, u: u * u
    t, Y, _ = caputo_abm(rhs, [1.0], [[2.0], [3.0]], 0.05, 1000)
    assert Y.shape == (1001, 2, 1)
    first = [int(np.isnan(Y[:, lane, 0]).argmax()) for lane in range(2)]
    assert 0 < first[1] < first[0] < 1000
    assert np.all(np.isnan(Y[first[0]:]))
    with pytest.raises(DivergenceError) as exc:
        caputo_abm(rhs, [1.0], [2.0], 0.05, 1000)
    assert exc.value.time == t[first[0]]


def test_dead_lane_is_never_handed_to_the_rhs_again():
    # u' = u^2 blows up at t = 1/u0: lane 1 (u0 = 3) dies first, while
    # lane 0 runs on until it dies too. A dead lane goes on from 0 with its
    # history cleared, and u' = u^2 keeps it at 0.
    calls = []

    def rhs(t, u):
        calls.append((t, u.copy()))
        return u * u

    t, Y, _ = caputo_abm(rhs, [1.0], [[2.0], [3.0]], 0.05, 1000)
    death = t[int(np.isnan(Y[:, 1, 0]).argmax())]
    after = np.array([u for tk, u in calls if tk > death])
    assert len(after) > 2
    assert np.all(after[:, 1] == 0.0)


def test_finite_run_calls_the_rhs_twice_a_step():
    # one call for F_0, then one for the predicted and one for the corrected
    # state of each step: the per-lane rare path never runs on a finite step
    n = 3 * _BLOCK + 5
    calls = []

    def counted(rhs):
        def wrapped(t, s):
            calls.append(t)
            return rhs(t, s)
        return wrapped

    lanes = lane_field([JerkParams(0.129, 7.0, eps) for eps in (4.0, 5.0, 6.0)])
    tangent_y0 = np.concatenate([[-0.4, 0.05, 0.05], np.eye(3).reshape(-1)])
    runs = [
        (counted(_jerk_rhs(5.0)), [0.91] * 3, (-4.5, 0.1, 0.1), {}),
        (counted(lambda t, s: lanes(s)), [0.91] * 3,
         [(-4.5, 0.1, 0.1), (-3.0, 0.2, -0.1), (0.1, 0.0, 0.0)], {}),
        (counted(_tangent_rhs(0.5)), [0.91] * 12, tangent_y0,
         dict(renorm_every=100, renorm_cols=np.arange(3, 12), renorm_shape=(3, 3))),
    ]
    for rhs, alphas, y0, renorm in runs:
        calls.clear()
        _, Y, _ = caputo_abm(rhs, alphas, y0, 0.01, n, **renorm)
        assert np.all(np.isfinite(Y))
        assert len(calls) == 2 * n + 1


def test_lane_whose_predicted_state_overflows_first_keeps_to_itself():
    # from x0 = (3, 0, 0) at eps = 0.5 the field of a finite corrected state
    # overflows (x^2), so the next predicted state is the lane's first
    # non-finite state. The block's dense field product would spread it as
    # NaN (0 * inf) over every lane; the other lanes must not feel it.
    cfg = SolveConfig(h=0.01, t_end=20.0, initial_state=(3.0, 0.0, 0.0))
    orders = OrderSpec.commensurate(0.91)
    lanes = [JerkParams(0.129, 7.0, eps) for eps in (7.78, 0.5, 6.0)]
    states = []

    def rhs(t, s):
        states.append(s.copy())
        return vector_field(lanes[1], s)

    with pytest.raises(DivergenceError) as direct:
        caputo_abm(rhs, orders.alphas, cfg.initial_state, cfg.h, cfg.n_steps)
    assert not np.all(np.isfinite(states[-1]))  # the predicted state of the last step
    assert np.all(np.isfinite(states[:-1]))
    with pytest.raises(DivergenceError) as single:
        integrate(lanes[1], orders, cfg)
    assert single.value.time == direct.value.time
    block = integrate(lanes, orders, cfg)
    assert block[1].divergence_time == single.value.time
    for k in (0, 2):
        ref = integrate(lanes[k], orders, cfg)
        assert block[k].divergence_time is None
        assert np.max(np.abs(block[k].states - ref.states)) <= 1e-12 * np.max(np.abs(ref.states))


def test_finite_states_whose_sum_overflows_do_not_diverge():
    # each entry stays at 1e308, but a sum of them, or of their squares,
    # overflows
    rhs = lambda t, u: 0 * u
    _, Y, _ = caputo_abm(rhs, [0.9], [[1e308], [1e308]], 0.01, 200)
    assert np.all(Y == 1e308)
    _, Y, _ = caputo_abm(rhs, [0.9, 0.9], [1e308, 1e308], 0.01, 200)
    assert np.all(Y == 1e308)


def test_caputo_abm_rejects_bad_memory_and_renorm_arguments():
    rhs = lambda t, u: -u
    with pytest.raises(ValueError, match="renorm_every"):
        caputo_abm(rhs, [1.0], [1.0], 0.01, 10, renorm_every=0,
                   renorm_cols=np.array([0]), renorm_shape=(1, 1))
    with pytest.raises(ValueError, match="renorm_cols"):
        caputo_abm(rhs, [1.0], [1.0], 0.01, 10, renorm_every=5)
    with pytest.raises(ValueError, match="memory_steps"):
        caputo_abm(rhs, [1.0], [1.0], 0.01, 10, memory_steps=0)


def test_zero_tangent_column_raises_tangent_collapse():
    # the tangent column starts at zero, so its first stretch factor is 0
    with pytest.raises(TangentCollapse, match="t = 0.1"):
        caputo_abm(lambda t, s: -s, [1.0, 1.0], [1.0, 0.0], 0.01, 100, None,
                   renorm_every=10, renorm_cols=np.array([1]), renorm_shape=(1, 1))


# ---------------------------------------------------------------- jerk trajectories


def test_equilibrium_initial_condition_stays_put():
    params = JerkParams(0.129, 7.0, 4.0)
    eq = equilibria(params)[1]  # (-eps, 0, 0)
    cfg = SolveConfig(h=0.01, t_end=100.0, initial_state=eq.point)
    traj = integrate(params, OrderSpec.commensurate(0.91), cfg)
    dev = np.max(np.abs(traj.states - np.asarray(eq.point)))
    assert dev < 1e-9


def test_integer_order_matches_rk_oracle():
    params = JerkParams(0.129, 7.0, 1.0)
    cfg = SolveConfig(h=1e-3, t_end=10.0, initial_state=(0.1, 0.0, 0.0))
    traj = integrate(params, OrderSpec.commensurate(1.0), cfg)
    sol = solve_ivp(
        lambda t, s: vector_field(params, s),
        (0.0, cfg.t_end),
        cfg.initial_state,
        rtol=1e-10,
        atol=1e-12,
        dense_output=True,
    )
    ref = sol.sol(traj.t).T
    assert np.max(np.abs(traj.states - ref)) < 1e-4


def test_integration_is_deterministic():
    params = JerkParams(0.129, 7.0, 7.9)
    orders = OrderSpec.commensurate(0.91)
    cfg = SolveConfig(h=0.01, t_end=30.0, initial_state=(0.1, 0.0, 0.0))
    t1 = integrate(params, orders, cfg)
    t2 = integrate(params, orders, cfg)
    assert np.array_equal(t1.states, t2.states)


def test_divergence_reports_time():
    params = JerkParams(0.129, 7.0, 0.0)
    cfg = SolveConfig(h=0.01, t_end=50.0, initial_state=(10.0, 10.0, 10.0))
    with pytest.raises(DivergenceError) as exc:
        integrate(params, OrderSpec.commensurate(0.95), cfg)
    assert 0.0 < exc.value.time <= 50.0


def test_config_validation():
    with pytest.raises(InvalidConfig):
        SolveConfig(h=0.0)
    with pytest.raises(InvalidConfig):
        SolveConfig(h=0.1, t_end=0.05)


# ---------------------------------------------------------------- tangent propagation


def test_tangent_scalar_exponent_minus_one():
    # du/dt = -u with its own tangent: the single exponent is exactly -1.
    # Horizon kept inside the well-conditioned window: rescaling the tangent
    # history at each renormalization grows the effective initial data like
    # the inverse contraction, so exp(t_end) must stay well below 1/eps.
    def rhs(t, s):
        return np.array([-s[0], -s[1]])

    h = 0.005
    n = 4000
    t, Y, log = caputo_abm(
        rhs,
        [1.0, 1.0],
        [1.0, 1.0],
        h,
        n,
        renorm_every=100,
        renorm_cols=np.array([1]),
        renorm_shape=(1, 1),
    )
    span = log.renorm_times[-1] - log.renorm_times[0]
    lam = log.log_norms[1:, 0].sum() / span
    assert lam == pytest.approx(-1.0, abs=0.05)


def test_tangent_frame_stays_orthonormal():
    params = JerkParams(0.129, 7.0, 7.9)
    orders = OrderSpec.commensurate(0.91)
    cfg = SolveConfig(h=0.01, t_end=20.0, initial_state=(0.1, 0.0, 0.0))
    traj, log = integrate_with_tangent(params, orders, cfg, renorm_every=100)
    assert log.log_norms.shape == (len(log.renorm_times), 3)
    assert np.all(np.isfinite(log.log_norms))
    # renormalization times are the expected multiples of renorm_every * h
    expected = cfg.h * 100 * np.arange(1, len(log.renorm_times) + 1)
    assert np.allclose(log.renorm_times, expected)


def test_tangent_contracts_near_stable_equilibrium():
    params = JerkParams(0.129, 7.0, 5.0)  # below the minus-branch critical value
    orders = OrderSpec.commensurate(0.91)
    cfg = SolveConfig(h=0.01, t_end=100.0, initial_state=(-4.9, 0.05, 0.05))
    _, log = integrate_with_tangent(params, orders, cfg, renorm_every=100)
    span = log.renorm_times[-1] - log.renorm_times[0]
    exps = log.log_norms[1:].sum(axis=0) / span
    assert np.all(exps < 0.0)
