import numpy as np
import pytest

from fjerk import chaos
from fjerk.chaos import (
    CHAOTIC,
    DIVERGENT,
    FIXED_POINT,
    LANE_BLOCK,
    PERIODIC,
    AttractorClass,
    LyapunovSpectrum,
    classify_attractor,
    cluster_values,
    extract_extrema,
    lyapunov_spectrum,
    sweep_bifurcation,
    worker_count,
)
from fjerk.exceptions import DivergenceError, EmptyAfterTransient, InvalidConfig
from fjerk.model import JerkParams, OrderSpec
from fjerk.solver import SolveConfig, Trajectory, integrate

A, B = 0.129, 7.0


def make_traj(x, h=0.01):
    t = h * np.arange(len(x))
    states = np.zeros((len(x), 3))
    states[:, 0] = x
    cfg = SolveConfig(h=h, t_end=max(h, t[-1]) if len(t) else h)
    return Trajectory(t, states, cfg, OrderSpec.commensurate(1.0))


# ---------------------------------------------------------------- extrema


def test_extrema_of_sine():
    h = 0.01
    t = np.arange(0.0, 40.0, h)
    traj = make_traj(np.sin(t), h)
    maxima, minima = extract_extrema(traj, transient_fraction=0.1)
    assert len(maxima) >= 4 and len(minima) >= 4
    assert np.max(np.abs(maxima - 1.0)) < 1e-4
    assert np.max(np.abs(minima + 1.0)) < 1e-4


def test_extrema_of_constant_signal():
    traj = make_traj(np.full(500, 2.5))
    maxima, minima = extract_extrema(traj)
    assert maxima.size == 0 and minima.size == 0


def test_extrema_too_short_after_transient():
    traj = make_traj(np.sin(np.linspace(0, 1, 4)))
    with pytest.raises(EmptyAfterTransient):
        extract_extrema(traj, transient_fraction=0.9)


def test_extrema_refinement_beats_grid_values():
    # a coarse grid undershoots the true peak; parabolic refinement recovers it
    h = 0.05
    t = np.arange(0.0, 30.0, h)
    traj = make_traj(np.sin(t), h)
    maxima, _ = extract_extrema(traj, transient_fraction=0.0)
    grid_peaks = []
    x = traj.x
    for i in range(1, len(x) - 1):
        if x[i] > x[i - 1] and x[i] > x[i + 1]:
            grid_peaks.append(x[i])
    assert np.max(np.abs(maxima - 1.0)) < np.max(np.abs(np.array(grid_peaks) - 1.0))
    assert np.max(np.abs(maxima - 1.0)) < 5e-4


def test_extrema_rejects_bad_transient():
    traj = make_traj(np.sin(np.linspace(0, 10, 100)))
    with pytest.raises(ValueError):
        extract_extrema(traj, transient_fraction=1.0)


# ---------------------------------------------------------------- clustering


def test_cluster_values_basic():
    vals = np.array([1.0, 1.001, 1.002, 5.0, 5.0005, 9.0])
    assert cluster_values(vals, tol=0.01) == pytest.approx([1.001, 5.00025, 9.0])


def test_cluster_values_empty():
    assert cluster_values(np.empty(0), tol=0.1) == []


def test_cluster_values_single_cluster():
    vals = np.linspace(0.0, 0.09, 10)
    assert len(cluster_values(vals, tol=0.011)) == 1


# ---------------------------------------------------------------- classification


def spectrum_with_lambda1(l1):
    return LyapunovSpectrum((l1, -0.1, -1.0), 100.0, 50, True)


def test_classify_divergent():
    assert classify_attractor(None).kind == DIVERGENT


def test_classify_fixed_point():
    c = classify_attractor((np.empty(0), np.empty(0)))
    assert c.kind == FIXED_POINT
    c = classify_attractor((np.full(5, 1.0), np.full(5, 1.0 - 1e-8)))
    assert c.kind == FIXED_POINT


def test_classify_periodic_counts_clusters():
    maxima = np.array([1.0, 1.0, 2.0, 2.0, 1.0])
    minima = np.array([-1.0, -1.0, -1.0])
    c = classify_attractor((maxima, minima))
    assert c == AttractorClass(PERIODIC, 2)


def test_classify_chaotic_by_exponent():
    maxima = np.array([1.0, 1.0, 2.0])
    minima = np.array([-1.0])
    c = classify_attractor((maxima, minima), spectrum_with_lambda1(0.2))
    assert c.kind == CHAOTIC


def test_classify_chaotic_by_cluster_count():
    rng = np.random.default_rng(7)
    maxima = rng.uniform(0.0, 10.0, size=400)
    minima = rng.uniform(-10.0, 0.0, size=400)
    c = classify_attractor((maxima, minima))
    assert c.kind == CHAOTIC


def test_classify_periodic_with_small_exponent():
    maxima = np.array([1.0, 1.0])
    minima = np.array([-1.0])
    c = classify_attractor((maxima, minima), spectrum_with_lambda1(-0.01))
    assert c == AttractorClass(PERIODIC, 1)


# ---------------------------------------------------------------- spectra


def test_lyapunov_rejects_short_horizon():
    with pytest.raises(InvalidConfig):
        lyapunov_spectrum(
            JerkParams(A, B, 5.0),
            OrderSpec.commensurate(0.91),
            SolveConfig(h=0.01, t_end=0.5),
        )


def test_lyapunov_negative_at_stable_equilibrium():
    spec = lyapunov_spectrum(
        JerkParams(A, B, 5.0),
        OrderSpec.commensurate(0.91),
        SolveConfig(h=0.01, t_end=80.0, initial_state=(-4.9, 0.05, 0.05)),
        renorm_every=100,
    )
    assert spec.exponents[0] < 0.0
    assert spec.exponents == tuple(sorted(spec.exponents, reverse=True))
    assert spec.lambda1 == spec.exponents[0]
    assert spec.renorm_count > 0


@pytest.mark.xfail(strict=True, reason="history-rescaled QR saturates lambda2 and lambda3: "
                   "the sum is +0.079 against the trace -a*eps = -1.0036")
@pytest.mark.parametrize("orders", [OrderSpec.commensurate(1.0),
                                    OrderSpec.incommensurate("1", "1", "1")])
def test_integer_order_spectrum_sums_to_trace(orders):
    # at integer order the exponents of a flow sum to the mean trace of its
    # Jacobian, which is the constant -a*eps for this system
    eps = 7.78
    spec = lyapunov_spectrum(JerkParams(A, B, eps), orders, SolveConfig(h=0.005, t_end=30.0))
    assert sum(spec.exponents) == pytest.approx(-A * eps, abs=1e-3)


@pytest.mark.slow
def test_verdicts_hold_at_half_the_step():
    # criteria 7 and 8 decide at h = 0.005; each verdict must stand at h/2.
    # The tangent is renormalised every 400 steps, the same time interval
    # as the criteria's 200 steps at h.
    cfg = SolveConfig(h=0.0025, t_end=300.0, initial_state=(0.0, 0.0, 0.0))
    traj = integrate(JerkParams(A, B, 3.783), OrderSpec.commensurate(0.99), cfg)
    cls = classify_attractor(extract_extrema(traj, 0.3))
    assert cls.kind == PERIODIC and cls.n_clusters == 1

    traj = integrate(JerkParams(A, B, 7.78), OrderSpec.commensurate(0.91), cfg)
    union = np.concatenate(extract_extrema(traj, 0.3))
    assert len(cluster_values(union, 1e-2 * (union.max() - union.min()))) == 2

    spec = lyapunov_spectrum(JerkParams(A, B, 7.78), OrderSpec.commensurate(0.99), cfg, 400)
    assert spec.lambda1 > 0.0


# ---------------------------------------------------------------- sweeps


def sweep_args():
    return dict(
        params_base=JerkParams(A, B, 0.0),
        orders=OrderSpec.commensurate(0.91),
        eps_range=(4.0, 6.0),
        n_points=5,
        cfg=SolveConfig(h=0.01, t_end=20.0, initial_state=(0.1, 0.0, 0.0)),
        transient_fraction=0.3,
    )


def test_sweep_grid_and_ordering():
    res = sweep_bifurcation(workers=1, **sweep_args())
    assert np.allclose(res.epsilon_grid, np.linspace(4.0, 6.0, 5))
    assert [pt.epsilon for pt in res.points] == pytest.approx(res.epsilon_grid.tolist())


def test_sweep_independent_of_worker_count():
    # LANE_BLOCK + 2 points make two lane blocks, so the pool runs
    for n_points in (5, LANE_BLOCK + 2):
        args = dict(sweep_args(), n_points=n_points)
        res1 = sweep_bifurcation(workers=1, **args)
        res3 = sweep_bifurcation(workers=3, **args)
        assert len(res1.points) == len(res3.points) == n_points
        for p1, p3 in zip(res1.points, res3.points):
            assert p1.epsilon == p3.epsilon
            assert np.array_equal(p1.maxima, p3.maxima)
            assert np.array_equal(p1.minima, p3.minima)
            assert p1.diverged == p3.diverged


def test_sweep_block_mixing_diverged_and_finite_lanes():
    # from x0 = (3, 0, 0) the two lowest of these four epsilons (one block)
    # diverge; each lane must still agree with its own single-lane run
    orders = OrderSpec.commensurate(0.91)
    cfg = SolveConfig(h=0.01, t_end=20.0, initial_state=(3.0, 0.0, 0.0))
    assert LANE_BLOCK >= 4
    res = sweep_bifurcation(JerkParams(A, B, 0.0), orders, (0.5, 5.0), 4, cfg,
                            transient_fraction=0.3, workers=1)
    assert sum(pt.diverged for pt in res.points) == 2
    for pt in res.points:
        try:
            single = integrate(JerkParams(A, B, pt.epsilon), orders, cfg)
        except DivergenceError as err:
            assert pt.diverged and pt.divergence_time == err.time
            continue
        assert not pt.diverged
        maxima, minima = extract_extrema(single, 0.3)
        tol = 1e-12 * np.max(np.abs(single.states))
        assert len(pt.maxima) == len(maxima) and len(pt.minima) == len(minima)
        assert np.allclose(pt.maxima, maxima, rtol=0.0, atol=tol)
        assert np.allclose(pt.minima, minima, rtol=0.0, atol=tol)


def test_sweep_pool_capped_at_block_count(monkeypatch):
    # the pool forks all its workers at the first submit, so it must not be
    # larger than the number of blocks; the recording executor starts none
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(chaos, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setenv("FJERK_THREADS", "64")
    args = dict(sweep_args(), cfg=SolveConfig(h=0.01, t_end=2.0, initial_state=(0.1, 0.0, 0.0)))
    sweep_bifurcation(**dict(args, n_points=2))
    assert sizes == []  # one block runs in this process
    res = sweep_bifurcation(**dict(args, n_points=2 * LANE_BLOCK + 1))
    assert sizes == [3] and len(res.points) == 2 * LANE_BLOCK + 1


def test_sweep_records_divergence_inline():
    res = sweep_bifurcation(
        JerkParams(A, B, 0.0),
        OrderSpec.commensurate(0.95),
        (1.0, 1.0),
        1,
        SolveConfig(h=0.01, t_end=50.0, initial_state=(50.0, 0.0, 0.0)),
        workers=1,
    )
    pt = res.points[0]
    assert pt.diverged
    assert pt.divergence_time is not None and 0.0 < pt.divergence_time <= 50.0
    assert pt.maxima.size == 0
    assert classify_attractor(None).kind == DIVERGENT


def test_sweep_rejects_bad_grid():
    with pytest.raises(InvalidConfig):
        sweep_bifurcation(
            JerkParams(A, B, 0.0),
            OrderSpec.commensurate(0.91),
            (2.0, 1.0),
            3,
            SolveConfig(h=0.01, t_end=5.0),
        )
    with pytest.raises(InvalidConfig):
        sweep_bifurcation(
            JerkParams(A, B, 0.0),
            OrderSpec.commensurate(0.91),
            (1.0, 2.0),
            0,
            SolveConfig(h=0.01, t_end=5.0),
        )


def test_worker_count_env_override(monkeypatch):
    monkeypatch.setenv("FJERK_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("FJERK_THREADS", "0")
    assert worker_count() == 1
    monkeypatch.delenv("FJERK_THREADS")
    assert worker_count() >= 1
    monkeypatch.setenv("FJERK_THREADS", "x")
    with pytest.raises(ValueError, match="FJERK_THREADS"):
        worker_count()


def test_lambda1_sign_agrees_with_classification():
    # trimmed version of the full-sweep consistency check: a handful of grid
    # points across the window where the largest exponent and the cluster
    # count should tell the same story
    orders = OrderSpec.commensurate(0.99)
    cfg = SolveConfig(h=0.01, t_end=120.0, initial_state=(0.1, 0.0, 0.0))
    res = sweep_bifurcation(
        JerkParams(A, B, 0.0),
        orders,
        (4.0, 7.5),
        8,
        cfg,
        with_lyapunov=True,
        transient_fraction=0.3,
        workers=1,
    )
    agree = 0
    total = 0
    for pt in res.points:
        if pt.diverged:
            continue
        total += 1
        cls = classify_attractor((pt.maxima, pt.minima))
        by_lambda = pt.spectrum.lambda1 > 0.005
        if by_lambda == (cls.kind == CHAOTIC):
            agree += 1
    assert total >= 6
    assert agree / total >= 0.75
