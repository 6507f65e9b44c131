import re

import numpy as np
import pytest

from fjerk import cli, output
from fjerk.chaos import LyapunovSpectrum, SweepPoint, SweepResult
from fjerk.model import OrderSpec
from fjerk.solver import Trajectory
from test_hopf_incommensurate import relative_residual


def run_cli(argv):
    return cli.main(argv)


def read(path):
    with open(path) as fh:
        return fh.read()


# ---------------------------------------------------------------- formatting


def test_fmt_round_trips_doubles():
    rng = np.random.default_rng(12)
    for v in rng.uniform(-1e6, 1e6, size=200):
        assert float(output.fmt(v)) == v
    for v in (0.1, 1.0 / 3.0, np.pi, 1e-300, -2.5e17):
        assert float(output.fmt(v)) == v


# ---------------------------------------------------------------- CSV writers


def make_traj(n=5):
    t = 0.01 * np.arange(n)
    states = np.arange(3 * n, dtype=float).reshape(n, 3) / 7.0
    return Trajectory(t, states)


def test_trajectory_csv_round_trip(tmp_path):
    traj = make_traj(9)
    path = tmp_path / "traj.csv"
    output.write_trajectory_csv(traj, path)
    text = read(path)
    assert text.splitlines()[0] == "t,x,y,z"
    assert len(text.splitlines()) == 10
    assert "\r" not in text
    data = output.read_trajectory_csv(path)
    assert np.array_equal(data[:, 0], traj.t)
    assert np.array_equal(data[:, 1:], traj.states)


def test_sweep_csv_divergent_rows(tmp_path):
    points = [
        SweepPoint(1.0, np.array([2.0, 3.0]), np.array([-1.0]), None),
        SweepPoint(2.0, np.empty(0), np.empty(0), None, 0.5),
    ]
    res = SweepResult(points)
    path = tmp_path / "sweep.csv"
    output.write_sweep_csv(res, path)
    lines = read(path).splitlines()
    assert lines[0] == "epsilon,kind,x_value"
    assert len(lines) == 5
    assert lines[1].startswith("1,max,")
    assert lines[4] == "2,divergent,"


def test_lyapunov_csv(tmp_path):
    spec = LyapunovSpectrum((0.19, -0.002, -1.1), 150, True)
    path = tmp_path / "ly.csv"
    output.write_lyapunov_csv([(7.9, spec), (8.0, None)], path)
    lines = read(path).splitlines()
    assert lines[0] == "epsilon,lambda1,lambda2,lambda3,converged"
    assert lines[1].endswith(",true")
    assert lines[2] == "8,,,,"


# ---------------------------------------------------------------- SVG rendering


def test_bifurcation_svg_one_marker(tmp_path):
    path = tmp_path / "one.svg"
    output.render_svg([(1.0, 2.0)], "bifurcation", path)
    text = read(path)
    assert text.startswith("<svg")
    assert text.count("<circle") == 1


def test_lyapunov_svg_zero_line(tmp_path):
    path = tmp_path / "ly.svg"
    data = [(1.0, (0.1, 0.0, -0.5)), (2.0, (0.2, -0.01, -0.6))]
    output.render_svg(data, "lyapunov", path)
    text = read(path)
    assert 'class="zero-line"' in text
    assert text.count("<polyline") == 3


def test_portrait_svg_monotone_mapping(tmp_path):
    traj = make_traj(50)
    path = tmp_path / "p.svg"
    output.render_svg(traj, "portrait", path, plane="xz")
    text = read(path)
    pts = re.search(r'<polyline points="([^"]+)"', text).group(1).split()
    assert len(pts) == 50
    xs = [float(p.split(",")[0]) for p in pts]
    # data x is increasing, so pixel x must be strictly increasing too
    assert all(u < v for u, v in zip(xs, xs[1:]))


def test_render_svg_rejects_unknown_kind(tmp_path):
    with pytest.raises(ValueError):
        output.render_svg([(1.0, 2.0)], "pie-chart", tmp_path / "x.svg")
    with pytest.raises(ValueError):
        output.render_svg(make_traj(), "portrait", tmp_path / "x.svg", plane="qq")


# ---------------------------------------------------------------- CLI exit codes


def test_cli_hopf_success(capsys):
    rc = run_cli(["hopf", "--a", "0.129", "--b", "7", "--alpha", "0.99",
                  "--branch", "minus"])
    assert rc == 0
    out = capsys.readouterr().out
    block = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert block["branch"] == "minus"
    assert float(block["gamma_H"]) == pytest.approx(2.6481382407921696, rel=1e-9)
    assert float(block["epsilon_H"]) == pytest.approx(0.5325901791158744, rel=1e-9)
    assert abs(float(block["residual_re"])) < 1e-8


def test_cli_hopf_incommensurate(capsys):
    rc = run_cli(["hopf", "--a", "0.129", "--b", "7", "--alphas", "1,99/100,1"])
    assert rc == 0
    out = capsys.readouterr().out
    block = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert float(block["gamma_H"]) == pytest.approx(1.009826644716634, rel=1e-9)
    assert block["reduction"] == "M:100,p:100,q:99,m:100"


def test_cli_hopf_domain_error_exit_1(capsys):
    for orders, error in ((["--alpha", "0.6667"], "SingularAngle"),
                          (["--alphas", "1/1000000,1,1/999999"], "NoPositiveRoot")):
        rc = run_cli(["hopf", "--a", "0.129", "--b", "7", *orders])
        assert rc == 1
        err = capsys.readouterr().err
        assert error in err and len(err.strip().splitlines()) == 1


def test_cli_hopf_huge_b_exit_0(capsys):
    rc = run_cli(["hopf", "--a", "0.129", "--b", "1e30", "--alphas", "3/5,3/5,2/3"])
    assert rc == 0
    block = dict(line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines())
    gamma, eps = float(block["gamma_H"]), float(block["epsilon_H"])
    orders = OrderSpec.incommensurate("3/5", "3/5", "2/3")
    assert relative_residual(0.129, 1e30, orders, gamma, eps) <= 1e-12


def test_cli_usage_error_exit_2(capsys):
    # missing required --alpha/--alphas
    rc = run_cli(["hopf", "--a", "0.129", "--b", "7"])
    assert rc == 2
    # both given at once
    rc = run_cli(["hopf", "--a", "0.1", "--b", "7", "--alpha", "0.9",
                  "--alphas", "1,1,1"])
    assert rc == 2
    # unknown subcommand (argparse exits with 2)
    rc = run_cli(["frobnicate"])
    assert rc == 2


def test_cli_simulate_writes_csv(tmp_path, capsys):
    out_dir = tmp_path / "run"
    rc = run_cli([
        "simulate", "--a", "0.129", "--b", "7", "--alpha", "0.95",
        "--eps", "5", "--h", "0.01", "--t-end", "5",
        "--x0=-4.9,0.05,0.05", "--out", str(out_dir),
    ])
    assert rc == 0
    data = output.read_trajectory_csv(out_dir / "trajectory.csv")
    assert data.shape == (501, 4)
    assert data[0, 1] == -4.9


def test_cli_sweep_with_svg_and_lyapunov(tmp_path):
    out_dir = tmp_path / "sweep"
    rc = run_cli([
        "sweep", "--a", "0.129", "--b", "7", "--alpha", "0.91",
        "--eps-min", "4.5", "--eps-max", "5.5", "--n", "3",
        "--h", "0.02", "--t-end", "20", "--x0", "0.1,0,0",
        "--lyapunov", "--svg", "--out", str(out_dir),
    ])
    assert rc == 0
    sweep = read(out_dir / "sweep.csv")
    assert sweep.splitlines()[0] == "epsilon,kind,x_value"
    ly = read(out_dir / "lyapunov.csv").splitlines()
    assert len(ly) == 4
    assert (out_dir / "bifurcation.svg").exists()
    assert 'class="zero-line"' in read(out_dir / "lyapunov.svg")


def test_cli_portrait(tmp_path):
    out_dir = tmp_path / "pp"
    rc = run_cli([
        "portrait", "--a", "0.129", "--b", "7", "--alpha", "0.95",
        "--eps", "5", "--h", "0.01", "--t-end", "5",
        "--x0=-4.9,0.05,0.05", "--plane", "xz", "--out", str(out_dir),
    ])
    assert rc == 0
    assert (out_dir / "portrait_xz.svg").exists()


def test_cli_lyapunov_command(capsys):
    rc = run_cli([
        "lyapunov", "--a", "0.129", "--b", "7", "--alpha", "0.91",
        "--eps", "5", "--h", "0.01", "--t-end", "40",
        "--x0=-4.9,0.05,0.05",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("lyapunov:")
    assert "lambda=(" in out


# ---------------------------------------------------------------- config files


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# hopf settings\n"
        "a = 0.129\n"
        "b = 7\n"
        "alpha = 0.99\n"
        "branch-unused = x\n"
    )
    rc = run_cli(["hopf", "--config", str(cfg)])
    assert rc == 0
    block = dict(
        line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines()
    )
    assert float(block["gamma_H"]) == pytest.approx(2.6466510066902766, rel=1e-9)


def test_cli_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a = 0.129\nb = 7\nalpha = 0.98\n")
    rc = run_cli(["hopf", "--config", str(cfg), "--alpha", "0.99"])
    assert rc == 0
    block = dict(
        line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines()
    )
    assert float(block["gamma_H"]) == pytest.approx(2.6466510066902766, rel=1e-9)


def test_config_file_bad_line_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a 0.129\n")
    rc = run_cli(["hopf", "--config", str(cfg)])
    assert rc == 2


def test_config_missing_file_exit_2(tmp_path):
    rc = run_cli(["hopf", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 2


def test_config_file_not_utf8_exit_2_one_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"a = 0.129\n\xff\n")
    rc = run_cli(["hopf", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and "not UTF-8" in err


def test_cli_sweep_reads_grid_from_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "a = 0.129\nb = 7\nalpha = 0.91\n"
        "eps-min = 4.5\neps-max = 5.5\nn = 2\n"
        "h = 0.02\nt-end = 10\nx0 = 0.1,0,0\n"
        "memory = 20\n"  # not an option (full memory only): ignored
    )
    out_dir = tmp_path / "out"
    rc = run_cli(["sweep", "--config", str(cfg), "--out", str(out_dir)])
    assert rc == 0
    eps = {line.split(",")[0] for line in read(out_dir / "sweep.csv").splitlines()[1:]}
    assert eps == {"4.5", "5.5"}


def test_hopf_ignores_solver_keys_in_config(tmp_path, capsys):
    # hopf integrates nothing, so step settings in a shared config do not reach it
    plain = tmp_path / "plain.cfg"
    plain.write_text("a = 0.129\nb = 7\nalpha = 0.91\n")
    assert run_cli(["hopf", "--config", str(plain)]) == 0
    expected = capsys.readouterr().out
    solver_keys = tmp_path / "solver.cfg"
    solver_keys.write_text("a = 0.129\nb = 7\nalpha = 0.91\nh = 0\nt-end = 0.001\n")
    assert run_cli(["hopf", "--config", str(solver_keys)]) == 0
    assert capsys.readouterr().out == expected


def test_config_supplies_out_and_branch(tmp_path, capsys):
    out_dir = tmp_path / "hopf"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"a = 0.129\nb = 7\nalpha = 0.99\nbranch = minus\nout = {out_dir}\n")
    rc = run_cli(["hopf", "--config", str(cfg)])
    assert rc == 0
    assert read(out_dir / "hopf.csv").splitlines()[1].startswith("minus,0.99,")


# ---------------------------------------------------------------- bad input


COMMON = ["--a", "0.129", "--b", "7", "--alpha", "0.9"]
SWEEP = ["sweep", *COMMON, "--eps-max", "5", "--out", "{out}"]
SIMULATE = ["simulate", *COMMON, "--eps", "5"]


@pytest.mark.parametrize("argv, named", [
    ([*SWEEP, "--eps-min", "4", "--n", "x"], "--n"),
    ([*SWEEP, "--eps-min", "x", "--n", "2"], "--eps-min"),
    ([*SWEEP, "--eps-min", "4", "--n", "1", "--t-end", "1", "--transient", "1.5"],
     "--transient"),
    (["lyapunov", *COMMON, "--eps", "5", "--renorm-every", "x"], "--renorm-every"),
    (["hopf", "--a", "-1", "--b", "7", "--alpha", "0.9"], "a must be positive"),
    (["hopf", "--a", "0.129", "--b", "-7", "--alphas", "1,99/100,1"], "b > 0"),
    ([*SIMULATE, "--t-end", "inf", "--out", "{out}"], "--t-end"),
    ([*SIMULATE, "--h", "nan", "--out", "{out}"], "--h"),
    ([*SIMULATE, "--t-end", "1", "--out", "{file}"], "--out"),
    (["portrait", "--config", "{plane_qq}", *COMMON, "--eps", "5", "--t-end", "1",
      "--out", "{out}"], "qq"),
    (["hopf", "--a", "0.129", "--b", "7", "--alphas", "1,1e-400,1"], "underflows"),
    (["simulate", "--a", "0.129", "--b", "7", "--alphas", "1,1e-400,1", "--eps", "5",
      "--t-end", "1", "--out", "{out}"], "underflows"),
    (["hopf", "--a", "0.129", "--b", "7", "--alphas", f"1,{10**310 - 1}/{10**310},1"],
     "pi/(2M)"),
    ([*SIMULATE, "--t-end", "1", "--out", "{taken}"], "trajectory.csv"),
    (["hopf", "--a", "0.129", "--b", "1e300", "--alpha", "0.9"], "overflowed"),
    (["FJERK_THREADS=x", *SWEEP, "--eps-min", "4", "--n", "2", "--t-end", "1"], "FJERK_THREADS"),
    ([*SIMULATE, "--t-end", "1", "--memory", "full", "--out", "{out}"], "--memory"),
    ([*SWEEP, "--eps-min", "4", "--n", "0"], "--n"),
    ([*SWEEP, "--eps-min", "4", "--n", "-3"], "--n"),
    (["lyapunov", *COMMON, "--eps", "5", "--renorm-every", "0"], "--renorm-every"),
    (["hopf", "--a", "0.129", "--b", "7", "--alphas", "1/0,1,1"], "'1/0' has a zero denominator"),
    ([*SIMULATE, "--t-end", "1e9", "--h", "1e-300", "--out", "{out}"], "finite step count"),
    ([*SIMULATE, "--t-end", "1e-200", "--h", "1e-300", "--out", "{out}"], "below 2**53"),
    # 1e15 steps need petabytes, more than the address space: nothing is allocated
    ([*SIMULATE, "--t-end", "1e12", "--h", "1e-3", "--out", "{out}"], "out of memory"),
    (["sweep", *COMMON, "--eps-min", "8", "--eps-max", "7", "--n", "2", "--out", "{out}"],
     "eps range must be ascending"),
    (["lyapunov", *COMMON, "--eps", "5", "--t-end", "0.2"], "horizon too short"),
    (["lyapunov", *COMMON, "--eps", "5", "--t-end", "1", "--renorm-every", "500"],
     "no renormalizations after the transient"),
    # each command takes only the options it reads
    (["hopf", *COMMON, "--h", "0.01"], "--h"),
    ([*SIMULATE, "--t-end", "1", "--transient", "0.5", "--out", "{out}"], "--transient"),
    (["portrait", *COMMON, "--eps", "5", "--t-end", "1", "--renorm-every", "10",
      "--out", "{out}"], "--renorm-every"),
    (["hopf", "--a", "0.129", "--b", "1e156", "--alphas", "1,299/300,1"], "overflowed"),
    (["hopf", "--a", "0.129", "--b", "1.7e308", "--alphas", "3/5,3/5,2/3"], "overflowed"),
])
def test_cli_bad_input_exit_2_without_traceback(tmp_path, capsys, monkeypatch, argv, named):
    # leading NAME=value tokens set the environment, as in a shell command line
    while "=" in argv[0] and argv[0].split("=")[0].isupper():
        monkeypatch.setenv(*argv[0].split("=", 1))
        argv = argv[1:]
    regular = tmp_path / "file.txt"
    regular.write_text("not a directory\n")
    plane_qq = tmp_path / "qq.cfg"
    plane_qq.write_text("plane = qq\n")
    taken = tmp_path / "taken"
    (taken / "trajectory.csv").mkdir(parents=True)
    rc = run_cli([v.format(out=tmp_path / "out", file=regular, plane_qq=plane_qq, taken=taken)
                  for v in argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert named in err
