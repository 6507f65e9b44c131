"""fjerk runs on numpy alone: SciPy is a test-only oracle.

Each check runs a fresh interpreter, so modules that the test session has
already imported cannot hide an import of SciPy.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import fjerk
from fjerk.chaos import lyapunov_spectrum
from fjerk.hopf import hopf_incommensurate
from fjerk.model import JerkParams, OrderSpec
from fjerk.output import read_trajectory_csv
from fjerk.solver import SolveConfig, integrate

SRC = str(Path(fjerk.__file__).resolve().parents[1])
# A None entry in sys.modules makes every import of scipy raise ImportError.
RUN_CLI = ('import sys; sys.modules["scipy"] = None; '
           'from fjerk import cli; sys.exit(cli.main(sys.argv[1:]))')


def fresh_python(*args):
    path = [SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def cli_without_scipy(*argv):
    proc = fresh_python("-c", RUN_CLI, *argv)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_fjerk_loads_no_scipy_module():
    proc = fresh_python("-c", "import sys, fjerk, fjerk.cli; "
                        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_hopf_non_quadratic_path_runs_without_scipy():
    out = cli_without_scipy("hopf", "--a", "0.129", "--b", "7", "--alphas", "3/5,3/5,2/3")
    block = dict(line.split("=", 1) for line in out.strip().splitlines())
    sol = hopf_incommensurate(0.129, 7.0, OrderSpec.incommensurate("3/5", "3/5", "2/3"))
    assert float(block["gamma_H"]) == sol.gamma_H
    assert float(block["epsilon_H"]) == sol.epsilon_H


def test_simulate_runs_without_scipy(tmp_path):
    cli_without_scipy("simulate", "--a", "0.129", "--b", "7", "--alpha", "0.91", "--eps", "5",
                      "--h", "0.01", "--t-end", "2", "--x0", "0.1,0,0", "--out", str(tmp_path))
    traj = integrate(JerkParams(0.129, 7.0, 5.0), OrderSpec.commensurate(0.91),
                     SolveConfig(h=0.01, t_end=2.0, initial_state=(0.1, 0.0, 0.0)))
    assert np.array_equal(read_trajectory_csv(tmp_path / "trajectory.csv")[:, 1:], traj.states)


def test_lyapunov_runs_without_scipy(tmp_path):
    cli_without_scipy("lyapunov", "--a", "0.129", "--b", "7", "--alphas", "1,99/100,1",
                      "--eps", "7.913", "--h", "0.01", "--t-end", "4", "--x0", "0.1,0,0",
                      "--renorm-every", "50", "--out", str(tmp_path))
    spec = lyapunov_spectrum(JerkParams(0.129, 7.0, 7.913),
                             OrderSpec.incommensurate("1", "99/100", "1"),
                             SolveConfig(h=0.01, t_end=4.0, initial_state=(0.1, 0.0, 0.0)), 50)
    row = (tmp_path / "lyapunov.csv").read_text().splitlines()[1].split(",")
    assert [float(v) for v in row[1:4]] == list(spec.exponents)
