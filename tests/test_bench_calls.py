"""The benchmark's own calls into the library, run at a small horizon.

`bench/workloads.py` calls `caputo_abm` with its sixth parameter positional
(`caputo_abm(rhs, alphas, y0, H, n, None, renorm_every=..., ...)`). These
tests run those exact calls, so a change to the solver's call surface fails
here before it breaks the benchmark. `bench/selftest.py` runs every output
check of the benchmark on a right and a wrong answer; running it here makes a
library change that breaks a check's reference path fail in the test suite.
"""

import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["SweepA091", "Spectrum"])
def test_trace_extras_call_shapes(tmp_path, name):
    workload = getattr(workloads, name)(1, tmp_path)
    workload.n_steps = 800
    extras = workload.trace_extras()
    assert extras["solver.rhs_calls"] > 0
    assert extras["solver.history_s"] > 0.0


def test_bench_selftest_passes(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py")], cwd=tmp_path,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
