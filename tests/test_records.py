"""Result records store each fact once: derived values are read-only properties."""

import dataclasses

import numpy as np
import pytest

from fjerk.chaos import LyapunovSpectrum, SweepPoint, SweepResult
from fjerk.hopf import CharCubic, PseudoPoly, SignCaseReport
from fjerk.model import Equilibrium
from fjerk.solver import AbmWeights, TangentLog, Trajectory


@pytest.mark.parametrize("record, stored, derived", [
    (Trajectory, ("t", "states", "divergence_time"), ("x",)),
    (AbmWeights, ("predictor", "corrector", "boundary"), ()),
    (SweepPoint, ("epsilon", "maxima", "minima", "spectrum", "divergence_time"), ("diverged",)),
    (SweepResult, ("points",), ("epsilon_grid",)),
    (LyapunovSpectrum, ("exponents", "renorm_count", "converged"), ("lambda1",)),
    (PseudoPoly, ("terms",), ()),
    (SignCaseReport, ("case_label", "subcase", "sign_sequence"),
     ("inversions", "positive_root_guaranteed")),
    (CharCubic, ("coefficients",), ()),
    (Equilibrium, ("point", "branch"), ("degenerate",)),
    (TangentLog, ("renorm_times", "log_norms"), ()),
])
def test_record_stores_only_its_own_facts(record, stored, derived):
    assert tuple(f.name for f in dataclasses.fields(record)) == stored
    for name in derived:
        prop = getattr(record, name)
        assert isinstance(prop, property) and prop.fset is None, name


def test_sweep_point_diverged_follows_divergence_time():
    e = np.empty(0)
    assert SweepPoint(1.0, e, e, None, divergence_time=0.5).diverged
    assert not SweepPoint(1.0, e, e, None).diverged
