"""Every name a module lists in ``__all__`` exists, so a pruned list cannot go stale."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["fjerk", "fjerk.model", "fjerk.solver", "fjerk.hopf",
                                    "fjerk.chaos", "fjerk.output"])
def test_all_names_exist(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
