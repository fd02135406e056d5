"""Fixtures shared by the test modules."""

import subprocess

import pytest

import cance.data as data_module


@pytest.fixture
def formatter_popens(monkeypatch):
    """Every formatter child that `cance.data` starts, recorded in a list."""
    started, original = [], subprocess.Popen

    def recording(*args, **kwargs):
        started.append(original(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(data_module.subprocess, "Popen", recording)
    return started


@pytest.fixture
def holds_no_work_arrays():
    """A check that no buffer or forward cache is left on a network or any
    of its layers (their private attributes are all None)."""
    def check(net):
        return all(value is None for obj in (net, *net.layers)
                   for name, value in vars(obj).items() if name.startswith("_"))
    return check
