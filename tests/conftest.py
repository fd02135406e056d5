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
