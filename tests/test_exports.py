"""Public names: every name a package exports resolves.

A stale entry in ``__all__`` fails only on ``from ... import *``, which
no other test does.
"""

import importlib

import pytest


@pytest.mark.parametrize("module_name", ["cance.nn"])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
