"""Every span the benchmark's tracer patches names a live binding in src/.

`bench/spans.py` wraps program functions by module and attribute name. A
refactor that moves or renames one of them would otherwise show up only in
the slow benchmark smoke runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cance"


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "bench_spans_under_test", ROOT / "bench" / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


SPANS = load_spans()


@pytest.mark.parametrize("name,module_name,attrs", [s[:3] for s in SPANS],
                         ids=[s[0] for s in SPANS])
def test_span_binding_resolves(name, module_name, attrs):
    module = importlib.import_module(module_name)
    assert Path(module.__file__).resolve().is_relative_to(SRC), module.__file__
    for attr in attrs:
        owner = module
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        # a method is patched on its class, so it must be defined there
        found = owner.__dict__.get(leaf) if path else getattr(module, leaf, None)
        assert callable(found), f"{name}: {module_name}.{attr} does not resolve"


def test_every_span_is_checked():
    assert len(SPANS) == len({name for name, *_ in SPANS}) > 0
