"""The names the benchmark tracer and the package exports look up exist.

`bench/spans.py` wraps functions and layer methods by name when a traced
benchmark run starts; a name that no longer resolves would only fail there.
The module is loaded from its file and only its tables are read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("module,attr",
                         [(m, a) for m, a, _ in spans.FUNCTIONS],
                         ids=[f"{m}.{a}" for m, a, _ in spans.FUNCTIONS])
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("cls_name", sorted(spans.LAYER_GROUPS))
def test_traced_layer_defines_its_own_methods(cls_name):
    cls = getattr(importlib.import_module("blockca.nn.layers"), cls_name)
    assert "forward" in cls.__dict__ and "backward" in cls.__dict__


def test_traced_optimizer_defines_step():
    from blockca.nn.optim import NetworkOptimizer
    assert "step" in NetworkOptimizer.__dict__


@pytest.mark.parametrize("package", ["blockca", "blockca.learn", "blockca.nn"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
