"""The names the benchmark and the package exports look up exist.

`bench/spans.py` wraps functions and layer methods by name when a traced
benchmark run starts, and `bench/workloads.py` drives the package through
its module attributes; a name that no longer resolves would only fail
there.  spans.py is loaded from its file and only its tables are read;
workloads.py is only parsed.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
SPANS_PATH = BENCH_DIR / "spans.py"
WORKLOADS_PATH = BENCH_DIR / "workloads.py"


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


def is_module(name: str) -> bool:
    try:
        importlib.import_module(name)
    except ImportError:
        return False
    return True


def workloads_reads():
    """(module aliases, (module, attribute) pairs) of bench/workloads.py:
    the blockca modules it binds to names, by `from blockca import ...` or
    `NAME = importlib.import_module("blockca....")`, and every attribute it
    reads or sets on one of those names or imports from a blockca module."""
    tree = ast.parse(WORKLOADS_PATH.read_text(encoding="utf-8"))
    aliases, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").startswith("blockca"):
            for alias in node.names:
                reads.add((node.module, alias.name))
                name = f"{node.module}.{alias.name}"
                if is_module(name):
                    aliases[alias.asname or alias.name] = name
        elif isinstance(node, ast.Assign) and \
                isinstance(node.value, ast.Call) and \
                ast.unparse(node.value.func) == "importlib.import_module":
            aliases[node.targets[0].id] = node.value.args[0].value
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id in aliases:
            reads.add((aliases[node.value.id], node.attr))
    return aliases, sorted(reads)


def test_benchmark_workloads_read_only_names_that_exist():
    aliases, reads = workloads_reads()
    assert aliases == {
        "ca": "blockca.ca", "learn": "blockca.learn",
        "linops": "blockca.linops", "nn": "blockca.nn",
        "TRAIN_MODULE": "blockca.learn.train",
        "OPTIM_MODULE": "blockca.nn.optim"}
    assert ("blockca.learn.train", "split_holdout") in reads
    assert ("blockca.learn", "exact_phase_step") in reads
    missing = [f"{module}.{attr}" for module, attr in reads
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
