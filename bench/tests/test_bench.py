"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blockca
import blockca.learn
import harness
import metrics
import workloads
from blockca import ca
from blockca.nn import layers

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

TINY = workloads.Sizes(n=8, pairs=2700, epoch_cap=40, rollout_grids=4,
                       rollout_steps=4, commute_count=200, commute_epochs=1,
                       verify_trials=10, operator_n=8, operator_grids=2,
                       witness_grids=20)

COMPUTED_UNITS = {"count", "GFLOP", "GB", "B"}


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """harness.run at tiny sizes, cached per (workload, trace, repeat)."""
    cache = {}

    def get(name, trace, repeat=0):
        key = (name, trace, repeat)
        if key not in cache:
            cache[key] = harness.run(name, 3, 0, trace,
                                     tmp_path_factory.mktemp("out"), TINY)
        return cache[key]
    return get


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [entry[:3] for entry in metrics.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(run, name, trace):
    result = run(name, trace)
    catalogue = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {k: unit for k, (_, unit) in result.metrics.items()} == \
        {entry[0]: entry[1] for entry in catalogue}
    assert result.attempted > 0 and result.failures == []
    if not trace:
        assert all(value > 0 for value, _ in result.metrics.values())


def test_a_flipped_target_cell_counts_as_a_failure(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "TASKS", {
        k: workloads.TASKS[k] for k in workloads.ROLLOUT_PAIR})
    generate = blockca.learn.generate_dataset

    def generate_with_one_flip(*args, **kwargs):
        dataset = generate(*args, **kwargs)
        dataset.targets[0, 0, 0] ^= 1
        return dataset
    monkeypatch.setattr(blockca.learn, "generate_dataset",
                        generate_with_one_flip)
    result = harness.run("rule-learning", 3, 0, False, tmp_path, TINY)
    flagged = [f for f in result.failures if f.endswith("dataset targets")]
    assert len(flagged) == 2
    assert result.report["fail_ratio"][0] == \
        len(result.failures) / result.attempted > 0


@pytest.mark.parametrize("task", list(workloads.TASKS))
def test_the_gf2_reference_agrees_with_each_task_and_sees_a_flip(task):
    direction, phase, edge, *_ = workloads.TASKS[task]
    dataset = blockca.learn.generate_dataset(8, 20, direction, phase, edge,
                                             seed=5)
    pairs = list(zip(dataset.inputs, dataset.targets))
    assert all(workloads.reference_pair_ok(x, t, direction, phase, edge)
               for x, t in pairs)
    x, t = pairs[0]
    t = t.copy()
    t[3, 4] ^= 1
    assert not workloads.reference_pair_ok(x, t, direction, phase, edge)


def test_a_wrong_evolution_map_fails_the_commute_check(monkeypatch,
                                                       tmp_path):
    def wrong_map(phase):
        # A simulator bug: the inverse rule in place of the forward one.
        return lambda grids: np.stack([ca.inverse_step(g) for g in grids])
    monkeypatch.setattr(blockca.learn, "exact_phase_step", wrong_map)
    result = harness.run("commute", 3, 0, False, tmp_path, TINY)
    assert "evolution map against the GF(2) operator" in result.failures


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_stages_partition_the_pass(name, tmp_path):
    workload = workloads.WORKLOADS[name](3, TINY, tmp_path)
    workload.prepare()
    result = workload.run_pass()
    assert sum(s for _, s, _ in result.stages) == \
        pytest.approx(result.wall_s, rel=1e-9)
    assert all(s >= 0 for _, s, _ in result.stages)
    assert any(main for _, _, main in result.stages)


def test_laps_are_keyed_by_their_neighbouring_boundaries():
    laps = workloads.Laps()
    for boundary in ("gen", "step", "step", "step", "eval"):
        laps.lap(boundary)
    assert [key for key, _, _ in laps.stages] == [
        "start>gen>step", "gen>step>step", "step>step>step",
        "step>step>eval", "step>eval>end"]


def test_every_optimizer_step_is_a_lap_and_the_method_is_restored(tmp_path):
    original = workloads.OPTIM_MODULE.NetworkOptimizer.step
    workload = workloads.Commute(3, TINY, tmp_path)
    workload.prepare()
    result = workload.run_pass()
    n_train = TINY.commute_count - workloads._holdout_count(
        TINY.commute_count, workloads.COMMUTE_HOLDOUT)
    steps = -(-n_train // TINY.batch) * TINY.commute_epochs
    assert n_train % TINY.batch   # the last minibatch is a partial one
    assert sum(key.split(">")[1] == "commute.step"
               for key, _, _ in result.stages) == \
        len(workloads.COMMUTE_INIT_SEEDS) * steps
    assert workloads.OPTIM_MODULE.NetworkOptimizer.step is original


def test_stage_estimate_takes_each_stage_at_its_fastest():
    def result(*stages):
        return workloads.PassResult(wall_s=0, grids=1, stages=list(stages),
                                    report={}, outputs=None)
    passes = [result(("a", 1.0, True), ("b", 3.0, False), ("b", 2.0, False)),
              result(("a", 0.5, True), ("b", 4.0, False), ("b", 5.0, False))]
    assert harness.stage_estimate(passes) == 0.5 + 2 * 2.0
    assert harness.stage_estimate(passes, main_only=True) == 0.5


def test_computed_counts_and_epochs_repeat_exactly(run):
    first = run("rule-learning", True)
    second = run("rule-learning", True, repeat=1)
    counted = [name for name, unit, *_ in metrics.PER_LAYER
               if unit in COMPUTED_UNITS]
    assert "learn.train.epochs_to_exact" in counted
    assert {k: first.metrics[k] for k in counted} == \
        {k: second.metrics[k] for k in counted}
    assert first.report["epochs_to_exact"] == \
        second.report["epochs_to_exact"]
    assert first.metrics["nn.deconv.gflop"][0] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_self_times_add_up_to_the_traced_wall(run, name):
    trace = run(name, True).trace
    # Self times partition the traced pass, and the traced pass is the
    # untraced wall time stretched by the overhead ratio.
    assert trace["self_total_s"] == pytest.approx(
        trace["wall_s"] * trace["overhead_ratio"], rel=0.05)
    assert trace["overhead_ratio"] == \
        run(name, True).metrics["trace.overhead_ratio"][0]


def test_tracing_restores_every_wrapped_name(run):
    run("commute", True)
    assert not hasattr(blockca.ca.step, "__wrapped__")
    assert not hasattr(blockca.learn.generate_dataset, "__wrapped__")
    assert not hasattr(layers.ConvLayer.forward, "__wrapped__")


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "commute", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
