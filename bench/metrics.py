"""Metric catalogue and the per-layer metrics derived from a trace.

END_TO_END metrics are measured with tracing off and are the ones
BENCHMARK.json bounds.  Every workload reports every one of them:

- setup_s      set-up time: a fresh interpreter importing blockca (numpy
               with it) and exiting, plus building the workload's seeded
               inputs; each is timed nine times and the medians add up;
- wall_s       one timed pass, with every lap of the pass (an optimizer
               step, a dataset chunk, a rollout, an operator check, ...) at
               the fastest time the run saw for it (harness.stage_estimate);
               the plain median pass is the `median_pass_s` report line;
- grids_per_s  rate of the pass's main stage, timed the same way: training
               samples per second of training (rule-learning, commute), or
               GF(2) operator checks per second of the operator stage
               (exact-algebra; witness grids per second is a report line);
- peak_rss_mb  peak resident set size of the benchmark process.

PER_LAYER metrics come from a separate traced run.  Each entry records the
end-to-end metric it should move, on which workload.  Values are per traced
pass.  FLOP and byte counts are computed from array shapes, not measured.
"""

from __future__ import annotations

import numpy as np

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("grids_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

_NN_TRAIN = "wall_s and grids_per_s on rule-learning and commute; " \
    "no change on exact-algebra"
_CA = "wall_s and grids_per_s on commute most, wall_s on rule-learning less"
_GF2 = "wall_s and grids_per_s on exact-algebra only"
_LOWERING = "wall_s and peak_rss_mb on exact-algebra only, not grids_per_s"
_HARNESS = "none: describes the harness, not the program"

# (name, unit, better, what it should move)
PER_LAYER = [
    ("ca.step.calls", "count", "lower", _CA),
    ("ca.step.self_s", "s", "lower", _CA),
    ("ca.inverse_step.self_s", "s", "lower",
     "wall_s on rule-learning (bwd-aligned dataset)"),
    ("ca.evolve.self_s", "s", "lower", "wall_s on rule-learning (rollout)"),
    ("ca.validate_grid.self_s", "s", "lower", _CA),
    ("ca.random_grid.self_s", "s", "lower",
     "wall_s on rule-learning and commute"),
    ("ca.grids", "count", "lower", _CA),
    ("ca.us_per_grid", "us", "lower", _CA),
    ("learn.data.generate.self_s", "s", "lower",
     "wall_s on rule-learning (time_to_exact_s in the report)"),
    ("learn.data.pairs", "count", "lower", "wall_s on rule-learning"),
]
for _kind in ("conv", "deconv", "relu", "sigmoid", "geometry", "bypass"):
    for _dir in ("fwd", "bwd"):
        PER_LAYER += [(f"nn.{_kind}.{_dir}.calls", "count", "lower", _NN_TRAIN),
                      (f"nn.{_kind}.{_dir}.self_s", "s", "lower", _NN_TRAIN)]
for _kind in ("conv", "deconv"):
    PER_LAYER += [
        (f"nn.{_kind}.fwd.b1.us_per_call", "us", "lower",
         "wall_s on rule-learning via rollout (rollout_frames_per_s in the "
         "report)"),
        (f"nn.{_kind}.fwd.b32.us_per_call", "us", "lower", _NN_TRAIN),
        (f"nn.{_kind}.bwd.b32.us_per_call", "us", "lower", _NN_TRAIN),
        (f"nn.{_kind}.fwd.eval.us_per_call", "us", "lower",
         "wall_s on rule-learning (per-epoch held-out evaluation)"),
        (f"nn.{_kind}.gflop", "GFLOP", "lower",
         "computed count; grids_per_s on rule-learning and commute"),
        (f"nn.{_kind}.gbyte", "GB", "lower",
         "computed count; grids_per_s on rule-learning and commute"),
        (f"nn.{_kind}.gflop_per_s", "GFLOP/s", "higher", _NN_TRAIN),
    ]
PER_LAYER += [
    ("nn.loss.self_s", "s", "lower", _NN_TRAIN),
    ("nn.optim.self_s", "s", "lower", _NN_TRAIN),
    ("nn.checkpoint.save.self_s", "s", "lower", "wall_s on rule-learning"),
    ("nn.checkpoint.load.self_s", "s", "lower", "wall_s on rule-learning"),
    ("nn.checkpoint.bytes", "B", "lower", "wall_s on rule-learning"),
    ("learn.train.self_s", "s", "lower",
     "grids_per_s on rule-learning (loop and minibatch gather)"),
    ("learn.train.step_ms.p50", "ms", "lower", "grids_per_s on rule-learning"),
    ("learn.train.step_ms.p99", "ms", "lower", "grids_per_s on rule-learning"),
    ("learn.train.evaluate.self_s", "s", "lower", "wall_s on rule-learning"),
    ("learn.train.epochs_to_exact", "count", "lower",
     "wall_s on rule-learning, not grids_per_s: learning, not code speed"),
    ("learn.apply_model_binary.self_s", "s", "lower",
     "wall_s on commute and rule-learning (rollout)"),
    ("learn.rollout.self_s", "s", "lower", "wall_s on rule-learning"),
    ("learn.rollout.frames", "count", "higher", "wall_s on rule-learning"),
    ("learn.rollout.exact_frame_ratio", "ratio", "higher",
     "none directly: how far the trained pair stays exact"),
    ("learn.commute.self_s", "s", "lower", "grids_per_s on commute"),
    ("learn.commute.evolution_grids", "count", "lower",
     "wall_s and grids_per_s on commute"),
    ("learn.commute.verify.self_s", "s", "lower", "wall_s on commute"),
    ("linops.build_phase_operator.self_s", "s", "lower", _GF2),
    ("linops.build_full_step_operator.self_s", "s", "lower", _GF2),
    ("linops.build_wrap_permutation.self_s", "s", "lower", _GF2),
    ("linops.apply_operator.self_s", "s", "lower", _GF2),
    ("linops.compose.self_s", "s", "lower", _GF2),
    ("linops.operator_is_invertible.self_s", "s", "lower", _GF2),
    ("linops.conv_to_matrix.self_s", "s", "lower", _LOWERING),
    ("linops.deconv_to_matrix.self_s", "s", "lower", _LOWERING),
]
for _op in ("rank", "inverse", "matmul", "matvec", "transpose"):
    PER_LAYER += [(f"gf2.{_op}.calls", "count", "lower", _GF2),
                  (f"gf2.{_op}.self_s", "s", "lower", _GF2)]
PER_LAYER += [
    ("learn.witness.self_s", "s", "lower", _LOWERING),
    ("learn.witness.lower.self_s", "s", "lower", _LOWERING),
    ("learn.witness.logits.self_s", "s", "lower", _LOWERING),
    ("learn.witness.stage_bytes", "B", "lower",
     "computed count; peak_rss_mb on exact-algebra"),
    ("learn.witness.gflop", "GFLOP", "lower",
     "computed count; wall_s on exact-algebra"),
    ("bench.self_s", "s", "lower", _HARNESS),
    ("trace.overhead_ratio", "ratio", "lower", _HARNESS),
    ("checks.fail_ratio", "ratio", "lower",
     "none: any failed check makes the run incorrect"),
]
del _kind, _dir, _op

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def _step_ms(tracer) -> list[float]:
    """Gaps between consecutive optimizer steps inside one learn.train span,
    restarting at each epoch-end evaluation."""
    trains = {i for i, name in enumerate(tracer.names) if name == "learn.train"}
    last: dict[int, int | None] = {i: None for i in trains}
    gaps = []
    for i, parent in enumerate(tracer.parents):
        if parent not in trains:
            continue
        name = tracer.names[i]
        if name == "learn.train.evaluate":
            last[parent] = None
        elif name == "nn.optim":
            if last[parent] is not None:
                gaps.append((tracer.ends[i] - last[parent]) / 1e6)
            last[parent] = tracer.ends[i]
    return gaps


def layer_metrics(tracer, passes: int, overhead_ratio: float,
                  fail_ratio: float) -> dict[str, float]:
    """Per-layer metrics per traced pass; the tracer recorded `passes`
    passes and nothing else."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, name in enumerate(tracer.names):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + tracer.selfs[i] / 1e9

    def c(prefix):
        return sum(v for k, v in calls.items()
                   if k == prefix or k.startswith(prefix + ".")) / passes

    def t(prefix):
        return sum(v for k, v in self_s.items()
                   if k == prefix or k.startswith(prefix + ".")) / passes

    def exact(name):
        return self_s.get(name, 0.0) / passes

    def per_call_us(name):
        n = calls.get(name, 0)
        return 1e6 * self_s[name] / n if n else 0.0

    counts = {k: v / passes for k, v in tracer.counts.items()}
    out: dict[str, float] = {}
    # nn span names carry a direction and batch suffix (nn.conv.fwd.b32), so
    # nn calls and self times sum over every name under the metric's prefix.
    for name, *_ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = c(base) if base.startswith("nn.") \
                else calls.get(base, 0) / passes
        elif field == "us_per_call":
            out[name] = per_call_us(base)
        elif field == "self_s":
            out[name] = t(base) if base.startswith("nn.") else exact(base)
    ca_s = sum(exact(f"ca.{f}") for f in
               ("step", "inverse_step", "evolve", "validate_grid"))
    grids = counts.get("ca.grids", 0.0)
    out["ca.grids"] = grids
    out["ca.us_per_grid"] = 1e6 * ca_s / grids if grids else 0.0
    out["learn.data.pairs"] = counts.get("learn.data.pairs", 0.0)
    for kind in ("conv", "deconv"):
        flop = counts.get(f"nn.{kind}.flop", 0.0)
        busy = t(f"nn.{kind}")
        out[f"nn.{kind}.gflop"] = flop / 1e9
        out[f"nn.{kind}.gbyte"] = counts.get(f"nn.{kind}.bytes", 0.0) / 1e9
        out[f"nn.{kind}.gflop_per_s"] = flop / 1e9 / busy if busy else 0.0
    out["nn.checkpoint.bytes"] = counts.get("nn.checkpoint.bytes", 0.0)
    gaps = _step_ms(tracer)
    p50, p99 = np.percentile(gaps, [50, 99]) if gaps else (0.0, 0.0)
    out["learn.train.step_ms.p50"] = float(p50)
    out["learn.train.step_ms.p99"] = float(p99)
    out["learn.train.epochs_to_exact"] = counts.get("learn.train.epochs", 0.0)
    frames = counts.get("learn.rollout.frames", 0.0)
    out["learn.rollout.frames"] = frames
    out["learn.rollout.exact_frame_ratio"] = \
        counts.get("learn.rollout.exact_frames", 0.0) / frames if frames \
        else 0.0
    out["learn.commute.evolution_grids"] = \
        counts.get("learn.commute.evolution_grids", 0.0)
    out["learn.witness.stage_bytes"] = \
        counts.get("learn.witness.stage_bytes", 0.0)
    out["learn.witness.gflop"] = counts.get("learn.witness.flop", 0.0) / 1e9
    out["trace.overhead_ratio"] = overhead_ratio
    out["checks.fail_ratio"] = fail_ratio
    missing = [name for name, *_ in PER_LAYER if name not in out]
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {missing}")
    return out
