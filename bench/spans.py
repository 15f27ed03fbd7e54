"""Outside-in tracing of blockca for the benchmark's traced runs.

`Tracer.install()` replaces blockca's public functions, and the forward /
backward methods of its layer classes, with wrappers that record a span per
call.  A module that did `from ..ca import step` holds its own reference to
the function, so each function is replaced at every name under which a
loaded blockca module (or the benchmark itself) can look it up, not only at
the module that defines it.  `Tracer.uninstall()` puts every original back.

Spans live in memory as parallel lists (name, parent, start, end, self
time) and are written out once, at the end of a run.  A span's self time is
its duration minus the time covered by its child spans; calls are strictly
nested on one thread, so the children's durations simply add up.

Counts of work (grids stepped, FLOPs and bytes of the conv/deconv GEMMs,
dense witness matrix bytes) are computed from array shapes at the same
boundaries.  They are computed, not measured.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict

# Public functions to trace: (defining module, attribute, span name).
FUNCTIONS = [
    ("blockca.ca", "step", "ca.step"),
    ("blockca.ca", "inverse_step", "ca.inverse_step"),
    ("blockca.ca", "evolve", "ca.evolve"),
    ("blockca.ca", "validate_grid", "ca.validate_grid"),
    ("blockca.ca", "random_grid", "ca.random_grid"),
    ("blockca.gf2", "rank", "gf2.rank"),
    ("blockca.gf2", "inverse", "gf2.inverse"),
    ("blockca.gf2", "matmul", "gf2.matmul"),
    ("blockca.gf2", "matvec", "gf2.matvec"),
    ("blockca.gf2", "transpose", "gf2.transpose"),
    ("blockca.linops", "build_phase_operator", "linops.build_phase_operator"),
    ("blockca.linops", "build_full_step_operator",
     "linops.build_full_step_operator"),
    ("blockca.linops", "build_wrap_permutation",
     "linops.build_wrap_permutation"),
    ("blockca.linops", "apply_operator", "linops.apply_operator"),
    ("blockca.linops", "compose", "linops.compose"),
    ("blockca.linops", "operator_is_invertible",
     "linops.operator_is_invertible"),
    ("blockca.linops", "conv_to_matrix", "linops.conv_to_matrix"),
    ("blockca.linops", "deconv_to_matrix", "linops.deconv_to_matrix"),
    ("blockca.nn.loss", "bce_loss", "nn.loss"),
    ("blockca.nn.checkpoint", "save_network", "nn.checkpoint.save"),
    ("blockca.nn.checkpoint", "load_network", "nn.checkpoint.load"),
    ("blockca.learn.data", "generate_dataset", "learn.data.generate"),
    ("blockca.learn.train", "train", "learn.train"),
    ("blockca.learn.train", "evaluate_tensors", "learn.train.evaluate"),
    ("blockca.learn.rollout", "apply_model_binary",
     "learn.apply_model_binary"),
    ("blockca.learn.rollout", "rollout", "learn.rollout"),
    ("blockca.learn.commute", "commute_experiment", "learn.commute"),
    ("blockca.learn.commute", "verify_commuting_solutions",
     "learn.commute.verify"),
    ("blockca.learn.commute", "exact_phase_step", "learn.commute.evolution_map"),
    ("blockca.learn.witness", "lower_network", "learn.witness.lower"),
    ("blockca.learn.witness", "witness_logits", "learn.witness.logits"),
    ("blockca.learn.witness", "single_step_witness", "learn.witness"),
    ("blockca.learn.witness", "two_step_witness", "learn.witness"),
]

# Layer classes of blockca.nn.layers by the group their spans report under.
LAYER_GROUPS = {
    "ConvLayer": "conv",
    "DeconvLayer": "deconv",
    "ReLULayer": "relu",
    "SigmoidLayer": "sigmoid",
    "BypassLayer": "bypass",
    "Pad1Layer": "geometry",
    "Crop1Layer": "geometry",
    "WrapShiftLayer": "geometry",
    "UnwrapShiftLayer": "geometry",
}

ROOT_SPAN = "bench"


def batch_tag(batch: int) -> str:
    """Batch-size class of a layer call: rollout, training or evaluation."""
    if batch == 1:
        return "b1"
    return "b32" if batch <= 32 else "eval"


def gemm_flops(layer, x_shape, backward: bool) -> int:
    """FLOPs of a conv/deconv layer's GEMMs, from shapes.

    Forward is one multiply-add per (weight, output position) pair; the
    backward pass does two GEMMs of that size (weight gradient and input
    gradient).  `x_shape` is the layer's forward input shape.
    """
    k = layer.kernel
    n, _, h, w = x_shape
    if layer.kind == "conv":
        positions = ((h - k.height) // k.stride + 1) * \
            ((w - k.width) // k.stride + 1)
    else:
        positions = h * w
    fwd = 2 * n * k.out_channels * k.in_channels * k.height * k.width \
        * positions
    return 2 * fwd if backward else fwd


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.selfs: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list[int]] = []   # [span index, child ns]
        self._patches: list[tuple] = []     # (owner, attr, original)

    # -- spans -----------------------------------------------------------
    def open(self, name: str) -> None:
        self.names.append(name)
        self.parents.append(self._stack[-1][0] if self._stack else -1)
        self.ends.append(0)
        self.selfs.append(0)
        self._stack.append([len(self.names) - 1, 0])
        self.starts.append(time.perf_counter_ns())

    def close(self) -> None:
        end = time.perf_counter_ns()
        idx, child = self._stack.pop()
        self.ends[idx] = end
        duration = end - self.starts[idx]
        self.selfs[idx] = duration - child
        if self._stack:
            self._stack[-1][1] += duration

    @contextlib.contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def add(self, key: str, value) -> None:
        self.counts[key] += value

    # -- wrapping --------------------------------------------------------
    def _wrap_function(self, fn, name: str):
        counter = _COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close()
            if counter is not None:
                out = counter(tracer, args, kwargs, out)
            return out
        return traced

    def _wrap_layer_method(self, fn, group: str, backward: bool):
        tracer = self
        direction = "bwd" if backward else "fwd"
        gemm = group in ("conv", "deconv")

        @functools.wraps(fn)
        def traced(layer, x, *rest):
            name = f"nn.{group}.{direction}.{batch_tag(x.shape[0])}"
            tracer.open(name)
            try:
                out = fn(layer, x, *rest)
            finally:
                tracer.close()
            if gemm:
                # backward(grad_y, x): the forward input is the cache.
                fwd_input = rest[0] if backward else x
                tracer.add(f"nn.{group}.flop",
                           gemm_flops(layer, fwd_input.shape, backward))
                w = layer.kernel.weights.size
                if backward:
                    moved = x.size + fwd_input.size + 2 * w + out.size
                else:
                    moved = x.size + w + out[0].size
                tracer.add(f"nn.{group}.bytes", 8 * moved)
            return out
        return traced

    def _namespaces(self):
        """Every loaded blockca module plus the benchmark's own modules."""
        here = os.path.dirname(os.path.abspath(__file__))
        for name, mod in list(sys.modules.items()):
            if mod is None:
                continue
            if name == "blockca" or name.startswith("blockca."):
                yield mod
            elif os.path.dirname(os.path.abspath(
                    getattr(mod, "__file__", None) or "/")) == here:
                yield mod

    def install(self) -> None:
        """Wrap every traced function at every name it is bound to."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module, attr, name in FUNCTIONS:
            fn = getattr(sys.modules[module], attr)
            wrappers[id(fn)] = (fn, self._wrap_function(fn, name))
        for ns in self._namespaces():
            for attr, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, hit[1])
        layers = sys.modules["blockca.nn.layers"]
        for cls_name, group in LAYER_GROUPS.items():
            cls = getattr(layers, cls_name)
            for method, backward in (("forward", False), ("backward", True)):
                orig = cls.__dict__[method]
                self._patches.append((cls, method, orig))
                setattr(cls, method,
                        self._wrap_layer_method(orig, group, backward))
        optim = sys.modules["blockca.nn.optim"].NetworkOptimizer
        orig = optim.__dict__["step"]
        self._patches.append((optim, "step", orig))
        setattr(optim, "step", self._wrap_function(orig, "nn.optim"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------
    def write(self, path) -> None:
        """Write every span as a tab-separated line."""
        with open(path, "w", encoding="ascii") as f:
            f.write("id\tparent\tname\tstart_ns\tend_ns\tself_ns\n")
            for i, name in enumerate(self.names):
                f.write(f"{i}\t{self.parents[i]}\t{name}\t{self.starts[i]}"
                        f"\t{self.ends[i]}\t{self.selfs[i]}\n")


# -- counters computed at span boundaries --------------------------------

def _count_step(tracer, args, kwargs, out):
    tracer.add("ca.grids", 1)
    return out


def _count_evolve(tracer, args, kwargs, out):
    tracer.add("ca.grids", len(out) - 1)
    return out


def _count_epoch(tracer, args, kwargs, out):
    # learn.train evaluates the held-out split once at the end of each epoch.
    tracer.add("learn.train.epochs", 1)
    return out


def _count_dataset(tracer, args, kwargs, out):
    tracer.add("learn.data.pairs", len(out))
    return out


def _count_rollout(tracer, args, kwargs, out):
    trajectory, divergence = out
    steps = len(trajectory) - 1
    tracer.add("learn.rollout.frames", steps)
    tracer.add("learn.rollout.exact_frames", min(divergence - 1, steps))
    return out


def _count_save(tracer, args, kwargs, out):
    tracer.add("nn.checkpoint.bytes", os.path.getsize(args[1]))
    return out


def _count_lowering(tracer, args, kwargs, out):
    tracer.add("learn.witness.stage_bytes",
               sum(s[1].nbytes + s[2].nbytes for s in out if s[0] == "affine"))
    return out


def _count_logits(tracer, args, kwargs, out):
    stages, flat = args[0], args[1]
    rows = flat.shape[0] if flat.ndim == 2 else 1
    tracer.add("learn.witness.flop",
               sum(2 * rows * s[1].size for s in stages if s[0] == "affine"))
    return out


def _wrap_evolution(tracer, args, kwargs, fn):
    """Trace the frozen evolution map exact_phase_step hands back."""
    @functools.wraps(fn)
    def evolution(grids):
        tracer.add("learn.commute.evolution_grids", len(grids))
        with tracer.span("learn.commute.evolution"):
            return fn(grids)
    return evolution


_COUNTERS = {
    "ca.step": _count_step,
    "ca.inverse_step": _count_step,
    "ca.evolve": _count_evolve,
    "learn.data.generate": _count_dataset,
    "learn.train.evaluate": _count_epoch,
    "learn.rollout": _count_rollout,
    "nn.checkpoint.save": _count_save,
    "learn.witness.lower": _count_lowering,
    "learn.witness.logits": _count_logits,
    "learn.commute.evolution_map": _wrap_evolution,
}
