"""Layers for a small feed-forward CNN in double precision.

Activations are (batch, channels, height, width) float64 arrays.  Each
layer exposes ``forward(x) -> (y, cache)`` and ``backward(grad_y, cache)
-> grad_x``; layers with parameters overwrite ``grad_weights`` and
``grad_bias`` on every backward call.  Caches are returned to the caller
rather than stored, so forward passes on cloned parameter sets are safe to
run concurrently.
"""

from __future__ import annotations

import numpy as np

from ..linops import KernelSpec, conv_output_hw, operation_bias


def _patch_cols(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Non-overlapping kh x kw patches as columns: (N,C,H,W) ->
    (N, C*kh*kw, (H/kh)*(W/kw))."""
    n, c, h, wd = x.shape
    oh, ow = h // kh, wd // kw
    v = x.reshape(n, c, oh, kh, ow, kw).transpose(0, 1, 3, 5, 2, 4)
    return v.reshape(n, c * kh * kw, oh * ow)


def _conv_raw(x: np.ndarray, w: np.ndarray, stride: int) -> np.ndarray:
    """Strided cross-correlation, no bias: (N,Ci,H,W) -> (N,Co,OH,OW)."""
    n, ci, h, wd = x.shape
    co, _, kh, kw = w.shape
    oh = conv_output_hw(h, kh, stride)
    ow = conv_output_hw(wd, kw, stride)
    if stride == kh == kw:
        # Non-overlapping windows: one matmul over patch columns.
        out = np.matmul(w.reshape(co, -1), _patch_cols(x, kh, kw))
        return out.reshape(n, co, oh, ow)
    out = np.zeros((n, co, oh * ow))
    for a in range(kh):
        for b in range(kw):
            xs = x[:, :, a:a + stride * oh:stride, b:b + stride * ow:stride]
            out += np.matmul(w[:, :, a, b], xs.reshape(n, ci, oh * ow))
    return out.reshape(n, co, oh, ow)


def _deconv_raw(y: np.ndarray, w: np.ndarray, stride: int) -> np.ndarray:
    """Adjoint of _conv_raw with the same kernel: (N,Co,h,w) -> (N,Ci,OH,OW)."""
    n, co, h, wd = y.shape
    _, ci, kh, kw = w.shape
    oh = (h - 1) * stride + kh
    ow = (wd - 1) * stride + kw
    if stride == kh == kw:
        out = np.matmul(w.reshape(co, -1).T, y.reshape(n, co, h * wd))
        out = out.reshape(n, ci, kh, kw, h, wd).transpose(0, 1, 4, 2, 5, 3)
        return out.reshape(n, ci, oh, ow)
    out = np.zeros((n, ci, oh, ow))
    y_flat = y.reshape(n, co, h * wd)
    w_t = w.transpose(1, 0, 2, 3)
    for a in range(kh):
        for b in range(kw):
            contrib = np.matmul(w_t[:, :, a, b], y_flat).reshape(n, ci, h, wd)
            out[:, :, a:a + stride * h:stride, b:b + stride * wd:stride] += contrib
    return out


def conv_forward(kernel: KernelSpec, x: np.ndarray) -> np.ndarray:
    """Strided convolution of a batch; consumes in_channels, emits out_channels."""
    if x.ndim != 4 or x.shape[1] != kernel.in_channels:
        raise ValueError(f"expected (N,{kernel.in_channels},H,W) input, "
                         f"got {x.shape}")
    bias = operation_bias(kernel, kernel.out_channels)
    return _conv_raw(x, kernel.weights, kernel.stride) \
        + bias[None, :, None, None]


def deconv_forward(kernel: KernelSpec, x: np.ndarray) -> np.ndarray:
    """Transposed convolution: the adjoint of conv_forward for the same
    kernel, so it consumes out_channels and emits in_channels."""
    if x.ndim != 4 or x.shape[1] != kernel.out_channels:
        raise ValueError(f"expected (N,{kernel.out_channels},H,W) input, "
                         f"got {x.shape}")
    bias = operation_bias(kernel, kernel.in_channels)
    return _deconv_raw(x, kernel.weights, kernel.stride) \
        + bias[None, :, None, None]


def _init_weights(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    limit = np.sqrt(1.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


class ConvLayer:
    kind = "conv"

    def __init__(self, kernel: KernelSpec):
        self.kernel = kernel
        self.grad_weights = np.zeros_like(kernel.weights)
        self.grad_bias = np.zeros_like(kernel.bias)

    @classmethod
    def create(cls, rng: np.random.Generator, in_channels: int,
               out_channels: int, size: int = 2, stride: int = 2) -> "ConvLayer":
        fan_in = in_channels * size * size
        kernel = KernelSpec(
            out_channels, in_channels, size, size, stride,
            _init_weights(rng, (out_channels, in_channels, size, size), fan_in),
            _init_weights(rng, (out_channels,), fan_in))
        return cls(kernel)

    def forward(self, x):
        return conv_forward(self.kernel, x), x

    def backward(self, grad_y, x):
        k = self.kernel
        gy = grad_y.transpose(1, 0, 2, 3).reshape(k.out_channels, -1)
        if k.stride == k.height == k.width:
            cols = _patch_cols(x, k.height, k.width)
            cols = cols.transpose(1, 0, 2).reshape(cols.shape[1], -1)
            self.grad_weights = (gy @ cols.T).reshape(k.weights.shape)
        else:
            for a in range(k.height):
                for b in range(k.width):
                    xs = x[:, :, a:a + k.stride * grad_y.shape[2]:k.stride,
                           b:b + k.stride * grad_y.shape[3]:k.stride]
                    xs = xs.transpose(1, 0, 2, 3).reshape(k.in_channels, -1)
                    self.grad_weights[:, :, a, b] = gy @ xs.T
        self.grad_bias = grad_y.sum(axis=(0, 2, 3))
        return _deconv_raw(grad_y, k.weights, k.stride)

    def parameters(self):
        return [(self.kernel.weights, lambda: self.grad_weights),
                (self.kernel.bias, lambda: self.grad_bias)]


class DeconvLayer:
    """Transposed convolution layer.

    The kernel is stored in the orientation of the convolution this layer
    is the adjoint of: kernel.out_channels is the layer's input width and
    kernel.in_channels its output width, with the bias on the output side.
    """

    kind = "deconv"

    def __init__(self, kernel: KernelSpec):
        self.kernel = kernel
        self.grad_weights = np.zeros_like(kernel.weights)
        self.grad_bias = np.zeros_like(kernel.bias)

    @classmethod
    def create(cls, rng: np.random.Generator, in_channels: int,
               out_channels: int, size: int = 2, stride: int = 2) -> "DeconvLayer":
        fan_in = in_channels * size * size
        kernel = KernelSpec(
            in_channels, out_channels, size, size, stride,
            _init_weights(rng, (in_channels, out_channels, size, size), fan_in),
            _init_weights(rng, (out_channels,), fan_in))
        return cls(kernel)

    def forward(self, x):
        return deconv_forward(self.kernel, x), x

    def backward(self, grad_y, x):
        # Input gradient of a transposed convolution is the matching
        # forward convolution of the output gradient.
        k = self.kernel
        xf = x.transpose(1, 0, 2, 3).reshape(k.out_channels, -1)
        if k.stride == k.height == k.width:
            gcols = _patch_cols(grad_y, k.height, k.width)
            gcols = gcols.transpose(1, 0, 2).reshape(gcols.shape[1], -1)
            self.grad_weights = (xf @ gcols.T).reshape(k.weights.shape)
        else:
            for a in range(k.height):
                for b in range(k.width):
                    gs = grad_y[:, :, a:a + k.stride * x.shape[2]:k.stride,
                                b:b + k.stride * x.shape[3]:k.stride]
                    gs = gs.transpose(1, 0, 2, 3).reshape(k.in_channels, -1)
                    self.grad_weights[:, :, a, b] = xf @ gs.T
        self.grad_bias = grad_y.sum(axis=(0, 2, 3))
        return _conv_raw(grad_y, k.weights, k.stride)

    def parameters(self):
        return [(self.kernel.weights, lambda: self.grad_weights),
                (self.kernel.bias, lambda: self.grad_bias)]


class ReLULayer:
    kind = "relu"

    def forward(self, x):
        return np.maximum(x, 0.0), x

    def backward(self, grad_y, x):
        # Subgradient at exactly zero is taken to be zero.
        return grad_y * (x > 0.0)


class SigmoidLayer:
    kind = "sigmoid"

    def forward(self, x):
        # exp overflows to inf below about -709, and 1 / (1 + inf) is
        # exactly 0.0, so the overflow warning is silenced, not avoided.
        with np.errstate(over="ignore"):
            y = 1.0 / (1.0 + np.exp(-x))
        return y, y

    def backward(self, grad_y, y):
        return grad_y * y * (1.0 - y)


class BypassLayer:
    kind = "bypass"

    def forward(self, x):
        return x, None

    def backward(self, grad_y, _):
        return grad_y


class Pad1Layer:
    kind = "pad1"

    def forward(self, x):
        return np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1))), None

    def backward(self, grad_y, _):
        return grad_y[:, :, 1:-1, 1:-1]


class Crop1Layer:
    kind = "crop1"

    def forward(self, x):
        if x.shape[2] < 3 or x.shape[3] < 3:
            raise ValueError(f"cannot crop a ring from spatial dims "
                             f"{x.shape[2]}x{x.shape[3]}")
        return x[:, :, 1:-1, 1:-1], None

    def backward(self, grad_y, _):
        return np.pad(grad_y, ((0, 0), (0, 0), (1, 1), (1, 1)))


class WrapShiftLayer:
    """Torus translation by (+1, +1)."""

    kind = "wrapshift"

    def forward(self, x):
        return np.roll(x, (1, 1), axis=(2, 3)), None

    def backward(self, grad_y, _):
        return np.roll(grad_y, (-1, -1), axis=(2, 3))


class UnwrapShiftLayer:
    """Torus translation by (-1, -1)."""

    kind = "unwrapshift"

    def forward(self, x):
        return np.roll(x, (-1, -1), axis=(2, 3)), None

    def backward(self, grad_y, _):
        return np.roll(grad_y, (1, 1), axis=(2, 3))


STATELESS_LAYERS = {
    cls.kind: cls for cls in (ReLULayer, SigmoidLayer, BypassLayer, Pad1Layer,
                              Crop1Layer, WrapShiftLayer, UnwrapShiftLayer)
}


def activation_forward(kind: str, x: np.ndarray) -> np.ndarray:
    if kind not in ("relu", "sigmoid", "bypass"):
        raise ValueError(f"unknown activation {kind!r}")
    return STATELESS_LAYERS[kind]().forward(x)[0]


def geometry_forward(kind: str, x: np.ndarray) -> np.ndarray:
    if kind not in ("pad1", "crop1", "wrapshift", "unwrapshift"):
        raise ValueError(f"unknown geometry op {kind!r}")
    return STATELESS_LAYERS[kind]().forward(x)[0]


class Network:
    """An ordered stack of layers with explicit forward caches."""

    def __init__(self, layers):
        self.layers = list(layers)

    def forward(self, x):
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x)
            caches.append(cache)
        return x, caches

    def predict(self, x):
        return self.forward(x)[0]

    def backward(self, grad, caches):
        if len(caches) != len(self.layers):
            raise ValueError("cache list does not match the layer stack")
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            grad = layer.backward(grad, cache)
        return grad

    def param_layers(self):
        return [l for l in self.layers if hasattr(l, "kernel")]

    def parameters(self):
        out = []
        for layer in self.param_layers():
            out.extend(layer.parameters())
        return out
