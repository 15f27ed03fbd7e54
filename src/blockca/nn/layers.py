"""Layers for a small feed-forward CNN in double precision.

Activations are (batch, channels, height, width) float64 arrays.  Each
layer exposes ``forward(x) -> (y, cache)`` and ``backward(grad_y, cache)
-> grad_x``; layers with parameters write ``grad_weights`` and
``grad_bias`` in place on every backward call, and assigning either copies
into it.  A Network keeps its layers' parameters and gradients as views of
two flat vectors, ``theta`` and ``grad``.  Caches are returned to the caller
rather than stored, so forward passes on cloned parameter sets are safe to
run concurrently.  A conv input of one window per sample, and a deconv
input of one position per sample, take one matrix product of rows.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..linops import KernelSpec, conv_output_hw, operation_bias


def _unfold(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Every kh x kw window of x, stride apart, as a column: (N,C,H,W) ->
    (N, C*kh*kw, OH*OW), rows ordered (channel, window row, window col)."""
    n, c, h, wd = x.shape
    oh, ow = (h - kh) // stride + 1, (wd - kw) // stride + 1
    if stride == kh == kw:
        # Non-overlapping windows are a reshape of x.
        v = x.reshape(n, c, oh, kh, ow, kw).transpose(0, 1, 3, 5, 2, 4)
    else:
        v = sliding_window_view(x, (kh, kw), axis=(2, 3))
        v = v[:, :, ::stride, ::stride].transpose(0, 1, 4, 5, 2, 3)
    return v.reshape(n, c * kh * kw, oh * ow)


def _fold(cols: np.ndarray, oh: int, ow: int, kh: int, kw: int,
          stride: int) -> np.ndarray:
    """Adjoint of _unfold: add each column back onto its window of an
    (N, C, (OH-1)*stride + kh, (OW-1)*stride + kw) array."""
    n = cols.shape[0]
    c = cols.shape[1] // (kh * kw)
    h, wd = (oh - 1) * stride + kh, (ow - 1) * stride + kw
    v = cols.reshape(n, c, kh, kw, oh, ow)
    if stride == kh == kw:
        # Non-overlapping windows: a pixel shuffle.
        return v.transpose(0, 1, 4, 2, 5, 3).reshape(n, c, h, wd)
    out = np.zeros((n, c, h, wd))
    for a in range(kh):
        for b in range(kw):
            out[:, :, a:a + stride * oh:stride,
                b:b + stride * ow:stride] += v[:, :, a, b]
    return out


def _conv_raw(x: np.ndarray, w: np.ndarray, stride: int) -> np.ndarray:
    """Strided cross-correlation, no bias: (N,Ci,H,W) -> (N,Co,OH,OW)."""
    co, _, kh, kw = w.shape
    if x.shape[2:] == (kh, kw):
        # One window per sample: the conv is one matrix product of rows.
        return (x.reshape(len(x), -1) @ w.reshape(co, -1).T)[..., None, None]
    oh = conv_output_hw(x.shape[2], kh, stride)
    ow = conv_output_hw(x.shape[3], kw, stride)
    out = np.matmul(w.reshape(co, -1), _unfold(x, kh, kw, stride))
    return out.reshape(x.shape[0], co, oh, ow)


def _deconv_raw(y: np.ndarray, w: np.ndarray, stride: int) -> np.ndarray:
    """Adjoint of _conv_raw with the same kernel: (N,Co,h,w) -> (N,Ci,OH,OW)."""
    n, co, h, wd = y.shape
    kh, kw = w.shape[2:]
    if h == wd == 1:
        # One position per sample: each row of y becomes one window.
        return (y.reshape(n, co) @ w.reshape(co, -1)).reshape(n, -1, kh, kw)
    cols = np.matmul(w.reshape(co, -1).T, y.reshape(n, co, h * wd))
    return _fold(cols, h, wd, kh, kw, stride)


def _kernel_grad(small: np.ndarray, big: np.ndarray, kh: int, kw: int,
                 stride: int) -> np.ndarray:
    """Weight gradient of a convolution and of its adjoint: entry [o,i,a,b]
    sums small[:, o, p, q] * big[:, i, p*stride + a, q*stride + b]."""
    if small.shape[2:] == (1, 1) and big.shape[2:] == (kh, kw):
        # One window per sample: one product of the two stacks' rows.
        n = len(small)
        return (small.reshape(n, -1).T @ big.reshape(n, -1)).reshape(
            small.shape[1], -1, kh, kw)
    cols = _unfold(big, kh, kw, stride)
    cols = cols.transpose(1, 0, 2).reshape(cols.shape[1], -1)
    rows = small.transpose(1, 0, 2, 3).reshape(small.shape[1], -1)
    return (rows @ cols.T).reshape(small.shape[1], -1, kh, kw)


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


class _KernelLayer:
    """Parameters and gradients shared by the convolution layers.

    grad_weights and grad_bias keep their arrays: backward writes into
    them, and assigning one copies into it, so a Network's grad (whose
    views they are) sees every write.  `placed` is set once a Network has
    moved the layer's arrays into its vectors.
    """

    placed = False

    def __init__(self, kernel: KernelSpec):
        self.kernel = kernel
        self._grad_weights = np.zeros_like(kernel.weights)
        self._grad_bias = np.zeros_like(kernel.bias)

    @property
    def grad_weights(self) -> np.ndarray:
        return self._grad_weights

    @grad_weights.setter
    def grad_weights(self, value):
        self._grad_weights[...] = value

    @property
    def grad_bias(self) -> np.ndarray:
        return self._grad_bias

    @grad_bias.setter
    def grad_bias(self, value):
        self._grad_bias[...] = value

    def parameters(self):
        """(parameter, gradient) array pairs: the weights, then the bias."""
        return [(self.kernel.weights, self.grad_weights),
                (self.kernel.bias, self.grad_bias)]


class ConvLayer(_KernelLayer):
    kind = "conv"

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
        self.grad_weights[...] = _kernel_grad(grad_y, x, k.height, k.width,
                                              k.stride)
        grad_y.sum(axis=(0, 2, 3), out=self.grad_bias)
        return _deconv_raw(grad_y, k.weights, k.stride)


class DeconvLayer(_KernelLayer):
    """Transposed convolution layer.

    The kernel is stored in the orientation of the convolution this layer
    is the adjoint of: kernel.out_channels is the layer's input width and
    kernel.in_channels its output width, with the bias on the output side.
    """

    kind = "deconv"

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
        self.grad_weights[...] = _kernel_grad(x, grad_y, k.height, k.width,
                                              k.stride)
        grad_y.sum(axis=(0, 2, 3), out=self.grad_bias)
        return _conv_raw(grad_y, k.weights, k.stride)


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


def _pad1(x: np.ndarray) -> np.ndarray:
    """x with a ring of zeros around its last two axes."""
    out = np.zeros((*x.shape[:-2], x.shape[-2] + 2, x.shape[-1] + 2),
                   dtype=x.dtype)
    out[..., 1:-1, 1:-1] = x
    return out


class Pad1Layer:
    kind = "pad1"

    def forward(self, x):
        return _pad1(x), None

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
        return _pad1(grad_y)


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


def _place(vector: np.ndarray, at: int, array: np.ndarray) -> np.ndarray:
    """vector[at:at + array.size] in the shape of `array`, holding its
    values."""
    view = vector[at:at + array.size].reshape(array.shape)
    view[...] = array
    return view


class Network:
    """An ordered stack of layers with explicit forward caches.

    The network keeps its parameters in one flat float64 vector, `theta`,
    and their gradients in another, `grad`: every conv and deconv layer's
    kernel.weights and kernel.bias, and its grad_weights and grad_bias, are
    moved into views of them in parameters() order, so kernel arrays are
    written through, never rebound.  A kernel layer that another network
    placed is refused with ValueError: moving it would leave that network
    stepping vectors that no longer hold it; so is a kernel layer listed
    twice, which would leave entries of theta that no layer views.
    """

    def __init__(self, layers):
        self.layers = list(layers)
        owners = self.param_layers()
        for i, layer in enumerate(self.layers):
            first = self.layers.index(layer)
            if layer in owners and (first != i or layer.placed):
                why = (f"repeats layer {first}" if first != i else "is placed "
                       "in another network; build from fresh layers")
                raise ValueError(f"layer {i} ({layer.kind}) {why}")
        size = sum(p.size for p, _ in self.parameters())
        self.theta, self.grad = np.empty(size), np.empty(size)
        at = 0
        for layer in owners:
            k = layer.kernel
            k.weights = _place(self.theta, at, k.weights)
            layer._grad_weights = _place(self.grad, at, layer.grad_weights)
            at += k.weights.size
            k.bias = _place(self.theta, at, k.bias)
            layer._grad_bias = _place(self.grad, at, layer.grad_bias)
            at += k.bias.size
            layer.placed = True

    def forward(self, x):
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x)
            caches.append(cache)
        return x, caches

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
