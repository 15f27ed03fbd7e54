"""Network checkpoints: text descriptor lines with raw little-endian
float64 parameter blocks after each parameterized layer line."""

from __future__ import annotations

import math
import os

import numpy as np

from ..linops import KernelSpec
from .layers import ConvLayer, DeconvLayer, Network, STATELESS_LAYERS

MAGIC = b"blockca-net 1\n"


class CheckpointFormatError(ValueError):
    """Raised when a checkpoint file cannot be decoded."""


def _write_array(f, arr: np.ndarray) -> None:
    f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_array(f, shape, size: int) -> np.ndarray:
    nbytes = 8 * math.prod(shape)
    if nbytes > size - f.tell():
        raise CheckpointFormatError("truncated parameter block")
    raw = f.read(nbytes)
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def _descriptor(layer) -> bytes:
    if isinstance(layer, (ConvLayer, DeconvLayer)):
        k = layer.kernel
        return (f"layer {layer.kind} {k.out_channels} {k.in_channels} "
                f"{k.height} {k.width} {k.stride} {k.bias.shape[0]}\n"
                ).encode("ascii")
    return f"layer {layer.kind}\n".encode("ascii")


def save_network(net: Network, path) -> None:
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(f"layers {len(net.layers)}\n".encode("ascii"))
        for layer in net.layers:
            f.write(_descriptor(layer))
            if isinstance(layer, (ConvLayer, DeconvLayer)):
                _write_array(f, layer.kernel.weights)
                _write_array(f, layer.kernel.bias)


def _is_count(word: str) -> bool:
    """At most 18 decimal digits; int() raises ValueError on long strings."""
    return word.isdigit() and len(word) <= 18


def _read_layer(f, size: int, index: int):
    line = f.readline()
    fields = line.decode("ascii", "replace").split()
    kind, dims = (fields[1], fields[2:]) if len(fields) > 1 else (None, [])
    if kind in ("conv", "deconv"):
        if len(dims) != 6 or not all(map(_is_count, dims)):
            raise CheckpointFormatError(f"{kind} descriptor needs six "
                                        f"integers, got {line!r}")
        out_c, in_c, kh, kw, stride, bias_len = map(int, dims)
        # The bias sits on the side the layer emits: a deconv stores the
        # kernel of the conv it is the adjoint of.
        emits = out_c if kind == "conv" else in_c
        if bias_len != emits:
            raise CheckpointFormatError(
                f"layer {index} ({kind}) has {bias_len} bias entries but "
                f"emits {emits} channels")
        weights = _read_array(f, (out_c, in_c, kh, kw), size)
        bias = _read_array(f, (bias_len,), size)
        try:
            kernel = KernelSpec(out_c, in_c, kh, kw, stride, weights, bias)
        except ValueError as exc:
            raise CheckpointFormatError(f"bad {kind} kernel: {exc}") from None
        layer = ConvLayer(kernel) if kind == "conv" else DeconvLayer(kernel)
    elif kind in STATELESS_LAYERS:
        layer = STATELESS_LAYERS[kind]()
    else:
        raise CheckpointFormatError(f"no known layer in descriptor {line!r}")
    # Only the bytes save_network writes for this layer are accepted.
    if line != _descriptor(layer):
        raise CheckpointFormatError(f"malformed layer descriptor {line!r}")
    return layer


def _check_chain(layers) -> None:
    """Each conv/deconv must consume the channels the previous one emits;
    the stateless layers between them keep the channel count."""
    width = None
    for i, layer in enumerate(layers):
        if not isinstance(layer, (ConvLayer, DeconvLayer)):
            continue
        k = layer.kernel
        # A deconv stores the kernel of the conv it is the adjoint of.
        takes, gives = (k.in_channels, k.out_channels) \
            if isinstance(layer, ConvLayer) \
            else (k.out_channels, k.in_channels)
        if width is not None and takes != width:
            raise CheckpointFormatError(
                f"layer {i} ({layer.kind}) takes {takes} channels, but the "
                f"layers before it emit {width}")
        width = gives


def load_network(path) -> Network:
    """Read a save_network file; other bytes, and layers whose channel
    counts do not chain, raise CheckpointFormatError."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if f.readline() != MAGIC:
            raise CheckpointFormatError("bad checkpoint header")
        line = f.readline()
        head = line.decode("ascii", "replace").split()
        if len(head) != 2 or not _is_count(head[1]) \
                or line != f"layers {int(head[1])}\n".encode("ascii"):
            raise CheckpointFormatError(f"expected 'layers <count>', "
                                        f"got {line!r}")
        layers = [_read_layer(f, size, i) for i in range(int(head[1]))]
        if f.read(1):
            raise CheckpointFormatError("bytes after the last declared layer")
    _check_chain(layers)
    return Network(layers)
