"""Minimal CNN stack: layers, losses, the optimizer, gradient checking."""

from .layers import (
    ConvLayer,
    DeconvLayer,
    ReLULayer,
    SigmoidLayer,
    BypassLayer,
    Pad1Layer,
    Crop1Layer,
    WrapShiftLayer,
    UnwrapShiftLayer,
    Network,
    conv_forward,
    deconv_forward,
)
from .loss import bce_loss, counted_bce_loss
from .optim import OptimizerConfig, NetworkOptimizer
from .gradcheck import (MarginNotFound, grad_check, gradient_error,
                        network_loss, relu_margin, draw_input_with_margin)
from .checkpoint import save_network, load_network, CheckpointFormatError

__all__ = [
    "ConvLayer", "DeconvLayer", "ReLULayer", "SigmoidLayer", "BypassLayer",
    "Pad1Layer", "Crop1Layer", "WrapShiftLayer", "UnwrapShiftLayer",
    "Network", "conv_forward", "deconv_forward", "bce_loss",
    "counted_bce_loss",
    "OptimizerConfig", "NetworkOptimizer", "grad_check", "gradient_error",
    "network_loss",
    "relu_margin", "draw_input_with_margin", "MarginNotFound", "save_network",
    "load_network", "CheckpointFormatError",
]
