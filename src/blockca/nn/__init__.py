"""Minimal CNN stack: layers, losses, optimizers, gradient checking."""

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
    activation_forward,
    geometry_forward,
)
from .loss import bce_loss
from .optim import OptimizerConfig, NetworkOptimizer, optimizer_step, init_optimizer_state
from .gradcheck import (MarginNotFound, grad_check, network_loss, relu_margin,
                        draw_input_with_margin)
from .checkpoint import save_network, load_network, CheckpointFormatError

__all__ = [
    "ConvLayer", "DeconvLayer", "ReLULayer", "SigmoidLayer", "BypassLayer",
    "Pad1Layer", "Crop1Layer", "WrapShiftLayer", "UnwrapShiftLayer",
    "Network", "conv_forward", "deconv_forward", "activation_forward",
    "geometry_forward", "bce_loss", "OptimizerConfig", "NetworkOptimizer",
    "optimizer_step", "init_optimizer_state", "grad_check", "network_loss",
    "relu_margin", "draw_input_with_margin", "MarginNotFound", "save_network",
    "load_network", "CheckpointFormatError",
]
