"""Numeric core: autograd tensors, layers, Adam, gradient checking,
seeded randomness, and the parameter container format."""

from .checkpoint import (
    checkpoint_sha256,
    load_checkpoint,
    save_checkpoint,
)
from .gradcheck import GradCheckReport, central_difference, grad_check
from .layers import LSTM, Dense, flatten_parameters, glorot_uniform
from .optim import Adam, clip_gradients
from .rng import RngStream, derive_seed
from .tensor import (
    Tensor,
    concat,
    cross_entropy,
    dropout,
    ensure_tensor,
    layer_norm,
    log_softmax,
    mse_loss,
    no_grad,
    parameter,
    softmax,
    stack,
    take_rows,
)

__all__ = [
    "Adam",
    "Dense",
    "GradCheckReport",
    "LSTM",
    "RngStream",
    "Tensor",
    "central_difference",
    "checkpoint_sha256",
    "clip_gradients",
    "concat",
    "cross_entropy",
    "derive_seed",
    "dropout",
    "ensure_tensor",
    "flatten_parameters",
    "glorot_uniform",
    "grad_check",
    "layer_norm",
    "load_checkpoint",
    "log_softmax",
    "mse_loss",
    "no_grad",
    "parameter",
    "save_checkpoint",
    "softmax",
    "stack",
    "take_rows",
]
