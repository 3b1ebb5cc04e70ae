from .network import (
    LayerSpec,
    Network,
    conv3,
    dense,
    fingerprint,
    flatten,
    maxpool2,
    softmax,
)
from .gradcheck import gradient_check, relative_error
from .checkpoint import load_params, save_params

__all__ = [
    "LayerSpec",
    "Network",
    "conv3",
    "dense",
    "fingerprint",
    "flatten",
    "maxpool2",
    "softmax",
    "gradient_check",
    "relative_error",
    "load_params",
    "save_params",
]
