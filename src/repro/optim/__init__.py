"""Update rules: plain SGD, momentum SGD, and the EASGD family (Eqs 1-6)."""

from repro.optim.easgd import (
    EASGDHyper,
    elastic_center_update,
    elastic_center_update_single,
    elastic_momentum_worker_update,
    elastic_worker_update,
)
from repro.optim.quantize import quantize_gradient
from repro.optim.sgd import MomentumRule, SGDRule

__all__ = [
    "SGDRule",
    "MomentumRule",
    "elastic_worker_update",
    "elastic_center_update",
    "elastic_center_update_single",
    "elastic_momentum_worker_update",
    "EASGDHyper",
    "quantize_gradient",
]
