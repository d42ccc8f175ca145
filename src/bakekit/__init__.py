"""bakekit: batch-ensembled soft-target self-distillation at desk scale."""

__version__ = "0.1.0"

from .bake import BakeConfig, affinity_matrix, build_soft_targets
from .losses import cross_entropy, kl_distillation
from .models import ModelDescriptor, init
from .numerics import Tensor
from .sampling import SamplerConfig, epoch_batches
from .trainer import TrainConfig, batch_loss, evaluate, train

__all__ = [
    "BakeConfig",
    "ModelDescriptor",
    "SamplerConfig",
    "Tensor",
    "TrainConfig",
    "affinity_matrix",
    "batch_loss",
    "build_soft_targets",
    "cross_entropy",
    "epoch_batches",
    "evaluate",
    "init",
    "kl_distillation",
    "train",
]
