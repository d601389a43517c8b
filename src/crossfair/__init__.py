"""Two-domain implicit-feedback recommendation with group-fairness-aware
training, top-K evaluation, and transport-based bound verification."""

from .data import (
    CrossDomainDataset,
    SplitDataset,
    SynthConfig,
    generate_synthetic,
    load_attributes,
    load_dataset,
    load_interactions,
    split_per_user,
)
from .backbone import Backbone, init, load_snapshot, save_snapshot
from .sampler import GroupLossTracker, temperature
from .gain import GainEstimator, GainReport, estimate_gain
from .trainer import Adam, TrainConfig, TrainedModel, train
from .metrics import EvaluationReport, evaluate, paired_ttest, ugf
from .theory import (
    BoundReport,
    EmbeddingCloud,
    deviation_bound,
    lipschitz_estimate,
    rademacher_estimate,
    theorem1_bound,
    wasserstein1,
)

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "Backbone",
    "BoundReport",
    "CrossDomainDataset",
    "EmbeddingCloud",
    "EvaluationReport",
    "GainEstimator",
    "GainReport",
    "GroupLossTracker",
    "SplitDataset",
    "SynthConfig",
    "TrainConfig",
    "TrainedModel",
    "deviation_bound",
    "estimate_gain",
    "evaluate",
    "generate_synthetic",
    "init",
    "lipschitz_estimate",
    "load_attributes",
    "load_dataset",
    "load_interactions",
    "load_snapshot",
    "paired_ttest",
    "rademacher_estimate",
    "save_snapshot",
    "split_per_user",
    "temperature",
    "theorem1_bound",
    "train",
    "ugf",
    "wasserstein1",
]
