"""Graph classifier for per-channel EEG band features.

A small numpy library around one architecture: features propagate over a
learnable symmetric channel graph initialized from electrode geometry,
then a pooled linear head classifies. Two optional regularizers, a
reversed per-node domain discriminator and soft training labels, target
the cross-subject and noisy-label problems respectively.
"""
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import (
    FeatureDataset,
    SynthConfig,
    UnlabeledSet,
    band_select,
    load_dataset,
    resample_target,
    save_dataset,
    split_loso,
    split_subject_dependent,
    synthesize,
)
from .electrodes import (
    ElectrodeLayout,
    GlobalPairSet,
    builtin_layout,
    calibrate_delta,
    correlation_adjacency,
    default_global_pairs,
    init_local_adjacency,
    initial_adjacency,
    load_global_pairs,
    load_layout,
    pairwise_distances,
    ring_layout,
    sparsity_fraction,
)
from .errors import (
    ConfigError,
    CorruptBundleError,
    DivergenceError,
    EegraphError,
    IsolatedNodeError,
    LayoutError,
)
from .eval import EvalReport, activation_map, evaluate, run_protocol, top_k_connections
from .gradients import (
    class_backward,
    domain_backward,
    grad_check,
    model_grad_check,
    step_directions,
)
from .graph import SymmetricAdjacency, degree, normalized_propagator, propagate
from .losses import (
    LossBreakdown,
    composite_directions,
    convert_labels,
    domain_loss,
    grl_beta,
    kl_loss,
    l1_penalty,
    seed3_distribution,
    seed4_distribution,
)
from .model import domain_forward, forward, init_params, predict, predict_proba
from .optim import AdamConfig, AdamState, adam_step
from .params import GradientSet, ModelConfig, ParamSet
from .train import TrainConfig, TrainResult, train

__version__ = "0.1.0"

__all__ = [
    "AdamConfig", "AdamState", "Checkpoint", "ConfigError", "CorruptBundleError",
    "DivergenceError", "EegraphError", "ElectrodeLayout", "EvalReport",
    "FeatureDataset", "GlobalPairSet", "GradientSet", "IsolatedNodeError",
    "LayoutError", "LossBreakdown", "ModelConfig", "ParamSet", "SymmetricAdjacency",
    "SynthConfig", "TrainConfig", "TrainResult", "UnlabeledSet",
    "activation_map", "adam_step", "band_select", "builtin_layout",
    "calibrate_delta", "class_backward", "composite_directions",
    "convert_labels", "correlation_adjacency", "default_global_pairs", "degree",
    "domain_backward", "domain_forward", "domain_loss", "evaluate", "forward",
    "grad_check", "grl_beta", "init_local_adjacency", "init_params",
    "initial_adjacency", "kl_loss", "l1_penalty", "load_checkpoint",
    "load_dataset", "load_global_pairs", "load_layout", "model_grad_check",
    "normalized_propagator", "pairwise_distances", "predict", "predict_proba",
    "propagate", "resample_target", "ring_layout", "run_protocol",
    "save_checkpoint", "save_dataset", "seed3_distribution", "seed4_distribution",
    "sparsity_fraction", "split_loso", "split_subject_dependent",
    "step_directions", "synthesize", "top_k_connections", "train",
]
