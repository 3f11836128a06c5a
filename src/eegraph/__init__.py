"""Graph classifier for per-channel EEG band features.

A small numpy library around one architecture: features propagate over a
learnable symmetric channel graph initialized from electrode geometry,
then a pooled linear head classifies. Two optional regularizers, a
reversed per-node domain discriminator and soft training labels, target
the cross-subject and noisy-label problems respectively.
"""
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import SynthConfig, load_dataset, save_dataset, split_loso, synthesize
from .errors import (
    ConfigError,
    CorruptBundleError,
    DivergenceError,
    EegraphError,
    IsolatedNodeError,
    LayoutError,
)
from .eval import evaluate, run_protocol
from .train import TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "SynthConfig", "synthesize", "load_dataset", "save_dataset", "split_loso",
    "TrainConfig", "train", "run_protocol", "evaluate",
    "Checkpoint", "save_checkpoint", "load_checkpoint",
    "EegraphError", "ConfigError", "CorruptBundleError", "DivergenceError",
    "IsolatedNodeError", "LayoutError",
]
