"""Multimodal multi-label risk prediction on a frozen language backbone.

Trainable per-source projectors map encoder embeddings into the token space
of a small frozen decoder-only transformer; designated vocabulary logits,
squashed through a sigmoid, give per-task confidences. Training minimizes a
reconstruction term plus a masked classification loss (weighted BCE or an
asymmetric variant) that ignores unknown labels entirely.
"""

__version__ = "0.1.0"

from .autodiff import (GradCheckReport, NonFiniteError, ParamSet, Tensor,
                       eval_with_grads, finite_diff_check)
from .datagen import GenConfig, TaskSpec, build, generate, planted_profile, table1_profile
from .encoders import FeatureStats, SourceSpec
from .frozenlm import DesignatedVocab, FrozenWeights, LMConfig, init_frozen
from .losses import ASLConfig, ClassWeights, UNKNOWN, class_weights
from .metrics import TaskMetrics, f1_score, metrics_for_run
from .pipeline import (Checkpoint, TrainConfig, evaluate_protocol, gradcheck_suite,
                       load_checkpoint, predict, save_checkpoint, split_by_patient, train)
from .projector import ProjectorConfig, ProjectorParams, init_projector
from .storage import Dataset, load_dataset, write_dataset

__all__ = [
    "__version__",
    "ASLConfig", "Checkpoint", "ClassWeights", "Dataset", "DesignatedVocab",
    "FeatureStats", "FrozenWeights", "GenConfig", "GradCheckReport", "LMConfig",
    "NonFiniteError", "ParamSet", "ProjectorConfig", "ProjectorParams",
    "SourceSpec", "TaskMetrics", "TaskSpec", "Tensor",
    "TrainConfig", "UNKNOWN",
    "build", "class_weights", "evaluate_protocol",
    "eval_with_grads", "f1_score", "finite_diff_check", "generate",
    "gradcheck_suite", "init_frozen", "init_projector", "load_checkpoint",
    "load_dataset", "metrics_for_run", "planted_profile", "predict",
    "save_checkpoint", "split_by_patient", "table1_profile", "train",
    "write_dataset",
]
