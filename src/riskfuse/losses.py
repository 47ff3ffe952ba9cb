"""Masked multi-label losses for partially labeled records.

Labels take three states per task: 1 (positive), 0 (negative), and unknown,
stored as -1. Unknown entries contribute nothing, neither to loss values nor
to gradients. Per-record losses sum over the labeled tasks (no averaging;
the class weights already carry the normalization), and both loss families
fold the sign into a single overall negation so every term is nonnegative.

Confidences are clamped to [1e-7, 1 - 1e-7] before any logarithm.

A classification loss is one value that names its family and carries its
parameters: a `ClassWeights` selects weighted BCE (`avg`, the weights from
`class_weights`), an `ASLConfig` the asymmetric loss (`asl`).

Training takes the loss batched, through the graph builders
`classification_loss_graph` and `reconstruction_loss_graph`. Each is one
autodiff node with a hand-written VJP. It does the arithmetic of the
generic primitives and of `ad.backward` over them, so values and gradients
equal that graph's bit for bit. `tests/loss_oracle.py` keeps that graph,
and the loss of one record in plain float math as a scalar reference. A NaN
or Inf in either pass raises NonFiniteError naming the node,
`classification_loss` or `reconstruction_loss`. Forward only, the
reconstruction loss also takes a stack of copies' decodes of one batch, as
the projector nodes do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

__all__ = [
    "UNKNOWN",
    "PROB_EPS",
    "ASLConfig",
    "ClassWeights",
    "validate_labels",
    "class_weights",
    "classification_loss_graph",
    "reconstruction_loss_graph",
]

UNKNOWN = -1
PROB_EPS = 1e-7
# node names a NonFiniteError reports
CLASSIFICATION = "classification_loss"
RECONSTRUCTION = "reconstruction_loss"


@dataclass(frozen=True)
class ASLConfig:
    """Asymmetric-loss knobs: probability margin m and negative focus gamma."""

    margin: float = 0.05
    gamma_neg: float = 4.0

    def __post_init__(self):
        if not 0.0 <= self.margin <= 1.0:
            raise ValueError(f"margin must lie in [0, 1], got {self.margin}")
        if not 0.0 <= self.gamma_neg < np.inf:
            raise ValueError(f"gamma_neg must be finite and nonnegative, got {self.gamma_neg}")


@dataclass
class ClassWeights:
    """Per-task positive/negative weights for the weighted-BCE family."""

    pos: np.ndarray
    neg: np.ndarray

    def __post_init__(self):
        self.pos = np.asarray(self.pos, dtype=np.float64)
        self.neg = np.asarray(self.neg, dtype=np.float64)
        if self.pos.shape != self.neg.shape or self.pos.ndim != 1:
            raise ValueError("weight vectors must be 1-D and the same length")
        if not (np.all(np.isfinite(self.pos)) and np.all(np.isfinite(self.neg))):
            raise ValueError("weights must be finite")
        if np.any(self.pos <= 0) or np.any(self.neg <= 0):
            raise ValueError("weights must be positive")


def validate_labels(labels) -> np.ndarray:
    arr = np.asarray(labels)
    if not np.all(np.isin(arr, (UNKNOWN, 0, 1))):
        raise ValueError("labels must be -1 (unknown), 0, or 1")
    return arr.astype(np.int64)


def class_weights(labels) -> ClassWeights:
    """Inverse-prevalence weights from a (n, K) label matrix.

    For task k with n_k labeled entries, P_k positives and N_k negatives:
    w_pos = n_k / (2 K P_k) and w_neg = n_k / (2 K N_k). Every task needs at
    least one positive and one negative among its labeled entries.
    """
    arr = validate_labels(labels)
    if arr.ndim != 2:
        raise ValueError(f"labels must be (records, tasks), got shape {arr.shape}")
    n_tasks = arr.shape[1]
    pos = np.zeros(n_tasks)
    neg = np.zeros(n_tasks)
    for k in range(n_tasks):
        col = arr[:, k]
        p_k = int(np.sum(col == 1))
        n_k_neg = int(np.sum(col == 0))
        n_k = p_k + n_k_neg
        if p_k == 0 or n_k_neg == 0:
            raise ValueError(
                f"task {k}: needs at least one positive and one negative labeled "
                f"record (got {p_k} positive, {n_k_neg} negative)")
        pos[k] = n_k / (2.0 * n_tasks * p_k)
        neg[k] = n_k / (2.0 * n_tasks * n_k_neg)
    return ClassWeights(pos=pos, neg=neg)


# ---------------------------------------------------------------------------
# graph builders used by training (batched, differentiable)


def classification_loss_graph(phi: ad.Tensor, labels, loss: ClassWeights | ASLConfig) -> ad.Tensor:
    """Per-record masked classification sums for a (B, K) confidence tensor,
    as one node, of the family `loss` names by its type.

    Unknown labels enter as multiplicative zero masks, which keeps their
    gradient contribution exactly zero. `labels` must already pass
    `validate_labels`: training checks its dataset once, not every batch.
    Returns a (B,) tensor.
    """
    y = np.asarray(labels)
    if y.shape != phi.shape:
        raise ValueError(f"labels shape {y.shape} does not match confidences {phi.shape}")
    pos_mask = (y == 1).astype(np.float64)
    neg_mask = (y == 0).astype(np.float64)
    p = np.clip(phi.value, PROB_EPS, 1.0 - PROB_EPS)
    log_p = np.log(p)
    if isinstance(loss, ClassWeights):
        if loss.pos.size != y.shape[-1]:
            raise ValueError("class weight length does not match the task count")
        pos_w, neg_w = pos_mask * loss.pos, neg_mask * loss.neg
        q = 1.0 - p
        terms = pos_w * log_p + neg_w * np.log(q)
    elif isinstance(loss, ASLConfig):
        shifted = p - loss.margin
        p_m = np.maximum(shifted, 0.0)
        q, q_m = 1.0 - p, 1.0 - p_m
        pos_w = pos_mask * q
        neg_w = neg_mask * np.power(p_m, loss.gamma_neg)
        log_q_m = np.log(q_m)
        terms = pos_w * log_p + neg_w * log_q_m
    else:
        raise TypeError(f"loss must be ClassWeights or ASLConfig, got {type(loss).__name__}")
    out = -terms.sum(axis=-1)
    if not ad.records(phi):
        return ad.Tensor(out, op=CLASSIFICATION)
    in_clip = ((phi.value >= PROB_EPS) & (phi.value <= 1.0 - PROB_EPS)).astype(np.float64)

    def vjp(g):
        g = (-g)[..., np.newaxis]
        if isinstance(loss, ClassWeights):
            g_p = (g * pos_w) * (1.0 / p) + -((g * neg_w) * (1.0 / q))
            return g_p * in_clip
        # p reaches the terms three ways: through 1 - p, log p and p - margin;
        # their gradients are summed in that order, as `ad.backward` sums them
        g_p = -((g * log_p) * pos_mask) + (g * pos_w) * (1.0 / p)
        gamma = loss.gamma_neg
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.zeros_like(p_m) if gamma == 0.0 else gamma * np.power(p_m, gamma - 1.0)
        g_p_m = ((g * log_q_m) * neg_mask) * slope + -((g * neg_w) * (1.0 / q_m))
        g_p = g_p + g_p_m * (shifted > 0.0).astype(np.float64)
        return g_p * in_clip

    return ad.Tensor(out, requires_grad=True, op=CLASSIFICATION, parents=(phi,), vjps=(vjp,))


def reconstruction_loss_graph(e, e_hat: ad.Tensor) -> ad.Tensor:
    """Per-record squared-L2 reconstruction error, (B,) tensor, as one node.

    Forward only, `e_hat` may be a (C, B, d_e) stack of copies' decodes of
    the one (B, d_e) batch `e`; the result is then (C, B).
    """
    target = e if isinstance(e, ad.Tensor) else ad.constant(e)
    stacked = e_hat.ndim == target.ndim + 1
    if e_hat.shape[stacked:] != target.shape:
        raise ValueError(f"embedding shapes disagree: {target.shape} vs {e_hat.shape}")
    diff = e_hat.value - target.value
    out = (diff * diff).sum(axis=-1)
    if not ad.records(e_hat, target):
        return ad.Tensor(out, op=RECONSTRUCTION)
    if stacked:
        raise ValueError(f"{RECONSTRUCTION}: a stack of copies is forward only")

    def vjp(g):
        # both factors of diff * diff are diff: the gradient is g * diff twice
        half = g[..., np.newaxis] * diff
        return half + half

    return ad.Tensor(out, requires_grad=True, op=RECONSTRUCTION, parents=(e_hat, target),
                     vjps=(vjp, lambda g: -vjp(g)))
