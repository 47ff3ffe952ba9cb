"""Reference forms of the loss outside the backbone.

`riskfuse.projector` and `riskfuse.losses` run each layer (projection,
reconstruction, reconstruction error, classification loss) as one autodiff
node with a hand-written VJP, and `pipeline.build_joint_loss` forms the
group losses on stacked rows. This module keeps the primitive-by-primitive
graph they replaced, built from `oracle_ops`; tests require the two to
agree bit for bit, in values and in every gradient. It also keeps the loss
of one record as plain float math, the scalar reference both are checked
against.
"""

import math

import numpy as np

import riskfuse.autodiff as ad
from riskfuse.losses import PROB_EPS, UNKNOWN, ASLConfig, ClassWeights, validate_labels
from riskfuse.pipeline import _confidence_graph
from riskfuse.projector import _rows

from oracle_ops import (clip, getitem, log, matmul, maximum_const, neg, power_const, sub,
                        swapaxes, tanh)


def project(pp, e) -> ad.Tensor:
    rows = _rows(e, pp.config.embed_dim, "embedding")
    return tanh(matmul(rows, swapaxes(pp.tensors["enc_w"], 0, 1)) + pp.tensors["enc_b"])


def reconstruct(pp, t) -> ad.Tensor:
    rows = _rows(t, pp.config.token_dim, "token")
    return matmul(rows, swapaxes(pp.tensors["dec_w"], 0, 1)) + pp.tensors["dec_b"]


def reconstruction_loss_graph(e, e_hat: ad.Tensor) -> ad.Tensor:
    target = e if isinstance(e, ad.Tensor) else ad.constant(e)
    diff = sub(e_hat, target)
    return (diff * diff).sum(axis=-1)


def classification_loss_graph(phi: ad.Tensor, labels, kind: str, *, weights=None,
                              asl: ASLConfig | None = None) -> ad.Tensor:
    y = validate_labels(labels)
    pos_mask = (y == 1).astype(np.float64)
    neg_mask = (y == 0).astype(np.float64)
    p = clip(phi, PROB_EPS, 1.0 - PROB_EPS)
    if kind == "avg":
        terms = pos_mask * weights.pos * log(p) + neg_mask * weights.neg * log(sub(1.0, p))
    else:
        cfg = asl or ASLConfig()
        p_m = maximum_const(sub(p, cfg.margin), 0.0)
        pos_part = pos_mask * sub(1.0, p) * log(p)
        neg_part = neg_mask * power_const(p_m, cfg.gamma_neg) * log(sub(1.0, p_m))
        terms = pos_part + neg_part
    return neg(terms.sum(axis=-1))


def build_joint_loss(groups, frozen, designated, emb_batch: dict, labels_batch,
                     loss_kind: str, beta: float, weights=None, asl=None,
                     group_losses: list | None = None):
    """`pipeline.build_joint_loss` with one slice, product, sum and mean
    per group, joined by a chain of adds."""

    def computation(_params=None):
        recon, sequences = [], []
        for group in groups:
            rec = None
            tokens = []
            for name, pp in group.items():
                e = ad.constant(emb_batch[name])
                t = project(pp, e)
                r = reconstruction_loss_graph(e, reconstruct(pp, t))
                rec = r if rec is None else rec + r
                tokens.append(t)
            recon.append(rec)
            sequences.append(tokens)
        phi = _confidence_graph(sequences, frozen, designated)
        cls = classification_loss_graph(phi, labels_batch, loss_kind,
                                        weights=weights, asl=asl)
        losses = []
        start = 0
        for rec in recon:
            rows = cls if len(recon) == 1 else getitem(cls, np.s_[start:start + rec.shape[0]])
            start += rec.shape[0]
            losses.append((rec + beta * rows).mean())
        if group_losses is not None:
            group_losses.append([float(loss.value) for loss in losses])
        return sum(losses[1:], losses[0])

    return computation


# ---------------------------------------------------------------------------
# the loss of one record, in plain float math


def _clamp(phi: float) -> float:
    return min(max(float(phi), PROB_EPS), 1.0 - PROB_EPS)


def wbce_term(y: int, phi: float, w_pos: float, w_neg: float) -> float:
    """-[y w_pos log(phi) + (1-y) w_neg log(1-phi)] for one binary label."""
    if y not in (0, 1):
        raise ValueError(f"wbce_term takes a resolved binary label, got {y}")
    p = _clamp(phi)
    return -(y * w_pos * math.log(p) + (1 - y) * w_neg * math.log(1.0 - p))


def asl_term(y: int, phi: float, cfg: ASLConfig) -> float:
    """Asymmetric term: -(1-phi) log(phi) for positives; for negatives the
    shifted probability p_m = max(phi - m, 0) gives -(p_m)^gamma log(1-p_m)."""
    if y not in (0, 1):
        raise ValueError(f"asl_term takes a resolved binary label, got {y}")
    p = _clamp(phi)
    if y == 1:
        return -(1.0 - p) * math.log(p)
    p_m = max(p - cfg.margin, 0.0)
    return -(p_m ** cfg.gamma_neg) * math.log(1.0 - p_m)


def masked_multilabel_loss(labels, phis, kind: str, *, weights: ClassWeights | None = None,
                           asl: ASLConfig | None = None) -> float:
    """Sum of per-task terms over the labeled entries of one record."""
    y = validate_labels(labels)
    phi = np.asarray(phis, dtype=np.float64)
    if y.shape != phi.shape or y.ndim != 1:
        raise ValueError("labels and confidences must be matching 1-D vectors")
    total = 0.0
    for k in range(y.size):
        if y[k] == UNKNOWN:
            continue
        if kind == "avg":
            if weights is None:
                raise ValueError("avg loss needs class weights")
            total += wbce_term(int(y[k]), float(phi[k]), float(weights.pos[k]), float(weights.neg[k]))
        elif kind == "asl":
            total += asl_term(int(y[k]), float(phi[k]), asl or ASLConfig())
        else:
            raise ValueError(f"unknown loss kind {kind!r}")
    return total


def projector_loss(e, e_hat, labels, phis, beta: float, kind: str, *,
                   weights: ClassWeights | None = None,
                   asl: ASLConfig | None = None) -> float:
    """Squared-L2 reconstruction plus beta times the masked classification sum."""
    e = np.asarray(e, dtype=np.float64)
    e_hat = np.asarray(e_hat, dtype=np.float64)
    if e.shape != e_hat.shape:
        raise ValueError(f"embedding shapes disagree: {e.shape} vs {e_hat.shape}")
    rec = float(np.sum((e - e_hat) ** 2))
    return rec + beta * masked_multilabel_loss(labels, phis, kind, weights=weights, asl=asl)
