"""The loss graph outside the backbone as generic autodiff primitives.

`riskfuse.projector` and `riskfuse.losses` run each layer (projection,
reconstruction, reconstruction error, classification loss) as one autodiff
node with a hand-written VJP, and `pipeline.build_joint_loss` forms the
group losses on stacked rows. This module keeps the primitive-by-primitive
form they replaced; tests require the two to agree bit for bit, in values
and in every gradient.
"""

import numpy as np

import riskfuse.autodiff as ad
from riskfuse.losses import PROB_EPS, ASLConfig, validate_labels
from riskfuse.pipeline import _confidence_graph
from riskfuse.projector import _rows


def project(pp, e) -> ad.Tensor:
    rows = _rows(e, pp.config.embed_dim, "embedding")
    return ad.tanh(rows @ pp.tensor("enc_w").swapaxes(0, 1) + pp.tensor("enc_b"))


def reconstruct(pp, t) -> ad.Tensor:
    rows = _rows(t, pp.config.token_dim, "token")
    return rows @ pp.tensor("dec_w").swapaxes(0, 1) + pp.tensor("dec_b")


def reconstruction_loss_graph(e, e_hat: ad.Tensor) -> ad.Tensor:
    target = e if isinstance(e, ad.Tensor) else ad.constant(e)
    diff = e_hat - target
    return (diff * diff).sum(axis=-1)


def classification_loss_graph(phi: ad.Tensor, labels, kind: str, *, weights=None,
                              asl: ASLConfig | None = None) -> ad.Tensor:
    y = validate_labels(labels)
    pos_mask = (y == 1).astype(np.float64)
    neg_mask = (y == 0).astype(np.float64)
    p = phi.clip(PROB_EPS, 1.0 - PROB_EPS)
    if kind == "avg":
        terms = pos_mask * weights.pos * p.log() + neg_mask * weights.neg * (1.0 - p).log()
    else:
        cfg = asl or ASLConfig()
        p_m = (p - cfg.margin).maximum(0.0)
        pos_part = pos_mask * (1.0 - p) * p.log()
        neg_part = neg_mask * (p_m ** cfg.gamma_neg) * (1.0 - p_m).log()
        terms = pos_part + neg_part
    return -terms.sum(axis=-1)


def build_joint_loss(groups, frozen, designated, emb_batch: dict, labels_batch,
                     loss_kind: str, beta: float, weights=None, asl=None,
                     group_losses: list | None = None):
    """`pipeline.build_joint_loss` with one slice, product, sum and mean
    per group, joined by a chain of adds."""
    groups = [groups] if isinstance(groups, dict) else list(groups)

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
        positions = [p[0] if len(p) == 1 else ad.concat(p, axis=0) for p in zip(*sequences)]
        phi = _confidence_graph(positions, frozen, designated)
        cls = classification_loss_graph(phi, labels_batch, loss_kind,
                                        weights=weights, asl=asl)
        losses = []
        start = 0
        for rec in recon:
            rows = cls if len(recon) == 1 else cls[start:start + rec.shape[0]]
            start += rec.shape[0]
            losses.append((rec + beta * rows).mean())
        if group_losses is not None:
            group_losses.append([float(loss.value) for loss in losses])
        return sum(losses[1:], losses[0])

    return computation
