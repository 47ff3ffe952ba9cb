"""Frozen decoder-only transformer used as a fixed nonlinear readout.

Projected source tokens are fed as a short sequence of d_model vectors
(wide-open, no token embedding table on the way in). The backbone is
pre-norm with causal multi-head attention and relu feed-forward blocks,
sinusoidal positions, Gaussian(0, 0.02^2) weight init, unit layer-norm
gains, and a bias-free d_model x V output head. All weights are frozen:
they are constants in the graph, gradients flow through them into the
inputs but never into them.

Task confidences come from K designated vocabulary indices: logits are
averaged over sequence positions and phi_k = sigmoid(logit[designated_k]).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import seeding
from . import autodiff as ad

__all__ = [
    "LMConfig",
    "FrozenWeights",
    "init_frozen",
    "lm_forward",
    "DesignatedVocab",
    "draw_designated",
]

LN_EPS = 1e-5
MASK_NEG = -1e9  # additive causal mask; exp() underflows to exactly 0.0


@dataclass(frozen=True)
class LMConfig:
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 2
    vocab: int = 256
    max_seq: int = 8
    seed: int = 0

    def __post_init__(self):
        if min(self.d_model, self.n_layers, self.n_heads, self.vocab, self.max_seq) <= 0:
            raise ValueError("all transformer dimensions must be positive")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} must be divisible by n_heads {self.n_heads}")


def _sinusoidal_table(max_seq: int, d_model: int) -> np.ndarray:
    pos = np.arange(max_seq, dtype=np.float64)[:, None]
    even = np.arange(0, d_model, 2, dtype=np.float64)
    angles = pos / np.power(10000.0, even / d_model)
    table = np.zeros((max_seq, d_model))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles[:, : d_model // 2])
    return table


class FrozenWeights:
    """Constant tensors of the backbone, reproducible from LMConfig."""

    def __init__(self, config: LMConfig):
        self.config = config
        gen = seeding.rng(config.seed, "frozen-lm")
        d = config.d_model
        hidden = 4 * d

        def w(*shape):
            return ad.constant(gen.normal(0.0, 0.02, size=shape))

        self.layers = []
        for _ in range(config.n_layers):
            self.layers.append({
                "ln1_g": ad.constant(np.ones(d)),
                "ln1_b": ad.constant(np.zeros(d)),
                "wq": w(d, d),
                "wk": w(d, d),
                "wv": w(d, d),
                "wo": w(d, d),
                "ln2_g": ad.constant(np.ones(d)),
                "ln2_b": ad.constant(np.zeros(d)),
                "ff1": w(d, hidden),
                "ff2": w(hidden, d),
            })
        self.ln_f_g = ad.constant(np.ones(d))
        self.ln_f_b = ad.constant(np.zeros(d))
        self.head = w(d, config.vocab)
        self.positions = ad.constant(_sinusoidal_table(config.max_seq, d))

    def named_weights(self):
        for li, layer in enumerate(self.layers):
            for key in sorted(layer):
                yield f"layer{li}.{key}", layer[key].value
        yield "ln_f_g", self.ln_f_g.value
        yield "ln_f_b", self.ln_f_b.value
        yield "head", self.head.value
        yield "positions", self.positions.value

    def weights_hash(self) -> str:
        digest = hashlib.sha256()
        for name, value in self.named_weights():
            digest.update(name.encode("utf-8"))
            digest.update(np.ascontiguousarray(value).tobytes())
        return digest.hexdigest()


def init_frozen(config: LMConfig) -> FrozenWeights:
    return FrozenWeights(config)


def _layer_norm(x: ad.Tensor, gain: ad.Tensor, offset: ad.Tensor) -> ad.Tensor:
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered * ((var + LN_EPS) ** -0.5) * gain + offset


def _attention(x: ad.Tensor, layer: dict, n_heads: int, mask: np.ndarray) -> ad.Tensor:
    d = x.shape[-1]
    dh = d // n_heads
    q = x @ layer["wq"]
    k = x @ layer["wk"]
    v = x @ layer["wv"]
    scale = 1.0 / np.sqrt(dh)
    heads = []
    for h in range(n_heads):
        sl = (..., slice(h * dh, (h + 1) * dh))
        qh, kh, vh = q[sl], k[sl], v[sl]
        scores = (qh @ kh.swapaxes(-1, -2)) * scale + mask
        heads.append(ad.softmax_last(scores) @ vh)
    return ad.concat(heads, axis=-1) @ layer["wo"]


def lm_forward(weights: FrozenWeights, x) -> ad.Tensor:
    """Logits over the vocabulary at each position.

    Accepts (S, d_model) or batched (B, S, d_model); the causal mask keeps
    position i blind to positions j > i exactly (masked scores underflow to
    zero attention weight, not merely something small).
    """
    t = x if isinstance(x, ad.Tensor) else ad.constant(x)
    if t.ndim not in (2, 3):
        raise ValueError(f"input must be (S, d) or (B, S, d), got shape {t.shape}")
    cfg = weights.config
    seq_len = t.shape[-2]
    if t.shape[-1] != cfg.d_model:
        raise ValueError(f"input width {t.shape[-1]} does not match d_model {cfg.d_model}")
    if seq_len == 0:
        raise ValueError("empty sequence")
    if seq_len > cfg.max_seq:
        raise ValueError(f"sequence length {seq_len} exceeds max_seq {cfg.max_seq}")
    mask = np.triu(np.full((seq_len, seq_len), MASK_NEG), k=1)
    h = t + weights.positions[:seq_len]
    for layer in weights.layers:
        h = h + _attention(_layer_norm(h, layer["ln1_g"], layer["ln1_b"]), layer,
                           cfg.n_heads, mask)
        f = _layer_norm(h, layer["ln2_g"], layer["ln2_b"])
        h = h + ad.relu(f @ layer["ff1"]) @ layer["ff2"]
    h = _layer_norm(h, weights.ln_f_g, weights.ln_f_b)
    return h @ weights.head


@dataclass(frozen=True)
class DesignatedVocab:
    """K distinct vocabulary indices carrying the task confidences."""

    indices: tuple[int, ...]
    seed: int

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("designated indices must be distinct")
        if any(i < 0 for i in self.indices):
            raise ValueError("designated indices must be nonnegative")


def draw_designated(vocab: int, n_tasks: int, seed: int) -> DesignatedVocab:
    if n_tasks <= 0:
        raise ValueError("need at least one task")
    if n_tasks >= vocab:
        raise ValueError(f"vocabulary size {vocab} must exceed the task count {n_tasks}")
    gen = seeding.rng(seed, "designated")
    idx = gen.choice(vocab, size=n_tasks, replace=False)
    return DesignatedVocab(indices=tuple(int(i) for i in idx), seed=seed)
