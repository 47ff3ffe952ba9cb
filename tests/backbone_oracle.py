"""The frozen backbone as a graph of generic autodiff primitives.

`riskfuse.frozenlm.lm_forward` runs the same transformer in plain numpy as
one autodiff node with a hand-written input-only VJP. This module keeps the
primitive-by-primitive form it replaced; tests require the two to agree bit
for bit in logits from two positions on, and to rounding in logits at one
position and in input gradients. `relu` and `softmax_last` are primitives
only this graph uses, so they live here rather than in `riskfuse.autodiff`.
"""

import numpy as np

import riskfuse.autodiff as ad
from riskfuse.frozenlm import LN_EPS, MASK_NEG, FrozenWeights


def _node(out: np.ndarray, op: str, a: ad.Tensor, vjp) -> ad.Tensor:
    if not ad.records(a):
        return ad.Tensor(out, op=op)
    return ad.Tensor(out, requires_grad=True, op=op, parents=(a,), vjps=(vjp,))


def relu(a: ad.Tensor) -> ad.Tensor:
    return _node(np.maximum(a.value, 0.0), "relu", a,
                 lambda g: g * (a.value > 0).astype(np.float64))


def softmax_last(a: ad.Tensor) -> ad.Tensor:
    """Softmax over the last axis, shift-stabilized."""
    shifted = a.value - a.value.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (g - inner) * out

    return _node(out, "softmax", a, vjp)


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
        heads.append(softmax_last(scores) @ vh)
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
        h = h + relu(f @ layer["ff1"]) @ layer["ff2"]
    h = _layer_norm(h, weights.ln_f_g, weights.ln_f_b)
    return h @ weights.head
