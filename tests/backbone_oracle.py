"""The frozen backbone as a graph of generic autodiff primitives.

`riskfuse.frozenlm.lm_forward` runs the same transformer in plain numpy as
one autodiff node with a hand-written input-only VJP. This module keeps the
primitive-by-primitive form it replaced; tests require the two to agree bit
for bit in logits from two positions on, and to rounding in logits at one
position and in input gradients. The backbone's weights are read-only
arrays; each primitive wraps the ones it reads as constants.
"""

import numpy as np

import riskfuse.autodiff as ad
from riskfuse.frozenlm import LN_EPS, MASK_NEG, FrozenWeights

from oracle_ops import getitem, matmul, power_const, relu, softmax_last, sub, swapaxes


def _layer_norm(x: ad.Tensor, gain: np.ndarray, offset: np.ndarray) -> ad.Tensor:
    mu = x.mean(axis=-1, keepdims=True)
    centered = sub(x, mu)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered * power_const(var + LN_EPS, -0.5) * gain + offset


def _attention(x: ad.Tensor, layer: dict, n_heads: int, mask: np.ndarray) -> ad.Tensor:
    d = x.shape[-1]
    dh = d // n_heads
    q = matmul(x, layer["wq"])
    k = matmul(x, layer["wk"])
    v = matmul(x, layer["wv"])
    scale = 1.0 / np.sqrt(dh)
    heads = []
    for h in range(n_heads):
        sl = (..., slice(h * dh, (h + 1) * dh))
        qh, kh, vh = getitem(q, sl), getitem(k, sl), getitem(v, sl)
        scores = matmul(qh, swapaxes(kh, -1, -2)) * scale + mask
        heads.append(matmul(softmax_last(scores), vh))
    return matmul(ad.concat(heads, axis=-1), layer["wo"])


def lm_forward(weights: FrozenWeights, x) -> ad.Tensor:
    """Logits over the vocabulary at each position of an (S, d_model) or
    (B, S, d_model) input that `frozenlm.lm_forward` accepts."""
    t = x if isinstance(x, ad.Tensor) else ad.constant(x)
    seq_len = t.shape[-2]
    mask = np.triu(np.full((seq_len, seq_len), MASK_NEG), k=1)
    h = t + weights.positions[:seq_len]
    for layer in weights.layers:
        h = h + _attention(_layer_norm(h, layer["ln1_g"], layer["ln1_b"]), layer,
                           weights.config.n_heads, mask)
        f = _layer_norm(h, layer["ln2_g"], layer["ln2_b"])
        h = h + matmul(relu(matmul(f, layer["ff1"])), layer["ff2"])
    h = _layer_norm(h, weights.ln_f_g, weights.ln_f_b)
    return matmul(h, weights.head)
