"""Frozen decoder-only transformer used as a fixed nonlinear readout.

Projected source tokens are fed as a short sequence of d_model vectors
(wide-open, no token embedding table on the way in). The backbone is
pre-norm with causal multi-head attention and relu feed-forward blocks,
sinusoidal positions, Gaussian(0, 0.02^2) weight init, unit layer-norm
gains, and a bias-free d_model x V output head. All weights are frozen:
read-only float64 arrays outside any autodiff graph, so a write raises.

The backbone's constants are built once. `init_frozen` draws one
`FrozenWeights` per `LMConfig` and returns that same instance on every later
call. The instance is immutable (read-only arrays in read-only mappings), so
every caller can share it. Its constructor copies the arrays it is given and
derives from them the C-contiguous transposes the VJP multiplies by, so a
backbone built from modified arrays carries transposes that match them.

`lm_forward` runs the backbone in plain numpy and enters the autodiff graph
as one node with one vector-Jacobian product, taken with respect to the
input only: gradients flow through the weights into the inputs but never
into them. It keeps activations only when that product can run (the graph
is recording and the input needs a gradient). At sequence length 1 it skips
the query and key projections and the softmax; this is exact, since the
softmax of one score is 1.0 and sends exact zeros back to q and k.

Every product with a weight is one 2-D GEMM over all B*S rows, of at least
two rows and with a C-contiguous right operand (the VJP multiplies by the
prebuilt transposes). The BLAS rounds each row of such a product the same
way whatever the row count, so a record's logits and input gradient do not
depend on which records share the call, bit for bit. Against the same
transformer built from generic autodiff primitives (kept in
`tests/backbone_oracle.py`), which multiplies one record at a time, logits
agree bit for bit from two positions on; logits at one position and input
gradients agree to rounding.

The head reads only the vocabulary columns the caller asks for (the K
designated indices; `range(vocab)` gives every logit), and both of its
products give the bits of the full (d_model, V) product at those columns:
- The forward multiplies the final-norm rows by the chosen head columns,
  zero-padded to a width that is a multiple of 8. The BLAS rounds an output
  column of such a block as it does in the full head; a narrower block need
  not (at K = 12 it does not, and at some K it ties a row to its neighbours).
- The VJP takes the gradient's columns in ascending vocabulary order and
  multiplies them by the contiguous (K, d_model) rows of the head's
  transpose at those columns. That sums the same nonzero terms in the same
  order as the full product, whose other terms are exact zeros; taking the
  columns in any other order rounds differently.

A NaN or Inf in either pass raises NonFiniteError naming the block:
`frozen_lm.layer<i>.attention`, `frozen_lm.layer<i>.ff` or `frozen_lm.head`.

Task confidences come from K designated vocabulary indices: logits are
averaged over sequence positions and phi_k = sigmoid(logit[designated_k]).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cache, partial
from types import MappingProxyType

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
HEAD_BLOCK = "frozen_lm.head"


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
        if self.seed < 0:
            raise ValueError(f"lm seed must be nonnegative, got {self.seed}")


def _sinusoidal_table(max_seq: int, d_model: int) -> np.ndarray:
    pos = np.arange(max_seq, dtype=np.float64)[:, None]
    even = np.arange(0, d_model, 2, dtype=np.float64)
    angles = pos / np.power(10000.0, even / d_model)
    table = np.zeros((max_seq, d_model))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles[:, : d_model // 2])
    return table


def _constant(a) -> np.ndarray:
    """A read-only C-contiguous float64 copy of `a`."""
    out = np.array(a, dtype=np.float64, order="C")
    out.flags.writeable = False
    return out


# the weights each layer's VJP multiplies by on the right, transposed
TRANSPOSED = ("wq", "wk", "wv", "wo", "ff1", "ff2")


@dataclass(frozen=True, eq=False, repr=False)
class FrozenWeights:
    """The backbone's weights as read-only float64 arrays, and the constants
    derived from them. Nothing in an instance can be written: an array, a
    layer's mapping or an attribute raises on assignment.

    `layers` holds one read-only mapping of weight name -> array per layer.
    `transposed` holds, per layer, a C-contiguous copy of the transpose of
    each weight in TRANSPOSED, and `head_t` that of the head: a GEMM reading
    a transposed view rounds some row counts differently, which would tie a
    row's gradient to its neighbours. All are copies of the arrays given, so
    `dataclasses.replace` with modified arrays builds a separate backbone,
    with its own `weights_hash`, hashed once, when the instance is built.
    """

    config: LMConfig
    layers: tuple
    ln_f_g: np.ndarray
    ln_f_b: np.ndarray
    head: np.ndarray
    positions: np.ndarray
    transposed: tuple = field(init=False)
    head_t: np.ndarray = field(init=False)
    _hash: str = field(init=False)

    def __post_init__(self):
        assign = partial(object.__setattr__, self)
        layers = tuple(MappingProxyType({key: _constant(value) for key, value in layer.items()})
                       for layer in self.layers)
        assign("layers", layers)
        for name in ("ln_f_g", "ln_f_b", "head", "positions"):
            assign(name, _constant(getattr(self, name)))
        assign("transposed", tuple(
            MappingProxyType({key: _constant(layer[key].T) for key in TRANSPOSED})
            for layer in layers))
        assign("head_t", _constant(self.head.T))
        digest = hashlib.sha256()
        for name, value in self.named_weights():
            digest.update(name.encode("utf-8"))
            digest.update(value.tobytes())
        assign("_hash", digest.hexdigest())

    def named_weights(self):
        for li, layer in enumerate(self.layers):
            for key in sorted(layer):
                yield f"layer{li}.{key}", layer[key]
        yield "ln_f_g", self.ln_f_g
        yield "ln_f_b", self.ln_f_b
        yield "head", self.head
        yield "positions", self.positions

    def weights_hash(self) -> str:
        """sha256 over each weight's name and bytes, in `named_weights` order."""
        return self._hash


@cache
def init_frozen(config: LMConfig) -> FrozenWeights:
    """The backbone of `config`, reproducible from it: drawn on the first
    call, and the same immutable instance returned on every later one. The
    cache keeps one backbone per config for the life of the process."""
    gen = seeding.rng(config.seed, "frozen-lm")
    d = config.d_model

    def w(*shape):
        return gen.normal(0.0, 0.02, size=shape)

    layers = [{"ln1_g": np.ones(d), "ln1_b": np.zeros(d),
               "wq": w(d, d), "wk": w(d, d), "wv": w(d, d), "wo": w(d, d),
               "ln2_g": np.ones(d), "ln2_b": np.zeros(d),
               "ff1": w(d, 4 * d), "ff2": w(4 * d, d)}
              for _ in range(config.n_layers)]
    return FrozenWeights(config, layers, np.ones(d), np.zeros(d), w(d, config.vocab),
                         _sinusoidal_table(config.max_seq, d))


# Each block takes and returns the (rows, d_model) residual stream; attention
# views it as (sequences, heads, positions, head width) for its scores only,
# so every head's products are one batched product. The elementwise
# arithmetic is that of the autodiff primitives each block replaces; where a
# value's gradient has three or more contributions, they are summed in the
# order `ad.backward` sums them. One function per block frees its
# temporaries on return; `tape` is None unless a backward will run, and
# otherwise receives what that block's VJP reads.


def _layer_norm(x, gain, offset, tape):
    centered = x - x.mean(axis=-1, keepdims=True)
    shifted_var = (centered * centered).mean(axis=-1, keepdims=True) + LN_EPS
    inv = np.power(shifted_var, -0.5)
    if tape is not None:
        tape.append((centered, shifted_var, inv))
    return centered * inv * gain + offset, shifted_var


def _layer_norm_vjp(g, gain, saved):
    """(centered term, mean term) of the gradient of a layer norm's input;
    the caller adds them to the input's other contributions."""
    centered, shifted_var, inv = saved
    d = centered.shape[-1]
    g = g * gain
    g_var = (g * centered).sum(axis=-1, keepdims=True) * (-0.5 * np.power(shifted_var, -1.5))
    square = (g_var / d) * centered
    # (g * inv + square) + square, in place
    g *= inv
    g += square
    g += square
    return g, (-g).sum(axis=-1, keepdims=True) / d


def _by_head(a, seq_len, n_heads):
    """(rows, d_model) rows of consecutive sequences as a (sequences, heads,
    positions, head width) view."""
    return a.reshape(-1, seq_len, n_heads, a.shape[-1] // n_heads).swapaxes(1, 2)


def _by_row(a):
    """A (sequences, heads, positions, head width) array back as rows."""
    n, n_heads, seq_len, dh = a.shape
    return a.swapaxes(1, 2).reshape(n * seq_len, n_heads * dh)


def _attention_block(h, layer, seq_len, n_heads, tape, block):
    """h + attention(ln1(h)) under the causal mask, for rows that hold
    consecutive sequences of `seq_len` positions."""
    a, shifted_var = _layer_norm(h, layer["ln1_g"], layer["ln1_b"], tape)
    v = a @ layer["wv"]
    if seq_len == 1:
        # the softmax of one score is exactly 1.0, so every head passes its
        # values through unchanged and sends exact zeros back to q and k
        attended = v
    else:
        q, k, v = (_by_head(x, seq_len, n_heads) for x in (a @ layer["wq"], a @ layer["wk"], v))
        mask = np.triu(np.full((seq_len, seq_len), MASK_NEG), k=1)
        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(q.shape[-1])) + mask
        # a non-finite score can vanish in the softmax
        ad.check_finite(block, scores)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        if tape is not None:
            tape.append((q, k, v, p))
        attended = _by_row(p @ v)
    out = h + attended @ layer["wo"]
    # an overflowing variance vanishes in the layer norm
    ad.check_finite(block, shifted_var, out)
    return out


def _attention_vjp(g, layer_t, saved):
    """Gradient with respect to ln1's output, from the gradient of the
    attention block's output; `layer_t` holds the layer's transposes."""
    g_cat = g @ layer_t["wo"]
    if saved is None:
        return g_cat @ layer_t["wv"]
    q, k, v, p = saved
    g_heads = _by_head(g_cat, q.shape[2], q.shape[1])
    g_p = g_heads @ v.swapaxes(-1, -2)
    g_scores = (g_p - (g_p * p).sum(axis=-1, keepdims=True)) * p * (1.0 / np.sqrt(q.shape[-1]))
    g_k = (q.swapaxes(-1, -2) @ g_scores).swapaxes(-1, -2)
    return ((_by_row(g_scores @ k) @ layer_t["wq"] + _by_row(g_k) @ layer_t["wk"])
            + _by_row(p.swapaxes(-1, -2) @ g_heads) @ layer_t["wv"])


def _ff_block(h, layer, tape, block):
    """h + relu(ln2(h) @ ff1) @ ff2."""
    f, shifted_var = _layer_norm(h, layer["ln2_g"], layer["ln2_b"], tape)
    hidden = f @ layer["ff1"]
    # before the relu can hide a -inf
    ad.check_finite(block, shifted_var, hidden)
    np.maximum(hidden, 0.0, out=hidden)
    if tape is not None:
        # the VJP reads only where the relu passed its input: its output is
        # positive exactly there
        tape.append(hidden > 0)
    out = h + hidden @ layer["ff2"]
    ad.check_finite(block, out)
    return out


def _ff_vjp(g, layer_t, relu_mask):
    """Gradient with respect to ln2's output, from the gradient of the ff
    block's output; `layer_t` holds the layer's transposes."""
    g_hidden = g @ layer_t["ff2"]
    # the mask is boolean: each entry is multiplied by exactly 1.0 or 0.0
    g_hidden *= relu_mask
    return g_hidden @ layer_t["ff1"]


def _as_gemm_rows(a: np.ndarray, rows: int) -> np.ndarray:
    """`a` as a (rows, width) matrix of at least two rows. numpy sends a
    one-row product to gemv, whose bits differ from those of the same row in
    a GEMM, so a single row travels with a copy of itself."""
    a = a.reshape(rows, a.shape[-1])
    return np.concatenate((a, a)) if rows == 1 else a


def _head_columns(columns, vocab: int) -> tuple[np.ndarray, np.ndarray]:
    """(the columns as an int array, the order that sorts them); refuses an
    empty or repeated column set, or a column outside [0, vocab)."""
    cols = np.asarray(columns)
    if cols.ndim != 1 or cols.size == 0 or cols.dtype.kind not in "iu":
        raise ValueError(f"columns must be a nonempty sequence of vocabulary indices, "
                         f"got {columns!r}")
    order = np.argsort(cols)
    ascending = cols[order]
    if ascending[0] < 0 or ascending[-1] >= vocab:
        bad = ascending[0] if ascending[0] < 0 else ascending[-1]
        raise ValueError(f"column {bad} lies outside the vocabulary [0, {vocab})")
    repeated = ascending[1:][ascending[1:] == ascending[:-1]]
    if repeated.size:
        raise ValueError(f"column {repeated[0]} is repeated")
    return cols, order


def lm_forward(weights: FrozenWeights, x, columns) -> ad.Tensor:
    """Logits at the vocabulary `columns`, in the order given, at each
    position, as one autodiff node.

    Accepts (S, d_model) or batched (B, S, d_model) and returns (..., S, K)
    for K columns; `range(vocab)` gives every logit. The causal mask keeps
    position i blind to positions j > i exactly (masked scores underflow to
    zero attention weight, not merely something small). The weights are
    constants, so the node's one VJP maps the logits' gradient to the
    input's. Activations are kept only when that VJP can run. Each record's
    logits and input gradient are those it gets alone, bit for bit, and
    those of the full head at the same columns.
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
    cols, order = _head_columns(columns, cfg.vocab)
    k = cols.size
    rows = t.size // cfg.d_model
    recorded = ad.records(t)
    tape = [] if recorded else None
    h = _as_gemm_rows(t.value + weights.positions[:seq_len], rows)
    for i, layer in enumerate(weights.layers):
        h = _attention_block(h, layer, seq_len, cfg.n_heads, tape,
                             f"frozen_lm.layer{i}.attention")
        h = _ff_block(h, layer, tape, f"frozen_lm.layer{i}.ff")
    h, shifted_var = _layer_norm(h, weights.ln_f_g, weights.ln_f_b, tape)
    ad.check_finite(HEAD_BLOCK, shifted_var)
    # the columns, zero-padded to a multiple of 8 wide: see the module notes
    block = np.zeros((cfg.d_model, -(-k // 8) * 8))
    block[:, :k] = weights.head[:, cols]
    # the Tensor built below checks the logits under the same name
    logits = (h @ block)[:rows, :k].reshape(t.shape[:-1] + (k,))
    if not recorded:
        return ad.Tensor(logits, op=HEAD_BLOCK)

    def vjp(g):
        # the tape is read back to front, and each block's activations are
        # dropped as soon as its VJP has read them. The head's columns are
        # taken in ascending order: see the module notes
        g = _as_gemm_rows(g, rows)[:, order] @ weights.head_t[cols[order]]
        g_centered, g_mean = _layer_norm_vjp(g, weights.ln_f_g, tape.pop())
        g = g_centered + g_mean
        ad.check_finite(HEAD_BLOCK, g, context="backward")
        for i in reversed(range(cfg.n_layers)):
            layer, layer_t = weights.layers[i], weights.transposed[i]
            g_centered, g_mean = _layer_norm_vjp(_ff_vjp(g, layer_t, tape.pop()),
                                                 layer["ln2_g"], tape.pop())
            g = (g + g_centered) + g_mean
            ad.check_finite(f"frozen_lm.layer{i}.ff", g, context="backward")
            g_centered, g_mean = _layer_norm_vjp(
                _attention_vjp(g, layer_t, tape.pop() if seq_len > 1 else None),
                layer["ln1_g"], tape.pop())
            g = (g + g_centered) + g_mean
            ad.check_finite(f"frozen_lm.layer{i}.attention", g, context="backward")
        return g[:rows].reshape(t.shape)

    return ad.Tensor(logits, requires_grad=True, op=HEAD_BLOCK, parents=(t,), vjps=(vjp,))


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
