"""Per-source overcomplete autoencoder projectors.

The encoder lifts a d_e-dimensional source embedding into the model's
d_t-dimensional token space with a tanh layer, t = tanh(W_enc e + b_enc);
the decoder maps back affinely, e_hat = W_dec t + b_dec. Overcompleteness
(d_t > d_e) is enforced at construction. These are the only trainable
parameters in the whole pipeline.

`project` and `reconstruct` are one autodiff node each, with hand-written
VJPs to the batch and both tensors of their layer. They do the arithmetic
of the generic primitives (matmul by the transposed weight, bias add, tanh)
and of `ad.backward` over them, so values and gradients equal that graph's,
kept in `tests/loss_oracle.py`, bit for bit. A NaN or Inf in either pass
raises NonFiniteError naming the node, `project` or `reconstruct`.

Forward only, both nodes broadcast over a leading copies axis: the batch,
or one of the layer's tensors given in place of pp's, may be a stack of C
copies. numpy multiplies a stack one GEMM per copy, in the layout of a
single copy, so each copy's value is the one it gets alone. The gradient
audit evaluates its finite-difference probes this way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeding
from . import autodiff as ad

__all__ = ["ProjectorConfig", "ProjectorParams", "init_projector", "project", "reconstruct"]

PARAM_NAMES = ("enc_w", "enc_b", "dec_w", "dec_b")


@dataclass(frozen=True)
class ProjectorConfig:
    embed_dim: int
    token_dim: int

    def __post_init__(self):
        if self.embed_dim <= 0 or self.token_dim <= 0:
            raise ValueError("dimensions must be positive")
        if self.token_dim <= self.embed_dim:
            raise ValueError(
                f"projector must be overcomplete: token_dim {self.token_dim} "
                f"must exceed embed_dim {self.embed_dim}")

    def shapes(self) -> dict:
        """Shape of each parameter in PARAM_NAMES."""
        return {"enc_w": (self.token_dim, self.embed_dim), "enc_b": (self.token_dim,),
                "dec_w": (self.embed_dim, self.token_dim), "dec_b": (self.embed_dim,)}


class ProjectorParams:
    """Config plus the four named leaves; a training ParamSet built over them
    owns their storage."""

    def __init__(self, config: ProjectorConfig, enc_w, enc_b, dec_w, dec_b):
        self.config = config
        self.tensors = {}
        shapes = config.shapes()
        for name, given in zip(PARAM_NAMES, (enc_w, enc_b, dec_w, dec_b)):
            arr = np.asarray(given, dtype=np.float64)
            if arr.shape != shapes[name]:
                raise ValueError(f"{name} must have shape {shapes[name]}, got {arr.shape}")
            self.tensors[name] = ad.parameter(arr)

    def value(self, name: str) -> np.ndarray:
        return self.tensors[name].value


def init_projector(config: ProjectorConfig, seed: int, source_key: int | str = 0) -> ProjectorParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    gen = seeding.rng(seed, "projector", source_key)
    enc_bound = 1.0 / np.sqrt(config.embed_dim)
    dec_bound = 1.0 / np.sqrt(config.token_dim)
    return ProjectorParams(
        config,
        enc_w=gen.uniform(-enc_bound, enc_bound, size=(config.token_dim, config.embed_dim)),
        enc_b=np.zeros(config.token_dim),
        dec_w=gen.uniform(-dec_bound, dec_bound, size=(config.embed_dim, config.token_dim)),
        dec_b=np.zeros(config.embed_dim),
    )


def _rows(x, dim: int, what: str) -> ad.Tensor:
    t = x if isinstance(x, ad.Tensor) else ad.constant(x)
    if t.ndim not in (2, 3) or t.shape[-1] != dim:
        raise ValueError(f"{what} batch must be (B, {dim}), got shape {t.shape}")
    return t


def _forward_only(op: str, out: np.ndarray, *copies) -> None:
    """Refuse to record a stacked pass: the VJPs are those of one copy."""
    if out.ndim != 2 or any(c is not None for c in copies):
        raise ValueError(f"{op}: a stack of copies is forward only")


def project(pp: ProjectorParams, e, *, enc_w=None, enc_b=None) -> ad.Tensor:
    """tanh(W_enc e + b_enc) of each row of a (B, d_e) batch, as one node.

    Forward only, the batch may be a (C, B, d_e) stack, and `enc_w` or
    `enc_b` a (C, ...) stack of copies that replaces pp's tensor; the result
    is then (C, B, d_t), each copy the value it gets alone, bit for bit.
    """
    rows = _rows(e, pp.config.embed_dim, "embedding")
    w, b = pp.tensors["enc_w"], pp.tensors["enc_b"]
    w_val = w.value if enc_w is None else enc_w
    b_val = b.value if enc_b is None else enc_b
    pre = rows.value @ np.swapaxes(w_val, -1, -2)
    pre = pre + b_val[..., np.newaxis, :]
    # before the tanh can squash an overflow to +-1
    ad.check_finite("project", pre)
    out = np.tanh(pre)
    if not ad.records(rows, w, b):
        return ad.Tensor(out, op="project")
    _forward_only("project", out, enc_w, enc_b)
    slope = 1.0 - out * out

    def vjp_rows(g):
        return (g * slope) @ w.value

    def vjp_w(g):
        return np.swapaxes(np.swapaxes(rows.value, -1, -2) @ (g * slope), 0, 1)

    def vjp_b(g):
        return (g * slope).sum(axis=0)

    return ad.Tensor(out, requires_grad=True, op="project", parents=(rows, w, b),
                     vjps=(vjp_rows, vjp_w, vjp_b))


def reconstruct(pp: ProjectorParams, t, *, dec_w=None, dec_b=None) -> ad.Tensor:
    """Affine decode W_dec t + b_dec of each row of a (B, d_t) batch, as one
    node; stacks of copies as in `project`."""
    rows = _rows(t, pp.config.token_dim, "token")
    w, b = pp.tensors["dec_w"], pp.tensors["dec_b"]
    w_val = w.value if dec_w is None else dec_w
    b_val = b.value if dec_b is None else dec_b
    out = rows.value @ np.swapaxes(w_val, -1, -2)
    out = out + b_val[..., np.newaxis, :]
    if not ad.records(rows, w, b):
        return ad.Tensor(out, op="reconstruct")
    _forward_only("reconstruct", out, dec_w, dec_b)
    return ad.Tensor(out, requires_grad=True, op="reconstruct", parents=(rows, w, b), vjps=(
        lambda g: g @ w.value,
        lambda g: np.swapaxes(np.swapaxes(rows.value, -1, -2) @ g, 0, 1),
        lambda g: g.sum(axis=0)))
