"""Generic autodiff primitives that only the tests use: the engine tests
and the primitive-graph oracles in `loss_oracle.py` and `backbone_oracle.py`.
Each records one node through `riskfuse.autodiff`'s own node helpers."""

import numpy as np

import riskfuse.autodiff as ad
from riskfuse.autodiff import _broadcast_check, _node, _unbroadcast, _wrap


def sub(a, b) -> ad.Tensor:
    a, b = _wrap(a), _wrap(b)
    _broadcast_check(a, b, "sub")
    return _node(a.value - b.value, "sub", (a, b),
                 (lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(-g, b.shape)))


def neg(a) -> ad.Tensor:
    a = _wrap(a)
    return _node(-a.value, "neg", (a,), (lambda g: -g,))


def matmul(a, b) -> ad.Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul: operands must be at least 2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul: inner dimensions disagree, {a.shape} vs {b.shape}")
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        raise ValueError(f"matmul: batch dimensions do not broadcast, {a.shape} vs {b.shape}") from None
    return _node(a.value @ b.value, "matmul", (a, b),
                 (lambda g: _unbroadcast(g @ np.swapaxes(b.value, -1, -2), a.shape),
                  lambda g: _unbroadcast(np.swapaxes(a.value, -1, -2) @ g, b.shape)))


def tanh(a) -> ad.Tensor:
    a = _wrap(a)
    out = np.tanh(a.value)
    return _node(out, "tanh", (a,), (lambda g: g * (1.0 - out * out),))


def log(a) -> ad.Tensor:
    a = _wrap(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.value)
    return _node(out, "log", (a,), (lambda g: g * (1.0 / a.value),))


def maximum_const(a, c: float) -> ad.Tensor:
    a = _wrap(a)
    c = float(c)
    out = np.maximum(a.value, c)
    # subgradient 0 at the tie x == c
    return _node(out, "maximum_const", (a,),
                 (lambda g: g * (a.value > c).astype(np.float64),))


def power_const(a, p: float) -> ad.Tensor:
    a = _wrap(a)
    p = float(p)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.power(a.value, p)

    def vjp(g):
        if p == 0.0:
            return g * np.zeros_like(a.value)
        if p == 1.0:
            return g * np.ones_like(a.value)
        with np.errstate(invalid="ignore", divide="ignore"):
            return g * (p * np.power(a.value, p - 1.0))

    return _node(out, "power_const", (a,), (vjp,))


def clip(a, lo: float, hi: float) -> ad.Tensor:
    a = _wrap(a)
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise ValueError(f"clip: lo must be below hi, got {lo} and {hi}")
    out = np.clip(a.value, lo, hi)
    return _node(out, "clip", (a,),
                 (lambda g: g * ((a.value >= lo) & (a.value <= hi)).astype(np.float64),))


def swapaxes(a, ax1: int, ax2: int) -> ad.Tensor:
    a = _wrap(a)
    out = np.swapaxes(a.value, ax1, ax2)
    return _node(out, "swapaxes", (a,), (lambda g: np.swapaxes(g, ax1, ax2),))


def relu(a) -> ad.Tensor:
    a = _wrap(a)
    return _node(np.maximum(a.value, 0.0), "relu", (a,),
                 (lambda g: g * (a.value > 0).astype(np.float64),))


def softmax_last(a) -> ad.Tensor:
    """Softmax over the last axis, shift-stabilized."""
    a = _wrap(a)
    shifted = a.value - a.value.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (g - inner) * out

    return _node(out, "softmax", (a,), (vjp,))


def _is_basic_index(idx) -> bool:
    """Ints, slices, Ellipsis and None never select an entry twice."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(p is None or p is Ellipsis or isinstance(p, (slice, int, np.integer))
               for p in parts)


def getitem(a, idx) -> ad.Tensor:
    """a[idx] as a node: numpy indexing, basic or advanced."""
    a = _wrap(a)
    out = a.value[idx]
    basic = _is_basic_index(idx)

    def vjp(g):
        full = np.zeros_like(a.value)
        if basic:
            full[idx] = g
        else:
            # an advanced index may repeat entries; each repeat adds its share
            np.add.at(full, idx, g)
        return full

    return _node(out, "slice", (a,), (vjp,))
