"""AdamW with decoupled weight decay, one elementwise pass over a ParamSet's
flat buffer and two moment arrays laid out like it.

Decay multiplies the parameter by (1 - lr * wd) before the Adam delta and
touches weight matrices only (ndim >= 2, the set's `values[:n_matrix]`);
bias vectors and gains are left alone. Moments are bias-corrected, the step
counter increments by exactly one per call, and gradient buffers are zeroed
after a step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ParamSet

__all__ = ["AdamWState", "init_adamw", "adamw_step"]

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamWState:
    names: tuple[str, ...]
    m: np.ndarray
    v: np.ndarray
    lr: float
    weight_decay: float
    step_count: int = 0


def init_adamw(params: ParamSet, lr: float, weight_decay: float) -> AdamWState:
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    if weight_decay < 0:
        raise ValueError("weight decay must be nonnegative")
    return AdamWState(params.names(), np.zeros_like(params.values),
                      np.zeros_like(params.values), lr=lr, weight_decay=weight_decay)


def adamw_step(params: ParamSet, state: AdamWState) -> None:
    if not params.grads_populated:
        raise ValueError("adamw_step called before gradients were populated")
    if state.names != params.names() or state.m.shape != params.values.shape:
        raise ValueError("optimizer state does not match the parameter set")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    p, g, m, v = params.values, params.grads, state.m, state.v
    if state.weight_decay != 0.0:
        p[:params.n_matrix] *= 1.0 - state.lr * state.weight_decay
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * (g * g)
    p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
    params.zero_grads()
