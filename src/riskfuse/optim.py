"""AdamW with decoupled weight decay.

Decay multiplies the parameter by (1 - lr * wd) before the Adam delta and
touches weight matrices only (ndim >= 2); bias vectors and gains are left
alone. Moments are bias-corrected, the step counter increments by exactly
one per call, and gradient buffers are zeroed after a step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import ParamSet

__all__ = ["AdamWState", "init_adamw", "adamw_step"]

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamWState:
    lr: float = 5e-4
    weight_decay: float = 3e-4
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def init_adamw(params: ParamSet, lr: float = 5e-4, weight_decay: float = 3e-4) -> AdamWState:
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    if weight_decay < 0:
        raise ValueError("weight decay must be nonnegative")
    state = AdamWState(lr=lr, weight_decay=weight_decay)
    for name, p in params.items():
        state.m[name] = np.zeros_like(p.value)
        state.v[name] = np.zeros_like(p.value)
    return state


def adamw_step(params: ParamSet, state: AdamWState) -> None:
    if not params.grads_populated:
        raise ValueError("adamw_step called before gradients were populated")
    if set(state.m) != set(params.names()):
        raise ValueError("optimizer state does not match the parameter set")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, p in params.items():
        g = p.grad
        if state.m[name].shape != p.value.shape:
            raise ValueError(f"optimizer moment shape mismatch for {name!r}")
        if state.weight_decay != 0.0 and p.value.ndim >= 2:
            p.value *= 1.0 - state.lr * state.weight_decay
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p.value -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
    params.zero_grads()
