"""Optimizer tests with hand-computed single-step oracles, and the flat
update against the per-tensor loop it replaced."""

import numpy as np
import pytest

import riskfuse.autodiff as ad
from riskfuse.optim import BETA1, BETA2, EPS, adamw_step, init_adamw


def _step(params, grads, **kw):
    state = init_adamw(params, **kw)
    for name, g in grads.items():
        params[name].grad[...] = g
    params.grads_populated = True
    adamw_step(params, state)
    return state


def test_single_step_matrix_oracle():
    # p=1, g=1, lr=5e-4, wd=3e-4. Decoupled decay first: p *= 1 - lr*wd
    # = 1 - 1.5e-7. Bias-corrected m_hat = v_hat = 1 after one step, so the
    # update is lr / (1 + 1e-8). Hand-computed final value:
    expected = (1.0 - 5e-4 * 3e-4) - 5e-4 / (1.0 + 1e-8)
    params = ad.ParamSet({"w": ad.parameter(np.array([[1.0]]))})
    _step(params, {"w": np.array([[1.0]])}, lr=5e-4, weight_decay=3e-4)
    assert params.value("w")[0, 0] == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.9994998500, abs=1e-9)


def test_decay_only_oracle():
    # zero gradient: Adam delta vanishes, only the decay acts
    params = ad.ParamSet({"w": ad.parameter(np.array([[2.0]]))})
    _step(params, {"w": np.array([[0.0]])}, lr=0.01, weight_decay=0.1)
    assert params.value("w")[0, 0] == pytest.approx(1.998, abs=1e-15)


def test_vectors_and_scalars_are_not_decayed():
    # decoupled decay applies to matrices only; 1-D parameters skip it
    params = ad.ParamSet({"b": ad.parameter(np.array([2.0]))})
    _step(params, {"b": np.array([0.0])}, lr=0.01, weight_decay=0.1)
    assert params.value("b")[0] == pytest.approx(2.0, abs=1e-15)


def test_two_steps_track_reference_implementation():
    lr, wd, b1, b2, eps = 1e-2, 1e-3, 0.9, 0.999, 1e-8
    g1, g2 = 0.7, -0.4

    # plain-python mirror of the update rule
    p, m, v = 1.3, 0.0, 0.0
    for t, g in ((1, g1), (2, g2)):
        p *= 1.0 - lr * wd
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)

    params = ad.ParamSet({"w": ad.parameter(np.array([[1.3]]))})
    state = init_adamw(params, lr=lr, weight_decay=wd)
    for g in (g1, g2):
        params[("w")].grad[...] = g
        params.grads_populated = True
        adamw_step(params, state)
    assert params.value("w")[0, 0] == pytest.approx(p, abs=1e-14)
    assert state.step_count == 2


def test_step_requires_populated_gradients():
    params = ad.ParamSet({"w": ad.parameter(np.ones((2, 2)))})
    state = init_adamw(params, lr=1e-3, weight_decay=0.0)
    with pytest.raises(ValueError):
        adamw_step(params, state)


def test_step_zeroes_gradients_afterwards():
    params = ad.ParamSet({"w": ad.parameter(np.ones((2, 2)))})
    state = init_adamw(params, lr=1e-3, weight_decay=0.0)
    params["w"].grad[...] = 1.0
    params.grads_populated = True
    adamw_step(params, state)
    np.testing.assert_array_equal(params.grad("w"), 0.0)
    assert not params.grads_populated


@pytest.mark.parametrize("name, size", [("other", 2), ("w", 3)], ids=["names", "size"])
def test_state_rejects_foreign_paramset(name, size):
    a = ad.ParamSet({"w": ad.parameter(np.ones(2))})
    b = ad.ParamSet({name: ad.parameter(np.ones(size))})
    state = init_adamw(a, lr=1e-3, weight_decay=0.0)
    b[name].grad[...] = 1.0
    b.grads_populated = True
    with pytest.raises(ValueError):
        adamw_step(b, state)


def _per_tensor_adamw(values: dict, grads: dict, m: dict, v: dict, t: int,
                      lr: float, wd: float) -> None:
    """AdamW one tensor at a time, in place: the loop the flat pass replaced."""
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, p in values.items():
        g = grads[name]
        if wd != 0.0 and p.ndim >= 2:
            p *= 1.0 - lr * wd
        m[name] *= BETA1
        m[name] += (1.0 - BETA1) * g
        v[name] *= BETA2
        v[name] += (1.0 - BETA2) * (g * g)
        p -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + EPS)


def test_flat_step_equals_the_per_tensor_loop_bit_for_bit():
    # vectors and matrices interleaved, so packing matrices first reorders them
    shapes = {"a": (3,), "W": (2, 3), "b": (2,), "T": (2, 2, 3), "V": (3, 2)}
    gen = np.random.default_rng(3)
    start = {name: gen.standard_normal(shape) for name, shape in shapes.items()}
    params = ad.ParamSet({name: ad.parameter(value) for name, value in start.items()})
    assert params.n_matrix == 6 + 12 + 6
    state = init_adamw(params, lr=1e-2, weight_decay=0.1)
    ref = {name: value.copy() for name, value in start.items()}
    m = {name: np.zeros(shape) for name, shape in shapes.items()}
    v = {name: np.zeros(shape) for name, shape in shapes.items()}
    for t in (1, 2, 3):
        grads = {name: gen.standard_normal(shape) for name, shape in shapes.items()}
        for name, g in grads.items():
            params[name].grad[...] = g
        params.grads_populated = True
        adamw_step(params, state)
        _per_tensor_adamw(ref, grads, m, v, t, lr=1e-2, wd=0.1)
        for name in shapes:
            np.testing.assert_array_equal(params.value(name), ref[name], err_msg=f"{name}@{t}")
    assert state.step_count == 3


def test_invalid_hyperparameters_rejected():
    params = ad.ParamSet({"w": ad.parameter(np.ones(1))})
    with pytest.raises(ValueError):
        init_adamw(params, lr=0.0, weight_decay=0.0)
    with pytest.raises(ValueError):
        init_adamw(params, lr=1e-3, weight_decay=-0.1)


def test_descends_a_quadratic():
    params = ad.ParamSet({"w": ad.parameter(np.array([[5.0]]))})
    state = init_adamw(params, lr=0.05, weight_decay=0.0)
    losses = []
    for _ in range(200):
        loss = ad.eval_with_grads(lambda p: (p["w"] * p["w"]).sum(), params)
        adamw_step(params, state)
        losses.append(loss)
    assert losses[-1] < 1e-2 * losses[0]
