"""Projector tests: geometry, init bounds, determinism, gradient fidelity."""

import numpy as np
import pytest

import riskfuse.autodiff as ad
from riskfuse.projector import (PARAM_NAMES, ProjectorConfig, ProjectorParams,
                                init_projector, project, reconstruct)

from oracle_ops import sub


def test_token_space_must_be_overcomplete():
    ProjectorConfig(embed_dim=8, token_dim=16)
    with pytest.raises(ValueError):
        ProjectorConfig(embed_dim=16, token_dim=16)
    with pytest.raises(ValueError):
        ProjectorConfig(embed_dim=16, token_dim=8)


def test_init_shapes_and_bounds():
    cfg = ProjectorConfig(embed_dim=8, token_dim=16)
    pp = init_projector(cfg, seed=0, source_key="xr")
    assert pp.value("enc_w").shape == (16, 8)
    assert pp.value("enc_b").shape == (16,)
    assert pp.value("dec_w").shape == (8, 16)
    assert pp.value("dec_b").shape == (8,)
    assert np.all(np.abs(pp.value("enc_w")) <= 1.0 / np.sqrt(8))
    assert np.all(np.abs(pp.value("dec_w")) <= 1.0 / np.sqrt(16))
    np.testing.assert_array_equal(pp.value("enc_b"), 0.0)
    np.testing.assert_array_equal(pp.value("dec_b"), 0.0)


def test_init_deterministic_per_seed_and_source():
    cfg = ProjectorConfig(embed_dim=4, token_dim=6)
    a = init_projector(cfg, seed=1, source_key="lab")
    b = init_projector(cfg, seed=1, source_key="lab")
    c = init_projector(cfg, seed=1, source_key="txt")
    d = init_projector(cfg, seed=2, source_key="lab")
    np.testing.assert_array_equal(a.value("enc_w"), b.value("enc_w"))
    assert not np.array_equal(a.value("enc_w"), c.value("enc_w"))
    assert not np.array_equal(a.value("enc_w"), d.value("enc_w"))


def test_project_output_is_tanh_bounded():
    cfg = ProjectorConfig(embed_dim=4, token_dim=6)
    pp = init_projector(cfg, seed=0)
    e = np.random.default_rng(0).standard_normal((10, 4)) * 50.0
    t = project(pp, e)
    assert t.shape == (10, 6)
    assert np.all(np.abs(t.value) <= 1.0)


def test_projection_matches_manual_formula():
    cfg = ProjectorConfig(embed_dim=3, token_dim=5)
    pp = init_projector(cfg, seed=9)
    e = np.random.default_rng(2).standard_normal((2, 3))
    want = np.tanh(e @ pp.value("enc_w").T + pp.value("enc_b"))
    np.testing.assert_allclose(project(pp, e).value, want, atol=1e-14)
    t = np.random.default_rng(3).standard_normal((2, 5))
    want_rec = t @ pp.value("dec_w").T + pp.value("dec_b")
    np.testing.assert_allclose(reconstruct(pp, t).value, want_rec, atol=1e-14)


def test_wrong_width_rejected():
    cfg = ProjectorConfig(embed_dim=4, token_dim=6)
    pp = init_projector(cfg, seed=0)
    with pytest.raises(ValueError):
        project(pp, np.zeros((2, 5)))
    with pytest.raises(ValueError):
        reconstruct(pp, np.zeros((2, 4)))
    with pytest.raises(ValueError, match="batch"):
        project(pp, np.zeros(4))  # one embedding must come as a (1, d_e) batch


def test_params_validate_shapes():
    cfg = ProjectorConfig(embed_dim=2, token_dim=3)
    with pytest.raises(ValueError):
        ProjectorParams(cfg, enc_w=np.zeros((3, 3)), enc_b=np.zeros(3),
                        dec_w=np.zeros((2, 3)), dec_b=np.zeros(2))


def test_autoencoder_roundtrip_gradients():
    cfg = ProjectorConfig(embed_dim=3, token_dim=5)
    pp = init_projector(cfg, seed=4)
    e = np.random.default_rng(5).standard_normal((4, 3))

    def build(_p):
        rec = reconstruct(pp, project(pp, ad.constant(e)))
        diff = sub(rec, e)
        return (diff * diff).sum()

    report = ad.finite_diff_check(build, ad.ParamSet(pp.tensors), tol=1e-5)
    assert report.passed, report.format()
    assert sorted(c.name for c in report.checks) == sorted(PARAM_NAMES)


def test_training_reduces_reconstruction_error():
    from riskfuse.optim import adamw_step, init_adamw
    cfg = ProjectorConfig(embed_dim=4, token_dim=9)
    pp = init_projector(cfg, seed=6)
    e = np.random.default_rng(7).standard_normal((32, 4))
    params = ad.ParamSet(pp.tensors)
    state = init_adamw(params, lr=0.01, weight_decay=0.0)

    def build(_p):
        rec = reconstruct(pp, project(pp, ad.constant(e)))
        diff = sub(rec, e)
        return (diff * diff).sum(axis=-1).mean()

    first = ad.eval_with_grads(build, params)
    adamw_step(params, state)
    for _ in range(150):
        ad.eval_with_grads(build, params)
        adamw_step(params, state)
    last = ad.eval_with_grads(build, params)
    assert last < 0.2 * first
