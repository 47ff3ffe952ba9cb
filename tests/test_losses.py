"""Loss-family tests: frozen scalar oracles, masking semantics, and the
agreement between the plain-python reference terms in `loss_oracle.py` and
the graph builders."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskfuse.autodiff as ad
from riskfuse.losses import (ASLConfig, PROB_EPS, UNKNOWN, ClassWeights, class_weights,
                             classification_loss_graph, reconstruction_loss_graph,
                             validate_labels)

from loss_oracle import asl_term, masked_multilabel_loss, projector_loss, wbce_term


# ---------------------------------------------------------------------------
# frozen oracles, hand-computed


def test_wbce_positive_oracle():
    # y=1, phi=0.5, w_pos=2: -2 ln(0.5) = 2 ln 2
    assert wbce_term(1, 0.5, 2.0, 1.0) == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
    assert wbce_term(1, 0.5, 2.0, 1.0) == pytest.approx(1.3862944, abs=1e-6)


def test_wbce_negative_oracle():
    # y=0, phi=0.25, w_neg=0.5: -0.5 ln(0.75)
    assert wbce_term(0, 0.25, 3.0, 0.5) == pytest.approx(-0.5 * math.log(0.75), abs=1e-12)


def test_asl_negative_oracle():
    # y=0, phi=0.55, margin 0.05, gamma 4: p_m = 0.5, term = -(0.5^4) ln(0.5)
    cfg = ASLConfig(margin=0.05, gamma_neg=4.0)
    expected = -(0.5 ** 4) * math.log(0.5)
    assert asl_term(0, 0.55, cfg) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.0433217, abs=1e-7)


def test_asl_positive_oracle():
    # y=1: -(1-phi) ln(phi), independent of margin/gamma
    cfg = ASLConfig()
    assert asl_term(1, 0.8, cfg) == pytest.approx(-0.2 * math.log(0.8), abs=1e-12)


def test_asl_negative_below_margin_is_exactly_zero():
    cfg = ASLConfig(margin=0.05, gamma_neg=4.0)
    assert asl_term(0, 0.04, cfg) == 0.0
    assert asl_term(0, 0.05, cfg) == 0.0


def test_projector_loss_reconstruction_oracle():
    # e=[1,0,2], e_hat=0, beta=0: squared L2 = 5
    val = projector_loss(np.array([1.0, 0.0, 2.0]), np.zeros(3),
                         np.array([1]), np.array([0.5]), beta=0.0, kind="asl")
    assert val == pytest.approx(5.0, abs=1e-12)


def test_class_weights_single_task_oracle():
    # K=1, labels [1,0,0,0]: w_pos = 4/(2*1*1) = 2, w_neg = 4/(2*1*3) = 2/3
    w = class_weights(np.array([[1], [0], [0], [0]]))
    assert w.pos[0] == pytest.approx(2.0, abs=1e-12)
    assert w.neg[0] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_class_weights_two_task_oracle():
    # K=2, task 0 labels [1,1,0,0,0,0,0,u]: n_0=7, P_0=2, N_0=5
    # w_pos = 7/(2*2*2) = 0.875, w_neg = 7/(2*2*5) = 0.35
    labels = np.array([[1, 1], [1, 0], [0, 1], [0, 0],
                       [0, 1], [0, 0], [0, 1], [UNKNOWN, 0]])
    w = class_weights(labels)
    assert w.pos[0] == pytest.approx(0.875, abs=1e-12)
    assert w.neg[0] == pytest.approx(0.35, abs=1e-12)


def test_class_weights_balanced_is_inverse_task_count():
    # P = N = n/2 gives w_pos = w_neg = 1/K
    labels = np.array([[1, 1], [1, 1], [0, 0], [0, 0]])
    w = class_weights(labels)
    np.testing.assert_allclose(w.pos, 0.5, rtol=1e-15)
    np.testing.assert_allclose(w.neg, 0.5, rtol=1e-15)


def test_class_weights_need_both_classes():
    with pytest.raises(ValueError, match="task 0"):
        class_weights(np.array([[1], [1], [UNKNOWN]]))
    with pytest.raises(ValueError, match="task 1"):
        class_weights(np.array([[1, 0], [0, 0], [0, UNKNOWN]]))


# ---------------------------------------------------------------------------
# masking


def test_unknown_entries_contribute_nothing():
    phis = np.array([0.7, 0.2, 0.9])
    full = masked_multilabel_loss(np.array([1, 0, 1]), phis, "asl", asl=ASLConfig())
    masked = masked_multilabel_loss(np.array([1, UNKNOWN, 1]), phis, "asl", asl=ASLConfig())
    only_first_last = (asl_term(1, 0.7, ASLConfig()) + asl_term(1, 0.9, ASLConfig()))
    assert masked == pytest.approx(only_first_last, abs=1e-12)
    assert masked != pytest.approx(full, abs=1e-9)


def test_all_unknown_record_has_zero_loss():
    phis = np.array([0.7, 0.2])
    labels = np.array([UNKNOWN, UNKNOWN])
    assert masked_multilabel_loss(labels, phis, "asl", asl=ASLConfig()) == 0.0
    w = ClassWeights(pos=np.ones(2), neg=np.ones(2))
    assert masked_multilabel_loss(labels, phis, "avg", weights=w) == 0.0


def test_unknown_gradient_is_exactly_zero():
    phi = ad.parameter(np.array([[0.7, 0.2, 0.4]]))
    labels = np.array([[1, UNKNOWN, 0]])
    out = classification_loss_graph(phi, labels, ASLConfig()).sum()
    ad.backward(out)
    assert phi.grad[0, 1] == 0.0          # bitwise zero, not merely small
    assert phi.grad[0, 0] != 0.0
    assert phi.grad[0, 2] != 0.0


def test_validate_labels_rejects_other_values():
    with pytest.raises(ValueError):
        validate_labels(np.array([0, 2]))
    with pytest.raises(ValueError):
        validate_labels(np.array([0.5]))


# ---------------------------------------------------------------------------
# graph builders agree with the scalar reference


@pytest.mark.parametrize("kind", ["avg", "asl"])
def test_graph_matches_reference_per_record(kind):
    gen = np.random.default_rng(42)
    phis = gen.uniform(0.05, 0.95, size=(6, 4))
    labels = gen.integers(-1, 2, size=(6, 4))
    labels[0] = [1, 0, 1, 0]  # at least one fully labeled record
    w = ClassWeights(pos=gen.uniform(0.5, 2.0, 4), neg=gen.uniform(0.5, 2.0, 4))
    cfg = ASLConfig(margin=0.07, gamma_neg=3.0)
    out = classification_loss_graph(ad.constant(phis), labels, w if kind == "avg" else cfg)
    assert out.shape == (6,)
    for i in range(6):
        ref = masked_multilabel_loss(labels[i], phis[i], kind, weights=w, asl=cfg)
        assert out.value[i] == pytest.approx(ref, abs=1e-12), f"record {i}"


@pytest.mark.parametrize("loss, type_name", [("avg", "str"), (None, "NoneType")])
def test_a_loss_of_another_type_is_refused_by_name(loss, type_name):
    with pytest.raises(TypeError, match=f"got {type_name}$"):
        classification_loss_graph(ad.parameter([[0.3]]), np.array([[1]]), loss)


def test_reconstruction_graph_matches_reference():
    gen = np.random.default_rng(7)
    e = gen.standard_normal((5, 3))
    e_hat = gen.standard_normal((5, 3))
    out = reconstruction_loss_graph(e, ad.constant(e_hat))
    np.testing.assert_allclose(out.value, ((e_hat - e) ** 2).sum(axis=1), rtol=1e-13)


def test_projector_loss_composes_both_terms():
    e = np.array([1.0, 2.0])
    e_hat = np.array([0.5, 2.0])
    labels = np.array([1])
    phis = np.array([0.6])
    cfg = ASLConfig()
    expected = 0.25 + 3.0 * asl_term(1, 0.6, cfg)
    got = projector_loss(e, e_hat, labels, phis, beta=3.0, kind="asl", asl=cfg)
    assert got == pytest.approx(expected, abs=1e-12)


def test_graph_gradients_match_finite_differences():
    gen = np.random.default_rng(3)
    labels = np.array([[1, 0, UNKNOWN], [0, 1, 1]])
    w = ClassWeights(pos=np.array([1.5, 0.7, 1.0]), neg=np.array([0.9, 1.1, 2.0]))
    params = ad.ParamSet({"logits": ad.parameter(gen.standard_normal((2, 3)) * 0.5)})

    for kind, loss in (("avg", w), ("asl", ASLConfig())):
        def build(p):
            phi = ad.sigmoid(p["logits"])
            return classification_loss_graph(phi, labels, loss).mean()
        report = ad.finite_diff_check(build, params, tol=1e-6)
        assert report.passed, f"{kind}: {report.format()}"


def test_clamp_keeps_log_finite_at_extreme_confidence():
    phi = ad.constant(np.array([[1.0, 0.0]]))
    labels = np.array([[1, 0]])
    w = ClassWeights(pos=np.ones(2), neg=np.ones(2))
    out = classification_loss_graph(phi, labels, w).sum()
    # clamped at [eps, 1-eps]: -ln(1-eps) - ln(1-eps), tiny but finite
    expected = -2.0 * math.log(1.0 - PROB_EPS)
    assert out.value == pytest.approx(expected, rel=1e-6)


def test_asl_margin_kink_yields_zero_negative_term_in_graph():
    phi = ad.parameter(np.array([[0.03]]))
    labels = np.array([[0]])
    out = classification_loss_graph(phi, labels, ASLConfig(margin=0.05, gamma_neg=4.0)).sum()
    assert ad.backward(out) == 0.0
    assert phi.grad[0, 0] == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        ASLConfig(margin=-0.1)
    with pytest.raises(ValueError):
        ASLConfig(margin=1.5)
    with pytest.raises(ValueError):
        ASLConfig(gamma_neg=-1.0)
    with pytest.raises(ValueError):
        ClassWeights(pos=np.array([0.0]), neg=np.array([1.0]))
    with pytest.raises(ValueError):
        masked_multilabel_loss(np.array([1]), np.array([0.5]), "nope")


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=80, deadline=None)
@given(st.floats(0.01, 0.99), st.integers(0, 1))
def test_terms_are_nonnegative(phi, y):
    assert wbce_term(y, phi, 1.3, 0.8) >= 0.0
    assert asl_term(y, phi, ASLConfig()) >= 0.0


@settings(max_examples=60, deadline=None)
@given(st.floats(0.01, 0.99))
def test_asl_negative_term_monotone_in_phi(phi):
    # a higher confidence on a negative label can never cost less
    cfg = ASLConfig(margin=0.05, gamma_neg=4.0)
    step = min(phi + 0.005, 0.995)
    assert asl_term(0, step, cfg) >= asl_term(0, phi, cfg) - 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_permuting_tasks_permutes_nothing_in_total(seed):
    gen = np.random.default_rng(seed)
    phis = gen.uniform(0.05, 0.95, size=5)
    labels = gen.integers(-1, 2, size=5)
    if not np.any(labels == 1) or not np.any(labels == 0):
        labels[0], labels[1] = 1, 0
    perm = gen.permutation(5)
    cfg = ASLConfig()
    a = masked_multilabel_loss(labels, phis, "asl", asl=cfg)
    b = masked_multilabel_loss(labels[perm], phis[perm], "asl", asl=cfg)
    assert a == pytest.approx(b, rel=1e-12)
