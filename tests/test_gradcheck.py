"""The gradient audit: `gradcheck_suite` evaluates each parameter's
finite-difference probes as lockstep groups, many per backbone call. These
tests hold it to the serial loop of `finite_diff_check` (one evaluation of
the objective per probe, with the entry set in place) bit for bit, check
that a wrong gradient or an overflowing probe is still caught through the
batched path, and audit a range of seeds."""

from functools import lru_cache

import numpy as np
import pytest

import riskfuse.autodiff as ad
from riskfuse import pipeline
from riskfuse.frozenlm import LMConfig, draw_designated, init_frozen
from riskfuse.losses import ASLConfig
from riskfuse.projector import ProjectorConfig, init_projector

H, TOL = 1e-5, 1e-4


@lru_cache(maxsize=None)
def _suite(seed):
    return pipeline.gradcheck_suite(seed)


def _serial(seed):
    """The serial report of the audit's objective and every probe loss it
    evaluated, in probe order."""
    computation, params, _ = pipeline._gradcheck_problem(seed)
    losses = []

    def recording(p):
        out = computation(p)
        if not out.requires_grad:
            losses.append(float(out.value))
        return out

    return ad.finite_diff_check(recording, params, h=H, tol=TOL), losses


def _batched_losses(seed):
    """Every probe loss the suite's batched evaluator returns, in probe order."""
    computation, params, probe_losses = pipeline._gradcheck_problem(seed)
    losses = []

    def recording(name, stack):
        out = probe_losses(name, stack)
        losses.extend(out)
        return out

    ad.finite_diff_check(computation, params, h=H, tol=TOL, probe_losses=recording)
    return losses


@pytest.mark.parametrize("seed", range(8))
def test_batched_probes_equal_the_serial_probes_bit_for_bit(seed):
    serial, serial_losses = _serial(seed)
    batched_losses = _batched_losses(seed)
    assert len(batched_losses) == len(serial_losses) == 2 * 840
    mismatches = [i for i, (b, s) in enumerate(zip(batched_losses, serial_losses)) if b != s]
    assert not mismatches, f"{len(mismatches)} probes differ, first at {mismatches[0]}"
    assert _suite(seed).format() == serial.format()


def test_a_poisoned_gradient_entry_fails_at_its_index_through_the_batched_path():
    computation, params, probe_losses = pipeline._gradcheck_problem(0)
    ad.eval_with_grads(computation, params)
    poisoned, worst = {}, {}
    for name in params.names():
        grad = params.grad(name).copy().reshape(-1)
        worst[name] = int(np.argmax(np.abs(grad)))
        grad[worst[name]] *= 1.001
        poisoned[name] = grad
    report = ad.finite_diff_check(computation, params, h=H, tol=TOL, analytic=poisoned,
                                  probe_losses=probe_losses)
    assert len(report.checks) == 12
    for check in report.checks:
        assert not check.passed, check.name
        assert check.worst_index == worst[check.name], check.name
    assert "-> FAIL" in report.format()


def test_an_overflowing_probe_names_the_primitive_through_the_batched_path():
    _, params, probe_losses = pipeline._gradcheck_problem(0)
    stack = np.repeat(params.value("bravo.enc_w")[np.newaxis], 32, axis=0)
    stack[17, 0] = 1e308
    with np.errstate(all="ignore"), pytest.raises(ad.NonFiniteError) as exc:
        probe_losses("bravo.enc_w", stack)
    assert exc.value.op == "project"
    # the same through the suite: the +h probe of the first entry overflows
    with np.errstate(all="ignore"), pytest.raises(ad.NonFiniteError) as exc:
        pipeline.gradcheck_suite(0, h=1e308)
    assert exc.value.op == "project"


# ROADMAP item 5: on correct code the audit reads FAIL at these seeds, at
# seed 71 because the +-h probe crosses a relu kink, at seed 48 because the
# difference quotient's rounding error exceeds the disagreement
FALSE_FAILURES = {48: "max_rel_err 1.52e-4", 71: "max_rel_err 1.88e-4"}


@pytest.mark.parametrize("seed", [*range(16), *(
    pytest.param(seed, marks=pytest.mark.xfail(
        strict=True, reason=f"ROADMAP item 5: false failure on correct code ({err})"))
    for seed, err in FALSE_FAILURES.items())])
def test_gradcheck_suite_passes_across_seeds(seed):
    report = _suite(seed)
    assert report.passed, report.format()


def test_the_suite_makes_a_pinned_number_of_backbone_calls(monkeypatch):
    calls = []
    lm_forward = pipeline.lm_forward

    def counting(weights, x, columns):
        calls.append(x.shape[0])
        return lm_forward(weights, x, columns)

    monkeypatch.setattr(pipeline, "lm_forward", counting)
    pipeline.gradcheck_suite(0)
    # the analytic pass, then per source 256 + 32 + 256 + 16 probes of
    # enc_w, enc_b, dec_w and dec_b at 32 per call (the serial loop: 1681)
    assert pipeline.GRADCHECK_PROBES_PER_CALL == 32
    assert len(calls) == 1 + 3 * (8 + 1 + 8 + 1) == 55
    assert calls[0] == 4 and max(calls) == 4 * 32


def test_a_projector_shared_by_groups_is_evaluated_once_per_call(monkeypatch):
    lm = LMConfig(d_model=16, n_layers=1, n_heads=2, vocab=32, max_seq=4, seed=2)
    gen = np.random.default_rng(2)
    projectors = {name: init_projector(ProjectorConfig(8, 16), 2, name) for name in "ab"}
    emb = {name: gen.standard_normal((3, 8)) for name in "ab"}
    labels = np.array([[1, 0], [0, 1], [-1, 1]])
    common = dict(frozen=init_frozen(lm), designated=draw_designated(32, 2, 2),
                  emb_batch=emb, loss=ASLConfig(), beta=2.0)
    alone = []
    pipeline.build_joint_loss([projectors], labels_batch=labels, group_losses=alone, **common)()

    projected = []
    project = pipeline.project

    def counting(pp, e):
        projected.append(pp)
        return project(pp, e)

    monkeypatch.setattr(pipeline, "project", counting)
    copy_b = init_projector(ProjectorConfig(8, 16), 2, "b")
    shared = []
    pipeline.build_joint_loss([projectors, {**projectors, "b": copy_b}, projectors],
                              labels_batch=np.tile(labels, (3, 1)), group_losses=shared,
                              **common)()
    assert projected == [projectors["a"], projectors["b"], copy_b]
    assert shared == [alone[0] * 3]
