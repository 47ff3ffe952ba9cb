"""The gradient audit: `gradcheck_suite` evaluates each chunk of a
parameter's finite-difference probes as one stacked pass, in which the
perturbed tensor keeps its copies axis. These tests hold it to the serial
loop of `finite_diff_check` (one evaluation of the objective per probe, with
the entry set in place) bit for bit, check that a wrong gradient or an
overflowing probe is still caught through the stacked path, and audit a
range of seeds."""

from functools import lru_cache

import numpy as np
import pytest

import riskfuse.autodiff as ad
from riskfuse import pipeline

H, TOL = 1e-5, 1e-4


@lru_cache(maxsize=None)
def _suite(seed):
    return pipeline.gradcheck_suite(seed)


@lru_cache(maxsize=None)
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


@pytest.mark.parametrize("per_call", [15, 7])
def test_any_chunk_size_gives_the_serial_probes_bit_for_bit(monkeypatch, per_call):
    # at 15 per call, the 256 probes of an enc_w end in a one-copy chunk
    monkeypatch.setattr(pipeline, "GRADCHECK_PROBES_PER_CALL", per_call)
    _, serial_losses = _serial(0)
    batched_losses = _batched_losses(0)
    assert len(batched_losses) == len(serial_losses)
    assert [i for i, (b, s) in enumerate(zip(batched_losses, serial_losses)) if b != s] == []


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


# copy 17 of a decoder weight gets a row at 1e308, which overflows the decode
# at seed 0; a finite encoder bias cannot overflow its pre-activation, so its
# copy 17 gets an Inf entry
@pytest.mark.parametrize("name, value, op", [("alpha.dec_w", 1e308, "reconstruct"),
                                             ("bravo.enc_b", np.inf, "project")])
def test_a_non_finite_probe_names_the_serial_primitive_through_the_stacked_path(name, value, op):
    computation, params, probe_losses = pipeline._gradcheck_problem(0)
    stack = np.repeat(params.value(name)[np.newaxis], 32, axis=0)
    stack[17, 0] = value
    with np.errstate(all="ignore"), pytest.raises(ad.NonFiniteError) as exc:
        probe_losses(name, stack)
    assert exc.value.op == op
    params.value(name)[...] = stack[17]
    with np.errstate(all="ignore"), ad.no_graph(), pytest.raises(ad.NonFiniteError) as exc:
        computation(params)
    assert exc.value.op == op


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
    # the analytic pass, the unperturbed pass, then per source the 256 + 32
    # probes of enc_w and enc_b at 32 per call; the 256 + 16 probes of dec_w
    # and dec_b reuse the unperturbed confidences (the serial loop: 1681)
    assert pipeline.GRADCHECK_PROBES_PER_CALL == 32
    assert len(calls) == 1 + 1 + 3 * (8 + 1) == 29
    assert calls == [4, 4] + [4 * 32] * 27

