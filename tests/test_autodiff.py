"""Gradient engine tests: forward values against numpy, analytic gradients
against central differences, and the failure modes (non-finite detection,
fault injection, shape mismatches). The primitives that only the oracles
use come from `oracle_ops.py`."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskfuse.autodiff as ad

from oracle_ops import (clip, getitem, log, matmul, maximum_const, neg, power_const, sub,
                        swapaxes, tanh)


def _rng(seed=0):
    return np.random.default_rng(seed)


def check_scalar_fn(build, params: ad.ParamSet, tol=1e-6):
    """Dual route: analytic grads from backward(), numeric from central
    differences; both must agree entrywise."""
    report = ad.finite_diff_check(build, params, tol=tol)
    assert report.passed, report.format()
    return report


# ---------------------------------------------------------------------------
# forward semantics


def test_forward_matches_numpy_elementwise():
    a = _rng(1).standard_normal((3, 4))
    b = _rng(2).standard_normal((3, 4))
    ta, tb = ad.constant(a), ad.constant(b)
    np.testing.assert_array_equal((ta + tb).value, a + b)
    np.testing.assert_array_equal(sub(ta, tb).value, a - b)
    np.testing.assert_array_equal((ta * tb).value, a * b)
    np.testing.assert_array_equal(neg(ta).value, -a)
    np.testing.assert_allclose(tanh(ta).value, np.tanh(a), rtol=1e-15)


def test_ndarray_left_operand_dispatches_to_tensor():
    # ndarray.__mul__ must not swallow the tensor into an object array
    a = _rng(3).standard_normal((2, 3))
    t = ad.parameter(np.ones((2, 3)))
    for combined in (a * t, a + t):
        assert isinstance(combined, ad.Tensor)
        assert combined.shape == (2, 3)


def test_sigmoid_is_stable_at_extreme_logits():
    t = ad.constant(np.array([-800.0, -30.0, 0.0, 30.0, 800.0]))
    s = ad.sigmoid(t).value
    assert np.all(np.isfinite(s))
    assert s[0] == 0.0 or s[0] < 1e-300
    assert s[2] == 0.5
    assert s[4] == 1.0 or s[4] > 1.0 - 1e-12


def test_matmul_broadcasts_leading_batch_dims():
    a = _rng(5).standard_normal((4, 2, 3))
    b = _rng(6).standard_normal((3, 5))
    out = matmul(ad.constant(a), ad.constant(b))
    np.testing.assert_allclose(out.value, a @ b, rtol=1e-15)


def test_getitem_slices_and_reshape():
    a = _rng(7).standard_normal((4, 6))
    t = ad.constant(a)
    np.testing.assert_array_equal(getitem(t, np.s_[1:3, ::2]).value, a[1:3, ::2])
    np.testing.assert_array_equal(t.reshape(2, 12).value, a.reshape(2, 12))
    np.testing.assert_array_equal(swapaxes(t, 0, 1).value, a.swapaxes(0, 1))


def test_power_const_zero_base_special_cases():
    t = ad.constant(np.array([0.0, 2.0]))
    np.testing.assert_array_equal(power_const(t, 0.0).value, [1.0, 1.0])
    np.testing.assert_array_equal(power_const(t, 1.0).value, [0.0, 2.0])
    np.testing.assert_array_equal(power_const(t, 3.0).value, [0.0, 8.0])


# ---------------------------------------------------------------------------
# gradients: analytic vs central differences, one primitive at a time


@pytest.mark.parametrize("name,expr", [
    ("add", lambda x, y: (x + y).sum()),
    ("sub", lambda x, y: sub(x, y).sum()),
    ("mul", lambda x, y: (x * y).sum()),
    ("neg", lambda x, y: neg(x * y).sum()),
    ("tanh", lambda x, y: tanh(x * y).sum()),
    ("sigmoid", lambda x, y: ad.sigmoid(sub(x, y)).sum()),
    ("mean", lambda x, y: (x * y).mean()),
    ("axis_sum", lambda x, y: ((x + y).sum(axis=0) * 2.0).sum()),
    ("clip", lambda x, y: (clip(x, -0.5, 0.5) * y).sum()),
    ("swapaxes", lambda x, y: matmul(swapaxes(x, 0, 1), y).sum()),
])
def test_primitive_gradients(name, expr):
    # str hash() is salted per process; crc32 draws the same data every run
    gen = _rng(zlib.crc32(name.encode()))
    params = ad.ParamSet({"x": ad.parameter(gen.standard_normal((3, 3))),
                          "y": ad.parameter(gen.standard_normal((3, 3)))})
    check_scalar_fn(lambda p: expr(p["x"], p["y"]), params)


@pytest.mark.parametrize("frozen", ["left", "right"])
@pytest.mark.parametrize("name,shapes,expr", [
    ("add", ((3, 3), (3,)), lambda u, v: tanh(u + v).sum()),
    ("sub", ((3, 3), (3,)), lambda u, v: tanh(sub(u, v)).sum()),
    ("mul", ((3, 3), (3,)), lambda u, v: tanh(u * v).sum()),
    # the left operand is the broadcast one
    ("mul_broadcast_left", ((3,), (2, 3)), lambda u, v: tanh(u * v).sum()),
    ("matmul", ((3, 4), (4, 2)), lambda u, v: tanh(matmul(u, v)).sum()),
    ("matmul_batched", ((2, 3, 4), (4, 2)), lambda u, v: tanh(matmul(u, v)).sum()),
    ("matmul_batched_right", ((3, 4), (2, 4, 2)), lambda u, v: tanh(matmul(u, v)).sum()),
    ("concat", ((2, 3), (2, 2)),
     lambda u, v: (tanh(ad.concat([u, v], axis=1)) * np.arange(10.0).reshape(2, 5)).sum()),
])
def test_primitive_gradients_with_a_frozen_operand(name, shapes, expr, frozen):
    gen = _rng(zlib.crc32(f"{name}-{frozen}".encode()))
    left, right = (gen.standard_normal(shape) for shape in shapes)
    if frozen == "left":
        const = ad.constant(left)
        params = ad.ParamSet({"x": ad.parameter(right)})
        check_scalar_fn(lambda p: expr(const, p["x"]), params)
    else:
        const = ad.constant(right)
        params = ad.ParamSet({"x": ad.parameter(left)})
        check_scalar_fn(lambda p: expr(p["x"], const), params)
    assert const.grad is None


def test_frozen_operand_vjp_is_never_evaluated():
    # d/dc of x * c is g * x = 1e200 * 1e200, which overflows if computed
    x = ad.parameter(np.array([1e200]))
    c = ad.constant(np.array([1e-200]))
    with np.errstate(over="raise"):
        ad.backward((x * c).sum() * 1e200)
    np.testing.assert_array_equal(x.grad, np.array([1e200]) * 1e-200)


def test_matmul_gradient_including_batched():
    gen = _rng(11)
    params = ad.ParamSet({"a": ad.parameter(gen.standard_normal((2, 3, 4))),
                          "b": ad.parameter(gen.standard_normal((4, 2)))})
    check_scalar_fn(lambda p: (matmul(p["a"], p["b"]) * 0.7).sum(), params)


def test_broadcast_gradients_reduce_to_param_shape():
    gen = _rng(12)
    params = ad.ParamSet({"m": ad.parameter(gen.standard_normal((4, 3))),
                          "row": ad.parameter(gen.standard_normal(3))})

    def build(p):
        return ((p["m"] + p["row"]) * (p["m"] * p["row"])).sum()

    check_scalar_fn(build, params)
    assert params.grad("row").shape == (3,)


def test_log_gradient_on_positive_domain():
    params = ad.ParamSet({"x": ad.parameter(np.array([0.3, 1.0, 2.5]))})
    check_scalar_fn(lambda p: log(p["x"] * p["x"] + 0.1).sum(), params)


def test_concat_and_getitem_gradients():
    gen = _rng(13)
    params = ad.ParamSet({"a": ad.parameter(gen.standard_normal((2, 3))),
                          "b": ad.parameter(gen.standard_normal((2, 3)))})

    def build(p):
        cat = ad.concat([p["a"], p["b"]], axis=1)
        part = getitem(cat, np.s_[:, 1:5])
        return (part * part).sum()

    check_scalar_fn(build, params)


def test_getitem_gradient_accumulates_repeated_indices():
    x = ad.parameter(np.array([1.0, 2.0, 3.0]))
    ad.backward(getitem(x, [0, 0, 2]).sum())
    np.testing.assert_array_equal(x.grad, [2.0, 0.0, 1.0])
    params = ad.ParamSet({"m": ad.parameter(_rng(14).standard_normal((4, 3)))})
    weights = _rng(15).standard_normal((5, 3))
    check_scalar_fn(lambda p: (tanh(getitem(p["m"], [0, 2, 0, 3, 2])) * weights).sum(), params)
    check_scalar_fn(lambda p: tanh(getitem(p["m"], ([1, 1, 3], [2, 2, 0])) * 2.0).sum(), params)


def test_maximum_const_gradient_away_from_kink():
    params = ad.ParamSet({"x": ad.parameter(np.array([-1.0, -0.2, 0.4, 2.0]))})
    check_scalar_fn(lambda p: (maximum_const(p["x"], 0.0) * 3.0).sum(), params)


def test_power_const_gradient():
    params = ad.ParamSet({"x": ad.parameter(np.array([0.2, 0.7, 1.9]))})
    check_scalar_fn(lambda p: power_const(p["x"], 4.0).sum(), params)


def test_diamond_graph_accumulates_both_paths():
    params = ad.ParamSet({"x": ad.parameter(np.array([2.0])), "y": ad.parameter(np.array([3.0]))})

    def build(p):
        shared = p["x"] * p["y"]
        return (shared + p["x"]).sum()  # d/dx = y + 1, d/dy = x

    ad.eval_with_grads(build, params)
    np.testing.assert_allclose(params.grad("x"), [4.0], rtol=1e-15)
    np.testing.assert_allclose(params.grad("y"), [2.0], rtol=1e-15)


def test_reused_node_many_consumers():
    params = ad.ParamSet({"x": ad.parameter(np.array([1.5]))})

    def build(p):
        s = tanh(p["x"])
        return (s * s + s * 2.0 + s).sum()

    check_scalar_fn(build, params)


# ---------------------------------------------------------------------------
# non-finite detection


def test_forward_nan_raises_and_names_primitive():
    negative = ad.constant(np.array([-1.0]))
    with pytest.raises(ad.NonFiniteError) as exc:
        log(negative)
    assert exc.value.op == "log"
    assert "log" in str(exc.value)


def test_forward_inf_raises():
    big = ad.constant(np.array([1e308]))
    with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError) as exc:
        _ = big * big
    assert exc.value.op == "mul"


def test_log_of_zero_raises():
    with pytest.raises(ad.NonFiniteError) as exc:
        log(ad.constant(np.array([0.0])))
    assert exc.value.op == "log"


def test_backward_nonfinite_detected():
    # forward survives log(tiny); backward 1/tiny overflows
    params = ad.ParamSet({"x": ad.parameter(np.array([1e-320]))})
    with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError) as exc:
        ad.eval_with_grads(lambda p: log(p["x"]).sum(), params)
    assert exc.value.op == "log"


def test_constant_construction_rejects_nan():
    with pytest.raises(ad.NonFiniteError):
        ad.constant(np.array([np.nan]))
    with pytest.raises(ad.NonFiniteError):
        ad.constant(np.array([np.inf]))


# ---------------------------------------------------------------------------
# engine plumbing


def test_constants_have_no_grad_buffer():
    c = ad.constant(np.ones(3))
    assert c.grad is None and not c.requires_grad
    p = ad.parameter(np.ones(3))
    assert p.grad is not None and p.grad.shape == (3,)


def test_backward_requires_scalar():
    p = ad.parameter(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.backward(p * 2.0)


def test_eval_with_grads_zeroes_between_calls():
    params = ad.ParamSet({"x": ad.parameter(np.array([1.0, 2.0]))})
    build = lambda p: (p["x"] * p["x"]).sum()
    ad.eval_with_grads(build, params)
    first = params.grad("x").copy()
    ad.eval_with_grads(build, params)
    np.testing.assert_array_equal(params.grad("x"), first)  # not doubled


def test_paramset_rejects_nonleaves():
    x = ad.parameter(np.ones(2))
    with pytest.raises(ValueError):
        ad.ParamSet({"y": x * 2.0})  # interior node
    with pytest.raises(ValueError):
        ad.ParamSet({"z": ad.constant(np.ones(2))})  # frozen


def test_paramset_leaves_are_views_of_its_flat_store():
    gen = _rng(21)
    start = {"b": gen.standard_normal(3), "w": gen.standard_normal((3, 2)),
             "c": gen.standard_normal(2), "v": gen.standard_normal((2, 2))}
    leaves = {name: ad.parameter(value) for name, value in start.items()}
    params = ad.ParamSet(leaves)
    assert params.names() == ("b", "w", "c", "v")
    assert params.n_matrix == 6 + 4
    assert params.values.shape == params.grads.shape == (15,)
    for name, t in leaves.items():
        assert params[name] is t
        assert t.value.base is params.values and t.grad.base is params.grads
        np.testing.assert_array_equal(t.value, start[name])
    # matrices fill the front of the buffer, in insertion order
    np.testing.assert_array_equal(params.values[:params.n_matrix],
                                  np.concatenate([start["w"].ravel(), start["v"].ravel()]))
    ad.eval_with_grads(lambda p: sum(((p[n] * p[n]).sum() for n in start), ad.constant(0.0)),
                       params)
    assert all(np.all(t.grad != 0.0) for t in leaves.values())
    params.zero_grads()
    for t in leaves.values():
        np.testing.assert_array_equal(t.grad, 0.0)
    assert not params.grads_populated


def test_graph_below_constants_is_pruned():
    c = ad.constant(np.ones(4))
    out = (c * 2.0) + 1.0
    assert not out.requires_grad
    assert ad.backward(out.sum()) == pytest.approx(12.0)


def test_no_graph_builds_plain_nodes_with_the_same_values():
    x = ad.parameter(np.array([0.5, -1.0]))
    recorded = tanh(x * 2.0).sum()
    with ad.no_graph():
        inner = x * 2.0
        out = tanh(inner).sum()
    for node in (inner, out):
        assert node._parents == () and not node.requires_grad
    assert out.value == recorded.value


def test_no_graph_still_names_a_nonfinite_primitive():
    x = ad.parameter(np.array([0.0]))
    with ad.no_graph(), pytest.raises(ad.NonFiniteError) as exc:
        log(x)
    assert exc.value.op == "log"


def test_no_graph_restores_recording_after_an_exception():
    x = ad.parameter(np.array([1.0]))
    with pytest.raises(ValueError):
        with ad.no_graph():
            raise ValueError("inside")
    assert (x * 2.0)._parents


def test_eval_with_grads_refuses_to_run_inside_no_graph():
    params = ad.ParamSet({"x": ad.parameter(np.array([1.0]))})
    with ad.no_graph(), pytest.raises(RuntimeError, match="no_graph"):
        ad.eval_with_grads(lambda p: (p["x"] * 3.0).sum(), params)


# ---------------------------------------------------------------------------
# the finite-difference checker itself


def test_finite_diff_probes_record_no_graph():
    recorded = []
    params = ad.ParamSet({"x": ad.parameter(np.array([0.5, -0.3]))})

    def build(p):
        out = (p["x"] * p["x"]).sum()
        recorded.append(out.requires_grad)
        return out

    assert ad.finite_diff_check(build, params).passed
    assert recorded == [True] + [False] * 4  # the analytic pass, then 2 probes per entry


def test_finite_diff_flags_corrupted_gradient():
    params = ad.ParamSet({"x": ad.parameter(np.array([0.5, -0.3]))})
    build = lambda p: (p["x"] * p["x"]).sum()
    ad.eval_with_grads(build, params)
    poisoned = {"x": params.grad("x") + 0.1}
    report = ad.finite_diff_check(build, params, analytic=poisoned, tol=1e-6)
    assert not report.passed
    bad = [c for c in report.checks if not c.passed]
    assert bad and bad[0].name == "x"


def test_finite_diff_catches_corrupted_zero_gradient():
    # analytic says 0.1 where the true gradient is 0: numeric is below the
    # floor but analytic is not, so the entry must still be compared
    params = ad.ParamSet({"x": ad.parameter(np.array([1.0])),
                          "dead": ad.parameter(np.array([2.0]))})
    build = lambda p: (p["x"] * p["x"]).sum() + (p["dead"] * 0.0).sum()
    ad.eval_with_grads(build, params)
    report = ad.finite_diff_check(build, params, analytic={"x": params.grad("x"),
                                                          "dead": np.array([0.1])})
    assert not report.passed


def test_finite_diff_counts_negligible_entries():
    params = ad.ParamSet({"dead": ad.parameter(np.array([2.0, 3.0]))})
    build = lambda p: (p["dead"] * 0.0).sum() + 1.0
    report = ad.finite_diff_check(build, params)
    assert report.passed
    assert report.checks[0].n_negligible == 2


def test_finite_diff_report_format_mentions_every_param():
    params = ad.ParamSet({"alpha": ad.parameter(np.array([0.4])),
                          "beta": ad.parameter(np.array([1.2]))})
    report = ad.finite_diff_check(lambda p: (p["alpha"] * p["beta"]).sum(), params)
    text = report.format()
    assert "alpha" in text and "beta" in text and "PASS" in text


@pytest.mark.parametrize("arg", ("h", "tol"))
@pytest.mark.parametrize("value", (0.0, -1e-5, float("nan"), float("inf"), float("-inf")))
def test_finite_diff_rejects_a_non_finite_or_non_positive_step_or_tolerance(arg, value):
    params = ad.ParamSet({"x": ad.parameter(np.array([0.5]))})
    with pytest.raises(ValueError, match=f"^{arg} must be a positive finite number, got"):
        ad.finite_diff_check(lambda p: (p["x"] * p["x"]).sum(), params, **{arg: value})


def _serial_probes(build, params, h):
    """Every probe loss of the serial loop, in probe order."""
    losses = []

    def recording(p):
        out = build(p)
        if not out.requires_grad:
            losses.append(float(out.value))
        return out

    report = ad.finite_diff_check(recording, params, h=h, tol=1e-5)
    return report, losses


def test_batched_probe_losses_feed_the_same_scoring_as_the_serial_loop():
    gen = np.random.default_rng(3)
    params = ad.ParamSet({"x": ad.parameter(gen.uniform(-2.0, 2.0, size=(2, 3))),
                          "y": ad.parameter(gen.uniform(-2.0, 2.0, size=(3,)))})

    def build(p):
        h = tanh(p["x"] * p["y"] + 0.3)
        return (ad.sigmoid(h.sum(axis=1)) * h.mean()).sum()

    stacks, batched_losses = [], []

    def probe_losses(name, stack):
        # one probe at a time through the parameter, as a batched evaluator
        # would see them: copy 2i holds entry i at +h, copy 2i+1 at -h
        stacks.append((name, stack.shape))
        value = params.value(name)
        saved = value.copy()
        losses = []
        for probe in stack:
            value[...] = probe
            with ad.no_graph():
                losses.append(float(build(params).value))
        value[...] = saved
        batched_losses.extend(losses)
        return losses

    serial, serial_losses = _serial_probes(build, params, h=1e-5)
    batched = ad.finite_diff_check(build, params, h=1e-5, tol=1e-5, probe_losses=probe_losses)
    assert stacks == [("x", (12, 2, 3)), ("y", (6, 3))]
    assert batched_losses == serial_losses and len(serial_losses) == 2 * (6 + 3)
    assert batched.format() == serial.format()


def _scored_entry_by_entry(an, losses, h):
    """(max_rel_err, worst_index, n_negligible) of one parameter, scored one
    entry at a time: the reference for `finite_diff_check`'s array pass."""
    max_rel, worst, negligible = 0.0, None, 0
    for i in range(len(an)):
        numeric = (float(losses[2 * i]) - float(losses[2 * i + 1])) / (2.0 * h)
        scale = max(abs(an[i]), abs(numeric))
        if scale < ad.FD_FLOOR:
            negligible += 1
            continue
        rel = abs(an[i] - numeric) / scale
        if rel > max_rel:
            max_rel, worst = rel, i
    return max_rel, worst, negligible


def _check_crafted(cases: dict, h: float, tol: float) -> ad.GradCheckReport:
    """finite_diff_check on parameters whose analytic gradients and probe
    losses are given: `cases` maps a name to (analytic, losses)."""
    params = ad.ParamSet({name: ad.parameter(np.zeros(len(an)))
                          for name, (an, _) in cases.items()})
    report = ad.finite_diff_check(None, params, h=h, tol=tol,
                                  analytic={name: np.array(an) for name, (an, _) in cases.items()},
                                  probe_losses=lambda name, stack: cases[name][1])
    for check in report.checks:
        an, losses = cases[check.name]
        want = _scored_entry_by_entry(np.array(an), np.array(losses), h)
        assert (check.max_rel_err, check.worst_index, check.n_negligible) == want, check.name
        assert check.n_checked == len(an)
        assert check.passed == (want[0] < tol)
    return report


def _probes(numeric):
    """Probe losses whose central differences at h = 0.5 are `numeric`."""
    return [v for n in numeric for v in (n, 0.0)]


def test_finite_diff_scores_crafted_probes_as_an_entry_by_entry_loop():
    floor = ad.FD_FLOOR
    cases = {
        # rel 0, 0.5, 0.5, 0.5: the first of the tied maxima is the worst
        "tied": ([0.5, 1.0, 2.0, 1.0], _probes([0.5, 2.0, 1.0, 2.0])),
        # both magnitudes under the floor are negligible, one at it is not;
        # the other three errors tie at 1
        "negligible": ([floor / 2, 0.0, 0.1, floor, 0.0],
                       _probes([-floor / 4, floor / 2, 0.0, 0.0, 0.3])),
        "all_negligible": ([0.0, floor / 2, -floor / 3], _probes([floor / 3, 0.0, floor / 2])),
        "exact": ([1.5, -2.0, 0.25], _probes([1.5, -2.0, 0.25])),
    }
    report = _check_crafted(cases, h=0.5, tol=1e-3)
    got = {c.name: (c.max_rel_err, c.worst_index, c.n_negligible) for c in report.checks}
    assert got == {"tied": (0.5, 1, 0), "negligible": (1.0, 2, 2),
                   "all_negligible": (0.0, None, 3), "exact": (0.0, None, 0)}
    assert [c.passed for c in report.checks] == [False, False, True, True]


_ENTRY_VALUES = st.sampled_from([0.0, 5e-7, -5e-7, 1e-6, -1e-6, 0.3, -0.3, 1.0, 2.0, 1e-3])


@given(st.lists(st.lists(st.tuples(_ENTRY_VALUES, _ENTRY_VALUES, _ENTRY_VALUES),
                         min_size=1, max_size=8), min_size=1, max_size=3),
       st.sampled_from([1e-5, 0.5]))
def test_finite_diff_scores_random_probes_as_an_entry_by_entry_loop(params, h):
    _check_crafted({f"p{j}": ([an for an, _, _ in entries],
                              [v for _, plus, minus in entries for v in (plus, minus)])
                    for j, entries in enumerate(params)}, h=h, tol=1e-4)


@pytest.mark.parametrize("analytic, worst", [([np.nan, np.nan], 0), ([1.0, np.nan], 1)])
def test_finite_diff_fails_a_nan_analytic_gradient(analytic, worst):
    params = ad.ParamSet({"x": ad.parameter(np.array([0.5, -0.3]))})
    report = ad.finite_diff_check(lambda p: (p["x"] * p["x"]).sum(), params,
                                  analytic={"x": np.array(analytic)})
    check = report.checks[0]
    assert not report.passed and np.isnan(check.max_rel_err) and check.worst_index == worst


def test_finite_diff_rejects_probe_losses_of_the_wrong_length():
    params = ad.ParamSet({"x": ad.parameter(np.array([0.5, -0.3]))})
    with pytest.raises(ValueError, match=r"probe_losses for 'x' returned shape \(3,\)"):
        ad.finite_diff_check(lambda p: (p["x"] * p["x"]).sum(), params,
                             probe_losses=lambda name, stack: [0.0, 0.0, 0.0])


def test_finite_diff_restores_the_entry_a_failing_probe_set():
    start = np.array([0.7, 2.0])
    params = ad.ParamSet({"x": ad.parameter(start.copy())})

    def build(p):
        if p.value("x")[1] > 2.0:
            raise ad.NonFiniteError("probe")
        return (p["x"] * p["x"]).sum()

    with pytest.raises(ad.NonFiniteError):
        ad.finite_diff_check(build, params)
    np.testing.assert_array_equal(params.value("x"), start)


def test_finite_diff_restores_parameter_values():
    start = np.array([0.7, -1.1])
    params = ad.ParamSet({"x": ad.parameter(start.copy())})
    ad.finite_diff_check(lambda p: power_const(p["x"], 2.0).sum(), params)
    np.testing.assert_array_equal(params.value("x"), start)


# ---------------------------------------------------------------------------
# property tests


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=6),
       st.lists(st.floats(-5, 5), min_size=1, max_size=6))
def test_addition_commutes(xs, ys):
    n = min(len(xs), len(ys))
    a, b = np.array(xs[:n]), np.array(ys[:n])
    left = (ad.constant(a) + ad.constant(b)).value
    right = (ad.constant(b) + ad.constant(a)).value
    np.testing.assert_array_equal(left, right)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_random_expression_gradcheck(seed):
    gen = np.random.default_rng(seed)
    params = ad.ParamSet({"x": ad.parameter(gen.uniform(-2.0, 2.0, size=(2, 3))),
                          "y": ad.parameter(gen.uniform(-2.0, 2.0, size=(3,)))})

    def build(p):
        h = tanh(p["x"] * p["y"] + 0.3)
        return (ad.sigmoid(h.sum(axis=1)) * h.mean()).sum()

    report = ad.finite_diff_check(build, params, tol=1e-5)
    assert report.passed, report.format()
