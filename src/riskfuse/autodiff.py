"""Reverse-mode automatic differentiation over dense float64 arrays.

The graph is built eagerly: every operation on a Tensor records its parents
and one vector-Jacobian product (VJP) per parent, and backward() walks the
recorded graph once, accumulating gradients into leaves created with
requires_grad=True. backward() calls a parent's VJP only when that parent
requires a gradient, so no primitive computes a gradient for a frozen
operand (model weights that must not train, batch data); frozen leaves never
receive a gradient buffer.

Inside `with no_graph():` primitives record nothing: each result is a plain
node without parents, so intermediates are freed as soon as they are dead.
It is for forward-only evaluation (prediction, finite-difference probes);
eval_with_grads refuses to run inside it.

Every primitive validates its output. NaN or Inf anywhere, forward or
backward, raises NonFiniteError naming the offending primitive. Layers built
as one node elsewhere (backbone, projector, losses) name themselves the same
way, through check_finite and the checks every Tensor and gradient gets. All
values are float64; reductions use numpy's deterministic shape-fixed order,
so two evaluations of the same graph on the same inputs are bit-identical in
a single-threaded process.

finite_diff_check compares analytic gradients with central differences.
By default it evaluates each probe on its own; a caller that can evaluate
many probes in one pass hands it a parameter's probe losses instead (the
gradient audit stacks a chunk of perturbed copies into one forward pass),
and both feed one array pass that scores every entry, so equal probe losses
give the same report.

Training and the gradient audit join fused layer nodes with the primitives
here and no others; the generic ones only tests use (sub, matmul, tanh, log,
indexing and the like) live in `tests/oracle_ops.py`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

__all__ = [
    "NonFiniteError",
    "check_finite",
    "Tensor",
    "constant",
    "parameter",
    "add",
    "mul",
    "sigmoid",
    "tsum",
    "tmean",
    "concat",
    "reshape",
    "records",
    "backward",
    "no_graph",
    "ParamSet",
    "eval_with_grads",
    "finite_diff_check",
    "ParamCheck",
    "GradCheckReport",
]


class NonFiniteError(FloatingPointError):
    """A primitive produced NaN or Inf."""

    def __init__(self, op: str, context: str = ""):
        self.op = op
        msg = f"non-finite value produced by primitive '{op}'"
        if context:
            msg = f"{msg} ({context})"
        super().__init__(msg)


def check_finite(op: str, *arrays, context: str = "") -> None:
    """Raise NonFiniteError naming `op` if any of the arrays holds NaN or Inf."""
    for arr in arrays:
        if not np.isfinite(arr).all():
            raise NonFiniteError(op, context)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad over axes that numpy broadcasting introduced or stretched."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """One node of the computation graph wrapping a float64 ndarray.

    Leaves are built directly (or via constant/parameter); interior nodes
    come out of the primitives below. Only leaves with requires_grad=True
    own a persistent .grad buffer; gradients of interior nodes are transient
    to a single backward() call.
    """

    __slots__ = ("value", "requires_grad", "grad", "op", "_parents", "_vjps")

    # ndarray <op> Tensor must dispatch to the reflected methods below, not
    # to numpy's elementwise object broadcasting
    __array_ufunc__ = None

    def __init__(self, value, requires_grad: bool = False, *, op: str = "leaf",
                 parents: tuple = (), vjps: tuple = ()):
        self.value = np.asarray(value, dtype=np.float64)
        check_finite(op, self.value)
        self.requires_grad = bool(requires_grad)
        self.op = op
        self._parents = parents
        self._vjps = vjps
        if self.requires_grad and not parents:
            self.grad = np.zeros_like(self.value)
        else:
            self.grad = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def ndim(self) -> int:
        return self.value.ndim

    @property
    def size(self) -> int:
        return self.value.size

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar; scalars and ndarrays are wrapped as constants
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, *shape)


def constant(value) -> Tensor:
    """Leaf that never receives gradients."""
    return Tensor(value, requires_grad=False)


def parameter(value) -> Tensor:
    """Leaf with an allocated gradient buffer."""
    return Tensor(value, requires_grad=True)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


# False inside no_graph(); single-threaded use, like the rest of the engine
_recording = True


@contextmanager
def no_graph():
    """Forward-only evaluation: primitives inside build plain nodes without
    parents, so nothing can be differentiated and every intermediate is
    freed once dead. Values, and the per-primitive finite checks, are
    unchanged."""
    global _recording
    saved, _recording = _recording, False
    try:
        yield
    finally:
        _recording = saved


def records(*parents: Tensor) -> bool:
    """Whether a primitive over `parents` is recorded: the graph is on and
    some parent needs a gradient. Only then must it keep what its VJPs read."""
    return _recording and any(p.requires_grad for p in parents)


def _node(value, op: str, parents: tuple, vjps: tuple) -> Tensor:
    """Result of a primitive; vjps[i] maps the output gradient to parents[i]'s."""
    if not records(*parents):
        # constants flow through without keeping graph structure alive
        return Tensor(value, op=op)
    return Tensor(value, requires_grad=True, op=op, parents=parents, vjps=vjps)


def _broadcast_check(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ValueError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# ---------------------------------------------------------------------------
# primitives


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _broadcast_check(a, b, "add")
    return _node(a.value + b.value, "add", (a, b),
                 (lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(g, b.shape)))



def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _broadcast_check(a, b, "mul")
    return _node(a.value * b.value, "mul", (a, b),
                 (lambda g: _unbroadcast(g * b.value, a.shape),
                  lambda g: _unbroadcast(g * a.value, b.shape)))



def sigmoid(a) -> Tensor:
    a = _wrap(a)
    # stable in both tails; never overflows
    z = np.exp(-np.abs(a.value))
    out = np.where(a.value >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    return _node(out, "sigmoid", (a,), (lambda g: g * (out * (1.0 - out)),))



def _normalize_axes(axis, ndim: int):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(sorted(ax % ndim for ax in axis))


def _expand_reduced(g: np.ndarray, shape: tuple[int, ...], axes, keepdims: bool) -> np.ndarray:
    if axes is None:
        return np.broadcast_to(g, shape)
    if not keepdims:
        for ax in axes:
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    axes = _normalize_axes(axis, a.ndim)
    out = a.value.sum(axis=axes, keepdims=keepdims)
    return _node(out, "sum", (a,), (lambda g: _expand_reduced(g, a.shape, axes, keepdims),))


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    axes = _normalize_axes(axis, a.ndim)
    out = a.value.mean(axis=axes, keepdims=keepdims)
    if axes is None:
        count = a.size
    else:
        count = 1
        for ax in axes:
            count *= a.shape[ax]

    return _node(out, "mean", (a,),
                 (lambda g: _expand_reduced(g / count, a.shape, axes, keepdims),))


def concat(tensors, axis: int = 0) -> Tensor:
    """The tensors joined along `axis`; a lone tensor comes back as it is."""
    tensors = tuple(_wrap(t) for t in tensors)
    if not tensors:
        raise ValueError("concat: need at least one tensor")
    if len(tensors) == 1:
        return tensors[0]
    out = np.concatenate([t.value for t in tensors], axis=axis)
    ax = axis % out.ndim

    def part(start: int, stop: int):
        idx = (slice(None),) * ax + (slice(start, stop),)
        return lambda g: g[idx]

    bounds = [0, *accumulate(t.shape[ax] for t in tensors)]
    return _node(out, "concat", tensors, tuple(map(part, bounds, bounds[1:])))


def reshape(a, *shape) -> Tensor:
    a = _wrap(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    out = a.value.reshape(shape)
    return _node(out, "reshape", (a,), (lambda g: g.reshape(a.shape),))


# ---------------------------------------------------------------------------
# backward pass


def backward(out: Tensor) -> float:
    """Run reverse-mode accumulation from a scalar node; returns its value.

    Gradients land in the .grad buffers of requires_grad leaves (+=, callers
    zero buffers between evaluations). Interior gradients are transient, and
    a node's VJP runs only for parents that require a gradient.
    """
    if out.value.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {out.shape}")
    if not out.requires_grad:
        return float(out.value)

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(out, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(out): np.ones_like(out.value)}
    for node in reversed(topo):
        # a node's consumers in topo come before it and all reach `out`, so
        # its whole gradient is in by now
        g = grads.pop(id(node))
        if not node._parents:
            # requires_grad leaf
            node.grad += g
            continue
        for parent, vjp in zip(node._parents, node._vjps):
            if parent.requires_grad:
                _accumulate(grads, parent, vjp(g), node.op)
    return float(out.value)


def _accumulate(grads: dict, parent: Tensor, pg: np.ndarray, op: str) -> None:
    check_finite(op, pg, context="backward")
    prev = grads.get(id(parent))
    grads[id(parent)] = pg if prev is None else prev + pg


# ---------------------------------------------------------------------------
# parameter sets and the evaluation entry point


class ParamSet:
    """Named trainable leaves, in insertion order, and the owner of their
    storage: building the set copies them into one float64 `values` and one
    `grads` buffer, matrices (ndim >= 2, the first `n_matrix` entries) first,
    and points each leaf's `.value` and `.grad` at its slice. A later set
    over the same leaves moves their storage again."""

    def __init__(self, leaves: dict[str, Tensor]):
        for name, t in leaves.items():
            if not t.requires_grad or t._parents:
                raise ValueError(f"parameter {name!r} must be a requires_grad leaf")
        self._params = dict(leaves)
        packed = sorted(self._params.values(), key=lambda t: t.ndim < 2)
        self.n_matrix = sum(t.size for t in packed if t.ndim >= 2)
        self.values = np.empty(sum(t.size for t in packed))
        self.grads = np.empty_like(self.values)
        for t, end in zip(packed, accumulate(t.size for t in packed)):
            seg = slice(end - t.size, end)
            self.values[seg] = t.value.reshape(-1)
            self.grads[seg] = t.grad.reshape(-1)
            t.value = self.values[seg].reshape(t.shape)
            t.grad = self.grads[seg].reshape(t.shape)
        self.grads_populated = False

    def names(self) -> tuple[str, ...]:
        return tuple(self._params)

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __len__(self) -> int:
        return len(self._params)

    def value(self, name: str) -> np.ndarray:
        return self._params[name].value

    def grad(self, name: str) -> np.ndarray:
        return self._params[name].grad

    def zero_grads(self) -> None:
        self.grads.fill(0.0)
        self.grads_populated = False


def eval_with_grads(computation, params: ParamSet) -> float:
    """Evaluate computation(params) and write gradients into params.

    The computation must return a scalar Tensor. Gradient buffers are zeroed
    first, so each call yields exactly d loss / d param. Inside no_graph()
    there is no graph to walk, so it raises instead of returning zeros.
    """
    if not _recording:
        raise RuntimeError("eval_with_grads called inside no_graph()")
    params.zero_grads()
    out = computation(params)
    if not isinstance(out, Tensor):
        raise TypeError("computation must return a Tensor")
    loss = backward(out)
    params.grads_populated = True
    return loss


# ---------------------------------------------------------------------------
# finite-difference oracle


@dataclass
class ParamCheck:
    name: str
    max_rel_err: float
    worst_index: int | None
    n_checked: int
    n_negligible: int
    passed: bool


@dataclass
class GradCheckReport:
    h: float
    tol: float
    checks: list[ParamCheck] = field(default_factory=list)

    @property
    def max_rel_err(self) -> float:
        return max((c.max_rel_err for c in self.checks), default=0.0)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def format(self) -> str:
        lines = [f"finite-difference check  h={self.h:g}  tol={self.tol:g}"]
        for c in self.checks:
            status = "ok  " if c.passed else "FAIL"
            worst = "-" if c.worst_index is None else str(c.worst_index)
            lines.append(
                f"  {status} {c.name:<24} max_rel_err={c.max_rel_err:.3e}"
                f" worst_entry={worst} checked={c.n_checked} negligible={c.n_negligible}"
            )
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"  overall max_rel_err={self.max_rel_err:.3e} -> {verdict}")
        return "\n".join(lines)


# gradient magnitude below which a finite-difference entry carries no signal
FD_FLOOR = 1e-6


def _check_positive_finite(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")


def finite_diff_check(computation, params: ParamSet, *, h: float = 1e-5, tol: float = 1e-6,
                      analytic: dict[str, np.ndarray] | None = None,
                      probe_losses=None) -> GradCheckReport:
    """Compare analytic gradients against central differences, per entry.

    For each scalar parameter entry the symmetric difference
    (f(x+h) - f(x-h)) / 2h is compared to the analytic gradient; entries
    where both magnitudes fall below FD_FLOOR are counted as negligible and
    skipped (the difference quotient carries no signal there); a NaN error
    fails its parameter. `analytic`
    overrides the freshly computed gradients, which lets callers check a
    gradient they obtained elsewhere. `h` and `tol` must be positive and
    finite.

    By default each probe sets one entry in place and evaluates
    computation(params) under no_graph(). `probe_losses(name, stack)`
    replaces that loop for callers that can evaluate many probes at once:
    `stack` holds 2n copies of the n-entry parameter, copy 2i with entry i
    at x+h and copy 2i+1 with it at x-h, and it returns their 2n losses.
    The stack holds 2n full copies, so the hook suits small parameters.
    Both routes feed the same scoring, so a batched evaluator whose losses
    equal the serial ones bit for bit yields the same report.
    """
    _check_positive_finite("h", h)
    _check_positive_finite("tol", tol)
    if analytic is None:
        eval_with_grads(computation, params)
        analytic = {name: params.grad(name).copy() for name in params.names()}

    report = GradCheckReport(h=h, tol=tol)
    for name in params.names():
        values = params.value(name)
        an = np.asarray(analytic[name], dtype=np.float64).reshape(-1)
        if an.shape != (values.size,):
            raise ValueError(f"analytic gradient for {name!r} has wrong size")
        if probe_losses is None:
            losses = _serial_probe_losses(computation, params, values.reshape(-1), h)
        else:
            losses = np.asarray(probe_losses(name, _probe_stack(values, h)), dtype=np.float64)
            if losses.shape != (2 * values.size,):
                raise ValueError(f"probe_losses for {name!r} returned shape {losses.shape}, "
                                 f"expected ({2 * values.size},)")
        numeric = (losses[0::2] - losses[1::2]) / (2.0 * h)
        scale = np.maximum(np.abs(an), np.abs(numeric))
        negligible = scale < FD_FLOOR
        rel = np.divide(np.abs(an - numeric), scale, out=np.zeros_like(scale),
                        where=~negligible)
        # the first entry of largest error, or the first NaN one, which fails
        # the check; none when every error is 0
        worst = int(np.argmax(rel)) if np.any(rel != 0.0) else None
        max_rel = 0.0 if worst is None else float(rel[worst])
        report.checks.append(ParamCheck(
            name=name,
            max_rel_err=max_rel,
            worst_index=worst,
            n_checked=values.size,
            n_negligible=int(np.count_nonzero(negligible)),
            passed=max_rel < tol,
        ))
    return report


def _probe_stack(values: np.ndarray, h: float) -> np.ndarray:
    """(2n, *shape) copies of an n-entry parameter: copy 2i holds entry i at
    x+h, copy 2i+1 at x-h, every other entry unchanged."""
    flat = values.reshape(-1)
    stack = np.tile(flat, (2 * flat.size, 1))
    entries = np.arange(flat.size)
    stack[2 * entries, entries] = flat + h
    stack[2 * entries + 1, entries] = flat - h
    return stack.reshape(2 * flat.size, *values.shape)


def _serial_probe_losses(computation, params: ParamSet, flat: np.ndarray, h: float) -> np.ndarray:
    """The probe losses of one parameter, one evaluation per probe, with the
    entry set in place through `flat` (a view of the parameter) and restored."""
    losses = np.empty(2 * flat.size)
    for i in range(flat.size):
        saved = flat[i]
        try:
            for k, probe in enumerate((saved + h, saved - h)):
                flat[i] = probe
                with no_graph():
                    out = computation(params)
                if out.value.size != 1:
                    raise ValueError("computation must return a scalar")
                losses[2 * i + k] = float(out.value)
        finally:
            flat[i] = saved
    return losses
