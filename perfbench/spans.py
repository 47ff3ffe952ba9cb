"""In-memory span tracer for the traced benchmark run.

Wrappers are installed by replacing module attributes of riskfuse with
timing shims, so they exist only in the process that asked for them and are
removed again by `uninstall()`. A span is (id, name, start, end, parent id,
step id, n): `n` is an optional exact count taken from the call's arguments
(sequence length, parameter tensors, series featurized). Spans stay in a
list until `write()` dumps them once at the end of the run.

Layer self time is derived from the spans: a span's duration minus the
durations of its direct children (calls are single-threaded and nested, so
children never overlap).
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

from riskfuse import autodiff, datagen, pipeline, storage

# (module, attribute, span name, count of the call or None)
WRAPPED = (
    (pipeline, "train", "pipeline.train", None),
    (pipeline, "predict", "pipeline.predict", None),
    (pipeline, "bss_select", "pipeline.bss_select", None),
    (pipeline, "evaluate_protocol", "pipeline.evaluate_protocol", None),
    (pipeline, "prepare_embeddings", "pipeline.prepare_embeddings", None),
    (pipeline, "gradcheck_suite", "pipeline.gradcheck_suite", None),
    (pipeline, "save_checkpoint", "pipeline.save_checkpoint", None),
    (pipeline, "load_checkpoint", "pipeline.load_checkpoint", None),
    # private, but it is the only place the readout (token stacking,
    # fuse_logits, designated-column selection, sigmoid) happens
    (pipeline, "_confidence_graph", "pipeline.confidence_graph", None),
    (pipeline, "lm_forward", "frozenlm.lm_forward", lambda a, k: a[1].shape[-2]),
    (pipeline, "project", "projector.project", None),
    (pipeline, "reconstruct", "projector.reconstruct", None),
    (pipeline, "classification_loss_graph", "losses.classification", None),
    (pipeline, "reconstruction_loss_graph", "losses.reconstruction", None),
    (pipeline, "adamw_step", "optim.adamw_step", lambda a, k: len(a[0])),
    (pipeline, "timeseries_feature_matrix", "encoders.timeseries",
     lambda a, k: len(a[0]) * len(a[0][0])),
    (pipeline, "image_stub_matrix", "encoders.image", None),
    (pipeline, "latest_image", "encoders.image", None),
    (pipeline, "aggregate_images", "encoders.image", None),
    (pipeline, "text_stub_table", "encoders.text", None),
    (pipeline, "encode_text_with_table", "encoders.text", None),
    (autodiff, "eval_with_grads", "autodiff.eval_with_grads", None),
    (autodiff, "backward", "autodiff.backward", None),
    (datagen, "generate", "datagen.generate", None),
    (storage, "load_dataset", "storage.load_dataset", None),
)

ENCODER_SPANS = ("encoders.timeseries", "encoders.image", "encoders.text")

# loss builders return a closure; the closure call is the forward pass
LOSS_BUILDERS = ("build_joint_loss", "build_isolated_loss")

ID, NAME, START, END, PARENT, STEP, COUNT = range(7)


def graph_edges(out) -> tuple[int, int, int]:
    """(nodes, edges, edges into requires_grad parents) of a recorded graph."""
    seen = {id(out)}
    stack = [out]
    edges = useful = 0
    while stack:
        node = stack.pop()
        for p in node._parents:
            edges += 1
            useful += p.requires_grad
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen), edges, useful


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.graphs: list[tuple[int, int, int]] = []
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._step = 0
        self._originals: list[tuple] = []
        self._last_graph = None
        self._graph_root = None

    # -- installation --------------------------------------------------

    def install(self) -> None:
        if self._originals:
            return
        for module, attr, name, count in WRAPPED:
            self._patch(module, attr, self._span_wrapper(getattr(module, attr), name, count))
        for attr in LOSS_BUILDERS:
            self._patch(pipeline, attr, self._builder_wrapper(getattr(pipeline, attr)))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _patch(self, module, attr, replacement) -> None:
        self._originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    # -- spans ---------------------------------------------------------

    def _open(self, name: str) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name))
        return sid, parent

    def _close(self, sid, name, start, parent, n) -> None:
        self._stack.pop()
        self.spans.append((sid, name, start, time.perf_counter(), parent, self._step, n))

    def _span_wrapper(self, fn, name, count):
        is_step = name == "autodiff.eval_with_grads"

        def wrapper(*args, **kwargs):
            if is_step:
                self._step += 1
            n = count(args, kwargs) if count is not None else None
            sid, parent = self._open(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, name, start, parent, n)
                if is_step:
                    self._count_graph()

        wrapper.__wrapped__ = fn
        return wrapper

    def _builder_wrapper(self, build):
        def wrapper(*args, **kwargs):
            computation = build(*args, **kwargs)

            def forward(*cargs):
                sid, parent = self._open("pipeline.loss_forward")
                start = time.perf_counter()
                try:
                    out = computation(*cargs)
                finally:
                    self._close(sid, "pipeline.loss_forward", start, parent, None)
                self._last_graph = out
                return out

            return forward

        wrapper.__wrapped__ = build
        return wrapper

    def _count_graph(self) -> None:
        """Count the graph of the first training step of each train call,
        outside any span; every step of one call has the same graph."""
        if not self._stack or self._last_graph is None:
            return
        root, name = self._stack[0]
        if name == "pipeline.train" and root != self._graph_root:
            self._graph_root = root
            self.graphs.append(graph_edges(self._last_graph))
        self._last_graph = None

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "step", "n")
        with open(path, "w") as fh:
            json.dump({"fields": keys, "spans": self.spans}, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def _p(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, cycles: int, train_rps_plain: list[float],
                  train_rps_traced: list[float]) -> dict:
    """Per-layer metric values (name -> number) from the recorded spans.

    Latency percentiles of layers used by training are taken over calls made
    inside `pipeline.train`; per-cycle totals divide by the traced cycles.
    """
    spans = tracer.spans
    by_id = {s[ID]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]

    root_of: dict[int, tuple] = {}

    def root(s):
        chain = []
        while s[PARENT] is not None and s[ID] not in root_of:
            chain.append(s[ID])
            s = by_id[s[PARENT]]
        r = root_of.get(s[ID], s)
        for sid in chain:
            root_of[sid] = r
        root_of[s[ID]] = r
        return r

    def dur(s):
        return s[END] - s[START]

    named: dict[str, list] = defaultdict(list)
    in_train: dict[str, list] = defaultdict(list)
    for s in spans:
        named[s[NAME]].append(s)
        if root(s)[NAME] == "pipeline.train":
            in_train[s[NAME]].append(s)

    def ms(name, scope=in_train):
        return [dur(s) * 1e3 for s in scope[name]]

    steps: dict[int, float] = defaultdict(float)
    backward_train = 0.0
    for s in in_train["optim.adamw_step"]:
        steps[s[STEP]] += dur(s)
    for s in in_train["autodiff.eval_with_grads"]:
        if s[STEP] in steps:
            steps[s[STEP]] += dur(s)
    for s in in_train["autodiff.backward"]:
        if s[STEP] in steps:
            backward_train += dur(s)
    step_ms = [v * 1e3 for v in steps.values()]

    gradchecks = named["pipeline.gradcheck_suite"]
    gc_ids = {s[ID] for s in gradchecks}
    gc_evals = sum(1 for s in named["pipeline.loss_forward"] if root(s)[ID] in gc_ids)

    evals = named["pipeline.evaluate_protocol"]
    eval_ids = {s[ID] for s in evals}

    def per_eval(name):
        inside = sum(1 for s in named[name] if root(s)[ID] in eval_ids)
        return inside / len(evals) if evals else 0.0

    def per_cycle_s(name):
        return sum(dur(s) for s in named[name]) / cycles

    train_s = sum(dur(s) for s in named["pipeline.train"])
    eval_s = sum(dur(s) for s in evals)
    encoders_in_eval = sum(dur(s) for name in ENCODER_SPANS for s in named[name]
                           if root(s)[ID] in eval_ids)

    nodes = [g[0] for g in tracer.graphs]
    edges = [g[1] for g in tracer.graphs]
    useful = [g[2] / g[1] for g in tracer.graphs if g[1]]
    series = sum(s[COUNT] for s in named["encoders.timeseries"])
    plain, traced = _median(train_rps_plain), _median(train_rps_traced)
    return {
        "autodiff.backward_ms_p50": _median(ms("autodiff.backward")),
        "autodiff.backward_ms_p90": _p(ms("autodiff.backward"), 0.9),
        "autodiff.backward_share": backward_train / sum(steps.values()) if steps else 0.0,
        "pipeline.step_share": sum(steps.values()) / train_s if train_s else 0.0,
        "autodiff.graph_nodes": _median(nodes),
        "autodiff.grad_edges_total": _median(edges),
        "autodiff.grad_edges_useful_ratio": _median(useful),
        "autodiff.gradcheck_eval_ms":
            1e3 * sum(dur(s) for s in gradchecks) / gc_evals if gc_evals else 0.0,
        "pipeline.loss_forward_ms_p50": _median(ms("pipeline.loss_forward")),
        "optim.adamw_step_ms_p50": _median(ms("optim.adamw_step")),
        "optim.params_updated": _median([s[COUNT] for s in in_train["optim.adamw_step"]]),
        "projector.project_ms_p50": _median(ms("projector.project")),
        "projector.reconstruct_ms_p50": _median(ms("projector.reconstruct")),
        "frozenlm.lm_forward_ms_p50": _median(ms("frozenlm.lm_forward")),
        "frozenlm.lm_forward_ms_p90": _p(ms("frozenlm.lm_forward"), 0.9),
        "frozenlm.readout_ms_p50": _median(
            [(dur(s) - child_time[s[ID]]) * 1e3 for s in in_train["pipeline.confidence_graph"]]),
        "frozenlm.seq_len": _median([s[COUNT] for s in in_train["frozenlm.lm_forward"]]),
        "losses.classification_ms_p50": _median(ms("losses.classification")),
        "losses.reconstruction_ms_p50": _median(ms("losses.reconstruction")),
        "encoders.timeseries_s": per_cycle_s("encoders.timeseries"),
        "encoders.image_s": per_cycle_s("encoders.image"),
        "encoders.text_s": per_cycle_s("encoders.text"),
        "encoders.series_featurized": series / cycles,
        "encoders.eval_share": encoders_in_eval / eval_s if eval_s else 0.0,
        "pipeline.step_ms_p50": _median(step_ms),
        "pipeline.step_ms_p90": _p(step_ms, 0.9),
        "pipeline.train_self_s": _median(
            [dur(s) - child_time[s[ID]] for s in named["pipeline.train"]]),
        "pipeline.predict_ms_p50": _median(
            [dur(s) * 1e3 for s in named["pipeline.predict"] if s[PARENT] is None]),
        "pipeline.bss_select_s": _median([dur(s) for s in named["pipeline.bss_select"]]),
        "pipeline.prepare_embeddings_calls": per_eval("pipeline.prepare_embeddings"),
        "pipeline.predict_calls": per_eval("pipeline.predict"),
        "storage.load_dataset_s": _median([dur(s) for s in named["storage.load_dataset"]]),
        "datagen.generate_s": _median([dur(s) for s in named["datagen.generate"]]),
        "pipeline.save_checkpoint_ms": _median(ms("pipeline.save_checkpoint", named)),
        "pipeline.load_checkpoint_ms": _median(ms("pipeline.load_checkpoint", named)),
        "trace.overhead_share": 1.0 - traced / plain if plain else 0.0,
    }
