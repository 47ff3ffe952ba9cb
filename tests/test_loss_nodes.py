"""The loss graph outside the backbone: each fused node (project,
reconstruct, reconstruction and classification loss) and a whole training
step against the primitive graph in `loss_oracle.py`, bit for bit in values
and every gradient; the recorded graph size of a step, and that training
and the gradient audit record every primitive `riskfuse.autodiff` defines;
and non-finite values named by the node that made them, in both passes."""

import ast
import inspect

import numpy as np
import pytest

import riskfuse.autodiff as ad
from riskfuse import pipeline
from riskfuse.datagen import build, planted_profile
from riskfuse.frozenlm import LMConfig, draw_designated, init_frozen
from riskfuse.losses import (PROB_EPS, UNKNOWN, ASLConfig, ClassWeights,
                             classification_loss_graph, reconstruction_loss_graph)
from riskfuse.projector import ProjectorConfig, init_projector, project, reconstruct

import loss_oracle as oracle

ROWS = (1, 2, 32, 192)
PROJ = ProjectorConfig(embed_dim=12, token_dim=48)
LM = LMConfig(d_model=48, n_layers=2, n_heads=2, vocab=32, max_seq=8, seed=0)
ASL_CONFIGS = (ASLConfig(), ASLConfig(margin=0.07, gamma_neg=3.0),
               ASLConfig(margin=0.05, gamma_neg=1.0), ASLConfig(margin=0.1, gamma_neg=0.0))


def _value_and_grads(node, leaves, mix, params=None):
    """node(*leaves)'s value, then the gradients of sum(node * mix) with
    respect to every leaf and every tensor of `params`, in that order."""
    if params is not None:
        params.zero_grads()
    leaves = [ad.parameter(x.copy()) for x in leaves]
    out = node(*leaves)
    ad.backward((out * ad.constant(mix)).sum())
    grads = [leaf.grad for leaf in leaves]
    if params is not None:
        grads += [params.grad(name).copy() for name in params.names()]
    return [out.value, *grads]


def _assert_bit_identical(got, want, what):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.shape == b.shape, f"{what}: entry {i}"
        assert np.array_equal(a, b), f"{what}: entry {i} differs by {np.max(np.abs(a - b))}"


# ---------------------------------------------------------------------------
# each node against its oracle


@pytest.mark.parametrize("rows", ROWS)
def test_projector_nodes_equal_the_oracle_bit_for_bit(rows):
    gen = np.random.default_rng(rows)
    pp = init_projector(PROJ, seed=rows, source_key="xr")
    e = gen.standard_normal((rows, PROJ.embed_dim)) * 2.0
    t = np.tanh(gen.standard_normal((rows, PROJ.token_dim)))
    params = ad.ParamSet(pp.tensors)
    for node, reference, x, width in ((project, oracle.project, e, PROJ.token_dim),
                                      (reconstruct, oracle.reconstruct, t, PROJ.embed_dim)):
        mix = gen.standard_normal((rows, width))
        _assert_bit_identical(
            _value_and_grads(lambda x: node(pp, x), [x], mix, params),
            _value_and_grads(lambda x: reference(pp, x), [x], mix, params),
            node.__name__)


@pytest.mark.parametrize("rows", ROWS)
def test_reconstruction_loss_equals_the_oracle_bit_for_bit(rows):
    gen = np.random.default_rng(rows)
    e, e_hat = gen.standard_normal((2, rows, PROJ.embed_dim))
    mix = gen.standard_normal(rows)
    _assert_bit_identical(
        _value_and_grads(lambda a, b: reconstruction_loss_graph(a, b), [e, e_hat], mix),
        _value_and_grads(lambda a, b: oracle.reconstruction_loss_graph(a, b), [e, e_hat], mix),
        "reconstruction loss")


def _confidences_and_labels(gen, rows, tasks=12):
    """Confidences over (0, 1) with the clamp's edges, the ASL margins' kinks
    and both extremes mixed in; labels with unknowns mixed in."""
    phi = gen.uniform(0.0, 1.0, size=(rows, tasks))
    special = np.array([0.0, 1.0, PROB_EPS, 1.0 - PROB_EPS, 1e-9, 1.0 - 1e-9,
                        0.05, 0.07, 0.1, 0.03, 0.5, 0.999])
    mask = gen.uniform(size=phi.shape) < 0.25
    phi[mask] = gen.choice(special, size=int(mask.sum()))
    labels = gen.integers(-1, 2, size=(rows, tasks))
    labels[0, :3] = (1, 0, UNKNOWN)
    return phi, labels


@pytest.mark.parametrize("rows", ROWS)
def test_classification_loss_equals_the_oracle_bit_for_bit(rows):
    gen = np.random.default_rng(rows)
    phi, labels = _confidences_and_labels(gen, rows)
    weights = ClassWeights(pos=gen.uniform(0.1, 3.0, 12), neg=gen.uniform(0.1, 3.0, 12))
    mix = gen.standard_normal(rows)
    cases = [(weights, "avg", dict(weights=weights))]
    cases += [(cfg, "asl", dict(asl=cfg)) for cfg in ASL_CONFIGS]
    for loss, kind, kw in cases:
        _assert_bit_identical(
            _value_and_grads(lambda p: classification_loss_graph(p, labels, loss),
                             [phi], mix),
            _value_and_grads(lambda p: oracle.classification_loss_graph(p, labels, kind, **kw),
                             [phi], mix),
            f"{kind} {kw}")


# ---------------------------------------------------------------------------
# a whole step


SOURCES = {"xr": 8, "axr": 8, "proc": 20, "lab": 44, "chart": 33, "txt": 8}


def _step(build_loss, grouping, kind, batch=32):
    """Loss, group losses and every parameter gradient of one step."""
    gen = np.random.default_rng(11)
    emb = {name: gen.standard_normal((batch, dim)) for name, dim in SOURCES.items()}
    projectors = {name: init_projector(ProjectorConfig(dim, LM.d_model), 2, name)
                  for name, dim in SOURCES.items()}
    if grouping == "isolated":
        groups = [{name: pp} for name, pp in projectors.items()]
    else:
        groups = [projectors]
    labels = gen.integers(-1, 2, size=(batch * len(groups), 12))
    weights = ClassWeights(pos=gen.uniform(0.1, 3.0, 12), neg=gen.uniform(0.1, 3.0, 12))
    if build_loss is pipeline.build_joint_loss:
        loss_args = (weights if kind == "avg" else ASLConfig(), 10.0)
    else:   # the oracle keeps the (kind, beta, weights, asl) form
        loss_args = (kind, 10.0, weights, ASLConfig())
    group_losses = []
    params = pipeline._param_set(projectors)
    loss = ad.eval_with_grads(
        build_loss(groups, init_frozen(LM), draw_designated(LM.vocab, 12, 0), emb, labels,
                   *loss_args, group_losses=group_losses), params)
    return loss, group_losses, {name: params.grad(name).copy() for name in params.names()}


@pytest.mark.parametrize("kind", ("avg", "asl"))
@pytest.mark.parametrize("grouping", ("isolated", "joint"))
def test_a_step_equals_the_oracle_bit_for_bit(grouping, kind):
    loss, group_losses, grads = _step(pipeline.build_joint_loss, grouping, kind)
    want_loss, want_group_losses, want_grads = _step(oracle.build_joint_loss, grouping, kind)
    assert len(group_losses[0]) == (len(SOURCES) if grouping == "isolated" else 1)
    assert group_losses == want_group_losses
    assert loss == want_loss
    assert grads.keys() == want_grads.keys()
    for name in grads:
        assert np.array_equal(grads[name], want_grads[name]), name


def test_groups_of_unequal_batches_are_refused():
    projectors = {name: init_projector(ProjectorConfig(8, LM.d_model), 0, name)
                  for name in ("a", "b")}
    emb = {"a": np.zeros((4, 8)), "b": np.zeros((3, 8))}
    with pytest.raises(ValueError, match="same number of rows"):
        pipeline.build_joint_loss([{"a": projectors["a"]}, {"b": projectors["b"]}],
                                  init_frozen(LM), draw_designated(LM.vocab, 2, 0), emb,
                                  np.zeros((7, 2)), ASLConfig(), 1.0)


# ---------------------------------------------------------------------------
# graph size


def _recorded_nodes(out: ad.Tensor) -> list[ad.Tensor]:
    """Interior nodes reachable from `out`; leaves are not included."""
    seen, stack, nodes = {id(out)}, [out], []
    while stack:
        node = stack.pop()
        if node._parents:
            nodes.append(node)
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return nodes


def _record_loss_graphs(monkeypatch) -> list:
    """A list that receives the interior nodes of every loss graph that
    `pipeline` builds from then on, one list per evaluation."""
    graphs = []
    build_joint_loss = pipeline.build_joint_loss

    def recording(*args, **kwargs):
        computation = build_joint_loss(*args, **kwargs)

        def recorded(params):
            out = computation(params)
            graphs.append(_recorded_nodes(out))
            return out

        return recorded

    monkeypatch.setattr(pipeline, "build_joint_loss", recording)
    return graphs


# Six sources of 3 nodes each (project, reconstruct, reconstruction loss),
# then the readout, the classification loss and the group losses:
# - isolated, 18 + 5 + 1 + 6: the concat of the six groups' tokens, reshape,
#   backbone, position mean, sigmoid; and concat, product, add, reshape,
#   mean, sum
# - joint, 18 + 5 + 1 + 10: the concat of the six positions' tokens along
#   the feature axis, reshape, backbone, position mean, sigmoid; and 5 adds
#   of the sources' errors, product, add, reshape, mean, sum
# The backbone returns only the designated columns, so no slice follows it.
# A concat of one tensor is that tensor and records no node.
STEP_NODES = {"isolated": 30, "joint": 34}


@pytest.mark.parametrize("kind", ("avg", "asl"))
@pytest.mark.parametrize("mode", ("isolated", "joint"))
def test_a_training_step_records_a_pinned_number_of_nodes(mode, kind, monkeypatch):
    graphs = _record_loss_graphs(monkeypatch)
    dataset = build(planted_profile(n_records=60, seed=5))
    pipeline.train(dataset, pipeline.TrainConfig(mode=mode, loss_kind=kind, epochs=1,
                                                 lm=LM, seed=1))
    assert len(dataset.source_specs) == 6
    assert {len(nodes) for nodes in graphs} == {STEP_NODES[mode]}


def _defined_primitives() -> set[str]:
    """The op of every primitive `riskfuse.autodiff` defines: the name each
    `_node` call in its source gives the node it builds."""
    tree = ast.parse(inspect.getsource(ad))
    return {call.args[1].value for call in ast.walk(tree)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_node"}


def test_every_primitive_the_engine_defines_is_recorded_by_training_or_the_audit(
        monkeypatch):
    # a primitive only tests use belongs in oracle_ops.py, not in riskfuse
    graphs = _record_loss_graphs(monkeypatch)
    dataset = build(planted_profile(n_records=60, seed=5))
    for mode in ("joint", "isolated"):
        pipeline.train(dataset, pipeline.TrainConfig(mode=mode, epochs=1, lm=LM, seed=1))
    pipeline.gradcheck_suite(0)
    defined = _defined_primitives()
    recorded = {node.op for nodes in graphs for node in nodes}
    assert "add" in defined
    assert defined <= recorded, f"never recorded: {sorted(defined - recorded)}"


# ---------------------------------------------------------------------------
# non-finite values name their node


def _raises(op, fn, backward=False):
    with np.errstate(all="ignore"), pytest.raises(ad.NonFiniteError) as exc:
        fn()
    assert exc.value.op == op
    assert ("backward" in str(exc.value)) == backward


def test_an_overflow_the_tanh_hides_still_names_project():
    pp = init_projector(PROJ, seed=0)
    pp.value("enc_w")[0] = 1e308
    _raises("project", lambda: project(pp, np.full((2, PROJ.embed_dim), 10.0)))


def test_overflowing_decoder_weight_names_reconstruct():
    pp = init_projector(PROJ, seed=0)
    pp.value("dec_w")[0] = 1e308
    _raises("reconstruct", lambda: reconstruct(pp, np.full((2, PROJ.token_dim), 0.5)))


@pytest.mark.parametrize("node, weight, width", [
    (project, "enc_w", PROJ.embed_dim), (reconstruct, "dec_w", PROJ.token_dim)])
def test_overflowing_weight_names_its_node_in_the_backward_pass(node, weight, width):
    # a zero input column hides the weight's column 0 from the forward pass;
    # the input's gradient multiplies by it
    pp = init_projector(PROJ, seed=0)
    pp.value(weight)[:, 0] = 1e308
    x = np.full((2, width), 0.5)
    x[:, 0] = 0.0
    x = ad.parameter(x)
    loss = (node(pp, x) * 1e100).sum()
    _raises(node.__name__, lambda: ad.backward(loss), backward=True)


def test_reconstruction_loss_names_itself_in_both_passes():
    e = np.zeros((2, 3))
    _raises("reconstruction_loss",
            lambda: reconstruction_loss_graph(e, ad.parameter(np.full((2, 3), 1e200))))
    # the squared error is finite at 1e308 but its gradient is twice that
    e_hat = np.zeros((2, 3))
    e_hat[0, 0] = 1.0
    loss = (reconstruction_loss_graph(e, ad.parameter(e_hat)) * 1e308).sum()
    _raises("reconstruction_loss", lambda: ad.backward(loss), backward=True)


def test_classification_loss_names_itself_in_both_passes():
    labels = np.array([[1, 0]])
    weights = ClassWeights(pos=np.ones(2), neg=np.ones(2))
    weights.pos[0] = np.inf
    _raises("classification_loss",
            lambda: classification_loss_graph(ad.parameter([[0.3, 0.4]]), labels, weights))
    # -1e305 * log(1e-7) is finite; its gradient, 1e305 / 1e-7, is not
    weights.pos[0] = 1e305
    loss = classification_loss_graph(ad.parameter([[PROB_EPS, 0.4]]), labels, weights).sum()
    _raises("classification_loss", lambda: ad.backward(loss), backward=True)
    loss = (classification_loss_graph(ad.parameter([[PROB_EPS, 0.4]]), labels, ASLConfig())
            * 1e302).sum()
    _raises("classification_loss", lambda: ad.backward(loss), backward=True)


def test_fused_nodes_keep_no_graph_under_no_graph():
    pp = init_projector(PROJ, seed=0)
    e = ad.parameter(np.ones((2, PROJ.embed_dim)))
    with ad.no_graph():
        t = project(pp, e)
        outs = [t, reconstruct(pp, t), reconstruction_loss_graph(e, reconstruct(pp, t)),
                classification_loss_graph(ad.parameter([[0.3]]), np.array([[1]]), ASLConfig())]
    for out in outs:
        assert not out.requires_grad and out._parents == () and out._vjps == ()
