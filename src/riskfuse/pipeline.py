"""Training and evaluation pipeline.

Joint training feeds all sources through their projectors as one short
sequence, in the dataset's source order, into the frozen backbone and
minimizes the batch mean of

    sum_s ||e_s - e_hat_s||^2  +  beta * masked classification loss

with a single classification term on the fused confidences. Isolated
training runs each source alone, as a one-source group through the same
objective and loop, on length-1 sequences (same backbone and vocabulary);
single-source and best-single-source evaluation build on that regime.
The groups train in lockstep: each step stacks every group's batch into
one backbone call and backpropagates the sum of the group losses once.
The backbone treats rows independently, bit for bit, and a group's loss
reads only its own rows, so the gradients stay independent and each group
trains exactly as it would alone.

Prediction stacks the same way: `bss` reads all its sources of a slice as
one-source groups of one backbone call, each exactly as its `single:<src>`
prediction. Every evaluation protocol ends in one `metrics_for_run` call
over a (records, tasks) prediction matrix; `bss` selects each task's source
at the threshold it scores at, and fills the task's column from that source.

Splits are patient-grouped: a seeded shuffle of patient ids fills the
training side with whole patients until it reaches the requested fraction
of records. Only projector parameters ever receive gradients; the backbone
hash is stable across training by construction and asserted in tests.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import seeding
from .encoders import (FeatureStats, SourceSpec, _read_only, aggregate_images,
                       apply_feature_stats, fit_feature_stats, image_stub_matrix,
                       latest_image, encode_text_with_table, text_stub_table,
                       timeseries_feature_matrix)
from .frozenlm import (DesignatedVocab, FrozenWeights, LMConfig, draw_designated,
                       init_frozen, lm_forward)
from .losses import (UNKNOWN, ASLConfig, ClassWeights, class_weights,
                     classification_loss_graph, reconstruction_loss_graph)
from .metrics import TaskMetrics, f1_score, metrics_for_run
from .optim import adamw_step, init_adamw
from .projector import PARAM_NAMES, ProjectorConfig, ProjectorParams, init_projector, project, reconstruct
from .storage import (Dataset, decode, gather_records, load_arrays, read_manifest,
                      read_source_specs, write_artifact)

__all__ = [
    "TrainConfig",
    "Checkpoint",
    "split_by_patient",
    "prepare_embeddings",
    "check_compatible",
    "build_joint_loss",
    "build_isolated_loss",
    "train",
    "predict",
    "bss_select",
    "BssSelection",
    "evaluate_protocol",
    "save_checkpoint",
    "load_checkpoint",
    "gradcheck_suite",
]

LOSS_KINDS = ("avg", "asl")
TRAIN_MODES = ("joint", "isolated")
PREDICT_CHUNK = 512


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "joint"
    loss_kind: str = "asl"
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 5e-4
    weight_decay: float = 3e-4
    beta: float = 10.0
    asl: ASLConfig = ASLConfig()
    lm: LMConfig = LMConfig()
    threshold: float = 0.5
    split_ratio: float = 0.75
    seed: int = 0

    def __post_init__(self):
        if self.mode not in TRAIN_MODES:
            raise ValueError(f"unknown training mode {self.mode!r}")
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        for name in ("learning_rate", "weight_decay", "beta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.learning_rate <= 0 or self.weight_decay < 0 or self.beta < 0:
            raise ValueError("invalid optimization hyperparameters")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if not 0.0 < self.split_ratio < 1.0:
            raise ValueError("split_ratio must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def split_by_patient(patients, ratio: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy whole-patient split: shuffled patients fill the train side
    until it holds at least ratio * n records; the rest is the test side."""
    arr = np.asarray(patients)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("patients must be a nonempty 1-D array")
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie in (0, 1)")
    unique, counts = np.unique(arr, return_counts=True)
    if unique.size < 2:
        raise ValueError("patient-grouped split needs at least two patients")
    count_of = dict(zip(unique.tolist(), counts.tolist()))
    order = seeding.rng(seed, "split").permutation(unique)
    target = ratio * arr.size
    train_patients = set()
    taken = 0
    for p in order:
        if taken >= target:
            break
        train_patients.add(p)
        taken += count_of[p]
    mask = np.isin(arr, np.asarray(sorted(train_patients)))
    return np.nonzero(mask)[0], np.nonzero(~mask)[0]


# ---------------------------------------------------------------------------
# embedding preparation (frozen encoders + train-fitted normalization)


def _featurize(spec: SourceSpec, seed: int, payload: tuple, rows: np.ndarray) -> np.ndarray:
    """(len(rows), d_e) frozen-encoder features of a raw payload's record rows."""
    lengths, index = gather_records(payload[0], rows)
    values = [arr[index] for arr in payload[1:]]
    if spec.modality == "time-series":
        return timeseries_feature_matrix(lengths, *values)
    if spec.modality == "image":
        stub = image_stub_matrix(spec, seed)
        pick = latest_image if spec.image_rule == "latest" else aggregate_images
        # products summed per row, not a BLAS call, whose kernel may change
        # with the row count: a row's embedding is its own
        return (pick(lengths, *values)[:, np.newaxis, :] * stub).sum(axis=-1)
    return encode_text_with_table(text_stub_table(spec, seed), lengths, *values)


def _base_embeddings(dataset: Dataset, rows: np.ndarray, names) -> dict:
    """Frozen-encoder embeddings of the given record rows, per named source.

    A raw source's features are kept in the dataset's memo, one entry per
    source, stamped with what featurization reads (the payload tuple, the
    source's spec and the dataset's seed) and replaced when any of them
    changes. An entry holds the blocks of rows featurized so far and each
    record's position in them. A call featurizes only the rows the memo
    lacks; when it lacks them all (as in a one-shot call) the fresh block is
    both kept and returned, with no copy. A row's features read only its own
    payload, bit for bit, so a row from the memo equals a freshly featurized
    one.
    """
    base = {}
    for name in names:
        s, payload = dataset.spec(name), dataset.payloads[name]
        if dataset.mode == "latent":
            base[name] = payload[0][rows]
            continue
        entry = dataset._features.get(name)
        if entry is None or entry[0] is not payload or entry[1] != (s, dataset.seed):
            # [payload, (spec, seed), each record's position (-1: not yet), blocks]
            entry = dataset._features[name] = [payload, (s, dataset.seed),
                                               np.full(dataset.n_records, -1), []]
        _, _, at, blocks = entry
        todo = rows[at[rows] < 0] if blocks else rows   # no blocks, no rows held
        if todo.size or not rows.size:   # no rows at all: `_featurize` refuses them
            fresh = _read_only(_featurize(s, dataset.seed, payload, todo))
            at[todo] = np.arange(todo.size) + sum(len(b) for b in blocks)
            blocks.append(fresh)
            if todo.size == rows.size:
                base[name] = fresh
                continue
        if len(blocks) > 1:   # merged once, by the first call that reads them
            blocks[:] = [np.concatenate(blocks)]
        base[name] = blocks[0][at[rows]]
    return base


def prepare_embeddings(dataset: Dataset, rows, stats: dict | None = None,
                       sources=None) -> tuple[dict, dict]:
    """Per-source (len(rows), d_e) embeddings of the record `rows`, z-scored.

    Only the named `sources` (default: every source) are read, each raw one
    from the dataset's feature memo, which featurizes the rows it lacks
    (see `_base_embeddings`); the z-scoring runs on every call. Pass
    `stats` (from a checkpoint) to normalize evaluation data exactly as the
    training run did; without them they are fitted on the rows featurized
    here, which are then the training split.
    """
    rows = np.asarray(rows)
    names = [s.name for s in dataset.source_specs] if sources is None else sources
    base = _base_embeddings(dataset, rows, names)
    if stats is None:
        stats = {name: fit_feature_stats(mat) for name, mat in base.items()}
    emb = {}
    for name, mat in base.items():
        if name not in stats:
            raise ValueError(f"missing normalization stats for source {name!r}")
        emb[name] = apply_feature_stats(mat, stats[name])
    return emb, stats


# ---------------------------------------------------------------------------
# loss graphs


def _confidence_graph(sequences: list[list[ad.Tensor]], frozen: FrozenWeights,
                      designated: DesignatedVocab) -> ad.Tensor:
    """(G·N, K) confidences of G groups' sequences, each a list of S
    per-position (N, d_t) token batches: the sigmoid of the position-mean
    logits at the designated indices, group by group.

    The groups' rows are stacked into one (G·N, S, d_t) call, and the
    backbone's head reads only the designated columns. The backbone treats
    rows independently, bit for bit, so each row gets the value and input
    gradient it would get alone. That rests on `lm_forward` running every
    weight product as one GEMM of at least two rows against a contiguous
    weight, whose rows the BLAS rounds alike at any row count. The mean of
    one position is that position's logits, exactly.
    """
    positions = [ad.concat(tokens, axis=0) for tokens in zip(*sequences)]
    rows, width = positions[0].shape
    seq = ad.concat(positions, axis=-1).reshape(rows, len(positions), width)
    return ad.sigmoid(lm_forward(frozen, seq, designated.indices).mean(axis=-2))


def build_joint_loss(groups: list[dict], frozen: FrozenWeights, designated: DesignatedVocab,
                     emb_batch: dict, labels_batch, loss: ClassWeights | ASLConfig,
                     beta: float, group_losses: list | None = None):
    """Closure for eval_with_grads: the sum over groups of each group's
    batch-mean objective.

    A group is a dict of projectors, source name -> params, whose tokens form
    one sequence in dict order; the groups hold equally many sources and
    rows. Their sequences are stacked on the batch axis into one backbone
    call and one classification loss, and a group's loss reads only its own
    rows, so each group's projectors get exactly the gradient they would get
    alone. `emb_batch` maps every source to its batch; `labels_batch` holds
    the groups' label rows, stacked in the same order, and each must pass
    `losses.validate_labels`. Each evaluation appends the list of group loss
    values to `group_losses`, if given.
    """
    if len({len(emb_batch[name]) for group in groups for name in group}) != 1:
        raise ValueError("every source batch must hold the same number of rows")

    def computation(_params=None):
        recon, sequences = [], []
        for group in groups:
            terms, tokens = [], []
            for name, pp in group.items():
                e = ad.constant(emb_batch[name])
                t = project(pp, e)
                terms.append(reconstruction_loss_graph(e, reconstruct(pp, t)))
                tokens.append(t)
            recon.append(sum(terms[1:], terms[0]))
            sequences.append(tokens)
        phi = _confidence_graph(sequences, frozen, designated)
        cls = classification_loss_graph(phi, labels_batch, loss)
        losses = _group_objectives(ad.concat(recon), cls, beta, len(groups))
        if group_losses is not None:
            group_losses.append([float(v) for v in losses.value])
        return losses.sum()

    return computation


def _group_objectives(recon: ad.Tensor, cls: ad.Tensor, beta: float, n_groups: int) -> ad.Tensor:
    """(G,) batch-mean objectives of G equally large groups from their rows'
    reconstruction and classification terms; row r of group i is row
    i·B + r of the stack."""
    return (recon + beta * cls).reshape(n_groups, -1).mean(axis=-1)


def build_isolated_loss(pp: ProjectorParams, frozen: FrozenWeights,
                        designated: DesignatedVocab, emb_batch, labels_batch,
                        loss: ClassWeights | ASLConfig, beta: float):
    """Single-source objective: the joint objective of a one-source group,
    i.e. on the length-1 sequence of that source's token."""
    return build_joint_loss([{"source": pp}], frozen, designated, {"source": emb_batch},
                            labels_batch, loss, beta)


# ---------------------------------------------------------------------------
# training


@dataclass
class Checkpoint:
    config: TrainConfig
    source_specs: tuple[SourceSpec, ...]
    task_names: tuple[str, ...]
    dataset_mode: str
    dataset_seed: int
    designated: DesignatedVocab
    projectors: dict
    stats: dict
    frozen: FrozenWeights = field(repr=False, compare=False)
    history: dict = field(default_factory=dict)

    def source_order(self) -> tuple[str, ...]:
        """The feed order: the source order of the dataset it was trained on."""
        return tuple(s.name for s in self.source_specs)


def _projector_configs(specs, lm: LMConfig) -> dict:
    configs = {}
    for s in specs:
        configs[s.name] = ProjectorConfig(embed_dim=s.dim, token_dim=lm.d_model)
    return configs


def _param_set(projectors: dict) -> ad.ParamSet:
    """One ParamSet over every tensor of the given projectors; it takes over
    their storage."""
    return ad.ParamSet({f"{name}.{pname}": t for name, pp in projectors.items()
                        for pname, t in pp.tensors.items()})


def _epoch_batches(rng: np.random.Generator, n: int, batch_size: int):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start:start + batch_size]


@dataclass(frozen=True)
class _Group:
    """Sources trained together: their tokens form one sequence, their
    batches come from one RNG stream, and their loss history is one list."""
    key: str
    projectors: dict
    rng_key: tuple
    label: str


def _run_epochs(groups: list[_Group], emb: dict, labels: np.ndarray, frozen: FrozenWeights,
                designated: DesignatedVocab, loss: ClassWeights | ASLConfig,
                cfg: TrainConfig) -> dict:
    """Train every group in lockstep: each step stacks every group's batch
    into one loss graph and one backward, and one AdamW step updates all
    projectors. AdamW is per element and every group takes the same number
    of steps, so each group trains exactly as it would alone."""
    params = _param_set({name: pp for g in groups for name, pp in g.projectors.items()})
    state = init_adamw(params, lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    rngs = [seeding.rng(cfg.seed, *g.rng_key) for g in groups]
    history = {g.key: [] for g in groups}

    def batch_loss(members, batches, group_losses=None):
        emb_b = {name: emb[name][batch] for g, batch in zip(members, batches)
                 for name in g.projectors}
        return build_joint_loss([g.projectors for g in members], frozen, designated, emb_b,
                                np.concatenate([labels[batch] for batch in batches]),
                                loss, cfg.beta, group_losses)

    for epoch in range(cfg.epochs):
        batch_losses = []
        epoch_batches = [_epoch_batches(rng, labels.shape[0], cfg.batch_size) for rng in rngs]
        for b, batches in enumerate(zip(*epoch_batches)):
            try:
                ad.eval_with_grads(batch_loss(groups, batches, batch_losses), params)
            except ad.NonFiniteError as err:
                label, op = _first_failing(groups, batches, batch_loss, params, cfg.mode, err)
                raise ad.NonFiniteError(
                    op, f"{label}: aborted at epoch {epoch}, batch {b}") from err
            adamw_step(params, state)
        for g, losses in zip(groups, zip(*batch_losses)):
            history[g.key].append(float(np.mean(losses)))
    return history


def _first_failing(groups, batches, batch_loss, params, mode: str, err: ad.NonFiniteError):
    """(label, primitive) of the first group, in feed order, whose batch
    fails on its own; the shared step cannot tell which one did. Each try
    writes gradients into the training set `params`; nothing is updated."""
    for g, batch in zip(groups, batches):
        try:
            ad.eval_with_grads(batch_loss([g], [batch]), params)
        except ad.NonFiniteError as alone:
            return g.label, alone.op
    return f"{mode} training", err.op


def train(dataset: Dataset, cfg: TrainConfig) -> Checkpoint:
    dataset.validate()
    proj_cfgs = _projector_configs(dataset.source_specs, cfg.lm)

    # embeddings and labels of the training split; batches index its positions
    train_idx, _ = split_by_patient(dataset.patients, cfg.split_ratio, cfg.seed)
    emb, stats = prepare_embeddings(dataset, train_idx)
    labels = dataset.labels[train_idx]

    loss = class_weights(labels) if cfg.loss_kind == "avg" else cfg.asl
    designated = draw_designated(cfg.lm.vocab, dataset.n_tasks, cfg.seed)
    frozen = init_frozen(cfg.lm)
    projectors = {name: init_projector(pc, cfg.seed, name) for name, pc in proj_cfgs.items()}

    if cfg.mode == "joint":
        groups = [_Group("joint", projectors, ("batches",), "joint training")]
    else:
        groups = [_Group(name, {name: pp}, ("batches", name), f"isolated training ({name})")
                  for name, pp in projectors.items()]
    history = _run_epochs(groups, emb, labels, frozen, designated, loss, cfg)

    return Checkpoint(
        config=cfg,
        source_specs=dataset.source_specs,
        task_names=tuple(dataset.task_names),
        dataset_mode=dataset.mode,
        dataset_seed=dataset.seed,
        designated=designated,
        projectors=projectors,
        stats=stats,
        frozen=frozen,
        history=history,
    )


# ---------------------------------------------------------------------------
# prediction protocols


def check_compatible(ckpt: Checkpoint, dataset: Dataset) -> None:
    """The dataset must have the mode, sources (every spec field), tasks and
    seed the checkpoint was trained on."""
    if dataset.mode != ckpt.dataset_mode:
        raise ValueError(f"dataset mode {dataset.mode!r} does not match the "
                         f"checkpoint's {ckpt.dataset_mode!r}")
    if set(dataset.source_specs) != set(ckpt.source_specs):
        raise ValueError("dataset sources do not match the checkpoint's sources")
    if tuple(dataset.task_names) != ckpt.task_names:
        raise ValueError("dataset task list does not match the checkpoint's tasks")
    # raw stub encoders and latent mixing maps are both drawn from the seed
    if dataset.seed != ckpt.dataset_seed:
        raise ValueError(f"dataset seed {dataset.seed} does not match the "
                         f"checkpoint's {ckpt.dataset_seed}")


def _mode_sources(ckpt: Checkpoint, mode: str) -> tuple[str, ...]:
    """The sources, in feed order, that prediction mode `mode` reads."""
    if mode == "joint":
        if ckpt.config.mode != "joint":
            raise ValueError(
                "joint prediction needs a joint-trained checkpoint "
                "(use iso-joint for isolation-trained projectors)")
        return ckpt.source_order()
    if mode == "iso-joint":
        if ckpt.config.mode != "isolated":
            raise ValueError("iso-joint prediction needs an isolation-trained checkpoint")
        return ckpt.source_order()
    if mode.startswith("single:"):
        name = mode.split(":", 1)[1]
        if name not in ckpt.source_order():
            raise ValueError(f"unknown source {name!r}")
        return (name,)
    raise ValueError(f"unknown prediction mode {mode!r}")


def _threshold(ckpt: Checkpoint, threshold: float | None) -> float:
    threshold = ckpt.config.threshold if threshold is None else threshold
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    return threshold


def _readout(ckpt: Checkpoint, dataset: Dataset, indices, groups) -> np.ndarray:
    """(G, len(indices), K) confidences of G equally long groups of sources
    on the given record rows. Each source's features are read once (a raw
    source featurizes only the rows its dataset's memo lacks) and projected
    once per PREDICT_CHUNK rows, and a chunk's groups share one backbone
    call, which reads each group's rows exactly as it would alone."""
    check_compatible(ckpt, dataset)
    idx = np.asarray(indices)
    if idx.size == 0:
        raise ValueError("no records to predict")
    names = list(dict.fromkeys(name for group in groups for name in group))
    emb, _ = prepare_embeddings(dataset, idx, stats=ckpt.stats, sources=names)
    out = np.empty((len(groups), idx.size, len(ckpt.task_names)))
    with ad.no_graph():
        for start in range(0, idx.size, PREDICT_CHUNK):
            chunk = slice(start, start + PREDICT_CHUNK)
            tokens = {name: project(ckpt.projectors[name], emb[name][chunk]) for name in names}
            phi = _confidence_graph([[tokens[name] for name in group] for group in groups],
                                    ckpt.frozen, ckpt.designated).value
            # row r of group i is row i * chunk rows + r of the stack
            out[:, chunk] = phi.reshape(len(groups), -1, phi.shape[-1])
    return out


def predict(ckpt: Checkpoint, dataset: Dataset, indices, mode: str,
            threshold: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Confidences and thresholded predictions for the given record rows.

    mode is "joint", "iso-joint", or "single:<source>"; the decision rule is
    boundary-inclusive, yhat = 1 wherever phi >= threshold.
    """
    names = _mode_sources(ckpt, mode)
    threshold = _threshold(ckpt, threshold)
    (out,) = _readout(ckpt, dataset, indices, [names])
    return out, (out >= threshold).astype(np.int64)


@dataclass
class BssSelection:
    assignment: dict        # task name -> source name or None
    validation_f1: dict     # task name -> {source name -> f1}


def bss_select(ckpt: Checkpoint, dataset: Dataset, val_idx,
               threshold: float | None = None) -> BssSelection:
    """Per-task best single source by F1 on a labeled validation slice, each
    source predicting at `threshold` (default: the checkpoint's).

    Ties prefer higher recall, then the earlier source in the feed order.
    Tasks without any labeled validation record stay unselected. Every
    source is read in one backbone call per chunk, as a one-source group.
    """
    if ckpt.config.mode != "isolated":
        raise ValueError("best-single-source selection needs an isolation-trained checkpoint")
    threshold = _threshold(ckpt, threshold)
    val_idx = np.asarray(val_idx)
    names = ckpt.source_order()
    labels = dataset.labels[val_idx]
    phi = _readout(ckpt, dataset, val_idx, [[name] for name in names])
    scored = {name: metrics_for_run((p >= threshold).astype(np.int64), labels, ckpt.task_names)
              for name, p in zip(names, phi)}
    assignment, scores = {}, {}
    for k, task in enumerate(ckpt.task_names):
        if not np.any(labels[:, k] != UNKNOWN):
            assignment[task], scores[task] = None, {}
            continue
        f1 = scores[task] = {name: f1_score(scored[name][k]) for name in names}
        assignment[task] = max(names, key=lambda name: (f1[name], scored[name][k].recall,
                                                         -names.index(name)))
    return BssSelection(assignment=assignment, validation_f1=scores)


BSS_VALIDATION_RATIO = 0.8


def evaluate_protocol(ckpt: Checkpoint, dataset: Dataset, protocol: str,
                      threshold: float | None = None
                      ) -> tuple[list[TaskMetrics], BssSelection | None]:
    """Test-split metrics for one protocol: joint, iso-joint, single:<src>,
    or bss (which carves a patient-grouped validation slice out of the
    training split to pick sources, then scores them on the test split, and
    refuses a training split too small to spare one)."""
    train_idx, test_idx = split_by_patient(dataset.patients, ckpt.config.split_ratio,
                                           ckpt.config.seed)
    if test_idx.size == 0:
        raise ValueError("empty test split")
    labels, selection = dataset.labels[test_idx], None
    if protocol != "bss":
        _, yhat = predict(ckpt, dataset, test_idx, protocol, threshold)
    else:
        patients = dataset.patients[train_idx]
        n_patients = np.unique(patients).size
        # one patient cannot be split; a few can all land on the fitting side
        val = (split_by_patient(patients, BSS_VALIDATION_RATIO, ckpt.config.seed)[1]
               if n_patients > 1 else train_idx[:0])
        if val.size == 0:
            raise ValueError(f"bss needs a validation slice of the training split, which is "
                             f"too small for one: {train_idx.size} records, "
                             f"{n_patients} patient(s)")
        selection = bss_select(ckpt, dataset, train_idx[val], threshold)
        picked = [name for name in ckpt.source_order() if name in selection.assignment.values()]
        per_source = {}
        if picked:
            phi = _readout(ckpt, dataset, test_idx, [[name] for name in picked])
            per_source = dict(zip(picked, phi >= _threshold(ckpt, threshold)))
        yhat = np.zeros(labels.shape, dtype=np.int64)
        for k, task in enumerate(ckpt.task_names):
            source = selection.assignment[task]
            if source:
                yhat[:, k] = per_source[source][:, k]
            else:  # no source was selected: scored over zero records
                labels[:, k] = UNKNOWN
    return metrics_for_run(yhat, labels, ckpt.task_names), selection


# ---------------------------------------------------------------------------
# checkpoint persistence


def _designated_entry(designated: DesignatedVocab) -> dict:
    return {"indices": list(designated.indices), "seed": designated.seed}


def save_checkpoint(ckpt: Checkpoint, out_dir, lock: dict | None = None) -> Path:
    """One file per source holds its projector parameters, then its stats'
    mean and std, as float64 arrays, so a reloaded checkpoint predicts
    exactly as the saved one. The directory is written whole, with `lock`
    as its `run.lock` if given (see `storage.write_artifact`)."""
    manifest = {
        "train_config": dataclasses.asdict(ckpt.config),
        "sources": [dataclasses.asdict(s) for s in ckpt.source_specs],
        "task_names": list(ckpt.task_names),
        "dataset_mode": ckpt.dataset_mode,
        "dataset_seed": ckpt.dataset_seed,
        "weights_hash": ckpt.frozen.weights_hash(),
        "designated": _designated_entry(ckpt.designated),
        "history": ckpt.history,
    }
    files = {f"src_{name}.bin": [*(pp.value(p) for p in PARAM_NAMES),
                                 ckpt.stats[name].mean, ckpt.stats[name].std]
             for name, pp in ckpt.projectors.items()}
    return write_artifact(out_dir, "checkpoint", manifest, files, lock)


def load_checkpoint(path) -> Checkpoint:
    root = Path(path)
    manifest_path, value = read_manifest(root, "checkpoint")
    train_config = value("train_config", "an object")
    try:
        cfg = decode(TrainConfig, train_config, "config", complete=True)
    except ValueError as err:
        raise ValueError(f"{manifest_path}: invalid train_config: {err}") from None
    # the backbone and the designated indices are rebuilt from their seeds,
    # not stored: check they are the ones training used
    frozen = init_frozen(cfg.lm)
    rebuilt, stored = frozen.weights_hash(), value("weights_hash", "a string")
    if rebuilt != stored:
        raise ValueError(f"{manifest_path}: backbone weights hash {rebuilt} rebuilt "
                         f"from train_config.lm does not match the stored {stored}")
    task_names = tuple(value("task_names", "a list of names"))
    specs = read_source_specs(manifest_path, value("sources", "a list"))
    if not specs or not task_names:
        raise ValueError(f"{manifest_path}: a checkpoint needs at least one source and one "
                         f"task, got {len(specs)} and {len(task_names)}")
    designated = draw_designated(cfg.lm.vocab, len(task_names), cfg.seed)
    entry = value("designated", "an object")
    if entry != _designated_entry(designated):
        raise ValueError(f"{manifest_path}: designated {entry} does not "
                         f"match {_designated_entry(designated)} drawn from train_config")
    checkpoint = Checkpoint(
        config=cfg,
        source_specs=specs,
        task_names=task_names,
        dataset_mode=value("dataset_mode", "latent or raw"),
        dataset_seed=value("dataset_seed", "a count"),
        designated=designated,
        projectors={},
        stats={},
        frozen=frozen,
        history=value("history", "an object of number lists"),
    )
    proj_cfgs = _projector_configs(specs, cfg.lm)
    for s in specs:
        shapes, path = proj_cfgs[s.name].shapes(), root / f"src_{s.name}.bin"
        *params, mean, std = load_arrays(path, *(("<f8", shapes[p]) for p in PARAM_NAMES),
                                         ("<f8", (s.dim,)), ("<f8", (s.dim,)))
        for p, arr in zip(PARAM_NAMES, params):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{path}: {p} contains non-finite values")
        try:
            checkpoint.stats[s.name] = FeatureStats(mean=mean, std=std)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
        checkpoint.projectors[s.name] = ProjectorParams(proj_cfgs[s.name], *params)
    return checkpoint


# ---------------------------------------------------------------------------
# end-to-end gradient fidelity suite


# finite-difference probes per stacked pass in gradcheck_suite. A suite took
# 89 ms at 8, 60 ms at 16, 44 ms at 32, 37 ms at 64, 36 ms at 128 and 40 ms
# at 256 (median of 40 over seeds 0-19, 1 BLAS thread, 2 vCPUs), and its
# traced peak allocation was 0.5, 0.6, 0.9, 1.4, 2.5 and 4.4 MB
GRADCHECK_PROBES_PER_CALL = 64


def _gradcheck_problem(seed: int):
    """(computation, params, probe_losses) of `gradcheck_suite`: its
    objective, its parameters and their stacked probe evaluator.

    `probe_losses(name, stack)` evaluates the probes of parameter `name`
    (`<source>.<tensor>`) GRADCHECK_PROBES_PER_CALL at a time, each chunk as
    one forward pass of the training nodes in which the perturbed tensor
    keeps its leading copies axis. Every source's tokens and reconstruction
    terms, and the confidences, are computed unperturbed once, in one
    backbone call. A decoder chunk cannot change a token, so it reuses those
    confidences; an encoder chunk sends its copies' rows through one backbone
    call, row i·N + r belonging to copy i, as lockstep groups are laid out.
    """
    lm = LMConfig(d_model=16, n_layers=2, n_heads=2, vocab=32, max_seq=4, seed=seed)
    gen = seeding.rng(seed, "gradcheck")
    names = ("alpha", "bravo", "charlie")
    emb = {name: gen.standard_normal((4, 8)) for name in names}
    labels = gen.integers(-1, 2, size=(4, 4))
    labels[0, 0] = 1
    labels[0, 1] = 0
    projectors = {name: init_projector(ProjectorConfig(8, lm.d_model), seed, name)
                  for name in names}
    frozen = init_frozen(lm)
    designated = draw_designated(lm.vocab, 4, seed)
    params = _param_set(projectors)
    loss, beta = ASLConfig(), 10.0
    computation = build_joint_loss([projectors], frozen, designated, emb, labels, loss, beta)

    with ad.no_graph():
        e = {name: ad.constant(emb[name]) for name in names}
        tokens = {name: project(pp, e[name]) for name, pp in projectors.items()}
        recon = {name: reconstruction_loss_graph(e[name], reconstruct(pp, tokens[name]))
                 for name, pp in projectors.items()}
        cls = classification_loss_graph(
            _confidence_graph([list(tokens.values())], frozen, designated), labels, loss)

    def chunk_losses(source: str, tensor: str, chunk: np.ndarray) -> np.ndarray:
        pp, copies = projectors[source], {tensor: chunk}
        if tensor.startswith("enc"):
            t = project(pp, e[source], **copies)
            r = reconstruction_loss_graph(e[source], reconstruct(pp, t))
            # row r of copy i is row i·N + r of the stack
            seq = [t.reshape(-1, lm.d_model) if name == source
                   else ad.constant(np.tile(tokens[name].value, (len(chunk), 1)))
                   for name in names]
            phi = _confidence_graph([seq], frozen, designated).reshape(len(chunk), *labels.shape)
            chunk_cls = classification_loss_graph(phi, np.broadcast_to(labels, phi.shape), loss)
        else:
            r = reconstruction_loss_graph(e[source], reconstruct(pp, tokens[source], **copies))
            chunk_cls = cls
        terms = [r if name == source else recon[name] for name in names]
        return _group_objectives(sum(terms[1:], terms[0]), chunk_cls, beta, len(chunk)).value

    def probe_losses(name: str, stack: np.ndarray) -> np.ndarray:
        source, tensor = name.split(".")
        with ad.no_graph():
            return np.concatenate([
                chunk_losses(source, tensor, stack[start:start + GRADCHECK_PROBES_PER_CALL])
                for start in range(0, len(stack), GRADCHECK_PROBES_PER_CALL)])

    return computation, params, probe_losses


def gradcheck_suite(seed: int = 0, tol: float = 1e-4, h: float = 1e-5
                    ) -> ad.GradCheckReport:
    """Finite-difference check of the full joint objective (three sources of
    width 8 into a 16-wide backbone, vocabulary 32, 4 tasks) with respect to
    every projector parameter.

    Each parameter's probes (every entry at x+h and at x-h) run
    GRADCHECK_PROBES_PER_CALL at a time as one stacked pass of the training
    nodes. Only encoder probes change a token, so a suite makes 17 backbone
    calls (the analytic pass, the unperturbed pass and 5 encoder chunks per
    source) where one probe at a time takes 1681. The nodes compute each
    copy as they compute it alone, the backbone treats rows independently,
    bit for bit, and a probe's loss is the mean of its own rows, so every
    probe loss, and with it the report, is the one the serial loop of
    `finite_diff_check` gives."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    computation, params, probe_losses = _gradcheck_problem(seed)
    return ad.finite_diff_check(computation, params, h=h, tol=tol, probe_losses=probe_losses)
