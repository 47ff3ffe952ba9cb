"""End-to-end pipeline tests: patient-grouped splitting, normalization
plumbing, training in both modes, prediction protocols, source selection,
and checkpoint persistence."""

import dataclasses
import hashlib
import re
from collections import Counter

import numpy as np
import pytest

from riskfuse import pipeline
from riskfuse import autodiff as ad
from riskfuse.cli import EXIT_NUMERIC, main
from riskfuse.datagen import build, planted_profile
from riskfuse.encoders import apply_feature_stats
from riskfuse.frozenlm import LMConfig, init_frozen
from riskfuse.losses import ASLConfig
from riskfuse.metrics import TaskMetrics, precision_recall
from riskfuse.pipeline import (TrainConfig, bss_select, evaluate_protocol,
                               load_checkpoint, predict, prepare_embeddings,
                               save_checkpoint, split_by_patient, train)
from riskfuse.projector import PARAM_NAMES, ProjectorConfig, init_projector
from riskfuse.seeding import rng
from riskfuse.storage import decode, dump_json, read_json, write_dataset

# d_model must exceed the widest source embedding (lab, 44)
LM_SMALL = LMConfig(d_model=48, n_layers=2, n_heads=2, vocab=32, max_seq=8, seed=0)


def _cfg(**kw):
    base = dict(mode="joint", loss_kind="asl", epochs=3, batch_size=32,
                learning_rate=5e-4, weight_decay=3e-4, beta=10.0,
                lm=LM_SMALL, seed=1)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def dataset():
    return build(planted_profile(n_records=120, seed=5))


@pytest.fixture(scope="module")
def joint_ckpt(dataset):
    return train(dataset, _cfg())


@pytest.fixture(scope="module")
def iso_ckpt(dataset):
    return train(dataset, _cfg(mode="isolated", epochs=2))


@pytest.fixture(scope="module")
def raw_dataset():
    return build(planted_profile(n_records=120, seed=5, mode="raw"))


@pytest.fixture(scope="module")
def raw_ckpts(raw_dataset):
    return [train(raw_dataset, _cfg(mode=mode, epochs=1)) for mode in ("joint", "isolated")]


# ---------------------------------------------------------------------------
# patient-grouped splitting


def test_split_never_straddles_a_patient():
    for seed in range(12):
        patients = rng(seed, "cohort").integers(0, 30, size=200)
        patients[: 2] = [0, 1]    # guarantee two distinct patients
        tr, te = split_by_patient(patients, 0.75, seed)
        assert not set(patients[tr]) & set(patients[te])
        merged = np.sort(np.concatenate([tr, te]))
        np.testing.assert_array_equal(merged, np.arange(200))


def test_split_ratio_is_approximate():
    patients = np.repeat(np.arange(60), 4)     # 240 records, blocks of 4
    tr, te = split_by_patient(patients, 0.75, seed=2)
    assert 0.70 <= tr.size / 240 <= 0.80
    assert te.size > 0


def test_split_deterministic_in_seed():
    patients = np.repeat(np.arange(25), 3)
    a = split_by_patient(patients, 0.6, seed=7)
    b = split_by_patient(patients, 0.6, seed=7)
    c = split_by_patient(patients, 0.6, seed=8)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    assert not np.array_equal(a[0], c[0])


def test_split_argument_validation():
    with pytest.raises(ValueError):
        split_by_patient(np.array([3, 3, 3]), 0.75, 0)    # one patient
    with pytest.raises(ValueError):
        split_by_patient(np.array([1, 2]), 1.0, 0)
    with pytest.raises(ValueError):
        split_by_patient(np.array([1, 2]), 0.0, 0)
    with pytest.raises(ValueError):
        split_by_patient(np.array([]), 0.5, 0)


# ---------------------------------------------------------------------------
# embedding preparation


def test_stats_are_fitted_on_the_training_rows_only(dataset):
    tr, te = split_by_patient(dataset.patients, 0.75, seed=0)
    emb, stats = prepare_embeddings(dataset, tr)
    name = dataset.source_specs[0].name
    (base,) = dataset.payloads[name]
    np.testing.assert_allclose(stats[name].mean, base[tr].mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(stats[name].std, base[tr].std(axis=0), atol=1e-12)
    # full-cohort stats would differ
    assert not np.allclose(stats[name].mean, base.mean(axis=0))
    np.testing.assert_allclose(emb[name], apply_feature_stats(base[tr], stats[name]))


def test_stored_stats_reproduce_training_normalization(dataset):
    tr, _ = split_by_patient(dataset.patients, 0.75, seed=0)
    emb1, stats = prepare_embeddings(dataset, tr)
    emb2, stats2 = prepare_embeddings(dataset, np.arange(dataset.n_records), stats=stats)
    assert stats2 is stats
    for name in emb1:
        np.testing.assert_array_equal(emb1[name], emb2[name][tr])


# ---------------------------------------------------------------------------
# training configuration


@pytest.mark.parametrize("kw", [
    {"mode": "sequential"},
    {"loss_kind": "mse"},
    {"epochs": 0},
    {"batch_size": 0},
    {"learning_rate": 0.0},
    {"weight_decay": -1e-3},
    {"beta": -1.0},
    {"threshold": 1.5},
    {"split_ratio": 1.0},
])
def test_train_config_rejects_bad_values(kw):
    with pytest.raises(ValueError):
        _cfg(**kw)


# ---------------------------------------------------------------------------
# training


def test_joint_training_reduces_the_loss(joint_ckpt):
    hist = joint_ckpt.history["joint"]
    assert len(hist) == joint_ckpt.config.epochs
    assert all(np.isfinite(hist))
    assert hist[-1] < hist[0]


def test_isolated_training_tracks_every_source(iso_ckpt, dataset):
    names = {s.name for s in dataset.source_specs}
    assert set(iso_ckpt.history) == names
    for hist in iso_ckpt.history.values():
        assert len(hist) == iso_ckpt.config.epochs
        assert all(np.isfinite(hist))


def test_isolated_training_of_a_source_ignores_the_other_sources(iso_ckpt, dataset):
    name = iso_ckpt.source_order()[-1]
    alone = dataclasses.replace(dataset, source_specs=(dataset.spec(name),),
                                payloads={name: dataset.payloads[name]})
    ckpt = train(alone, iso_ckpt.config)
    assert ckpt.history == {name: iso_ckpt.history[name]}
    for pname in PARAM_NAMES:
        np.testing.assert_array_equal(ckpt.projectors[name].value(pname),
                                      iso_ckpt.projectors[name].value(pname))


def test_train_config_decode_roundtrips_and_rejects_unknown_keys():
    cfg = _cfg(mode="isolated", asl=ASLConfig(margin=0.1))
    assert decode(TrainConfig, dataclasses.asdict(cfg), "config", complete=False) == cfg
    assert decode(TrainConfig, {"epochs": 2}, "config", complete=False) == TrainConfig(epochs=2)
    for bad, key in [({"momentum": 0.9}, "momentum"),
                     ({"asl": {"margin": 0.1, "gamma_pos": 1.0}}, "gamma_pos"),
                     ({"lm": {"head_count": 2}}, "head_count"),
                     ({"lm": 5}, "config lm must be an object")]:
        with pytest.raises(ValueError, match=key):
            decode(TrainConfig, bad, "config", complete=False)
    full = dataclasses.asdict(cfg)
    assert decode(TrainConfig, full, "config", complete=True) == cfg
    del full["lm"]["n_heads"]
    with pytest.raises(ValueError, match="missing config lm keys: n_heads"):
        decode(TrainConfig, full, "config", complete=True)


def test_backbone_weights_never_move(joint_ckpt, iso_ckpt):
    # a fresh draw, not the shared instance, which a write would move too
    reference = init_frozen.__wrapped__(LM_SMALL).weights_hash()
    assert joint_ckpt.frozen.weights_hash() == reference
    assert iso_ckpt.frozen.weights_hash() == reference


def test_a_checkpoint_round_trip_hashes_no_backbone(joint_ckpt, tmp_path, monkeypatch):
    # the shared backbone was hashed once, when it was built
    passes, sha256 = [], hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda *a: passes.append(a) or sha256(*a))
    back = load_checkpoint(save_checkpoint(joint_ckpt, tmp_path))
    assert back.frozen is joint_ckpt.frozen and passes == []


def test_projector_weights_do_move(joint_ckpt):
    name = joint_ckpt.source_order()[0]
    spec = next(s for s in joint_ckpt.source_specs if s.name == name)
    fresh = init_projector(ProjectorConfig(embed_dim=spec.dim, token_dim=LM_SMALL.d_model),
                           joint_ckpt.config.seed, name)
    trained = joint_ckpt.projectors[name]
    assert any(not np.array_equal(trained.tensors[p].value, fresh.tensors[p].value)
               for p in PARAM_NAMES)


def test_training_is_deterministic(dataset):
    cfg = _cfg(epochs=1, seed=3)
    a = train(dataset, cfg)
    b = train(dataset, cfg)
    assert a.history == b.history
    idx = np.arange(dataset.n_records)
    phi_a, _ = predict(a, dataset, idx, "joint")
    phi_b, _ = predict(b, dataset, idx, "joint")
    np.testing.assert_array_equal(phi_a, phi_b)
    assert tuple(a.designated.indices) == tuple(b.designated.indices)


def test_nonfinite_abort_names_epoch_and_batch(dataset, monkeypatch):
    real = pipeline.prepare_embeddings

    def poisoned(ds, rows, stats=None, sources=None):
        emb, st = real(ds, rows, stats=stats, sources=sources)
        bad = {k: v.copy() for k, v in emb.items()}
        bad[next(iter(bad))][:] = np.nan
        return bad, st

    monkeypatch.setattr(pipeline, "prepare_embeddings", poisoned)
    with pytest.raises(ad.NonFiniteError, match=r"aborted at epoch 0, batch 0"):
        pipeline.train(dataset, _cfg(epochs=1))


def test_isolated_nonfinite_abort_names_the_source(dataset, monkeypatch, tmp_path, capsys):
    # the sources share each backbone call, so the failing batch is re-run
    # one source at a time to name the one that failed
    third = dataset.source_specs[2].name
    real = pipeline.prepare_embeddings

    def poisoned(ds, rows, stats=None, sources=None):
        emb, st = real(ds, rows, stats=stats, sources=sources)
        return {k: np.full_like(v, np.nan) if k == third else v for k, v in emb.items()}, st

    monkeypatch.setattr(pipeline, "prepare_embeddings", poisoned)
    message = rf"isolated training \({third}\): aborted at epoch 0, batch 0"
    with pytest.raises(ad.NonFiniteError, match=message):
        train(dataset, _cfg(mode="isolated", epochs=1))
    data, out = tmp_path / "data", tmp_path / "ckpt"
    write_dataset(dataset, data)
    assert main(["train", "--mode", "isolated", "--epochs", "1", "--data", str(data),
                 "--out", str(out)]) == EXIT_NUMERIC
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


# ---------------------------------------------------------------------------
# prediction


def test_predict_shapes_and_range(joint_ckpt, dataset):
    idx = np.arange(30)
    phi, yhat = predict(joint_ckpt, dataset, idx, "joint")
    assert phi.shape == yhat.shape == (30, len(dataset.task_names))
    assert np.all((phi > 0.0) & (phi < 1.0))
    np.testing.assert_array_equal(yhat, (phi >= joint_ckpt.config.threshold).astype(np.int64))


def test_decision_rule_is_boundary_inclusive(joint_ckpt, dataset):
    idx = np.arange(10)
    phi, yhat = predict(joint_ckpt, dataset, idx, "joint", threshold=0.0)
    assert np.all(yhat == 1)
    _, none = predict(joint_ckpt, dataset, idx, "joint", threshold=1.0)
    assert np.all(none == 0)


def test_single_source_protocol_works_on_both_checkpoints(joint_ckpt, iso_ckpt, dataset):
    idx = np.arange(8)
    name = joint_ckpt.source_order()[2]
    for ckpt in (joint_ckpt, iso_ckpt):
        phi, _ = predict(ckpt, dataset, idx, f"single:{name}")
        assert phi.shape == (8, len(dataset.task_names))
    phi_j, _ = predict(joint_ckpt, dataset, idx, "joint")
    phi_s, _ = predict(joint_ckpt, dataset, idx, f"single:{name}")
    assert not np.allclose(phi_j, phi_s)


def test_prediction_mode_checkpoint_pairing(joint_ckpt, iso_ckpt, dataset):
    idx = np.arange(4)
    with pytest.raises(ValueError, match="iso-joint"):
        predict(joint_ckpt, dataset, idx, "iso-joint")
    with pytest.raises(ValueError, match="joint"):
        predict(iso_ckpt, dataset, idx, "joint")
    with pytest.raises(ValueError, match="unknown source"):
        predict(joint_ckpt, dataset, idx, "single:nope")
    with pytest.raises(ValueError, match="unknown prediction mode"):
        predict(joint_ckpt, dataset, idx, "ensemble")


def test_predict_argument_validation(joint_ckpt, dataset):
    with pytest.raises(ValueError):
        predict(joint_ckpt, dataset, np.array([], dtype=np.int64), "joint")
    with pytest.raises(ValueError):
        predict(joint_ckpt, dataset, np.arange(4), "joint", threshold=1.5)


def test_checkpoint_rejects_mismatched_dataset(joint_ckpt, dataset):
    renamed = tuple(["other"] + list(dataset.task_names[1:]))
    other = dataclasses.replace(dataset, task_names=renamed)
    with pytest.raises(ValueError, match="task"):
        predict(joint_ckpt, other, np.arange(4), "joint")


def test_checkpoint_rejects_a_dataset_of_another_mode_or_source_spec(
        joint_ckpt, dataset, raw_dataset):
    with pytest.raises(ValueError, match="dataset mode 'raw'"):
        predict(joint_ckpt, raw_dataset, np.arange(4), "joint")
    # same name, modality and width, but the other image rule
    specs = tuple(dataclasses.replace(s, image_rule="latest") if s.name == "axr" else s
                  for s in dataset.source_specs)
    with pytest.raises(ValueError, match="sources"):
        predict(joint_ckpt, dataclasses.replace(dataset, source_specs=specs),
                np.arange(4), "joint")


def test_chunked_prediction_matches_one_shot(joint_ckpt, dataset, monkeypatch):
    idx = np.arange(50)
    whole, _ = predict(joint_ckpt, dataset, idx, "joint")
    monkeypatch.setattr(pipeline, "PREDICT_CHUNK", 16)
    chunked, _ = predict(joint_ckpt, dataset, idx, "joint")
    # BLAS reduction order shifts with the matmul height, so agreement is
    # to rounding, not bitwise
    np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-12)


def test_row_subset_predict_matches_full_predict(dataset, joint_ckpt, iso_ckpt,
                                                 raw_dataset, raw_ckpts):
    # both batches are tall enough for BLAS's regular matmul kernel; below
    # about 26 rows it switches to a small-matrix kernel that rounds
    # differently (see the chunking test above)
    for ds, ckpts in ((dataset, (joint_ckpt, iso_ckpt)), (raw_dataset, raw_ckpts)):
        every = np.arange(ds.n_records)
        rows = rng(0, "subset").permutation(ds.n_records)[: ds.n_records // 2]
        for ckpt in ckpts:
            fused = "joint" if ckpt.config.mode == "joint" else "iso-joint"
            for mode in [fused] + [f"single:{n}" for n in ckpt.source_order()]:
                full, _ = predict(ckpt, ds, every, mode)
                part, _ = predict(ckpt, ds, rows, mode)
                np.testing.assert_array_equal(part, full[rows], err_msg=f"{ds.mode} {mode}")


def _count_featurized(monkeypatch) -> Counter:
    """Count each (record, source) pair the pipeline featurizes."""
    seen = Counter()
    real = pipeline._base_embeddings

    def counting(ds, rows, names):
        seen.update((int(r), name) for name in names for r in rows)
        return real(ds, rows, names)

    monkeypatch.setattr(pipeline, "_base_embeddings", counting)
    return seen


def test_single_source_predict_featurizes_only_its_rows_and_source(
        raw_dataset, raw_ckpts, monkeypatch):
    seen = _count_featurized(monkeypatch)
    predict(raw_ckpts[1], raw_dataset, np.arange(3, 13), "single:lab")
    assert seen == Counter({(r, "lab"): 1 for r in range(3, 13)})


def test_bss_featurizes_each_record_source_pair_at_most_once(
        raw_dataset, raw_ckpts, monkeypatch):
    seen = _count_featurized(monkeypatch)
    evaluate_protocol(raw_ckpts[1], raw_dataset, "bss")
    assert seen and max(seen.values()) == 1
    # every source is scored on the validation slice
    assert {name for _, name in seen} == set(raw_ckpts[1].source_order())


def test_training_featurizes_only_the_training_rows_once(raw_dataset, monkeypatch):
    seen = _count_featurized(monkeypatch)
    cfg = _cfg(epochs=1)
    train(raw_dataset, cfg)
    tr, te = split_by_patient(raw_dataset.patients, cfg.split_ratio, cfg.seed)
    assert te.size > 0
    names = [s.name for s in raw_dataset.source_specs]
    assert seen == Counter({(int(r), name): 1 for r in tr for name in names})


# ---------------------------------------------------------------------------
# best-single-source selection


def test_bss_requires_isolated_checkpoint(joint_ckpt, dataset):
    with pytest.raises(ValueError):
        bss_select(joint_ckpt, dataset, np.arange(10))


def test_bss_assignment_covers_all_tasks(iso_ckpt, dataset):
    tr, _ = split_by_patient(dataset.patients, 0.75, iso_ckpt.config.seed)
    sel = bss_select(iso_ckpt, dataset, tr)
    names = set(iso_ckpt.source_order())
    assert set(sel.assignment) == set(dataset.task_names)
    for task, src in sel.assignment.items():
        if src is None:
            assert sel.validation_f1[task] == {}
        else:
            assert src in names
            assert set(sel.validation_f1[task]) == names


def test_bss_tie_breaking(iso_ckpt, dataset, monkeypatch):
    names = iso_ckpt.source_order()
    n_tasks = len(iso_ckpt.task_names)
    labels = np.full((dataset.n_records, n_tasks), -1, dtype=np.int64)
    labels[:4, 0] = [1, 1, 0, 0]
    crafted = dataclasses.replace(dataset, labels=labels)

    # first source: precision 1, recall 1/2; second: precision 1/2, recall 1.
    # Equal F1 (2/3), so the higher recall must win despite the later slot.
    patterns = {
        names[0]: np.array([1, 0, 0, 0]),
        names[1]: np.array([1, 1, 1, 1]),
    }

    def fake_readout(ckpt, ds, idx, groups):
        # confidences 0.0 and 1.0 read as the patterns at the default 0.5
        phi = np.zeros((len(groups), len(idx), n_tasks))
        for g, (src,) in enumerate(groups):
            phi[g, :, 0] = patterns.get(src, np.zeros(4, dtype=np.int64))
        return phi

    monkeypatch.setattr(pipeline, "_readout", fake_readout)
    sel = pipeline.bss_select(iso_ckpt, crafted, np.arange(4))
    assert sel.assignment[iso_ckpt.task_names[0]] == names[1]
    assert sel.validation_f1[iso_ckpt.task_names[0]][names[0]] == pytest.approx(2 / 3)
    # the other tasks have no labeled rows at all
    assert all(sel.assignment[t] is None for t in iso_ckpt.task_names[1:])


def test_bss_exact_tie_prefers_the_earlier_source(iso_ckpt, dataset, monkeypatch):
    names = iso_ckpt.source_order()
    n_tasks = len(iso_ckpt.task_names)
    labels = np.full((dataset.n_records, n_tasks), -1, dtype=np.int64)
    labels[:4, 0] = [1, 0, 1, 0]
    crafted = dataclasses.replace(dataset, labels=labels)
    const = np.ones(4, dtype=np.int64)

    def fake_readout(ckpt, ds, idx, groups):
        phi = np.zeros((len(groups), len(idx), n_tasks))
        phi[:, :, 0] = const
        return phi

    monkeypatch.setattr(pipeline, "_readout", fake_readout)
    sel = pipeline.bss_select(iso_ckpt, crafted, np.arange(4))
    assert sel.assignment[iso_ckpt.task_names[0]] == names[0]


# ---------------------------------------------------------------------------
# evaluation protocols


def test_evaluate_joint_protocol(joint_ckpt, dataset):
    rows, sel = evaluate_protocol(joint_ckpt, dataset, "joint")
    assert sel is None
    assert [m.task for m in rows] == list(joint_ckpt.task_names)
    assert all(isinstance(m, TaskMetrics) for m in rows)


def test_evaluate_bss_protocol(iso_ckpt, dataset, monkeypatch):
    select = pipeline.bss_select

    def leave_the_first_task_unselected(*args):
        sel = select(*args)
        sel.assignment[iso_ckpt.task_names[0]] = None
        return sel

    monkeypatch.setattr(pipeline, "bss_select", leave_the_first_task_unselected)
    rows, sel = evaluate_protocol(iso_ckpt, dataset, "bss")
    assert sel is not None
    assert [m.task for m in rows] == list(iso_ckpt.task_names)
    _, test_idx = split_by_patient(dataset.patients, iso_ckpt.config.split_ratio,
                                   iso_ckpt.config.seed)
    labels = dataset.labels[test_idx]
    for k, (m, task) in enumerate(zip(rows, iso_ckpt.task_names)):
        source = sel.assignment[task]
        if source is None:
            assert m == TaskMetrics(task=task, tp=0, fp=0, fn=0, tn=0, precision=0.0,
                                    recall=0.0, n_labeled=0, degenerate=True)
        else:
            _, yhat = predict(iso_ckpt, dataset, test_idx, f"single:{source}")
            assert m == precision_recall(yhat[:, k], labels[:, k], task=task)
    assert sel.assignment[iso_ckpt.task_names[0]] is None


@pytest.mark.parametrize("seed, records, patients", [(1, 6, 4), (4, 7, 1)])
def test_bss_on_a_split_too_small_to_validate_names_its_counts(seed, records, patients):
    # at seed 1 every training patient lands on the fitting side of the
    # nested split; at seed 4 the training split holds one patient
    tiny = build(planted_profile(n_records=8, seed=seed))
    ckpt = train(tiny, _cfg(mode="isolated", epochs=1, seed=0))
    with pytest.raises(ValueError) as exc:
        evaluate_protocol(ckpt, tiny, "bss")
    assert str(exc.value) == ("bss needs a validation slice of the training split, which is "
                              f"too small for one: {records} records, {patients} patient(s)")


def test_bss_selects_at_the_threshold_it_scores_at(iso_ckpt, dataset, monkeypatch):
    names = iso_ckpt.source_order()
    n_tasks = len(iso_ckpt.task_names)
    labels = np.full((dataset.n_records, n_tasks), -1, dtype=np.int64)
    labels[:, 0] = np.arange(dataset.n_records) % 2
    crafted = dataclasses.replace(dataset, labels=labels)
    # the first source separates the classes at 0.5, the second at 0.3
    levels = {names[0]: (0.4, 0.6), names[1]: (0.1, 0.35)}

    def fake_readout(ckpt, ds, idx, groups):
        phi = np.zeros((len(groups), len(idx), n_tasks))
        for g, (src,) in enumerate(groups):
            neg, pos = levels.get(src, (0.0, 0.0))
            phi[g, :, 0] = np.where(ds.labels[idx, 0] == 1, pos, neg)
        return phi

    monkeypatch.setattr(pipeline, "_readout", fake_readout)
    rows, sel = evaluate_protocol(iso_ckpt, crafted, "bss", threshold=0.3)
    train_idx, _ = split_by_patient(crafted.patients, iso_ckpt.config.split_ratio,
                                    iso_ckpt.config.seed)
    _, val = split_by_patient(crafted.patients[train_idx], pipeline.BSS_VALIDATION_RATIO,
                              iso_ckpt.config.seed)
    task = iso_ckpt.task_names[0]
    assert sel == bss_select(iso_ckpt, crafted, train_idx[val], threshold=0.3)
    assert sel.assignment[task] == names[1]
    assert bss_select(iso_ckpt, crafted, train_idx[val]).assignment[task] == names[0]
    # the selected source separates the test split at 0.3 too
    assert (rows[0].precision, rows[0].recall) == (1.0, 1.0)


@pytest.mark.parametrize("chunk", [None, 7, 17])
@pytest.mark.parametrize("threshold", [None, 0.3])
@pytest.mark.parametrize("cohort", ["latent", "raw"])
def test_stacked_bss_matches_one_predict_per_source(cohort, threshold, chunk, request,
                                                    monkeypatch):
    # at chunk 7 both slices span several chunks; at 17 the 18-record
    # validation slice ends in a one-row remainder
    ds, ckpt = ((request.getfixturevalue("dataset"), request.getfixturevalue("iso_ckpt"))
                if cohort == "latent" else
                (request.getfixturevalue("raw_dataset"), request.getfixturevalue("raw_ckpts")[1]))
    if chunk is not None:
        monkeypatch.setattr(pipeline, "PREDICT_CHUNK", chunk)
    names = ckpt.source_order()
    train_idx, test_idx = split_by_patient(ds.patients, ckpt.config.split_ratio,
                                           ckpt.config.seed)
    _, val = split_by_patient(ds.patients[train_idx], pipeline.BSS_VALIDATION_RATIO,
                              ckpt.config.seed)
    val_idx = train_idx[val]
    assert val_idx.size == 18 and test_idx.size == 30
    looped = {tuple(idx): {name: predict(ckpt, ds, idx, f"single:{name}", threshold)[0]
                           for name in names}
              for idx in (val_idx, test_idx)}
    stacked = pipeline._readout(ckpt, ds, val_idx, [[name] for name in names])
    for name, phi in zip(names, stacked):
        np.testing.assert_array_equal(phi, looped[tuple(val_idx)][name], err_msg=name)
    sel = bss_select(ckpt, ds, val_idx, threshold)
    rows, eval_sel = evaluate_protocol(ckpt, ds, "bss", threshold)

    def one_predict_per_source(ckpt_, ds_, idx, groups):
        return np.stack([looped[tuple(idx)][name] for (name,) in groups])

    monkeypatch.setattr(pipeline, "_readout", one_predict_per_source)
    assert sel == eval_sel == bss_select(ckpt, ds, val_idx, threshold)
    assert rows == evaluate_protocol(ckpt, ds, "bss", threshold)[0]


def test_bss_reads_each_slice_in_one_backbone_call(iso_ckpt, dataset, monkeypatch):
    calls = []
    real = pipeline.lm_forward

    def counting(weights, x, columns):
        calls.append(x.shape)
        return real(weights, x, columns)

    monkeypatch.setattr(pipeline, "lm_forward", counting)
    _, sel = evaluate_protocol(iso_ckpt, dataset, "bss")
    picked = {name for name in sel.assignment.values() if name}
    assert picked
    # the validation slice with every source, then the test slice with the
    # selected ones, each a one-position sequence per source
    width = LM_SMALL.d_model
    assert calls == [(18 * len(iso_ckpt.source_order()), 1, width), (30 * len(picked), 1, width)]


def test_evaluate_rejects_wrong_pairing(iso_ckpt, dataset):
    with pytest.raises(ValueError):
        evaluate_protocol(iso_ckpt, dataset, "joint")


def test_predict_records_no_graph(joint_ckpt, dataset, monkeypatch):
    seen = []
    confidence_graph = pipeline._confidence_graph

    def spy(*args):
        phi = confidence_graph(*args)
        seen.append(phi.requires_grad)
        return phi

    monkeypatch.setattr(pipeline, "_confidence_graph", spy)
    predict(joint_ckpt, dataset, np.arange(10), "joint")
    assert seen == [False]


def test_the_feed_order_is_the_datasets_source_order(dataset, iso_ckpt):
    # a model feeds its sources in the order its dataset lists them, and
    # predicts the same on a dataset listing them in another order
    backwards = dataclasses.replace(dataset, source_specs=dataset.source_specs[::-1])
    ckpt = train(backwards, _cfg(mode="isolated", epochs=2))
    assert ckpt.source_order() == tuple(s.name for s in reversed(dataset.source_specs))
    idx = np.arange(dataset.n_records)
    for mode in ["iso-joint"] + [f"single:{name}" for name in ckpt.source_order()]:
        phi = predict(ckpt, backwards, idx, mode)[0]
        np.testing.assert_array_equal(phi, predict(ckpt, dataset, idx, mode)[0], err_msg=mode)
        # each source trains alone, so only the fused sequence sees the order
        same = np.array_equal(phi, predict(iso_ckpt, dataset, idx, mode)[0])
        assert same == mode.startswith("single:"), mode


# ---------------------------------------------------------------------------
# checkpoint persistence


def test_checkpoint_roundtrip_contract(joint_ckpt, dataset, tmp_path):
    save_checkpoint(joint_ckpt, tmp_path)
    first = load_checkpoint(tmp_path)
    second = load_checkpoint(tmp_path)
    assert first.config == joint_ckpt.config
    assert first.task_names == joint_ckpt.task_names
    assert first.history == joint_ckpt.history
    assert tuple(first.designated.indices) == tuple(joint_ckpt.designated.indices)

    idx = np.arange(40)
    phi1, yhat1 = predict(first, dataset, idx, "joint")
    phi2, _ = predict(second, dataset, idx, "joint")
    np.testing.assert_array_equal(phi1, phi2)    # two loads agree bitwise

    _, yhat0 = predict(joint_ckpt, dataset, idx, "joint")
    np.testing.assert_array_equal(yhat0, yhat1)  # decisions survive storage


def test_isolated_checkpoint_roundtrip(iso_ckpt, dataset, tmp_path):
    save_checkpoint(iso_ckpt, tmp_path)
    back = load_checkpoint(tmp_path)
    assert back.config.mode == "isolated"
    rows_a, sel_a = evaluate_protocol(iso_ckpt, dataset, "bss")
    rows_b, sel_b = evaluate_protocol(back, dataset, "bss")
    assert sel_a.assignment == sel_b.assignment
    assert [(m.tp, m.fp, m.fn, m.tn) for m in rows_a] == \
           [(m.tp, m.fp, m.fn, m.tn) for m in rows_b]


def test_reloaded_checkpoints_predict_exactly_as_in_memory(dataset, joint_ckpt, iso_ckpt,
                                                           raw_dataset, raw_ckpts, tmp_path):
    for ds, ckpts in ((dataset, (joint_ckpt, iso_ckpt)), (raw_dataset, raw_ckpts)):
        rows = np.arange(ds.n_records)
        for ckpt in ckpts:
            out = tmp_path / f"{ds.mode}-{ckpt.config.mode}"
            back = load_checkpoint(save_checkpoint(ckpt, out))
            fused = "joint" if ckpt.config.mode == "joint" else "iso-joint"
            for mode in [fused] + [f"single:{n}" for n in ckpt.source_order()]:
                assert np.array_equal(predict(back, ds, rows, mode)[0],
                                      predict(ckpt, ds, rows, mode)[0]), (ds.mode, mode)


@pytest.mark.parametrize("target", ["another checkpoint", "."])
def test_a_checkpoint_reads_its_weights_only_from_its_own_files(dataset, joint_ckpt, iso_ckpt,
                                                                tmp_path, target):
    # format 2 manifests named every parameter and stats file: an entry
    # into another checkpoint's directory was followed, and "." crashed
    save_checkpoint(joint_ckpt, tmp_path / "joint")
    iso = save_checkpoint(iso_ckpt, tmp_path / "iso")
    manifest = read_json(iso / "manifest")
    names = iso_ckpt.source_order()
    entry = (lambda fname: ".") if target == "." else (lambda fname: f"../joint/{fname}")
    manifest["params"] = {f"{n}.{p}": entry(f"param_{n}_{p}.bin")
                          for n in names for p in PARAM_NAMES}
    manifest["stats"] = {n: entry(f"stats_{n}.bin") for n in names}
    dump_json(iso / "manifest", manifest)
    rows = np.arange(dataset.n_records)
    np.testing.assert_array_equal(predict(load_checkpoint(iso), dataset, rows, "iso-joint")[0],
                                  predict(iso_ckpt, dataset, rows, "iso-joint")[0])


def test_checkpoint_load_rejects_garbage(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "missing")
    save_dir = tmp_path / "ck"
    save_dir.mkdir()
    (save_dir / "manifest").write_text('{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        load_checkpoint(save_dir)
