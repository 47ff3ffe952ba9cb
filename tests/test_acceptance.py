"""Release gate: ten numbered criteria, one test per criterion.

Each test prints a `criterion N: PASS` line with the measured quantity, so
`pytest -v tests/test_acceptance.py` gives one verdict line per criterion.
The heavyweight fixture trains the cross-modal comparison models once and is
shared by criteria 8 and 9.
"""

import json
import math
import statistics
import time

import numpy as np
import pytest

from riskfuse import autodiff as ad
from riskfuse import pipeline
from riskfuse.cli import EXIT_OK, main
from riskfuse.datagen import (TABLE1_COUNTS, build, planted_profile,
                              task_source_names)
from riskfuse.encoders import ts_features
from riskfuse.frozenlm import DesignatedVocab, LMConfig, draw_designated, init_frozen
from riskfuse.losses import ASLConfig, ClassWeights, class_weights, classification_loss_graph
from riskfuse.metrics import read_metrics_csv, write_metrics_csv, write_report
from riskfuse.pipeline import (TrainConfig, build_joint_loss, evaluate_protocol,
                               gradcheck_suite, split_by_patient, train)
from riskfuse.projector import PARAM_NAMES, ProjectorConfig, init_projector
from riskfuse.seeding import rng
from riskfuse.storage import load_dataset

from loss_oracle import asl_term, masked_multilabel_loss, projector_loss, wbce_term

# experiment settings for the cross-modal claim (criteria 8 and 9): identical
# budget for both arms; strong enough optimization that the joint model
# converges despite its per-source gradient being diluted by the sequence fuse
CLAIM_SEEDS = (0, 1, 2)
CLAIM_SETTINGS = dict(loss_kind="avg", epochs=20, batch_size=32,
                      learning_rate=5e-3, weight_decay=3e-4, beta=50.0)


@pytest.fixture(scope="module")
def claim_experiment():
    runs = {}
    t_wall, t_cpu = time.monotonic(), time.process_time()
    for seed in CLAIM_SEEDS:
        ds = build(planted_profile(n_records=2000, seed=seed))
        ck_j = train(ds, TrainConfig(mode="joint", seed=seed, **CLAIM_SETTINGS))
        ck_i = train(ds, TrainConfig(mode="isolated", seed=seed, **CLAIM_SETTINGS))
        runs[seed] = (ds, ck_j, ck_i)
    elapsed = {"wall": time.monotonic() - t_wall,
               "cpu": time.process_time() - t_cpu}
    return runs, elapsed


def test_criterion_01_gradient_fidelity():
    t0 = time.monotonic()
    report = gradcheck_suite(seed=0, tol=1e-4, h=1e-5)
    elapsed = time.monotonic() - t0
    assert report.passed, report.format()
    assert report.max_rel_err < 1e-4
    assert elapsed < 60.0
    print(f"criterion 1: PASS - joint-pipeline gradients match finite differences, "
          f"max rel err {report.max_rel_err:.2e} < 1e-4 in {elapsed:.1f}s")


def test_criterion_02_loss_oracles():
    tol = 1e-9
    checks = [
        ("wbce positive", wbce_term(1, 0.5, 2.0, 1.0), -2.0 * math.log(0.5)),
        ("wbce negative", wbce_term(0, 0.5, 2.0, 1.0), -math.log(0.5)),
        ("asl negative", asl_term(0, 0.55, ASLConfig(margin=0.05, gamma_neg=4.0)),
         -(0.5 ** 4) * math.log(0.5)),
        ("masked avg sum", masked_multilabel_loss(
            [1, 0], [0.5, 0.5], "avg",
            weights=ClassWeights(pos=[1.0, 1.0], neg=[1.0, 1.0])),
         -2.0 * math.log(0.5)),
        ("reconstruction", projector_loss(
            [1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [1], [0.5], 0.0, "asl"), 5.0),
        ("beta scaling", projector_loss(
            [1.0, 2.0], [1.0, 2.0], [1, 0], [0.7, 0.3], 10.0, "asl"),
         10.0 * masked_multilabel_loss([1, 0], [0.7, 0.3], "asl")),
    ]
    w1 = class_weights(np.array([[1], [0], [0], [0]]))
    checks += [("weights K=1 pos", w1.pos[0], 2.0),
               ("weights K=1 neg", w1.neg[0], 4.0 / 6.0)]
    col = np.array([1, 1, 0, 0, 0, 0, 0, -1])
    other = np.array([1, 0, 1, 0, 1, 0, 1, 0])
    w2 = class_weights(np.stack([col, other], axis=1))
    checks += [("weights K=2 pos", w2.pos[0], 7.0 / (2 * 2 * 2)),
               ("weights K=2 neg", w2.neg[0], 7.0 / (2 * 2 * 5))]
    for name, got, want in checks:
        assert abs(got - want) < tol, f"{name}: {got!r} vs {want!r}"
    print(f"criterion 2: PASS - {len(checks)} loss oracles reproduced within 1e-9")


def test_criterion_03_featurizer_oracles():
    cases = [
        ([1, 2, 4], [7 / 3, 14 / 9, 1, 4, 1.5, 1.5, 2, 3, 3, 0, 1.5]),
        ([3, 1, 5, 1], [2.5, 2.75, 1, 5, -2 / 3, 10 / 3, 4, 10, -2, 1, -0.2]),
        ([7], [7, 0, 7, 7, 0, 0, 0, 0, 0, 0, 0]),
    ]
    for series, expected in cases:
        np.testing.assert_allclose(ts_features(np.array(series, dtype=float)),
                                   np.array(expected, dtype=float),
                                   rtol=0, atol=1e-12, err_msg=str(series))
    print("criterion 3: PASS - all 3 summary-feature vectors reproduced within 1e-12")


def _masked_phi_case(case: int) -> None:
    """Unknown entries contribute nothing: zero confidence-gradient, and the
    loss equals the per-record scalar reference summed over known entries."""
    gen = rng(case, "mask-phi")
    B, K = 3, 4
    kind = "avg" if case % 2 == 0 else "asl"
    weights = ClassWeights(pos=gen.uniform(0.2, 2.0, K), neg=gen.uniform(0.2, 2.0, K))
    cls_loss = weights if kind == "avg" else ASLConfig()
    labels = gen.integers(-1, 2, size=(B, K))
    labels[0, 0] = 1                # at least one live entry
    labels[1, 1] = -1               # and at least one masked entry
    phi_val = gen.uniform(0.02, 0.98, size=(B, K))
    phi = ad.parameter(phi_val)
    params = ad.ParamSet({"phi": phi})

    def computation(_params=None):
        return classification_loss_graph(phi, labels, cls_loss).sum()

    loss = ad.eval_with_grads(computation, params)
    reference = sum(
        masked_multilabel_loss(labels[i], phi_val[i], kind,
                               weights=weights, asl=ASLConfig())
        for i in range(B))
    assert abs(loss - reference) < 1e-12
    grad = params["phi"].grad
    masked = labels == -1
    assert np.all(grad[masked] == 0.0)
    assert np.any(grad[~masked] != 0.0)


def _masked_task_case(case: int, flip_sanity: bool = False) -> None:
    """A fully masked task column exerts zero influence on the parameters:
    rerouting that task's readout must leave loss and all gradients
    bit-identical (and must NOT when the column is unmasked)."""
    gen = rng(case, "mask-task")
    lm = LMConfig(d_model=8, n_layers=1, n_heads=2, vocab=16, max_seq=4, seed=case)
    K, B = 3, 3
    dims = {"one": 4, "two": 5}
    projectors = {name: init_projector(ProjectorConfig(d, lm.d_model), case, name)
                  for name, d in dims.items()}
    frozen = init_frozen(lm)
    emb = {name: gen.standard_normal((B, d)) for name, d in dims.items()}
    labels = gen.integers(-1, 2, size=(B, K))
    kc = int(gen.integers(0, K))
    if flip_sanity:
        labels[0, kc] = 1
    else:
        labels[:, kc] = -1
    labels[0, (kc + 1) % K] = 1          # keep at least one live entry
    cls_loss = ClassWeights(pos=np.ones(K), neg=np.ones(K)) if case % 2 == 0 else ASLConfig()

    designated = draw_designated(lm.vocab, K, case)
    spare = next(i for i in range(lm.vocab) if i not in designated.indices)
    swapped_idx = list(designated.indices)
    swapped_idx[kc] = spare
    swapped = DesignatedVocab(indices=tuple(swapped_idx), seed=case)

    results = []
    for des in (designated, swapped):
        params = ad.ParamSet({f"{name}.{pname}": projectors[name].tensors[pname]
                              for name in dims for pname in PARAM_NAMES})
        computation = build_joint_loss([projectors], frozen, des,
                                       emb, labels, cls_loss, 10.0)
        loss = ad.eval_with_grads(computation, params)
        grads = {n: params[n].grad.copy() for n in params.names()}
        results.append((loss, grads))

    (loss_a, grads_a), (loss_b, grads_b) = results
    if flip_sanity:
        assert loss_a != loss_b          # live task: readout matters
        return
    assert loss_a == loss_b
    for n in grads_a:
        np.testing.assert_array_equal(grads_a[n], grads_b[n], err_msg=n)


def test_criterion_04_masking_is_inert():
    for case in range(25):
        _masked_phi_case(case)
    for case in range(25):
        _masked_task_case(case)
    _masked_task_case(99, flip_sanity=True)
    print("criterion 4: PASS - unknown labels left every loss value and gradient "
          "untouched across 50 random cases")


def test_criterion_05_frozen_backbone_contract():
    ds = build(planted_profile(n_records=300, seed=7))
    # a fresh draw, not the shared instance, which a write would move too
    reference = init_frozen.__wrapped__(LMConfig()).weights_hash()
    hashes = {}
    for mode in ("joint", "isolated"):
        ck = train(ds, TrainConfig(mode=mode, epochs=2, seed=7))
        hashes[mode] = ck.frozen.weights_hash()
        assert hashes[mode] == reference, mode
    print(f"criterion 5: PASS - backbone hash {reference[:12]}... unchanged by "
          f"2-epoch training in both modes")


def test_criterion_06_split_safety():
    patients = np.arange(100)
    sizes = []
    for seed in range(100):
        tr, te = split_by_patient(patients, 0.75, seed)
        assert not set(patients[tr]) & set(patients[te])
        assert tr.size + te.size == 100
        assert abs(tr.size - 75) <= 2
        sizes.append(tr.size)
    print(f"criterion 6: PASS - 100 seeds: zero patient overlap, train sizes "
          f"{min(sizes)}..{max(sizes)} within 75 +/- 2")


def test_criterion_07_table1_counts(tmp_path):
    out = tmp_path / "table1"
    assert main(["gen", "--profile", "table1", "--out", str(out)]) == EXIT_OK
    ds = load_dataset(out)
    assert ds.n_records == 90811
    got = {}
    for k, name in enumerate(ds.task_names):
        col = ds.labels[:, k]
        got[name] = (int(np.sum(col == 1)), int(np.sum(col == 0)))
    for name, pos, neg in TABLE1_COUNTS:
        assert got[name] == (pos, neg), name
    frac_pos, frac_neg = got["Fracture"]
    los_pos, los_neg = got["Length of stay"]
    assert round(frac_pos / frac_neg, 2) == 17.96
    assert round(los_pos / los_neg, 2) == 0.10
    print("criterion 7: PASS - all 12 (pos, neg) pairs exact over 90811 records; "
          "imbalance ratios 17.96 and 0.10")


def _recall_wins(ds, ck_j, ck_i) -> tuple[int, int]:
    rows_j, _ = evaluate_protocol(ck_j, ds, "joint")
    names = ck_i.source_order()
    per_source = {nm: evaluate_protocol(ck_i, ds, f"single:{nm}")[0] for nm in names}
    cfg = planted_profile(n_records=ds.n_records, seed=ds.seed)
    wins = n_multi = 0
    for k, task in enumerate(cfg.tasks):
        if len(task_source_names(task)) < 2:
            continue
        n_multi += 1
        best = max(per_source[nm][k].recall for nm in names)
        wins += rows_j[k].recall > best
    return wins, n_multi


def test_criterion_08_joint_beats_best_single_source(claim_experiment):
    runs, elapsed = claim_experiment
    assert elapsed["cpu"] <= 600.0, f"experiment used {elapsed['cpu']:.0f}s CPU"
    wins, totals = [], set()
    for seed in CLAIM_SEEDS:
        w, n_multi = _recall_wins(*runs[seed])
        wins.append(w)
        totals.add(n_multi)
    (n_multi,) = totals
    need = math.ceil(n_multi * 2 / 3)
    med = statistics.median(wins)
    assert med >= need, f"wins per seed {wins}, need median >= {need} of {n_multi}"
    print(f"criterion 8: PASS - joint recall beat the best single source on "
          f"{wins} of {n_multi} multi-source tasks (median {med:g} >= {need}) "
          f"in {elapsed['cpu']:.0f}s CPU")


def test_criterion_09_protocol_parity(claim_experiment, tmp_path):
    runs, _ = claim_experiment
    ds, ck_j, ck_i = runs[CLAIM_SEEDS[0]]
    protocol_rows = [
        ("joint", evaluate_protocol(ck_j, ds, "joint")),
        ("iso-joint", evaluate_protocol(ck_i, ds, "iso-joint")),
        ("bss", evaluate_protocol(ck_i, ds, "bss")),
    ]
    merged = []
    for name, (rows, selection) in protocol_rows:
        assert [m.task for m in rows] == list(ds.task_names)
        if name == "bss":
            assert selection is not None
        csv_path = tmp_path / f"{name}.csv"
        write_metrics_csv(csv_path, name, rows)
        merged.append((name, read_metrics_csv(csv_path)))
    report = tmp_path / "report.csv"
    write_report(report, merged)
    lines = report.read_text().strip().splitlines()
    assert lines[0].count("_precision") == 3 and lines[0].count("_recall") == 3
    assert len(lines) == 1 + len(ds.task_names)
    assert (tmp_path / "report.csv.txt").exists()
    print("criterion 9: PASS - joint, iso-joint, and best-single-source protocols "
          "all evaluated and merged into one comparison table")


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({
        "lm": {"d_model": 48, "n_layers": 2, "n_heads": 2, "vocab": 32,
               "max_seq": 8, "seed": 0},
        "epochs": 2, "seed": 1}))
    outputs = []
    for label in ("first", "second"):
        root = tmp_path / label
        data, ckpt, csv_path = root / "data", root / "ckpt", root / "metrics.csv"
        assert main(["gen", "--profile", "planted", "--n-records", "100",
                     "--seed", "6", "--out", str(data)]) == EXIT_OK
        assert main(["train", "--data", str(data), "--out", str(ckpt),
                     "--config", str(cfg)]) == EXIT_OK
        assert main(["eval", "--data", str(data), "--ckpt", str(ckpt),
                     "--protocol", "joint", "--out", str(csv_path)]) == EXIT_OK
        outputs.append(csv_path.read_bytes())
    assert outputs[0] == outputs[1]
    print("criterion 10: PASS - identical-seed gen+train+eval runs produced "
          "byte-identical metrics files")
