"""Metric arithmetic against hand counts, CSV roundtrips, and the merged
report table."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from riskfuse.metrics import (TABLE_TASK_ORDER, TaskMetrics, f1_score, metrics_for_run,
                              precision_recall, read_metrics_csv, render_report,
                              write_metrics_csv, write_report)

# one column each of tp, fp, fn, tn, plus two unknowns that must not count
PRED = np.array([1, 1, 0, 0, 1, 0])
TRUE = np.array([1, 0, 1, 0, -1, -1])


def _counts(m: TaskMetrics) -> tuple[int, int, int, int]:
    return m.tp, m.fp, m.fn, m.tn


def test_precision_recall_hand_count():
    assert _counts(precision_recall(PRED, TRUE)) == (1, 1, 1, 1)


def test_precision_recall_ignores_unknown_rows():
    assert _counts(precision_recall([1, 0], [-1, -1])) == (0, 0, 0, 0)


def test_precision_recall_shape_mismatch():
    with pytest.raises(ValueError):
        precision_recall([1, 0, 1], [1, 0])


def test_precision_recall_hand_values():
    m = precision_recall(PRED, TRUE, task="demo")
    assert m.task == "demo"
    assert (m.tp, m.fp, m.fn, m.tn) == (1, 1, 1, 1)
    assert m.precision == pytest.approx(0.5)
    assert m.recall == pytest.approx(0.5)
    assert m.n_labeled == 4
    assert not m.degenerate


def test_degenerate_when_nothing_predicted_positive():
    m = precision_recall([0, 0, 0], [1, 0, 1])
    assert m.degenerate and m.precision == 0.0 and m.recall == 0.0
    assert m.n_labeled == 3


def test_degenerate_when_no_true_positives_exist():
    m = precision_recall([1, 1], [0, 0])
    assert m.degenerate
    assert m.precision == 0.0


def test_f1_hand_value():
    m = precision_recall([1, 1, 1, 0], [1, 0, 1, 1])
    # precision 2/3, recall 2/3
    assert f1_score(m) == pytest.approx(2 / 3)
    assert f1_score(precision_recall([0], [0])) == 0.0


def test_metrics_for_run_column_order():
    pred = np.array([[1, 0], [0, 1], [1, 1]])
    true = np.array([[1, 1], [0, -1], [0, 1]])
    rows = metrics_for_run(pred, true, ("a", "b"))
    assert [m.task for m in rows] == ["a", "b"]
    assert (rows[0].tp, rows[0].fp) == (1, 1)
    assert (rows[1].tp, rows[1].fn) == (1, 1)
    with pytest.raises(ValueError):
        metrics_for_run(pred, true, ("a",))
    with pytest.raises(ValueError):
        metrics_for_run(pred[:2], true, ("a", "b"))


def _scored_column_by_column(pred, true, task_names) -> list[TaskMetrics]:
    """The reference for `metrics_for_run`: each task counted on its own,
    over its labeled rows only."""
    rows = []
    for k, name in enumerate(task_names):
        p, t = pred[:, k].astype(np.int64), true[:, k].astype(np.int64)
        p, t = p[t != -1], t[t != -1]
        tp, fp = int(np.sum((p == 1) & (t == 1))), int(np.sum((p == 1) & (t == 0)))
        fn, tn = int(np.sum((p == 0) & (t == 1))), int(np.sum((p == 0) & (t == 0)))
        rows.append(TaskMetrics(task=name, tp=tp, fp=fp, fn=fn, tn=tn,
                                precision=tp / (tp + fp) if tp + fp else 0.0,
                                recall=tp / (tp + fn) if tp + fn else 0.0,
                                n_labeled=tp + fp + fn + tn,
                                degenerate=tp + fp == 0 or tp + fn == 0))
    return rows


@given(st.integers(0, 40), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_metrics_for_run_counts_every_task_as_a_per_column_loop(n_records, n_tasks, seed):
    gen = np.random.default_rng(seed)
    # predictions that are not exactly 0 or 1 count in no cell once read as int64
    pred = gen.choice([0.0, 1.0, 0.7, 2.0, -1.0], size=(n_records, n_tasks),
                      p=[0.4, 0.4, 0.1, 0.05, 0.05])
    true = gen.integers(0, 2, size=(n_records, n_tasks))
    # each task has its own share of unknown labels, from none to all
    true[gen.random((n_records, n_tasks)) < gen.random(n_tasks)] = -1
    names = [f"t{k}" for k in range(n_tasks)]
    assert metrics_for_run(pred, true, names) == _scored_column_by_column(pred, true, names)


def test_csv_roundtrip(tmp_path):
    rows = metrics_for_run(np.array([[1], [0], [1]]), np.array([[1], [1], [0]]), ("t",))
    path = tmp_path / "m.csv"
    write_metrics_csv(path, "joint", rows)
    back = read_metrics_csv(path)
    assert back == [{"task": "t", "run": "joint",
                     "precision": rows[0].precision, "recall": rows[0].recall}]


def test_csv_precision_survives_exactly(tmp_path):
    # repr() serialization keeps the full float, not a rounded rendering
    m = TaskMetrics(task="x", tp=1, fp=2, fn=0, tn=0, precision=1 / 3,
                    recall=1.0, n_labeled=3, degenerate=False)
    path = tmp_path / "m.csv"
    write_metrics_csv(path, "r", [m])
    assert read_metrics_csv(path)[0]["precision"] == 1 / 3


def test_csv_rejects_foreign_files(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_metrics_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("task,run,precision,recall,tp,fp,fn,tn,n_labeled,degenerate\n")
    with pytest.raises(ValueError):
        read_metrics_csv(empty)


def _rows(tasks, p, r):
    return [{"task": t, "run": "", "precision": p, "recall": r} for t in tasks]


def test_render_report_merges_runs():
    runs = [("joint", _rows(["a", "b"], 0.5, 0.25)),
            ("bss", _rows(["b", "a"], 0.75, 1.0))]
    csv_text, aligned = render_report(runs)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "task,joint_precision,joint_recall,bss_precision,bss_recall"
    assert lines[1] == "a,0.500,0.250,0.750,1.000"
    assert lines[2] == "b,0.500,0.250,0.750,1.000"
    assert aligned.splitlines()[0].split() == [
        "task", "joint", "prec", "joint", "rec", "bss", "prec", "bss", "rec"]
    assert "0.500" in aligned and "1.000" in aligned


def test_render_report_uses_canonical_task_order():
    shuffled = list(TABLE_TASK_ORDER)[::-1]
    csv_text, _ = render_report([("run", _rows(shuffled, 0.1, 0.2))])
    body = [line.split(",")[0] for line in csv_text.strip().splitlines()[1:]]
    assert body == list(TABLE_TASK_ORDER)


def test_render_report_rejects_mismatched_tasks():
    with pytest.raises(ValueError):
        render_report([("a", _rows(["x"], 0.5, 0.5)),
                       ("b", _rows(["y"], 0.5, 0.5))])
    with pytest.raises(ValueError):
        render_report([])


def test_render_report_rejects_a_repeated_run_name():
    with pytest.raises(ValueError, match="run name 'a' is given more than once"):
        render_report([("a", _rows(["x"], 0.5, 0.5)), ("b", _rows(["x"], 0.5, 0.5)),
                       ("a", _rows(["x"], 0.1, 0.2))])


PINNED_CSV = (
    "task,a_precision,a_recall,joint_avg_precision,joint_avg_recall\r\n"
    "Fracture,0.917,0.154,0.000,1.000\r\n"
    "Lung Lesion,0.833,0.231,0.636,0.000\r\n"
    "Enlarged CM,0.750,0.308,0.182,0.000\r\n"
    "Consolidation,0.667,0.385,0.818,1.000\r\n"
    "Pneumonia,0.583,0.462,0.364,0.000\r\n"
    "Atelectasis,0.500,0.538,1.000,0.000\r\n"
    "Lung Opacity,0.417,0.615,0.545,1.000\r\n"
    "Pneumothorax,0.333,0.692,0.091,0.000\r\n"
    "Edema,0.250,0.769,0.727,0.000\r\n"
    "Cardiomegaly,0.167,0.846,0.273,1.000\r\n"
    "Length of stay,0.083,0.923,0.909,0.000\r\n"
    "48h Mortality,0.000,1.000,0.455,0.000\r\n")

PINNED_ALIGNED = (
    "task            a prec   a rec  joint_avg prec  joint_avg rec\n"
    "Fracture         0.917   0.154           0.000          1.000\n"
    "Lung Lesion      0.833   0.231           0.636          0.000\n"
    "Enlarged CM      0.750   0.308           0.182          0.000\n"
    "Consolidation    0.667   0.385           0.818          1.000\n"
    "Pneumonia        0.583   0.462           0.364          0.000\n"
    "Atelectasis      0.500   0.538           1.000          0.000\n"
    "Lung Opacity     0.417   0.615           0.545          1.000\n"
    "Pneumothorax     0.333   0.692           0.091          0.000\n"
    "Edema            0.250   0.769           0.727          0.000\n"
    "Cardiomegaly     0.167   0.846           0.273          1.000\n"
    "Length of stay   0.083   0.923           0.909          0.000\n"
    "48h Mortality    0.000   1.000           0.455          0.000\n")


def test_render_report_bytes_are_pinned():
    # a run name under 6 characters (its columns pad to 6), a longer one, a
    # task name longer than "task", and the 12 tasks given out of order
    tasks = list(TABLE_TASK_ORDER)
    short = [{"task": t, "run": "", "precision": i / 12, "recall": 1 - i / 13}
             for i, t in enumerate(reversed(tasks))]
    long = [{"task": t, "run": "", "precision": (i * 7 % 12) / 11,
             "recall": 0.0 if i % 3 else 1.0} for i, t in enumerate(tasks)]
    assert render_report([("a", short), ("joint_avg", long)]) == (PINNED_CSV, PINNED_ALIGNED)


def test_write_report_emits_csv_and_aligned_twin(tmp_path):
    out = tmp_path / "report.csv"
    aligned = write_report(out, [("solo", _rows(["a"], 0.5, 0.5))])
    assert out.read_text().startswith("task,solo_precision,solo_recall")
    twin = tmp_path / "report.csv.txt"
    assert twin.read_text() == aligned
    assert aligned.endswith("\n")


@given(st.lists(st.tuples(st.integers(0, 1), st.sampled_from([-1, 0, 1])),
                min_size=1, max_size=60))
def test_counts_partition_the_labeled_rows(pairs):
    pred = np.array([p for p, _ in pairs])
    true = np.array([t for _, t in pairs])
    m = precision_recall(pred, true)
    assert m.tp + m.fp + m.fn + m.tn == int(np.sum(true != -1)) == m.n_labeled
    assert 0.0 <= m.precision <= 1.0 and 0.0 <= m.recall <= 1.0


@given(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20))
def test_f1_between_precision_and_recall(tp, fp, fn):
    pred = np.array([1] * (tp + fp) + [0] * fn)
    true = np.array([1] * tp + [0] * fp + [1] * fn)
    m = precision_recall(pred, true)
    f1 = f1_score(m)
    if m.precision > 0 and m.recall > 0:
        # harmonic mean sits between the two rates, up to float rounding
        assert min(m.precision, m.recall) - 1e-12 <= f1 <= max(m.precision, m.recall) + 1e-12
    else:
        assert f1 == 0.0
