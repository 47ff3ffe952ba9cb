"""Per-task precision/recall over labeled records, CSV output, reports.

`metrics_for_run` counts tp, fp, fn and tn for every task of a (records,
tasks) matrix in one pass; `precision_recall` is its one-column case.
Unknown labels (-1) are excluded from every count. Zero-denominator cases
return 0.0 and set the degenerate flag rather than raising, since heavily
imbalanced evaluation splits hit them routinely.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "TaskMetrics",
    "precision_recall",
    "f1_score",
    "metrics_for_run",
    "write_metrics_csv",
    "read_metrics_csv",
    "render_report",
    "write_report",
    "TABLE_TASK_ORDER",
]

CSV_COLUMNS = ("task", "run", "precision", "recall", "tp", "fp", "fn", "tn",
               "n_labeled", "degenerate")

# canonical presentation order for the reference task set
TABLE_TASK_ORDER = (
    "Fracture", "Lung Lesion", "Enlarged CM", "Consolidation", "Pneumonia",
    "Atelectasis", "Lung Opacity", "Pneumothorax", "Edema", "Cardiomegaly",
    "Length of stay", "48h Mortality",
)


@dataclass
class TaskMetrics:
    task: str
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    n_labeled: int
    degenerate: bool


def precision_recall(y_pred, y_true, task: str = "") -> TaskMetrics:
    """One task's scores over two arrays of one shape: the one-column case
    of `metrics_for_run`."""
    pred, true = np.asarray(y_pred), np.asarray(y_true)
    if pred.shape != true.shape:
        raise ValueError(f"prediction shape {pred.shape} does not match labels {true.shape}")
    return metrics_for_run(pred.reshape(-1, 1), true.reshape(-1, 1), (task,))[0]


def f1_score(m: TaskMetrics) -> float:
    if m.precision + m.recall == 0.0:
        return 0.0
    return 2.0 * m.precision * m.recall / (m.precision + m.recall)


def metrics_for_run(y_pred, labels, task_names) -> list[TaskMetrics]:
    """Per-task scores of a (records, tasks) prediction matrix against its
    labels, both cast to int64 and counted for every task at once."""
    pred, true = np.asarray(y_pred), np.asarray(labels)
    if pred.shape != true.shape or pred.ndim != 2:
        raise ValueError("need matching (records, tasks) prediction and label matrices")
    if pred.shape[1] != len(task_names):
        raise ValueError("task name count does not match the matrices")
    pred, true = pred.astype(np.int64), true.astype(np.int64)
    # every cell needs a label of 1 or 0, so none counts an unknown one
    pos, neg = pred == 1, pred == 0
    cells = [np.count_nonzero(p & (true == t), axis=0).tolist()
             for p, t in ((pos, 1), (pos, 0), (neg, 1), (neg, 0))]
    return [TaskMetrics(task=name, tp=tp, fp=fp, fn=fn, tn=tn,
                        precision=tp / (tp + fp) if tp + fp else 0.0,
                        recall=tp / (tp + fn) if tp + fn else 0.0,
                        n_labeled=tp + fp + fn + tn,
                        degenerate=(tp + fp == 0) or (tp + fn == 0))
            for name, tp, fp, fn, tn in zip(task_names, *cells)]


def write_metrics_csv(path, run: str, metrics: list[TaskMetrics]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for m in metrics:
            writer.writerow([m.task, run, repr(m.precision), repr(m.recall),
                             m.tp, m.fp, m.fn, m.tn, m.n_labeled, int(m.degenerate)])


def read_metrics_csv(path) -> list[dict]:
    """Task, run, precision and recall of each row of a metrics CSV. Refuses,
    naming the file and line, a row of the wrong length, a precision or
    recall that is not a number in [0, 1], and a task listed twice."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        lines = [(reader.line_num, cells) for cells in reader]
    except csv.Error as err:
        raise ValueError(f"{path}: line {reader.line_num}: {err}") from None
    header = lines[0][1] if lines else None
    if header is None or tuple(header) != CSV_COLUMNS:
        raise ValueError(f"{path}: unexpected metrics columns {header}")
    rows, line_of = [], {}
    for number, cells in lines[1:]:
        if not cells:  # a blank line
            continue
        where = f"{path}: line {number}"
        if len(cells) != len(CSV_COLUMNS):
            raise ValueError(f"{where}: {len(cells)} fields, expected {len(CSV_COLUMNS)}")
        row = dict(zip(("task", "run"), cells))
        for key, value in zip(("precision", "recall"), cells[2:4]):
            try:
                row[key] = float(value)
            except ValueError:
                row[key] = float("nan")  # refused below, as a NaN is
            if not 0.0 <= row[key] <= 1.0:
                raise ValueError(f"{where}: {key} {value!r} is not a number in [0, 1]")
        if row["task"] in line_of:
            raise ValueError(f"{where}: task {row['task']!r} is already on line "
                             f"{line_of[row['task']]}")
        line_of[row["task"]] = number
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty metrics file")
    return rows


def _ordered_tasks(tasks: list[str]) -> list[str]:
    if set(tasks) == set(TABLE_TASK_ORDER):
        return list(TABLE_TASK_ORDER)
    return tasks


def render_report(runs: list[tuple[str, list[dict]]]) -> tuple[str, str]:
    """Merge runs into one table: rows are tasks, each run contributes a
    precision and a recall column, values at 3 decimals. Returns (csv_text,
    aligned_text); every run must cover the same task list, under a name no
    other run has.
    """
    if not runs:
        raise ValueError("no runs to report")
    run_names = [name for name, _ in runs]
    for i, name in enumerate(run_names):
        if name in run_names[:i]:
            raise ValueError(f"run name {name!r} is given more than once")
    base_tasks = [r["task"] for r in runs[0][1]]
    table: dict[str, dict[str, tuple[float, float]]] = {t: {} for t in base_tasks}
    for run_name, rows in runs:
        tasks = [r["task"] for r in rows]
        if sorted(tasks) != sorted(base_tasks):
            raise ValueError(
                f"run {run_name!r} covers tasks {sorted(tasks)}, expected {sorted(base_tasks)}")
        for r in rows:
            table[r["task"]][run_name] = (r["precision"], r["recall"])
    # one table of cells; each column's header is a (CSV, aligned) pair
    header = [("task", "task")]
    for name in run_names:
        header += [(f"{name}_precision", f"{name} prec"), (f"{name}_recall", f"{name} rec")]
    body = [[task] + [f"{value:.3f}" for name in run_names for value in table[task][name]]
            for task in _ordered_tasks(base_tasks)]

    buf = io.StringIO()
    csv.writer(buf).writerows([[label for label, _ in header]] + body)
    text = [[label for _, label in header]] + body
    widths = [max(len(row[0]) for row in text)] + [max(len(label), 6) for label in text[0][1:]]
    lines = ["  ".join([row[0].ljust(widths[0])]
                       + [cell.rjust(width) for cell, width in zip(row[1:], widths[1:])])
             for row in text]
    return buf.getvalue(), "\n".join(lines) + "\n"


def write_report(out_path, runs: list[tuple[str, list[dict]]]) -> str:
    """Write the CSV table to out_path and its aligned twin next to it."""
    csv_text, aligned = render_report(runs)
    out = Path(out_path)
    out.write_text(csv_text)
    out.with_suffix(out.suffix + ".txt").write_text(aligned)
    return aligned
