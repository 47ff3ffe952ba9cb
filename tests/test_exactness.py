"""Bit-exactness against a recorded golden.

`exactness_golden.json` holds what a 2-epoch run on a planted cohort of 120
records produces, for latent and raw payloads, joint and isolated training
and both loss kinds: per-epoch histories, `predict` confidences in every
mode, the `bss` selection of isolated runs, and the `gradcheck_suite`
report text. Everything is compared with ==, so a change that claims to keep
the numerics exact (a faster autodiff, a cheaper featurizer) is checked bit
for bit.

Only a deliberate numeric change may re-record the golden:

    PYTHONPATH=src python tests/test_exactness.py

which prints, before it writes, one line per run saying what moved (the
history groups with their largest |Δ|, the predict modes whose digest
changed, any changed `bss` assignment) and whether the gradcheck text
changed. The change must say why the numbers moved.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from riskfuse import pipeline
from riskfuse.datagen import build, planted_profile
from riskfuse.pipeline import TrainConfig

GOLDEN = Path(__file__).with_name("exactness_golden.json")
RUNS = tuple(f"{data}-{mode}-{loss}" for data in ("latent", "raw")
             for mode in ("joint", "isolated") for loss in ("avg", "asl"))
HEAD_ROWS = 2  # confidences kept verbatim, for a readable diff; the rest by digest


def _confidences(phi: np.ndarray) -> dict:
    return {"head": phi[:HEAD_ROWS].tolist(),
            "sha256": hashlib.sha256(np.ascontiguousarray(phi).tobytes()).hexdigest()}


def run_snapshot(run: str) -> dict:
    data, mode, loss = run.split("-")
    ds = build(planted_profile(n_records=120, seed=5, mode=data))
    ckpt = pipeline.train(ds, TrainConfig(mode=mode, loss_kind=loss, epochs=2, seed=1))
    rows = np.arange(ds.n_records)
    modes = ["joint" if mode == "joint" else "iso-joint"]
    modes += [f"single:{name}" for name in ckpt.source_order()]
    snap = {"history": ckpt.history,
            "predict": {m: _confidences(pipeline.predict(ckpt, ds, rows, m)[0])
                        for m in modes}}
    if mode == "isolated":
        snap["bss"] = pipeline.evaluate_protocol(ckpt, ds, "bss")[1].assignment
    return snap


def gradcheck_snapshot() -> str:
    return pipeline.gradcheck_suite(seed=0).format()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("run", RUNS)
def test_run_matches_golden(golden, run):
    # a JSON round trip turns tuples into lists and keeps floats exact
    assert json.loads(json.dumps(run_snapshot(run))) == golden["runs"][run]


def test_gradcheck_report_matches_golden(golden):
    assert gradcheck_snapshot() == golden["gradcheck"]


def moved(old: dict, new: dict) -> str:
    """What moved from the recorded snapshot `old` of a run to `new`."""
    parts = []
    for group, losses in new["history"].items():
        before = old.get("history", {}).get(group, [])
        if losses != before:
            delta = max((abs(a - b) for a, b in zip(losses, before)), default=float("nan"))
            parts.append(f"history {group} max |Δ| {delta:.3g}")
    digests = {m: c["sha256"] for m, c in old.get("predict", {}).items()}
    modes = [m for m, c in new["predict"].items() if c["sha256"] != digests.get(m)]
    if modes:
        parts.append(f"predict {', '.join(modes)}")
    bss = old.get("bss", {})
    picks = [f"{task} {bss.get(task)} -> {source}"
             for task, source in new.get("bss", {}).items() if source != bss.get(task)]
    if picks:
        parts.append(f"bss {', '.join(picks)}")
    return "; ".join(parts) or "unchanged"


if __name__ == "__main__":
    record = json.loads(json.dumps({"runs": {run: run_snapshot(run) for run in RUNS},
                                    "gradcheck": gradcheck_snapshot()}))
    old = json.loads(GOLDEN.read_text())
    for run in RUNS:
        print(f"{run}: {moved(old['runs'].get(run, {}), record['runs'][run])}")
    same = record["gradcheck"] == old["gradcheck"]
    print(f"gradcheck text: {'unchanged' if same else 'changed'}")
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
