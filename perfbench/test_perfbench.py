"""Self-tests of the benchmark on tiny sizes of each workload.

Run from the repository root: python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
from riskfuse import datagen  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# small enough to run each workload in a few seconds, large enough that
# every protocol has labeled validation and test records
TINY = {"isolated-latent": 120, "raw-eval": 60}


def tiny_run(name, trace, seed=3):
    wl = replace(bench.WORKLOADS[name], n_records=TINY[name], predict_reps=1)
    return bench.run(name, seed, 0.0, trace, ROOT, wl=wl, setup_reps=1, min_cycles=1)


@pytest.fixture(scope="module")
def runs():
    return {(name, trace): tiny_run(name, trace)
            for name in bench.WORKLOADS for trace in (False, True)}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_a_unit(runs, name, trace):
    result = runs[(name, trace)]
    assert result["failed"] == 0, result["failures"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for m in wanted:
        assert m["unit"]
        value = result["metrics"].get(m["name"])
        assert isinstance(value, (int, float)) and np.isfinite(value), m["name"]


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_tracing_leaves_the_arithmetic_alone(runs, name):
    plain, traced = runs[(name, False)]["histories"], runs[(name, True)]["histories"]
    assert None not in plain and plain == traced


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_seed_argument_changes_the_data(name):
    wl = replace(bench.WORKLOADS[name], n_records=TINY[name])
    one, two = (bench.cohort_seeds(seed) for seed in (1, 2))
    assert not set(one) & set(two)
    a, b = (datagen.build(bench.cohort_config(wl, seeds[0])) for seeds in (one, two))
    assert not np.array_equal(a.labels, b.labels)


def test_exits_nonzero_without_riskfuse_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "isolated-latent", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert out.stdout == ""


def test_reference_check_fails_on_changed_confidences(tmp_path, monkeypatch):
    ref = json.loads(bench.REFERENCE.read_text())
    ref["latent"][0][0] += 10 * bench.REFERENCE_ATOL
    shifted = tmp_path / "reference.json"
    shifted.write_text(json.dumps(ref))
    monkeypatch.setattr(bench, "REFERENCE", shifted)
    fails = bench.Failures()
    bench.check_reference(bench.WORKLOADS["isolated-latent"], tmp_path, fails)
    assert (fails.attempted, fails.failed) == (1, 1)
