"""Generator tests: threshold calibration, exact-count assignment, patient
correlation, payload structure, determinism, and profile invariants."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskfuse import seeding
from riskfuse.datagen import (LATENT_DIM, NOISE_STD, OBSERVED, SOURCES, GenConfig,
                              TABLE1_COUNTS, TABLE1_TOTAL, TaskSpec, _assign_labels, build,
                              planted_profile, summarize, table1_profile, task_source_names,
                              threshold_for)
from riskfuse.losses import UNKNOWN


def _direction(*coords):
    """Unit weights on the given latent coordinates."""
    return tuple(1.0 if c in coords else 0.0 for c in range(LATENT_DIM))


XR_AXR = _direction(0, 2)   # one coordinate seen by xr, one by axr


def _tiny_cfg(**kw):
    defaults = dict(tasks=(TaskSpec("t0", XR_AXR, 0.3),), n_records=60, mode="latent", seed=0)
    defaults.update(kw)
    return GenConfig(**defaults)


def _observed_latents(ds, name):
    """Least-squares estimate of the latent coordinates a latent source
    observes, from its payload and its mixing map."""
    spec = ds.spec(name)
    k = len(OBSERVED[name])
    mix = seeding.rng(ds.seed, "mixmap", spec.source_id).normal(
        0.0, 1.0 / np.sqrt(k), size=(spec.dim, k))
    (embeddings,) = ds.payloads[name]
    latents = np.linalg.lstsq(mix, embeddings.T, rcond=None)[0].T
    return latents, embeddings - latents @ mix.T


# ---------------------------------------------------------------------------
# thresholds and labels


def test_threshold_hits_requested_rate():
    # P(a.z > tau) should be p; check against a large Monte Carlo draw
    gen = np.random.default_rng(0)
    a = np.array([1.0, -2.0, 0.5])
    for p in (0.1, 0.3, 0.5):
        tau = threshold_for(a, p)
        z = gen.standard_normal((200_000, 3))
        rate = float(np.mean(z @ a > tau))
        assert rate == pytest.approx(p, abs=0.01)


def test_threshold_at_half_is_zero():
    assert threshold_for(np.array([2.0, 1.0]), 0.5) == pytest.approx(0.0, abs=1e-12)


def test_threshold_scales_with_direction_norm():
    t1 = threshold_for(np.array([1.0, 0.0]), 0.2)
    t2 = threshold_for(np.array([3.0, 0.0]), 0.2)
    assert t2 == pytest.approx(3.0 * t1, rel=1e-12)


def test_planted_labels_oracle():
    # a task is positive exactly where its score a . z exceeds tau
    cfg = _tiny_cfg(tasks=(TaskSpec("t0", XR_AXR, 0.5),
                           TaskSpec("t1", _direction(1, 3), 0.3)))
    tau1 = threshold_for(_direction(1, 3), 0.3)
    scores = np.array([[0.1, tau1 + 1e-9], [-0.1, tau1], [-0.5, tau1 - 1.0]])
    got = _assign_labels(cfg, scores, np.random.default_rng(0))
    np.testing.assert_array_equal(got, [[1, 1], [0, 0], [0, 0]])


# ---------------------------------------------------------------------------
# building datasets


def test_build_is_deterministic_per_seed():
    a = build(_tiny_cfg(seed=5))
    b = build(_tiny_cfg(seed=5))
    c = build(_tiny_cfg(seed=6))
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.patients, b.patients)
    np.testing.assert_array_equal(a.payloads["xr"][0], b.payloads["xr"][0])
    assert not np.array_equal(a.payloads["xr"][0], c.payloads["xr"][0])


def test_n_records_mode_hits_exact_total():
    ds = build(_tiny_cfg(n_records=57))
    assert ds.n_records == 57
    assert ds.labels.shape == (57, 1)


def test_patients_are_contiguous_blocks():
    ds = build(_tiny_cfg(seed=2))
    # geometric stays are emitted patient by patient
    changes = np.flatnonzero(np.diff(ds.patients))
    assert np.all(np.diff(ds.patients)[changes] == 1)


def test_latent_payload_is_linear_view_plus_noise():
    # each payload is its mixing map applied to the coordinates the source
    # observes, plus noise of std NOISE_STD: the residual of a least-squares
    # fit through the mixing map is that noise, less the k fitted directions
    ds = build(_tiny_cfg(n_records=400, seed=3))
    for s in SOURCES:
        latents, residual = _observed_latents(ds, s.name)
        k = len(OBSERVED[s.name])
        assert latents.std() == pytest.approx(1.0, abs=0.15), s.name
        assert residual.std() == pytest.approx(NOISE_STD * np.sqrt((s.dim - k) / s.dim),
                                               rel=0.1), s.name


def test_exact_count_assignment_respects_ranks():
    tasks = (TaskSpec("t0", XR_AXR, 0.3, exact_counts=(5, 10)),)
    ds = build(_tiny_cfg(tasks=tasks, n_records=40))
    col = ds.labels[:, 0]
    assert int(np.sum(col == 1)) == 5
    assert int(np.sum(col == 0)) == 10
    assert int(np.sum(col == UNKNOWN)) == 25


def test_exact_count_positives_are_top_scores():
    tasks = (TaskSpec("t0", XR_AXR, 0.3, exact_counts=(6, 8)),)
    ds = build(_tiny_cfg(tasks=tasks, n_records=30, seed=9))
    # the score a . z = z0 + z2, read back from the xr and axr payloads up to
    # their noise; the 16 unknowns between the bands keep them well apart
    scores = _observed_latents(ds, "xr")[0][:, 0] + _observed_latents(ds, "axr")[0][:, 0]
    col = ds.labels[:, 0]
    assert scores[col == 1].min() > scores[col == UNKNOWN].max() - 0.1
    assert scores[col == UNKNOWN].min() > scores[col == 0].max() - 0.1
    assert scores[col == 1].min() > scores[col == 0].max() + 0.5


def test_missing_rate_masks_roughly_that_fraction():
    tasks = (TaskSpec("t0", XR_AXR, 0.3, missing_rate=0.25),)
    ds = build(_tiny_cfg(tasks=tasks, n_records=4000, seed=1))
    frac = float(np.mean(ds.labels[:, 0] == UNKNOWN))
    assert frac == pytest.approx(0.25, abs=0.03)


def test_patient_correlation_is_positive():
    # latents correlate by PATIENT_CORR across one patient's stays
    ds = build(_tiny_cfg(n_records=6000, stay_p=0.4, seed=4))
    (e,) = ds.payloads["xr"]
    # adjacent same-patient rows should correlate; adjacent cross-patient not
    same, diff = [], []
    for i in range(ds.n_records - 1):
        dot = float(e[i] @ e[i + 1]) / (np.linalg.norm(e[i]) * np.linalg.norm(e[i + 1]))
        (same if ds.patients[i] == ds.patients[i + 1] else diff).append(dot)
    assert np.mean(same) > np.mean(diff) + 0.1


def test_raw_mode_payload_structure():
    ds = build(_tiny_cfg(mode="raw", n_records=25))
    assert ds.mode == "raw"
    counts, times, vectors = ds.payloads["xr"]
    assert counts.shape == (25,) and counts.dtype == np.int64
    assert np.all((1 <= counts) & (counts <= 4))
    assert times.shape == (counts.sum(),) and vectors.shape == (counts.sum(), 16)
    for record in np.split(times, np.cumsum(counts)[:-1]):
        assert np.all(np.diff(record) >= 0)
    assert np.all((0.0 <= times) & (times <= 72.0))
    lengths, values = ds.payloads["lab"]
    assert lengths.shape == (25, 4) and values.shape == (lengths.sum(),)
    assert np.all((6 <= lengths) & (lengths <= 16))
    counts, ids = ds.payloads["txt"]
    assert counts.shape == (25,) and ids.shape == (counts.sum(),)
    assert np.all((60 <= counts) & (counts <= 199))
    assert ids.dtype == np.int64 and ids.min() >= 0 and ids.max() < 64


def test_task_source_names_reads_direction_support():
    assert task_source_names(TaskSpec("x", _direction(0, 1), 0.3)) == ("xr",)
    assert task_source_names(TaskSpec("y", _direction(1, 2), 0.3)) == ("xr", "axr")
    assert task_source_names(TaskSpec("z", _direction(11, 4), 0.3)) == ("proc", "txt")


def test_cross_modal_enforcement():
    single_source_task = (TaskSpec("t0", _direction(0, 1), 0.3),)
    with pytest.raises(ValueError, match="two sources"):
        build(_tiny_cfg(tasks=single_source_task))
    assert build(_tiny_cfg()).n_records > 0  # its task spans sources xr and axr


@pytest.mark.parametrize("kw, message", [
    ({"tasks": ()}, "need at least one task"),
    ({"tasks": (TaskSpec("t", XR_AXR, 0.3), TaskSpec("t", XR_AXR, 0.4))},
     "duplicate task names"),
    ({"tasks": (TaskSpec("t", XR_AXR, 0.3, exact_counts=(30, 31)),)},
     "exact counts 30+31 exceed record count 60"),
    ({"tasks": (TaskSpec("t", (1.0, 0.0, 1.0), 0.3),)}, "direction length must be 12"),
    ({"mode": "images"}, "unknown mode 'images'"),
    ({"stay_p": 0.0}, "stay_p must lie in (0, 1]"),
    ({"stay_p": 1.5}, "stay_p must lie in (0, 1]"),
    ({"n_records": 0}, "n_records must be positive"),
])
def test_config_validation_errors(kw, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build(_tiny_cfg(**kw))


def test_task_spec_validation_errors():
    with pytest.raises(ValueError):
        TaskSpec("t", (0.0, 0.0), 0.3)  # zero direction
    with pytest.raises(ValueError):
        TaskSpec("t", (1.0,), 1.5)      # rate out of range


def test_generator_echo_lands_in_manifest():
    ds = build(_tiny_cfg(seed=11, stay_p=0.25))
    assert ds.seed == 11
    assert ds.generator == {
        "latent_dim": 12,
        "observed": {name: list(coords) for name, coords in OBSERVED.items()},
        "tasks": [{"name": "t0", "pos_rate": 0.3, "missing_rate": 0.0}],
        "stay_p": 0.25, "patient_corr": 0.3, "noise_std": 0.05,
    }


# ---------------------------------------------------------------------------
# profiles


def test_table1_counts_are_the_frozen_reference():
    # the full cohort table: 12 prediction targets, 90811 records
    assert len(TABLE1_COUNTS) == 12
    assert sum(1 for name, _, _ in TABLE1_COUNTS) == 12
    assert TABLE1_TOTAL == 90811
    by_name = {name: (p, n) for name, p, n in TABLE1_COUNTS}
    assert by_name["Fracture"] == (1527, 85)
    assert by_name["48h Mortality"] == (2230, 88581)
    # imbalance ratios quoted for the extremes: 1527/85 ~ 17.96 and
    # 2230/(2230+88581): positives/negatives = 0.0252... use the documented
    # pair (fracture 17.96, mortality ratio 0.10 is for Length of stay)
    assert by_name["Fracture"][0] / by_name["Fracture"][1] == pytest.approx(17.96, abs=0.01)


def test_table1_profile_small_scale_reproduces_scaled_counts():
    scale = 0.002
    cfg = table1_profile(scale=scale, seed=0)
    ds = build(cfg)
    summary = summarize(ds)
    assert ds.n_records == max(1, round(TABLE1_TOTAL * scale))
    for name, pos, neg in TABLE1_COUNTS:
        want = (max(1, round(pos * scale)), max(1, round(neg * scale)))
        c = summary.counts[name]
        assert (c["pos"], c["neg"]) == want, name


def test_table1_full_scale_config_is_exact():
    cfg = table1_profile(scale=1.0, seed=0)
    assert cfg.n_records == TABLE1_TOTAL
    for task, (name, pos, neg) in zip(cfg.tasks, TABLE1_COUNTS):
        assert task.name == name
        assert task.exact_counts == (pos, neg)


def test_planted_profile_builds_and_validates():
    cfg = planted_profile(n_records=200, seed=0)
    cfg.validate()
    assert len(cfg.tasks) == 8
    ds = build(cfg)
    assert ds.n_records == 200
    # every task must span at least two sources
    for task in cfg.tasks:
        assert len(task_source_names(task)) >= 2


def test_planted_profile_raw_mode():
    cfg = planted_profile(n_records=30, seed=1, mode="raw")
    ds = build(cfg)
    assert ds.mode == "raw"
    assert set(ds.payloads) == {"xr", "axr", "proc", "lab", "chart", "txt"}
    # one screening payload serves both image sources
    assert ds.payloads["xr"] is ds.payloads["axr"]
    assert [len(ds.payloads[name]) for name in ("proc", "lab", "chart", "txt")] == [2, 2, 2, 2]


def test_profile_argument_validation():
    with pytest.raises(ValueError):
        table1_profile(scale=0.0)
    with pytest.raises(ValueError):
        planted_profile(n_records=0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_summary_counts_partition_records(seed):
    ds = build(_tiny_cfg(seed=seed, n_records=50,
                         tasks=(TaskSpec("t0", XR_AXR, 0.3, missing_rate=0.2),)))
    summary = summarize(ds)
    c = summary.counts["t0"]
    assert c["pos"] + c["neg"] + c["unknown"] == 50
