"""Generator tests: threshold calibration, exact-count assignment, patient
correlation, payload structure, determinism, and profile invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskfuse.datagen import (GenConfig, TABLE1_COUNTS, TABLE1_TOTAL, TaskSpec,
                              _assign_labels, build, planted_profile, summarize,
                              table1_profile, task_source_names, threshold_for)
from riskfuse.encoders import SourceSpec
from riskfuse.losses import UNKNOWN


def _tiny_cfg(**kw):
    sources = (
        SourceSpec(0, "a", "time-series", 11, n_series=1),
        SourceSpec(1, "b", "time-series", 11, n_series=1),
    )
    defaults = dict(
        latent_dim=4,
        sources=sources,
        observed={"a": (0, 1), "b": (2, 3)},
        tasks=(TaskSpec("t0", (1.0, 0.0, 1.0, 0.0), 0.3),),
        mode="latent",
        seed=0,
        n_patients=30,
    )
    defaults.update(kw)
    return GenConfig(**defaults)


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
    cfg = _tiny_cfg(tasks=(TaskSpec("t0", (1.0, 0.0, 1.0, 0.0), 0.5),
                           TaskSpec("t1", (0.0, 1.0, 0.0, 1.0), 0.3)))
    tau1 = threshold_for((0.0, 1.0, 0.0, 1.0), 0.3)
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
    np.testing.assert_array_equal(a.embeddings["a"], b.embeddings["a"])
    assert not np.array_equal(a.embeddings["a"], c.embeddings["a"])


def test_n_records_mode_hits_exact_total():
    ds = build(_tiny_cfg(n_patients=0, n_records=57))
    assert ds.n_records == 57
    assert ds.labels.shape == (57, 1)


def test_patients_are_contiguous_blocks():
    ds = build(_tiny_cfg(seed=2))
    # geometric stays are emitted patient by patient
    changes = np.flatnonzero(np.diff(ds.patients))
    assert np.all(np.diff(ds.patients)[changes] == 1)


def test_latent_payload_is_linear_view_plus_noise():
    cfg = _tiny_cfg(noise_std=0.0, seed=3)
    ds = build(cfg)
    from riskfuse import seeding
    mix = seeding.rng(cfg.seed, "mixmap", 0).normal(0.0, 1.0 / np.sqrt(2), size=(11, 2))
    # noiseless payload must be an exact linear function of the observed
    # coords; verify rank <= 2
    e = ds.embeddings["a"]
    rank = np.linalg.matrix_rank(e - e.mean(axis=0), tol=1e-8)
    assert rank <= 2
    assert mix.shape == (11, 2)


def test_exact_count_assignment_respects_ranks():
    tasks = (TaskSpec("t0", (1.0, 0.0, 1.0, 0.0), 0.3, exact_counts=(5, 10)),)
    ds = build(_tiny_cfg(tasks=tasks, n_patients=0, n_records=40))
    col = ds.labels[:, 0]
    assert int(np.sum(col == 1)) == 5
    assert int(np.sum(col == 0)) == 10
    assert int(np.sum(col == UNKNOWN)) == 25


def test_exact_count_positives_are_top_scores():
    tasks = (TaskSpec("t0", (1.0, 0.0, 1.0, 0.0), 0.3, exact_counts=(6, 8)),)
    cfg = _tiny_cfg(tasks=tasks, n_patients=0, n_records=30, noise_std=0.0, seed=9)
    ds = build(cfg)
    direction = np.array(cfg.tasks[0].direction)
    # reconstruct scores from the generator echo is not possible without z;
    # instead assert the label bands are separated by score via the latent
    # payloads' linear structure: positives' mean embedding differs strongly
    pos = ds.embeddings["a"][ds.labels[:, 0] == 1].mean(axis=0)
    neg = ds.embeddings["a"][ds.labels[:, 0] == 0].mean(axis=0)
    assert np.linalg.norm(pos - neg) > 0.1
    assert direction.shape == (4,)


def test_missing_rate_masks_roughly_that_fraction():
    tasks = (TaskSpec("t0", (1.0, 0.0, 1.0, 0.0), 0.3, missing_rate=0.25),)
    ds = build(_tiny_cfg(tasks=tasks, n_patients=0, n_records=4000, seed=1))
    frac = float(np.mean(ds.labels[:, 0] == UNKNOWN))
    assert frac == pytest.approx(0.25, abs=0.03)


def test_patient_correlation_is_positive():
    cfg = _tiny_cfg(n_patients=0, n_records=6000, stay_p=0.4, patient_corr=0.6, seed=4)
    ds = build(cfg)
    e = ds.embeddings["a"]
    # adjacent same-patient rows should correlate; adjacent cross-patient not
    same, diff = [], []
    for i in range(ds.n_records - 1):
        dot = float(e[i] @ e[i + 1]) / (np.linalg.norm(e[i]) * np.linalg.norm(e[i + 1]))
        (same if ds.patients[i] == ds.patients[i + 1] else diff).append(dot)
    assert np.mean(same) > np.mean(diff) + 0.1


def test_raw_mode_payload_structure():
    sources = (
        SourceSpec(0, "xr", "image", 8, raw_dim=6, image_rule="latest"),
        SourceSpec(1, "ts", "time-series", 22, n_series=2),
        SourceSpec(2, "txt", "text", 8, token_vocab=16),
    )
    cfg = GenConfig(
        latent_dim=4, sources=sources,
        observed={"xr": (0, 1), "ts": (1, 2), "txt": (2, 3)},
        tasks=(TaskSpec("t0", (1.0, 1.0, 0.0, 0.0), 0.3),),
        mode="raw", seed=0, n_patients=0, n_records=25,
    )
    ds = build(cfg)
    assert ds.mode == "raw"
    counts, times, vectors = ds.raw["xr"]
    assert counts.shape == (25,) and counts.dtype == np.int64
    assert np.all((1 <= counts) & (counts <= 4))
    assert times.shape == (counts.sum(),) and vectors.shape == (counts.sum(), 6)
    for record in np.split(times, np.cumsum(counts)[:-1]):
        assert np.all(np.diff(record) >= 0)
    assert np.all((0.0 <= times) & (times <= 72.0))
    lengths, values = ds.raw["ts"]
    assert lengths.shape == (25, 2) and values.shape == (lengths.sum(),)
    assert np.all((6 <= lengths) & (lengths <= 16))
    counts, ids = ds.raw["txt"]
    assert counts.shape == (25,) and ids.shape == (counts.sum(),)
    assert np.all((60 <= counts) & (counts <= 199))
    assert ids.dtype == np.int64 and ids.min() >= 0 and ids.max() < 16


def test_task_source_names_reads_direction_support():
    cfg = _tiny_cfg()
    only_a = TaskSpec("x", (1.0, 1.0, 0.0, 0.0), 0.3)
    both = TaskSpec("y", (0.0, 1.0, 1.0, 0.0), 0.3)
    assert task_source_names(cfg, only_a) == ("a",)
    assert task_source_names(cfg, both) == ("a", "b")


def test_cross_modal_enforcement():
    single_source_task = (TaskSpec("t0", (1.0, 1.0, 0.0, 0.0), 0.3),)
    with pytest.raises(ValueError, match="two sources"):
        build(_tiny_cfg(tasks=single_source_task))
    assert build(_tiny_cfg()).n_records > 0  # its task spans sources a and b


def test_config_validation_errors():
    with pytest.raises(ValueError):
        build(_tiny_cfg(observed={"a": (0, 1)}))  # missing source b
    with pytest.raises(ValueError):
        build(_tiny_cfg(observed={"a": (0, 9), "b": (2, 3)}))  # out of range
    with pytest.raises(ValueError):
        _tiny_cfg(tasks=(TaskSpec("t", (1.0, 0, 1.0, 0), 0.3, exact_counts=(50, 60)),),
                  n_patients=0, n_records=40).validate()
    with pytest.raises(ValueError):
        TaskSpec("t", (0.0, 0.0), 0.3)  # zero direction
    with pytest.raises(ValueError):
        TaskSpec("t", (1.0,), 1.5)      # rate out of range


def test_generator_echo_lands_in_manifest():
    ds = build(_tiny_cfg(seed=11))
    assert ds.seed == 11
    assert ds.generator.get("latent_dim") == 4
    assert ds.generator.get("observed") == {"a": [0, 1], "b": [2, 3]}


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
        assert len(task_source_names(cfg, task)) >= 2


def test_planted_profile_raw_mode():
    cfg = planted_profile(n_records=30, seed=1, mode="raw")
    ds = build(cfg)
    assert ds.mode == "raw"
    assert set(ds.raw) == {"xr", "axr", "proc", "lab", "chart", "txt"}
    # one screening payload serves both image sources
    assert ds.raw["xr"] is ds.raw["axr"]
    assert [len(ds.raw[name]) for name in ("proc", "lab", "chart", "txt")] == [2, 2, 2, 2]


def test_profile_argument_validation():
    with pytest.raises(ValueError):
        table1_profile(scale=0.0)
    with pytest.raises(ValueError):
        planted_profile(n_records=0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_summary_counts_partition_records(seed):
    ds = build(_tiny_cfg(seed=seed, n_patients=0, n_records=50,
                         tasks=(TaskSpec("t0", (1.0, 0.0, 1.0, 0.0), 0.3,
                                         missing_rate=0.2),)))
    summary = summarize(ds)
    c = summary.counts["t0"]
    assert c["pos"] + c["neg"] + c["unknown"] == 50
