"""Feature extraction tests: the 11-statistic summary (frozen oracles),
image screening selection/aggregation, text chunking, normalization."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskfuse.datagen import build, planted_profile
from riskfuse.encoders import (N_TS_FEATURES, SourceSpec, aggregate_images,
                               apply_feature_stats, encode_text_with_table,
                               fit_feature_stats, image_stub_matrix, latest_image,
                               text_stub_table, timeseries_feature_matrix, ts_features)
from riskfuse.pipeline import _base_embeddings


# ---------------------------------------------------------------------------
# 11-statistic summary; oracles hand-computed from the definitions


def test_ts_features_oracle_1_2_4():
    # series [1,2,4]: mean 7/3, popvar 14/9, min 1, max 4, mean diff 1.5,
    # mean |diff| 1.5, max diff 2, sum |diff| 3, last-first 3, peaks 0
    # (interior 2 not above the max neighbor), slope 1.5
    got = ts_features(np.array([1.0, 2.0, 4.0]))
    want = np.array([7 / 3, 14 / 9, 1, 4, 1.5, 1.5, 2, 3, 3, 0, 1.5])
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_ts_features_oracle_3_1_5_1():
    # series [3,1,5,1]: diffs [-2,4,-4]; interior 5 beats both neighbors and
    # the median 2, so exactly one peak; LSQ slope over x=[0..3] is -0.2
    got = ts_features(np.array([3.0, 1.0, 5.0, 1.0]))
    want = np.array([2.5, 2.75, 1, 5, -2 / 3, 10 / 3, 4, 10, -2, 1, -0.2])
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_ts_features_singleton_oracle():
    got = ts_features(np.array([7.0]))
    want = np.array([7, 0, 7, 7, 0, 0, 0, 0, 0, 0, 0])
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_ts_features_length():
    assert ts_features(np.arange(5.0)).shape == (N_TS_FEATURES,)


def test_peak_needs_to_beat_median():
    # interior 2 beats both neighbors (1, 1) but not the median of [1,2,1,5]
    # shifted...: use [0, 2, 0, 9, 0]: median 0; both 2 and 9 are peaks
    assert ts_features(np.array([0.0, 2.0, 0.0, 9.0, 0.0]))[9] == 2
    # raise the floor so the small bump falls at the median: [5,6,5,9,5]
    # median 5... 6 > 5 still a peak; use [5,6,5,9,6] median 6: bump 6 is
    # not strictly above it
    assert ts_features(np.array([5.0, 6.0, 5.0, 9.0, 6.0]))[9] == 1


def test_constant_series_has_no_variation():
    out = ts_features(np.full(6, 3.3))
    np.testing.assert_allclose(out, [3.3, 0, 3.3, 3.3, 0, 0, 0, 0, 0, 0, 0],
                               atol=1e-12)


def test_ts_features_rejects_empty_and_2d():
    with pytest.raises(ValueError):
        ts_features(np.array([]))
    with pytest.raises(ValueError):
        ts_features(np.zeros((2, 2)))


def test_feature_matrix_concatenates_series_in_order():
    records = [
        [np.array([1.0, 2.0, 4.0]), np.array([7.0])],
        [np.array([3.0, 1.0, 5.0, 1.0]), np.array([2.0, 2.0])],
    ]
    mat = timeseries_feature_matrix(records)
    assert mat.shape == (2, 22)
    np.testing.assert_allclose(mat[0, :11], ts_features(np.array([1.0, 2.0, 4.0])))
    np.testing.assert_allclose(mat[0, 11:], ts_features(np.array([7.0])))


def _loop_ts_features(x):
    """Per-series formulation of the 11 features; the vectorized code must
    reproduce it bit for bit."""
    out = np.zeros(N_TS_FEATURES)
    out[0], out[2], out[3] = x.mean(), x.min(), x.max()
    if x.size == 1:
        return out
    out[1] = x.var()
    d = np.diff(x)
    out[4:8] = d.mean(), np.abs(d).mean(), d.max(), np.abs(d).sum()
    out[8] = x[-1] - x[0]
    if x.size >= 3:
        interior = x[1:-1]
        out[9] = np.count_nonzero((interior > x[:-2]) & (interior > x[2:])
                                  & (interior > np.median(x)))
    idx = np.arange(x.size, dtype=np.float64)
    ic = idx - idx.mean()
    out[10] = ic @ (x - x.mean()) / (ic @ ic)
    return out


_ragged_records = st.integers(1, 3).flatmap(lambda n_series: st.lists(
    st.lists(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20),
             min_size=n_series, max_size=n_series),
    min_size=1, max_size=8))


@settings(max_examples=80, deadline=None)
@given(_ragged_records)
@example([[[1.0], [2.0, -1.0], [3.0, 1.0, 2.0]], [[4.0], [0.5, 0.5], [1.0, 5.0, 1.0]]])
def test_feature_matrix_equals_row_wise_ts_features(records):
    arrays = [[np.array(x) for x in rec] for rec in records]
    mat = timeseries_feature_matrix(arrays)
    for loop in (ts_features, _loop_ts_features):
        rowwise = np.stack([np.concatenate([loop(x) for x in rec]) for rec in arrays])
        np.testing.assert_array_equal(mat, rowwise)


def test_feature_matrix_rejects_nonfinite_and_ragged_records():
    with pytest.raises(ValueError, match="non-finite"):
        timeseries_feature_matrix([[np.array([1.0, np.nan])]])
    with pytest.raises(ValueError, match="record 1 has 1 series"):
        timeseries_feature_matrix([[np.ones(2), np.ones(3)], [np.ones(2)]])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=20), st.floats(-3, 3))
def test_ts_features_shift_moves_only_location_stats(values, shift):
    # quantize so the shift cannot absorb sub-epsilon structure (a 1e-54
    # spike plus 1.0 rounds away and legitimately changes the peak count)
    base = np.round(np.array(values), 3)
    shift = round(shift, 3)
    a = ts_features(base)
    b = ts_features(base + shift)
    # mean/min/max shift; variance, diffs, peaks and slope are invariant
    np.testing.assert_allclose(b[[0, 2, 3]], a[[0, 2, 3]] + shift, atol=1e-9)
    np.testing.assert_allclose(b[[1, 4, 5, 6, 7, 8, 9, 10]],
                               a[[1, 4, 5, 6, 7, 8, 9, 10]], atol=1e-9)


# ---------------------------------------------------------------------------
# normalization


def test_fit_apply_zscore_roundtrip():
    gen = np.random.default_rng(5)
    m = gen.standard_normal((50, 4)) * 3.0 + 1.0
    stats = fit_feature_stats(m)
    z = apply_feature_stats(m, stats)
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)


def test_constant_feature_maps_to_zero_not_nan():
    m = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    stats = fit_feature_stats(m)
    z = apply_feature_stats(m, stats)
    np.testing.assert_array_equal(z[:, 1], 0.0)
    assert np.all(np.isfinite(z))


def test_apply_uses_fitted_not_own_stats():
    train = np.array([[0.0], [2.0]])          # mean 1, std 1
    stats = fit_feature_stats(train)
    z = apply_feature_stats(np.array([[5.0]]), stats)
    assert z[0, 0] == pytest.approx(4.0, abs=1e-12)


# ---------------------------------------------------------------------------
# image screenings


def _scr(*screenings):
    """(times, vectors) of one record from (time, *vector) screenings."""
    return (np.array([t for t, *_ in screenings]),
            np.array([v for _, *v in screenings], dtype=np.float64))


def test_latest_image_picks_greatest_time_last_wins_ties():
    picked = latest_image(*_scr((1.0, 1.0), (5.0, 2.0), (3.0, 3.0)))
    np.testing.assert_array_equal(picked, [2.0])
    tied = latest_image(*_scr((4.0, 1.0), (4.0, 2.0), (2.0, 3.0)))
    np.testing.assert_array_equal(tied, [2.0])


def test_aggregate_images_weight_oracle():
    # times [0, 6, 12]: w = (t - 0)/12 = [0, .5, 1]; normalized [0, 1/3, 2/3]
    out = aggregate_images(*_scr((0.0, 3.0), (6.0, 6.0), (12.0, 9.0)))
    assert out[0] == pytest.approx(6.0 * (1 / 3) + 9.0 * (2 / 3), abs=1e-12)


def test_aggregate_single_screening_falls_back_to_latest():
    out = aggregate_images(*_scr((7.0, 4.0)))
    np.testing.assert_array_equal(out, [4.0])


def test_aggregate_all_zero_times_falls_back_to_latest():
    out = aggregate_images(*_scr((0.0, 1.0), (0.0, 9.0)))
    np.testing.assert_array_equal(out, [9.0])


def test_screening_rejects_negative_time():
    # a dataset refuses a negative screening time, naming the shared file
    ds = build(planted_profile(n_records=6, seed=2, mode="raw"))
    counts, times, vectors = ds.payloads["xr"]
    times = times.copy()
    times[3] = -1.0
    ds.payloads["xr"] = ds.payloads["axr"] = (counts, times, vectors)
    with pytest.raises(ValueError, match=re.escape(
            "raw_screenings.bin: source 'xr': screening times must be nonnegative")):
        ds.validate()


def test_empty_screening_list_rejected():
    with pytest.raises(ValueError, match="no screenings"):
        latest_image([], np.zeros((0, 2)))
    with pytest.raises(ValueError, match="no screenings"):
        aggregate_images([], np.zeros((0, 2)))
    with pytest.raises(ValueError, match="2 screening times for 3 vectors"):
        latest_image([1.0, 2.0], np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# text chunking


def test_text_chunks_600_tokens_as_512_plus_88():
    spec = SourceSpec(5, "txt", "text", 4, token_vocab=32)
    table = text_stub_table(spec, seed=1)
    ids = np.arange(600) % 32
    direct = encode_text_with_table(table, ids)
    chunk_a = table[ids[:512]].mean(axis=0)
    chunk_b = table[ids[512:]].mean(axis=0)
    np.testing.assert_allclose(direct, (chunk_a + chunk_b) / 2.0, atol=1e-12)


def test_text_single_chunk_is_plain_mean():
    spec = SourceSpec(5, "txt", "text", 4, token_vocab=32)
    table = text_stub_table(spec, seed=1)
    ids = np.array([3, 7, 7, 1])
    np.testing.assert_allclose(encode_text_with_table(table, ids),
                               table[ids].mean(axis=0), atol=1e-14)


def test_aggregate_text_means_chunks():
    # a 512-token chunk of token 0 and a 1-token chunk of token 1 weigh the
    # same: the chunk means are averaged, not the tokens
    table = np.array([[1.0, 2.0], [3.0, 6.0]])
    ids = np.array([0] * 512 + [1])
    np.testing.assert_array_equal(encode_text_with_table(table, ids), [2.0, 4.0])


def test_text_rejects_out_of_vocab_ids():
    spec = SourceSpec(5, "txt", "text", 4, token_vocab=32)
    table = text_stub_table(spec, seed=1)
    with pytest.raises(ValueError):
        encode_text_with_table(table, np.array([31, 32]))
    with pytest.raises(ValueError):
        encode_text_with_table(table, np.array([], dtype=int))


# ---------------------------------------------------------------------------
# frozen stubs


def test_stub_matrices_are_seed_deterministic():
    spec = SourceSpec(0, "xr", "image", 8, raw_dim=16)
    a = image_stub_matrix(spec, seed=3)
    b = image_stub_matrix(spec, seed=3)
    c = image_stub_matrix(spec, seed=4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (8, 16)


def test_stub_matrices_differ_between_sources():
    a = image_stub_matrix(SourceSpec(0, "xr", "image", 8, raw_dim=16), seed=3)
    b = image_stub_matrix(SourceSpec(1, "axr", "image", 8, raw_dim=16), seed=3)
    assert not np.array_equal(a, b)


def test_encode_image_stub_is_linear_in_payload():
    # the image stub has no bias and both screening rules are weighted
    # averages, so a record's image embedding is linear in its payloads
    ds = build(planted_profile(n_records=6, seed=2, mode="raw"))
    rows = np.arange(ds.n_records)
    counts, times, vectors = ds.payloads["xr"]

    def scaled(c):
        ds.payloads["xr"] = ds.payloads["axr"] = (counts, times, c * vectors)
        return _base_embeddings(ds, rows, ("xr", "axr"))

    once, twice, zero = scaled(1.0), scaled(2.0), scaled(0.0)
    for name in ("xr", "axr"):
        np.testing.assert_allclose(twice[name], 2.0 * once[name], atol=1e-12)
        np.testing.assert_array_equal(zero[name], 0.0)


def test_encode_image_stub_embeds_each_screening_of_the_rows_read():
    # one stub product per screening of each row read, picked by the
    # source's rule from that row's own screenings
    ds = build(planted_profile(n_records=7, seed=2, mode="raw"))
    counts, times, vectors = ds.payloads["xr"]
    cuts = np.cumsum(counts)[:-1]
    times, vectors = np.split(times, cuts), np.split(vectors, cuts)
    rows = np.array([5, 0, 3, 3])
    got = _base_embeddings(ds, rows, ("xr", "axr"))
    for name, pick in (("xr", latest_image), ("axr", aggregate_images)):
        stub = image_stub_matrix(ds.spec(name), ds.seed)
        want = [pick(times[i], np.stack([stub @ v for v in vectors[i]])) for i in rows]
        np.testing.assert_array_equal(got[name], np.stack(want))


def test_encode_timeseries_reads_each_rows_series():
    ds = build(planted_profile(n_records=7, seed=2, mode="raw"))
    lengths, values = ds.payloads["lab"]
    series = np.split(values, np.cumsum(lengths)[:-1])
    rows = np.array([6, 2, 2, 0])
    want = timeseries_feature_matrix([series[i * 4:(i + 1) * 4] for i in rows])
    np.testing.assert_array_equal(_base_embeddings(ds, rows, ("lab",))["lab"], want)


def test_encode_text_stub_matches_table_route():
    # a raw dataset's text embedding is the table route through the stub
    # table seeded by the dataset seed and the source
    ds = build(planted_profile(n_records=4, seed=9, mode="raw"))
    table = text_stub_table(ds.spec("txt"), seed=9)
    counts, ids = ds.payloads["txt"]
    want = np.stack([encode_text_with_table(table, record)
                     for record in np.split(ids, np.cumsum(counts)[:-1])])
    got = _base_embeddings(ds, np.arange(ds.n_records), ("txt",))["txt"]
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(_base_embeddings(ds, np.array([2, 0]), ("txt",))["txt"],
                                  want[[2, 0]])


# ---------------------------------------------------------------------------
# SourceSpec validation


def test_timeseries_dim_must_match_series_count():
    with pytest.raises(ValueError):
        SourceSpec(2, "proc", "time-series", 100, n_series=10)  # not 11*10


def test_image_rule_validation():
    with pytest.raises(ValueError):
        SourceSpec(0, "xr", "image", 8, raw_dim=16, image_rule="newest")
    # the rule field is inert for non-image sources
    SourceSpec(2, "proc", "time-series", 11, n_series=1, image_rule="aggregate")
