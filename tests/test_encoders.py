"""Feature extraction tests: the 11-statistic summary (frozen oracles),
image screening selection/aggregation, text chunking, normalization, and
the one-pass featurizers against the per-record oracle in
`featurize_oracle.py`."""

import dataclasses
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
from riskfuse.storage import decode

import featurize_oracle as oracle


def assert_near_oracle(got, want):
    """Equal within the oracle tolerance: atol = 1e-13 * max|oracle|."""
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=oracle.ATOL_SCALE * np.abs(want).max())


def _flat(records):
    """(lengths table, flat values) of records given as lists of series."""
    lengths = np.array([[len(x) for x in rec] for rec in records])
    return lengths, np.concatenate([np.asarray(x, dtype=np.float64)
                                    for rec in records for x in rec])


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
    mat = timeseries_feature_matrix(*_flat(records))
    assert mat.shape == (2, 22)
    for i, rec in enumerate(records):
        for j, x in enumerate(rec):
            np.testing.assert_array_equal(mat[i, 11 * j:11 * (j + 1)], ts_features(x))


_ragged_records = st.integers(1, 3).flatmap(lambda n_series: st.lists(
    st.lists(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20),
             min_size=n_series, max_size=n_series),
    min_size=1, max_size=8))


@settings(max_examples=80, deadline=None)
@given(_ragged_records)
@example([[[1.0], [2.0, -1.0], [3.0, 1.0, 2.0]], [[4.0], [0.5, 0.5], [1.0, 5.0, 1.0]]])
def test_feature_matrix_matches_the_oracle_and_ts_features(records):
    mat = timeseries_feature_matrix(*_flat(records))
    want = oracle.timeseries_features(records)
    assert_near_oracle(mat, want)
    n_series = len(records[0])
    exact = [11 * j + c for j in range(n_series) for c in oracle.EXACT_TS_COLUMNS]
    np.testing.assert_array_equal(mat[:, exact], want[:, exact])
    # ts_features is the one-series case, bit for bit
    np.testing.assert_array_equal(
        mat, np.stack([np.concatenate([ts_features(x) for x in rec]) for rec in records]))


def test_feature_matrix_rejects_nonfinite_empty_and_miscut_series():
    lengths, values = _flat([[[1.0, 2.0]], [[3.0, 4.0, 5.0]]])
    values[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        timeseries_feature_matrix(lengths, values)
    with pytest.raises(ValueError, match="series must be nonempty"):
        timeseries_feature_matrix(np.array([[2, 0]]), np.ones(2))
    with pytest.raises(ValueError, match="series lengths add up to 5, not to the 4 given"):
        timeseries_feature_matrix(lengths, values[:4])
    with pytest.raises(ValueError, match="no records"):
        timeseries_feature_matrix(np.zeros((0, 2), dtype=int), np.ones(0))


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


def _scr(*records):
    """(counts, times, vectors) of records, each a list of (time, *vector)
    screenings."""
    return (np.array([len(rec) for rec in records]),
            np.array([t for rec in records for t, *_ in rec], dtype=np.float64),
            np.array([v for rec in records for _, *v in rec], dtype=np.float64))


def test_latest_image_picks_greatest_time_last_wins_ties():
    picked = latest_image(*_scr([(1.0, 1.0), (5.0, 2.0), (3.0, 3.0)],
                                [(4.0, 1.0), (4.0, 2.0), (2.0, 3.0)]))
    np.testing.assert_array_equal(picked, [[2.0], [2.0]])


def test_aggregate_images_weight_oracle():
    # times [0, 6, 12]: w = (t - 0)/12 = [0, .5, 1]; normalized [0, 1/3, 2/3]
    out = aggregate_images(*_scr([(0.0, 3.0), (6.0, 6.0), (12.0, 9.0)]))
    assert out[0, 0] == pytest.approx(6.0 * (1 / 3) + 9.0 * (2 / 3), abs=1e-12)


def test_aggregate_single_screening_falls_back_to_latest():
    np.testing.assert_array_equal(aggregate_images(*_scr([(7.0, 4.0)])), [[4.0]])


def test_aggregate_all_zero_times_falls_back_to_latest():
    np.testing.assert_array_equal(aggregate_images(*_scr([(0.0, 1.0), (0.0, 9.0)])), [[9.0]])


# records covering each rule's cases: a tie at the latest time, a plain
# recency weighting, equal times and all-zero times (both fall back to the
# latest screening), and a single screening
MIXED_SCREENINGS = (
    [(4.0, 1.0, 0.5), (4.0, 2.0, -1.0), (2.0, 3.0, 2.0)],
    [(0.0, 3.0, 1.0), (6.0, 6.0, 0.25), (12.0, 9.0, -3.0)],
    [(3.0, 1.0, 1.0), (3.0, 5.0, 2.0)],
    [(0.0, 1.0, 7.0), (0.0, 9.0, 8.0), (0.0, 2.0, 9.0)],
    [(7.0, 4.0, 4.5)],
    [(1.5, -2.0, 0.0), (0.5, 2.0, 1.0), (33.0, 0.1, 0.3), (20.0, 8.0, 8.0)],
)


@pytest.mark.parametrize("pick, one", [(latest_image, oracle.latest_image),
                                       (aggregate_images, oracle.aggregate_images)])
def test_image_rules_on_a_mixed_batch_match_the_oracle_and_each_record_alone(pick, one):
    got = pick(*_scr(*MIXED_SCREENINGS))
    for i, rec in enumerate(MIXED_SCREENINGS):
        counts, times, vectors = _scr(rec)
        np.testing.assert_array_equal(got[i], pick(counts, times, vectors)[0])
        want = one(times, vectors)
        if pick is latest_image or i in (2, 3, 4):   # a pick, not an average
            np.testing.assert_array_equal(got[i], want)
        else:
            assert_near_oracle(got[i], want)


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
    for pick in (latest_image, aggregate_images):
        with pytest.raises(ValueError, match="no screenings"):
            pick([2, 0], [1.0, 2.0], np.zeros((2, 2)))
    with pytest.raises(ValueError, match="2 screening times for 3 vectors"):
        latest_image([2], [1.0, 2.0], np.zeros((3, 2)))
    with pytest.raises(ValueError, match="screening lengths add up to 3, not to the 2 given"):
        latest_image([1, 2], [1.0, 2.0], np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# text chunking


def _text(table, *records):
    return encode_text_with_table(table, [len(r) for r in records], np.concatenate(records))


def test_text_chunks_600_tokens_as_512_plus_88():
    spec = SourceSpec(5, "txt", "text", 4, token_vocab=32)
    table = text_stub_table(spec, seed=1)
    ids = np.arange(600) % 32
    direct = _text(table, ids)[0]
    chunk_a = table[ids[:512]].mean(axis=0)
    chunk_b = table[ids[512:]].mean(axis=0)
    np.testing.assert_allclose(direct, (chunk_a + chunk_b) / 2.0, atol=1e-12)


def test_text_single_chunk_is_plain_mean():
    spec = SourceSpec(5, "txt", "text", 4, token_vocab=32)
    table = text_stub_table(spec, seed=1)
    ids = np.array([3, 7, 7, 1])
    np.testing.assert_allclose(_text(table, ids)[0], table[ids].mean(axis=0), atol=1e-14)


def test_aggregate_text_means_chunks():
    # a 512-token chunk of token 0 and a 1-token chunk of token 1 weigh the
    # same: the chunk means are averaged, not the tokens
    table = np.array([[1.0, 2.0], [3.0, 6.0]])
    np.testing.assert_array_equal(_text(table, np.array([0] * 512 + [1])), [[2.0, 4.0]])


def test_long_and_short_texts_in_one_batch_match_the_oracle_and_each_alone():
    table = text_stub_table(SourceSpec(5, "txt", "text", 4, token_vocab=32), seed=1)
    gen = np.random.default_rng(3)
    records = [gen.integers(0, 32, size=n) for n in (600, 3, 1100, 1, 512, 513, 1024)]
    got = _text(table, *records)
    for i, ids in enumerate(records):
        np.testing.assert_array_equal(got[i], _text(table, ids)[0])
        assert_near_oracle(got[i], oracle.encode_text(table, ids))


def test_text_rejects_out_of_vocab_ids_and_empty_records():
    spec = SourceSpec(5, "txt", "text", 4, token_vocab=32)
    table = text_stub_table(spec, seed=1)
    with pytest.raises(ValueError, match=re.escape("token ids out of range [0, 32)")):
        _text(table, np.array([3, 4]), np.array([31, 32]))
    with pytest.raises(ValueError, match="token ids out of range"):
        _text(table, np.array([-1]))
    with pytest.raises(ValueError, match="token sequence must be nonempty"):
        encode_text_with_table(table, [2, 0], np.array([1, 2]))


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


def test_stubs_are_drawn_once_and_shared_read_only():
    cases = ((image_stub_matrix, SourceSpec(0, "xr", "image", 8, raw_dim=16)),
             (text_stub_table, SourceSpec(5, "txt", "text", 4, token_vocab=32)))
    for stub, spec in cases:
        first = stub(spec, seed=3)
        assert stub(spec, seed=3) is first
        np.testing.assert_array_equal(first, stub.__wrapped__(spec, 3))
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 0.0


def test_cached_stubs_featurize_as_freshly_drawn_ones_bit_for_bit():
    ds = build(planted_profile(n_records=30, seed=4, mode="raw"))
    rows = np.arange(ds.n_records)
    names = ("xr", "axr", "txt")
    image_stub_matrix.cache_clear()
    text_stub_table.cache_clear()
    fresh = _base_embeddings(ds, rows, names)
    cached = _base_embeddings(ds, rows, names)
    assert image_stub_matrix.cache_info().hits == 2
    assert text_stub_table.cache_info().hits == 1
    for name in names:
        np.testing.assert_array_equal(cached[name], fresh[name])


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


RAW_SOURCES = ("xr", "axr", "proc", "lab", "chart", "txt")


def test_raw_features_match_the_per_record_oracle():
    # the one-pass featurizers sum in other orders than the per-record
    # oracle; the worst gap on planted raw cohorts is below 3e-15 of the
    # largest value, against this tolerance of 1e-13
    ds = build(planted_profile(n_records=100, seed=5, mode="raw"))
    rows = np.r_[np.arange(ds.n_records), [7, 7, 3]]
    got = _base_embeddings(ds, rows, RAW_SOURCES)
    want = oracle.base_embeddings(ds, rows, RAW_SOURCES)
    for name in RAW_SOURCES:
        assert_near_oracle(got[name], want[name])
        if ds.spec(name).modality == "time-series":
            exact = (..., list(oracle.EXACT_TS_COLUMNS))
            np.testing.assert_array_equal(got[name].reshape(rows.size, -1, 11)[exact],
                                          want[name].reshape(rows.size, -1, 11)[exact])


@pytest.mark.parametrize("name", RAW_SOURCES)
def test_any_rows_featurize_as_in_the_full_call_bit_for_bit(name):
    # a record's features read only its own payload: rows 1..n, each row
    # alone, and rows with duplicates all give the full call's rows
    ds = build(planted_profile(n_records=12, seed=2, mode="raw"))
    full = _base_embeddings(ds, np.arange(ds.n_records), (name,))[name]
    for k in range(1, ds.n_records + 1):
        np.testing.assert_array_equal(_base_embeddings(ds, np.arange(k), (name,))[name],
                                      full[:k])
    for i in range(ds.n_records):
        np.testing.assert_array_equal(_base_embeddings(ds, np.array([i]), (name,))[name],
                                      full[[i]])
    rows = np.array([5, 0, 5, 11, 0, 5])
    np.testing.assert_array_equal(_base_embeddings(ds, rows, (name,))[name], full[rows])


def test_raw_featurization_refuses_a_nonfinite_series_and_an_unknown_token():
    ds = build(planted_profile(n_records=6, seed=2, mode="raw"))
    lengths, values = ds.payloads["lab"]
    values = values.copy()
    values[lengths[:3].sum() + 2] = np.inf   # in record 3
    ds.payloads["lab"] = (lengths, values)
    _base_embeddings(ds, np.array([0, 1, 2]), ("lab",))
    with pytest.raises(ValueError, match="non-finite"):
        _base_embeddings(ds, np.array([0, 3]), ("lab",))
    counts, ids = ds.payloads["txt"]
    ids = ids.copy()
    ids[counts[:4].sum()] = ds.spec("txt").token_vocab   # record 4's first token
    ds.payloads["txt"] = (counts, ids)
    _base_embeddings(ds, np.array([5, 0]), ("txt",))
    with pytest.raises(ValueError, match="token ids out of range"):
        _base_embeddings(ds, np.array([5, 4]), ("txt",))


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


@pytest.mark.parametrize("key, value, kind", [
    ("dim", 8.0, "an integer"), ("source_id", True, "an integer"), ("name", 3, "a string")])
def test_a_decoded_spec_value_of_the_wrong_type_is_refused(key, value, kind):
    d = dict(dataclasses.asdict(SourceSpec(0, "xr", "image", 8, raw_dim=16)), **{key: value})
    with pytest.raises(ValueError, match=f"source key '{key}' must be {kind}, got"):
        decode(SourceSpec, d, "source", complete=True)
