"""Frozen per-source featurizers and embedding helpers.

Three modalities are supported. Clinical time series are summarized with a
fixed 11-statistic vector per series; a record's imaging screenings arrive
as their times and vectors, reduced to one vector by recency rules; free
text arrives as token-id sequences averaged through a fixed embedding table.
Nothing in this module trains: the stand-in image/text encoders are seeded
random linear maps, deterministic given (source, seed).

A featurizer takes a batch of records as their lengths and the flat arrays
those cut, and makes one numpy pass of segmented reductions (`reduceat` at
the piece offsets, one `lexsort` for the series medians), with no Python
loop per record, series or screening. Each reduction reads one piece only,
so a record's features are bit for bit the same in any batch.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import seeding

__all__ = [
    "N_TS_FEATURES",
    "TEXT_CHUNK_TOKENS",
    "SourceSpec",
    "FeatureStats",
    "fit_feature_stats",
    "apply_feature_stats",
    "ts_features",
    "timeseries_feature_matrix",
    "latest_image",
    "aggregate_images",
    "image_stub_matrix",
    "text_stub_table",
    "encode_text_with_table",
]

N_TS_FEATURES = 11
TEXT_CHUNK_TOKENS = 512

MODALITIES = ("time-series", "image", "text")


@dataclass(frozen=True)
class SourceSpec:
    """Identity and geometry of one input source."""

    source_id: int
    name: str
    modality: str
    dim: int
    n_series: int = 0     # time-series only
    raw_dim: int = 0      # image only: length of a screening's raw vector
    token_vocab: int = 0  # text only
    image_rule: str = "latest"  # image only: "latest" or "aggregate"

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality {self.modality!r}")
        if self.modality == "image" and self.image_rule not in ("latest", "aggregate"):
            raise ValueError(f"unknown image rule {self.image_rule!r}")
        if self.dim <= 0:
            raise ValueError("embedding dim must be positive")
        if self.modality == "time-series":
            if self.n_series <= 0:
                raise ValueError("time-series source needs n_series")
            if self.dim != N_TS_FEATURES * self.n_series:
                raise ValueError(
                    f"time-series dim must be {N_TS_FEATURES} * n_series = "
                    f"{N_TS_FEATURES * self.n_series}, got {self.dim}")
        if self.modality == "image" and self.raw_dim <= 0:
            raise ValueError("image source needs raw_dim")
        if self.modality == "text" and self.token_vocab <= 0:
            raise ValueError("text source needs token_vocab")


# ---------------------------------------------------------------------------
# time-series features


def ts_features(values) -> np.ndarray:
    """Fixed 11-feature summary of one series, in this order:

    mean, population variance, min, max, mean consecutive difference
    (signed), mean absolute consecutive difference, max consecutive
    difference (signed), sum of absolute consecutive differences, last minus
    first, peak count, least-squares slope against indices 0..L-1.

    A peak is an interior sample strictly greater than both neighbors and
    strictly greater than the series median. Length-1 series get zeros for
    every difference-based feature, the variance, the peak count, and the
    slope. This is the one-series case of `timeseries_feature_matrix`.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"series must be a nonempty 1-D array, got shape {x.shape}")
    return timeseries_feature_matrix(np.array([[x.size]]), x)[0]


@dataclass
class FeatureStats:
    """Per-dimension mean and population std fitted on the training split."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError("stats must be matching 1-D vectors")
        if np.any(self.std < 0) or not np.all(np.isfinite(self.mean)):
            raise ValueError("invalid feature stats")


STD_FLOOR = 1e-12


def fit_feature_stats(matrix) -> FeatureStats:
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] == 0:
        raise ValueError(f"need a nonempty (records, features) matrix, got {m.shape}")
    return FeatureStats(mean=m.mean(axis=0), std=m.std(axis=0))


def apply_feature_stats(matrix, stats: FeatureStats) -> np.ndarray:
    """Z-score; dimensions whose fitted std is below 1e-12 map to zero."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.shape[-1] != stats.mean.size:
        raise ValueError(f"feature count {m.shape[-1]} does not match stats ({stats.mean.size})")
    safe = np.where(stats.std < STD_FLOOR, 1.0, stats.std)
    z = (m - stats.mean) / safe
    return np.where(stats.std < STD_FLOOR, 0.0, z)


def _piece_starts(lengths: np.ndarray, values, piece: str, empty: str) -> np.ndarray:
    """Offset of each `piece` that `lengths` cut from the flat `values`. No
    pieces, a piece of length 0 (a ValueError saying `empty`), or lengths
    that do not add up to the values are refused."""
    if lengths.size == 0:
        raise ValueError("no records to featurize")
    if np.any(lengths < 1):
        raise ValueError(empty)
    if len(values) != lengths.sum():
        raise ValueError(f"{piece} lengths add up to {lengths.sum()}, "
                         f"not to the {len(values)} given")
    return np.cumsum(lengths) - lengths


def timeseries_feature_matrix(lengths, values) -> np.ndarray:
    """(records, 11 * n_series) raw feature matrix for one source.

    `lengths` is the (records, n_series) table of series lengths and `values`
    every series' values, record by record in series order. Each feature of
    `ts_features` is a segmented reduction over the flat values, one pass for
    all series; a series' features read only its own values.
    """
    lengths = np.asarray(lengths)
    values = np.asarray(values, dtype=np.float64)
    if lengths.ndim != 2 or values.ndim != 1:
        raise ValueError(f"need a (records, n_series) length table and 1-D values, "
                         f"got shapes {lengths.shape} and {values.shape}")
    n = lengths.reshape(-1)
    starts = _piece_starts(n, values, "series", "series must be nonempty")
    if not np.all(np.isfinite(values)):
        raise ValueError("series contains non-finite values")
    last = starts + n - 1
    out = np.empty((n.size, N_TS_FEATURES))
    mean = np.add.reduceat(values, starts) / n
    centered = values - np.repeat(mean, n)
    out[:, 0] = mean
    out[:, 1] = np.add.reduceat(centered * centered, starts) / n  # population variance
    out[:, 2] = np.minimum.reduceat(values, starts)
    out[:, 3] = np.maximum.reduceat(values, starts)
    # d[i] = values[i + 1] - values[i] inside a series; the slot at a series'
    # last value holds 0 for the sums and the peaks, then -inf for the max
    d = np.diff(values, append=0.0)
    d[last] = 0.0
    steps = np.maximum(n - 1, 1)
    abs_sum = np.add.reduceat(np.abs(d), starts)
    out[:, 4] = np.add.reduceat(d, starts) / steps
    out[:, 5] = abs_sum / steps
    out[:, 7] = abs_sum
    out[:, 8] = values[last] - values[starts]
    # the median is (lo + hi) / 2 of each series' middle values once sorted;
    # a peak rises from the value before it and falls to the one after (the
    # sign of a difference of finite floats is that of their comparison)
    ranked = values[np.lexsort((values, np.repeat(np.arange(n.size), n)))]
    median = (ranked[starts + (n - 1) // 2] + ranked[starts + n // 2]) / 2
    rises = np.zeros(values.size, dtype=bool)
    rises[1:] = d[:-1] > 0
    out[:, 9] = np.add.reduceat(rises & (d < 0) & (values > np.repeat(median, n)), starts)
    d[last] = -np.inf
    out[:, 6] = np.where(n > 1, np.maximum.reduceat(d, starts), 0.0)
    # slope: centered indices i - (L - 1) / 2 are exact, and so is their sum of squares
    ic = (np.arange(values.size) - np.repeat(starts, n)) - np.repeat((n - 1) / 2, n)
    out[:, 10] = (np.add.reduceat(ic * centered, starts)
                  / np.where(n > 1, np.add.reduceat(ic * ic, starts), 1.0))
    return out.reshape(lengths.shape[0], -1)


# ---------------------------------------------------------------------------
# imaging screenings


def _screenings(counts, times, vectors) -> tuple:
    counts, times = np.asarray(counts), np.asarray(times, dtype=np.float64)
    starts = _piece_starts(counts, times, "screening", "record has no screenings")
    if times.shape != (len(vectors),):
        raise ValueError(f"{times.size} screening times for {len(vectors)} vectors")
    return counts, times, np.asarray(vectors, dtype=np.float64), starts


def latest_image(counts, times, vectors) -> np.ndarray:
    """(records, raw_dim): each record's screening vector with the greatest
    time (the last one on ties). Record i holds the next `counts[i]`
    screenings of `times` and the rows of `vectors`."""
    counts, times, vectors, starts = _screenings(counts, times, vectors)
    newest = times == np.repeat(np.maximum.reduceat(times, starts), counts)
    return vectors[np.maximum.reduceat(np.where(newest, np.arange(times.size), -1), starts)]


def aggregate_images(counts, times, vectors) -> np.ndarray:
    """(records, raw_dim) recency-weighted averages, cut as in `latest_image`:
    w_j = (t_j - min t) / max t over a record's screenings, divided by the
    weights' sum. When they sum to zero (single screening, equal times, or
    all times zero) the record's latest screening is returned instead.
    """
    counts, times, vectors, starts = _screenings(counts, times, vectors)
    t_max = np.maximum.reduceat(times, starts)
    w = ((times - np.repeat(np.minimum.reduceat(times, starts), counts))
         / np.repeat(np.where(t_max == 0.0, 1.0, t_max), counts))
    total = np.add.reduceat(w, starts)
    w /= np.repeat(np.where(total == 0.0, 1.0, total), counts)
    mean = np.add.reduceat(w[:, np.newaxis] * vectors, starts, axis=0)
    return np.where((total == 0.0)[:, np.newaxis], latest_image(counts, times, vectors), mean)


# ---------------------------------------------------------------------------
# stand-in encoders (fixed random linear maps)
#
# A stub is a pure function of (spec, seed), so each is drawn once and then
# shared, read-only, by every featurization call, for the life of the
# process (as `frozenlm.init_frozen` keeps its backbones).


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@functools.cache
def image_stub_matrix(spec: SourceSpec, seed: int) -> np.ndarray:
    if spec.modality != "image":
        raise ValueError(f"source {spec.name!r} is not an image source")
    gen = seeding.rng(seed, "image-stub", spec.source_id)
    return _read_only(gen.normal(0.0, 1.0 / np.sqrt(spec.raw_dim),
                                 size=(spec.dim, spec.raw_dim)))


@functools.cache
def text_stub_table(spec: SourceSpec, seed: int) -> np.ndarray:
    if spec.modality != "text":
        raise ValueError(f"source {spec.name!r} is not a text source")
    gen = seeding.rng(seed, "text-stub", spec.source_id)
    return _read_only(gen.normal(0.0, 1.0, size=(spec.token_vocab, spec.dim)))


def encode_text_with_table(table: np.ndarray, counts, token_ids) -> np.ndarray:
    """(records, dim) text embeddings: record i is the next `counts[i]` ids
    of `token_ids`, cut into chunks of 512; each chunk's token embeddings are
    averaged, then the chunk means. 600 tokens become chunks of 512 and 88."""
    counts, ids = np.asarray(counts), np.asarray(token_ids)
    starts = _piece_starts(counts, ids, "token", "token sequence must be nonempty")
    if np.any(ids < 0) or np.any(ids >= table.shape[0]):
        raise ValueError(f"token ids out of range [0, {table.shape[0]})")
    n_chunks = -(-counts // TEXT_CHUNK_TOKENS)
    first = np.cumsum(n_chunks) - n_chunks
    into = TEXT_CHUNK_TOKENS * (np.arange(n_chunks.sum()) - np.repeat(first, n_chunks))
    size = np.minimum(np.repeat(counts, n_chunks) - into, TEXT_CHUNK_TOKENS)
    chunks = np.add.reduceat(table[ids], np.repeat(starts, n_chunks) + into, axis=0)
    return np.add.reduceat(chunks / size[:, np.newaxis], first, axis=0) / n_chunks[:, np.newaxis]
