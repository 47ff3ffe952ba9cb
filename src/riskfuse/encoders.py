"""Frozen per-source featurizers and embedding helpers.

Three modalities are supported. Clinical time series are summarized with a
fixed 11-statistic vector per series; a record's imaging screenings arrive
as their times and vectors, reduced to one embedding by recency rules; free
text arrives as token-id sequences averaged through a fixed embedding table. Nothing in
this module trains: the stand-in image/text encoders are seeded random
linear maps, deterministic given (source, seed).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import seeding

__all__ = [
    "N_TS_FEATURES",
    "TEXT_CHUNK_TOKENS",
    "check_fields",
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


def check_fields(cls, d, where: str, complete: bool) -> None:
    """Check a decoded JSON object against the fields of dataclass `cls`: a
    non-object or an unknown key is a ValueError, and so is a missing key if
    `complete` (a saved object must name every field)."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be an object, got {type(d).__name__}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(d) - names)
    if unknown:
        raise ValueError(f"unknown {where} keys: {', '.join(unknown)}")
    missing = sorted(names - set(d))
    if complete and missing:
        raise ValueError(f"missing {where} keys: {', '.join(missing)}")


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

    def to_dict(self) -> dict:
        """Manifest form, shared by dataset and checkpoint manifests."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> SourceSpec:
        """Inverse of `to_dict`; every field must be present."""
        check_fields(cls, d, "source", complete=True)
        return cls(**d)


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
    slope.
    """
    return _ts_feature_rows(_as_series(values)[np.newaxis])[0]


def _as_series(values) -> np.ndarray:
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"series must be a nonempty 1-D array, got shape {x.shape}")
    return x


def _ts_feature_rows(x: np.ndarray) -> np.ndarray:
    """`ts_features` of each row of an (m, L) matrix of equal-length series.

    Every reduction runs along the contiguous row axis, so each row sums in
    the same order as it would alone; the slope stays a per-row dot product
    because a matrix-vector product may accumulate in another order.
    """
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")
    m, length = x.shape
    out = np.zeros((m, N_TS_FEATURES))
    mean = x.mean(axis=1)
    out[:, 0] = mean
    out[:, 2] = x.min(axis=1)
    out[:, 3] = x.max(axis=1)
    if length == 1:
        return out
    out[:, 1] = x.var(axis=1)  # population variance
    d = np.diff(x, axis=1)
    abs_d = np.abs(d)
    out[:, 4] = d.mean(axis=1)
    out[:, 5] = abs_d.mean(axis=1)
    out[:, 6] = d.max(axis=1)
    out[:, 7] = abs_d.sum(axis=1)
    out[:, 8] = x[:, -1] - x[:, 0]
    if length >= 3:
        med = np.median(x, axis=1, keepdims=True)
        interior = x[:, 1:-1]
        peaks = (interior > x[:, :-2]) & (interior > x[:, 2:]) & (interior > med)
        out[:, 9] = np.count_nonzero(peaks, axis=1)
    idx = np.arange(length, dtype=np.float64)
    ic = idx - idx.mean()
    centered = x - mean[:, np.newaxis]
    out[:, 10] = np.array([ic @ row for row in centered]) / (ic @ ic)
    return out


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


def timeseries_feature_matrix(records) -> np.ndarray:
    """(records, 11 * n_series) raw feature matrix for one source.

    `records` is a list of records, each a list of per-series 1-D arrays in
    a fixed series order shared by every record. Series of equal length are
    featurized together, one numpy pass per length.
    """
    if not records:
        raise ValueError("no records to featurize")
    n_series = len(records[0])
    for i, rec in enumerate(records):
        if len(rec) != n_series:
            raise ValueError(f"record {i} has {len(rec)} series, expected {n_series}")
    series = [_as_series(x) for rec in records for x in rec]
    lengths = np.array([x.size for x in series])
    feats = np.empty((len(series), N_TS_FEATURES))
    for length in np.unique(lengths):
        pos = np.flatnonzero(lengths == length)
        feats[pos] = _ts_feature_rows(np.stack([series[p] for p in pos]))
    return feats.reshape(len(records), n_series * N_TS_FEATURES)


# ---------------------------------------------------------------------------
# imaging screenings


def _check_times(times, vectors) -> np.ndarray:
    times = np.asarray(times, dtype=np.float64)
    if times.size == 0:
        raise ValueError("record has no screenings")
    if times.shape != (len(vectors),):
        raise ValueError(f"{times.size} screening times for {len(vectors)} vectors")
    return times


def latest_image(times, vectors) -> np.ndarray:
    """Vector of the screening with the greatest time (the last one on ties),
    from one record's screening times and vectors."""
    times = _check_times(times, vectors).tolist()
    return np.array(vectors[len(times) - 1 - times[::-1].index(max(times))], dtype=np.float64)


def aggregate_images(times, vectors) -> np.ndarray:
    """Recency-weighted average: w_j = (t_j - min t) / max t, divided by the
    weights' sum. When they sum to zero (single screening, equal times, or
    all times zero) the latest screening is returned instead.
    """
    times = _check_times(times, vectors)
    t_max = times.max()
    if t_max == 0.0:
        return latest_image(times, vectors)
    w = (times - times.min()) / t_max
    total = w.sum()
    if total == 0.0:
        return latest_image(times, vectors)
    return (w / total) @ np.stack(vectors)


# ---------------------------------------------------------------------------
# stand-in encoders (fixed random linear maps)


def image_stub_matrix(spec: SourceSpec, seed: int) -> np.ndarray:
    if spec.modality != "image":
        raise ValueError(f"source {spec.name!r} is not an image source")
    gen = seeding.rng(seed, "image-stub", spec.source_id)
    return gen.normal(0.0, 1.0 / np.sqrt(spec.raw_dim), size=(spec.dim, spec.raw_dim))


def text_stub_table(spec: SourceSpec, seed: int) -> np.ndarray:
    if spec.modality != "text":
        raise ValueError(f"source {spec.name!r} is not a text source")
    gen = seeding.rng(seed, "text-stub", spec.source_id)
    return gen.normal(0.0, 1.0, size=(spec.token_vocab, spec.dim))


def encode_text_with_table(table: np.ndarray, token_ids) -> np.ndarray:
    """Chunk a token sequence, average token embeddings per chunk, then
    average the chunks. 600 tokens become chunks of 512 and 88."""
    ids = np.asarray(token_ids)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("token sequence must be a nonempty 1-D array")
    if np.any(ids < 0) or np.any(ids >= table.shape[0]):
        raise ValueError(f"token ids out of range [0, {table.shape[0]})")
    chunks = [table[ids[i:i + TEXT_CHUNK_TOKENS]].mean(axis=0)
              for i in range(0, ids.size, TEXT_CHUNK_TOKENS)]
    return np.stack(chunks).mean(axis=0)
