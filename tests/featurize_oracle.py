"""The per-record raw featurizer, as a reference.

`riskfuse.encoders` featurizes each raw source in one vectorized pass over
all requested records, with segmented reductions. This module keeps the
record-by-record form it replaced: one series, one record's screenings, one
record's tokens at a time, and one stub product per screening. The two sum
in different orders, so tests compare them within `atol = ATOL_SCALE *
max|oracle|` per source; min, max, last minus first and the peak count
agree exactly.
"""

import numpy as np

from riskfuse.encoders import (N_TS_FEATURES, TEXT_CHUNK_TOKENS, image_stub_matrix,
                               text_stub_table)

ATOL_SCALE = 1e-13
EXACT_TS_COLUMNS = (2, 3, 8, 9)   # min, max, last minus first, peak count


def ts_features(x) -> np.ndarray:
    """The 11 statistics of one series (see `riskfuse.encoders.ts_features`)."""
    x = np.asarray(x, dtype=np.float64)
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


def timeseries_features(records) -> np.ndarray:
    """(records, 11 * n_series) from a list of records, each a list of series."""
    return np.stack([np.concatenate([ts_features(x) for x in rec]) for rec in records])


def latest_image(times, vectors) -> np.ndarray:
    """Vector of one record's screening with the greatest time, the last on ties."""
    times = list(times)
    return np.array(vectors[len(times) - 1 - times[::-1].index(max(times))], dtype=np.float64)


def aggregate_images(times, vectors) -> np.ndarray:
    """One record's recency-weighted average, or its latest screening when the
    weights sum to zero."""
    times = np.asarray(times, dtype=np.float64)
    t_max = times.max()
    if t_max == 0.0:
        return latest_image(times, vectors)
    w = (times - times.min()) / t_max
    total = w.sum()
    if total == 0.0:
        return latest_image(times, vectors)
    return (w / total) @ np.stack(vectors)


def encode_text(table, ids) -> np.ndarray:
    """Mean over 512-token chunks of one record's mean token embeddings."""
    chunks = [table[ids[i:i + TEXT_CHUNK_TOKENS]].mean(axis=0)
              for i in range(0, len(ids), TEXT_CHUNK_TOKENS)]
    return np.stack(chunks).mean(axis=0)


def _cut(lengths, values) -> list:
    return np.split(values, np.cumsum(lengths.reshape(-1))[:-1])


def base_embeddings(dataset, rows, names) -> dict:
    """Per named source, the frozen-encoder embeddings of the raw `dataset`'s
    record `rows`, computed record by record."""
    base = {}
    for name in names:
        s = dataset.spec(name)
        lengths, *values = dataset.payloads[name]
        if s.modality == "time-series":
            series = _cut(lengths, values[0])
            k = s.n_series
            base[name] = timeseries_features([series[i * k:(i + 1) * k] for i in rows])
        elif s.modality == "image":
            stub = image_stub_matrix(s, dataset.seed)
            pick = latest_image if s.image_rule == "latest" else aggregate_images
            times, vectors = _cut(lengths, values[0]), _cut(lengths, values[1])
            base[name] = np.stack([pick(times[i], [stub @ v for v in vectors[i]])
                                   for i in rows])
        else:
            table = text_stub_table(s, dataset.seed)
            base[name] = np.stack([encode_text(table, ids)
                                   for ids in (_cut(lengths, values[0])[i] for i in rows)])
    return base
