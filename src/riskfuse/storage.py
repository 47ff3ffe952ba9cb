"""Dataset directory format and in-memory dataset container.

A dataset directory holds a JSON `manifest` (format version, record and
task counts, task names, source specs, mode, seed and a generator echo)
and binary files. Each binary file is one or more consecutive numpy .npy
arrays, written by `save_arrays` and read back by `load_arrays`, which
checks every array's dtype and shape against the manifest:

  labels.bin          (n_records, n_tasks) int8: -1 unknown, 0, 1
  patients.bin        (n_records,) u32 patient ids
  src_<name>.bin      latent mode: (n_records, dim) float32 embeddings
  raw_<name>.bin      raw mode, time series: (n_records, n_series) u32
                      series lengths, then every value as one float32 array
                      raw mode, text: (n_records,) u32 token counts, then
                      every token id as one u32 array
  raw_screenings.bin  raw mode, shared by the image sources: (n_records,)
                      u32 screening counts, the float32 screening times, and
                      their (total, raw_dim) float32 vectors

Arrays are little-endian; values load as float64, ids as int64. Identical
generator seeds produce byte-identical directories. Checkpoints store their
parameters and stats through the same two functions, as float64.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .encoders import Screening, SourceSpec

__all__ = ["FORMAT_VERSION", "Dataset", "write_dataset", "load_dataset", "save_arrays",
           "load_arrays"]

FORMAT_VERSION = 2

MANIFEST = "manifest"
LABELS = "labels.bin"
PATIENTS = "patients.bin"
SCREENINGS = "raw_screenings.bin"


@dataclass
class Dataset:
    source_specs: tuple[SourceSpec, ...]
    task_names: tuple[str, ...]
    labels: np.ndarray                # (n, K) int, -1/0/1
    patients: np.ndarray              # (n,) int
    mode: str                         # "latent" | "raw"
    seed: int
    embeddings: dict | None = None            # latent: name -> (n, dim)
    raw_timeseries: dict | None = None        # raw: name -> [records][series] arrays
    raw_screenings: list | None = None        # raw: [records] -> [Screening, ...]
    raw_tokens: dict | None = None            # raw: name -> [records] id arrays
    generator: dict = field(default_factory=dict)

    @property
    def n_records(self) -> int:
        return int(self.labels.shape[0])

    @property
    def n_tasks(self) -> int:
        return int(self.labels.shape[1])

    def spec(self, name: str) -> SourceSpec:
        for s in self.source_specs:
            if s.name == name:
                return s
        raise KeyError(f"no source named {name!r}")

    def validate(self) -> None:
        if self.labels.ndim != 2 or self.labels.shape[0] != self.patients.shape[0]:
            raise ValueError("labels and patients disagree on the record count")
        if len(self.task_names) != self.n_tasks:
            raise ValueError("task name count does not match the label width")
        if not np.all(np.isin(self.labels, (-1, 0, 1))):
            raise ValueError("labels must be -1, 0, or 1")
        names = [s.name for s in self.source_specs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate source names")
        if self.mode == "latent":
            if self.embeddings is None or set(self.embeddings) != set(names):
                raise ValueError("latent dataset must carry embeddings for every source")
            for s in self.source_specs:
                e = self.embeddings[s.name]
                if e.shape != (self.n_records, s.dim):
                    raise ValueError(
                        f"source {s.name!r}: embeddings shape {e.shape} does not match "
                        f"({self.n_records}, {s.dim})")
                if not np.all(np.isfinite(e)):
                    raise ValueError(f"source {s.name!r}: embeddings contain non-finite values")
        elif self.mode == "raw":
            for s in self.source_specs:
                if s.modality == "time-series":
                    if self.raw_timeseries is None or s.name not in self.raw_timeseries:
                        raise ValueError(f"missing raw series for source {s.name!r}")
                    payload = self.raw_timeseries[s.name]
                elif s.modality == "image":
                    if self.raw_screenings is None:
                        raise ValueError("missing raw screenings")
                    payload = self.raw_screenings
                else:
                    if self.raw_tokens is None or s.name not in self.raw_tokens:
                        raise ValueError(f"missing raw tokens for source {s.name!r}")
                    payload = self.raw_tokens[s.name]
                # payloads are indexed by record number when featurizing
                if len(payload) != self.n_records:
                    raise ValueError(
                        f"source {s.name!r}: {len(payload)} raw {s.modality} records, "
                        f"expected {self.n_records}")
                if s.modality == "time-series" and any(len(r) != s.n_series for r in payload):
                    raise ValueError(f"source {s.name!r}: every record must hold "
                                     f"{s.n_series} series")
                if s.modality == "image" and any(sc.vector.shape != (s.raw_dim,)
                                                 for r in payload for sc in r):
                    raise ValueError(f"source {s.name!r}: every screening vector must "
                                     f"have length {s.raw_dim}")
        else:
            raise ValueError(f"unknown dataset mode {self.mode!r}")


# ---------------------------------------------------------------------------
# serialization helpers


def dump_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())


@contextmanager
def manifest_keys(path):
    """Report a key missing from the manifest at `path` as a ValueError."""
    try:
        yield
    except KeyError as err:
        raise ValueError(f"{path}: missing key {err.args[0]!r}") from None


def read_source_specs(path, items) -> tuple[SourceSpec, ...]:
    """Decode the source list of the manifest at `path`; a spec that lacks a
    field or holds an invalid one is a ValueError naming the manifest."""
    try:
        return tuple(SourceSpec.from_dict(d) for d in items)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{path}: invalid sources: {err}") from None


def read_manifest(root, kind: str) -> tuple[Path, dict]:
    """Path and contents of the manifest of the `kind` ("dataset" or
    "checkpoint") directory at `root`; a manifest that is not a JSON object,
    or is of another kind or format version, is a ValueError naming it."""
    path = Path(root) / MANIFEST
    if not path.exists():
        raise FileNotFoundError(f"{root}: not a {kind} directory (missing {MANIFEST})")
    try:
        manifest = read_json(path)
    except ValueError as err:  # invalid JSON or UTF-8
        raise ValueError(f"{path}: not a JSON manifest: {err}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != f"riskfuse-{kind}":
        raise ValueError(f"{path}: unrecognized {kind} manifest")
    with manifest_keys(path):
        version = manifest["version"]
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported {kind} format version {version!r}")
    return path, manifest


def save_arrays(path, *arrays) -> None:
    """Write `arrays` to `path` as consecutive .npy arrays."""
    with open(path, "wb") as fh:
        for arr in arrays:
            np.save(fh, arr, allow_pickle=False)


def load_arrays(path, *expected) -> list[np.ndarray]:
    """Read the arrays `save_arrays` wrote to `path`, one per (dtype, shape)
    in `expected`; None in a shape matches any length. A short or malformed
    file, trailing bytes, or an array of another dtype or shape is a
    ValueError naming the file."""
    arrays = []
    with open(path, "rb") as fh:
        for dtype, shape in expected:
            try:
                # not np.load, which opens a file starting with zip's magic
                # as an .npz archive
                arr = np.lib.format.read_array(fh, allow_pickle=False)
            except ValueError:
                raise ValueError(f"{path}: truncated payload") from None
            if arr.dtype != dtype or arr.ndim != len(shape) or any(
                    want not in (None, got) for want, got in zip(shape, arr.shape)):
                raise ValueError(f"{path}: expected a {np.dtype(dtype)} array of shape "
                                 f"{shape}, got {arr.dtype} {arr.shape}")
            arrays.append(arr)
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after {len(expected)} arrays")
    return arrays


def _concat(pieces, dtype) -> np.ndarray:
    """The pieces end to end, as one `dtype` array."""
    return np.concatenate([np.zeros(0, dtype), *pieces]).astype(dtype)


def _split(path, lengths, values) -> list:
    """`values` cut into consecutive pieces of the given `lengths`."""
    if int(lengths.sum()) != len(values):
        raise ValueError(f"{path}: lengths add up to {int(lengths.sum())}, "
                         f"not to the {len(values)} values stored")
    ends = np.cumsum(lengths.ravel()).tolist()
    return [values[start:end] for start, end in zip([0] + ends, ends)]


# ---------------------------------------------------------------------------
# directory read/write


def write_dataset(ds: Dataset, out_dir) -> Path:
    ds.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": "riskfuse-dataset",
        "version": FORMAT_VERSION,
        "n_records": ds.n_records,
        "n_tasks": ds.n_tasks,
        "task_names": list(ds.task_names),
        "mode": ds.mode,
        "seed": ds.seed,
        "sources": [s.to_dict() for s in ds.source_specs],
        "generator": ds.generator,
    }
    dump_json(out / MANIFEST, manifest)
    save_arrays(out / LABELS, ds.labels.astype("i1"))
    save_arrays(out / PATIENTS, ds.patients.astype("<u4"))
    for s in ds.source_specs:
        if ds.mode == "latent":
            save_arrays(out / f"src_{s.name}.bin", ds.embeddings[s.name].astype("<f4"))
        elif s.modality == "time-series":
            records = ds.raw_timeseries[s.name]
            series = [x for rec in records for x in rec]
            lengths = np.array([len(x) for x in series], "<u4").reshape(len(records), s.n_series)
            save_arrays(out / f"raw_{s.name}.bin", lengths, _concat(series, "<f4"))
        elif s.modality == "text":
            tokens = ds.raw_tokens[s.name]
            save_arrays(out / f"raw_{s.name}.bin", np.array([len(t) for t in tokens], "<u4"),
                        _concat(tokens, "<u4"))
    images = [s for s in ds.source_specs if s.modality == "image"]
    if ds.mode == "raw" and images:
        items = [sc for rec in ds.raw_screenings for sc in rec]
        vectors = np.array([sc.vector for sc in items], "<f4")
        save_arrays(out / SCREENINGS, np.array([len(rec) for rec in ds.raw_screenings], "<u4"),
                    np.array([sc.time for sc in items], "<f4"),
                    vectors.reshape(len(items), images[0].raw_dim))
    return out


def load_dataset(path) -> Dataset:
    root = Path(path)
    manifest_path, manifest = read_manifest(root, "dataset")
    with manifest_keys(manifest_path):
        specs = read_source_specs(manifest_path, manifest["sources"])
        n = int(manifest["n_records"])
        k = int(manifest["n_tasks"])
        task_names = tuple(manifest["task_names"])
        mode = manifest["mode"]
        seed = int(manifest["seed"])
    labels = load_arrays(root / LABELS, ("i1", (n, k)))[0]
    patients = load_arrays(root / PATIENTS, ("<u4", (n,)))[0]
    ds = Dataset(
        source_specs=specs,
        task_names=task_names,
        labels=labels.astype(np.int64),
        patients=patients.astype(np.int64),
        mode=mode,
        seed=seed,
        generator=manifest.get("generator", {}),
    )
    if ds.mode == "latent":
        ds.embeddings = {
            s.name: load_arrays(root / f"src_{s.name}.bin", ("<f4", (n, s.dim)))[0]
            .astype(np.float64) for s in specs}
    else:
        ds.raw_timeseries = {}
        ds.raw_tokens = {}
        for s in specs:
            payload = root / f"raw_{s.name}.bin"
            if s.modality == "time-series":
                lengths, values = load_arrays(payload, ("<u4", (n, s.n_series)), ("<f4", (None,)))
                series = _split(payload, lengths, values.astype(np.float64))
                ds.raw_timeseries[s.name] = [series[i:i + s.n_series]
                                             for i in range(0, len(series), s.n_series)]
            elif s.modality == "text":
                lengths, ids = load_arrays(payload, ("<u4", (n,)), ("<u4", (None,)))
                ds.raw_tokens[s.name] = _split(payload, lengths, ids.astype(np.int64))
        images = [s for s in specs if s.modality == "image"]
        if images:
            payload = root / SCREENINGS
            counts, times, vectors = load_arrays(payload, ("<u4", (n,)), ("<f4", (None,)),
                                                 ("<f4", (None, images[0].raw_dim)))
            ds.raw_screenings = [
                [Screening(time=float(t), vector=v) for t, v in zip(ts, vs)]
                for ts, vs in zip(_split(payload, counts, times),
                                  _split(payload, counts, vectors.astype(np.float64)))]
    ds.validate()
    return ds
