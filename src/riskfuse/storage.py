"""Dataset directory format and in-memory dataset container.

A dataset directory holds:
  manifest          JSON: version, record/task counts, task names, source
                    specs, mode, seed, and a generator echo
  labels.bin        n_records x n_tasks signed bytes (-1 unknown, 0, 1)
  patients.bin      n_records little-endian u32 patient ids
  src_<name>.bin    latent mode: one matrix container per source
  raw_<name>.bin    raw mode: per-source time-series or token payloads
  raw_screenings.bin raw mode: imaging events shared by the image sources

All payload encodings are flat little-endian binary with explicit counts,
so identical generator seeds produce byte-identical directories.
"""

from __future__ import annotations

import json
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensorfile
from .encoders import Screening, SourceSpec

__all__ = ["FORMAT_VERSION", "Dataset", "write_dataset", "load_dataset"]

FORMAT_VERSION = 1

MANIFEST = "manifest"
LABELS = "labels.bin"
PATIENTS = "patients.bin"


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


# what np.frombuffer says when a count or offset runs past the buffer
_SHORT_BUFFER = ("buffer is smaller than requested size", "offset must be non-negative")


@contextmanager
def payload_bounds(path):
    """Report a read past the end of the payload at `path` (struct's for a
    header or length prefix, numpy's for an array) as a ValueError."""
    try:
        yield
    except (struct.error, ValueError) as err:
        if isinstance(err, ValueError) and not str(err).startswith(_SHORT_BUFFER):
            raise
        raise ValueError(f"{path}: truncated payload") from None


def _write_ts(path, records: list) -> None:
    n_series = len(records[0]) if records else 0
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", len(records), n_series))
        for rec in records:
            if len(rec) != n_series:
                raise ValueError("inconsistent series count across records")
            for series in rec:
                arr = np.asarray(series, dtype="<f4")
                fh.write(struct.pack("<I", arr.size))
                fh.write(arr.tobytes())


def _read_ts(path) -> list:
    blob = Path(path).read_bytes()
    n_records, n_series = struct.unpack_from("<II", blob, 0)
    off = 8
    records = []
    for _ in range(n_records):
        rec = []
        for _ in range(n_series):
            (length,) = struct.unpack_from("<I", blob, off)
            off += 4
            rec.append(np.frombuffer(blob, dtype="<f4", count=length, offset=off)
                       .astype(np.float64))
            off += 4 * length
        records.append(rec)
    if off != len(blob):
        raise ValueError(f"{path}: trailing bytes in time-series payload")
    return records


def _write_screenings(path, records: list, raw_dim: int) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", len(records), raw_dim))
        for screenings in records:
            fh.write(struct.pack("<I", len(screenings)))
            for s in screenings:
                if s.vector.size != raw_dim:
                    raise ValueError("screening vector width mismatch")
                fh.write(struct.pack("<f", s.time))
                fh.write(np.asarray(s.vector, dtype="<f4").tobytes())


def _read_screenings(path) -> list:
    blob = Path(path).read_bytes()
    n_records, raw_dim = struct.unpack_from("<II", blob, 0)
    off = 8
    records = []
    for _ in range(n_records):
        (count,) = struct.unpack_from("<I", blob, off)
        off += 4
        items = []
        for _ in range(count):
            (t,) = struct.unpack_from("<f", blob, off)
            off += 4
            vec = np.frombuffer(blob, dtype="<f4", count=raw_dim, offset=off).astype(np.float64)
            off += 4 * raw_dim
            items.append(Screening(time=float(t), vector=vec))
        records.append(items)
    if off != len(blob):
        raise ValueError(f"{path}: trailing bytes in screenings payload")
    return records


def _write_tokens(path, records: list) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(records)))
        for ids in records:
            arr = np.asarray(ids, dtype="<u4")
            fh.write(struct.pack("<I", arr.size))
            fh.write(arr.tobytes())


def _read_tokens(path) -> list:
    blob = Path(path).read_bytes()
    (n_records,) = struct.unpack_from("<I", blob, 0)
    off = 4
    records = []
    for _ in range(n_records):
        (length,) = struct.unpack_from("<I", blob, off)
        off += 4
        records.append(np.frombuffer(blob, dtype="<u4", count=length, offset=off)
                       .astype(np.int64))
        off += 4 * length
    if off != len(blob):
        raise ValueError(f"{path}: trailing bytes in token payload")
    return records


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
    (out / LABELS).write_bytes(ds.labels.astype(np.int8).tobytes(order="C"))
    (out / PATIENTS).write_bytes(ds.patients.astype("<u4").tobytes(order="C"))
    if ds.mode == "latent":
        for s in ds.source_specs:
            tensorfile.write_matrix(out / f"src_{s.name}.bin", ds.embeddings[s.name])
    else:
        image_specs = [s for s in ds.source_specs if s.modality == "image"]
        if image_specs:
            _write_screenings(out / "raw_screenings.bin", ds.raw_screenings,
                              image_specs[0].raw_dim)
        for s in ds.source_specs:
            if s.modality == "time-series":
                _write_ts(out / f"raw_{s.name}.bin", ds.raw_timeseries[s.name])
            elif s.modality == "text":
                _write_tokens(out / f"raw_{s.name}.bin", ds.raw_tokens[s.name])
    return out


def load_dataset(path) -> Dataset:
    root = Path(path)
    manifest_path = root / MANIFEST
    if not manifest_path.exists():
        raise FileNotFoundError(f"{root}: not a dataset directory (missing {MANIFEST})")
    manifest = read_json(manifest_path)
    if manifest.get("format") != "riskfuse-dataset":
        raise ValueError(f"{manifest_path}: unrecognized dataset manifest")
    with manifest_keys(manifest_path):
        specs = read_source_specs(manifest_path, manifest["sources"])
        n = int(manifest["n_records"])
        k = int(manifest["n_tasks"])
        task_names = tuple(manifest["task_names"])
        mode = manifest["mode"]
        seed = int(manifest["seed"])
    labels = np.frombuffer((root / LABELS).read_bytes(), dtype=np.int8)
    if labels.size != n * k:
        raise ValueError(f"{root / LABELS}: expected {n * k} label bytes, got {labels.size}")
    labels = labels.astype(np.int64).reshape(n, k)
    patients = np.frombuffer((root / PATIENTS).read_bytes(), dtype="<u4")
    if patients.size != n:
        raise ValueError(f"{root / PATIENTS}: expected {n} patient ids, got {patients.size}")
    ds = Dataset(
        source_specs=specs,
        task_names=task_names,
        labels=labels,
        patients=patients.astype(np.int64),
        mode=mode,
        seed=seed,
        generator=manifest.get("generator", {}),
    )
    if ds.mode == "latent":
        ds.embeddings = {}
        for s in specs:
            emb = tensorfile.read_matrix(root / f"src_{s.name}.bin")
            if emb.shape != (n, s.dim):
                raise ValueError(f"source {s.name!r}: stored embeddings have shape {emb.shape}")
            ds.embeddings[s.name] = emb
    else:
        ds.raw_timeseries = {}
        ds.raw_tokens = {}
        for s in specs:
            payload = root / f"raw_{s.name}.bin"
            with payload_bounds(payload):
                if s.modality == "time-series":
                    ds.raw_timeseries[s.name] = _read_ts(payload)
                elif s.modality == "text":
                    ds.raw_tokens[s.name] = _read_tokens(payload)
        if any(s.modality == "image" for s in specs):
            payload = root / "raw_screenings.bin"
            with payload_bounds(payload):
                ds.raw_screenings = _read_screenings(payload)
    ds.validate()
    return ds
