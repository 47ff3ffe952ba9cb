"""Dataset directory format and in-memory dataset container.

A dataset directory holds a JSON `manifest` (format version, record and
task counts, task names, source specs, mode, seed and a generator echo)
and binary files.
Each binary file is one or more consecutive numpy .npy arrays, written by
`save_arrays` and read back by `load_arrays`, which checks every array's
dtype and shape against the manifest:

  labels.bin          (n_records, n_tasks) int8: -1 unknown, 0, 1
  patients.bin        (n_records,) u32 patient ids

and one payload file per source, whose arrays `payload_layout` lists:

  src_<name>.bin      latent mode: (n_records, dim) float32 embeddings
  raw_<name>.bin      raw mode, time series: (n_records, n_series) u32
                      series lengths, then every value as one float32 array
                      raw mode, text: (n_records,) u32 token counts, then
                      every token id as one u32 array
  raw_screenings.bin  raw mode, shared by the image sources: (n_records,)
                      u32 screening counts, the float32 screening times, and
                      their (total, raw_dim) float32 vectors

A raw payload is a length table and the values it cuts, record by record
in row order. In memory a `Dataset` maps each source name to its own
read-only copies of the same arrays (the image sources to one shared
tuple), values as float64 rounded to the float32 its files store and
lengths and ids as int64, so a dataset is its saved copy; a copy made by
`dataclasses.replace` shares them. Arrays are little-endian. Identical
generator seeds produce byte-identical directories. A checkpoint is written
by the same `write_artifact` and read through the same `read_manifest` and
`load_arrays`, its parameters and stats as float64.

Each JSON value read back must be of a kind in `KINDS`: a manifest key
as `manifest_value` names it, a field of a config dataclass that `decode`
builds (a source spec, a training config) as its annotation names it.
"""

from __future__ import annotations

import json
import os
import shutil
import warnings
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from functools import cache, partial
from pathlib import Path
from tokenize import TokenError
from typing import Callable, get_type_hints

import numpy as np

from .encoders import SourceSpec, _read_only
from .losses import validate_labels

__all__ = ["FORMAT_VERSIONS", "MODES", "KINDS", "Dataset", "payload_layout", "gather_records",
           "decode", "write_dataset", "load_dataset", "save_arrays", "load_arrays",
           "check_replaceable", "write_artifact"]

FORMAT_VERSIONS = {"dataset": 2, "checkpoint": 3}
MODES = ("latent", "raw")

MANIFEST = "manifest"
LABELS = "labels.bin"
PATIENTS = "patients.bin"
LOCK = "run.lock"
SCREENINGS = "raw_screenings.bin"


def payload_layout(spec: SourceSpec, n: int, mode: str) -> tuple[str, dict]:
    """File name of a source's payload in a `mode` dataset of `n` records,
    and the on-disk (dtype, shape) of each of its arrays by name; None in a
    shape matches any length. The first array of a raw payload gives the
    length of each record's pieces of the arrays after it."""
    if mode == "latent":
        return f"src_{spec.name}.bin", {"embeddings": ("<f4", (n, spec.dim))}
    if spec.modality == "time-series":
        return f"raw_{spec.name}.bin", {"series lengths": ("<u4", (n, spec.n_series)),
                                        "series values": ("<f4", (None,))}
    if spec.modality == "text":
        return f"raw_{spec.name}.bin", {"token counts": ("<u4", (n,)),
                                        "token ids": ("<u4", (None,))}
    return SCREENINGS, {"screening counts": ("<u4", (n,)),
                        "screening times": ("<f4", (None,)),
                        "screening vectors": ("<f4", (None, spec.raw_dim))}


def gather_records(lengths: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
    """The length-table rows of the records `rows`, and one index into the
    values that the table cuts, which picks those records' pieces in order."""
    per_record = lengths.reshape(lengths.shape[0], -1).sum(axis=1)
    picked = per_record[rows]
    # record k's pieces are the picked[k] values from its offset in the table
    shift = (np.cumsum(per_record) - per_record)[rows] - (np.cumsum(picked) - picked)
    return lengths[rows], np.arange(picked.sum()) + np.repeat(shift, picked)


def _fits(arr: np.ndarray, shape) -> bool:
    return arr.ndim == len(shape) and all(want in (None, got)
                                          for want, got in zip(shape, arr.shape))


class _Payload(tuple):
    """A payload's arrays as a `Dataset` holds them: its own read-only copies,
    values rounded to the float32 their files store (held as float64),
    lengths and ids as int64."""

    @classmethod
    def of(cls, arrays) -> "_Payload":
        """`arrays` converted, or themselves if a dataset holds them already."""
        return arrays if type(arrays) is cls else cls(_read_only(
            arr.astype(np.float32, copy=False).astype(np.float64) if arr.dtype.kind == "f"
            else np.array(arr, dtype=np.int64)) for arr in arrays)


@dataclass
class Dataset:
    source_specs: tuple[SourceSpec, ...]
    task_names: tuple[str, ...]
    labels: np.ndarray                # (n, K) int, -1/0/1
    patients: np.ndarray              # (n,) int
    mode: str                         # "latent" | "raw"
    seed: int
    payloads: dict                    # name -> the arrays of its payload_layout
    generator: dict = field(default_factory=dict)
    # raw source name -> its feature memo entry (see
    # `pipeline._base_embeddings`); empty in every new or replaced copy
    _features: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # every payload as a `_Payload`, so the dataset is its saved copy and
        # no in-place write can put the feature memo out of step; shared
        # tuples (the image sources') stay shared
        stored = {id(arrays): _Payload.of(arrays) for arrays in self.payloads.values()}
        self.payloads = {name: stored[id(arrays)] for name, arrays in self.payloads.items()}

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

    def validate(self, root="") -> None:
        """Check labels, patients, task names and every source's payload; a
        message about the sources or task names names the manifest, and one
        about the labels or a payload its file, under the directory `root`."""
        if self.labels.ndim != 2 or self.labels.shape[0] != self.patients.shape[0]:
            raise ValueError("labels and patients disagree on the record count")
        manifest = Path(root) / MANIFEST
        if not self.source_specs or not self.n_tasks:
            raise ValueError(f"{manifest}: a dataset needs at least one source and one task, "
                             f"got {len(self.source_specs)} and {self.n_tasks}")
        if len(self.task_names) != self.n_tasks:
            raise ValueError(f"{manifest}: {len(self.task_names)} task names "
                             f"for {self.n_tasks} label columns")
        repeated = sorted({t for t in self.task_names if self.task_names.count(t) > 1})
        if repeated:
            raise ValueError(f"{manifest}: duplicate task names: {', '.join(repeated)}")
        try:
            validate_labels(self.labels)
        except ValueError as err:
            raise ValueError(f"{Path(root) / LABELS}: {err}") from None
        names = [s.name for s in self.source_specs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate source names")
        if self.mode not in MODES:
            raise ValueError(f"unknown dataset mode {self.mode!r}")
        if set(self.payloads) != set(names):
            raise ValueError("a dataset must carry a payload for every source, and no other")
        for s in self.source_specs:
            fname, layout = payload_layout(s, self.n_records, self.mode)
            where = f"{Path(root) / fname}: source {s.name!r}"
            arrays = self.payloads[s.name]
            if len(arrays) != len(layout):
                raise ValueError(f"{where}: {len(arrays)} arrays, expected {len(layout)}")
            for (what, (_, shape)), arr in zip(layout.items(), arrays):
                if not _fits(arr, shape):
                    raise ValueError(f"{where}: {what} of shape {arr.shape}, "
                                     f"expected {shape}")
                if arr.dtype.kind == "f" and not np.all(np.isfinite(arr)):
                    raise ValueError(f"{where}: {what} contain non-finite values")
                if what == "screening times" and np.any(arr < 0):
                    raise ValueError(f"{where}: screening times must be nonnegative")
                if what == "token ids" and np.any((arr < 0) | (arr >= s.token_vocab)):
                    raise ValueError(f"{where}: token ids out of range [0, {s.token_vocab})")
            lengths, *values = arrays
            what, *cut = layout
            if cut and np.any(lengths < 1):   # a length table cuts the arrays after it
                raise ValueError(f"{where}: {what} must be positive")
            for piece, arr in zip(cut, values):
                if lengths.sum() != len(arr):
                    raise ValueError(f"{where}: {what} add up to {int(lengths.sum())}, "
                                     f"not to the {len(arr)} {piece} stored")


# ---------------------------------------------------------------------------
# serialization helpers


def dump_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())


# what a decoded JSON value must be, as errors name it (a bool is not a number)
KINDS = {
    "an integer": lambda v: type(v) is int,
    "a count": lambda v: type(v) is int and v >= 0,
    "a number": lambda v: type(v) in (int, float),
    "a string": lambda v: type(v) is str,
    "a list": lambda v: type(v) is list,
    "a list of names": lambda v: type(v) is list and all(type(x) is str for x in v),
    "an object": lambda v: type(v) is dict,
    "an object of number lists": lambda v: type(v) is dict and all(
        type(x) is list and all(KINDS["a number"](y) for y in x) for x in v.values()),
    "latent or raw": lambda v: v in MODES,
}


def _checked(what: str, value, kind: str):
    if not KINDS[kind](value):
        raise ValueError(f"{what} must be {kind}, got {json.dumps(value)}")
    return value


def manifest_value(path, manifest: dict, key: str, kind: str):
    """`manifest[key]`, which must be `kind` (see KINDS); a missing key or a
    value of another kind is a ValueError naming the manifest at `path`."""
    if key not in manifest:
        raise ValueError(f"{path}: missing key {key!r}")
    return _checked(f"{path}: {key}", manifest[key], kind)


@cache
def _field_kinds(cls) -> dict:
    # each field's kind or dataclass; resolving annotations is slow, so once
    hints = get_type_hints(cls)
    named = {int: "an integer", float: "a number", str: "a string"}
    return {f.name: hints[f.name] if is_dataclass(hints[f.name]) else named[hints[f.name]]
            for f in fields(cls)}


def decode(cls, obj, where: str, complete: bool):
    """The config dataclass `cls` built from the decoded JSON object `obj`,
    dataclass fields included. A non-object, an unknown key or a value not
    of the kind its field's annotation names is a ValueError naming `where`,
    and so is a missing key if `complete`; otherwise it takes its default."""
    if not KINDS["an object"](obj):
        raise ValueError(f"{where} must be an object, got {type(obj).__name__}")
    kinds = _field_kinds(cls)
    unknown = sorted(set(obj) - set(kinds))
    if unknown:
        raise ValueError(f"unknown {where} keys: {', '.join(unknown)}")
    missing = sorted(set(kinds) - set(obj))
    if complete and missing:
        raise ValueError(f"missing {where} keys: {', '.join(missing)}")
    return cls(**{key: _checked(f"{where} key {key!r}", value, kinds[key])
                  if isinstance(kinds[key], str)
                  else decode(kinds[key], value, f"{where} {key}", complete)
                  for key, value in obj.items()})


def read_source_specs(path, items) -> tuple[SourceSpec, ...]:
    """Decode the source list of the manifest at `path`; a spec that lacks a
    field or holds an invalid one, or a name listed twice, is a ValueError
    naming the manifest."""
    try:
        specs = tuple(decode(SourceSpec, d, "source", complete=True) for d in items)
    except ValueError as err:
        raise ValueError(f"{path}: invalid sources: {err}") from None
    if len({s.name for s in specs}) != len(specs):
        raise ValueError(f"{path}: duplicate source names")
    return specs


def read_manifest(root, kind: str) -> tuple[Path, Callable]:
    """Path of the manifest of the `kind` ("dataset" or "checkpoint")
    directory at `root`, and its reader: `value(key, kind)` is
    `manifest_value` of that manifest. A manifest that is not a JSON object,
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
    version = manifest_value(path, manifest, "version", "an integer")
    if version != FORMAT_VERSIONS[kind]:
        raise ValueError(f"{path}: unsupported {kind} format version {version!r}")
    return path, partial(manifest_value, path, manifest)


def save_arrays(path, *arrays) -> None:
    """Write `arrays` to `path` as consecutive .npy arrays."""
    with open(path, "wb") as fh:
        for arr in arrays:
            np.save(fh, arr, allow_pickle=False)


def load_arrays(path, *expected) -> list[np.ndarray]:
    """Read the arrays `save_arrays` wrote to `path`, one per (dtype, shape)
    in `expected`; None in a shape matches any length. A short file, an
    array header that does not parse (or parses only through numpy's
    Python-2 header filter, which warns), trailing bytes, or an array of
    another dtype or shape is a ValueError naming the file."""
    arrays = []
    with open(path, "rb") as fh:
        for dtype, shape in expected:
            try:
                # not np.load, which opens a file starting with zip's magic
                # as an .npz archive; a header is Python literal syntax,
                # whose parser raises more than ValueError
                with warnings.catch_warnings():
                    warnings.simplefilter("error", UserWarning)
                    arr = np.lib.format.read_array(fh, allow_pickle=False)
            except (ValueError, SyntaxError, TokenError, UserWarning):
                raise ValueError(f"{path}: truncated or malformed payload") from None
            if arr.dtype != dtype or not _fits(arr, shape):
                raise ValueError(f"{path}: expected a {np.dtype(dtype)} array of shape "
                                 f"{shape}, got {arr.dtype} {arr.shape}")
            arrays.append(arr)
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after {len(expected)} arrays")
    return arrays


# ---------------------------------------------------------------------------
# directory read/write


def check_replaceable(out_dir, kind: str) -> None:
    """`out_dir` may receive a `kind` ("dataset" or "checkpoint") directory:
    it does not exist, or it is an empty directory, or it holds a `kind`
    manifest of any format version. Anything else is a ValueError naming it,
    since writing the directory replaces it whole."""
    out = Path(out_dir)
    if not out.exists():
        return
    if out.is_dir():
        if not any(out.iterdir()):
            return
        try:
            manifest = read_json(out / MANIFEST)
        except (OSError, ValueError):
            manifest = None
        if isinstance(manifest, dict) and manifest.get("format") == f"riskfuse-{kind}":
            return
    raise ValueError(f"{out}: exists and is not a {kind} directory, so it is not replaced")


def write_artifact(out_dir, kind: str, manifest: dict, files: dict,
                   lock: dict | None = None) -> Path:
    """Write the `kind` ("dataset" or "checkpoint") directory `out_dir` whole.

    `manifest`, stamped with the kind's format and version, each file of
    `files` (file name -> its arrays, see `save_arrays`) and `lock`, if
    given, as `run.lock` are written into a new sibling directory, which
    then takes the place of `out_dir`: no file of an earlier artifact
    survives, and a write that fails leaves `out_dir` as it was. `out_dir`
    must pass `check_replaceable`.
    """
    check_replaceable(out_dir, kind)
    target = Path(os.path.abspath(out_dir))
    tmp = target.with_name(f".{target.name}.{os.getpid()}.partial")
    tmp.mkdir(parents=True)
    try:
        dump_json(tmp / MANIFEST, {**manifest, "format": f"riskfuse-{kind}",
                                   "version": FORMAT_VERSIONS[kind]})
        for fname, arrays in files.items():
            save_arrays(tmp / fname, *arrays)
        if lock is not None:
            dump_json(tmp / LOCK, lock)
        if target.exists():
            shutil.rmtree(target)
        tmp.rename(target)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return Path(out_dir)


def write_dataset(ds: Dataset, out_dir, lock: dict | None = None) -> Path:
    """Write `ds` whole (see `write_artifact`), with `lock` as its
    `run.lock` if given."""
    ds.validate()
    manifest = {
        "n_records": ds.n_records,
        "n_tasks": ds.n_tasks,
        "task_names": list(ds.task_names),
        "mode": ds.mode,
        "seed": ds.seed,
        "sources": [asdict(s) for s in ds.source_specs],
        "generator": ds.generator,
    }
    files = {LABELS: [ds.labels.astype("i1")], PATIENTS: [ds.patients.astype("<u4")]}
    for s in ds.source_specs:   # the image sources share one file, so one entry
        fname, layout = payload_layout(s, ds.n_records, ds.mode)
        # converted as the file is written
        files[fname] = (arr.astype(dtype) for arr, (dtype, _)
                        in zip(ds.payloads[s.name], layout.values()))
    return write_artifact(out_dir, "dataset", manifest, files, lock)


def load_dataset(path) -> Dataset:
    root = Path(path)
    manifest_path, value = read_manifest(root, "dataset")
    specs = read_source_specs(manifest_path, value("sources", "a list"))
    n, k = value("n_records", "a count"), value("n_tasks", "a count")
    task_names = tuple(value("task_names", "a list of names"))
    mode, seed = value("mode", "latent or raw"), value("seed", "a count")
    generator = value("generator", "an object")
    labels = load_arrays(root / LABELS, ("i1", (n, k)))[0]
    patients = load_arrays(root / PATIENTS, ("<u4", (n,)))[0]
    files, payloads = {}, {}
    for s in specs:
        fname, layout = payload_layout(s, n, mode)
        if fname not in files:   # the image sources share one file
            # converted as it is read, so no file's arrays outlive its own
            files[fname] = _Payload.of(load_arrays(root / fname, *layout.values()))
        payloads[s.name] = files[fname]
    ds = Dataset(
        source_specs=specs,
        task_names=task_names,
        labels=labels.astype(np.int64),
        patients=patients.astype(np.int64),
        mode=mode,
        seed=seed,
        payloads=payloads,
        generator=generator,
    )
    ds.validate(root)
    return ds
