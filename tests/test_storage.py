"""Dataset persistence tests: roundtrips in both modes, manifest validation,
the one decoder of config dataclasses, file-level determinism."""

import dataclasses
import json
import re
from functools import partial

import numpy as np
import pytest

from riskfuse import datagen, storage
from riskfuse.datagen import build, planted_profile
from riskfuse.encoders import SourceSpec
from riskfuse.frozenlm import LMConfig
from riskfuse.losses import ASLConfig
from riskfuse.pipeline import TrainConfig, load_checkpoint, save_checkpoint, train
from riskfuse.projector import PARAM_NAMES
from riskfuse.storage import (Dataset, decode, dump_json, load_arrays, load_dataset,
                              read_json, save_arrays, write_dataset)


def _latent_ds(seed=0, n=40):
    return build(planted_profile(n_records=n, seed=seed))


def _raw_ds(seed=0, n=20):
    return build(planted_profile(n_records=n, seed=seed, mode="raw"))


def _table1_raw_ds(seed=0):
    return build(datagen.table1_profile(scale=0.002, seed=seed, mode="raw"))


@pytest.mark.parametrize("make", [_latent_ds, _raw_ds, _table1_raw_ds],
                         ids=["latent", "raw", "table1-raw"])
def test_roundtrip(tmp_path, make):
    # a built dataset is its saved copy, bit for bit
    ds = make()
    write_dataset(ds, tmp_path)
    back = load_dataset(tmp_path)
    assert back.mode == ds.mode and back.n_records == ds.n_records
    assert (back.seed, back.generator) == (ds.seed, ds.generator)
    np.testing.assert_array_equal(back.labels, ds.labels)
    np.testing.assert_array_equal(back.patients, ds.patients)
    assert tuple(back.task_names) == tuple(ds.task_names)
    assert set(back.payloads) == set(ds.payloads) == {s.name for s in ds.source_specs}
    if ds.mode == "raw":
        # the image sources share one payload, in memory as on disk
        assert back.payloads["xr"] is back.payloads["axr"]
        assert ds.payloads["xr"] is ds.payloads["axr"]
    for name, arrays in ds.payloads.items():
        assert len(back.payloads[name]) == len(arrays)
        for got, want in zip(back.payloads[name], arrays):
            # lengths, counts and ids as int64, values as float64
            assert got.dtype == want.dtype
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_a_hand_built_dataset_is_its_saved_copy(tmp_path):
    # a dataset made by the constructor from float64 values that float32
    # cannot hold, as a transformed dataset would be, holds them rounded as
    # its files store them: it reloads and trains exactly as it was
    ds = _latent_ds(seed=3, n=50)
    gen = np.random.default_rng(0)
    noisy = dataclasses.replace(ds, payloads={
        name: (emb + 1e-9 * gen.standard_normal(emb.shape),)
        for name, (emb,) in ds.payloads.items()})
    write_dataset(noisy, tmp_path)
    back = load_dataset(tmp_path)
    for name, (emb,) in noisy.payloads.items():
        assert back.payloads[name][0].tobytes() == emb.tobytes(), name
    cfg = TrainConfig(epochs=2, batch_size=16,
                      lm=LMConfig(d_model=48, n_layers=1, n_heads=2, vocab=16, max_seq=8))
    assert train(back, cfg).history == train(noisy, cfg).history


@pytest.mark.parametrize("make", [_latent_ds, _raw_ds], ids=["latent", "raw"])
@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
def test_payloads_are_read_only(tmp_path, make, loaded):
    # an in-place write would put the dataset's feature memo out of step
    ds = make()
    if loaded:
        write_dataset(ds, tmp_path)
        ds = load_dataset(tmp_path)
    for name, arrays in ds.payloads.items():
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
    assert ds.payloads["lab"][-1].dtype == np.float64


@pytest.mark.parametrize("make", [_latent_ds, _raw_ds], ids=["latent", "raw"])
def test_the_constructor_leaves_the_callers_arrays_writeable(make):
    # the dataset freezes its own copies, float and int64 arrays alike
    ds = make()
    given = {name: tuple(arr.copy() for arr in arrays) for name, arrays in ds.payloads.items()}
    copy = dataclasses.replace(ds, payloads=given)
    for name, arrays in given.items():
        for arr, held in zip(arrays, copy.payloads[name]):
            assert arr.flags.writeable and not held.flags.writeable
            assert not np.shares_memory(arr, held), name
    assert any(arr.dtype == np.int64 for arrays in given.values() for arr in arrays) == (
        ds.mode == "raw")
    # arrays a dataset holds already are shared, not copied again
    again = dataclasses.replace(copy)
    assert all(again.payloads[name] is copy.payloads[name] for name in given)


def test_source_specs_survive_roundtrip(tmp_path):
    ds = _latent_ds()
    write_dataset(ds, tmp_path)
    back = load_dataset(tmp_path)
    want = {(s.name, s.modality, s.dim, s.image_rule) for s in ds.source_specs}
    got = {(s.name, s.modality, s.dim, s.image_rule) for s in back.source_specs}
    assert want == got


def test_rewrite_is_byte_identical(tmp_path):
    ds = _latent_ds(seed=3)
    first, second = tmp_path / "a", tmp_path / "b"
    write_dataset(ds, first)
    write_dataset(load_dataset(first), second)
    for f in sorted(p.name for p in first.iterdir()):
        assert (first / f).read_bytes() == (second / f).read_bytes(), f


@pytest.mark.parametrize("write, old, new", [
    (write_dataset, partial(_latent_ds, n=3), partial(_raw_ds, n=3)),
    (save_checkpoint, lambda: _tiny_checkpoint(), lambda: _tiny_checkpoint()),
], ids=["dataset", "checkpoint"])
def test_a_failed_write_leaves_the_old_directory_and_no_temporary(tmp_path, monkeypatch,
                                                                  write, old, new):
    out = tmp_path / "data"
    write(old(), out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    artifact = new()

    def full_disk(path, *arrays):
        raise OSError(f"{path}: no space left on device")

    monkeypatch.setattr(storage, "save_arrays", full_disk)
    with pytest.raises(OSError, match="no space left"):
        write(artifact, out)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert [p.name for p in tmp_path.iterdir()] == ["data"]


def test_missing_manifest_rejected(tmp_path):
    with pytest.raises((FileNotFoundError, ValueError)):
        load_dataset(tmp_path / "nope")


def test_foreign_manifest_rejected(tmp_path):
    ds = _latent_ds()
    write_dataset(ds, tmp_path)
    manifest = read_json(tmp_path / "manifest")
    manifest["format"] = "something-else"
    dump_json(tmp_path / "manifest", manifest)
    with pytest.raises(ValueError):
        load_dataset(tmp_path)


def test_truncated_labels_rejected(tmp_path):
    ds = _latent_ds()
    write_dataset(ds, tmp_path)
    blob = (tmp_path / "labels.bin").read_bytes()
    (tmp_path / "labels.bin").write_bytes(blob[:-4])
    with pytest.raises(ValueError):
        load_dataset(tmp_path)


def _tiny_checkpoint():
    """A checkpoint small enough to cut at every byte: two latent sources of
    width 2 and 3 through a 4-wide backbone."""
    gen = np.random.default_rng(0)
    specs = (SourceSpec(0, "a", "text", 2, token_vocab=4),
             SourceSpec(1, "b", "text", 3, token_vocab=4))
    ds = Dataset(source_specs=specs, task_names=("t0", "t1"),
                 labels=gen.integers(-1, 2, size=(12, 2)), patients=np.arange(12),
                 mode="latent", seed=0,
                 payloads={s.name: (gen.standard_normal((12, s.dim)),) for s in specs})
    lm = LMConfig(d_model=4, n_layers=1, n_heads=1, vocab=8, max_seq=4)
    return train(ds, TrainConfig(epochs=1, batch_size=4, lm=lm))


def test_checkpoint_holds_one_file_per_source(tmp_path):
    out = save_checkpoint(_tiny_checkpoint(), tmp_path)
    assert sorted(p.name for p in out.iterdir()) == ["manifest", "src_a.bin", "src_b.bin"]
    manifest = read_json(out / "manifest")
    assert manifest["version"] == 3 and not {"params", "stats"} & set(manifest)
    manifest["version"] = 2
    dump_json(out / "manifest", manifest)
    with pytest.raises(ValueError, match=re.escape(
            f"{out / 'manifest'}: unsupported checkpoint format version 2")):
        load_checkpoint(out)


SOURCES = ("xr", "axr", "proc", "lab", "chart", "txt")
MALFORMED = "truncated or malformed payload"
# (directory, file) for every binary file; the raw dataset's ids are bare
# file names, the others are prefixed with their directory
BINARY_FILES = (
    [pytest.param("raw", f, id=f) for f in ("labels.bin", "patients.bin", "raw_screenings.bin")]
    + [pytest.param("raw", f"raw_{n}.bin", id=f"raw_{n}.bin") for n in SOURCES[2:]]
    + [pytest.param("latent", f, id=f"latent/{f}")
       for f in ["labels.bin", "patients.bin"] + [f"src_{n}.bin" for n in SOURCES]]
    + [pytest.param("checkpoint", f"src_{n}.bin", id=f"checkpoint/src_{n}.bin")
       for n in ("a", "b")])


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("artifacts")
    write_dataset(_raw_ds(n=3), root / "raw")
    write_dataset(_latent_ds(n=3), root / "latent")
    save_checkpoint(_tiny_checkpoint(), root / "checkpoint")
    return root


@pytest.mark.parametrize("directory, fname", BINARY_FILES)
def test_every_truncation_of_a_raw_payload_names_the_file(artifacts, directory, fname):
    load = load_checkpoint if directory == "checkpoint" else load_dataset
    path = artifacts / directory / fname
    blob = path.read_bytes()
    try:
        # every cut: inside a magic string, a header or an array's data
        for keep in range(len(blob)):
            path.write_bytes(blob[:keep])
            with pytest.raises(ValueError, match=re.escape(f"{path}: {MALFORMED}")):
                load(path.parent)
        path.write_bytes(blob + b"\0")
        with pytest.raises(ValueError, match=re.escape(f"{path}: trailing bytes")):
            load(path.parent)
    finally:
        path.write_bytes(blob)
    load(path.parent)


def _header_offsets(path):
    """Offsets of every byte of every array header (its magic string
    included) in a file that `save_arrays` wrote."""
    offsets = []
    size = path.stat().st_size
    with open(path, "rb") as fh:
        while fh.tell() < size:
            start = fh.tell()
            arr = np.lib.format.read_array(fh, allow_pickle=False)
            offsets.extend(range(start, fh.tell() - arr.nbytes))
    return offsets


def _arrays(artifact):
    """Every array a loaded dataset or checkpoint holds."""
    if isinstance(artifact, Dataset):
        return [artifact.labels, artifact.patients,
                *(arr for arrays in artifact.payloads.values() for arr in arrays)]
    return [arr for name, pp in artifact.projectors.items()
            for arr in (*(pp.value(p) for p in PARAM_NAMES), artifact.stats[name].mean,
                        artifact.stats[name].std)]


@pytest.mark.parametrize("directory, fname", BINARY_FILES)
def test_every_flipped_header_bit_loads_the_same_or_names_the_file(artifacts, directory,
                                                                  fname):
    load = load_checkpoint if directory == "checkpoint" else load_dataset
    path = artifacts / directory / fname
    blob = path.read_bytes()
    want = _arrays(load(path.parent))
    try:
        for offset in _header_offsets(path):
            for mask in (0x01, 0x10, 0x80):
                flipped = bytearray(blob)
                flipped[offset] ^= mask
                path.write_bytes(flipped)
                try:
                    got = _arrays(load(path.parent))
                except ValueError as err:
                    assert str(err).startswith(f"{path}: "), (offset, mask, err)
                    continue
                assert len(got) == len(want), (offset, mask)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and np.array_equal(g, w), (offset, mask)
    finally:
        path.write_bytes(blob)


def test_load_arrays_checks_each_dtype_and_shape(tmp_path):
    path = tmp_path / "a.bin"
    save_arrays(path, np.zeros((2, 3), "<f4"), np.arange(4, dtype="<u4"))
    first, second = load_arrays(path, ("<f4", (2, None)), ("<u4", (4,)))
    assert first.shape == (2, 3) and second.tolist() == [0, 1, 2, 3]
    for expected in [(("<f8", (2, 3)), ("<u4", (4,))),      # dtype
                     (("<f4", (2, 3, 1)), ("<u4", (4,))),   # ndim
                     (("<f4", (2, 3)), ("<u4", (5,)))]:     # length
        with pytest.raises(ValueError, match=re.escape(f"{path}: expected a ")):
            load_arrays(path, *expected)
    with pytest.raises(ValueError, match=re.escape(f"{path}: trailing bytes")):
        load_arrays(path, ("<f4", (2, 3)))


def test_load_arrays_reads_no_zip_archive(tmp_path):
    # np.load would open a file that starts with zip's magic as an .npz
    path = tmp_path / "a.bin"
    save_arrays(path, np.zeros(3, "<f4"))
    path.write_bytes(b"PK\x03\x04" + path.read_bytes()[4:])
    with pytest.raises(ValueError, match=re.escape(f"{path}: {MALFORMED}")):
        load_arrays(path, ("<f4", (3,)))


@pytest.mark.parametrize("shape", [b"(3L,),}", b"(3L), }"])
def test_load_arrays_refuses_a_python_2_header_without_a_warning(tmp_path, recwarn, capfd,
                                                                 shape):
    # numpy parses a `3L` length only through its Python-2 header filter,
    # which warns on stderr; the load refuses the file instead, quietly
    path = tmp_path / "a.bin"
    save_arrays(path, np.zeros(3, "<f4"))
    blob = path.read_bytes()
    assert blob.count(b"(3,), }") == 1
    path.write_bytes(blob.replace(b"(3,), }", shape))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {MALFORMED}")):
        load_arrays(path, ("<f4", (3,)))
    assert not recwarn.list
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("key", ["n_records", "mode", "sources"])
def test_missing_manifest_key_names_the_manifest(tmp_path, key):
    write_dataset(_latent_ds(), tmp_path)
    manifest = read_json(tmp_path / "manifest")
    del manifest[key]
    dump_json(tmp_path / "manifest", manifest)
    with pytest.raises(ValueError,
                       match=re.escape(f"{tmp_path / 'manifest'}: missing key '{key}'")):
        load_dataset(tmp_path)


# ---------------------------------------------------------------------------
# the one decoder of config dataclasses


@pytest.mark.parametrize("obj", [
    TrainConfig(mode="isolated", epochs=3, learning_rate=1e-3, asl=ASLConfig(0.1, 2.0),
                lm=LMConfig(d_model=32, n_layers=1, n_heads=4, vocab=64, max_seq=6, seed=5)),
    *datagen.SOURCES, LMConfig(vocab=16, seed=2), ASLConfig(margin=0.0, gamma_neg=1.5),
], ids=lambda obj: getattr(obj, "name", type(obj).__name__))
@pytest.mark.parametrize("complete", [True, False])
def test_decode_inverts_asdict(obj, complete):
    assert decode(type(obj), dataclasses.asdict(obj), "x", complete) == obj


# a value that a manifest key and a dataclass field of an integer kind refuse
@pytest.mark.parametrize("value, shown", [(1.5, "1.5"), (True, "true"), ("7", '"7"')])
@pytest.mark.parametrize("where", ["dataset-seed", "config-epochs", "source-dim"])
def test_a_value_of_the_wrong_kind_is_refused_in_the_same_words_everywhere(
        tmp_path, where, value, shown):
    if where == "dataset-seed":
        write_dataset(_latent_ds(n=6), tmp_path)
        manifest = read_json(tmp_path / "manifest")
        manifest["seed"] = value
        dump_json(tmp_path / "manifest", manifest)
        load, prefix = partial(load_dataset, tmp_path), f"{tmp_path / 'manifest'}: seed"
        kind = "a count"
    elif where == "config-epochs":
        load = partial(decode, TrainConfig, {"epochs": value}, "config", False)
        prefix, kind = "config key 'epochs'", "an integer"
    else:
        spec = dict(dataclasses.asdict(datagen.SOURCES[0]), dim=value)
        load, prefix = partial(decode, SourceSpec, spec, "source", True), "source key 'dim'"
        kind = "an integer"
    with pytest.raises(ValueError) as err:
        load()
    assert str(err.value) == f"{prefix} must be {kind}, got {shown}"


def test_dump_json_is_deterministic(tmp_path):
    payload = {"b": 2, "a": [1, 2], "nested": {"z": 1, "y": 2}}
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    dump_json(p1, payload)
    dump_json(p2, {"nested": {"y": 2, "z": 1}, "a": [1, 2], "b": 2})
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().endswith(b"\n")


def test_validate_catches_shape_mismatches():
    ds = _latent_ds()
    broken = Dataset(
        source_specs=ds.source_specs,
        task_names=ds.task_names,
        labels=ds.labels[:-1],
        patients=ds.patients,
        mode="latent",
        seed=0,
        payloads=ds.payloads,
    )
    with pytest.raises(ValueError):
        broken.validate()


def test_validate_catches_bad_label_values():
    ds = _latent_ds()
    labels = ds.labels.copy()
    labels[0, 0] = 7
    broken = Dataset(source_specs=ds.source_specs, task_names=ds.task_names,
                     labels=labels, patients=ds.patients, mode="latent",
                     seed=0, payloads=ds.payloads)
    with pytest.raises(ValueError):
        broken.validate()


@pytest.mark.parametrize("make", [_latent_ds, _raw_ds], ids=["latent", "raw"])
def test_validate_requires_a_payload_for_every_source_and_no_other(make):
    ds = make()
    payloads = dict(ds.payloads)
    del ds.payloads["lab"]
    with pytest.raises(ValueError, match="a payload for every source"):
        ds.validate()
    ds.payloads = dict(payloads, ghost=payloads["lab"])
    with pytest.raises(ValueError, match="a payload for every source"):
        ds.validate()


def test_validate_rejects_a_payload_with_a_missing_array():
    ds = _raw_ds()
    ds.payloads["txt"] = ds.payloads["txt"][:1]
    with pytest.raises(ValueError, match=re.escape("raw_txt.bin: source 'txt': 1 arrays, "
                                                   "expected 2")):
        ds.validate()


def test_validate_rejects_nonfinite_latent_embeddings():
    ds = _latent_ds()
    (embeddings,) = ds.payloads["lab"]
    embeddings = embeddings.copy()
    embeddings[3, 1] = np.inf
    ds.payloads["lab"] = (embeddings,)
    with pytest.raises(ValueError, match="source 'lab': embeddings contain non-finite"):
        ds.validate()


@pytest.mark.parametrize("source", ["proc", "xr", "txt"])
def test_validate_rejects_raw_payloads_of_the_wrong_length(source):
    ds = _raw_ds()
    lengths, *values = ds.payloads[source]
    ds.payloads[source] = (lengths[:-1], *values)
    # screenings are shared; the first image source reports
    with pytest.raises(ValueError, match=f"source '{source}': .* of shape "
                                         rf"\({ds.n_records - 1},.*expected \({ds.n_records},"):
        ds.validate()


def test_validate_rejects_raw_payloads_of_the_wrong_geometry():
    ds = _raw_ds()
    lengths, values = ds.payloads["lab"]
    ds.payloads["lab"] = (lengths[:, :-1], values)
    with pytest.raises(ValueError, match=re.escape("raw_lab.bin: source 'lab': series lengths "
                                                   "of shape (20, 3), expected (20, 4)")):
        ds.validate()
    ds = _raw_ds()
    counts, times, vectors = ds.payloads["xr"]
    ds.payloads["xr"] = ds.payloads["axr"] = (counts, times, vectors[:, :-1])
    with pytest.raises(ValueError, match=re.escape(
            f"raw_screenings.bin: source 'xr': screening vectors of shape "
            f"({len(vectors)}, 15), expected (None, 16)")):
        ds.validate()


def _damage(ds, name, position, value):
    """`ds` with entry 0 of array `position` of a source's payload set to `value`."""
    arrays = [arr.copy() for arr in ds.payloads[name]]
    arrays[position].flat[0] = value
    for s in ds.source_specs:
        if ds.payloads[s.name] is ds.payloads[name]:
            ds.payloads[s.name] = tuple(arrays)
    return ds


RAW_VALUE_DAMAGE = [
    ("proc", 1, np.nan, "raw_proc.bin: source 'proc': series values contain non-finite"),
    ("xr", 1, np.inf, "raw_screenings.bin: source 'xr': screening times contain non-finite"),
    ("xr", 2, np.nan, "raw_screenings.bin: source 'xr': screening vectors contain non-finite"),
    ("txt", 1, 64, "raw_txt.bin: source 'txt': token ids out of range [0, 64)"),
    ("lab", 0, 0, "raw_lab.bin: source 'lab': series lengths must be positive"),
    ("xr", 0, 0, "raw_screenings.bin: source 'xr': screening counts must be positive"),
]


@pytest.mark.parametrize("name, position, value, message", RAW_VALUE_DAMAGE,
                         ids=[m.split(": ", 1)[1] for *_, m in RAW_VALUE_DAMAGE])
def test_validate_rejects_raw_values_naming_the_source_and_file(name, position, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _damage(_raw_ds(), name, position, value).validate()


@pytest.mark.parametrize("name, message", [
    ("chart", "raw_chart.bin: source 'chart': series lengths add up to {}, not to the {} "
              "series values stored"),
    ("txt", "raw_txt.bin: source 'txt': token counts add up to {}, not to the {} token ids "
            "stored"),
    ("axr", "raw_screenings.bin: source 'xr': screening counts add up to {}, not to the {} "
            "screening times stored"),
], ids=["chart", "txt", "axr"])
def test_validate_rejects_lengths_that_miss_the_stored_values(name, message):
    ds = _raw_ds()
    total = int(ds.payloads[name][0].sum())
    _damage(ds, name, 0, ds.payloads[name][0].flat[0] + 1)
    with pytest.raises(ValueError, match=re.escape(message.format(total + 1, total))):
        ds.validate()


def test_manifest_is_json_with_format_marker(tmp_path):
    write_dataset(_latent_ds(), tmp_path)
    manifest = json.loads((tmp_path / "manifest").read_text())
    assert manifest["format"].startswith("riskfuse")
    assert manifest["n_records"] == 40
