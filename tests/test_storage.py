"""Dataset persistence tests: roundtrips in both modes, manifest validation,
file-level determinism."""

import json
import re

import numpy as np
import pytest

from riskfuse.datagen import build, planted_profile
from riskfuse.encoders import Screening, SourceSpec
from riskfuse.storage import (Dataset, dump_json, load_dataset, read_json,
                              write_dataset)


def _latent_ds(seed=0, n=40):
    return build(planted_profile(n_records=n, seed=seed))


def _raw_ds(seed=0, n=20):
    return build(planted_profile(n_records=n, seed=seed, mode="raw"))


def test_latent_roundtrip(tmp_path):
    ds = _latent_ds()
    write_dataset(ds, tmp_path)
    back = load_dataset(tmp_path)
    assert back.mode == "latent" and back.n_records == ds.n_records
    np.testing.assert_array_equal(back.labels, ds.labels)
    np.testing.assert_array_equal(back.patients, ds.patients)
    assert tuple(back.task_names) == tuple(ds.task_names)
    for s in ds.source_specs:
        stored = back.embeddings[s.name]
        np.testing.assert_array_equal(
            stored, ds.embeddings[s.name].astype(np.float32).astype(np.float64))


def test_raw_roundtrip(tmp_path):
    ds = _raw_ds()
    write_dataset(ds, tmp_path)
    back = load_dataset(tmp_path)
    assert back.mode == "raw"
    for name, records in ds.raw_timeseries.items():
        assert len(back.raw_timeseries[name]) == len(records)
        for got, want in zip(back.raw_timeseries[name], records):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w.astype(np.float32).astype(np.float64))
    for got, want in zip(back.raw_screenings, ds.raw_screenings):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.time == pytest.approx(w.time, rel=1e-6)
            np.testing.assert_array_equal(g.vector,
                                          w.vector.astype(np.float32).astype(np.float64))
    for got, want in zip(back.raw_tokens["txt"], ds.raw_tokens["txt"]):
        np.testing.assert_array_equal(got, want)


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


@pytest.mark.parametrize("fname", ["raw_lab.bin", "raw_txt.bin", "raw_screenings.bin"])
def test_every_truncation_of_a_raw_payload_names_the_file(tmp_path, fname):
    write_dataset(_raw_ds(n=3), tmp_path)
    path = tmp_path / fname
    blob = path.read_bytes()
    # every cut: inside the header, a length prefix, a time stamp or an array
    for keep in range(len(blob)):
        path.write_bytes(blob[:keep])
        with pytest.raises(ValueError, match=re.escape(f"{path}: truncated payload")):
            load_dataset(tmp_path)
    path.write_bytes(blob)
    load_dataset(tmp_path)


@pytest.mark.parametrize("key", ["n_records", "mode", "sources"])
def test_missing_manifest_key_names_the_manifest(tmp_path, key):
    write_dataset(_latent_ds(), tmp_path)
    manifest = read_json(tmp_path / "manifest")
    del manifest[key]
    dump_json(tmp_path / "manifest", manifest)
    with pytest.raises(ValueError,
                       match=re.escape(f"{tmp_path / 'manifest'}: missing key '{key}'")):
        load_dataset(tmp_path)


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
        embeddings=ds.embeddings,
    )
    with pytest.raises(ValueError):
        broken.validate()


def test_validate_catches_bad_label_values():
    ds = _latent_ds()
    labels = ds.labels.copy()
    labels[0, 0] = 7
    broken = Dataset(source_specs=ds.source_specs, task_names=ds.task_names,
                     labels=labels, patients=ds.patients, mode="latent",
                     seed=0, embeddings=ds.embeddings)
    with pytest.raises(ValueError):
        broken.validate()


def test_latent_mode_requires_embeddings():
    ds = _latent_ds()
    broken = Dataset(source_specs=ds.source_specs, task_names=ds.task_names,
                     labels=ds.labels, patients=ds.patients, mode="latent",
                     seed=0, embeddings=None)
    with pytest.raises(ValueError):
        broken.validate()


def test_validate_rejects_nonfinite_latent_embeddings():
    ds = _latent_ds()
    ds.embeddings["lab"] = ds.embeddings["lab"].copy()
    ds.embeddings["lab"][3, 1] = np.inf
    with pytest.raises(ValueError, match="source 'lab': embeddings contain non-finite"):
        ds.validate()


@pytest.mark.parametrize("source", ["proc", "xr", "txt"])
def test_validate_rejects_raw_payloads_of_the_wrong_length(source):
    ds = _raw_ds()
    if source == "proc":
        ds.raw_timeseries["proc"] = ds.raw_timeseries["proc"][:-1]
    elif source == "xr":    # screenings are shared; the first image source reports
        ds.raw_screenings = ds.raw_screenings[:-1]
    else:
        ds.raw_tokens["txt"] = ds.raw_tokens["txt"] + [np.array([1, 2])]
    with pytest.raises(ValueError, match=f"source '{source}': .* expected {ds.n_records}"):
        ds.validate()


def test_manifest_is_json_with_format_marker(tmp_path):
    write_dataset(_latent_ds(), tmp_path)
    manifest = json.loads((tmp_path / "manifest").read_text())
    assert manifest["format"].startswith("riskfuse")
    assert manifest["n_records"] == 40
