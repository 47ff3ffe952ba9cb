"""Command-line behavior: in-process main() calls against temp directories,
covering the documented exit codes, lock files, and artifact formats, plus
one fresh interpreter where stderr must be exactly what a user sees."""

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from riskfuse import metrics, pipeline, storage
from riskfuse.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from riskfuse.metrics import metrics_for_run, read_metrics_csv, write_metrics_csv
from riskfuse.projector import PARAM_NAMES, ProjectorParams
from riskfuse.storage import dump_json, load_dataset, read_json

SMALL_LM = {"d_model": 48, "n_layers": 2, "n_heads": 2, "vocab": 32,
            "max_seq": 8, "seed": 0}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Dataset plus one trained checkpoint per mode, built through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["gen", "--profile", "planted", "--n-records", "80",
                 "--seed", "3", "--out", str(data)]) == EXIT_OK
    cfg = root / "train.json"
    cfg.write_text(json.dumps({"lm": SMALL_LM, "epochs": 1, "batch_size": 32}))
    joint = root / "joint"
    assert main(["train", "--data", str(data), "--out", str(joint),
                 "--config", str(cfg), "--seed", "1"]) == EXIT_OK
    iso = root / "iso"
    assert main(["train", "--data", str(data), "--out", str(iso),
                 "--config", str(cfg), "--mode", "isolated", "--seed", "1"]) == EXIT_OK
    return {"root": root, "data": data, "config": cfg, "joint": joint, "iso": iso}


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_dataset_and_lock(workspace, capsys):
    out = workspace["root"] / "gen2"
    assert main(["gen", "--profile", "planted", "--n-records", "40",
                 "--seed", "9", "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "wrote 40 records" in printed
    ds = load_dataset(out)
    assert ds.n_records == 40 and ds.seed == 9
    lock = json.loads((out / "run.lock").read_text())
    assert lock["profile"] == "planted"
    assert lock["n_records"] == 40
    assert lock["seed"] == 9
    assert lock["records_written"] == 40


def test_gen_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["gen", "--profile", "planted", "--n-records", "30",
                     "--seed", "4", "--out", str(out)]) == EXIT_OK
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


# sha256 of every file `gen --profile planted --n-records 30 --seed 2` writes, per
# mode; a change to the generator's draws or to the file format shows here
GEN_DIGESTS = {
    "latent": {
        "labels.bin": "60179503485567a2a883a6626d7178191bf5aae1cb36246a7956ecd5b2661350",
        "manifest": "61a82fdfbff5546380185f9936d56757e50124cd81aa3941a1927bd0cd7c6113",
        "patients.bin": "ba739d0d6981ce095bd5b0848e5a24aeaacb7ab6109bca7ab73a797f1fce3058",
        "run.lock": "b3270699eb73db425ca0098c9f28b2a49b5ea6767d5066c2d4785e25fb205149",
        "src_axr.bin": "a4028c8668cd58e045ae39854925f495d175df68758efa755bf48e0533755e89",
        "src_chart.bin": "751dd08d069c1a48c1ac7fa59762e5c79dffe8a3e41e551edda8ecefdc20639d",
        "src_lab.bin": "410fb8933cded1a917db688113c0715d577328466171d27c8d7012219602ebd3",
        "src_proc.bin": "eaefec12434bfd53880dbbbc07ddd9f9f3023678ec22baf43198268ba97a06e7",
        "src_txt.bin": "9d139394a259aadcb4a269c80e3ad0b05bbc0485d8194c21d970a73a81bfd656",
        "src_xr.bin": "99e5a5f10a930215bfee9fc6d2a75c552395dee04352ac70097752655191c783",
    },
    "raw": {
        "labels.bin": "60179503485567a2a883a6626d7178191bf5aae1cb36246a7956ecd5b2661350",
        "manifest": "fe74e79d2d655226a338e2c1099a07025315cb174debcbd7db9dfcd2ae8becf1",
        "patients.bin": "ba739d0d6981ce095bd5b0848e5a24aeaacb7ab6109bca7ab73a797f1fce3058",
        "raw_chart.bin": "a22e5ef214d2be58eb4d2725f446ba0e25a7d63a7e38f566aaa94ebe61d61e32",
        "raw_lab.bin": "fe286abdb19ae2f5f7146e8ab0241682bd649f6ec7623d9b6836a1469607d3fb",
        "raw_proc.bin": "ba501801e031f117c12222a010d251a45bbb06fdfcae796ff948108bc5a84ffb",
        "raw_screenings.bin": "d3a0119d28a4e6204a2eabd843a7a3db439d2b3147f19b81dea6b1f554f7485d",
        "raw_txt.bin": "81dad12904f695ec4131309178a2516834c346a0bbdf27a7236d1993393d8bb0",
        "run.lock": "46533cc0f1e81f35accbf76a429ca2fac2a474c77a7d797faf41c88c19b0d4c9",
    },
}


@pytest.mark.parametrize("mode", ["latent", "raw"])
def test_gen_writes_the_pinned_bytes(tmp_path, mode):
    out = tmp_path / mode
    assert main(["gen", "--profile", "planted", "--n-records", "30", "--seed", "2",
                 "--mode", mode, "--out", str(out)]) == EXIT_OK
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()} == GEN_DIGESTS[mode]


def test_gen_profile_flag_mismatches(tmp_path, capsys):
    out = str(tmp_path / "x")
    assert main(["gen", "--profile", "table1", "--n-records", "10",
                 "--out", out]) == EXIT_CONFIG
    assert "planted profile only" in capsys.readouterr().err
    assert main(["gen", "--profile", "planted", "--scale", "0.5",
                 "--out", out]) == EXIT_CONFIG
    assert main(["gen", "--profile", "nope", "--out", out]) == EXIT_CONFIG
    assert main(["gen", "--profile", "planted"]) == EXIT_CONFIG  # missing --out


def test_gen_rejects_bad_scale(tmp_path, capsys):
    # a profile's ValueError is one error line, as main prints any ValueError
    for flags, message in ((["--profile", "table1", "--scale", "0"], "scale must be positive"),
                           (["--profile", "table1", "--scale", "inf"],
                            "scale must be finite, got inf"),
                           (["--profile", "table1", "--scale", "nan"],
                            "scale must be finite, got nan"),
                           (["--profile", "planted", "--n-records", "0"],
                            "n_records must be positive"),
                           (["--profile", "planted", "--seed", "-1"],
                            "seed must be nonnegative, got -1")):
        assert main(["gen", *flags, "--out", str(tmp_path / "x")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x").exists()


def test_gen_over_another_dataset_leaves_only_its_own_files(tmp_path):
    # a dataset directory is written whole: no raw payload of the dataset it
    # replaces survives beside the latent files
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    gen = ["gen", "--profile", "planted", "--n-records", "30", "--seed", "2"]
    assert main(gen + ["--mode", "raw", "--out", str(out)]) == EXIT_OK
    assert any(p.name.startswith("raw_") for p in out.iterdir())
    assert main(gen + ["--out", str(out)]) == EXIT_OK
    assert main(gen + ["--out", str(fresh)]) == EXIT_OK
    assert ({p.name: p.read_bytes() for p in out.iterdir()}
            == {p.name: p.read_bytes() for p in fresh.iterdir()})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "out"]


# ---------------------------------------------------------------------------
# train


def test_train_leaves_checkpoint_and_lock(workspace, capsys):
    lock = json.loads((workspace["joint"] / "run.lock").read_text())
    assert lock["command"] == "train"
    assert lock["settings"]["epochs"] == 1
    assert lock["settings"]["seed"] == 1
    assert lock["settings"]["lm"]["d_model"] == 48
    assert (workspace["joint"] / "manifest").exists()


def test_train_over_an_old_checkpoint_leaves_only_its_own_files(workspace, tmp_path):
    # format 2 kept one file per parameter and per stats vector; a checkpoint
    # directory is written whole, so none of them survives
    out = tmp_path / "ckpt"
    shutil.copytree(workspace["iso"], out)
    manifest = read_json(out / "manifest")
    dump_json(out / "manifest", {**manifest, "version": 2})
    for name in ("param_xr_enc_w.bin", "stats_xr.bin"):
        (out / name).write_bytes(b"old")
    assert main(["train", "--data", str(workspace["data"]), "--out", str(out),
                 "--config", str(workspace["config"]), "--seed", "1"]) == EXIT_OK
    sources = [s["name"] for s in read_json(out / "manifest")["sources"]]
    assert (sorted(p.name for p in out.iterdir())
            == sorted(["manifest", "run.lock"] + [f"src_{n}.bin" for n in sources]))
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]


@pytest.mark.parametrize("command", ["gen", "train"])
@pytest.mark.parametrize("occupant", ["a notes file", "the other artifact"])
def test_an_out_directory_of_something_else_is_left_alone(workspace, tmp_path, capsys,
                                                          command, occupant):
    out = tmp_path / "out"
    if occupant == "a notes file":
        out.mkdir()
        (out / "notes.txt").write_text("keep me\n")
    else:
        shutil.copytree(workspace["iso" if command == "gen" else "data"], out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    args = {"gen": ["gen", "--profile", "planted", "--n-records", "30"],
            "train": ["train", "--data", str(workspace["data"]),
                      "--config", str(workspace["config"])]}[command]
    assert main(args + ["--out", str(out)]) == EXIT_CONFIG
    kind = "dataset" if command == "gen" else "checkpoint"
    assert f"{out}: exists and is not a {kind} directory" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("command", ["gen", "train"])
def test_a_failed_lock_write_leaves_out_as_it_was(workspace, tmp_path, capsys, monkeypatch,
                                                  command):
    # the lock is written inside the rename that puts the artifact in place,
    # so no artifact lands without its lock
    out = tmp_path / "out"
    shutil.copytree(workspace["data" if command == "gen" else "joint"], out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    real_dump_json = storage.dump_json

    def dump_json(path, payload):
        if path.name == "run.lock":
            raise OSError("no space left on device")
        real_dump_json(path, payload)

    monkeypatch.setattr(storage, "dump_json", dump_json)
    args = {"gen": ["gen", "--profile", "planted", "--n-records", "30"],
            "train": ["train", "--data", str(workspace["data"]),
                      "--config", str(workspace["config"]), "--epochs", "1"]}[command]
    assert main(args + ["--out", str(out)]) == EXIT_CONFIG
    assert "no space left on device" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_train_flag_overrides_config_file(workspace, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lm": SMALL_LM, "epochs": 2, "batch_size": 64}))
    out = tmp_path / "ckpt"
    assert main(["train", "--data", str(workspace["data"]), "--out", str(out),
                 "--config", str(cfg), "--epochs", "1"]) == EXIT_OK
    lock = json.loads((out / "run.lock").read_text())
    assert lock["settings"]["epochs"] == 1          # flag wins
    assert lock["settings"]["batch_size"] == 64     # file survives


def test_train_rejects_unknown_config_keys(workspace, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lm": SMALL_LM, "momentum": 0.9}))
    assert main(["train", "--data", str(workspace["data"]),
                 "--out", str(tmp_path / "c"), "--config", str(cfg)]) == EXIT_CONFIG
    assert "momentum" in capsys.readouterr().err

    cfg.write_text(json.dumps({"lm": dict(SMALL_LM, head_count=2)}))
    assert main(["train", "--data", str(workspace["data"]),
                 "--out", str(tmp_path / "c"), "--config", str(cfg)]) == EXIT_CONFIG
    assert "head_count" in capsys.readouterr().err


def test_train_rejects_malformed_config(workspace, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert main(["train", "--data", str(workspace["data"]),
                 "--out", str(tmp_path / "c"), "--config", str(cfg)]) == EXIT_CONFIG
    cfg.write_text("{not json")
    assert main(["train", "--data", str(workspace["data"]),
                 "--out", str(tmp_path / "c"), "--config", str(cfg)]) == EXIT_CONFIG
    assert main(["train", "--data", str(workspace["data"]),
                 "--out", str(tmp_path / "c"),
                 "--config", str(tmp_path / "absent.json")]) == EXIT_CONFIG


def test_train_missing_dataset(tmp_path, capsys):
    assert main(["train", "--data", str(tmp_path / "ghost"),
                 "--out", str(tmp_path / "c")]) == EXIT_CONFIG


def test_train_invalid_hyperparameter(workspace, tmp_path, capsys):
    assert main(["train", "--data", str(workspace["data"]),
                 "--out", str(tmp_path / "c"), "--config", str(workspace["config"]),
                 "--lr", "0"]) == EXIT_CONFIG
    assert "invalid training configuration" in capsys.readouterr().err


# every scalar TrainConfig field's flag, and a value other than its default
TRAIN_FLAGS = {"mode": ("--mode", "isolated"), "loss_kind": ("--loss", "avg"),
               "epochs": ("--epochs", 2), "batch_size": ("--batch-size", 16),
               "learning_rate": ("--lr", 1e-3), "weight_decay": ("--weight-decay", 1e-4),
               "beta": ("--beta", 5.0), "threshold": ("--threshold", 0.4),
               "split_ratio": ("--split-ratio", 0.7), "seed": ("--seed", 2)}


def test_every_scalar_config_field_has_a_train_flag_that_reaches_the_config(workspace,
                                                                            tmp_path):
    scalar = {f.name for f in dataclasses.fields(pipeline.TrainConfig)
              if not dataclasses.is_dataclass(f.default)}
    assert set(TRAIN_FLAGS) == scalar
    assert all(getattr(pipeline.TrainConfig(), name) != value
               for name, (_, value) in TRAIN_FLAGS.items())
    flags = [arg for flag, value in TRAIN_FLAGS.values() for arg in (flag, str(value))]
    out = tmp_path / "ckpt"
    assert main(["train", "--data", str(workspace["data"]), "--out", str(out),
                 "--config", str(workspace["config"])] + flags) == EXIT_OK
    settings = json.loads((out / "run.lock").read_text())["settings"]
    assert {name: settings[name] for name in TRAIN_FLAGS} == {
        name: value for name, (_, value) in TRAIN_FLAGS.items()}


# a training-config value of the wrong type for its field, or that training
# cannot run, at the top level and in lm and asl, with the message that
# names it
WRONG_TYPES = [
    ({"epochs": 2.5}, "config key 'epochs' must be an integer, got 2.5"),
    ({"epochs": True}, "config key 'epochs' must be an integer, got true"),
    ({"batch_size": 4.5}, "config key 'batch_size' must be an integer, got 4.5"),
    ({"seed": 1.5}, "config key 'seed' must be an integer, got 1.5"),
    ({"seed": 0.0}, "config key 'seed' must be an integer, got 0.0"),
    ({"beta": False}, "config key 'beta' must be a number, got false"),
    ({"mode": 1}, "config key 'mode' must be a string, got 1"),
    ({"lm": {"d_model": 64.0}}, "config lm key 'd_model' must be an integer, got 64.0"),
    ({"asl": {"margin": "0.05"}}, 'config asl key \'margin\' must be a number, got "0.05"'),
    # values that decode but cannot run; json writes a non-finite float as
    # a NaN or Infinity literal
    ({"learning_rate": float("inf")}, "learning_rate must be finite, got inf"),
    ({"weight_decay": float("nan")}, "weight_decay must be finite, got nan"),
    ({"beta": -float("inf")}, "beta must be finite, got -inf"),
    ({"asl": {"gamma_neg": float("nan")}}, "gamma_neg must be finite and nonnegative, got nan"),
    ({"seed": -1}, "seed must be nonnegative, got -1"),
    ({"lm": {"seed": -1}}, "lm seed must be nonnegative, got -1"),
]
WRONG_TYPE_IDS = ["epochs-float", "epochs-bool", "batch-float", "seed-float", "seed-zero-float",
                  "beta-bool", "mode-int", "lm-d-model-float", "asl-margin-string",
                  "lr-inf", "weight-decay-nan", "beta-minus-inf", "asl-gamma-neg-nan",
                  "seed-negative", "lm-seed-negative"]


@pytest.mark.parametrize("setting, message", WRONG_TYPES, ids=WRONG_TYPE_IDS)
def test_train_rejects_a_config_value_of_the_wrong_type(workspace, tmp_path, capsys,
                                                        setting, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lm": SMALL_LM, "epochs": 1, **setting}))
    assert main(["train", "--data", str(workspace["data"]),
                 "--out", str(tmp_path / "c"), "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: invalid training configuration: {message}\n"
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--lr", "nan", "learning_rate must be finite, got nan"),
    ("--lr", "inf", "learning_rate must be finite, got inf"),
    ("--weight-decay", "nan", "weight_decay must be finite, got nan"),
    ("--beta", "inf", "beta must be finite, got inf"),
    ("--seed", "-3", "seed must be nonnegative, got -3"),
    ("--mode", "bogus", "unknown training mode 'bogus'"),
    ("--loss", "bogus", "unknown loss kind 'bogus'"),
], ids=["lr-nan", "lr-inf", "weight-decay-nan", "beta-inf", "seed-negative", "mode-bogus",
        "loss-bogus"])
def test_train_refuses_an_unrunnable_flag(workspace, tmp_path, capsys, flag, value, message):
    assert main(["train", "--data", str(workspace["data"]), "--out", str(tmp_path / "c"),
                 "--config", str(workspace["config"]), flag, value]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: invalid training configuration: {message}\n"
    assert not (tmp_path / "c").exists()


# ---------------------------------------------------------------------------
# eval


def test_eval_prints_table_and_writes_csv(workspace, tmp_path, capsys):
    out = tmp_path / "joint.csv"
    assert main(["eval", "--data", str(workspace["data"]),
                 "--ckpt", str(workspace["joint"]), "--protocol", "joint",
                 "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "precision" in printed and "task0" in printed
    rows = read_metrics_csv(out)
    assert {r["run"] for r in rows} == {"joint"}
    assert len(rows) == 8
    lock = json.loads((tmp_path / "joint.csv.lock").read_text())
    assert lock["protocol"] == "joint"
    assert lock["threshold"] == 0.5


def test_eval_threshold_override_lands_in_lock(workspace, tmp_path):
    out = tmp_path / "m.csv"
    assert main(["eval", "--data", str(workspace["data"]),
                 "--ckpt", str(workspace["joint"]), "--protocol", "joint",
                 "--threshold", "0.4", "--out", str(out)]) == EXIT_OK
    lock = json.loads((tmp_path / "m.csv.lock").read_text())
    assert lock["threshold"] == 0.4


def test_eval_bss_reports_selection(workspace, capsys):
    assert main(["eval", "--data", str(workspace["data"]),
                 "--ckpt", str(workspace["iso"]), "--protocol", "bss"]) == EXIT_OK
    assert "selected sources:" in capsys.readouterr().out


def test_eval_bss_selects_at_the_threshold_override(workspace, tmp_path, capsys):
    dataset = load_dataset(workspace["data"])
    ckpt = pipeline.load_checkpoint(workspace["iso"])
    train_idx, _ = pipeline.split_by_patient(dataset.patients, ckpt.config.split_ratio,
                                             ckpt.config.seed)
    _, val = pipeline.split_by_patient(dataset.patients[train_idx],
                                       pipeline.BSS_VALIDATION_RATIO, ckpt.config.seed)
    picked = pipeline.bss_select(ckpt, dataset, train_idx[val], threshold=0.45).assignment
    # the override moves the selection on this checkpoint
    assert picked != pipeline.bss_select(ckpt, dataset, train_idx[val]).assignment
    out = tmp_path / "bss.csv"
    assert main(["eval", "--data", str(workspace["data"]), "--ckpt", str(workspace["iso"]),
                 "--protocol", "bss", "--threshold", "0.45", "--out", str(out)]) == EXIT_OK
    picks = ", ".join(f"{t}={s or '-'}" for t, s in picked.items())
    assert f"selected sources: {picks}\n" in capsys.readouterr().out
    assert json.loads((tmp_path / "bss.csv.lock").read_text())["threshold"] == 0.45


@pytest.mark.parametrize("seed, records, patients", [(1, 6, 4), (4, 7, 1)])
def test_eval_bss_on_a_split_too_small_to_validate_is_an_input_error(
        tmp_path, capsys, seed, records, patients):
    data, ckpt = tmp_path / "data", tmp_path / "iso"
    assert main(["gen", "--profile", "planted", "--n-records", "8", "--seed", str(seed),
                 "--out", str(data)]) == EXIT_OK
    assert main(["train", "--data", str(data), "--out", str(ckpt), "--mode", "isolated",
                 "--epochs", "1"]) == EXIT_OK
    capsys.readouterr()
    assert main(["eval", "--data", str(data), "--ckpt", str(ckpt),
                 "--protocol", "bss"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: bss needs a validation slice of the training split, which is too small "
        f"for one: {records} records, {patients} patient(s)\n")


def test_eval_protocol_checkpoint_mismatch(workspace, capsys):
    assert main(["eval", "--data", str(workspace["data"]),
                 "--ckpt", str(workspace["joint"]), "--protocol", "iso-joint"]) \
        == EXIT_CONFIG
    assert main(["eval", "--data", str(workspace["data"]),
                 "--ckpt", str(workspace["iso"]), "--protocol", "joint"]) == EXIT_CONFIG
    assert main(["eval", "--data", str(workspace["data"]),
                 "--ckpt", str(workspace["joint"]), "--protocol", "single:ghost"]) \
        == EXIT_CONFIG


def _edit_manifest(workspace, tmp_path, artifact, key, value):
    """A copy of a workspace artifact whose manifest has `key` deleted (value
    None) or set to the first item of the tuple `value`."""
    broken = tmp_path / artifact
    shutil.copytree(workspace[artifact], broken)
    manifest = read_json(broken / "manifest")
    if value is None:
        del manifest[key]
    else:
        manifest[key] = value[0]
    dump_json(broken / "manifest", manifest)
    return broken


def _manifest_error(broken, key, value) -> str:
    message = f"missing key {key!r}" if value is None else f"{key} must be "
    return f"error: {broken / 'manifest'}: {message}"


# every key a loader reads from its manifest (besides "format"), with a value
# of the wrong type for it
DATASET_KEYS = {"version": "2", "sources": {}, "n_records": None, "n_tasks": -1,
                "task_names": 5, "mode": 5, "seed": "x", "generator": 5}
CHECKPOINT_KEYS = {"version": 3.0, "train_config": 5, "weights_hash": 5, "task_names": 5,
                   "designated": [], "sources": 5, "dataset_mode": "pixels",
                   "dataset_seed": None, "history": 5}


@pytest.mark.parametrize("key", DATASET_KEYS)
@pytest.mark.parametrize("edit", ["deleted", "wrong-type"])
def test_a_dataset_manifest_key_missing_or_of_the_wrong_type_names_the_manifest(
        workspace, tmp_path, capsys, key, edit):
    value = None if edit == "deleted" else (DATASET_KEYS[key],)
    broken = _edit_manifest(workspace, tmp_path, "data", key, value)
    assert main(["train", "--data", str(broken), "--out", str(tmp_path / "c"),
                 "--config", str(workspace["config"])]) == EXIT_CONFIG
    assert _manifest_error(broken, key, value) in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda names: names[:-1], "7 task names for 8 label columns"),
    (lambda names: ["a"] * len(names), "duplicate task names: a"),
    (lambda names: [names[0], *names[:-1]], "duplicate task names: "),
], ids=["one-short", "all-equal", "one-repeated"])
def test_train_refuses_task_names_that_miss_the_labels_or_repeat(workspace, tmp_path, capsys,
                                                                 edit, message):
    broken = tmp_path / "data"
    shutil.copytree(workspace["data"], broken)
    manifest = read_json(broken / "manifest")
    assert len(manifest["task_names"]) == 8
    if message.endswith(": "):
        message += manifest["task_names"][0]
    manifest["task_names"] = edit(manifest["task_names"])
    dump_json(broken / "manifest", manifest)
    assert main(["train", "--data", str(broken), "--out", str(tmp_path / "c"),
                 "--config", str(workspace["config"])]) == EXIT_CONFIG
    assert f"error: {broken / 'manifest'}: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("empty", ["sources", "tasks"])
@pytest.mark.parametrize("mode", ["joint", "isolated"])
def test_train_refuses_a_dataset_with_no_sources_or_no_tasks(workspace, tmp_path, capsys,
                                                             empty, mode):
    broken = tmp_path / "data"
    shutil.copytree(workspace["data"], broken)
    manifest = read_json(broken / "manifest")
    if empty == "sources":
        manifest["sources"] = []
    else:
        manifest.update(n_tasks=0, task_names=[])
        storage.save_arrays(broken / "labels.bin",
                            np.zeros((manifest["n_records"], 0), dtype="i1"))
    dump_json(broken / "manifest", manifest)
    out = tmp_path / "c"
    assert main(["train", "--mode", mode, "--data", str(broken), "--out", str(out),
                 "--config", str(workspace["config"])]) == EXIT_CONFIG
    counts = "0 and 8" if empty == "sources" else "6 and 0"
    assert capsys.readouterr().err == (f"error: {broken / 'manifest'}: a dataset needs at "
                                       f"least one source and one task, got {counts}\n")
    assert not out.exists()


@pytest.mark.parametrize("key", ["sources", "task_names"])
@pytest.mark.parametrize("protocol", ["iso-joint", "bss"])
def test_eval_refuses_a_checkpoint_with_no_sources_or_no_tasks(workspace, tmp_path, capsys,
                                                               key, protocol):
    broken = _edit_manifest(workspace, tmp_path, "iso", key, ([],))
    out = tmp_path / "metrics.csv"
    assert main(["eval", "--data", str(workspace["data"]), "--ckpt", str(broken),
                 "--protocol", protocol, "--out", str(out)]) == EXIT_CONFIG
    counts = "0 and 8" if key == "sources" else "6 and 0"
    assert capsys.readouterr().err == (f"error: {broken / 'manifest'}: a checkpoint needs at "
                                       f"least one source and one task, got {counts}\n")
    assert not out.exists()


@pytest.mark.parametrize("artifact", ["data", "iso"])
def test_a_manifest_listing_a_source_twice_is_refused_naming_it(workspace, tmp_path, capsys,
                                                               artifact):
    # a checkpoint feeds its sources in the order it lists them, so a
    # repeated one would be fed twice
    sources = read_json(workspace[artifact] / "manifest")["sources"]
    broken = _edit_manifest(workspace, tmp_path, artifact, "sources", ([*sources, sources[2]],))
    if artifact == "data":
        command = ["train", "--data", str(broken), "--out", str(tmp_path / "c"),
                   "--config", str(workspace["config"])]
    else:
        command = ["eval", "--data", str(workspace["data"]), "--ckpt", str(broken),
                   "--protocol", "iso-joint"]
    assert main(command) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {broken / 'manifest'}: duplicate source names\n"


def test_train_refuses_a_label_outside_the_three_values_naming_labels_bin(workspace, tmp_path,
                                                                          capsys):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    [labels] = storage.load_arrays(data / "labels.bin", ("i1", (None, None)))
    labels[3, 1] = 7
    storage.save_arrays(data / "labels.bin", labels)
    out = tmp_path / "c"
    assert main(["train", "--data", str(data), "--out", str(out),
                 "--config", str(workspace["config"])]) == EXIT_CONFIG
    assert capsys.readouterr().err == (f"error: {data / 'labels.bin'}: labels must be "
                                       f"-1 (unknown), 0, or 1\n")
    assert not out.exists()


@pytest.mark.parametrize("key", CHECKPOINT_KEYS)
@pytest.mark.parametrize("edit", ["deleted", "wrong-type"])
def test_a_checkpoint_manifest_key_missing_or_of_the_wrong_type_names_the_manifest(
        workspace, tmp_path, capsys, key, edit):
    value = None if edit == "deleted" else (CHECKPOINT_KEYS[key],)
    broken = _edit_manifest(workspace, tmp_path, "iso", key, value)
    assert main(["eval", "--data", str(workspace["data"]), "--ckpt", str(broken),
                 "--protocol", "bss"]) == EXIT_CONFIG
    assert _manifest_error(broken, key, value) in capsys.readouterr().err


def test_train_rejects_a_negative_dataset_seed_naming_the_manifest(raw_workspace, workspace,
                                                                   tmp_path, capsys):
    # raw featurization draws from the seed, so a negative one must stop at the manifest
    data = tmp_path / "raw"
    shutil.copytree(raw_workspace, data)
    dump_json(data / "manifest", {**read_json(data / "manifest"), "seed": -1})
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "c"),
                 "--config", str(workspace["config"])]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"error: {data / 'manifest'}: seed must be a count, got -1\n"


def test_eval_rejects_a_negative_checkpoint_dataset_seed_naming_the_manifest(workspace,
                                                                             tmp_path, capsys):
    broken = _edit_manifest(workspace, tmp_path, "iso", "dataset_seed", (-1,))
    assert main(["eval", "--data", str(workspace["data"]), "--ckpt", str(broken),
                 "--protocol", "bss"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"error: {broken / 'manifest'}: dataset_seed must be a count, got -1\n"


@pytest.mark.parametrize("where", [(), ("lm",), ("asl",)])
def test_eval_rejects_a_checkpoint_config_with_an_unknown_key(workspace, tmp_path, capsys,
                                                              where):
    broken = tmp_path / "iso"
    shutil.copytree(workspace["iso"], broken)
    manifest = read_json(broken / "manifest")
    section = manifest["train_config"]
    for key in where:
        section = section[key]
    section["bogus"] = 1
    dump_json(broken / "manifest", manifest)
    assert main(["eval", "--data", str(workspace["data"]), "--ckpt", str(broken),
                 "--protocol", "bss"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{broken / 'manifest'}: invalid train_config" in err and "bogus" in err


@pytest.mark.parametrize("setting, message", WRONG_TYPES, ids=WRONG_TYPE_IDS)
def test_eval_rejects_a_checkpoint_config_value_of_the_wrong_type(workspace, tmp_path, capsys,
                                                                  setting, message):
    broken = tmp_path / "iso"
    shutil.copytree(workspace["iso"], broken)
    manifest = read_json(broken / "manifest")
    for key, value in setting.items():
        if isinstance(value, dict):
            manifest["train_config"][key].update(value)
        else:
            manifest["train_config"][key] = value
    dump_json(broken / "manifest", manifest)
    assert main(["eval", "--data", str(workspace["data"]), "--ckpt", str(broken),
                 "--protocol", "bss"]) == EXIT_CONFIG
    assert (capsys.readouterr().err
            == f"error: {broken / 'manifest'}: invalid train_config: {message}\n")


@pytest.mark.parametrize("history", [
    {"isolated": "x", "other": [1, "a"]}, {"isolated": [0.5, True]}, {"isolated": [[0.5]]},
    {"isolated": None}, [[0.5]],
], ids=["string-and-mixed", "bool", "nested", "null", "list"])
def test_eval_refuses_a_checkpoint_history_that_is_not_number_lists(workspace, tmp_path, capsys,
                                                                    history):
    broken = _edit_manifest(workspace, tmp_path, "iso", "history", (history,))
    assert main(["eval", "--data", str(workspace["data"]), "--ckpt", str(broken),
                 "--protocol", "bss"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (f"error: {broken / 'manifest'}: history must be an "
                                       f"object of number lists, got {json.dumps(history)}\n")


@pytest.mark.parametrize("damage,message", [
    # seed 0 is also the default, so only the missing-field check sees this
    (lambda m: m["train_config"]["lm"].pop("seed"),
     "invalid train_config: missing config lm keys: seed"),
    (lambda m: m["train_config"].pop("beta"), "invalid train_config: missing config keys: beta"),
    (lambda m: m["train_config"]["lm"].update(seed=3), "backbone weights hash"),
    (lambda m: m.update(weights_hash="0" * 64), "backbone weights hash"),
], ids=["lm-seed-deleted", "beta-deleted", "lm-seed-edited", "hash-edited"])
def test_eval_rejects_a_checkpoint_whose_backbone_does_not_verify(workspace, tmp_path, capsys,
                                                                  damage, message):
    broken = tmp_path / "iso"
    shutil.copytree(workspace["iso"], broken)
    manifest = read_json(broken / "manifest")
    damage(manifest)
    dump_json(broken / "manifest", manifest)
    assert main(["eval", "--data", str(workspace["data"]), "--ckpt", str(broken),
                 "--protocol", "iso-joint"]) == EXIT_CONFIG
    assert f"{broken / 'manifest'}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("array, value, message", [
    (0, np.nan, "enc_w contains non-finite values"),
    (-2, np.nan, "feature stats mean contains non-finite values"),
    (-1, -1.0, "feature stats std must be finite and nonnegative"),
    # an infinite std would z-score its feature to 0 for every record
    (-1, np.inf, "feature stats std must be finite and nonnegative"),
], ids=["nan-enc_w", "nan-mean", "negative-std", "inf-std"])
def test_eval_refuses_a_corrupted_checkpoint_array_naming_its_file(workspace, tmp_path, capsys,
                                                                  array, value, message):
    broken = tmp_path / "iso"
    shutil.copytree(workspace["iso"], broken)
    ckpt = pipeline.load_checkpoint(broken)
    arrays = [np.array(ckpt.projectors["xr"].value(p)) for p in PARAM_NAMES]
    arrays += [ckpt.stats["xr"].mean.copy(), ckpt.stats["xr"].std.copy()]
    arrays[array].flat[0] = value
    storage.save_arrays(broken / "src_xr.bin", *arrays)
    assert main(["eval", "--data", str(workspace["data"]), "--ckpt", str(broken),
                 "--protocol", "iso-joint"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {broken / 'src_xr.bin'}: {message}\n"


@pytest.fixture(scope="module")
def raw_workspace(workspace):
    data = workspace["root"] / "raw"
    assert main(["gen", "--profile", "planted", "--mode", "raw", "--n-records", "30",
                 "--seed", "2", "--out", str(data)]) == EXIT_OK
    return data


@pytest.mark.parametrize("fname", ["raw_lab.bin", "raw_txt.bin", "raw_screenings.bin"])
def test_eval_rejects_a_truncated_raw_payload(workspace, raw_workspace, tmp_path, capsys,
                                              fname):
    data = tmp_path / "raw"
    shutil.copytree(raw_workspace, data)
    # cut inside the first array's magic string or its header
    keep = 6 if fname == "raw_txt.bin" else 10
    (data / fname).write_bytes((data / fname).read_bytes()[:keep])
    assert main(["eval", "--data", str(data), "--ckpt", str(workspace["iso"]),
                 "--protocol", "bss"]) == EXIT_CONFIG
    assert f"{data / fname}: truncated or malformed payload" in capsys.readouterr().err


def test_eval_rejects_a_designated_index_outside_the_vocabulary(workspace, tmp_path, capsys):
    broken = tmp_path / "iso"
    shutil.copytree(workspace["iso"], broken)
    manifest = read_json(broken / "manifest")
    stored = read_json(workspace["iso"] / "manifest")["designated"]
    manifest["designated"]["indices"][1] = SMALL_LM["vocab"]
    dump_json(broken / "manifest", manifest)
    assert main(["eval", "--data", str(workspace["data"]), "--ckpt", str(broken),
                 "--protocol", "iso-joint"]) == EXIT_CONFIG
    assert (f"{broken / 'manifest'}: designated {manifest['designated']} does not match "
            f"{stored} drawn from train_config") in capsys.readouterr().err


def test_eval_rejects_a_checkpoint_missing_a_designated_index(workspace, tmp_path, capsys):
    broken = tmp_path / "iso"
    shutil.copytree(workspace["iso"], broken)
    manifest = read_json(broken / "manifest")
    stored = read_json(workspace["iso"] / "manifest")["designated"]
    manifest["designated"]["indices"].pop()
    dump_json(broken / "manifest", manifest)
    assert main(["eval", "--data", str(workspace["data"]), "--ckpt", str(broken),
                 "--protocol", "iso-joint"]) == EXIT_CONFIG
    assert (f"{broken / 'manifest'}: designated {manifest['designated']} does not match "
            f"{stored} drawn from train_config") in capsys.readouterr().err


@pytest.mark.parametrize("artifact, kind", [("data", "dataset"), ("iso", "checkpoint")])
def test_eval_rejects_a_manifest_of_format_version_1(workspace, tmp_path, capsys,
                                                     artifact, kind):
    broken = tmp_path / artifact
    shutil.copytree(workspace[artifact], broken)
    manifest = read_json(broken / "manifest")
    manifest["version"] = 1
    dump_json(broken / "manifest", manifest)
    dirs = {"data": workspace["data"], "iso": workspace["iso"], artifact: broken}
    assert main(["eval", "--data", str(dirs["data"]), "--ckpt", str(dirs["iso"]),
                 "--protocol", "bss"]) == EXIT_CONFIG
    assert (f"{broken / 'manifest'}: unsupported {kind} format version 1"
            in capsys.readouterr().err)


@pytest.mark.parametrize("artifact, kind", [("data", "dataset"), ("iso", "checkpoint")])
@pytest.mark.parametrize("damage, message", [
    (lambda text: "[]", "unrecognized {kind} manifest"),
    (lambda text: text[:len(text) // 2], "not a JSON manifest"),
], ids=["json-list", "truncated"])
def test_eval_rejects_a_manifest_that_is_not_a_json_object(workspace, tmp_path, capsys,
                                                           artifact, kind, damage, message):
    broken = tmp_path / artifact
    shutil.copytree(workspace[artifact], broken)
    path = broken / "manifest"
    path.write_text(damage(path.read_text()))
    dirs = {"data": workspace["data"], "iso": workspace["iso"], artifact: broken}
    assert main(["eval", "--data", str(dirs["data"]), "--ckpt", str(dirs["iso"]),
                 "--protocol", "bss"]) == EXIT_CONFIG
    assert f"error: {path}: {message.format(kind=kind)}" in capsys.readouterr().err


def test_train_exits_numeric_naming_the_backbone_block(workspace, tmp_path, capsys,
                                                       monkeypatch):
    real = pipeline.init_frozen

    def overflowing(config):
        # a fresh backbone: the one init_frozen shares stays as it is
        weights = real(config)
        layers = [dict(layer) for layer in weights.layers]
        layers[1]["ff1"] = np.full_like(layers[1]["ff1"], 1e308)
        return dataclasses.replace(weights, layers=layers)

    monkeypatch.setattr(pipeline, "init_frozen", overflowing)
    with np.errstate(all="ignore"):
        code = main(["train", "--data", str(workspace["data"]), "--out", str(tmp_path / "ckpt"),
                     "--config", str(workspace["config"]), "--mode", "isolated"])
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "numerical failure" in err and "'frozen_lm.layer1.ff'" in err


def test_bss_eval_exits_numeric_naming_the_projection(workspace, tmp_path, capsys):
    # bss reads every source in one stacked backbone call; one source whose
    # projection overflows still fails the eval with exit 2, naming `project`
    ckpt = pipeline.load_checkpoint(workspace["iso"])
    name = ckpt.source_order()[2]
    pp = ckpt.projectors[name]
    tensors = {p: pp.value(p) for p in PARAM_NAMES}
    tensors["enc_w"] = tensors["enc_w"] * 1e308
    assert np.isfinite(tensors["enc_w"]).all()
    ckpt.projectors[name] = ProjectorParams(pp.config, **tensors)
    pipeline.save_checkpoint(ckpt, tmp_path / "ckpt")
    with np.errstate(all="ignore"):
        code = main(["eval", "--data", str(workspace["data"]), "--ckpt", str(tmp_path / "ckpt"),
                     "--protocol", "bss"])
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "numerical failure" in err and "'project'" in err


def test_eval_rejects_a_source_spec_missing_a_field(workspace, raw_workspace, tmp_path,
                                                    capsys):
    # a default would silently switch axr from the aggregate to the latest rule
    data = tmp_path / "raw"
    shutil.copytree(raw_workspace, data)
    manifest = read_json(data / "manifest")
    axr = next(s for s in manifest["sources"] if s["name"] == "axr")
    assert axr.pop("image_rule") == "aggregate"
    dump_json(data / "manifest", manifest)
    assert main(["eval", "--data", str(data), "--ckpt", str(workspace["iso"]),
                 "--protocol", "single:axr"]) == EXIT_CONFIG
    assert (f"{data / 'manifest'}: invalid sources: missing source keys: image_rule"
            in capsys.readouterr().err)


def test_eval_rejects_a_dataset_the_checkpoint_was_not_trained_on(workspace, raw_workspace,
                                                                 capsys):
    # the raw cohort has the latent cohort's sources, so only the mode differs
    assert main(["eval", "--data", str(raw_workspace), "--ckpt", str(workspace["iso"]),
                 "--protocol", "iso-joint"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{raw_workspace} does not fit checkpoint {workspace['iso']}" in err
    assert "dataset mode 'raw' does not match the checkpoint's 'latent'" in err


def test_eval_rejects_a_raw_cohort_of_another_seed(workspace, tmp_path, capsys):
    data = {}
    for seed in (4, 5):
        data[seed] = tmp_path / f"raw{seed}"
        assert main(["gen", "--profile", "planted", "--mode", "raw", "--n-records", "30",
                     "--seed", str(seed), "--out", str(data[seed])]) == EXIT_OK
    ckpt = tmp_path / "ckpt"
    assert main(["train", "--data", str(data[4]), "--out", str(ckpt),
                 "--config", str(workspace["config"])]) == EXIT_OK
    assert main(["eval", "--data", str(data[5]), "--ckpt", str(ckpt),
                 "--protocol", "joint"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{data[5]} does not fit checkpoint {ckpt}" in err
    assert "dataset seed 5 does not match the checkpoint's 4" in err


def test_train_and_eval_reject_nonfinite_latent_embeddings(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    [emb] = storage.load_arrays(data / "src_chart.bin", ("<f4", (None, None)))
    emb[5, 0] = np.nan
    storage.save_arrays(data / "src_chart.bin", emb)
    assert main(["eval", "--data", str(data), "--ckpt", str(workspace["iso"]),
                 "--protocol", "bss"]) == EXIT_CONFIG
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "c"),
                 "--config", str(workspace["config"])]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all("source 'chart': embeddings contain non-finite values" in e for e in err)


@pytest.fixture(scope="module")
def raw_iso(workspace, raw_workspace):
    ckpt = workspace["root"] / "raw_iso"
    assert main(["train", "--data", str(raw_workspace), "--out", str(ckpt), "--config",
                 str(workspace["config"]), "--mode", "isolated", "--seed", "1"]) == EXIT_OK
    return ckpt


# (source, array, entry, value, message): one entry of one array of the
# source's payload file set to value
RAW_DAMAGE = [
    ("xr", 2, (0, 3), np.nan, "screening vectors contain non-finite values"),
    ("xr", 1, (4,), np.inf, "screening times contain non-finite values"),
    ("axr", 1, (4,), -2.0, "screening times must be nonnegative"),
    ("xr", 0, (7,), 0, "screening counts must be positive"),
    ("proc", 1, (11,), np.nan, "series values contain non-finite values"),
    ("chart", 0, (2, 1), 0, "series lengths must be positive"),
    ("lab", 0, (0, 0), 99, "series lengths add up to"),
    ("txt", 0, (3,), 1, "token counts add up to"),
]


@pytest.mark.parametrize("source, position, entry, value, message", RAW_DAMAGE,
                         ids=[f"{s}-{m}" for s, _, _, _, m in RAW_DAMAGE])
def test_train_and_eval_reject_bad_raw_values_naming_source_and_file(
        workspace, raw_workspace, raw_iso, tmp_path, capsys, source, position, entry, value,
        message):
    data = tmp_path / "raw"
    shutil.copytree(raw_workspace, data)
    fname = "raw_screenings.bin" if source in ("xr", "axr") else f"raw_{source}.bin"
    with open(data / fname, "rb") as fh:
        arrays = [np.lib.format.read_array(fh) for _ in range(3 if "screenings" in fname else 2)]
    arrays[position][entry] = value
    storage.save_arrays(data / fname, *arrays)
    assert main(["eval", "--data", str(data), "--ckpt", str(raw_iso),
                 "--protocol", f"single:{source}"]) == EXIT_CONFIG
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "c"),
                 "--config", str(workspace["config"])]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    # the image sources share one file; the first of them reports
    reporter = "xr" if source == "axr" else source
    assert len(err) == 2
    assert all(e.startswith(f"error: {data / fname}: source {reporter!r}: {message}")
               for e in err), err


def test_train_rejects_a_raw_payload_of_the_wrong_length(workspace, tmp_path, capsys):
    data = tmp_path / "raw"
    assert main(["gen", "--profile", "planted", "--mode", "raw", "--n-records", "30",
                 "--seed", "2", "--out", str(data)]) == EXIT_OK
    lengths, values = load_dataset(data).payloads["lab"]
    kept = lengths[:-1]    # the last record's series dropped
    storage.save_arrays(data / "raw_lab.bin", kept.astype("<u4"),
                        values[:kept.sum()].astype("<f4"))
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "c"),
                 "--config", str(workspace["config"])]) == EXIT_CONFIG
    assert (f"{data / 'raw_lab.bin'}: expected a uint32 array of shape (30, 4), "
            f"got uint32 (29, 4)") in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_passes_and_prints_report(capsys):
    assert main(["gradcheck"]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "finite-difference check" in printed
    assert "-> PASS" in printed


def test_an_overflowing_gradcheck_prints_one_line_and_exits_numeric():
    # in a fresh interpreter, whose stderr shows numpy's floating-point
    # warnings as a user sees them: the +h probe of the first entry overflows
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-m", "riskfuse.cli", "gradcheck", "--step", "1e308"],
                         env=env, capture_output=True, text=True, timeout=600)
    assert out.returncode == EXIT_NUMERIC
    assert out.stderr == "numerical failure: non-finite value produced by primitive 'project'\n"
    assert out.stdout == ""


def test_gradcheck_failure_exits_numeric(capsys):
    # an absurd tolerance turns the same run into a reported failure
    assert main(["gradcheck", "--tol", "1e-14"]) == EXIT_NUMERIC
    assert "-> FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("flag, value, name", [("--step", "nan", "h"), ("--step", "inf", "h"),
                                               ("--tol", "nan", "tol"), ("--tol", "-1", "tol")])
def test_gradcheck_rejects_a_non_finite_or_non_positive_argument(capsys, flag, value, name):
    assert main(["gradcheck", flag, value]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"error: {name} must be a positive finite number, got" in captured.err
    assert captured.out == ""


def test_gradcheck_rejects_a_negative_seed_in_its_own_words(capsys):
    assert main(["gradcheck", "--seed", "-1"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be nonnegative, got -1\n"
    assert captured.out == ""


# ---------------------------------------------------------------------------
# report


def _fake_csv(path, run, seed):
    gen = np.random.default_rng(seed)
    pred = gen.integers(0, 2, size=(30, 3))
    true = gen.integers(-1, 2, size=(30, 3))
    write_metrics_csv(path, run, metrics_for_run(pred, true, ("t0", "t1", "t2")))


def test_report_merges_runs(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _fake_csv(a, "joint", 0)
    _fake_csv(b, "bss", 1)
    out = tmp_path / "merged.csv"
    assert main(["report", f"joint={a}", f"bss={b}", "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "joint prec" in printed and "bss rec" in printed
    merged = out.read_text().splitlines()
    assert merged[0] == "task,joint_precision,joint_recall,bss_precision,bss_recall"
    assert len(merged) == 4
    assert (tmp_path / "merged.csv.txt").exists()


def test_report_rejects_bad_specs(tmp_path, capsys):
    a = tmp_path / "a.csv"
    _fake_csv(a, "joint", 0)
    assert main(["report", str(a)]) == EXIT_CONFIG          # no NAME=
    assert main(["report", f"x={tmp_path / 'nope.csv'}"]) == EXIT_CONFIG
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    assert main(["report", f"x={bad}"]) == EXIT_CONFIG


def test_report_of_a_directory_is_an_input_error(tmp_path, capsys):
    assert main(["report", f"a={tmp_path}"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err and "Traceback" not in err


HEADER = ",".join(metrics.CSV_COLUMNS) + "\n"
ROW = "t0,r,0.5,0.25,1,1,3,5,10,0\n"


@pytest.mark.parametrize("body, message", [
    (HEADER + "t0,r\n", "line 2: 2 fields, expected 10"),
    (HEADER + ROW.replace("0.5", "abc"), "line 2: precision 'abc' is not a number in [0, 1]"),
    (HEADER.encode() + b"t0,r,0.5,\xff\n", "not UTF-8 text"),
    (HEADER + ROW.replace("0.25", "nan"), "line 2: recall 'nan' is not a number in [0, 1]"),
    (HEADER + ROW + "\n" + ROW, "line 4: task 't0' is already on line 2"),
    (HEADER + "x" * 200_000 + "\n", "line 2: field larger than field limit (131072)"),
], ids=["short-row", "non-numeric", "not-utf8", "nan", "repeated-task", "huge-field"])
def test_report_of_a_malformed_metrics_csv_names_the_file_and_line(tmp_path, capsys,
                                                                    body, message):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(body if isinstance(body, bytes) else body.encode())
    assert main(["report", f"a={bad}"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


def test_report_renders_the_table_once(tmp_path, capsys, monkeypatch):
    a = tmp_path / "a.csv"
    _fake_csv(a, "joint", 0)
    calls = []
    real = metrics.render_report
    monkeypatch.setattr(metrics, "render_report", lambda runs: calls.append(1) or real(runs))
    assert main(["report", f"joint={a}", "--out", str(tmp_path / "merged.csv")]) == EXIT_OK
    assert len(calls) == 1
    assert capsys.readouterr().out.startswith((tmp_path / "merged.csv.txt").read_text())


def test_report_rejects_a_repeated_run_name(tmp_path, capsys):
    # p's numbers would otherwise vanish under q's in both x columns
    p, q = tmp_path / "p.csv", tmp_path / "q.csv"
    _fake_csv(p, "joint", 0)
    _fake_csv(q, "joint", 1)
    out = tmp_path / "merged.csv"
    assert main(["report", f"x={p}", f"x={q}", "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: run name 'x' is given more than once\n"
    assert not out.exists()


def test_report_rejects_mismatched_task_sets(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _fake_csv(a, "joint", 0)
    write_metrics_csv(b, "bss", metrics_for_run(
        np.zeros((4, 2), dtype=int), np.ones((4, 2), dtype=int), ("other", "tasks")))
    assert main(["report", f"joint={a}", f"bss={b}"]) == EXIT_CONFIG


# ---------------------------------------------------------------------------
# top level


def test_unknown_subcommand_is_a_config_error(capsys):
    assert main(["fit"]) == EXIT_CONFIG
    assert main([]) == EXIT_CONFIG


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "riskfuse" in capsys.readouterr().out
