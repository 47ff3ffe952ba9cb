"""Command-line entry points.

Five subcommands: `gen` writes a synthetic dataset, `train` fits projectors
and saves a checkpoint, `eval` scores a protocol on the held-out split,
`gradcheck` runs the finite-difference suite on the small pinned setup, and
`report` merges metric CSVs into one comparison table.

Exit codes: 0 success, 1 bad arguments / configuration / inputs (a file
that cannot be read or written included), 2 numerical failure (non-finite
values, reported in one line that names the primitive, with numpy's
floating-point warnings silenced, or a failed gradient check). Training
settings can come from a JSON config file (--config); `train` has one flag
per scalar `TrainConfig` field, which overrides it, and unknown keys are
rejected rather than ignored.
`eval --threshold` is the one threshold a protocol both selects (`bss`) and
scores at. Each artifact-producing command drops a lock file with the fully
resolved settings next to its output so a run can be reproduced from the
artifacts alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import autodiff as ad
from . import datagen, metrics, pipeline
from .storage import (MODES, _field_kinds, check_replaceable, decode, dump_json, load_dataset,
                      write_dataset)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2


class CliError(Exception):
    """Invalid arguments, configuration, or input files (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    # raise instead of killing the process so main() owns the exit code
    def error(self, message):
        raise CliError(message)


# ---------------------------------------------------------------------------
# training-config resolution


def _load_config_file(path) -> dict:
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as err:
        raise CliError(f"cannot read config file {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise CliError(f"config file {path} is not valid JSON: {err}") from err
    if not isinstance(payload, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    return payload


def resolve_train_config(file_cfg: dict, overrides: dict) -> pipeline.TrainConfig:
    """Defaults, then config-file values, then explicit flags."""
    merged = dict(file_cfg)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return decode(pipeline.TrainConfig, merged, "config", complete=False)
    except ValueError as err:
        raise CliError(f"invalid training configuration: {err}") from err


def _config_lock(cfg: pipeline.TrainConfig, extra: dict) -> dict:
    lock = {"settings": dataclasses.asdict(cfg), "version": __version__}
    lock.update(extra)
    return lock


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    if args.profile == "table1":
        if args.n_records is not None:
            raise CliError("--n-records applies to the planted profile only")
        scale = 1.0 if args.scale is None else args.scale
        cfg = datagen.table1_profile(scale=scale, seed=args.seed, mode=args.mode)
        resolved = {"profile": "table1", "scale": scale}
    else:
        if args.scale is not None:
            raise CliError("--scale applies to the table1 profile only")
        n = 2000 if args.n_records is None else args.n_records
        cfg = datagen.planted_profile(n_records=n, seed=args.seed, mode=args.mode)
        resolved = {"profile": "planted", "n_records": n}
    resolved.update({"seed": args.seed, "mode": args.mode})
    check_replaceable(args.out, "dataset")
    ds = datagen.build(cfg)
    summary = datagen.summarize(ds)
    resolved.update({"records_written": summary.n_records,
                     "patients": summary.n_patients,
                     "version": __version__})
    write_dataset(ds, args.out, lock=resolved)
    print(f"wrote {summary.n_records} records ({summary.n_patients} patients) to {args.out}")
    for task, c in summary.counts.items():
        print(f"  {task}: pos={c['pos']} neg={c['neg']} unknown={c['unknown']}")
    return EXIT_OK


def _cmd_train(args) -> int:
    file_cfg = _load_config_file(args.config) if args.config else {}
    overrides = {name: getattr(args, name) for name in _TRAIN_FLAGS}
    cfg = resolve_train_config(file_cfg, overrides)
    dataset = load_dataset(args.data)
    check_replaceable(args.out, "checkpoint")
    ckpt = pipeline.train(dataset, cfg)
    lock = _config_lock(cfg, {"command": "train", "data": str(args.data)})
    pipeline.save_checkpoint(ckpt, args.out, lock=lock)
    for name, losses in ckpt.history.items():
        print(f"{name}: epoch losses {losses[0]:.4f} -> {losses[-1]:.4f} ({len(losses)} epochs)")
    print(f"checkpoint saved to {args.out}")
    return EXIT_OK


def _format_metrics(rows) -> str:
    lines = [f"{'task':<20} {'precision':>9} {'recall':>9} {'tp':>6} {'fp':>6} {'fn':>6} {'tn':>8}"]
    for m in rows:
        flag = " *" if m.degenerate else ""
        lines.append(f"{m.task:<20} {m.precision:>9.3f} {m.recall:>9.3f}"
                     f" {m.tp:>6} {m.fp:>6} {m.fn:>6} {m.tn:>8}{flag}")
    return "\n".join(lines)


def _cmd_eval(args) -> int:
    dataset = load_dataset(args.data)
    ckpt = pipeline.load_checkpoint(args.ckpt)
    try:
        pipeline.check_compatible(ckpt, dataset)
    except ValueError as err:
        raise CliError(f"{args.data} does not fit checkpoint {args.ckpt}: {err}") from None
    rows, selection = pipeline.evaluate_protocol(ckpt, dataset, args.protocol,
                                                 threshold=args.threshold)
    print(_format_metrics(rows))
    if selection is not None:
        picks = ", ".join(f"{t}={s or '-'}" for t, s in selection.assignment.items())
        print(f"selected sources: {picks}")
    if args.out:
        metrics.write_metrics_csv(args.out, args.protocol, rows)
        threshold = ckpt.config.threshold if args.threshold is None else args.threshold
        dump_json(Path(str(args.out) + ".lock"),
                  _config_lock(ckpt.config, {"command": "eval", "data": str(args.data),
                                             "checkpoint": str(args.ckpt),
                                             "protocol": args.protocol,
                                             "threshold": threshold}))
        print(f"metrics written to {args.out}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    report = pipeline.gradcheck_suite(seed=args.seed, tol=args.tol, h=args.step)
    print(report.format())
    return EXIT_OK if report.passed else EXIT_NUMERIC


def _parse_run_spec(spec: str) -> tuple[str, str]:
    name, sep, path = spec.partition("=")
    if not sep or not name or not path:
        raise CliError(f"run spec {spec!r} must look like NAME=metrics.csv")
    return name, path


def _cmd_report(args) -> int:
    runs = []
    for spec in args.runs:
        name, path = _parse_run_spec(spec)
        runs.append((name, metrics.read_metrics_csv(path)))
    if args.out:
        aligned = metrics.write_report(args.out, runs)
    else:
        _, aligned = metrics.render_report(runs)
    print(aligned)
    if args.out:
        print(f"report written to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

# a `train` flag per scalar TrainConfig field, typed by the kind its
# annotation names, named after the field unless it keeps a short name
_TRAIN_FLAGS = {name: kind for name, kind in _field_kinds(pipeline.TrainConfig).items()
                if isinstance(kind, str)}
_FLAG_TYPES = {"an integer": int, "a number": float, "a string": str}
_SHORT_FLAGS = {"loss_kind": "loss", "learning_rate": "lr"}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="riskfuse",
                     description="multimodal risk-prediction pipeline")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--profile", choices=sorted(datagen.PROFILES), required=True)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=MODES, default="latent")
    p.add_argument("--scale", type=float, default=None,
                   help="shrink the table1 cohort proportionally")
    p.add_argument("--n-records", type=int, default=None,
                   help="record count for the planted profile")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train", help="train projectors against a dataset")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.add_argument("--config", default=None, help="JSON file with training settings")
    for name, kind in _TRAIN_FLAGS.items():
        flag = _SHORT_FLAGS.get(name, name.replace("_", "-"))
        p.add_argument(f"--{flag}", dest=name, type=_FLAG_TYPES[kind])
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a protocol on the held-out split")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True, help="checkpoint directory")
    p.add_argument("--protocol", required=True,
                   help="joint, iso-joint, single:<source>, or bss")
    p.add_argument("--threshold", type=float, default=None,
                   help="override the checkpoint's decision threshold")
    p.add_argument("--out", default=None, help="metrics CSV path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--step", type=float, default=1e-5, help="finite-difference step")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("report", help="merge metric CSVs into one table")
    p.add_argument("runs", nargs="+", metavar="NAME=CSV")
    p.add_argument("--out", default=None, help="merged CSV path (aligned .txt beside it)")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # every primitive checks its own values and names itself on a NaN or
        # Inf, so numpy's floating-point warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
            return args.func(args)
    except (CliError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ad.NonFiniteError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
