"""Command-line front end: synth, train, inspect, gradcheck.

Every command is deterministic given its flags, config file, and seed.
Outputs are UTF-8 JSON with sorted keys so reruns produce identical
bytes. Exit codes: 0 success, 1 invalid input or configuration, 2
runtime or numeric failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import typing
from pathlib import Path

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import SynthConfig, band_select, load_dataset, save_dataset, synthesize
from .errors import (
    ConfigError,
    CorruptBundleError,
    DivergenceError,
    IsolatedNodeError,
    LayoutError,
)
from .eval import PROTOCOLS, activation_map, config_echo, run_protocol, top_k_connections
from .gradients import model_grad_check
from .train import TrainConfig

GRADCHECK_THRESHOLD = 1e-4

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as validation errors."""

    def error(self, message):
        raise ConfigError(message)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def _load_config_file(path, allowed: set[str], required: set[str] = frozenset()) -> dict:
    """Read a JSON config document and check its key set."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file {p} does not exist")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{p}: config must be a JSON object")
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"{p}: unknown config key {unknown[0]!r}")
    missing = sorted(required - set(doc))
    if missing:
        raise ConfigError(f"{p}: missing required field {missing[0]!r}")
    return doc


_SYNTH_KEYS = {f.name for f in dataclasses.fields(SynthConfig)}
_TRAIN_KEYS = {f.name for f in dataclasses.fields(TrainConfig)} | {
    "protocol",
    "train_trials",
    "bands",
}


_KINDS = {bool: "a bool", int: "an integer", float: "a finite number", str: "a string",
          type(None): "null"}


def _fits(value, kind) -> bool:
    """Whether a JSON value fits one annotated type. A bool is never a
    number, an int also fits a float field, and a float must be finite."""
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    if kind is float:
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, kind)


def _check_types(doc: dict, hints: dict) -> None:
    """Reject a config value whose JSON type does not fit its field's annotation."""
    for name, value in doc.items():
        kinds = typing.get_args(hints[name]) or (hints[name],)
        if not any(_fits(value, kind) for kind in kinds):
            want = " or ".join(_KINDS[kind] for kind in kinds)
            raise ConfigError(f"config field {name!r} must be {want}, got {value!r}")


def _build_dataclass(cls, doc: dict):
    _check_types(doc, typing.get_type_hints(cls))
    return cls(**doc)


def cmd_synth(args) -> int:
    doc = _load_config_file(args.config, _SYNTH_KEYS, required={"seed"})
    ds = synthesize(_build_dataclass(SynthConfig, doc))
    save_dataset(ds, args.out)
    print(_dump_json({
        "out": str(args.out),
        "n_samples": ds.n_samples,
        "n_channels": ds.n_channels,
        "n_bands": ds.n_bands,
        "n_classes": ds.n_classes,
        "subjects": ds.subjects(),
    }), end="")
    return EXIT_OK


def cmd_train(args) -> int:
    doc = _load_config_file(args.config, _TRAIN_KEYS) if args.config else {}
    protocol = args.protocol or doc.pop("protocol", None)
    if protocol is None:
        raise ConfigError(f"no protocol given; choose from {PROTOCOLS}")
    if protocol not in PROTOCOLS:
        raise ConfigError(f"unknown protocol {protocol!r}; choose from {PROTOCOLS}")
    train_trials = doc.pop("train_trials", None)
    _check_types({"train_trials": train_trials}, {"train_trials": int | None})
    bands = doc.pop("bands", None)
    if bands is not None and not (
        isinstance(bands, list) and all(isinstance(b, str) for b in bands)
    ):
        raise ConfigError(f"config field 'bands' must be a list of strings, got {bands!r}")
    doc.pop("protocol", None)
    if args.bands:
        bands = [b.strip() for b in args.bands.split(",") if b.strip()]
    if args.seed is not None:
        doc["seed"] = args.seed
    cfg = _build_dataclass(TrainConfig, doc)

    ds = load_dataset(args.data)
    if bands:
        ds = band_select(ds, bands)
    report, results = run_protocol(ds, protocol, cfg, train_trials=train_trials)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    echo = config_echo(cfg, protocol, train_trials)
    if bands:
        echo["bands"] = bands
    (out / "report.json").write_text(_dump_json(report.as_dict(echo)))
    (out / "history.json").write_text(
        _dump_json([{"fold": i, "history": r.history} for i, r in enumerate(results)])
    )
    for i, r in enumerate(results):
        save_checkpoint(
            out / f"fold{i}.ckpt",
            Checkpoint(
                cfg=r.model_cfg,
                params=r.params,
                channel_names=r.channel_names,
                global_pairs=r.global_pairs,
            ),
        )
    print(_dump_json({
        "out": str(out),
        "folds": len(results),
        "mean_accuracy": report.mean,
        "std_accuracy": report.std,
    }), end="")
    return EXIT_OK


def cmd_inspect(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    act = activation_map(ckpt.params)
    top = top_k_connections(
        ckpt.params,
        args.top_k,
        exclude_global=args.exclude_global,
        channel_names=ckpt.channel_names,
        global_pairs=ckpt.global_pairs or [],
    )
    names = ckpt.channel_names or [str(i) for i in range(ckpt.params.adj.n)]
    print(_dump_json({
        "activation_map": {name: float(v) for name, v in zip(names, act)},
        "top_connections": [
            {"a": a, "b": b, "weight": w} for a, b, w in top
        ],
    }), end="")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    err = model_grad_check(seed=args.seed, size=args.size, corrupt=args.corrupt)
    ok = err < GRADCHECK_THRESHOLD
    print(_dump_json({
        "max_relative_error": err,
        "threshold": GRADCHECK_THRESHOLD,
        "ok": ok,
    }), end="")
    return EXIT_OK if ok else EXIT_RUNTIME


def build_parser() -> _Parser:
    parser = _Parser(prog="eegraph", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset bundle")
    p.add_argument("--config", required=True, help="JSON generator config (seed required)")
    p.add_argument("--out", required=True, help="bundle directory to write")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train and evaluate under a protocol")
    p.add_argument("--data", required=True, help="dataset bundle directory")
    p.add_argument("--config", help="JSON training config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--protocol", choices=PROTOCOLS, help="evaluation protocol")
    p.add_argument("--bands", help="comma-separated band names to keep")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("inspect", help="read a checkpoint's learned structure")
    p.add_argument("--checkpoint", required=True, help="checkpoint file")
    p.add_argument("--top-k", type=int, default=10, dest="top_k")
    p.add_argument("--exclude-global", action="store_true", dest="exclude_global",
                   help="drop the configured hemisphere pairs from the ranking")
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("gradcheck", help="verify analytic gradients numerically")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", choices=("small", "default"), default="default")
    p.add_argument("--corrupt", metavar="TENSOR",
                   help="damage one analytic gradient on purpose (negative control)")
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ConfigError, CorruptBundleError, LayoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (DivergenceError, IsolatedNodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
