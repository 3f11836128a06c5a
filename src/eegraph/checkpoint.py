"""Checkpoint files: a JSON header line, then the parameter vector.

Layout (version 3): header JSON + newline, then `params.flat` as
little-endian float64, its tensors in `TENSOR_ORDER` (the packed
adjacency triangle, w_feat, w_class, and w_dom when the header says
there is a domain head). The header's "model" block is `ModelConfig`'s
fields, and a reader checks each against that field's annotation
(`errors.json_fits`). The body carries no sizes: the header's model
config and `has_domain_head` state every tensor's shape, and a body of
any other length is refused; a copy of the body is cut into tensors by
`ParamSet.from_flat`. A checkpoint holds the trained parameters only, no
optimizer state. Headers are serialized with sorted keys so equal
states produce byte-identical files.
"""
from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, CorruptBundleError, json_fits, json_misfit
from .params import ModelConfig, ParamSet, _layout

FORMAT_NAME = "eegraph-checkpoint"
FORMAT_VERSION = 3
_MODEL_HINTS = typing.get_type_hints(ModelConfig)


def _strings(value) -> bool:
    """Whether a value is a list (or tuple) of strings."""
    return isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)


@dataclass
class Checkpoint:
    """Everything a checkpoint file carries.

    Construction refuses what `load_checkpoint` would refuse: parameters
    whose shapes differ from the config's, `channel_names` that are not
    None or `n_channels` strings, and `global_pairs` that are not None or
    a list of two-string pairs. The pairs are held as tuples, and an
    empty list of them as None.
    """

    cfg: ModelConfig
    params: ParamSet
    channel_names: list[str] | None = None
    global_pairs: list[tuple[str, str]] | None = None

    def __post_init__(self):
        self.params.check_shapes(self.cfg)
        names, pairs = self.channel_names, self.global_pairs
        if not (names is None or _strings(names) and len(names) == self.cfg.n_channels):
            raise ConfigError(
                f"channel_names must be null or a list of {self.cfg.n_channels} strings"
            )
        if not (pairs is None
                or isinstance(pairs, list) and all(_strings(q) and len(q) == 2 for q in pairs)):
            raise ConfigError("global_pairs must be null or a list of two-string lists")
        self.global_pairs = [tuple(q) for q in pairs] if pairs else None


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    cfg, params = ckpt.cfg, ckpt.params
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "model": dataclasses.asdict(cfg),
        "has_domain_head": params.w_dom is not None,
        "channel_names": ckpt.channel_names,
        "global_pairs": ckpt.global_pairs,
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    Path(path).write_bytes(head + params.flat.astype("<f8").tobytes())


def load_checkpoint(path) -> Checkpoint:
    p = Path(path)
    if not p.is_file():
        raise CorruptBundleError(f"checkpoint {p} does not exist")
    blob = p.read_bytes()
    nl = blob.find(b"\n")
    if nl < 0:
        raise CorruptBundleError(f"{p}: no header line")
    try:
        header = json.loads(blob[:nl].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptBundleError(f"{p}: bad header ({exc})") from None
    if not json_fits(header, dict):
        raise CorruptBundleError(f"{p}: header is not a JSON object")
    if header.get("format") != FORMAT_NAME:
        raise CorruptBundleError(f"{p}: not a checkpoint file")
    if header.get("version") != FORMAT_VERSION:
        raise CorruptBundleError(f"{p}: unsupported version {header.get('version')!r}")
    try:
        fields = {name: header["model"][name] for name in _MODEL_HINTS}
        has_dom = header["has_domain_head"]
    except (KeyError, TypeError) as exc:
        raise CorruptBundleError(f"{p}: bad model header ({exc!r})") from None
    misfit = json_misfit({**fields, "has_domain_head": has_dom},
                         _MODEL_HINTS | {"has_domain_head": bool})
    if misfit:
        raise CorruptBundleError(f"{p}: bad model header ({misfit})")
    try:
        cfg = ModelConfig(**fields)
    except ConfigError as exc:
        raise CorruptBundleError(f"{p}: bad model header ({exc})") from None

    # the header alone gives the body's size: it is checked before any
    # tensor is allocated, and catches truncation and trailing bytes alike
    _, size = _layout(cfg, has_dom)
    body = memoryview(blob)[nl + 1 :]
    if len(body) != 8 * size:
        raise CorruptBundleError(
            f"{p}: body holds {len(body)} bytes, the header's tensors need {8 * size}"
        )
    flat = np.frombuffer(body, dtype="<f8").astype(np.float64)
    try:
        return Checkpoint(cfg=cfg, params=ParamSet.from_flat(flat, cfg, has_dom),
                          channel_names=header.get("channel_names"),
                          global_pairs=header.get("global_pairs"))
    except ConfigError as exc:
        raise CorruptBundleError(f"{p}: {exc}") from None
