"""Checkpoint files: a JSON header line, then raw little-endian blocks.

Layout (version 2): header JSON + newline; adjacency block (u32 channel
count, then the packed float64 triangle); each dense weight, w_feat,
w_class and w_dom when the header says there is a domain head, as a
shape-prefixed block (u32 ndim, u32 dims, float64 data). A checkpoint
holds the trained parameters only, no optimizer state. Headers are
serialized with sorted keys so equal states produce byte-identical files.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, CorruptBundleError
from .graph import SymmetricAdjacency
from .params import TENSOR_ORDER, ModelConfig, ParamSet

FORMAT_NAME = "eegraph-checkpoint"
FORMAT_VERSION = 2
# JSON types of the model header fields, taken as written: a bool is not
# a number, and a float or a string is not a count
_HEADER_TYPES = {name: int for name in ("n_channels", "in_dim", "hidden_dim", "n_classes", "steps")}
_HEADER_TYPES["dropout"] = (int, float)


def write_array_block(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr, dtype=np.float64)
    head = struct.pack("<I", arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head + arr.astype("<f8").tobytes()


def read_array_block(buf: bytes, off: int, what: str) -> tuple[np.ndarray, int]:
    if len(buf) < off + 4:
        raise CorruptBundleError(f"truncated before {what} block rank")
    (ndim,) = struct.unpack_from("<I", buf, off)
    off += 4
    if ndim > 8:
        raise CorruptBundleError(f"{what} block claims rank {ndim}")
    if len(buf) < off + 4 * ndim:
        raise CorruptBundleError(f"truncated inside {what} block shape")
    shape = struct.unpack_from(f"<{ndim}I", buf, off)
    off += 4 * ndim
    count = int(np.prod(shape, dtype=np.int64)) if ndim else 1
    end = off + 8 * count
    if len(buf) < end:
        raise CorruptBundleError(
            f"{what} block needs {8 * count} data bytes, have {len(buf) - off}"
        )
    arr = np.frombuffer(buf[off:end], dtype="<f8").astype(np.float64).reshape(shape)
    return arr, end


@dataclass
class Checkpoint:
    """Everything a checkpoint file carries."""

    cfg: ModelConfig
    params: ParamSet
    channel_names: list[str] | None = None
    global_pairs: list[tuple[str, str]] | None = None


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    cfg, params = ckpt.cfg, ckpt.params
    params.check_shapes(cfg)
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "model": {
            "n_channels": cfg.n_channels,
            "in_dim": cfg.in_dim,
            "hidden_dim": cfg.hidden_dim,
            "n_classes": cfg.n_classes,
            "steps": cfg.steps,
            "dropout": cfg.dropout,
        },
        "has_domain_head": params.w_dom is not None,
        "channel_names": ckpt.channel_names,
        "global_pairs": [list(p) for p in ckpt.global_pairs] if ckpt.global_pairs else None,
    }
    blob = bytearray()
    blob += json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    blob += params.adj.to_bytes()
    tensors = params.tensors()
    for name in TENSOR_ORDER:
        if name == "adj" or name not in tensors:
            continue
        blob += write_array_block(tensors[name])
    Path(path).write_bytes(bytes(blob))


def _strings(value) -> bool:
    """Whether a header value is a JSON list of strings."""
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


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
    if not isinstance(header, dict):
        raise CorruptBundleError(f"{p}: header is not a JSON object")
    if header.get("format") != FORMAT_NAME:
        raise CorruptBundleError(f"{p}: not a checkpoint file")
    if header.get("version") != FORMAT_VERSION:
        raise CorruptBundleError(f"{p}: unsupported version {header.get('version')!r}")
    try:
        m = header["model"]
        fields = {name: m[name] for name in _HEADER_TYPES}
        has_dom = header["has_domain_head"]
    except (KeyError, TypeError) as exc:
        raise CorruptBundleError(f"{p}: bad model header ({exc!r})") from None
    wrong = [name for name, kind in _HEADER_TYPES.items()
             if isinstance(fields[name], bool) or not isinstance(fields[name], kind)]
    if not isinstance(has_dom, bool):
        wrong.append("has_domain_head")
    if wrong:
        raise CorruptBundleError(f"{p}: bad model header ({wrong[0]} has the wrong JSON type)")
    try:
        cfg = ModelConfig(**fields)
    except ConfigError as exc:
        raise CorruptBundleError(f"{p}: bad model header ({exc})") from None

    body = blob[nl + 1 :]
    adj, off = SymmetricAdjacency.from_bytes(body)
    if adj.n != cfg.n_channels:
        raise CorruptBundleError(
            f"{p}: adjacency covers {adj.n} channels, header says {cfg.n_channels}"
        )
    w_feat, off = read_array_block(body, off, "w_feat")
    w_class, off = read_array_block(body, off, "w_class")
    w_dom = None
    if has_dom:
        w_dom, off = read_array_block(body, off, "w_dom")
    params = ParamSet(adj=adj, w_feat=w_feat, w_class=w_class, w_dom=w_dom)
    try:
        params.check_shapes(cfg)
    except Exception as exc:
        raise CorruptBundleError(f"{p}: {exc}") from None

    if off != len(body):
        raise CorruptBundleError(f"{p}: {len(body) - off} unexpected trailing bytes")

    names = header.get("channel_names")
    pairs = header.get("global_pairs")
    if not (names is None or _strings(names) and len(names) == cfg.n_channels):
        raise CorruptBundleError(
            f"{p}: channel_names must be null or a list of {cfg.n_channels} strings"
        )
    if not (pairs is None
            or isinstance(pairs, list) and all(_strings(q) and len(q) == 2 for q in pairs)):
        raise CorruptBundleError(f"{p}: global_pairs must be null or a list of two-string lists")
    return Checkpoint(
        cfg=cfg,
        params=params,
        channel_names=names,
        global_pairs=[tuple(q) for q in pairs] if pairs else None,
    )
