"""Checkpoint container round trips and damage detection."""
import json

import numpy as np
import pytest

from eegraph.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from eegraph.errors import ConfigError, CorruptBundleError
from eegraph.graph import SymmetricAdjacency
from eegraph.model import init_params
from eegraph.params import ModelConfig

CFG = ModelConfig(n_channels=5, in_dim=3, hidden_dim=4, n_classes=3, steps=2)


def sample_ckpt(seed=0, domain_head=True):
    rng = np.random.default_rng(seed)
    full = rng.uniform(0.2, 1.0, size=(5, 5))
    full = (full + full.T) / 2
    np.fill_diagonal(full, 1.0)
    params = init_params(
        CFG, None, seed, domain_head=domain_head, adj=SymmetricAdjacency.from_full(full)
    )
    return Checkpoint(
        cfg=CFG,
        params=params,
        channel_names=[f"E{i}" for i in range(5)],
        global_pairs=[("E0", "E4")],
    )


def test_round_trip_minimal(tmp_path):
    ck = Checkpoint(cfg=CFG, params=sample_ckpt(domain_head=False).params)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, ck)
    back = load_checkpoint(path)
    assert back.cfg == ck.cfg
    assert np.array_equal(back.params.adj.upper, ck.params.adj.upper)
    assert np.array_equal(back.params.w_feat, ck.params.w_feat)
    assert np.array_equal(back.params.w_class, ck.params.w_class)
    assert back.params.w_dom is None
    assert back.channel_names is None and back.global_pairs is None


def test_round_trip_full(tmp_path):
    ck = sample_ckpt()
    path = tmp_path / "f.ckpt"
    save_checkpoint(path, ck)
    back = load_checkpoint(path)
    assert np.array_equal(back.params.w_dom, ck.params.w_dom)
    assert back.channel_names == ck.channel_names
    assert back.global_pairs == [("E0", "E4")]


def test_save_is_byte_deterministic(tmp_path):
    ck = sample_ckpt()
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, ck)
    save_checkpoint(b, ck)
    assert a.read_bytes() == b.read_bytes()


def test_reload_resaves_identically(tmp_path):
    ck = sample_ckpt()
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, ck)
    save_checkpoint(b, load_checkpoint(a))
    assert a.read_bytes() == b.read_bytes()


def test_header_is_one_json_line(tmp_path):
    path = tmp_path / "h.ckpt"
    save_checkpoint(path, sample_ckpt())
    head = path.read_bytes().split(b"\n", 1)[0]
    doc = json.loads(head)
    assert doc["format"] == "eegraph-checkpoint"
    assert doc["version"] == 3
    assert doc["model"]["n_channels"] == 5
    assert doc["has_domain_head"] is True
    assert "optimizer" not in doc


@pytest.mark.parametrize("domain_head", [True, False], ids=["domain_head", "no_domain_head"])
def test_body_is_the_parameter_vector(tmp_path, domain_head):
    ck = sample_ckpt(domain_head=domain_head)
    path = tmp_path / "b.ckpt"
    save_checkpoint(path, ck)
    assert path.read_bytes().split(b"\n", 1)[1] == ck.params.flat.astype("<f8").tobytes()
    # the loaded tensors are views of one writable vector, cut as `ParamSet` cuts it
    back = load_checkpoint(path).params
    assert np.array_equal(back.flat, ck.params.flat) and back.flat.flags.writeable
    for name, t in back.tensors().items():
        assert t.base is back.flat, name
    back.flat[...] += 1.0
    assert np.array_equal(back.w_feat, ck.params.w_feat + 1.0)


def test_missing_file(tmp_path):
    with pytest.raises(CorruptBundleError):
        load_checkpoint(tmp_path / "absent.ckpt")


def test_not_a_checkpoint(tmp_path):
    p = tmp_path / "junk"
    p.write_bytes(b"\x00\x01\x02 definitely not a header")
    with pytest.raises(CorruptBundleError):
        load_checkpoint(p)
    p.write_bytes(json.dumps({"format": "something-else"}).encode() + b"\n")
    with pytest.raises(CorruptBundleError):
        load_checkpoint(p)


@pytest.mark.parametrize("header", [b"[1]", b"7", b"null", b'"x"'])
def test_header_must_be_a_json_object(tmp_path, header):
    path = tmp_path / "h.ckpt"
    save_checkpoint(path, sample_ckpt())
    path.write_bytes(header + b"\n" + path.read_bytes().split(b"\n", 1)[1])
    with pytest.raises(CorruptBundleError):
        load_checkpoint(path)


@pytest.mark.parametrize("version", [1, 2, 99])
def test_unsupported_version(tmp_path, version):
    # version 1 carried optimizer moments after the weights, and version 2
    # a channel count and per-tensor dims; both are rejected
    path = tmp_path / "v.ckpt"
    save_checkpoint(path, sample_ckpt())
    head, body = path.read_bytes().split(b"\n", 1)
    doc = json.loads(head)
    doc["version"] = version
    path.write_bytes(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b"\n" + body)
    with pytest.raises(CorruptBundleError):
        load_checkpoint(path)


def test_truncation_everywhere(tmp_path):
    # chopping the file at any block boundary region must be caught
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, sample_ckpt())
    blob = path.read_bytes()
    nl = blob.find(b"\n")
    for cut in (nl + 3, nl + 30, len(blob) // 2, len(blob) - 5):
        path.write_bytes(blob[:cut])
        with pytest.raises(CorruptBundleError):
            load_checkpoint(path)


def test_trailing_bytes_detected(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, sample_ckpt())
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CorruptBundleError):
        load_checkpoint(path)


def test_header_body_mismatch(tmp_path):
    path = tmp_path / "mm.ckpt"
    save_checkpoint(path, sample_ckpt())
    head, body = path.read_bytes().split(b"\n", 1)
    doc = json.loads(head)
    doc["model"]["n_channels"] = 9
    path.write_bytes(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b"\n" + body)
    with pytest.raises(CorruptBundleError):
        load_checkpoint(path)


@pytest.mark.parametrize("field,value", [("hidden_dim", 0), ("dropout", 1.0)])
def test_invalid_model_header_names_the_file(tmp_path, field, value):
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, sample_ckpt())
    head, body = path.read_bytes().split(b"\n", 1)
    doc = json.loads(head)
    doc["model"][field] = value
    path.write_bytes(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b"\n" + body)
    with pytest.raises(CorruptBundleError, match="bad.ckpt"):
        load_checkpoint(path)


def test_absurd_header_sizes_fail_the_length_check(tmp_path):
    # the body's size follows from the header alone; it is checked before
    # a tensor of the declared size is allocated
    path = tmp_path / "big.ckpt"
    save_checkpoint(path, sample_ckpt())
    _rewrite_header(path, lambda doc: doc["model"].update(hidden_dim=10**9))
    with pytest.raises(CorruptBundleError, match=r"big.ckpt: body holds \d+ bytes"):
        load_checkpoint(path)


def _rewrite_header(path, edit):
    head, body = path.read_bytes().split(b"\n", 1)
    doc = json.loads(head)
    edit(doc)
    path.write_bytes(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b"\n" + body)


@pytest.mark.parametrize("field,value", [
    ("hidden_dim", 4.7), ("steps", "2"), ("n_channels", 5.0), ("n_classes", True),
    ("dropout", "0.5"), ("dropout", False), ("has_domain_head", "no"), ("has_domain_head", 1),
])
def test_header_types_are_not_coerced(tmp_path, field, value):
    # a float, string or bool never stands in for a count, nor a string or
    # number for the domain-head flag
    path = tmp_path / "typed.ckpt"
    save_checkpoint(path, sample_ckpt())

    def edit(doc):
        (doc if field == "has_domain_head" else doc["model"])[field] = value

    _rewrite_header(path, edit)
    with pytest.raises(CorruptBundleError, match=f"typed.ckpt.*{field}"):
        load_checkpoint(path)


def test_header_accepts_an_integral_dropout(tmp_path):
    # dropout is a number; a hand-written header may give it without a fraction
    path = tmp_path / "int.ckpt"
    ckpt = sample_ckpt()
    save_checkpoint(path, ckpt)
    _rewrite_header(path, lambda doc: doc["model"].update(dropout=0))
    assert load_checkpoint(path).cfg.dropout == 0


@pytest.mark.parametrize("names", [
    "ABCDE", ["E0", "E1", "E2", "E3"], ["E0", "E1", "E2", "E3", 4], {"E0": 0}, [],
], ids=["string", "too_few", "number", "object", "empty"])
def test_channel_names_must_be_a_list_of_n_channel_strings(tmp_path, names):
    # a string once loaded as one name per character
    path = tmp_path / "names.ckpt"
    save_checkpoint(path, sample_ckpt())
    _rewrite_header(path, lambda doc: doc.update(channel_names=names))
    with pytest.raises(CorruptBundleError, match="names.ckpt: channel_names must be null or "
                                                 "a list of 5 strings"):
        load_checkpoint(path)


@pytest.mark.parametrize("pairs", [
    [["E0", "E4", "E2"]], [["E0"]], [["E0", 4]], ["E0E4"], [{"E0": "E4"}], "E0E4",
], ids=["three_names", "one_name", "number", "string_pair", "object_pair", "string"])
def test_global_pairs_must_be_two_string_lists(tmp_path, pairs):
    path = tmp_path / "pairs.ckpt"
    save_checkpoint(path, sample_ckpt())
    _rewrite_header(path, lambda doc: doc.update(global_pairs=pairs))
    with pytest.raises(CorruptBundleError, match="pairs.ckpt: global_pairs must be null or "
                                                 "a list of two-string lists"):
        load_checkpoint(path)


@pytest.mark.parametrize("field, value, match", [
    ("channel_names", ["a"], "channel_names must be null or a list of 5 strings"),
    ("channel_names", "ABCDE", "channel_names must be null or a list of 5 strings"),
    ("global_pairs", [("E0", "E4", "E2")], "global_pairs must be null or a list of two-string"),
    ("global_pairs", [("E0", 4)], "global_pairs must be null or a list of two-string"),
])
def test_checkpoint_refuses_what_the_loader_refuses(tmp_path, field, value, match):
    # the rules are applied when the checkpoint is built, so no file that
    # load_checkpoint would refuse is ever written
    params = sample_ckpt().params
    path = tmp_path / "never.ckpt"
    with pytest.raises(ConfigError, match=match):
        save_checkpoint(path, Checkpoint(cfg=CFG, params=params, **{field: value}))
    assert not path.exists()
