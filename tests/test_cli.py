"""End-to-end command line flows through main()."""
import json
import struct
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from eegraph.cli import EXIT_INVALID, EXIT_OK, EXIT_RUNTIME, main
from eegraph.data import SynthConfig, save_dataset, synthesize

SYNTH_DOC = {
    "subjects": 2, "trials_per_class": 2, "samples_per_trial": 2,
    "n_channels": 6, "n_bands": 3, "n_classes": 3, "seed": 7,
}
TRAIN_DOC = {"epochs": 2, "batch_size": 16, "hidden_dim": 8, "seed": 1,
             "protocol": "loso"}


@pytest.fixture()
def bundle(tmp_path):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(SYNTH_DOC))
    out = tmp_path / "bundle"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    return out


def read_json(capsys):
    return json.loads(capsys.readouterr().out)


def test_synth_summary_and_files(tmp_path, capsys):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(SYNTH_DOC))
    out = tmp_path / "b"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    doc = read_json(capsys)
    assert doc["n_samples"] == 2 * 6 * 2
    assert doc["n_channels"] == 6
    assert doc["subjects"] == [0, 1]
    assert (out / "manifest.json").is_file()
    assert (out / "features.f32").is_file()
    assert (out / "labels.i64").is_file()


def test_synth_is_byte_reproducible(tmp_path, capsys):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(SYNTH_DOC))
    a, b = tmp_path / "a", tmp_path / "b"
    main(["synth", "--config", str(cfg), "--out", str(a)])
    main(["synth", "--config", str(cfg), "--out", str(b)])
    capsys.readouterr()
    for name in ("manifest.json", "features.f32", "labels.i64"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_requires_seed(tmp_path, capsys):
    cfg = tmp_path / "synth.json"
    doc = dict(SYNTH_DOC)
    del doc["seed"]
    cfg.write_text(json.dumps(doc))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")]) == EXIT_INVALID
    assert "seed" in capsys.readouterr().err


def test_synth_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({**SYNTH_DOC, "tirals_per_class": 3}))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")]) == EXIT_INVALID
    assert "tirals_per_class" in capsys.readouterr().err


def test_synth_missing_config_file(tmp_path, capsys):
    assert main(["synth", "--config", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "x")]) == EXIT_INVALID
    capsys.readouterr()


def test_train_writes_artifacts(bundle, tmp_path, capsys):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps(TRAIN_DOC))
    out = tmp_path / "run"
    code = main(["train", "--data", str(bundle), "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    summary = read_json(capsys)
    assert summary["folds"] == 2
    assert 0.0 <= summary["mean_accuracy"] <= 1.0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["protocol"] == "loso"
    assert report["config"]["epochs"] == 2
    assert len(report["folds"]) == 2
    history = json.loads((out / "history.json").read_text())
    assert [h["fold"] for h in history] == [0, 1]
    assert len(history[0]["history"]) == 2
    assert (out / "fold0.ckpt").is_file()
    assert (out / "fold1.ckpt").is_file()


def test_train_reruns_byte_identical(bundle, tmp_path, capsys):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps(TRAIN_DOC))
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    main(["train", "--data", str(bundle), "--config", str(cfg), "--out", str(r1)])
    main(["train", "--data", str(bundle), "--config", str(cfg), "--out", str(r2)])
    capsys.readouterr()
    assert (r1 / "report.json").read_bytes() == (r2 / "report.json").read_bytes()
    assert (r1 / "history.json").read_bytes() == (r2 / "history.json").read_bytes()
    assert (r1 / "fold0.ckpt").read_bytes() == (r2 / "fold0.ckpt").read_bytes()


def test_train_seed_flag_overrides_config(bundle, tmp_path, capsys):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps(TRAIN_DOC))
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    main(["train", "--data", str(bundle), "--config", str(cfg), "--out", str(r1)])
    main(["train", "--data", str(bundle), "--config", str(cfg), "--out", str(r2),
          "--seed", "99"])
    capsys.readouterr()
    assert (r1 / "fold0.ckpt").read_bytes() != (r2 / "fold0.ckpt").read_bytes()
    report = json.loads((r2 / "report.json").read_text())
    assert report["config"]["seed"] == 99


def test_train_protocol_flag_without_config(bundle, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["train", "--data", str(bundle), "--out", str(out),
                 "--protocol", "loso"])
    assert code == EXIT_OK
    capsys.readouterr()


def test_train_subject_dependent_via_config(bundle, tmp_path, capsys):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({**TRAIN_DOC, "protocol": "subject_dependent",
                               "train_trials": 4}))
    out = tmp_path / "run"
    assert main(["train", "--data", str(bundle), "--config", str(cfg),
                 "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["train_trials"] == 4
    assert {f["subject"] for f in report["folds"]} == {0, 1}


def test_train_band_selection_recorded(bundle, tmp_path, capsys):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps(TRAIN_DOC))
    out = tmp_path / "run"
    assert main(["train", "--data", str(bundle), "--config", str(cfg),
                 "--out", str(out), "--bands", "band2,band0"]) == EXIT_OK
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["bands"] == ["band2", "band0"]


def test_train_rejects_a_band_named_twice(bundle, tmp_path, capsys):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps(TRAIN_DOC))
    out = tmp_path / "run"
    assert main(["train", "--data", str(bundle), "--config", str(cfg),
                 "--out", str(out), "--bands", "band1,band1"]) == EXIT_INVALID
    assert "band 'band1' is selected more than once" in capsys.readouterr().err
    assert not out.exists()


def test_loso_artifacts_ignore_the_held_out_labels(tmp_path, capsys):
    # the trainer sees the held-out subject as target rows only: relabeling
    # that subject (still one label per trial) leaves its fold's checkpoint
    # and history byte-identical; only the fold's scored accuracy may move
    ds = synthesize(SynthConfig(subjects=3, trials_per_class=2, samples_per_trial=3,
                                n_channels=6, n_bands=3, n_classes=3, seed=7))
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({**TRAIN_DOC, "node_dat": True, "emotion_dl": True,
                               "epsilon": 0.3, "dropout": 0.5}))

    def run(labels, name):
        save_dataset(replace(ds, labels=labels), tmp_path / f"{name}.bundle")
        out = tmp_path / name
        assert main(["train", "--data", str(tmp_path / f"{name}.bundle"), "--config", str(cfg),
                     "--out", str(out)]) == EXIT_OK
        history = json.loads((out / "history.json").read_text())
        report = json.loads((out / "report.json").read_text())
        return out, history, report

    base, base_history, base_report = run(ds.labels, "base")
    moved = False
    for s in ds.subjects():
        labels = ds.labels.copy()
        held = ds.subject_ids == s
        labels[held] = (labels[held] + 1) % 3
        out, history, report = run(labels, f"scrambled{s}")
        assert (out / f"fold{s}.ckpt").read_bytes() == (base / f"fold{s}.ckpt").read_bytes()
        assert json.dumps(history[s]) == json.dumps(base_history[s])
        fold, base_fold = report["folds"][s], base_report["folds"][s]
        assert {**fold, "accuracy": None} == {**base_fold, "accuracy": None}
        moved |= fold["accuracy"] != base_fold["accuracy"]
    capsys.readouterr()
    assert moved


def test_train_needs_protocol(bundle, tmp_path, capsys):
    assert main(["train", "--data", str(bundle),
                 "--out", str(tmp_path / "x")]) == EXIT_INVALID
    assert "protocol" in capsys.readouterr().err


def test_train_rejects_unknown_config_key(bundle, tmp_path, capsys):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({**TRAIN_DOC, "learning_rate": 0.1}))
    assert main(["train", "--data", str(bundle), "--config", str(cfg),
                 "--out", str(tmp_path / "x")]) == EXIT_INVALID
    assert "learning_rate" in capsys.readouterr().err


@pytest.mark.parametrize("command,field,value", [
    ("train", "epochs", 2.5),
    ("train", "lr", float("nan")),
    ("train", "node_dat", "yes"),
    ("train", "batch_size", True),
    ("train", "train_trials", 1.5),
    ("train", "bands", "alpha"),
    ("train", "bands", ["band0", 1]),
    ("synth", "seed", 1.5),
    ("synth", "subjects", 2.5),
    ("synth", "class_separation", float("nan")),
    ("synth", "label_scheme", 3.0),
])
def test_mistyped_config_value_is_a_validation_error(bundle, tmp_path, capsys, command, field, value):
    cfg = tmp_path / "mistyped.json"
    if command == "train":
        cfg.write_text(json.dumps({**TRAIN_DOC, field: value}))
        argv = ["train", "--data", str(bundle), "--config", str(cfg)]
    else:
        cfg.write_text(json.dumps({**SYNTH_DOC, field: value}))
        argv = ["synth", "--config", str(cfg)]
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "x")]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


def test_float_field_refuses_an_integer_no_float_holds(bundle, tmp_path, capsys):
    # such an integer once passed the check and failed in training with a traceback
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({**TRAIN_DOC, "lr": 10**400}))
    assert main(["train", "--data", str(bundle), "--config", str(cfg),
                 "--out", str(tmp_path / "x")]) == EXIT_INVALID
    assert capsys.readouterr().err == "error: config field lr must be a finite JSON number\n"


def test_float_fields_accept_integers(bundle, tmp_path, capsys):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({**TRAIN_DOC, "epochs": 1, "lr": 1, "epsilon": 0}))
    assert main(["train", "--data", str(bundle), "--config", str(cfg),
                 "--out", str(tmp_path / "x")]) == EXIT_OK
    capsys.readouterr()
    echo = json.loads((tmp_path / "x" / "report.json").read_text())["config"]
    assert echo["lr"] == 1 and isinstance(echo["lr"], int)


@pytest.mark.parametrize("field,value", [("lr", 0.0), ("beta2", 1.0)])
def test_bad_optimizer_field_is_reported_before_the_bundle_is_read(tmp_path, capsys, field, value):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({**TRAIN_DOC, field: value}))
    assert main(["train", "--data", str(tmp_path / "nope"), "--config", str(cfg),
                 "--out", str(tmp_path / "x")]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be") and "manifest" not in err


@pytest.mark.parametrize("field,value", [("dropout", 1.0), ("hidden_dim", 0), ("steps", 0)])
def test_bad_model_field_is_reported_before_the_bundle_is_read(tmp_path, capsys, field, value):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({**TRAIN_DOC, field: value}))
    assert main(["train", "--data", str(tmp_path / "nope"), "--config", str(cfg),
                 "--out", str(tmp_path / "x")]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be") and "manifest" not in err


def test_train_missing_bundle(tmp_path, capsys):
    assert main(["train", "--data", str(tmp_path / "nope"), "--protocol", "loso",
                 "--out", str(tmp_path / "x")]) == EXIT_INVALID
    capsys.readouterr()


def test_train_divergence_exit_code(bundle, tmp_path, capsys):
    # an L1 weight whose subgradient squares past float64 overflows Adam's
    # second moment on the first step: a numeric failure, not an input error
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({**TRAIN_DOC, "alpha": 1e200}))
    assert main(["train", "--data", str(bundle), "--config", str(cfg),
                 "--out", str(tmp_path / "x")]) == EXIT_RUNTIME
    assert "fold 0: Adam's second moment overflows" in capsys.readouterr().err


def test_train_refuses_a_non_finite_feature_before_training(bundle, tmp_path, capsys):
    # one NaN once stopped the run as a divergence naming a fold and a batch
    blob = bytearray((bundle / "features.f32").read_bytes())
    blob[4 * 7 : 4 * 8] = struct.pack("<f", float("nan"))  # row 0, channel 2, band 1
    (bundle / "features.f32").write_bytes(bytes(blob))
    assert main(["train", "--data", str(bundle), "--protocol", "loso",
                 "--out", str(tmp_path / "x")]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.rstrip().endswith(
        "features.f32: feature at row 0, channel 2, band 'band1' is nan")
    assert not (tmp_path / "x").exists()  # nothing trained, nothing written


def test_inspect_reports_structure(bundle, tmp_path, capsys):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps(TRAIN_DOC))
    out = tmp_path / "run"
    main(["train", "--data", str(bundle), "--config", str(cfg), "--out", str(out)])
    capsys.readouterr()
    assert main(["inspect", "--checkpoint", str(out / "fold0.ckpt"),
                 "--top-k", "3"]) == EXIT_OK
    doc = read_json(capsys)
    assert len(doc["activation_map"]) == 6
    assert set(doc["activation_map"]) == {f"E{i}" for i in range(6)}
    assert len(doc["top_connections"]) == 3
    row = doc["top_connections"][0]
    assert set(row) == {"a", "b", "weight"}
    mags = [abs(r["weight"]) for r in doc["top_connections"]]
    assert mags == sorted(mags, reverse=True)


def test_builtin_montage_training_smoke(tmp_path, capsys):
    # the shipped 62-electrode montage with its hemisphere pairs, NodeDAT and
    # soft labels on, through synth -> LOSO train -> inspect
    from eegraph.electrodes import builtin_layout

    synth = tmp_path / "synth.json"
    synth.write_text(json.dumps({
        "subjects": 3, "trials_per_class": 2, "samples_per_trial": 8,
        "n_channels": 62, "n_bands": 5, "n_classes": 3,
        "class_separation": 40.0, "subject_shift_scale": 0.2, "seed": 11,
    }))
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({
        "epochs": 2, "batch_size": 16, "hidden_dim": 8, "dropout": 0.5, "seed": 0,
        "node_dat": True, "emotion_dl": True, "epsilon": 0.2, "protocol": "loso",
    }))
    bundle = tmp_path / "bundle"
    assert main(["synth", "--config", str(synth), "--out", str(bundle)]) == EXIT_OK
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    for out in (r1, r2):
        assert main(["train", "--data", str(bundle), "--config", str(cfg),
                     "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert (r1 / "report.json").read_bytes() == (r2 / "report.json").read_bytes()
    folds = json.loads((r1 / "history.json").read_text())
    assert len(folds) == 3
    for fold in folds:
        first, last = fold["history"]
        assert last["total"] < first["total"]
        assert last["domain_term"] > 0.0 and last["beta"] > 0.0

    assert main(["inspect", "--checkpoint", str(r1 / "fold0.ckpt"), "--top-k", "5"]) == EXIT_OK
    doc = read_json(capsys)
    names = builtin_layout().names
    assert list(doc["activation_map"]) == sorted(names)
    assert all({row["a"], row["b"]} <= set(names) for row in doc["top_connections"])


def test_inspect_missing_checkpoint(tmp_path, capsys):
    assert main(["inspect", "--checkpoint", str(tmp_path / "no.ckpt")]) == EXIT_INVALID
    capsys.readouterr()


def test_inspect_rejects_a_header_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "list.ckpt"
    path.write_bytes(b"[1]\n")
    assert main(["inspect", "--checkpoint", str(path)]) == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("edit, flags", [
    ({"global_pairs": [["E0", "E3", "E2"]]}, ["--exclude-global"]),
    ({"channel_names": "WXYZ"}, []),
], ids=["three_name_pair", "string_names"])
def test_inspect_rejects_malformed_header_names(tmp_path, capsys, edit, flags):
    # a three-name pair once stopped --exclude-global with a traceback, and
    # a string of names once read as one name per character
    from eegraph.checkpoint import Checkpoint, save_checkpoint
    from eegraph.electrodes import ring_layout
    from eegraph.model import init_params
    from eegraph.params import ModelConfig

    cfg = ModelConfig(n_channels=4, in_dim=3, hidden_dim=4, n_classes=3, steps=2)
    path = tmp_path / "named.ckpt"
    params = init_params(cfg, ring_layout(4), 0)
    save_checkpoint(path, Checkpoint(cfg=cfg, params=params,
                                     channel_names=["E0", "E1", "E2", "E3"],
                                     global_pairs=[("E0", "E3")]))
    head, body = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps({**json.loads(head), **edit}).encode() + b"\n" + body)
    assert main(["inspect", "--checkpoint", str(path), "--top-k", "2", *flags]) == EXIT_INVALID
    assert capsys.readouterr().err.startswith("error: ")


def test_inspect_refuses_a_version_2_file(tmp_path, capsys):
    # version 2 put a channel count before the adjacency and a rank and dims
    # before each dense weight; it is not read any more
    from eegraph.checkpoint import Checkpoint, save_checkpoint
    from eegraph.electrodes import ring_layout
    from eegraph.model import init_params
    from eegraph.params import ModelConfig

    cfg = ModelConfig(n_channels=4, in_dim=3, hidden_dim=4, n_classes=3, steps=2)
    params = init_params(cfg, ring_layout(4), 0)
    path = tmp_path / "v2.ckpt"
    save_checkpoint(path, Checkpoint(cfg=cfg, params=params))
    doc = {**json.loads(path.read_bytes().split(b"\n", 1)[0]), "version": 2}
    body = struct.pack("<I", 4) + params.adj.upper.astype("<f8").tobytes()
    for w in (params.w_feat, params.w_class):
        body += struct.pack("<3I", 2, *w.shape) + w.astype("<f8").tobytes()
    path.write_bytes(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
                     + b"\n" + body)
    assert main(["inspect", "--checkpoint", str(path), "--top-k", "2"]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "unsupported version 2" in err


def test_inspect_rejects_oversized_k(bundle, tmp_path, capsys):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps(TRAIN_DOC))
    out = tmp_path / "run"
    main(["train", "--data", str(bundle), "--config", str(cfg), "--out", str(out)])
    capsys.readouterr()
    assert main(["inspect", "--checkpoint", str(out / "fold0.ckpt"),
                 "--top-k", "9999"]) == EXIT_INVALID
    capsys.readouterr()


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--size", "small"]) == EXIT_OK
    doc = read_json(capsys)
    assert doc["ok"] is True
    assert doc["max_relative_error"] < doc["threshold"] == 1e-4


def test_gradcheck_negative_control(capsys):
    assert main(["gradcheck", "--size", "small", "--corrupt", "w_feat"]) == EXIT_RUNTIME
    doc = read_json(capsys)
    assert doc["ok"] is False
    assert doc["max_relative_error"] > 1e-4


@pytest.mark.parametrize("argv", [
    ["train", "--protocol", "loso", "--seed", "-1"],
    ["synth"],
    ["gradcheck", "--seed", "-3"],
], ids=["train", "synth", "gradcheck"])
def test_negative_seed_is_a_validation_error(bundle, tmp_path, capsys, argv):
    if argv[0] == "train":
        argv = argv + ["--data", str(bundle), "--out", str(tmp_path / "x")]
    elif argv[0] == "synth":
        cfg = tmp_path / "negative.json"
        cfg.write_text(json.dumps({**SYNTH_DOC, "seed": -5}))
        argv = argv + ["--config", str(cfg), "--out", str(tmp_path / "x")]
    capsys.readouterr()
    assert main(argv) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed must be >= 0" in err


def test_gradcheck_unknown_tensor(capsys):
    assert main(["gradcheck", "--corrupt", "w_nothing"]) == EXIT_INVALID
    capsys.readouterr()


def test_usage_errors_are_validation_errors(capsys):
    assert main(["train", "--no-such-flag"]) == EXIT_INVALID
    capsys.readouterr()
    assert main(["frobnicate"]) == EXIT_INVALID
    capsys.readouterr()


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "eegraph", "gradcheck", "--size", "small"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True
