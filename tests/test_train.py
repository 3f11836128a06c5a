"""Training loop behavior: reproducibility, switches, failure modes."""
import collections
import dataclasses
import importlib
import re

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from eegraph.data import SynthConfig, split_loso, synthesize
from eegraph.electrodes import DELTA_DEFAULT, ring_layout
from eegraph.errors import ConfigError, DivergenceError
from eegraph.losses import grl_beta
from eegraph.params import ModelConfig
from eegraph.train import (
    TrainConfig,
    default_layout_for,
    make_model_config,
    resolve_delta,
    train,
)

DS = synthesize(SynthConfig(subjects=2, trials_per_class=2, samples_per_trial=3,
                            n_channels=6, n_bands=3, n_classes=3, seed=5))
TGT = synthesize(SynthConfig(subjects=2, trials_per_class=2, samples_per_trial=3,
                             n_channels=6, n_bands=3, n_classes=3,
                             subject_shift_scale=1.5, seed=6))

QUICK = dict(epochs=2, batch_size=16, hidden_dim=8, seed=3)


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(epsilon=1.5)
    with pytest.raises(ConfigError):
        TrainConfig(alpha=-0.1)
    with pytest.raises(ConfigError):
        TrainConfig(node_dat=True, dat_graph_level=True)
    with pytest.raises(ConfigError):
        TrainConfig(delta=0.0)


@pytest.mark.parametrize("field,value", [("lr", 0.0), ("beta1", -0.1), ("beta2", 1.0),
                                         ("adam_eps", -1.0), ("weight_decay", -0.1)])
def test_config_refuses_a_bad_optimizer_field_when_built(field, value):
    with pytest.raises(ConfigError):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field,value", [("hidden_dim", 0), ("steps", 0), ("dropout", 1.0),
                                         ("dropout", -0.1)])
def test_config_refuses_a_bad_model_field_when_built(field, value):
    # the model config's own check and message, before any data is read
    with pytest.raises(ConfigError) as exc:
        ModelConfig(**{"n_channels": 4, "in_dim": 5, "hidden_dim": 8, "n_classes": 3,
                       field: value})
    with pytest.raises(ConfigError, match=f"^{re.escape(str(exc.value))}$"):
        TrainConfig(**{field: value})


def test_config_domain_properties():
    assert not TrainConfig().uses_domain
    assert TrainConfig(node_dat=True).uses_domain
    assert TrainConfig(node_dat=True).domain_level == "node"
    assert TrainConfig(dat_graph_level=True).domain_level == "graph"
    adam = TrainConfig(lr=0.2, weight_decay=0.01).adam()
    assert adam.lr == 0.2 and adam.weight_decay == 0.01


def test_default_layout_router():
    lay, pairs = default_layout_for(62)
    assert lay.n == 62 and pairs is not None and len(pairs.pairs) == 9
    lay, pairs = default_layout_for(10)
    assert lay.n == 10 and pairs is None


def test_resolve_delta_explicit_wins():
    assert resolve_delta(ring_layout(6), 2.5) == 2.5


def test_resolve_delta_explicit_skips_the_geometry(monkeypatch):
    train_module = importlib.import_module("eegraph.train")

    def refuse(*args, **kwargs):
        raise AssertionError("distances computed for an explicit delta")

    monkeypatch.setattr(train_module, "pairwise_distances", refuse)
    assert resolve_delta(ring_layout(6), 2.5) == 2.5


def test_resolve_delta_keeps_convention_when_sane():
    from eegraph.electrodes import builtin_layout

    assert resolve_delta(builtin_layout(), None) == 5.0 == DELTA_DEFAULT


def test_resolve_delta_recalibrates_absurd_geometry():
    from eegraph.electrodes import (
        init_local_adjacency,
        pairwise_distances,
        sparsity_fraction,
    )

    lay = ring_layout(12, radius=100.0)  # delta=5 leaves everything negligible
    delta = resolve_delta(lay, None)
    assert delta != 5.0
    frac = sparsity_fraction(init_local_adjacency(pairwise_distances(lay.positions), delta))
    assert 0.15 <= frac <= 0.30


def test_model_config_derived_from_data():
    cfg = make_model_config(TrainConfig(hidden_dim=9, steps=3, dropout=0.5),
                            DS.features, DS.label_scheme)
    assert cfg.n_channels == 6 and cfg.in_dim == 3
    assert cfg.n_classes == 3 and cfg.hidden_dim == 9
    assert cfg.steps == 3 and cfg.dropout == 0.5


def test_plain_run_shape_of_history():
    res = train(DS, None, TrainConfig(**QUICK))
    assert len(res.history) == 2
    row = res.history[0]
    assert set(row) == {"epoch", "kl_term", "l1_term", "domain_term", "total",
                        "train_accuracy", "beta"}
    assert row["epoch"] == 0
    assert row["kl_term"] > 0
    assert row["l1_term"] == 0.0  # alpha defaults to 0
    assert row["domain_term"] == 0.0 and row["beta"] == 0.0
    assert 0.0 <= row["train_accuracy"] <= 1.0
    assert row["total"] == row["kl_term"]
    assert res.params.w_dom is None
    assert res.channel_names == [f"E{i}" for i in range(6)]
    assert res.global_pairs is None


def test_alpha_records_l1():
    res = train(DS, None, TrainConfig(alpha=0.05, **QUICK))
    assert res.history[0]["l1_term"] > 0
    assert res.history[0]["total"] == pytest.approx(
        res.history[0]["kl_term"] + res.history[0]["l1_term"]
    )


def test_same_seed_bitwise_reproducible():
    a = train(DS, None, TrainConfig(**QUICK))
    b = train(DS, None, TrainConfig(**QUICK))
    assert np.array_equal(a.params.adj.upper, b.params.adj.upper)
    assert np.array_equal(a.params.w_feat, b.params.w_feat)
    assert np.array_equal(a.params.w_class, b.params.w_class)
    assert a.history == b.history


def test_different_seed_differs():
    a = train(DS, None, TrainConfig(**QUICK))
    c = train(DS, None, TrainConfig(**{**QUICK, "seed": 4}))
    assert not np.array_equal(a.params.w_feat, c.params.w_feat)


def test_epsilon_inert_without_flag():
    a = train(DS, None, TrainConfig(**QUICK))
    b = train(DS, None, TrainConfig(epsilon=0.4, **QUICK))
    assert np.array_equal(a.params.w_class, b.params.w_class)
    assert a.history == b.history


def test_soft_labels_change_training():
    a = train(DS, None, TrainConfig(**QUICK))
    b = train(DS, None, TrainConfig(emotion_dl=True, epsilon=0.4, **QUICK))
    assert not np.array_equal(a.params.w_class, b.params.w_class)


def test_soft_labels_at_zero_spread_match_hard():
    a = train(DS, None, TrainConfig(**QUICK))
    b = train(DS, None, TrainConfig(emotion_dl=True, epsilon=0.0, **QUICK))
    assert np.array_equal(a.params.w_class, b.params.w_class)
    assert a.history == b.history


def test_empty_training_set_rejected():
    empty = DS.take(np.arange(0))
    for cfg in (TrainConfig(**QUICK), TrainConfig(node_dat=True, **QUICK)):
        with pytest.raises(ConfigError, match="training set is empty"):
            train(empty, TGT, cfg)


def test_domain_path_needs_target():
    with pytest.raises(ConfigError):
        train(DS, None, TrainConfig(node_dat=True, **QUICK))


def test_domain_target_shape_checked():
    bad = synthesize(SynthConfig(subjects=1, trials_per_class=1, samples_per_trial=2,
                                 n_channels=5, n_bands=3, n_classes=3, seed=1))
    with pytest.raises(ConfigError):
        train(DS, bad, TrainConfig(node_dat=True, **QUICK))


def test_domain_run_accepts_labeled_target_and_records_beta():
    res = train(DS, TGT, TrainConfig(node_dat=True, **QUICK))
    assert res.params.w_dom is not None
    assert res.history[0]["domain_term"] > 0
    n, bs = DS.n_samples, QUICK["batch_size"]
    per_epoch = (n + bs - 1) // bs
    total = QUICK["epochs"] * per_epoch
    assert res.history[0]["beta"] == pytest.approx(grl_beta((per_epoch - 1) / total))
    assert res.history[1]["beta"] > res.history[0]["beta"]
    # only the features of a labeled target are read: shifting every
    # target label by one class changes nothing
    shifted = dataclasses.replace(TGT, labels=(TGT.labels + 1) % TGT.n_classes)
    assert not np.array_equal(shifted.labels, TGT.labels)
    relabeled = train(DS, shifted, TrainConfig(node_dat=True, **QUICK))
    assert res.history == relabeled.history
    for name, tensor in res.params.tensors().items():
        assert np.array_equal(tensor, relabeled.params.tensors()[name])


@pytest.mark.parametrize("level", ["node_dat", "dat_graph_level"])
def test_domain_step_runs_one_forward_and_one_domain_forward(monkeypatch, level):
    # the target rows ride behind the source rows through one encoder pass;
    # the package exports a function named train, so fetch the module itself
    train_module = importlib.import_module("eegraph.train")
    calls = {"forward": 0, "domain_forward": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(train_module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(train_module, name, counted)
    train(DS, TGT, TrainConfig(**{level: True}, **QUICK))
    batches = QUICK["epochs"] * -(-DS.n_samples // QUICK["batch_size"])
    assert calls == {"forward": batches, "domain_forward": batches}


def test_graph_level_variant_runs_with_same_parameter_shapes():
    node = train(DS, TGT, TrainConfig(node_dat=True, **QUICK))
    graph = train(DS, TGT, TrainConfig(dat_graph_level=True, **QUICK))
    assert graph.history[0]["domain_term"] > 0
    # both heads read hidden_dim-wide inputs, so every shape coincides
    for name, arr in node.params.tensors().items():
        assert graph.params.tensors()[name].shape == arr.shape


def test_single_step_beta_zero_matches_domain_off_bitwise():
    # one batch in one epoch: the schedule starts at exactly zero, so the
    # shared parameters must move exactly as they would without the
    # adversary, and the extra random streams must not leak anywhere
    cfg = dict(epochs=1, batch_size=64, hidden_dim=8, seed=12)
    plain = train(DS, None, TrainConfig(**cfg))
    dat = train(DS, TGT, TrainConfig(node_dat=True, **cfg))
    assert np.array_equal(plain.params.adj.upper, dat.params.adj.upper)
    assert np.array_equal(plain.params.w_feat, dat.params.w_feat)
    assert np.array_equal(plain.params.w_class, dat.params.w_class)


def test_divergence_reported_with_location():
    broken = DS.take(np.arange(DS.n_samples))
    broken.features[0, 0, 0] = np.nan
    with pytest.raises(DivergenceError) as exc:
        train(broken, None, TrainConfig(**QUICK))
    assert "epoch 0" in str(exc.value)


def test_divergent_directions_also_caught():
    # an inf feature keeps the loss finite but poisons the gradients; the
    # optimizer's own precheck picks that variant up
    broken = DS.take(np.arange(DS.n_samples))
    broken.features[0, 0, 0] = np.inf
    with pytest.raises(DivergenceError):
        train(broken, None, TrainConfig(**QUICK))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("node_dat", [False, True])
def test_divergent_directions_raise_without_numpy_warnings(node_dat):
    broken = DS.take(np.arange(DS.n_samples))
    broken.features[0, 0, 0] = np.inf
    with pytest.raises(DivergenceError):
        train(broken, TGT, TrainConfig(node_dat=node_dat, **QUICK))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("node_dat", [False, True])
def test_diverging_forward_raises_without_numpy_warnings(node_dat):
    # here the inf reaches the forward's dropout multiply, class head and
    # domain head, each of which warned; the 6-channel data above never does
    cohort = synthesize(SynthConfig(subjects=3, trials_per_class=1, samples_per_trial=4,
                                    n_channels=4, n_bands=5, n_classes=4, seed=77))
    fold, held_out = split_loso(cohort)[0]
    fold.features[0, 0, 0] = np.inf
    with pytest.raises(DivergenceError, match="non-finite loss"):
        train(fold, held_out, TrainConfig(node_dat=node_dat, **{**QUICK, "seed": 2}))


def _isolated_channel_run(weight):
    """A 4-channel run whose channel 3 has no edge but a self-loop of `weight`."""
    from eegraph.graph import SymmetricAdjacency
    from eegraph.train import IndexedJob, _train_group

    ds = synthesize(SynthConfig(subjects=2, trials_per_class=2, samples_per_trial=4,
                                n_channels=4, n_bands=3, n_classes=3, seed=1))
    full = np.where(np.eye(4) > 0, 1.0, 0.5)
    full[3, :] = full[:, 3] = 0.0
    full[3, 3] = weight
    job = IndexedJob(np.arange(ds.n_samples), ds.labels, ds.label_scheme)
    cfg = TrainConfig(epochs=3, batch_size=4, hidden_dim=4, dropout=0.0)
    return _train_group(ds.features, [job], cfg, SymmetricAdjacency.from_full(full),
                        list("abcd"), None, ["fold 0: "])[0]


@pytest.mark.parametrize("weight", [1e-200, 1e-300])
def test_second_moment_overflow_raises_instead_of_freezing_the_entry(weight):
    # the self-loop's direction is finite, but its square overflows Adam's
    # second moment, which would hold the entry at `weight` for good
    with pytest.raises(DivergenceError, match="^fold 0: .*second moment.*'adj'$"):
        _isolated_channel_run(weight)


def test_a_tiny_self_loop_still_trains():
    res = _isolated_channel_run(1e-150)
    entry = res.params.adj.full()[3, 3]
    assert np.isfinite(res.params.flat).all() and abs(entry) > 1e-3


def test_layout_size_mismatch():
    with pytest.raises(ConfigError):
        train(DS, None, TrainConfig(**QUICK), layout=ring_layout(4))


def test_custom_delta_flows_into_adjacency():
    a = train(DS, None, TrainConfig(delta=0.5, **QUICK))
    b = train(DS, None, TrainConfig(delta=50.0, **QUICK))
    assert not np.array_equal(a.params.adj.upper, b.params.adj.upper)


def test_training_reduces_loss_on_easy_data():
    easy = synthesize(SynthConfig(subjects=2, trials_per_class=3, samples_per_trial=6,
                                  n_channels=8, n_bands=4, n_classes=2,
                                  class_separation=6.0, subject_shift_scale=0.0,
                                  seed=9))
    res = train(easy, None, TrainConfig(epochs=30, batch_size=16, hidden_dim=8,
                                        lr=0.005, dropout=0.0, seed=0))
    assert res.history[-1]["kl_term"] < 0.5 * res.history[0]["kl_term"]
    assert res.history[-1]["train_accuracy"] >= 0.9


# --- lockstep groups ---------------------------------------------------------

# the ablation gate's shape (4 channels, 5 bands, 4 classes, h8, batch 12) on
# 4 subjects of 24 samples: every LOSO fold trains on 72 samples, 6 batches
GATE_DS = synthesize(SynthConfig(subjects=4, trials_per_class=1, samples_per_trial=6,
                                 n_channels=4, n_bands=5, n_classes=4,
                                 subject_shift_scale=2.0, label_noise_rate=0.2, seed=77))
GATE = dict(epochs=2, lr=0.005, hidden_dim=8, batch_size=12, dropout=0.0, alpha=0.01, seed=2)


def _checkpoint_bytes(result, path):
    from eegraph.checkpoint import Checkpoint, save_checkpoint

    save_checkpoint(path, Checkpoint(cfg=result.model_cfg, params=result.params,
                                     channel_names=result.channel_names,
                                     global_pairs=result.global_pairs))
    return path.read_bytes()


# 62 channels, where sums over a channel-sized axis run past numpy's 8-wide
# pairwise blocks; at batch 2 and hidden 4 all three folds share one group
WIDE_DS = synthesize(SynthConfig(subjects=3, trials_per_class=1, samples_per_trial=4,
                                 n_channels=62, n_bands=5, n_classes=3,
                                 subject_shift_scale=0.5, seed=5))


@pytest.mark.parametrize("ds, variant", [
    pytest.param(GATE_DS, dict(node_dat=True), id="node_dat"),
    pytest.param(GATE_DS, dict(dat_graph_level=True), id="dat_graph_level"),
    pytest.param(GATE_DS, dict(emotion_dl=True, epsilon=0.4), id="emotion_dl"),
    pytest.param(GATE_DS, dict(node_dat=True, emotion_dl=True, epsilon=0.4, dropout=0.3),
                 id="dropout"),
    pytest.param(GATE_DS, dict(weight_decay=0.05), id="weight_decay"),
    pytest.param(WIDE_DS, dict(batch_size=2, hidden_dim=4, alpha=0.05), id="62_channels"),
])
def test_lockstep_group_matches_separate_runs_bitwise(monkeypatch, tmp_path, ds, variant):
    from eegraph.eval import run_protocol
    from eegraph.train import _group_size

    cfg = TrainConfig(**{**GATE, **variant})
    folds = split_loso(ds)
    assert _group_size(cfg, ds.n_channels) >= len(folds)
    groups = _record_groups(monkeypatch)
    _, grouped = run_protocol(ds, "loso", cfg)
    assert groups == [[f"fold {i}" for i in range(len(folds))]]
    assert len(grouped) == len(folds)
    for i, ((fold_train, fold_test), got) in enumerate(zip(folds, grouped)):
        alone = train(fold_train, fold_test, cfg)
        assert np.array_equal(got.params.flat, alone.params.flat)
        assert got.history == alone.history
        assert (_checkpoint_bytes(got, tmp_path / f"g{i}.ckpt")
                == _checkpoint_bytes(alone, tmp_path / f"a{i}.ckpt"))


def _record_groups(monkeypatch):
    """Wrap the lockstep group trainer; collect the model names of each group."""
    train_module = importlib.import_module("eegraph.train")
    groups = []
    real = train_module._train_group

    def recorded(*args):
        prefixes = args[-1]
        groups.append([prefix.removesuffix(": ") for prefix in prefixes])
        return real(*args)

    monkeypatch.setattr(train_module, "_train_group", recorded)
    return groups


def _unequal_subjects():
    # subject 0 loses half of its first trial: 21 samples instead of 24
    first = (GATE_DS.subject_ids == 0) & (GATE_DS.trial_ids == GATE_DS.trial_ids.min())
    drop = np.flatnonzero(first)[:3]
    return GATE_DS.take(np.setdiff1d(np.arange(GATE_DS.n_samples), drop))


@pytest.mark.parametrize("protocol", ["loso", "subject_dependent"])
def test_unequal_folds_train_in_separate_groups(monkeypatch, protocol):
    from eegraph.data import _subject_dependent_rows
    from eegraph.eval import run_protocol

    ds = _unequal_subjects()
    if protocol == "loso":
        folds = split_loso(ds)
        kwargs = {}
    else:
        # the first trial trains; subject 0's has 3 samples, the others' 6
        folds = [(ds.take(tr), ds.take(te)) for tr, te in _subject_dependent_rows(ds, 1)]
        kwargs = {"train_trials": 1}
    sizes = [fold_train.n_samples for fold_train, _ in folds]
    assert sizes[0] != sizes[1] == sizes[2] == sizes[3]
    groups = _record_groups(monkeypatch)
    cfg = TrainConfig(**GATE, node_dat=True)
    report, results = run_protocol(ds, protocol, cfg, **kwargs)
    assert groups == [["fold 0"], ["fold 1", "fold 2", "fold 3"]]
    for (fold_train, fold_test), result in zip(folds, results):
        alone = train(fold_train, fold_test, cfg)
        assert np.array_equal(result.params.flat, alone.params.flat)
        assert result.history == alone.history


@settings(derandomize=True, deadline=None, max_examples=10)
@given(protocol=st.sampled_from(["loso", "subject_dependent"]), channels=st.integers(3, 9),
       batch=st.integers(1, 7), dat=st.booleans(),
       level=st.sampled_from(["node_dat", "dat_graph_level"]), dropout=st.sampled_from([0.0, 0.4]))
def test_lockstep_folds_match_separate_runs_across_shapes(protocol, channels, batch, dat, level,
                                                           dropout):
    # 3 subjects of 3 trials of 3 samples, subject 0 one sample short: fold 0
    # trains alone and folds 1 and 2 in one group under either protocol
    from eegraph.data import _loso_rows, _subject_dependent_rows
    from eegraph.eval import run_protocol

    cohort = synthesize(SynthConfig(subjects=3, trials_per_class=1, samples_per_trial=3,
                                    n_channels=channels, n_bands=3, n_classes=3,
                                    subject_shift_scale=1.0, seed=channels))
    ds = cohort.take(np.arange(1, cohort.n_samples))
    cfg = TrainConfig(epochs=2, batch_size=batch, hidden_dim=4, dropout=dropout, alpha=0.01,
                      seed=batch, **({level: True} if dat else {}))
    if protocol == "loso":
        folds, kwargs = _loso_rows(ds), {}
    else:
        folds, kwargs = _subject_dependent_rows(ds, 1), {"train_trials": 1}
    with pytest.MonkeyPatch.context() as mp:
        groups = _record_groups(mp)
        _, results = run_protocol(ds, protocol, cfg, **kwargs)
    assert groups == [["fold 0"], ["fold 1", "fold 2"]]
    for (train_rows, test_rows), result in zip(folds, results):
        alone = train(ds.take(train_rows), ds.take(test_rows), cfg)
        assert np.array_equal(result.params.flat, alone.params.flat)
        assert result.history == alone.history


def test_group_size_at_the_workload_shapes(monkeypatch):
    from eegraph.eval import run_protocol
    from eegraph.train import _group_size

    # gate: 4 channels, h8, batch 12, domain on; all 8 LOSO folds share a group
    gate = TrainConfig(hidden_dim=8, batch_size=12, node_dat=True, epochs=1, dropout=0.0)
    assert _group_size(gate, 4) >= 8
    ds = synthesize(SynthConfig(subjects=8, trials_per_class=1, samples_per_trial=3,
                                n_channels=4, n_bands=5, n_classes=4, seed=77))
    groups = _record_groups(monkeypatch)
    run_protocol(ds, "loso", gate)
    assert groups == [[f"fold {i}" for i in range(8)]]
    # 62 channels at h16, batch 16 with the domain path, and at h64, batch 128 without
    assert _group_size(TrainConfig(hidden_dim=16, batch_size=16, node_dat=True), 62) == 1
    assert _group_size(TrainConfig(hidden_dim=64, batch_size=128), 62) == 1


@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
@pytest.mark.parametrize("poison", [np.nan, np.inf])
def test_lockstep_divergence_names_the_model(poison):
    # on this 6-channel set NaN makes the loss non-finite, while inf leaves
    # it finite and is caught by the finite check on the group's directions,
    # which also names the model's first non-finite tensor
    from eegraph.train import IndexedJob, train_indexed

    n = DS.n_samples
    broken = DS.features.copy()
    broken[0, 0, 0] = poison
    features = np.concatenate([DS.features, broken])
    jobs = [IndexedJob(rows, DS.labels, DS.label_scheme)
            for rows in (np.arange(n), np.arange(n, 2 * n), np.arange(n))]
    match = ("^fold 1: non-finite loss" if np.isnan(poison)
             else "^fold 1: non-finite update direction for tensor 'adj'$")
    with pytest.raises(DivergenceError, match=match):
        train_indexed(features, jobs, TrainConfig(**QUICK), names=["fold 0", "fold 1", "fold 2"])


def test_lockstep_groups_jobs_by_size_and_keeps_their_order(monkeypatch):
    from eegraph.data import _loso_rows
    from eegraph.train import IndexedJob, train_indexed

    # fold 0 trains on 72 samples, folds 1 and 2 on 69
    ds = _unequal_subjects()
    rows = [_loso_rows(ds)[i][0] for i in (1, 0, 2)]
    jobs = [IndexedJob(r, ds.labels[r], ds.label_scheme) for r in rows]
    groups = _record_groups(monkeypatch)
    cfg = TrainConfig(**GATE)
    results = train_indexed(ds.features, jobs, cfg, names=["a", "b", "c"])
    assert groups == [["a", "c"], ["b"]]
    for r, result in zip(rows, results):
        assert np.array_equal(result.params.flat, train(ds.take(r), None, cfg).params.flat)


def test_lockstep_group_draws_once_for_all_its_models(monkeypatch):
    # every model trains under the run seed: one initial draw and one
    # dropout mask per step serve the whole group (that each model's result
    # is still its own is test_lockstep_group_matches_separate_runs_bitwise)
    from eegraph.data import _loso_rows
    from eegraph.train import IndexedJob, train_indexed

    train_module = importlib.import_module("eegraph.train")
    counts = collections.Counter()

    def counting(name):
        real = getattr(train_module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(train_module, name, counted)

    counting("init_params")
    counting("sample_dropout_mask")
    groups = _record_groups(monkeypatch)
    rows = [train_rows for train_rows, _ in _loso_rows(GATE_DS)[:3]]
    jobs = [IndexedJob(r, GATE_DS.labels[r], GATE_DS.label_scheme) for r in rows]
    cfg = TrainConfig(**{**GATE, "dropout": 0.5})
    train_indexed(GATE_DS.features, jobs, cfg, names=["a", "b", "c"])
    assert groups == [["a", "b", "c"]]
    assert counts == {"init_params": 1, "sample_dropout_mask": cfg.epochs * -(-72 // 12)}


def test_adam_steps_once_per_model_step(monkeypatch):
    # one group update per lockstep step, with one row per model in the group
    from eegraph.eval import run_protocol

    train_module = importlib.import_module("eegraph.train")
    real = train_module.adam_update
    calls = []

    def counted(state, params, g, prefixes):
        calls.append((state, len(params.flat)))
        return real(state, params, g, prefixes)

    monkeypatch.setattr(train_module, "adam_update", counted)
    cfg = TrainConfig(**GATE, node_dat=True)
    run_protocol(GATE_DS, "loso", cfg)
    steps_per_model = cfg.epochs * -(-72 // cfg.batch_size)
    # the 4 folds train on 72 samples each: one group of 4 models
    assert [rows for _, rows in calls] == [4] * steps_per_model
    steps = collections.Counter((id(state), row) for state, rows in calls for row in range(rows))
    assert sorted(steps.values()) == [steps_per_model] * 4
    assert calls[-1][0].t == steps_per_model


@pytest.mark.parametrize("sizes", ["equal", "unequal"])
def test_target_resample_is_drawn_once_per_epoch_and_target_size(monkeypatch, sizes):
    # every model of a group draws its target rows from the epoch's one seed,
    # so models whose target sets have one size share one draw
    from eegraph.data import _loso_rows
    from eegraph.train import IndexedJob, train_indexed

    train_module = importlib.import_module("eegraph.train")
    calls = []
    real = train_module.resample_target

    def counted(source_n, n, seed):
        calls.append(n)
        return real(source_n, n, seed)

    monkeypatch.setattr(train_module, "resample_target", counted)
    folds = _loso_rows(GATE_DS)[:3]
    # each held-out subject has 24 rows; the unequal case drops 5 from the last
    cut = {"equal": 24, "unequal": 19}[sizes]
    jobs = [IndexedJob(train_rows, GATE_DS.labels[train_rows], GATE_DS.label_scheme,
                       test_rows if i < 2 else test_rows[:cut])
            for i, (train_rows, test_rows) in enumerate(folds)]
    cfg = TrainConfig(**GATE, node_dat=True)
    results = train_indexed(GATE_DS.features, jobs, cfg)
    per_epoch = {"equal": [24], "unequal": [19, 24]}[sizes]
    assert sorted(calls) == sorted(per_epoch * cfg.epochs)
    # each model still trains as it would alone
    for job, result in zip(jobs, results):
        assert np.array_equal(result.params.flat, train_indexed(GATE_DS.features, [job], cfg)[0]
                              .params.flat)
