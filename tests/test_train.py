"""Training loop behavior: reproducibility, switches, failure modes."""
import importlib

import numpy as np
import pytest

from eegraph.data import SynthConfig, split_loso, synthesize
from eegraph.electrodes import ring_layout
from eegraph.errors import ConfigError, DivergenceError
from eegraph.losses import grl_beta
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


def test_resolve_delta_keeps_convention_when_sane():
    from eegraph.electrodes import builtin_layout

    assert resolve_delta(builtin_layout(), None) == 5.0


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
    cfg = make_model_config(TrainConfig(hidden_dim=9, steps=3, dropout=0.5), DS)
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


@pytest.mark.parametrize("variant", [
    dict(node_dat=True),
    dict(dat_graph_level=True),
    dict(emotion_dl=True, epsilon=0.4),
    dict(node_dat=True, emotion_dl=True, epsilon=0.4, dropout=0.3),
    dict(weight_decay=0.05),
], ids=["node_dat", "dat_graph_level", "emotion_dl", "dropout", "weight_decay"])
def test_lockstep_group_matches_separate_runs_bitwise(tmp_path, variant):
    from eegraph.data import split_loso
    from eegraph.train import train_lockstep

    cfg = TrainConfig(**{**GATE, **variant})
    jobs = [(fold_train, fold_test.unlabeled() if cfg.uses_domain else None)
            for fold_train, fold_test in split_loso(GATE_DS)]
    grouped = train_lockstep(jobs, cfg)
    assert len(grouped) == len(jobs)
    for i, ((fold_train, target), got) in enumerate(zip(jobs, grouped)):
        alone = train(fold_train, target, cfg)
        assert np.array_equal(got.params.flat, alone.params.flat)
        assert got.history == alone.history
        assert (_checkpoint_bytes(got, tmp_path / f"g{i}.ckpt")
                == _checkpoint_bytes(alone, tmp_path / f"a{i}.ckpt"))


def _record_groups(monkeypatch):
    """Wrap the lockstep group trainer; collect the model names of each group."""
    train_module = importlib.import_module("eegraph.train")
    groups = []
    real = train_module._train_group

    def recorded(jobs, cfg, layout, global_pairs, prefixes):
        groups.append([prefix.removesuffix(": ") for prefix in prefixes])
        return real(jobs, cfg, layout, global_pairs, prefixes)

    monkeypatch.setattr(train_module, "_train_group", recorded)
    return groups


def _unequal_subjects():
    # subject 0 loses half of its first trial: 21 samples instead of 24
    first = (GATE_DS.subject_ids == 0) & (GATE_DS.trial_ids == GATE_DS.trial_ids.min())
    drop = np.flatnonzero(first)[:3]
    return GATE_DS.take(np.setdiff1d(np.arange(GATE_DS.n_samples), drop))


@pytest.mark.parametrize("protocol", ["loso", "subject_dependent"])
def test_unequal_folds_train_in_separate_groups(monkeypatch, protocol):
    from eegraph.data import split_loso, split_subject_dependent
    from eegraph.eval import run_protocol

    ds = _unequal_subjects()
    if protocol == "loso":
        folds = split_loso(ds)
        kwargs = {}
    else:
        # the first trial trains; subject 0's has 3 samples, the others' 6
        folds = split_subject_dependent(ds, 1)
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
    # NaN makes the loss non-finite; inf leaves it finite and is caught by
    # adam_step's precheck on the directions
    from eegraph.data import split_loso
    from eegraph.train import train_lockstep

    jobs = [(fold_train, None) for fold_train, _ in split_loso(GATE_DS)[:3]]
    broken = jobs[1][0].take(np.arange(jobs[1][0].n_samples))
    broken.features[0, 0, 0] = poison
    jobs[1] = (broken, None)
    with pytest.raises(DivergenceError, match="^fold 1: "):
        train_lockstep(jobs, TrainConfig(**GATE), names=["fold 0", "fold 1", "fold 2"])


def test_lockstep_groups_jobs_by_size_and_keeps_their_order(monkeypatch):
    from eegraph.data import split_loso
    from eegraph.train import train_lockstep

    # fold 0 trains on 72 samples, folds 1 and 2 on 69
    folds = split_loso(_unequal_subjects())
    jobs = [(folds[1][0], None), (folds[0][0], None), (folds[2][0], None)]
    groups = _record_groups(monkeypatch)
    cfg = TrainConfig(**GATE)
    results = train_lockstep(jobs, cfg, names=["a", "b", "c"])
    assert groups == [["a", "c"], ["b"]]
    for (fold_train, _), result in zip(jobs, results):
        assert np.array_equal(result.params.flat, train(fold_train, None, cfg).params.flat)


def test_adam_steps_once_per_model_step(monkeypatch):
    from eegraph.eval import run_protocol

    train_module = importlib.import_module("eegraph.train")
    calls = []
    real = train_module.adam_step

    def counted(state, params, directions):
        calls.append(id(state))
        return real(state, params, directions)

    monkeypatch.setattr(train_module, "adam_step", counted)
    cfg = TrainConfig(**GATE, node_dat=True)
    run_protocol(GATE_DS, "loso", cfg)
    steps_per_model = cfg.epochs * -(-72 // cfg.batch_size)
    assert len(calls) == 4 * steps_per_model
    assert sorted(calls.count(s) for s in set(calls)) == [steps_per_model] * 4
