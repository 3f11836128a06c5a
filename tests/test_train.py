"""Training loop behavior: reproducibility, switches, failure modes."""
import importlib

import numpy as np
import pytest

from eegraph.data import SynthConfig, synthesize
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
