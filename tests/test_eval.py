"""Scoring, protocol harness, and checkpoint inspection helpers."""
import numpy as np
import pytest

from eegraph.data import SynthConfig, synthesize
from eegraph.errors import ConfigError
from eegraph.eval import (
    EvalReport,
    activation_map,
    config_echo,
    evaluate,
    run_protocol,
    top_k_connections,
)
from eegraph.electrodes import builtin_layout, default_global_pairs, initial_adjacency
from eegraph.graph import SymmetricAdjacency
from eegraph.model import init_params
from eegraph.params import ModelConfig, ParamSet
from eegraph.train import TrainConfig

DS = synthesize(SynthConfig(subjects=3, trials_per_class=2, samples_per_trial=3,
                            n_channels=6, n_bands=3, n_classes=3, seed=21))
QUICK = TrainConfig(epochs=2, batch_size=16, hidden_dim=8, seed=1)


def zero_params(cfg):
    p = init_params(cfg, None, 0, adj=SymmetricAdjacency.from_full(np.eye(cfg.n_channels)))
    p.w_feat[:] = 0.0
    p.w_class[:] = 0.0
    return p


def test_evaluate_hand_confusion():
    cfg = ModelConfig(n_channels=6, in_dim=3, hidden_dim=4, n_classes=3, steps=1)
    p = zero_params(cfg)
    acc, conf = evaluate(cfg, p, DS)
    # all logits tie, every prediction is class 0
    assert conf[:, 0].sum() == DS.n_samples
    assert conf[:, 1:].sum() == 0
    per_class = np.bincount(DS.labels, minlength=3)
    assert np.array_equal(conf[:, 0], per_class)
    assert acc == pytest.approx(per_class[0] / DS.n_samples)


def test_evaluate_rejects_class_mismatch():
    cfg = ModelConfig(n_channels=6, in_dim=3, hidden_dim=4, n_classes=4, steps=1)
    with pytest.raises(ConfigError):
        evaluate(cfg, zero_params(cfg), DS)


def test_uniform_chance_level_on_big_sample():
    big = synthesize(SynthConfig(subjects=5, trials_per_class=25, samples_per_trial=8,
                                 n_channels=4, n_bands=3, n_classes=3, seed=2))
    cfg = ModelConfig(n_channels=4, in_dim=3, hidden_dim=4, n_classes=3, steps=1)
    acc, _ = evaluate(cfg, zero_params(cfg), big)
    assert abs(acc - 1 / 3) < 0.05


def test_report_aggregates():
    rep = EvalReport(fold_accuracies=[0.5, 0.7, 0.9], confusion=np.eye(2, dtype=np.int64))
    assert rep.mean == pytest.approx(0.7)
    # population standard deviation over the folds themselves
    assert rep.std == pytest.approx(np.sqrt((0.04 + 0.0 + 0.04) / 3))
    doc = rep.as_dict({"epochs": 3})
    assert set(doc) == {"folds", "mean", "std", "confusion", "config"}
    assert doc["confusion"] == [[1, 0], [0, 1]]
    assert doc["config"] == {"epochs": 3}


def test_subject_dependent_protocol():
    report, results = run_protocol(DS, "subject_dependent", QUICK, train_trials=4)
    assert len(report.fold_accuracies) == 3
    assert len(results) == 3
    assert report.confusion.sum() == 3 * 2 * 3  # three subjects, two test trials
    for i, info in enumerate(report.fold_info):
        assert info["fold"] == i
        assert info["subject"] == i
        assert info["n_test"] == 6
    assert results[0].params.w_dom is None


def test_subject_dependent_needs_train_trials():
    with pytest.raises(ConfigError):
        run_protocol(DS, "subject_dependent", QUICK)


def test_loso_protocol():
    report, results = run_protocol(DS, "loso", QUICK)
    assert len(report.fold_accuracies) == 3
    assert [info["test_subject"] for info in report.fold_info] == [0, 1, 2]
    assert report.confusion.sum() == DS.n_samples


def test_unknown_protocol():
    with pytest.raises(ConfigError):
        run_protocol(DS, "k_fold", QUICK)


def test_loso_with_domain_adaptation_trains_heads():
    cfg = TrainConfig(epochs=2, batch_size=16, hidden_dim=8, seed=1, node_dat=True)
    report, results = run_protocol(DS, "loso", cfg)
    for res in results:
        assert res.params.w_dom is not None
        assert res.history[0]["domain_term"] > 0


def test_protocol_is_deterministic():
    a, _ = run_protocol(DS, "loso", QUICK)
    b, _ = run_protocol(DS, "loso", QUICK)
    assert a.fold_accuracies == b.fold_accuracies
    assert np.array_equal(a.confusion, b.confusion)


def test_activation_map_scaling():
    adj = SymmetricAdjacency.from_full(np.eye(4))
    adj.upper[0] = 3.0   # diagonal entries sit at packed positions
    cfg = ModelConfig(n_channels=4, in_dim=2, hidden_dim=3, n_classes=2, steps=1)
    p = init_params(cfg, None, 0, adj=adj)
    act = activation_map(p)
    assert act.shape == (4,)
    assert act.max() == 1.0 and act.min() == 0.0
    assert act[0] == 1.0


def test_activation_map_constant_diagonal():
    cfg = ModelConfig(n_channels=5, in_dim=2, hidden_dim=3, n_classes=2, steps=1)
    p = init_params(cfg, None, 0, adj=SymmetricAdjacency.from_full(np.eye(5)))
    assert np.array_equal(activation_map(p), np.zeros(5))


def random_inspection_params(seed=0):
    rng = np.random.default_rng(seed)
    n = 5
    full = rng.normal(size=(n, n))
    full = (full + full.T) / 2
    np.fill_diagonal(full, 1.0)
    cfg = ModelConfig(n_channels=n, in_dim=2, hidden_dim=3, n_classes=2, steps=1)
    return cfg, init_params(cfg, None, 1, adj=SymmetricAdjacency.from_full(full))


def test_top_k_sorted_by_magnitude():
    _, p = random_inspection_params(3)
    full = p.adj.full()
    got = top_k_connections(p, 4)
    mags = [abs(w) for _, _, w in got]
    assert mags == sorted(mags, reverse=True)
    top_a, top_b, top_w = got[0]
    i, j = int(top_a), int(top_b)
    assert full[i, j] == top_w
    off = np.abs(full[~np.eye(5, dtype=bool)])
    assert abs(top_w) == off.max()


def test_top_k_full_listing_and_bounds():
    _, p = random_inspection_params(4)
    assert len(top_k_connections(p, 10)) == 10  # all 5*4/2 pairs
    assert top_k_connections(p, 0) == []
    with pytest.raises(ConfigError):
        top_k_connections(p, 11)
    with pytest.raises(ConfigError):
        top_k_connections(p, -1)


def test_top_k_distance_oracle_on_fresh_geometry():
    # fresh geometric weights decay monotonically with distance, so the
    # strongest k connections must be exactly the k closest pairs
    rng = np.random.default_rng(8)
    from eegraph.electrodes import ElectrodeLayout, pairwise_distances

    pos = rng.normal(scale=4.0, size=(7, 3))
    lay = ElectrodeLayout([f"S{i}" for i in range(7)], pos)
    d = pairwise_distances(lay.positions)
    delta = 0.5 * d[~np.eye(7, dtype=bool)].min() ** 2  # below the clamp everywhere
    adj = initial_adjacency(lay, None, delta)
    cfg = ModelConfig(n_channels=7, in_dim=2, hidden_dim=3, n_classes=2, steps=1)
    p = init_params(cfg, None, 0, adj=adj)

    pairs = [(i, j) for i in range(7) for j in range(i + 1, 7)]
    pairs.sort(key=lambda ij: d[ij[0], ij[1]])
    expect = [(f"S{i}", f"S{j}") for i, j in pairs[:5]]
    got = [(a, b) for a, b, _ in top_k_connections(p, 5, channel_names=lay.names)]
    assert got == expect


def test_top_k_exclude_global_pairs():
    lay = builtin_layout()
    adj = initial_adjacency(lay, default_global_pairs(), 5.0)
    cfg = ModelConfig(n_channels=62, in_dim=2, hidden_dim=3, n_classes=2, steps=1)
    p = init_params(cfg, None, 0, adj=adj)
    pair_list = default_global_pairs().pairs
    n_all = 62 * 61 // 2
    kept = top_k_connections(p, n_all - 9, exclude_global=True,
                             channel_names=lay.names, global_pairs=pair_list)
    names = {tuple(sorted((a, b))) for a, b, _ in kept}
    for a, b in pair_list:
        assert tuple(sorted((a, b))) not in names
    with pytest.raises(ConfigError):
        top_k_connections(p, 3, exclude_global=True, channel_names=lay.names)


def test_top_k_name_length_checked():
    _, p = random_inspection_params(5)
    with pytest.raises(ConfigError):
        top_k_connections(p, 2, channel_names=["a", "b"])


def test_config_echo_round_trip():
    echo = config_echo(QUICK, "loso")
    assert echo["protocol"] == "loso"
    assert echo["epochs"] == 2
    assert "train_trials" not in echo
    echo2 = config_echo(QUICK, "subject_dependent", train_trials=4)
    assert echo2["train_trials"] == 4
