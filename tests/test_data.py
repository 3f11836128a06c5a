"""Synthetic generator, bundle IO, and split protocols."""
import json

import numpy as np
import pytest

from eegraph.data import (
    DEFAULT_BANDS,
    FeatureDataset,
    SynthConfig,
    band_select,
    informative_channels,
    load_dataset,
    resample_target,
    save_dataset,
    split_loso,
    split_subject_dependent,
    synthesize,
)
from eegraph.errors import ConfigError, CorruptBundleError
from eegraph.losses import allowed_flips

BASE = SynthConfig(subjects=3, trials_per_class=2, samples_per_trial=4, n_channels=6,
                   n_bands=5, n_classes=3, seed=11)


def test_scheme_resolution():
    assert SynthConfig(n_classes=3).resolved_scheme() == "seed3"
    assert SynthConfig(n_classes=4).resolved_scheme() == "seed4"
    assert SynthConfig(n_classes=5).resolved_scheme() == 5
    assert SynthConfig(n_classes=4, label_scheme=4).resolved_scheme() == 4
    with pytest.raises(ConfigError):
        SynthConfig(n_classes=3, label_scheme="seed4").resolved_scheme()


def test_synthesize_shapes_and_ids():
    ds = synthesize(BASE)
    n = 3 * (2 * 3) * 4
    assert ds.features.shape == (n, 6, 5)
    assert ds.features.dtype == np.float64
    assert ds.labels.shape == (n,)
    assert ds.subjects() == [0, 1, 2]
    assert ds.band_names == list(DEFAULT_BANDS)
    assert ds.n_classes == 3


def test_trial_index_encodes_true_class():
    # observed labels may be flipped later; trial id mod C never lies
    ds = synthesize(BASE)
    assert np.array_equal(ds.labels, ds.trial_ids % 3)


def test_synthesize_deterministic():
    a, b = synthesize(BASE), synthesize(BASE)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    c = synthesize(SynthConfig(**{**BASE.__dict__, "seed": 12}))
    assert not np.array_equal(a.features, c.features)


def test_informative_channel_count():
    assert len(informative_channels(16)) == 5
    assert len(informative_channels(3)) == 1
    assert len(informative_channels(62)) == 19
    assert informative_channels(10).tolist() == [0, 1, 2]


def test_class_separation_is_visible():
    # per-class means across clean data should sit far apart on the
    # informative channels and nowhere else
    cfg = SynthConfig(subjects=6, trials_per_class=4, samples_per_trial=8,
                      n_channels=10, n_bands=5, n_classes=3,
                      class_separation=8.0, subject_shift_scale=0.0, seed=1)
    ds = synthesize(cfg)
    inform = set(informative_channels(10).tolist())
    mean_by_class = [ds.features[ds.labels == c].mean(axis=0) for c in range(3)]
    for a in range(3):
        for b in range(a + 1, 3):
            gap = np.abs(mean_by_class[a] - mean_by_class[b])
            strong = set(np.flatnonzero(gap.max(axis=1) > 1.0).tolist())
            assert strong <= inform
            assert len(strong) > 0


def test_subject_shift_perturbs_between_subjects():
    still = synthesize(SynthConfig(**{**BASE.__dict__, "subject_shift_scale": 0.0}))
    # with no shift all subjects share the clean generative process; with
    # shift the per-subject feature means spread out
    shifted = synthesize(SynthConfig(**{**BASE.__dict__, "subject_shift_scale": 2.0}))

    def spread(ds):
        per_subj = [ds.features[ds.subject_ids == s].mean() for s in ds.subjects()]
        return np.std(per_subj)

    assert spread(shifted) > 5 * spread(still)


def test_label_noise_flip_count_and_targets():
    cfg = SynthConfig(subjects=4, trials_per_class=5, samples_per_trial=3,
                      n_channels=6, n_bands=2, n_classes=3,
                      label_noise_rate=0.2, seed=3)
    ds = synthesize(cfg)
    true = ds.trial_ids % 3
    groups = {(int(s), int(t)) for s, t in zip(ds.subject_ids, ds.trial_ids)}
    flipped_groups = set()
    flips = allowed_flips("seed3")
    for s, t in groups:
        rows = np.flatnonzero((ds.subject_ids == s) & (ds.trial_ids == t))
        obs = set(int(v) for v in ds.labels[rows])
        assert len(obs) == 1  # trial keeps a single observed label
        lab = obs.pop()
        if lab != t % 3:
            flipped_groups.add((s, t))
            assert lab in flips[t % 3]
    total_groups = 4 * 5 * 3
    assert len(flipped_groups) == round(0.2 * total_groups)
    assert not np.array_equal(ds.labels, true)


def test_label_noise_zero_is_clean():
    ds = synthesize(BASE)
    assert np.array_equal(ds.labels, ds.trial_ids % 3)


def test_dataset_validation():
    ds = synthesize(BASE)
    bad = ds.labels.copy()
    bad[0] = 7
    with pytest.raises(ConfigError):
        FeatureDataset(ds.features, bad, ds.subject_ids, ds.trial_ids,
                       ds.band_names, ds.label_scheme)
    # two labels inside one (subject, trial) group
    split_lab = ds.labels.copy()
    rows = np.flatnonzero((ds.subject_ids == 0) & (ds.trial_ids == 0))
    split_lab[rows[0]] = (split_lab[rows[0]] + 1) % 3
    with pytest.raises(ConfigError):
        FeatureDataset(ds.features, split_lab, ds.subject_ids, ds.trial_ids,
                       ds.band_names, ds.label_scheme)


def test_take_and_unlabeled():
    ds = synthesize(BASE)
    sub = ds.take(np.arange(5))
    assert sub.n_samples == 5
    assert np.array_equal(sub.features, ds.features[:5])
    sub.features[0, 0, 0] = 1e9
    assert ds.features[0, 0, 0] != 1e9
    u = ds.unlabeled()
    assert u.n_samples == ds.n_samples
    u.features[0, 0, 0] = 1e9
    assert ds.features[0, 0, 0] != 1e9


def test_bundle_round_trip(tmp_path):
    ds = synthesize(BASE)
    out = tmp_path / "bundle"
    save_dataset(ds, out)
    back = load_dataset(out)
    # disk holds float32, so compare after the same down-cast
    assert np.array_equal(back.features, ds.features.astype(np.float32).astype(np.float64))
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.subject_ids, ds.subject_ids)
    assert np.array_equal(back.trial_ids, ds.trial_ids)
    assert back.band_names == ds.band_names
    assert back.label_scheme == ds.label_scheme
    assert back.features.dtype == np.float64


def test_bundle_files_present(tmp_path):
    ds = synthesize(BASE)
    out = tmp_path / "bundle"
    save_dataset(ds, out)
    assert (out / "manifest.json").exists()
    assert (out / "features.f32").exists()
    assert (out / "labels.i64").exists()
    man = json.loads((out / "manifest.json").read_text())
    assert man["n_samples"] == ds.n_samples
    assert man["n_channels"] == 6
    assert (out / "features.f32").stat().st_size == ds.n_samples * 6 * 5 * 4
    assert (out / "labels.i64").stat().st_size == ds.n_samples * 8


def test_truncated_features_detected(tmp_path):
    ds = synthesize(BASE)
    out = tmp_path / "bundle"
    save_dataset(ds, out)
    blob = (out / "features.f32").read_bytes()
    (out / "features.f32").write_bytes(blob[:-4])
    with pytest.raises(CorruptBundleError):
        load_dataset(out)


def test_oversized_labels_detected(tmp_path):
    ds = synthesize(BASE)
    out = tmp_path / "bundle"
    save_dataset(ds, out)
    blob = (out / "labels.i64").read_bytes()
    (out / "labels.i64").write_bytes(blob + b"\x00" * 8)
    with pytest.raises(CorruptBundleError):
        load_dataset(out)


def test_missing_manifest_detected(tmp_path):
    ds = synthesize(BASE)
    out = tmp_path / "bundle"
    save_dataset(ds, out)
    (out / "manifest.json").unlink()
    with pytest.raises(CorruptBundleError):
        load_dataset(out)


def test_garbage_manifest_detected(tmp_path):
    ds = synthesize(BASE)
    out = tmp_path / "bundle"
    save_dataset(ds, out)
    (out / "manifest.json").write_text("{not json")
    with pytest.raises(CorruptBundleError):
        load_dataset(out)
    (out / "manifest.json").write_text(json.dumps({"n_samples": 1}))
    with pytest.raises(CorruptBundleError):
        load_dataset(out)


def test_manifest_scheme_class_mismatch(tmp_path):
    ds = synthesize(BASE)
    out = tmp_path / "bundle"
    save_dataset(ds, out)
    man = json.loads((out / "manifest.json").read_text())
    man["label_scheme"] = "seed4"
    (out / "manifest.json").write_text(json.dumps(man))
    with pytest.raises(CorruptBundleError):
        load_dataset(out)


@pytest.mark.parametrize("field", ["n_samples", "n_channels", "n_bands", "n_classes"])
@pytest.mark.parametrize("retype", [str, float, lambda v: v + 0.9, lambda v: True],
                         ids=["str", "float", "fraction", "bool"])
def test_manifest_counts_must_be_json_ints(tmp_path, field, retype):
    # each of these once coerced back to the count (or near it) and loaded
    ds = synthesize(BASE)
    out = tmp_path / "bundle"
    save_dataset(ds, out)
    man = json.loads((out / "manifest.json").read_text())
    man[field] = retype(man[field])
    (out / "manifest.json").write_text(json.dumps(man))
    with pytest.raises(CorruptBundleError, match=field):
        load_dataset(out)


def test_manifest_ids_one_short_names_the_bundle(tmp_path):
    ds = synthesize(BASE)
    out = tmp_path / "bundle"
    save_dataset(ds, out)
    man = json.loads((out / "manifest.json").read_text())
    man["subject_ids"] = man["subject_ids"][:-1]
    (out / "manifest.json").write_text(json.dumps(man))
    with pytest.raises(CorruptBundleError, match="bundle"):
        load_dataset(out)


def test_out_of_scheme_label_names_the_bundle(tmp_path):
    ds = synthesize(BASE)
    assert ds.label_scheme == "seed3"
    out = tmp_path / "bundle"
    save_dataset(ds, out)
    labels = np.frombuffer((out / "labels.i64").read_bytes(), dtype="<i8").copy()
    labels[labels == labels[0]] = 7  # the whole first label's trials, so no group conflicts
    (out / "labels.i64").write_bytes(labels.astype("<i8").tobytes())
    with pytest.raises(CorruptBundleError, match="bundle"):
        load_dataset(out)


def write_tiny_fixture(root):
    """Two samples, two channels, one band, written byte by byte."""
    import struct

    root.mkdir()
    manifest = {
        "n_samples": 2, "n_channels": 2, "n_bands": 1, "n_classes": 2,
        "band_names": ["band0"], "label_scheme": 2,
        "subject_ids": [0, 0], "trial_ids": [0, 1],
    }
    (root / "manifest.json").write_text(json.dumps(manifest))
    feats = struct.pack("<4f", 1.5, -2.0, 0.25, 4.0)
    assert len(feats) == 16
    (root / "features.f32").write_bytes(feats)
    (root / "labels.i64").write_bytes(struct.pack("<2q", 0, 1))


def test_hand_written_fixture_loads(tmp_path):
    root = tmp_path / "tiny"
    write_tiny_fixture(root)
    ds = load_dataset(root)
    assert ds.features.shape == (2, 2, 1)
    assert ds.features[0, 0, 0] == 1.5
    assert ds.features[0, 1, 0] == -2.0
    assert ds.features[1, 1, 0] == 4.0
    assert ds.labels.tolist() == [0, 1]


def test_hand_written_fixture_truncation(tmp_path):
    root = tmp_path / "tiny"
    write_tiny_fixture(root)
    blob = (root / "features.f32").read_bytes()
    (root / "features.f32").write_bytes(blob[:12])
    with pytest.raises(CorruptBundleError):
        load_dataset(root)


def test_subject_dependent_split():
    ds = synthesize(BASE)  # 6 trials per subject
    folds = split_subject_dependent(ds, 4)
    assert len(folds) == 3
    for s, (train, test) in enumerate(folds):
        assert set(train.subject_ids.tolist()) == {s}
        assert set(test.subject_ids.tolist()) == {s}
        assert set(train.trial_ids.tolist()) == {0, 1, 2, 3}
        assert set(test.trial_ids.tolist()) == {4, 5}
        assert train.n_samples == 4 * 4 and test.n_samples == 2 * 4


def test_subject_dependent_split_errors():
    ds = synthesize(BASE)
    with pytest.raises(ConfigError):
        split_subject_dependent(ds, 6)  # nothing left to test
    with pytest.raises(ConfigError):
        split_subject_dependent(ds, 7)
    with pytest.raises(ConfigError):
        split_subject_dependent(ds, 0)


def test_loso_split():
    ds = synthesize(BASE)
    folds = split_loso(ds)
    assert len(folds) == 3
    for s, (train, test) in enumerate(folds):
        assert s not in set(train.subject_ids.tolist())
        assert set(test.subject_ids.tolist()) == {s}
        assert train.n_samples + test.n_samples == ds.n_samples


def test_loso_needs_two_subjects():
    ds = synthesize(SynthConfig(**{**BASE.__dict__, "subjects": 1}))
    with pytest.raises(ConfigError):
        split_loso(ds)


def test_band_select_respects_request_order():
    ds = synthesize(BASE)
    sel = band_select(ds, ["gamma", "delta"])
    assert sel.band_names == ["gamma", "delta"]
    assert np.array_equal(sel.features[..., 0], ds.features[..., 4])
    assert np.array_equal(sel.features[..., 1], ds.features[..., 0])
    with pytest.raises(ConfigError):
        band_select(ds, ["gamma", "nope"])
    with pytest.raises(ConfigError):
        band_select(ds, [])


def test_band_select_copies():
    ds = synthesize(BASE)
    sel = band_select(ds, ["alpha"])
    sel.features[0, 0, 0] = 123.0
    assert ds.features[0, 0, 2] != 123.0


def test_resample_equal_is_permutation():
    ds = synthesize(BASE)
    u = ds.unlabeled()
    out = resample_target(u.n_samples, u, 5)
    assert out.n_samples == u.n_samples
    a = np.sort(out.features.reshape(out.n_samples, -1).sum(axis=1))
    b = np.sort(u.features.reshape(u.n_samples, -1).sum(axis=1))
    assert np.allclose(a, b)


def test_resample_up_and_down():
    ds = synthesize(BASE)
    u = ds.unlabeled().take(np.arange(10))
    up = resample_target(25, u, 0)
    assert up.n_samples == 25
    down = resample_target(4, ds.unlabeled(), 0)
    assert down.n_samples == 4
    rows = {tuple(r) for r in down.features.reshape(4, -1)}
    assert len(rows) == 4  # without replacement, all distinct


def test_resample_seeded():
    ds = synthesize(BASE)
    u = ds.unlabeled()
    a = resample_target(12, u, 9)
    b = resample_target(12, u, 9)
    assert np.array_equal(a.features, b.features)
    c = resample_target(12, u, np.random.SeedSequence(9))
    assert np.array_equal(a.features, c.features)
