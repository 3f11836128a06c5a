"""Synthetic generator, bundle IO, and split protocols."""
import json
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

import eegraph.data as data_module
from eegraph.data import (
    DEFAULT_BANDS,
    TRIAL_JITTER,
    FeatureDataset,
    SynthConfig,
    _band_names_for,
    _class_means,
    _loso_rows,
    _subject_dependent_rows,
    band_select,
    informative_channels,
    load_dataset,
    resample_target,
    save_dataset,
    split_loso,
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


def _synthesize_per_sample(cfg: SynthConfig) -> FeatureDataset:
    """The generator as one `normal` call per offset and per sample: the oracle."""
    scheme = cfg.resolved_scheme()
    means_stream, subj_root, flip_stream = np.random.SeedSequence(cfg.seed).spawn(3)
    means = _class_means(np.random.default_rng(means_stream), cfg)
    trials_total = cfg.trials_per_class * cfg.n_classes
    n_total = cfg.subjects * trials_total * cfg.samples_per_trial
    features = np.empty((n_total, cfg.n_channels, cfg.n_bands))
    labels, subject_ids, trial_ids = (np.empty(n_total, dtype=np.int64) for _ in range(3))
    row = 0
    for s, stream in enumerate(subj_root.spawn(cfg.subjects)):
        rng = np.random.default_rng(stream)
        gain = max(1.0 + 0.5 * cfg.subject_shift_scale * rng.normal(), 0.2)
        bias = cfg.subject_shift_scale * rng.normal(size=(cfg.n_channels, cfg.n_bands))
        for t in range(trials_total):
            cls = t % cfg.n_classes
            offset = TRIAL_JITTER * rng.normal(size=(cfg.n_channels, cfg.n_bands))
            for _ in range(cfg.samples_per_trial):
                base = means[cls] + offset + rng.normal(size=(cfg.n_channels, cfg.n_bands))
                features[row] = gain * base + bias
                labels[row], subject_ids[row], trial_ids[row] = cls, s, t
                row += 1
    if cfg.label_noise_rate > 0.0:
        flips = allowed_flips(scheme)
        rng = np.random.default_rng(flip_stream)
        groups = [(s, t) for s in range(cfg.subjects) for t in range(trials_total)]
        k = int(round(cfg.label_noise_rate * len(groups)))
        for gi in sorted(int(i) for i in rng.choice(len(groups), size=k, replace=False)):
            s, t = groups[gi]
            rows = np.flatnonzero((subject_ids == s) & (trial_ids == t))
            options = flips[int(labels[rows[0]])]
            labels[rows] = options[int(rng.integers(len(options)))]
    return FeatureDataset(features, labels, subject_ids, trial_ids,
                          _band_names_for(cfg.n_bands), scheme)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(subjects=st.integers(1, 3), trials_per_class=st.integers(1, 3),
       samples_per_trial=st.sampled_from([1, 2, 5]), n_channels=st.sampled_from([4, 9, 62]),
       n_bands=st.integers(1, 5), n_classes=st.integers(2, 5),
       generic_scheme=st.booleans(), label_noise_rate=st.sampled_from([0.0, 0.3, 1.0]),
       subject_shift_scale=st.sampled_from([0.0, 0.5, 3.0]), seed=st.integers(0, 2**32))
def test_synthesize_is_bitwise_the_per_sample_draws(generic_scheme, **knobs):
    cfg = SynthConfig(**knobs, label_scheme=knobs["n_classes"] if generic_scheme else None)
    assume(cfg.n_classes <= informative_channels(cfg.n_channels).size * cfg.n_bands)
    got, want = synthesize(cfg), _synthesize_per_sample(cfg)
    assert got.features.tobytes() == want.features.tobytes()
    for name in ("labels", "subject_ids", "trial_ids"):
        assert getattr(got, name).dtype == np.int64
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.band_names, got.label_scheme) == (want.band_names, want.label_scheme)


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


@pytest.mark.parametrize("names", [[0, 1, 2, 3, 4], "abcde", tuple(DEFAULT_BANDS)],
                         ids=["ints", "string", "tuple"])
def test_band_names_must_be_a_list_of_strings(names):
    # numbers, and a string of as many letters as bands, once passed the
    # length check
    ds = synthesize(BASE)
    with pytest.raises(ConfigError, match="band_names must be a list of strings"):
        FeatureDataset(ds.features, ds.labels, ds.subject_ids, ds.trial_ids, names,
                       ds.label_scheme)


def test_repeated_band_names_are_refused(tmp_path):
    # a repeated name once loaded, and band_select then took its first band
    ds = synthesize(BASE)
    names = list(ds.band_names)
    names[3] = names[1]
    match = f"band {names[1]!r} is named more than once"
    with pytest.raises(ConfigError, match=match):
        FeatureDataset(ds.features, ds.labels, ds.subject_ids, ds.trial_ids, names,
                       ds.label_scheme)
    out = tmp_path / "bundle"
    save_dataset(ds, out)
    man = json.loads((out / "manifest.json").read_text())
    man["band_names"] = names
    (out / "manifest.json").write_text(json.dumps(man))
    with pytest.raises(CorruptBundleError, match=match):
        load_dataset(out)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_features_are_refused(tmp_path, value):
    # the last row is held out in the last LOSO fold; with inf it was once
    # scored silently as class 0, and with NaN in training rows it diverged
    ds = synthesize(BASE)
    row = ds.n_samples - 1
    features = ds.features.copy()
    features[row, 2, 4] = value
    message = f"feature at row {row}, channel 2, band 'gamma' is {value}"
    with pytest.raises(ConfigError, match=f"^{message}$"):
        FeatureDataset(features, ds.labels, ds.subject_ids, ds.trial_ids, ds.band_names,
                       ds.label_scheme)
    out = tmp_path / "bundle"
    save_dataset(ds, out)
    stored = np.fromfile(out / "features.f32", dtype="<f4").reshape(ds.features.shape)
    stored[row, 2, 4] = value
    stored.tofile(out / "features.f32")
    with pytest.raises(CorruptBundleError, match=f"bundle/features.f32: {message}$"):
        load_dataset(out)


def test_finite_values_whose_sum_overflows_are_accepted():
    # the check sums first; an overflowed sum of finite values is not a refusal
    ds = synthesize(BASE)
    big = np.full_like(ds.features, np.finfo(np.float64).max)
    FeatureDataset(big, ds.labels, ds.subject_ids, ds.trial_ids, ds.band_names, ds.label_scheme)


def test_conflicting_labels_name_the_first_offending_row():
    # rows 0..3: subject 4 trial 1 (labels 0, 0, 2, 1), then subject 2 trial 0
    subject_ids = [4, 4, 2, 4, 4]
    trial_ids = [1, 1, 0, 1, 1]
    labels = [0, 0, 1, 2, 1]
    with pytest.raises(ConfigError) as exc:
        FeatureDataset(np.zeros((5, 1, 1)), labels, subject_ids, trial_ids, ["b"], 3)
    assert str(exc.value) == "subject 4 trial 1 carries conflicting labels"


def _label_conflict_loop(subject_ids, trial_ids, labels):
    """The per-row check the vectorized one replaced: the first message, or None."""
    groups = {}
    for s, t, y in zip(np.asarray(subject_ids, dtype=np.int64),
                       np.asarray(trial_ids, dtype=np.int64), labels):
        if groups.setdefault((int(s), int(t)), int(y)) != int(y):
            return f"subject {s} trial {t} carries conflicting labels"
    return None


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(st.tuples(st.integers(-2, 2), st.integers(0, 3), st.integers(0, 2)),
                max_size=24))
def test_label_check_matches_the_per_row_loop(rows):
    subject_ids = [r[0] for r in rows]
    trial_ids = [r[1] for r in rows]
    labels = [r[2] for r in rows]
    want = _label_conflict_loop(subject_ids, trial_ids, labels)
    try:
        FeatureDataset(np.zeros((len(rows), 1, 1)), np.array(labels, dtype=np.int64),
                       subject_ids, trial_ids, ["b"], 3)
        got = None
    except ConfigError as exc:
        got = str(exc)
    assert got == want


@pytest.mark.parametrize("dtype, kept", [
    (np.float32, np.float32), (np.float64, np.float64),
    (np.float16, np.float64), (np.int64, np.float64), (">f4", np.float64),
])
def test_feature_dtype_is_kept_or_widened(dtype, kept):
    ds = synthesize(BASE)
    features = ds.features.astype(dtype)
    got = FeatureDataset(features, ds.labels, ds.subject_ids, ds.trial_ids,
                         ds.band_names, ds.label_scheme)
    assert got.features.dtype == kept
    assert np.array_equal(got.features, features.astype(np.float64))


def test_take_copies():
    ds = synthesize(BASE)
    sub = ds.take(np.arange(5))
    assert sub.n_samples == 5
    assert np.array_equal(sub.features, ds.features[:5])
    sub.features[0, 0, 0] = 1e9
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
    assert back.features.dtype == np.float32


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


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("block", [1, 7, 300, 1 << 16])
def test_feature_blob_is_the_whole_array_as_little_endian_float32(tmp_path, monkeypatch,
                                                                  dtype, block):
    # the blob is written in row blocks; neither their size nor a ragged last
    # block may show in the bytes
    monkeypatch.setattr(data_module, "SAVE_BLOCK_ELEMENTS", block)
    ds = synthesize(BASE)
    ds = FeatureDataset(ds.features.astype(dtype), ds.labels, ds.subject_ids, ds.trial_ids,
                        ds.band_names, ds.label_scheme)
    save_dataset(ds, tmp_path)
    assert (tmp_path / "features.f32").read_bytes() == ds.features.astype("<f4").tobytes()
    assert (tmp_path / "labels.i64").read_bytes() == ds.labels.astype("<i8").tobytes()
    assert load_dataset(tmp_path).features.tobytes() == ds.features.astype(np.float32).tobytes()


def test_save_allocates_a_small_fraction_of_the_feature_blob(tmp_path):
    # 6 subjects x 62 channels x 5 bands, 8.9 MB of float32: the blocks and the
    # manifest's id lists are all save_dataset holds, never a whole-array copy
    ds = synthesize(SynthConfig(subjects=6, trials_per_class=4, samples_per_trial=100,
                                n_channels=62, n_bands=5, n_classes=3, seed=1))
    save_dataset(ds, tmp_path / "warm")  # numpy and json import lazily on a first call
    tracemalloc.start()
    try:
        save_dataset(ds, tmp_path / "bundle")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * (tmp_path / "bundle" / "features.f32").stat().st_size


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


@pytest.mark.parametrize("field", ["subject_ids", "trial_ids"])
@pytest.mark.parametrize("retype", [
    lambda ids: [float(v) + 0.7 for v in ids],
    lambda ids: [str(v) for v in ids],
    lambda ids: [bool(v) for v in ids],
    lambda ids: ids[:-1] + [float(ids[-1])],
    lambda ids: {"ids": ids},
], ids=["float", "str", "bool", "one_float", "object"])
def test_manifest_ids_must_be_lists_of_json_ints(tmp_path, field, retype):
    # each of these once coerced to int64 ids (0.7 -> 0, "3" -> 3) and loaded
    ds = synthesize(BASE)
    out = tmp_path / "bundle"
    save_dataset(ds, out)
    man = json.loads((out / "manifest.json").read_text())
    man[field] = retype(man[field])
    (out / "manifest.json").write_text(json.dumps(man))
    with pytest.raises(CorruptBundleError, match=f"{field} must be a list of JSON integers"):
        load_dataset(out)


@pytest.mark.parametrize("names", ["abcde", [1, 2, 3, 4, 5], ["a", "b", "c", "d", None]],
                         ids=["string", "ints", "one_null"])
def test_manifest_band_names_must_be_a_list_of_strings(tmp_path, names):
    # a string once loaded as one band per character, and numbers as names
    ds = synthesize(BASE)
    out = tmp_path / "bundle"
    save_dataset(ds, out)
    man = json.loads((out / "manifest.json").read_text())
    man["band_names"] = names
    (out / "manifest.json").write_text(json.dumps(man))
    with pytest.raises(CorruptBundleError, match="band_names must be a list of JSON strings"):
        load_dataset(out)


def test_manifest_id_beyond_int64_is_a_corrupt_bundle(tmp_path):
    ds = synthesize(BASE)
    out = tmp_path / "bundle"
    save_dataset(ds, out)
    man = json.loads((out / "manifest.json").read_text())
    man["trial_ids"][0] = 2**63
    (out / "manifest.json").write_text(json.dumps(man))
    with pytest.raises(CorruptBundleError, match="manifest.json"):
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
    folds = [(ds.take(tr), ds.take(te)) for tr, te in _subject_dependent_rows(ds, 4)]
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
        _subject_dependent_rows(ds, 6)  # nothing left to test
    with pytest.raises(ConfigError):
        _subject_dependent_rows(ds, 7)
    with pytest.raises(ConfigError):
        _subject_dependent_rows(ds, 0)


def test_loso_split():
    ds = synthesize(BASE)
    folds = split_loso(ds)
    assert len(folds) == 3
    for s, (train, test) in enumerate(folds):
        assert s not in set(train.subject_ids.tolist())
        assert set(test.subject_ids.tolist()) == {s}
        assert train.n_samples + test.n_samples == ds.n_samples


def test_fold_rows_match_the_copied_splits():
    ds = synthesize(BASE)
    rows, copies = _loso_rows(ds), split_loso(ds)
    assert len(rows) == len(copies)
    for (train_rows, test_rows), (train, test) in zip(rows, copies):
        for idx, part in ((train_rows, train), (test_rows, test)):
            assert np.array_equal(ds.features[idx], part.features)
            assert np.array_equal(ds.labels[idx], part.labels)
            assert np.array_equal(ds.subject_ids[idx], part.subject_ids)
            assert np.array_equal(ds.trial_ids[idx], part.trial_ids)


def test_loso_fold_rows_allocate_a_small_fraction_of_the_features():
    # 15 subjects at the built-in montage's 62 channels, as in SEED; copying
    # each fold's training and held-out features would take about 15 times
    # the feature array, where the row indices take about a twentieth of it
    ds = synthesize(SynthConfig(subjects=15, trials_per_class=1, samples_per_trial=20,
                                n_channels=62, n_bands=5, n_classes=3, seed=3))
    _loso_rows(ds)  # a first call imports the numpy modules that load lazily
    tracemalloc.start()
    try:
        folds = _loso_rows(ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(folds) == 15
    assert peak <= 0.25 * ds.features.nbytes


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


def test_band_select_rejects_a_band_named_twice():
    ds = synthesize(BASE)
    with pytest.raises(ConfigError, match="^band 'alpha' is selected more than once$"):
        band_select(ds, ["alpha", "gamma", "alpha"])


def test_band_select_copies():
    ds = synthesize(BASE)
    sel = band_select(ds, ["alpha"])
    sel.features[0, 0, 0] = 123.0
    assert ds.features[0, 0, 2] != 123.0


def test_resample_equal_is_permutation():
    ds = synthesize(BASE)
    idx = resample_target(ds.n_samples, ds.n_samples, 5)
    assert idx.shape == (ds.n_samples,)
    assert np.array_equal(np.sort(idx), np.arange(ds.n_samples))


def test_resample_up_and_down():
    ds = synthesize(BASE)
    up = resample_target(25, 10, 0)
    assert up.shape == (25,)
    assert up.min() >= 0 and up.max() < 10
    down = resample_target(4, ds.n_samples, 0)
    assert down.shape == (4,)
    rows = {tuple(r) for r in ds.features[down].reshape(4, -1)}
    assert len(rows) == 4  # without replacement, all distinct


def test_resample_seeded():
    ds = synthesize(BASE)
    a = resample_target(12, ds.n_samples, 9)
    b = resample_target(12, ds.n_samples, 9)
    assert np.array_equal(a, b)
    c = resample_target(12, ds.n_samples, np.random.SeedSequence(9))
    assert np.array_equal(a, c)


def test_resample_rejects_empty_sizes():
    with pytest.raises(ConfigError):
        resample_target(0, 10, 0)
    with pytest.raises(ConfigError, match="target set is empty"):
        resample_target(4, 0, 0)
