"""Band-feature datasets: disk bundles, a synthetic cross-subject
generator, split protocols, and band selection.

Features are log-power style band summaries, one value per (channel,
band). Bundles store float32 on disk and stay float32 in memory; the
model widens each batch to float64 as it reads it, which is exact.
The split protocols describe each fold as two row-index arrays into the
one dataset (training rows, held-out rows), so a run holds one feature
array however many folds it has; `split_loso` copies the LOSO folds out
as datasets for callers outside training. A target domain is a dataset
too: training reads only its features.
The generator builds class-separated Gaussian features with persistent
per-subject distortions, which is exactly the structure the domain and
label regularizers are supposed to exploit.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, CorruptBundleError, json_misfit
from .losses import allowed_flips, scheme_classes

DEFAULT_BANDS = ("delta", "theta", "alpha", "beta", "gamma")

MANIFEST_NAME = "manifest.json"
FEATURES_NAME = "features.f32"
LABELS_NAME = "labels.i64"
# every manifest field, in the order written, and its JSON type
MANIFEST_TYPES = {"n_samples": int, "n_channels": int, "n_bands": int, "n_classes": int,
                  "band_names": list[str], "label_scheme": str | int,
                  "subject_ids": list[int], "trial_ids": list[int]}
SAVE_BLOCK_ELEMENTS = 1 << 16  # feature values converted and written per block


def _band_names_for(d: int) -> list[str]:
    if d == len(DEFAULT_BANDS):
        return list(DEFAULT_BANDS)
    return [f"band{i}" for i in range(d)]


class _NonFiniteFeature(ConfigError):
    """A NaN or infinite feature value; `load_dataset` reports it against the features file."""


@dataclass
class FeatureDataset:
    """In-memory dataset of per-channel band features with group metadata."""

    features: np.ndarray     # (N, channels, bands) float32 or float64, kept as given
    labels: np.ndarray       # (N,) int64
    subject_ids: np.ndarray  # (N,) int64
    trial_ids: np.ndarray    # (N,) int64
    band_names: list[str]
    label_scheme: str | int = "seed3"

    def __post_init__(self):
        self.features = np.asarray(self.features)
        if self.features.dtype not in (np.float32, np.float64):
            self.features = self.features.astype(np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.subject_ids = np.asarray(self.subject_ids, dtype=np.int64)
        self.trial_ids = np.asarray(self.trial_ids, dtype=np.int64)
        if self.features.ndim != 3:
            raise ConfigError(f"features must be (samples, channels, bands), got {self.features.shape}")
        n = self.features.shape[0]
        for name in ("labels", "subject_ids", "trial_ids"):
            if getattr(self, name).shape != (n,):
                raise ConfigError(f"{name} must have length {n}, got {getattr(self, name).shape}")
        if not (isinstance(self.band_names, list)
                and all(isinstance(name, str) for name in self.band_names)):
            raise ConfigError(f"band_names must be a list of strings, got {self.band_names!r}")
        if len(self.band_names) != self.features.shape[2]:
            raise ConfigError(
                f"{len(self.band_names)} band names for {self.features.shape[2]} bands"
            )
        repeated = [name for i, name in enumerate(self.band_names) if name in self.band_names[:i]]
        if repeated:
            raise ConfigError(f"band {repeated[0]!r} is named more than once")
        # NaN or inf would stop training as a divergence or score as class 0. The
        # sum needs no mask; one that overflowed from finite values costs the scan
        with np.errstate(over="ignore"):
            finite = np.isfinite(self.features.sum())
        if not finite:
            bad = np.argwhere(~np.isfinite(self.features))
            if bad.size:
                row, channel, band = bad[0]
                raise _NonFiniteFeature(f"feature at row {row}, channel {channel}, band "
                                        f"{self.band_names[band]!r} is {self.features[row, channel, band]}")
        c = self.n_classes
        if n and (self.labels.min() < 0 or self.labels.max() >= c):
            raise ConfigError(f"labels must lie in [0, {c}), got range "
                              f"[{self.labels.min()}, {self.labels.max()}]")
        # one observed label per (subject, trial) group: every row must
        # carry its group's first label; the first row that does not is named
        if n:
            keys = np.stack([self.subject_ids, self.trial_ids], axis=1)
            _, first, group = np.unique(keys, axis=0, return_index=True, return_inverse=True)
            bad = np.flatnonzero(self.labels != self.labels[first][group.ravel()])
            if bad.size:
                i = bad[0]
                raise ConfigError(f"subject {self.subject_ids[i]} trial {self.trial_ids[i]} "
                                  f"carries conflicting labels")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_channels(self) -> int:
        return self.features.shape[1]

    @property
    def n_bands(self) -> int:
        return self.features.shape[2]

    @property
    def n_classes(self) -> int:
        return scheme_classes(self.label_scheme)

    def subjects(self) -> list[int]:
        return sorted(int(s) for s in np.unique(self.subject_ids))

    def take(self, idx: np.ndarray) -> "FeatureDataset":
        idx = np.asarray(idx)
        return FeatureDataset(
            features=self.features[idx],
            labels=self.labels[idx],
            subject_ids=self.subject_ids[idx],
            trial_ids=self.trial_ids[idx],
            band_names=list(self.band_names),
            label_scheme=self.label_scheme,
        )


# --- disk bundles ----------------------------------------------------------

def save_dataset(ds: FeatureDataset, path) -> None:
    """Write a dataset bundle directory: manifest plus two raw blobs."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {name: getattr(ds, name) for name in MANIFEST_TYPES}  # in the schema's order
    manifest["subject_ids"], manifest["trial_ids"] = ds.subject_ids.tolist(), ds.trial_ids.tolist()
    (out / MANIFEST_NAME).write_text(json.dumps(manifest, indent=1) + "\n")
    # the features go out in row blocks, each converted on its own, so no
    # float32 copy of the whole array is ever held
    rows = max(1, SAVE_BLOCK_ELEMENTS // max(1, ds.n_channels * ds.n_bands))
    with open(out / FEATURES_NAME, "wb") as f:
        for start in range(0, ds.n_samples, rows):
            np.asarray(ds.features[start : start + rows], dtype="<f4").tofile(f)
    ds.labels.astype("<i8").tofile(out / LABELS_NAME)


def load_dataset(path) -> FeatureDataset:
    """Read a bundle back; sizes are checked against the manifest."""
    root = Path(path)
    mpath = root / MANIFEST_NAME
    if not mpath.is_file():
        raise CorruptBundleError(f"{root}: missing {MANIFEST_NAME}")
    try:
        manifest = json.loads(mpath.read_text())
    except json.JSONDecodeError as exc:
        raise CorruptBundleError(f"{mpath}: invalid JSON ({exc})") from None
    try:
        fields = {name: manifest[name] for name in MANIFEST_TYPES}
    except (KeyError, TypeError) as exc:
        raise CorruptBundleError(f"{mpath}: bad manifest field ({exc})") from None
    misfit = json_misfit(fields, MANIFEST_TYPES)
    if misfit:
        raise CorruptBundleError(f"{mpath}: {misfit}")
    try:
        subject_ids = np.array(fields["subject_ids"], dtype=np.int64)
        trial_ids = np.array(fields["trial_ids"], dtype=np.int64)
    except OverflowError as exc:
        raise CorruptBundleError(f"{mpath}: bad manifest field ({exc})") from None
    n, channels = fields["n_samples"], fields["n_channels"]
    bands, c, scheme = fields["n_bands"], fields["n_classes"], fields["label_scheme"]
    try:
        implied = scheme_classes(scheme)
    except ConfigError as exc:
        raise CorruptBundleError(f"{mpath}: {exc}") from None
    if implied != c:
        raise CorruptBundleError(
            f"{mpath}: label_scheme {scheme!r} implies {implied} classes, manifest says {c}"
        )
    fpath, lpath = root / FEATURES_NAME, root / LABELS_NAME
    if not (fpath.is_file() and lpath.is_file()):
        raise CorruptBundleError(f"{root}: missing feature or label blob")
    want_f, found_f = n * channels * bands * 4, fpath.stat().st_size
    if found_f != want_f:
        raise CorruptBundleError(
            f"{root}/{FEATURES_NAME}: expected {want_f} bytes for "
            f"{n}x{channels}x{bands} float32, found {found_f}"
        )
    want_l, found_l = n * 8, lpath.stat().st_size
    if found_l != want_l:
        raise CorruptBundleError(
            f"{root}/{LABELS_NAME}: expected {want_l} bytes, found {found_l}"
        )
    # the blobs are read only after their sizes check out, straight into
    # the arrays; float32 stays float32 in memory
    features = np.fromfile(fpath, dtype="<f4").astype(np.float32, copy=False)
    features = features.reshape(n, channels, bands)
    labels = np.fromfile(lpath, dtype="<i8").astype(np.int64, copy=False)
    try:
        return FeatureDataset(
            features=features,
            labels=labels,
            subject_ids=subject_ids,
            trial_ids=trial_ids,
            band_names=fields["band_names"],
            label_scheme=scheme,
        )
    except _NonFiniteFeature as exc:
        raise CorruptBundleError(f"{fpath}: {exc}") from None
    except ConfigError as exc:
        raise CorruptBundleError(f"{root}: {exc}") from None


# --- synthetic generator ---------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    """Knobs of the synthetic cross-subject benchmark generator."""

    subjects: int = 8
    trials_per_class: int = 4
    samples_per_trial: int = 8
    n_channels: int = 16
    n_bands: int = 5
    n_classes: int = 3
    class_separation: float = 3.0
    subject_shift_scale: float = 0.5
    label_noise_rate: float = 0.0
    seed: int = 0
    label_scheme: str | int | None = None

    def __post_init__(self):
        for name in ("subjects", "trials_per_class", "samples_per_trial",
                     "n_channels", "n_bands", "n_classes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_classes < 2:
            raise ConfigError("need at least 2 classes")
        if not 0.0 <= self.label_noise_rate <= 1.0:
            raise ConfigError(f"label_noise_rate must be in [0, 1], got {self.label_noise_rate}")
        if self.class_separation < 0 or self.subject_shift_scale < 0:
            raise ConfigError("class_separation and subject_shift_scale must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def resolved_scheme(self) -> str | int:
        if self.label_scheme is not None:
            if scheme_classes(self.label_scheme) != self.n_classes:
                raise ConfigError(
                    f"label_scheme {self.label_scheme!r} does not match {self.n_classes} classes"
                )
            return self.label_scheme
        if self.n_classes == 3:
            return "seed3"
        if self.n_classes == 4:
            return "seed4"
        return self.n_classes


TRIAL_JITTER = 0.25
INFORMATIVE_FRACTION = 0.3


def informative_channels(n_channels: int) -> np.ndarray:
    """Indices of the channels that carry class signal (about 30%)."""
    return np.arange(max(1, int(round(INFORMATIVE_FRACTION * n_channels))))


def _class_means(rng: np.random.Generator, cfg: SynthConfig) -> np.ndarray:
    """(C, n, d) mean tensors, nonzero only on informative channels.

    Class directions are orthonormal in the informative subspace, scaled
    so every pair of class means is exactly class_separation apart.
    """
    inform = informative_channels(cfg.n_channels)
    dim = inform.size * cfg.n_bands
    if cfg.n_classes > dim:
        raise ConfigError(
            f"{cfg.n_classes} classes need >= {cfg.n_classes} informative feature "
            f"dimensions, have {dim}; increase n_channels or n_bands"
        )
    raw = rng.normal(size=(dim, cfg.n_classes))
    q, r = np.linalg.qr(raw)
    q = q * np.sign(np.diag(r))  # fix QR sign ambiguity for determinism
    directions = q.T * (cfg.class_separation / np.sqrt(2.0))
    means = np.zeros((cfg.n_classes, cfg.n_channels, cfg.n_bands))
    means[:, inform, :] = directions.reshape(cfg.n_classes, inform.size, cfg.n_bands)
    return means


def synthesize(cfg: SynthConfig) -> FeatureDataset:
    """Deterministic class-separated features with per-subject distortion.

    Trials interleave classes (trial t holds class t mod C). Each subject
    applies a persistent random gain and offset to every feature cell.
    Label noise flips whole trials, only ever to an emotionally adjacent
    class, so each (subject, trial) group keeps a single observed label.

    Each subject's generator draws its gain, its bias and then one block
    per trial: the trial's offset followed by its sample noise rows. The
    blocks come from one `normal` call per subject, which reads the same
    stream as one call per offset and per sample would, so the features
    do not depend on how the draws are batched.
    """
    scheme = cfg.resolved_scheme()
    root = np.random.SeedSequence(cfg.seed)
    means_stream, subj_root, flip_stream = root.spawn(3)
    means = _class_means(np.random.default_rng(means_stream), cfg)

    trials_total = cfg.trials_per_class * cfg.n_classes
    spt = cfg.samples_per_trial
    cell = (cfg.n_channels, cfg.n_bands)
    trial_classes = np.arange(trials_total) % cfg.n_classes

    features = np.empty((cfg.subjects, trials_total, spt) + cell)
    for s, stream in enumerate(subj_root.spawn(cfg.subjects)):
        rng = np.random.default_rng(stream)
        gain = 1.0 + 0.5 * cfg.subject_shift_scale * rng.normal()
        gain = max(gain, 0.2)  # keep the class signal from collapsing or flipping
        bias = cfg.subject_shift_scale * rng.normal(size=cell)
        draws = rng.normal(size=(trials_total, 1 + spt) + cell)  # per trial: offset, samples
        centers = means[trial_classes] + TRIAL_JITTER * draws[:, 0]
        block = features[s]
        np.add(centers[:, None], draws[:, 1:], out=block)
        block *= gain
        block += bias
    features = features.reshape((-1,) + cell)

    labels = np.repeat(np.tile(trial_classes, cfg.subjects), spt)
    subject_ids = np.repeat(np.arange(cfg.subjects, dtype=np.int64), trials_total * spt)
    trial_ids = np.tile(np.repeat(np.arange(trials_total, dtype=np.int64), spt), cfg.subjects)

    if cfg.label_noise_rate > 0.0:
        flips = allowed_flips(scheme)
        rng = np.random.default_rng(flip_stream)
        n_groups = cfg.subjects * trials_total  # subject-major (subject, trial) groups
        k = int(round(cfg.label_noise_rate * n_groups))
        chosen = rng.choice(n_groups, size=k, replace=False)
        for g in sorted(int(i) for i in chosen):
            rows = slice(g * spt, (g + 1) * spt)
            options = flips[int(labels[rows.start])]
            labels[rows] = options[int(rng.integers(len(options)))]

    return FeatureDataset(
        features=features,
        labels=labels,
        subject_ids=subject_ids,
        trial_ids=trial_ids,
        band_names=_band_names_for(cfg.n_bands),
        label_scheme=scheme,
    )


# --- split protocols -------------------------------------------------------

Fold = tuple[np.ndarray, np.ndarray]  # (training rows, held-out rows) into one dataset


def _subject_dependent_rows(ds: FeatureDataset, train_trials: int) -> list[Fold]:
    """Per subject: the rows of the first `train_trials` trials train, the rest test."""
    if train_trials < 1:
        raise ConfigError(f"train_trials must be >= 1, got {train_trials}")
    folds = []
    for s in ds.subjects():
        mask = ds.subject_ids == s
        trials = np.unique(ds.trial_ids[mask])
        if len(trials) < train_trials:
            raise ConfigError(f"subject {s} has {len(trials)} trials, needs > {train_trials}")
        if len(trials) == train_trials:
            raise ConfigError(f"subject {s}: all {train_trials} trials would train, none left to test")
        in_head = np.isin(ds.trial_ids, trials[:train_trials])
        folds.append((np.flatnonzero(mask & in_head), np.flatnonzero(mask & ~in_head)))
    return folds


def _loso_rows(ds: FeatureDataset) -> list[Fold]:
    """One fold per subject: that subject's rows test, all other rows train."""
    subjects = ds.subjects()
    if len(subjects) < 2:
        raise ConfigError("leave-one-subject-out needs at least 2 subjects")
    folds = []
    for s in subjects:
        test_mask = ds.subject_ids == s
        folds.append((np.flatnonzero(~test_mask), np.flatnonzero(test_mask)))
    return folds


def split_loso(ds: FeatureDataset) -> list[tuple[FeatureDataset, FeatureDataset]]:
    """One fold per subject: that subject tests, all others train."""
    return [(ds.take(tr), ds.take(te)) for tr, te in _loso_rows(ds)]


def band_select(ds: FeatureDataset, bands) -> FeatureDataset:
    """Restrict the feature dimension to the named bands, request order."""
    bands = list(bands)
    if not bands:
        raise ConfigError("band selection must name at least one band")
    for name in bands:
        if name not in ds.band_names:
            raise ConfigError(f"unknown band {name!r}; have {ds.band_names}")
        if bands.count(name) > 1:
            raise ConfigError(f"band {name!r} is selected more than once")
    idx = [ds.band_names.index(name) for name in bands]
    return replace(
        ds,
        features=ds.features[:, :, idx],
        labels=ds.labels.copy(),
        subject_ids=ds.subject_ids.copy(),
        trial_ids=ds.trial_ids.copy(),
        band_names=bands,
    )


def resample_target(source_n: int, n: int, seed) -> np.ndarray:
    """Row indices that resize an n-row target set to exactly source_n rows, seeded.

    Equal sizes permute; oversampling draws with replacement; downsampling
    draws without.
    """
    if source_n < 1:
        raise ConfigError(f"source_n must be >= 1, got {source_n}")
    if n == 0:
        raise ConfigError("target set is empty")
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    rng = np.random.default_rng(seed)
    if n == source_n:
        return rng.permutation(n)
    return rng.choice(n, size=source_n, replace=n < source_n)
