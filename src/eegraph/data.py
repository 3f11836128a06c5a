"""Band-feature datasets: disk bundles, a synthetic cross-subject
generator, split protocols, and band selection.

Features are log-power style band summaries, one value per (channel,
band). Bundles store float32 on disk and widen to float64 in memory.
The generator builds class-separated Gaussian features with persistent
per-subject distortions, which is exactly the structure the domain and
label regularizers are supposed to exploit.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, CorruptBundleError
from .losses import allowed_flips, scheme_classes

DEFAULT_BANDS = ("delta", "theta", "alpha", "beta", "gamma")

MANIFEST_NAME = "manifest.json"
FEATURES_NAME = "features.f32"
LABELS_NAME = "labels.i64"
MANIFEST_COUNTS = ("n_samples", "n_channels", "n_bands", "n_classes")


def _band_names_for(d: int) -> list[str]:
    if d == len(DEFAULT_BANDS):
        return list(DEFAULT_BANDS)
    return [f"band{i}" for i in range(d)]


@dataclass
class FeatureDataset:
    """In-memory dataset of per-channel band features with group metadata."""

    features: np.ndarray     # (N, channels, bands) float64
    labels: np.ndarray       # (N,) int64
    subject_ids: np.ndarray  # (N,) int64
    trial_ids: np.ndarray    # (N,) int64
    band_names: list[str]
    label_scheme: str | int = "seed3"

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.subject_ids = np.asarray(self.subject_ids, dtype=np.int64)
        self.trial_ids = np.asarray(self.trial_ids, dtype=np.int64)
        if self.features.ndim != 3:
            raise ConfigError(f"features must be (samples, channels, bands), got {self.features.shape}")
        n = self.features.shape[0]
        for name in ("labels", "subject_ids", "trial_ids"):
            if getattr(self, name).shape != (n,):
                raise ConfigError(f"{name} must have length {n}, got {getattr(self, name).shape}")
        if len(self.band_names) != self.features.shape[2]:
            raise ConfigError(
                f"{len(self.band_names)} band names for {self.features.shape[2]} bands"
            )
        c = self.n_classes
        if n and (self.labels.min() < 0 or self.labels.max() >= c):
            raise ConfigError(f"labels must lie in [0, {c}), got range "
                              f"[{self.labels.min()}, {self.labels.max()}]")
        # one observed label per (subject, trial) group
        groups: dict[tuple[int, int], int] = {}
        for s, t, y in zip(self.subject_ids, self.trial_ids, self.labels):
            key = (int(s), int(t))
            if groups.setdefault(key, int(y)) != int(y):
                raise ConfigError(f"subject {s} trial {t} carries conflicting labels")

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

    def unlabeled(self) -> "UnlabeledSet":
        """Features-only view handed to training as the target domain."""
        return UnlabeledSet(features=self.features.copy())


@dataclass
class UnlabeledSet:
    """Target-domain features with the labels structurally removed."""

    features: np.ndarray  # (N, channels, bands) float64

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 3:
            raise ConfigError(f"features must be (samples, channels, bands), got {self.features.shape}")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    def take(self, idx: np.ndarray) -> "UnlabeledSet":
        return UnlabeledSet(features=self.features[np.asarray(idx)])


# --- disk bundles ----------------------------------------------------------

def save_dataset(ds: FeatureDataset, path) -> None:
    """Write a dataset bundle directory: manifest plus two raw blobs."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "n_samples": ds.n_samples,
        "n_channels": ds.n_channels,
        "n_bands": ds.n_bands,
        "n_classes": ds.n_classes,
        "band_names": list(ds.band_names),
        "label_scheme": ds.label_scheme,
        "subject_ids": [int(v) for v in ds.subject_ids],
        "trial_ids": [int(v) for v in ds.trial_ids],
    }
    (out / MANIFEST_NAME).write_text(json.dumps(manifest, indent=1) + "\n")
    (out / FEATURES_NAME).write_bytes(ds.features.astype("<f4").tobytes())
    (out / LABELS_NAME).write_bytes(ds.labels.astype("<i8").tobytes())


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
        counts = [manifest[name] for name in MANIFEST_COUNTS]
        band_names = list(manifest["band_names"])
        scheme = manifest["label_scheme"]
        subject_ids = np.array(manifest["subject_ids"], dtype=np.int64)
        trial_ids = np.array(manifest["trial_ids"], dtype=np.int64)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptBundleError(f"{mpath}: bad manifest field ({exc})") from None
    for name, value in zip(MANIFEST_COUNTS, counts):
        if isinstance(value, bool) or not isinstance(value, int):
            raise CorruptBundleError(f"{mpath}: {name} must be a JSON integer, got {value!r}")
    n, channels, bands, c = counts
    if isinstance(scheme, bool) or not isinstance(scheme, (str, int)):
        raise CorruptBundleError(f"{mpath}: label_scheme must be a name or class count")
    try:
        implied = scheme_classes(scheme)
    except ConfigError as exc:
        raise CorruptBundleError(f"{mpath}: {exc}") from None
    if implied != c:
        raise CorruptBundleError(
            f"{mpath}: label_scheme {scheme!r} implies {implied} classes, manifest says {c}"
        )
    fbytes = (root / FEATURES_NAME).read_bytes() if (root / FEATURES_NAME).is_file() else None
    lbytes = (root / LABELS_NAME).read_bytes() if (root / LABELS_NAME).is_file() else None
    if fbytes is None or lbytes is None:
        raise CorruptBundleError(f"{root}: missing feature or label blob")
    want_f = n * channels * bands * 4
    if len(fbytes) != want_f:
        raise CorruptBundleError(
            f"{root}/{FEATURES_NAME}: expected {want_f} bytes for "
            f"{n}x{channels}x{bands} float32, found {len(fbytes)}"
        )
    want_l = n * 8
    if len(lbytes) != want_l:
        raise CorruptBundleError(
            f"{root}/{LABELS_NAME}: expected {want_l} bytes, found {len(lbytes)}"
        )
    features = np.frombuffer(fbytes, dtype="<f4").astype(np.float64).reshape(n, channels, bands)
    labels = np.frombuffer(lbytes, dtype="<i8").astype(np.int64)
    try:
        return FeatureDataset(
            features=features,
            labels=labels,
            subject_ids=subject_ids,
            trial_ids=trial_ids,
            band_names=band_names,
            label_scheme=scheme,
        )
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
    """
    scheme = cfg.resolved_scheme()
    root = np.random.SeedSequence(cfg.seed)
    means_stream, subj_root, flip_stream = root.spawn(3)
    means = _class_means(np.random.default_rng(means_stream), cfg)

    trials_total = cfg.trials_per_class * cfg.n_classes
    per_subject = trials_total * cfg.samples_per_trial
    n_total = cfg.subjects * per_subject

    features = np.empty((n_total, cfg.n_channels, cfg.n_bands))
    labels = np.empty(n_total, dtype=np.int64)
    subject_ids = np.empty(n_total, dtype=np.int64)
    trial_ids = np.empty(n_total, dtype=np.int64)

    subj_streams = subj_root.spawn(cfg.subjects)
    row = 0
    for s in range(cfg.subjects):
        rng = np.random.default_rng(subj_streams[s])
        gain = 1.0 + 0.5 * cfg.subject_shift_scale * rng.normal()
        gain = max(gain, 0.2)  # keep the class signal from collapsing or flipping
        bias = cfg.subject_shift_scale * rng.normal(size=(cfg.n_channels, cfg.n_bands))
        for t in range(trials_total):
            cls = t % cfg.n_classes
            offset = TRIAL_JITTER * rng.normal(size=(cfg.n_channels, cfg.n_bands))
            for _ in range(cfg.samples_per_trial):
                base = means[cls] + offset + rng.normal(size=(cfg.n_channels, cfg.n_bands))
                features[row] = gain * base + bias
                labels[row] = cls
                subject_ids[row] = s
                trial_ids[row] = t
                row += 1

    if cfg.label_noise_rate > 0.0:
        flips = allowed_flips(scheme)
        rng = np.random.default_rng(flip_stream)
        groups = [(s, t) for s in range(cfg.subjects) for t in range(trials_total)]
        k = int(round(cfg.label_noise_rate * len(groups)))
        chosen = rng.choice(len(groups), size=k, replace=False)
        for gi in sorted(int(i) for i in chosen):
            s, t = groups[gi]
            rows = np.flatnonzero((subject_ids == s) & (trial_ids == t))
            true_cls = int(labels[rows[0]])
            options = flips[true_cls]
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

def split_subject_dependent(ds: FeatureDataset, train_trials: int) -> list[tuple[FeatureDataset, FeatureDataset]]:
    """Per subject: the first `train_trials` trials train, the rest test."""
    if train_trials < 1:
        raise ConfigError(f"train_trials must be >= 1, got {train_trials}")
    folds = []
    for s in ds.subjects():
        mask = ds.subject_ids == s
        trials = sorted(int(t) for t in np.unique(ds.trial_ids[mask]))
        if len(trials) < train_trials:
            raise ConfigError(f"subject {s} has {len(trials)} trials, needs > {train_trials}")
        if len(trials) == train_trials:
            raise ConfigError(f"subject {s}: all {train_trials} trials would train, none left to test")
        head = set(trials[:train_trials])
        in_head = np.array([int(t) in head for t in ds.trial_ids])
        folds.append((ds.take(np.flatnonzero(mask & in_head)),
                      ds.take(np.flatnonzero(mask & ~in_head))))
    return folds


def split_loso(ds: FeatureDataset) -> list[tuple[FeatureDataset, FeatureDataset]]:
    """One fold per subject: that subject tests, all others train."""
    subjects = ds.subjects()
    if len(subjects) < 2:
        raise ConfigError("leave-one-subject-out needs at least 2 subjects")
    folds = []
    for s in subjects:
        test_mask = ds.subject_ids == s
        folds.append((ds.take(np.flatnonzero(~test_mask)),
                      ds.take(np.flatnonzero(test_mask))))
    return folds


def band_select(ds: FeatureDataset, bands) -> FeatureDataset:
    """Restrict the feature dimension to the named bands, request order."""
    bands = list(bands)
    if not bands:
        raise ConfigError("band selection must name at least one band")
    idx = []
    for name in bands:
        if name not in ds.band_names:
            raise ConfigError(f"unknown band {name!r}; have {ds.band_names}")
        idx.append(ds.band_names.index(name))
    return replace(
        ds,
        features=ds.features[:, :, idx],
        labels=ds.labels.copy(),
        subject_ids=ds.subject_ids.copy(),
        trial_ids=ds.trial_ids.copy(),
        band_names=bands,
    )


def resample_target(source_n: int, target, seed):
    """Resize the target set to exactly source_n samples, seeded.

    Equal sizes permute; oversampling draws with replacement; downsampling
    draws without. Works on labeled and unlabeled sets alike.
    """
    if source_n < 1:
        raise ConfigError(f"source_n must be >= 1, got {source_n}")
    n = target.n_samples
    if n == 0:
        raise ConfigError("target set is empty")
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    rng = np.random.default_rng(seed)
    if n == source_n:
        idx = rng.permutation(n)
    elif n < source_n:
        idx = rng.choice(n, size=source_n, replace=True)
    else:
        idx = rng.choice(n, size=source_n, replace=False)
    return target.take(idx)
