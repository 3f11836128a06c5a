"""Evaluation protocols, metrics, and trained-model inspection.

`run_protocol` keeps the one dataset it is given and describes each fold
as two row-index arrays into it, training rows and held-out rows. It
trains one model per fold in one `train_indexed` call, which groups the
folds whose training sets have the same size, and scores each fold's
model on its held-out rows; no fold's features are copied.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .data import FeatureDataset, _loso_rows, _subject_dependent_rows
from .errors import ConfigError
from .model import predict
from .params import ModelConfig, ParamSet
from .train import IndexedJob, TrainConfig, TrainResult, train_indexed


@dataclass
class EvalReport:
    """Per-fold accuracies with their aggregate and a pooled confusion matrix."""

    fold_accuracies: list[float]
    confusion: np.ndarray  # (C, C) counts, rows = true class
    fold_info: list[dict] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return float(np.mean(self.fold_accuracies))

    @property
    def std(self) -> float:
        # population convention: folds are the whole population of interest
        return float(np.std(self.fold_accuracies))

    def as_dict(self, config: dict | None = None) -> dict:
        return {
            "folds": self.fold_info,
            "mean": self.mean,
            "std": self.std,
            "confusion": self.confusion.astype(int).tolist(),
            "config": config or {},
        }


def evaluate(
    cfg: ModelConfig, params: ParamSet, test_ds: FeatureDataset, *, rows: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Accuracy and confusion counts on a held-out set, dropout off.

    `rows`, if given, scores only those rows of `test_ds`, gathered a
    prediction chunk at a time.
    """
    if test_ds.n_classes != cfg.n_classes:
        raise ConfigError(
            f"dataset scheme has {test_ds.n_classes} classes, model has {cfg.n_classes}"
        )
    labels = test_ds.labels if rows is None else test_ds.labels[rows]
    preds = predict(cfg, params, test_ds.features, rows=rows)
    c = cfg.n_classes
    confusion = np.zeros((c, c), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    accuracy = float(np.trace(confusion) / max(1, len(labels)))
    return accuracy, confusion


PROTOCOLS = ("subject_dependent", "loso")


def run_protocol(
    ds: FeatureDataset,
    protocol: str,
    cfg: TrainConfig,
    *,
    train_trials: int | None = None,
    layout=None,
    global_pairs=None,
) -> tuple[EvalReport, list[TrainResult]]:
    """Train and score one model per fold of the chosen protocol.

    Subject-dependent folds train and test within each subject; the
    leave-one-subject-out protocol holds each subject's data out entirely.
    When domain adaptation is on, the held-out fold's rows serve as the
    target domain; the trainer sees them as row indices only, and the
    labels of the training rows are the only labels it receives. Folds
    with training sets of one size train in lockstep; each model is
    bitwise what `train` gives on a copy of its fold.
    """
    if protocol == "subject_dependent":
        if train_trials is None:
            raise ConfigError("subject_dependent protocol needs train_trials")
        folds = _subject_dependent_rows(ds, train_trials)
    elif protocol == "loso":
        folds = _loso_rows(ds)
    else:
        raise ConfigError(f"unknown protocol {protocol!r}; choose from {PROTOCOLS}")

    jobs = [IndexedJob(train_rows, ds.labels[train_rows], ds.label_scheme,
                       test_rows if cfg.uses_domain else None)
            for train_rows, test_rows in folds]
    results = train_indexed(ds.features, jobs, cfg, layout=layout, global_pairs=global_pairs,
                            names=[f"fold {i}" for i in range(len(folds))])

    accuracies: list[float] = []
    infos: list[dict] = []
    confusion = np.zeros((ds.n_classes, ds.n_classes), dtype=np.int64)
    for i, ((_, test_rows), result) in enumerate(zip(folds, results)):
        acc, conf = evaluate(result.model_cfg, result.params, ds, rows=test_rows)
        accuracies.append(acc)
        confusion += conf
        info = {"fold": i, "accuracy": acc, "n_test": len(test_rows)}
        info["test_subject" if protocol == "loso" else "subject"] = int(ds.subject_ids[test_rows[0]])
        infos.append(info)
    report = EvalReport(fold_accuracies=accuracies, confusion=confusion, fold_info=infos)
    return report, results


def activation_map(params: ParamSet) -> np.ndarray:
    """Self-connection strengths min-max scaled to [0, 1].

    A constant diagonal (every fresh model) maps to all zeros rather than
    dividing by zero.
    """
    diag = params.adj.diagonal()
    lo, hi = diag.min(), diag.max()
    if hi == lo:
        return np.zeros_like(diag)
    return (diag - lo) / (hi - lo)


def top_k_connections(
    params: ParamSet,
    k: int,
    *,
    exclude_global: bool = False,
    channel_names: list[str] | None = None,
    global_pairs: list[tuple[str, str]] | None = None,
) -> list[tuple[str, str, float]]:
    """Strongest learned channel connections, by absolute weight.

    Ties break toward the lexicographically smaller index pair. Global
    pairs can be excluded to surface what training discovered on its own.
    """
    n = params.adj.n
    names = channel_names if channel_names is not None else [str(i) for i in range(n)]
    if len(names) != n:
        raise ConfigError(f"{len(names)} channel names for {n} channels")
    full = params.adj.full()
    banned: set[tuple[int, int]] = set()
    if exclude_global:
        if global_pairs is None:
            raise ConfigError("exclude_global needs the global pair list")
        index = {name: i for i, name in enumerate(names)}
        for a, b in global_pairs:
            if a not in index or b not in index:
                raise ConfigError(f"global pair ({a}, {b}) not in channel names")
            i, j = sorted((index[a], index[b]))
            banned.add((i, j))
    candidates = [
        (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in banned
    ]
    if k < 0 or k > len(candidates):
        raise ConfigError(f"k must be in [0, {len(candidates)}], got {k}")
    candidates.sort(key=lambda ij: (-abs(full[ij[0], ij[1]]), ij[0], ij[1]))
    return [(names[i], names[j], float(full[i, j])) for i, j in candidates[:k]]


def config_echo(cfg: TrainConfig, protocol: str, train_trials: int | None = None) -> dict:
    """The run configuration as it appears in report files."""
    echo = asdict(cfg)
    echo["protocol"] = protocol
    if train_trials is not None:
        echo["train_trials"] = train_trials
    return echo
