"""The training loop: batching, dual objectives, reversal schedule, Adam.

Each batch runs one forward from the current adjacency: the labeled
source samples and, when enabled, a paired target batch stacked behind
them. The classifier reads the source rows and one domain-head call reads
all rows; one fused backward gives the update directions of both
objectives under the reversal schedule, and one Adam update applies them.
The trainer reads features as rows of one shared array
(`train_indexed`): each model is a job of training-row indices with
those rows' labels and, for the domain path, target-row indices, so no
training set or target set is copied. Soft-label targets are rows of
the scheme's table, gathered once per group; target rows are drawn once
per epoch and target size by `resample_target`. Models whose training
sets have the same size train in lockstep: their parameters are the rows
of one (k, P) matrix, and each step gathers the (k, batch) source rows
with one `take`, the target rows with another, and runs one forward, one
backward and one Adam update over a leading model axis. Per-epoch
training accuracy runs `predict` per model over its rows, one chunk
gathered at a time. `train` takes datasets: it makes them one job over
the training features, with the target's features concatenated behind
them when the domain path is on. Runs are bit-reproducible, and a
model's result does not depend on the group it trained in: every random
draw comes from a child stream of the run seed, and the same children
are spawned whether or not the domain path is active. Every model
trains under that one seed, so a group draws once for all its models:
one initial parameter vector, one batch order per epoch and one dropout
mask per step, each the draw a lone model would make.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import FeatureDataset, resample_target
from .electrodes import (
    DELTA_DEFAULT,
    ElectrodeLayout,
    GlobalPairSet,
    builtin_layout,
    calibrate_delta,
    default_global_pairs,
    init_local_adjacency,
    initial_adjacency,
    pairwise_distances,
    ring_layout,
    sparsity_fraction,
)
from .errors import ConfigError, DivergenceError
from .gradients import step_directions
from .graph import SymmetricAdjacency
from .losses import convert_labels, domain_loss, grl_beta, kl_loss, l1_penalty, scheme_classes
from .model import (
    EVAL_CHUNK_ELEMENTS,
    domain_forward,
    forward,
    init_params,
    predict,
    sample_dropout_mask,
)
from .optim import AdamConfig, AdamState, adam_update
from .params import ModelConfig, ParamSet, _check_model_fields


@dataclass(frozen=True)
class TrainConfig:
    """One training run's hyperparameters and switches."""

    epochs: int = 50
    batch_size: int = 16
    lr: float = 0.01
    alpha: float = 0.0        # adjacency sparsity weight
    epsilon: float = 0.0      # soft-label spread, used when emotion_dl is on
    emotion_dl: bool = False
    node_dat: bool = False
    dat_graph_level: bool = False
    seed: int = 0
    hidden_dim: int = 16
    steps: int = 2
    dropout: float = 0.7
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    delta: float | None = None  # adjacency init scale; None = auto

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.alpha < 0 or not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError("alpha must be >= 0 and epsilon in [0, 1]")
        if self.node_dat and self.dat_graph_level:
            raise ConfigError("node_dat and dat_graph_level are mutually exclusive")
        if self.delta is not None and self.delta <= 0:
            raise ConfigError(f"delta must be positive, got {self.delta}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        _check_model_fields(self.hidden_dim, self.steps, self.dropout)
        self.adam()  # a bad model or optimizer field is refused here, before any data is read

    @property
    def uses_domain(self) -> bool:
        return self.node_dat or self.dat_graph_level

    @property
    def domain_level(self) -> str:
        return "graph" if self.dat_graph_level else "node"

    def adam(self) -> AdamConfig:
        return AdamConfig(
            lr=self.lr,
            beta1=self.beta1,
            beta2=self.beta2,
            eps=self.adam_eps,
            weight_decay=self.weight_decay,
        )


@dataclass
class TrainResult:
    cfg: TrainConfig
    model_cfg: ModelConfig
    params: ParamSet
    history: list[dict] = field(default_factory=list)
    channel_names: list[str] | None = None
    global_pairs: list[tuple[str, str]] | None = None


def default_layout_for(n_channels: int) -> tuple[ElectrodeLayout, GlobalPairSet | None]:
    """The shipped montage when the channel count matches it, else a ring."""
    built = builtin_layout()
    if n_channels == built.n:
        return built, default_global_pairs()
    return ring_layout(n_channels), None


def resolve_delta(layout: ElectrodeLayout, delta: float | None) -> float:
    """Use the requested scale, or pick one that lands in the sparsity band.

    The conventional value is kept whenever it already yields a sensible
    fraction of non-negligible connections; otherwise the scale is
    recalibrated from the layout's distance distribution.
    """
    if delta is not None:
        return delta
    dist = pairwise_distances(layout.positions)
    frac = sparsity_fraction(init_local_adjacency(dist, DELTA_DEFAULT))
    if 0.15 <= frac <= 0.30:
        return DELTA_DEFAULT
    return calibrate_delta(dist)


def make_model_config(cfg: TrainConfig, features: np.ndarray, label_scheme: str | int) -> ModelConfig:
    """The model for (samples, channels, bands) features labeled under `label_scheme`."""
    return ModelConfig(
        n_channels=features.shape[1],
        in_dim=features.shape[2],
        hidden_dim=cfg.hidden_dim,
        n_classes=scheme_classes(label_scheme),
        steps=cfg.steps,
        dropout=cfg.dropout,
    )


@dataclass(frozen=True)
class IndexedJob:
    """One model to train, described as rows of a feature array it shares.

    The labels are those of the training rows only; the target domain is
    row indices into the features, so no target label reaches the trainer.
    """

    rows: np.ndarray                        # (n,) training rows
    labels: np.ndarray                      # (n,) their labels
    label_scheme: str | int
    target_rows: np.ndarray | None = None   # target-domain rows, for the domain path


def train(
    train_ds: FeatureDataset,
    target: FeatureDataset | None,
    cfg: TrainConfig,
    *,
    layout: ElectrodeLayout | None = None,
    global_pairs: GlobalPairSet | None = None,
) -> TrainResult:
    """Run the full optimization and return parameters plus history.

    `target` supplies target-domain features for the domain path; only
    its features are read. The one job holds the training rows and, when
    the domain path is on, the target's rows concatenated behind them.
    """
    features, target_rows = train_ds.features, None
    if cfg.uses_domain and target is not None:
        if target.features.shape[1:] != features.shape[1:]:
            raise ConfigError(
                f"target feature shape {target.features.shape[1:]} does not match "
                f"source {features.shape[1:]}"
            )
        features = np.concatenate([features, target.features])
        target_rows = np.arange(train_ds.n_samples, len(features))
    job = IndexedJob(np.arange(train_ds.n_samples), train_ds.labels, train_ds.label_scheme,
                     target_rows)
    return train_indexed(features, [job], cfg, layout=layout, global_pairs=global_pairs)[0]


def train_indexed(
    features: np.ndarray,
    jobs: list[IndexedJob],
    cfg: TrainConfig,
    *,
    layout: ElectrodeLayout | None = None,
    global_pairs: GlobalPairSet | None = None,
    names: list[str] | None = None,
) -> list[TrainResult]:
    """Train one model per job over one (samples, channels, bands) array.

    Jobs with the same number of training rows and classes train in
    lockstep, in groups of at most `_group_size` models; each model's
    result is bitwise that of `train` on a copy of its rows. The layout,
    its delta and the initial adjacency are resolved once for all groups.
    `names` label the models in a `DivergenceError`.
    """
    if any(len(job.rows) == 0 for job in jobs):
        raise ConfigError("training set is empty")
    if cfg.uses_domain and any(job.target_rows is None for job in jobs):
        raise ConfigError("domain adaptation is on but no target data was supplied")
    n_channels = features.shape[1]
    if layout is None:
        layout, auto_pairs = default_layout_for(n_channels)
        if global_pairs is None:
            global_pairs = auto_pairs
    if layout.n != n_channels:
        raise ConfigError(f"layout has {layout.n} electrodes, data has {n_channels} channels")
    adj0 = initial_adjacency(layout, global_pairs, resolve_delta(layout, cfg.delta))
    channel_names = list(layout.names)
    pairs = list(global_pairs.pairs) if global_pairs is not None else None

    by_size: dict[tuple, list[int]] = {}
    for i, job in enumerate(jobs):
        by_size.setdefault((len(job.rows), scheme_classes(job.label_scheme)), []).append(i)
    results: list[TrainResult] = [None] * len(jobs)
    cap = _group_size(cfg, n_channels)
    for same in by_size.values():
        for j in range(0, len(same), cap):
            group = same[j : j + cap]
            trained = _train_group(
                features, [jobs[i] for i in group], cfg, adj0, channel_names, pairs,
                [f"{names[i]}: " for i in group] if names else [""] * len(group),
            )
            for i, result in zip(group, trained):
                results[i] = result
    return results


def _group_size(cfg: TrainConfig, n_channels: int) -> int:
    """The most models of one config that train in lockstep.

    A training step keeps about 8 (rows, channels, hidden) arrays live per
    model, where a prediction chunk keeps 2, so a group gets the budget of
    one prediction chunk, `EVAL_CHUNK_ELEMENTS` elements per array.
    """
    rows = cfg.batch_size * (2 if cfg.uses_domain else 1)
    return max(1, EVAL_CHUNK_ELEMENTS // (8 * rows * n_channels * cfg.hidden_dim))


def _train_group(
    features: np.ndarray,
    jobs: list[IndexedJob],
    cfg: TrainConfig,
    adj0: SymmetricAdjacency,
    channel_names: list[str],
    global_pairs: list[tuple[str, str]] | None,
    prefixes: list[str],
) -> list[TrainResult]:
    """Train the models of equal-size jobs over one feature array, all steps in lockstep.

    Every model starts from the initial adjacency `adj0`; the channel
    names and hemisphere pairs label its result.
    """
    n = len(jobs[0].rows)
    model_cfg = make_model_config(cfg, features, jobs[0].label_scheme)

    # Child streams are always spawned in the same pattern so toggling the
    # domain path cannot shift any other random draw. Every model trains
    # under the run seed, so one set of draws serves the whole group.
    k, uses_domain, domain_level = len(jobs), cfg.uses_domain, cfg.domain_level
    init_ss, shuffle_ss, dropout_ss, target_ss = np.random.SeedSequence(cfg.seed).spawn(4)
    first = init_params(model_cfg, None, init_ss, domain_head=uses_domain, adj=adj0)
    stacked = ParamSet.from_flat(np.tile(first.flat, (k, 1)), model_cfg, uses_domain)
    models = [ParamSet.from_flat(row, model_cfg, uses_domain) for row in stacked.flat]
    state = AdamState.for_params(stacked, cfg.adam())
    shuffle_rng = np.random.default_rng(shuffle_ss)
    dropout_rng = np.random.default_rng(dropout_ss)
    target_epoch_ss = target_ss.spawn(cfg.epochs)

    epsilon = cfg.epsilon if cfg.emotion_dl else 0.0
    soft = np.stack([convert_labels(job.labels, job.label_scheme, epsilon) for job in jobs])
    source_rows = np.stack([job.rows for job in jobs])
    batches_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    total_batches = cfg.epochs * batches_per_epoch

    histories = [[] for _ in jobs]
    done_batches = 0
    no_domain = np.zeros(k)  # the domain term of every step with the domain path off
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        # (k, n) feature rows in this epoch's batch order, source and target
        epoch_source = source_rows[:, order]
        if uses_domain:
            # one draw per target size: models with equal sizes draw the same rows
            draws = {m: resample_target(n, m, target_epoch_ss[epoch])
                     for m in {len(job.target_rows) for job in jobs}}
            epoch_target = np.stack([job.target_rows[draws[len(job.target_rows)]] for job in jobs])
        kl_sum, l1_sum, dom_sum = (np.zeros(k) for _ in range(3))
        beta = 0.0
        # A non-finite feature makes the forward and the backward meet
        # inf - inf; the loss check reports it, or adam_update's finite
        # check of the directions when the activations it poisons still
        # leave the loss finite. One errstate serves the epoch's steps.
        with np.errstate(invalid="ignore"):
            for b in range(batches_per_epoch):
                rows = slice(b * cfg.batch_size, (b + 1) * cfg.batch_size)
                idx = order[rows]
                x = features.take(epoch_source[:, rows], axis=0)
                batch_targets = soft.take(idx, axis=1)
                # at rate 0 every unit is kept: no mask, and no draw from a
                # stream that feeds nothing else
                mask = None
                if cfg.dropout > 0.0:
                    drawn = sample_dropout_mask(dropout_rng, (len(idx), cfg.hidden_dim), cfg.dropout)
                    mask = np.broadcast_to(drawn, (k,) + drawn.shape)
                tx = features.take(epoch_target[:, rows], axis=0) if uses_domain else None
                trace = forward(model_cfg, stacked, x, mask=mask, target=tx)
                kl = kl_loss(trace.log_probs, batch_targets, log=True)
                l1 = l1_penalty(stacked.adj, cfg.alpha)

                domain, dom = None, no_domain
                if uses_domain:
                    beta = float(grl_beta(done_batches / total_batches))
                    domain = domain_forward(stacked, trace, domain_level)
                    lp, n_src = domain.log_probs, len(idx)  # source rows first
                    dom = domain_loss(lp[:, :n_src], lp[:, n_src:], log=True, per_model=True)

                finite = np.isfinite(kl + l1 + dom)
                if not finite.all():
                    i = np.flatnonzero(~finite)[0]
                    raise DivergenceError(
                        f"{prefixes[i]}non-finite loss at epoch {epoch}, batch {b} "
                        f"(kl={kl[i]}, l1={l1[i]}, domain={dom[i]})"
                    )
                directions = step_directions(
                    model_cfg, stacked, trace, batch_targets, cfg.alpha, domain, beta
                )
                adam_update(state, stacked, directions.flat, prefixes)
                kl_sum += kl
                l1_sum += l1
                dom_sum += dom
                done_batches += 1
        for i, (job, params) in enumerate(zip(jobs, models)):
            train_acc = float((predict(model_cfg, params, features, rows=job.rows) == job.labels).mean())
            histories[i].append(
                {
                    "epoch": epoch,
                    "kl_term": float(kl_sum[i]),
                    "l1_term": float(l1_sum[i]),
                    "domain_term": float(dom_sum[i]),
                    "total": float(kl_sum[i] + l1_sum[i] + dom_sum[i]),
                    "train_accuracy": train_acc,
                    "beta": beta,
                }
            )

    return [
        TrainResult(
            cfg=cfg,
            model_cfg=model_cfg,
            params=params,
            history=history,
            channel_names=channel_names,
            global_pairs=global_pairs,
        )
        for params, history in zip(models, histories)
    ]
