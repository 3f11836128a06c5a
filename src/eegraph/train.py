"""The training loop: batching, dual objectives, reversal schedule, Adam.

Each batch runs one forward from the current adjacency: the labeled
source samples and, when enabled, a paired target batch stacked behind
them. The classifier reads the source rows and one domain-head call reads
all rows; one fused backward gives the update directions of both
objectives under the reversal schedule, and one Adam update applies them.
Soft-label targets are rows of the scheme's table, gathered once per
training set; target batches are gathered from the target features
through the row indices `resample_target` draws once per epoch.
Models whose training sets have the same size train in lockstep
(`train_lockstep`): their parameters are the rows of one (k, P) matrix,
and each step runs one forward, one backward and one Adam update over a
leading model axis. `train` is the one-model case.
Runs are bit-reproducible, and a model's result does not depend on the
group it trained in: every random draw comes from a child stream of the
run seed, one set per model, and the same children are spawned whether
or not the domain path is active.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import FeatureDataset, UnlabeledSet, resample_target
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
from .losses import convert_labels, domain_loss, grl_beta, kl_loss, l1_penalty
from .model import (
    EVAL_CHUNK_ELEMENTS,
    domain_forward,
    forward,
    init_params,
    predict,
    sample_dropout_mask,
)
from .optim import AdamConfig, AdamState, adam_update, flat_directions
from .params import ModelConfig, ParamSet


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


def make_model_config(cfg: TrainConfig, ds: FeatureDataset) -> ModelConfig:
    return ModelConfig(
        n_channels=ds.n_channels,
        in_dim=ds.n_bands,
        hidden_dim=cfg.hidden_dim,
        n_classes=ds.n_classes,
        steps=cfg.steps,
        dropout=cfg.dropout,
    )


def train(
    train_ds: FeatureDataset,
    target: UnlabeledSet | FeatureDataset | None,
    cfg: TrainConfig,
    *,
    layout: ElectrodeLayout | None = None,
    global_pairs: GlobalPairSet | None = None,
) -> TrainResult:
    """Run the full optimization and return parameters plus history.

    `target` supplies unlabeled target-domain features for the domain
    path; of a labeled dataset passed here only the features are read.
    """
    return train_lockstep([(train_ds, target)], cfg, layout=layout, global_pairs=global_pairs)[0]


def train_lockstep(
    jobs: list[tuple[FeatureDataset, UnlabeledSet | FeatureDataset | None]],
    cfg: TrainConfig,
    *,
    layout: ElectrodeLayout | None = None,
    global_pairs: GlobalPairSet | None = None,
    names: list[str] | None = None,
) -> list[TrainResult]:
    """Train one model per (train set, target) job; results in job order.

    Jobs whose training sets have the same shape train in lockstep, in
    groups of at most `_group_size` models. Each model's result is
    bitwise that of `train` on its own job. `names` label the models in a
    `DivergenceError` (e.g. the fold each one belongs to).
    """
    by_shape: dict[tuple, list[int]] = {}
    for i, (ds, _) in enumerate(jobs):
        by_shape.setdefault((ds.features.shape, ds.n_classes), []).append(i)
    results: list[TrainResult] = [None] * len(jobs)
    for same in by_shape.values():
        cap = _group_size(cfg, jobs[same[0]][0].n_channels)
        for j in range(0, len(same), cap):
            group = same[j : j + cap]
            trained = _train_group(
                [jobs[i] for i in group], cfg, layout, global_pairs,
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
    jobs: list[tuple[FeatureDataset, UnlabeledSet | FeatureDataset | None]],
    cfg: TrainConfig,
    layout: ElectrodeLayout | None,
    global_pairs: GlobalPairSet | None,
    prefixes: list[str],
) -> list[TrainResult]:
    """Train the models of jobs with training sets of one shape, all steps in lockstep."""
    train_sets = [ds for ds, _ in jobs]
    first = train_sets[0]
    if first.n_samples == 0:
        raise ConfigError("training set is empty")
    # target feature arrays, read only through per-epoch resampled row indices
    targets = []
    if cfg.uses_domain:
        for train_ds, target in jobs:
            if target is None:
                raise ConfigError("domain adaptation is on but no target data was supplied")
            if target.features.shape[1:] != train_ds.features.shape[1:]:
                raise ConfigError(
                    f"target feature shape {target.features.shape[1:]} does not match "
                    f"source {train_ds.features.shape[1:]}"
                )
            targets.append(target.features)
    if layout is None:
        layout, auto_pairs = default_layout_for(first.n_channels)
        if global_pairs is None:
            global_pairs = auto_pairs
    if layout.n != first.n_channels:
        raise ConfigError(f"layout has {layout.n} electrodes, data has {first.n_channels} channels")

    model_cfg = make_model_config(cfg, first)
    delta = resolve_delta(layout, cfg.delta)
    adj0 = initial_adjacency(layout, global_pairs, delta)

    # Child streams are always spawned in the same pattern so toggling the
    # domain path cannot shift any other random draw; each model gets its own.
    models, shuffle_rngs, dropout_rngs, target_epoch_ss = [], [], [], []
    for _ in jobs:
        init_ss, shuffle_ss, dropout_ss, target_ss = np.random.SeedSequence(cfg.seed).spawn(4)
        models.append(init_params(
            model_cfg, layout, init_ss, domain_head=cfg.uses_domain, adj=adj0
        ))
        shuffle_rngs.append(np.random.default_rng(shuffle_ss))
        dropout_rngs.append(np.random.default_rng(dropout_ss))
        target_epoch_ss.append(target_ss.spawn(cfg.epochs))
    stacked = ParamSet.stack(models)
    state = AdamState.for_params(stacked, cfg.adam())

    n = first.n_samples
    epsilon = cfg.epsilon if cfg.emotion_dl else 0.0
    targets_all = np.stack([convert_labels(ds.labels, ds.label_scheme, epsilon) for ds in train_sets])
    model_rows = np.arange(len(jobs))[:, None]
    batches_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    total_batches = cfg.epochs * batches_per_epoch

    histories = [[] for _ in jobs]
    done_batches = 0
    for epoch in range(cfg.epochs):
        orders = np.stack([rng.permutation(n) for rng in shuffle_rngs])
        epoch_rows = [resample_target(n, len(t), ss[epoch])
                      for t, ss in zip(targets, target_epoch_ss)]
        kl_sum, l1_sum, dom_sum = (np.zeros(len(jobs)) for _ in range(3))
        beta = 0.0
        for b in range(batches_per_epoch):
            rows = slice(b * cfg.batch_size, (b + 1) * cfg.batch_size)
            idx = orders[:, rows]
            x = np.stack([ds.features[i] for ds, i in zip(train_sets, idx)])
            batch_targets = targets_all[model_rows, idx]
            # at rate 0 every unit is kept: no mask, and no draw from a
            # stream that feeds nothing else
            mask = None
            if cfg.dropout > 0.0:
                shape = (idx.shape[1], cfg.hidden_dim)
                mask = np.stack([sample_dropout_mask(rng, shape, cfg.dropout) for rng in dropout_rngs])
            tx = None
            if cfg.uses_domain:
                tx = np.stack([t[r[rows]] for t, r in zip(targets, epoch_rows)])
            # A non-finite feature makes the forward and the backward meet
            # inf - inf; the loss check reports it, or the finite check of
            # flat_directions when the activations it poisons still leave
            # the loss finite.
            with np.errstate(invalid="ignore"):
                trace = forward(model_cfg, stacked, x, mask=mask, target=tx)
                kl = kl_loss(trace.log_probs, batch_targets, log=True)
                l1 = l1_penalty(stacked.adj, cfg.alpha)

                dom = np.zeros(len(jobs))
                domain = None
                if cfg.uses_domain:
                    beta = float(grl_beta(done_batches / total_batches))
                    domain = domain_forward(stacked, trace, cfg.domain_level)
                    dom_src, dom_tgt = np.split(
                        domain.log_probs, [idx.shape[1]], axis=domain.row_axis
                    )
                    dom = domain_loss(dom_src, dom_tgt, log=True, per_model=True)

                bad = np.flatnonzero(~np.isfinite(kl + l1 + dom))
                if bad.size:
                    i = bad[0]
                    raise DivergenceError(
                        f"{prefixes[i]}non-finite loss at epoch {epoch}, batch {b} "
                        f"(kl={kl[i]}, l1={l1[i]}, domain={dom[i]})"
                    )
                directions = step_directions(
                    model_cfg, stacked, trace, batch_targets, cfg.alpha, domain, beta
                )
            adam_update(state, stacked, flat_directions(stacked, directions, prefixes))
            kl_sum += kl
            l1_sum += l1
            dom_sum += dom
            done_batches += 1
        for i, (ds, params) in enumerate(zip(train_sets, models)):
            train_acc = float((predict(model_cfg, params, ds.features) == ds.labels).mean())
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
            channel_names=list(layout.names),
            global_pairs=list(global_pairs.pairs) if global_pairs is not None else None,
        )
        for params, history in zip(models, histories)
    ]
