"""The training loop: batching, dual objectives, reversal schedule, Adam.

Each batch runs one forward from the current adjacency: the labeled
source samples and, when enabled, a paired target batch stacked behind
them. The classifier reads the source rows and one domain-head call reads
all rows; one fused backward gives the update directions of both
objectives under the reversal schedule, and one Adam step applies them.
Runs are bit-reproducible: every random draw comes from a
child stream of the run seed, and the same children are spawned whether
or not the domain path is active.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import FeatureDataset, UnlabeledSet, resample_target
from .electrodes import (
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
from .model import domain_forward, forward, init_params, predict, sample_dropout_mask
from .optim import AdamConfig, AdamState, adam_step
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
    dist = pairwise_distances(layout.positions)
    if delta is not None:
        return delta
    conventional = 5.0
    frac = sparsity_fraction(init_local_adjacency(dist, conventional))
    if 0.15 <= frac <= 0.30:
        return conventional
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
    path; a labeled dataset passed here is stripped to features first and
    its labels are never read.
    """
    if cfg.uses_domain:
        if target is None:
            raise ConfigError("domain adaptation is on but no target data was supplied")
        if isinstance(target, FeatureDataset):
            target = target.unlabeled()
        if target.features.shape[1:] != train_ds.features.shape[1:]:
            raise ConfigError(
                f"target feature shape {target.features.shape[1:]} does not match "
                f"source {train_ds.features.shape[1:]}"
            )
    if layout is None:
        layout, auto_pairs = default_layout_for(train_ds.n_channels)
        if global_pairs is None:
            global_pairs = auto_pairs
    if layout.n != train_ds.n_channels:
        raise ConfigError(f"layout has {layout.n} electrodes, data has {train_ds.n_channels} channels")

    model_cfg = make_model_config(cfg, train_ds)
    delta = resolve_delta(layout, cfg.delta)
    adj0 = initial_adjacency(layout, global_pairs, delta)

    # Child streams are always spawned in the same pattern so toggling the
    # domain path cannot shift any other random draw.
    root = np.random.SeedSequence(cfg.seed)
    init_ss, shuffle_ss, dropout_ss, target_ss = root.spawn(4)
    params = init_params(
        model_cfg, layout, init_ss, domain_head=cfg.uses_domain, adj=adj0
    )
    state = AdamState.for_params(params, cfg.adam())
    shuffle_rng = np.random.default_rng(shuffle_ss)
    dropout_rng = np.random.default_rng(dropout_ss)
    target_epoch_ss = target_ss.spawn(cfg.epochs)

    n = train_ds.n_samples
    epsilon = cfg.epsilon if cfg.emotion_dl else 0.0
    targets_all = convert_labels(train_ds.labels, train_ds.label_scheme, epsilon)
    batches_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    total_batches = cfg.epochs * batches_per_epoch

    history = []
    done_batches = 0
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        epoch_target = None
        if cfg.uses_domain:
            epoch_target = resample_target(n, target, target_epoch_ss[epoch])
        kl_sum = l1_sum = dom_sum = 0.0
        beta = 0.0
        for b in range(batches_per_epoch):
            rows = slice(b * cfg.batch_size, (b + 1) * cfg.batch_size)
            idx = order[rows]
            x = train_ds.features[idx]
            targets = targets_all[idx]
            mask = sample_dropout_mask(dropout_rng, (len(idx), cfg.hidden_dim), cfg.dropout)
            tx = epoch_target.features[rows] if cfg.uses_domain else None
            trace = forward(model_cfg, params, x, mask=mask, target=tx)
            kl = kl_loss(trace.probs, targets)
            l1 = l1_penalty(params.adj, cfg.alpha)

            dom = 0.0
            domain = None
            if cfg.uses_domain:
                beta = float(grl_beta(done_batches / total_batches))
                domain = domain_forward(params, trace, cfg.domain_level)
                dom = domain_loss(domain.probs[: len(idx)], domain.probs[len(idx) :])

            if not np.isfinite(kl + l1 + dom):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}, batch {b} "
                    f"(kl={kl}, l1={l1}, domain={dom})"
                )
            # Non-finite activations can still leave the loss finite; the
            # directions they poison are reported by adam_step's precheck.
            with np.errstate(invalid="ignore"):
                directions = step_directions(
                    model_cfg, params, trace, targets, cfg.alpha, domain, beta
                )
            params, state = adam_step(state, params, directions)
            kl_sum += kl
            l1_sum += l1
            dom_sum += dom
            done_batches += 1
        train_acc = float(
            (predict(model_cfg, params, train_ds.features) == train_ds.labels).mean()
        )
        history.append(
            {
                "epoch": epoch,
                "kl_term": kl_sum,
                "l1_term": l1_sum,
                "domain_term": dom_sum,
                "total": kl_sum + l1_sum + dom_sum,
                "train_accuracy": train_acc,
                "beta": beta,
            }
        )

    return TrainResult(
        cfg=cfg,
        model_cfg=model_cfg,
        params=params,
        history=history,
        channel_names=list(layout.names),
        global_pairs=list(global_pairs.pairs) if global_pairs is not None else None,
    )
