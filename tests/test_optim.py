"""Adam stepping, decay scope, divergence detection, and the parameter vector."""
import dataclasses

import numpy as np
import pytest

from eegraph.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from eegraph.errors import ConfigError, DivergenceError
from eegraph.gradients import l1_subgradient
from eegraph.graph import SymmetricAdjacency
from eegraph.model import init_params
from eegraph.optim import AdamConfig, AdamState, adam_update
from eegraph.params import TENSOR_ORDER, GradientSet, ModelConfig, ParamSet

CFG = ModelConfig(n_channels=4, in_dim=3, hidden_dim=3, n_classes=2, steps=1)


def fresh(seed=0, domain_head=True):
    rng = np.random.default_rng(seed)
    full = rng.uniform(0.3, 1.0, size=(4, 4))
    full = (full + full.T) / 2
    np.fill_diagonal(full, 1.0)
    params = init_params(
        CFG, None, seed, domain_head=domain_head, adj=SymmetricAdjacency.from_full(full)
    )
    return params


def stack(models, domain_head=True):
    """One set whose (k, P) vector holds the models' vectors as rows."""
    return ParamSet.from_flat(np.stack([m.flat for m in models]), CFG, domain_head)


def zero_directions(params):
    return GradientSet(**{name: np.zeros_like(t) for name, t in params.tensors().items()})


def grad_like(params, fill=0.0, rng=None):
    g = zero_directions(params)
    for arr in g.tensors().values():
        if rng is not None:
            arr += rng.normal(size=arr.shape)
        else:
            arr += fill
    return g


def one_step(state, params, directions):
    """The one-model Adam step along the directions' vector."""
    adam_update(state, params, directions.flat)


def test_config_validation():
    with pytest.raises(ConfigError):
        AdamConfig(lr=0.0)
    with pytest.raises(ConfigError):
        AdamConfig(beta1=1.0)
    with pytest.raises(ConfigError):
        AdamConfig(beta2=-0.1)
    with pytest.raises(ConfigError):
        AdamConfig(weight_decay=-1e-9)
    AdamConfig(beta1=0.0, beta2=0.0, eps=0.0)


def test_state_tracks_every_tensor():
    params = fresh()
    state = AdamState.for_params(params)
    for moments in (state.m, state.v):
        assert moments.shape == params.flat.shape and not moments.any()
        assert not np.shares_memory(moments, params.flat)
    assert state.t == 0
    no_dom = fresh(domain_head=False)
    assert AdamState.for_params(no_dom).m.shape == no_dom.flat.shape


def test_sign_descent_mode():
    # zero moments and zero eps reduce the update to lr * sign(direction)
    params = fresh(1)
    before = {k: v.copy() for k, v in params.tensors().items()}
    state = AdamState.for_params(params, AdamConfig(lr=0.05, beta1=0.0, beta2=0.0, eps=0.0))
    rng = np.random.default_rng(2)
    g = grad_like(params, rng=rng)
    one_step(state, params, g)
    for name, arr in params.tensors().items():
        assert np.allclose(arr, before[name] - 0.05 * np.sign(g.tensors()[name]), atol=1e-12)


def test_first_step_scalar_value():
    params = fresh(3)
    cfg = AdamConfig(lr=0.01)
    state = AdamState.for_params(params, cfg)
    g = grad_like(params, fill=0.0)
    g.w_feat[0, 0] = 2.0
    before = params.w_feat[0, 0]
    one_step(state, params, g)
    # bias correction makes the first step lr * g / (|g| + eps)
    expect = before - cfg.lr * 2.0 / (2.0 + cfg.eps)
    assert params.w_feat[0, 0] == pytest.approx(expect, rel=1e-12)
    assert state.t == 1


def test_moment_recursion_two_steps():
    params = fresh(4)
    cfg = AdamConfig(lr=0.1, beta1=0.9, beta2=0.99, eps=1e-8)
    state = AdamState.for_params(params, cfg)
    g1, g2 = 1.0, -0.5
    x = params.w_class[0, 0]
    for g in (g1, g2):
        d = grad_like(params, fill=0.0)
        d.w_class[0, 0] = g
        one_step(state, params, d)
    m = 0.9 * (0.1 * g1) + 0.1 * g2
    v = 0.99 * (0.01 * g1 * g1) + 0.01 * g2 * g2
    m1_hat = (0.1 * g1) / (1 - 0.9)
    v1_hat = (0.01 * g1 * g1) / (1 - 0.99)
    x -= cfg.lr * m1_hat / (np.sqrt(v1_hat) + cfg.eps)
    x -= cfg.lr * (m / (1 - 0.9**2)) / (np.sqrt(v / (1 - 0.99**2)) + cfg.eps)
    assert params.w_class[0, 0] == pytest.approx(x, rel=1e-12)


def test_weight_decay_skips_adjacency():
    params = fresh(5)
    before = {k: v.copy() for k, v in params.tensors().items()}
    cfg = AdamConfig(lr=0.1, weight_decay=0.5)
    state = AdamState.for_params(params, cfg)
    one_step(state, params, grad_like(params, fill=0.0))
    # zero directions: moments stay zero, so only the decay moves anything
    assert np.array_equal(params.adj.upper, before["adj"])
    for name in ("w_feat", "w_class", "w_dom"):
        assert np.allclose(params.tensors()[name], before[name] * (1 - 0.1 * 0.5), atol=1e-15)


def test_decay_applies_to_prestep_value():
    params = fresh(6)
    cfg = AdamConfig(lr=0.1, weight_decay=0.2, beta1=0.0, beta2=0.0, eps=0.0)
    state = AdamState.for_params(params, cfg)
    before = params.w_feat[0, 0]
    d = grad_like(params, fill=0.0)
    d.w_feat[0, 0] = 3.0
    one_step(state, params, d)
    assert params.w_feat[0, 0] == pytest.approx(before * (1 - 0.1 * 0.2) - 0.1, rel=1e-12)


def test_quadratic_convergence():
    params = fresh(7)
    target = 0.0
    state = AdamState.for_params(params, AdamConfig(lr=0.05))
    for _ in range(400):
        d = grad_like(params, fill=0.0)
        d.w_feat[:] = 2.0 * (params.w_feat - target)
        one_step(state, params, d)
    assert np.abs(params.w_feat).max() < 1e-3


def test_l1_direction_shrinks_adjacency_monotonically():
    # pure sparsity pressure pulls every weight toward zero without crossing
    params = fresh(8, domain_head=False)
    state = AdamState.for_params(params, AdamConfig(lr=1e-3))
    prev = np.abs(params.adj.upper).copy()
    signs = np.sign(params.adj.upper).copy()
    for _ in range(100):
        d = zero_directions(params)
        d.adj[:] = l1_subgradient(params.adj, 0.1)
        one_step(state, params, d)
        mag = np.abs(params.adj.upper)
        assert (mag <= prev + 1e-15).all()
        assert (np.sign(params.adj.upper) == signs).all()
        prev = mag


def test_nonfinite_direction_raises_and_names_tensor():
    params = fresh(9)
    state = AdamState.for_params(params)
    d = grad_like(params, fill=0.0)
    d.w_dom[0, 0] = np.nan
    with pytest.raises(DivergenceError) as exc:
        one_step(state, params, d)
    assert "w_dom" in str(exc.value)
    assert state.t == 0


def test_nonfinite_check_runs_before_any_mutation():
    params = fresh(10)
    before = {k: v.copy() for k, v in params.tensors().items()}
    state = AdamState.for_params(params)
    d = grad_like(params, fill=1.0)
    d.w_dom[0, 0] = np.inf
    with pytest.raises(DivergenceError):
        one_step(state, params, d)
    for name, arr in params.tensors().items():
        assert np.array_equal(arr, before[name])


def test_second_moment_overflow_raises_before_any_mutation():
    # finite directions whose square overflows the second moment
    stacked = stack([fresh(40 + i) for i in range(3)])
    state = AdamState.for_params(stacked)
    before = stacked.flat.copy()
    dirs = [grad_like(fresh(40 + i), fill=1.0) for i in range(3)]
    dirs[2].w_feat[1, 1] = 1e160
    dirs[2].w_class[0, 0] = -1e160
    with pytest.raises(DivergenceError, match="^c: Adam's second moment overflows .*'w_feat'$"):
        adam_update(state, stacked, stacked_directions(dirs).flat, ["a: ", "b: ", "c: "])
    assert state.t == 0 and not state.m.any() and not state.v.any()
    assert np.array_equal(stacked.flat, before)


def test_missing_direction_rejected():
    params = fresh(11, domain_head=True)
    state = AdamState.for_params(params)
    d = zero_directions(fresh(11, domain_head=False))  # no w_dom direction
    with pytest.raises(ConfigError):
        one_step(state, params, d)


def assert_views_of_flat(params):
    """The set's tensors (a ParamSet's or a GradientSet's) are views into its `flat`."""
    tensors = params.tensors()
    assert list(tensors) == [name for name in TENSOR_ORDER if name in tensors]
    assert sum(t.size for t in tensors.values()) == params.flat.size
    for name, t in tensors.items():
        assert np.shares_memory(t, params.flat), name


def test_tensors_are_views_into_one_vector(tmp_path):
    adj = SymmetricAdjacency.from_full(np.eye(4))
    made = init_params(CFG, None, 0, domain_head=True, adj=adj)
    assert not np.shares_memory(made.adj.upper, adj.upper)
    save_checkpoint(tmp_path / "p.ckpt", Checkpoint(cfg=CFG, params=made))
    loaded = load_checkpoint(tmp_path / "p.ckpt").params
    replaced = dataclasses.replace(made, w_class=made.w_class * 2.0)
    no_dom = fresh(domain_head=False)
    group = [made, loaded, replaced, no_dom]
    for params in group:
        assert_views_of_flat(params)
    for i, a in enumerate(group):
        for b in group[i + 1 :]:
            assert not np.shares_memory(a.flat, b.flat)
    # moving the vector moves every field, and the caller's adjacency stays put
    made.flat[...] += 1.0
    assert np.array_equal(made.adj.upper, adj.upper + 1.0)
    assert np.array_equal(adj.upper, SymmetricAdjacency.from_full(np.eye(4)).upper)


@pytest.mark.parametrize("domain_head", [True, False])
@pytest.mark.parametrize("k", [None, 3])
def test_directions_are_views_of_one_vector_laid_out_like_the_parameters(domain_head, k):
    # None: one model; 3: a stacked group with a leading model axis
    if k is None:
        params = fresh(50, domain_head=domain_head)
        directions = grad_like(params, rng=np.random.default_rng(51))
    else:
        params = stack([fresh(50 + i, domain_head=domain_head) for i in range(k)], domain_head)
        directions = stacked_directions(
            [grad_like(fresh(50 + i, domain_head=domain_head), rng=np.random.default_rng(i))
             for i in range(k)])
    assert_views_of_flat(directions)
    assert directions.flat.shape == params.flat.shape
    for name, t in directions.tensors().items():
        assert t.shape == params.tensors()[name].shape
        assert np.array_equal(params.views_of(directions.flat)[name], t)


def test_direction_construction_copies_its_tensors():
    params = fresh(52)
    given = {name: np.ones_like(t) for name, t in params.tensors().items()}
    directions = GradientSet(**given)
    directions.flat[:] = 2.0
    for name, t in given.items():
        assert not np.shares_memory(t, directions.flat) and (t == 1.0).all(), name


def test_directions_not_laid_out_like_the_parameters_rejected():
    # directions with a w_dom part for a set without a domain head
    no_dom = fresh(53, domain_head=False)
    state = AdamState.for_params(no_dom)
    with pytest.raises(ConfigError, match="not laid out like the parameters"):
        one_step(state, no_dom, grad_like(fresh(53)))


@pytest.mark.parametrize("cls,field", [
    *[(ParamSet, name) for name in ("flat", *TENSOR_ORDER)],
    *[(GradientSet, name) for name in ("flat", *TENSOR_ORDER)],
    (SymmetricAdjacency, "n"), (SymmetricAdjacency, "upper"),
])
def test_no_field_is_ever_rebound(cls, field):
    # a set's fields view its vector for good: rebinding one is refused,
    # while in-place writes still reach the vector
    params = fresh(54)
    directions = grad_like(params)
    obj, packed, vector = {
        ParamSet: (params, params.adj.upper, params.flat),
        GradientSet: (directions, directions.adj, directions.flat),
        SymmetricAdjacency: (params.adj, params.adj.upper, params.flat),
    }[cls]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, field, getattr(obj, field))
    packed[0] = 7.0
    assert vector[0] == 7.0


@pytest.mark.parametrize("bad", ["no_domain_direction", "one_model", "nan", "inf"])
def test_adam_refuses_bad_directions_before_writing_anything(bad):
    # a domain-head group stepped without a domain trace, one model's
    # directions for a group of three, and a non-finite entry of model "b: "
    stacked = stack([fresh(60 + i) for i in range(3)])
    before = stacked.flat.copy()
    state = AdamState.for_params(stacked)
    dirs = [grad_like(fresh(60 + i), fill=1.0) for i in range(3)]
    if bad == "no_domain_direction":
        g = stacked_directions([grad_like(fresh(60 + i, domain_head=False)) for i in range(3)]).flat
        error, match = ConfigError, "not laid out like the parameters"
    elif bad == "one_model":
        g = dirs[0].flat
        error, match = ConfigError, "not laid out like the parameters"
    else:
        dirs[1].w_class[1, 0] = float(bad)
        dirs[2].adj[0] = np.nan  # a later model
        g = stacked_directions(dirs).flat
        error, match = DivergenceError, "^b: non-finite update direction for tensor 'w_class'$"
    with pytest.raises(error, match=match):
        adam_update(state, stacked, g, ["a: ", "b: ", "c: "])
    assert state.t == 0 and not state.m.any() and not state.v.any()
    assert np.array_equal(stacked.flat, before)


def reference_adam_step(cfg, t, m, v, tensors, dirs):
    """Per-tensor Adam with per-tensor moment dicts, decaying only dense weights."""
    bias1 = 1.0 - cfg.beta1**t
    bias2 = 1.0 - cfg.beta2**t
    for name, p in tensors.items():
        g = dirs[name]
        m[name] *= cfg.beta1
        m[name] += (1.0 - cfg.beta1) * g
        v[name] *= cfg.beta2
        v[name] += (1.0 - cfg.beta2) * g * g
        m_hat = m[name] / bias1
        v_hat = v[name] / bias2
        if cfg.weight_decay > 0.0 and name != "adj":
            p -= cfg.lr * cfg.weight_decay * p
        denom = np.sqrt(v_hat) + cfg.eps
        delta = np.divide(m_hat, denom, out=np.zeros_like(m_hat), where=denom > 0.0)
        p -= cfg.lr * delta


@pytest.mark.parametrize("weight_decay", [0.0, 0.05])
@pytest.mark.parametrize("domain_head", [True, False])
@pytest.mark.parametrize("eps", [1e-8, 0.0])
def test_vector_step_matches_per_tensor_loop_bitwise(weight_decay, domain_head, eps):
    cfg = AdamConfig(lr=0.02, eps=eps, weight_decay=weight_decay)
    params = fresh(12, domain_head=domain_head)
    ref = {k: t.copy() for k, t in params.tensors().items()}
    m = {k: np.zeros_like(t) for k, t in ref.items()}
    v = {k: np.zeros_like(t) for k, t in ref.items()}
    state = AdamState.for_params(params, cfg)
    rng = np.random.default_rng(13)
    for t in range(1, 26):
        d = grad_like(params, rng=rng)
        d.w_feat[0, 0] = 0.0  # never touched: 0/0 when eps is 0
        one_step(state, params, d)
        reference_adam_step(cfg, t, m, v, ref, d.tensors())
        for name, want in ref.items():
            assert np.array_equal(params.tensors()[name], want), (t, name)
    assert state.t == 25


def stacked_directions(directions):
    """One GradientSet whose tensors stack the models' directions on a leading axis."""
    per_model = [d.tensors() for d in directions]
    return GradientSet(**{name: np.stack([t[name] for t in per_model]) for name in per_model[0]})


@pytest.mark.parametrize("weight_decay", [0.0, 0.05])
@pytest.mark.parametrize("domain_head", [True, False])
@pytest.mark.parametrize("eps", [1e-8, 0.0])
@pytest.mark.parametrize("k", [1, 3, 8])
def test_group_update_rows_match_one_model_steps_bitwise(k, weight_decay, domain_head, eps):
    # the stacked form of the bitwise test above: one update over the (k, P)
    # matrix against k separate one-model steps
    cfg = AdamConfig(lr=0.02, eps=eps, weight_decay=weight_decay)
    singles = [fresh(20 + i, domain_head=domain_head) for i in range(k)]
    stacked = stack([fresh(20 + i, domain_head=domain_head) for i in range(k)], domain_head)
    single_states = [AdamState.for_params(p, cfg) for p in singles]
    state = AdamState.for_params(stacked, cfg)
    assert state.m.shape == stacked.flat.shape == (k, singles[0].flat.size)
    rng = np.random.default_rng(14)
    for t in range(1, 26):
        dirs = [grad_like(p, rng=rng) for p in singles]
        for d in dirs:
            d.w_feat[0, 0] = 0.0  # never touched: 0/0 when eps is 0
        g = stacked_directions(dirs).flat
        assert g.shape == stacked.flat.shape
        adam_update(state, stacked, g)
        for i, (p, s, d) in enumerate(zip(singles, single_states, dirs)):
            one_step(s, p, d)
            assert np.array_equal(stacked.flat[i], p.flat), (t, i)
    assert state.t == 25


def test_group_check_names_the_first_bad_model_and_its_first_bad_tensor():
    stacked = stack([fresh(30 + i) for i in range(3)])
    before = stacked.flat.copy()
    dirs = [grad_like(fresh(30 + i), fill=1.0) for i in range(3)]
    dirs[1].w_class[0, 1] = np.nan
    dirs[1].w_dom[1, 0] = np.inf   # later in TENSOR_ORDER than w_class
    dirs[2].adj[0] = np.nan        # a later model
    state = AdamState.for_params(stacked)
    with pytest.raises(DivergenceError, match="^fold 1: .*'w_class'$"):
        adam_update(state, stacked, stacked_directions(dirs).flat,
                    ["fold 0: ", "fold 1: ", "fold 2: "])
    assert state.t == 0 and np.array_equal(stacked.flat, before)
