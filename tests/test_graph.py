"""Adjacency storage, degree normalization, and propagation."""
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from eegraph.errors import CorruptBundleError, IsolatedNodeError
from eegraph.graph import (
    SymmetricAdjacency,
    degree,
    fold_full_gradient,
    n_upper,
    normalized_propagator,
    pack_upper,
    propagate,
    unpack_upper,
    upper_indices,
)


def random_symmetric(rng, n):
    m = rng.normal(size=(n, n))
    m = m + m.T
    np.fill_diagonal(m, 1.0)
    return m


def test_parameter_count():
    for n in (1, 2, 5, 62):
        adj = SymmetricAdjacency.identity(n)
        assert adj.upper.shape == (n * (n + 1) // 2,)
        assert n_upper(n) == n * (n + 1) // 2


def test_pack_unpack_round_trip_bitwise():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        upper = rng.normal(size=n_upper(n))
        again = pack_upper(unpack_upper(upper, n))
        assert np.array_equal(again, upper)


def test_unpack_is_exactly_symmetric():
    rng = np.random.default_rng(3)
    full = unpack_upper(rng.normal(size=n_upper(6)), 6)
    assert np.array_equal(full, full.T)


def test_from_full_rejects_asymmetric():
    with pytest.raises(ValueError):
        SymmetricAdjacency.from_full(np.array([[1.0, 0.2], [0.3, 1.0]]))


def test_degree_identity():
    assert np.array_equal(degree(SymmetricAdjacency.identity(4)), np.ones(4))


def test_degree_sums_absolute_values():
    neg = SymmetricAdjacency.from_full(np.array([[1.0, -0.5], [-0.5, 1.0]]))
    pos = SymmetricAdjacency.from_full(np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert np.allclose(degree(neg), [1.5, 1.5])
    assert np.allclose(degree(pos), [1.5, 1.5])


def test_isolated_node_rejected():
    dead = SymmetricAdjacency.from_full(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(IsolatedNodeError):
        degree(dead)


def test_normalize_identity():
    s = normalized_propagator(SymmetricAdjacency.identity(5))
    assert np.array_equal(s, np.eye(5))


def test_normalize_two_node_values():
    s = normalized_propagator(SymmetricAdjacency.from_full(np.array([[1.0, 0.5], [0.5, 1.0]])))
    assert np.allclose(s, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]])


def test_normalize_preserves_sign():
    s = normalized_propagator(SymmetricAdjacency.from_full(np.array([[1.0, -0.5], [-0.5, 1.0]])))
    assert np.allclose(s[0, 1], -1 / 3)
    assert np.allclose(s[1, 0], -1 / 3)


def test_propagate_zero_steps_is_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 2))
    s = rng.normal(size=(3, 3))
    assert np.array_equal(propagate(s, x, 0), x)


def test_propagate_two_step_hand_value():
    s = np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
    x = np.array([[1.0], [0.0]])
    assert np.allclose(propagate(s, x, 2), [[5 / 9], [4 / 9]])


def nodewise_oracle(s, x, steps):
    # literal per-node accumulation, no matrix products
    h = x.copy()
    n = s.shape[0]
    for _ in range(steps):
        out = np.zeros_like(h)
        for i in range(n):
            for j in range(n):
                out[i] += s[i, j] * h[j]
        h = out
    return h


def test_propagate_matches_nodewise_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 5))
        steps = int(rng.integers(0, 4))
        s = normalized_propagator(SymmetricAdjacency.from_full(random_symmetric(rng, n)))
        x = rng.normal(size=(n, d))
        assert np.max(np.abs(propagate(s, x, steps) - nodewise_oracle(s, x, steps))) < 1e-10


def test_propagate_identity_for_all_steps():
    x = np.random.default_rng(5).normal(size=(4, 3))
    s = normalized_propagator(SymmetricAdjacency.identity(4))
    for steps in range(4):
        assert np.array_equal(propagate(s, x, steps), x)


def test_propagate_batched_matches_single():
    rng = np.random.default_rng(9)
    s = normalized_propagator(SymmetricAdjacency.from_full(random_symmetric(rng, 5)))
    xs = rng.normal(size=(3, 5, 2))
    batched = propagate(s, xs, 2)
    for b in range(3):
        assert np.allclose(batched[b], propagate(s, xs[b], 2))


def test_propagate_rejects_negative_steps():
    with pytest.raises(ValueError):
        propagate(np.eye(2), np.zeros((2, 1)), -1)


def test_fold_assigns_mirrored_positions_to_one_parameter():
    # the packed off-diagonal parameter backs both (i,j) and (j,i); its
    # gradient must be the sum of what the full view assigns to each
    rng = np.random.default_rng(7)
    n = 5
    g_full = rng.normal(size=(n, n))
    folded = fold_full_gradient(g_full)
    k = 0
    for i in range(n):
        for j in range(i, n):
            if i == j:
                assert folded[k] == g_full[i, i]
            else:
                assert folded[k] == g_full[i, j] + g_full[j, i]
            k += 1


def scatter_unpack(upper, n):
    """Unpack by writing each packed entry to its two mirrored positions."""
    rows, cols = upper_indices(n)
    full = np.zeros(upper.shape[:-1] + (n, n))
    full[..., rows, cols] = upper
    full[..., cols, rows] = upper
    return full


def scatter_fold(g_full):
    """Fold by 2-D indexing: (i, j) plus (j, i), then the diagonal alone."""
    rows, cols = upper_indices(g_full.shape[-1])
    g = g_full[..., rows, cols] + g_full[..., cols, rows]
    diag = rows == cols
    g[..., diag] = g_full[..., rows[diag], cols[diag]]
    return g


@settings(derandomize=True, deadline=None, max_examples=60)
@given(n=st.integers(1, 62), lead=st.sampled_from([(), (1,), (3,), (2, 2)]),
       seed=st.integers(0, 2**16))
def test_gather_unpack_and_fold_are_bitwise_the_scatter_forms(n, lead, seed):
    rng = np.random.default_rng(seed)
    upper = rng.normal(size=lead + (n_upper(n),))
    assert unpack_upper(upper, n).tobytes() == scatter_unpack(upper, n).tobytes()
    g_full = rng.normal(size=lead + (n, n))
    # signed zeros and non-finite entries pass through as the scatter form passes them
    g_full.reshape(-1)[rng.integers(0, g_full.size, size=3)] = [-0.0, np.inf, np.nan]
    assert fold_full_gradient(g_full).tobytes() == scatter_fold(g_full).tobytes()


def test_upper_gradient_matches_finite_difference_of_full_view():
    # perturbing one packed parameter moves both mirrored entries
    rng = np.random.default_rng(13)
    n = 4
    w = rng.normal(size=(n, n))

    def loss_of(upper):
        return float((w * unpack_upper(upper, n)).sum())

    upper = rng.normal(size=n_upper(n))
    analytic = fold_full_gradient(w)
    h = 1e-6
    for k in range(upper.size):
        up, down = upper.copy(), upper.copy()
        up[k] += h
        down[k] -= h
        fd = (loss_of(up) - loss_of(down)) / (2 * h)
        assert abs(fd - analytic[k]) < 1e-6


@pytest.mark.parametrize("n", [1, 4, 62])
def test_diagonal_reads_packed_entries(n):
    adj = SymmetricAdjacency.from_full(random_symmetric(np.random.default_rng(n), n))
    adj.upper *= np.random.default_rng(n + 1).uniform(0.5, 2.0, size=adj.upper.shape)
    assert np.array_equal(adj.diagonal(), adj.full().diagonal())


def test_bytes_round_trip():
    rng = np.random.default_rng(21)
    adj = SymmetricAdjacency(6, rng.normal(size=n_upper(6)))
    parsed, used = SymmetricAdjacency.from_bytes(adj.to_bytes())
    assert used == len(adj.to_bytes())
    assert parsed.n == 6
    assert np.array_equal(parsed.upper, adj.upper)


def test_bytes_truncation_detected():
    blob = SymmetricAdjacency.identity(4).to_bytes()
    with pytest.raises(CorruptBundleError):
        SymmetricAdjacency.from_bytes(blob[:2])
    with pytest.raises(CorruptBundleError):
        SymmetricAdjacency.from_bytes(blob[:-1])


def test_wrong_parameter_count_rejected():
    with pytest.raises(ValueError):
        SymmetricAdjacency(3, np.zeros(5))
