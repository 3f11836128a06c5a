"""Layout parsing, distances, and geometric adjacency initialization."""
import numpy as np
import pytest

from eegraph.electrodes import (
    ElectrodeLayout,
    GlobalPairSet,
    builtin_layout,
    calibrate_delta,
    default_global_pairs,
    init_local_adjacency,
    initial_adjacency,
    load_global_pairs,
    load_layout,
    pairwise_distances,
    ring_layout,
    sparsity_fraction,
)
from eegraph.errors import ConfigError, LayoutError

DEFAULT_PAIRS = [
    ("FP1", "FP2"), ("AF3", "AF4"), ("F5", "F6"), ("FC5", "FC6"),
    ("C5", "C6"), ("CP5", "CP6"), ("P5", "P6"), ("PO5", "PO6"), ("O1", "O2"),
]


def test_three_four_five_triangle():
    d = pairwise_distances(np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]]))
    assert d[0, 1] == 5.0
    assert d[1, 0] == 5.0


def test_zero_diagonal():
    lay = ring_layout(7)
    d = pairwise_distances(lay.positions)
    assert np.array_equal(np.diag(d), np.zeros(7))
    off = d[~np.eye(7, dtype=bool)]
    assert off.min() > 0


def test_builtin_layout_shape_and_names():
    lay = builtin_layout()
    assert lay.n == 62
    assert len(set(lay.names)) == 62
    for a, b in DEFAULT_PAIRS:
        lay.index(a)
        lay.index(b)


def test_builtin_occipital_pair_distance():
    # the two rows differ only in x: |-2.9389 - 2.9389| = 5.8778
    lay = builtin_layout()
    d = pairwise_distances(lay.positions)
    assert d[lay.index("O1"), lay.index("O2")] == pytest.approx(5.8778, abs=1e-10)


def test_local_init_boundary_of_clamp():
    d = np.array([[0.0, 2.0], [2.0, 0.0]])
    adj = init_local_adjacency(d, 4.0)
    assert adj[0, 1] == 1.0
    closer = init_local_adjacency(d / 2, 4.0)
    assert closer[0, 1] == 1.0


def test_local_init_inverse_square():
    d = np.array([[0.0, 10.0], [10.0, 0.0]])
    adj = init_local_adjacency(d, 5.0)
    assert adj[0, 1] == pytest.approx(0.05)


def test_local_init_self_loops():
    lay = ring_layout(5)
    adj = init_local_adjacency(pairwise_distances(lay.positions), 5.0)
    assert np.array_equal(np.diag(adj), np.ones(5))


def test_local_init_range_and_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(20):
        pos = rng.normal(scale=5.0, size=(8, 3))
        adj = init_local_adjacency(pairwise_distances(pos), float(rng.uniform(0.5, 10)))
        assert np.array_equal(adj, adj.T)
        assert adj.min() >= 0.0 and adj.max() <= 1.0
        assert np.array_equal(np.diag(adj), np.ones(8))


def test_global_connection_boundaries():
    from eegraph.electrodes import apply_global_connections

    lay = ring_layout(4)
    # clamp saturates everything to 1, then the shift lands exactly on 0
    adj = init_local_adjacency(pairwise_distances(lay.positions), 1e9)
    assert adj[0, 2] == 1.0
    shifted = apply_global_connections(adj, GlobalPairSet([("E0", "E2")]), lay)
    assert shifted[0, 2] == 0.0
    assert shifted[2, 0] == 0.0


def test_global_connection_offset_value():
    from eegraph.electrodes import apply_global_connections

    lay = ring_layout(3)
    adj = np.eye(3)
    adj[0, 1] = adj[1, 0] = 0.03
    out = apply_global_connections(adj, GlobalPairSet([("E0", "E1")]), lay)
    assert out[0, 1] == pytest.approx(-0.97)
    assert out[1, 0] == pytest.approx(-0.97)


def test_global_connections_touch_nothing_else():
    from eegraph.electrodes import apply_global_connections

    lay = builtin_layout()
    adj = init_local_adjacency(pairwise_distances(lay.positions), 5.0)
    out = apply_global_connections(adj, default_global_pairs(), lay)
    diff = out != adj
    assert diff.sum() == 2 * len(DEFAULT_PAIRS)
    for a, b in DEFAULT_PAIRS:
        i, j = lay.index(a), lay.index(b)
        assert diff[i, j] and diff[j, i]
        assert -1.0 <= out[i, j] <= 0.0


def test_default_pair_set_is_the_documented_nine():
    assert default_global_pairs().pairs == DEFAULT_PAIRS


def test_sparsity_identity_is_zero():
    assert sparsity_fraction(np.eye(6)) == 0.0


def test_sparsity_all_strong():
    adj = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert sparsity_fraction(adj) == 1.0


def test_sparsity_monotone_in_threshold():
    rng = np.random.default_rng(8)
    adj = rng.uniform(-1, 1, size=(10, 10))
    adj = (adj + adj.T) / 2
    last = 1.1
    for threshold in (0.01, 0.05, 0.1, 0.3, 0.6, 0.9):
        frac = sparsity_fraction(adj, threshold)
        assert frac <= last
        last = frac


def test_builtin_calibrated_sparsity_in_band():
    lay = builtin_layout()
    d = pairwise_distances(lay.positions)
    delta = calibrate_delta(d)
    frac = sparsity_fraction(init_local_adjacency(d, delta))
    assert 0.15 <= frac <= 0.30


def test_calibration_tracks_requested_target():
    lay = builtin_layout()
    d = pairwise_distances(lay.positions)
    for target in (0.1, 0.2, 0.4):
        frac = sparsity_fraction(init_local_adjacency(d, calibrate_delta(d, target)))
        assert abs(frac - target) < 0.02


def test_layout_file_round_trip(tmp_path):
    p = tmp_path / "montage.txt"
    p.write_text("# a comment\nA 0 0 0\nB 1 0 0  # trailing note\n\nC 0 2 0\n")
    lay = load_layout(p)
    assert lay.names == ["A", "B", "C"]
    assert np.array_equal(lay.positions[1], [1.0, 0.0, 0.0])


def test_layout_file_bad_row(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("A 0 0\n")
    with pytest.raises(ConfigError):
        load_layout(p)


def test_layout_duplicate_names_rejected():
    with pytest.raises(LayoutError):
        ElectrodeLayout(["A", "A"], np.array([[0.0, 0, 0], [1.0, 0, 0]]))


def test_layout_coincident_positions_rejected():
    with pytest.raises(LayoutError):
        ElectrodeLayout(["A", "B"], np.zeros((2, 3)))


def test_pairs_file_parsing(tmp_path):
    p = tmp_path / "pairs.txt"
    p.write_text("# pairs\nA B\nC D\n")
    assert load_global_pairs(p).pairs == [("A", "B"), ("C", "D")]
    p.write_text("A B C\n")
    with pytest.raises(ConfigError):
        load_global_pairs(p)


def test_unknown_electrode_in_pairs():
    lay = ring_layout(3)
    with pytest.raises(ConfigError):
        GlobalPairSet([("E0", "NOPE")]).resolve(lay)


def test_ring_layout_basics():
    lay = ring_layout(6, radius=2.0)
    assert lay.n == 6
    assert np.allclose(np.linalg.norm(lay.positions[:, :2], axis=1), 2.0)
    with pytest.raises(ConfigError):
        ring_layout(1)


def test_initial_adjacency_full_pipeline():
    lay = builtin_layout()
    adj = initial_adjacency(lay, default_global_pairs(), 5.0).full()
    assert np.array_equal(adj, adj.T)
    assert np.array_equal(np.diag(adj), np.ones(62))
    assert adj.min() >= -1.0 and adj.max() <= 1.0
