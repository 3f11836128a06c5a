"""Electrode layouts and geometry-driven adjacency initialization.

A layout is an ordered set of named 3-D electrode positions (centimeters).
Local connections decay with squared scalp distance; a handful of named
left-right pairs get an extra negative offset so the model starts out
contrasting hemispheres, which is where differential asymmetries live.
"""
from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, LayoutError
from .graph import SymmetricAdjacency, pack_upper, upper_indices

DELTA_DEFAULT = 5.0
SPARSITY_THRESHOLD = 0.1


@dataclass
class ElectrodeLayout:
    """Ordered electrode names with 3-D positions in centimeters."""

    names: list[str]
    positions: np.ndarray  # (n, 3) float64

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        if self.positions.shape != (len(self.names), 3):
            raise LayoutError(
                f"{len(self.names)} names but position array of shape {self.positions.shape}"
            )
        if len(set(self.names)) != len(self.names):
            dupes = sorted({name for name in self.names if self.names.count(name) > 1})
            raise LayoutError(f"duplicate electrode names: {dupes}")
        if not np.all(np.isfinite(self.positions)):
            raise LayoutError("electrode positions must be finite")
        d = pairwise_distances(self.positions)
        off = d[~np.eye(self.n, dtype=bool)]
        if off.size and off.min() == 0.0:
            i, j = np.argwhere((d == 0.0) & ~np.eye(self.n, dtype=bool))[0]
            raise LayoutError(f"electrodes {self.names[i]} and {self.names[j]} coincide")

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ConfigError(f"unknown electrode {name!r}") from None


def pairwise_distances(positions: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between electrode positions."""
    pos = np.asarray(positions, dtype=np.float64)
    diff = pos[:, None, :] - pos[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def _records(lines, source: str, form: str):
    """(line number, fields, line) of each record of an asset file: '#' comments
    stripped and blank lines skipped; a record must have as many fields as `form`."""
    for lineno, raw in enumerate(lines, 1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) != len(form.split()):
            raise ConfigError(f"{source}:{lineno}: expected {form!r}, got {raw.rstrip()!r}")
        yield lineno, parts, raw


def _parse_layout_lines(lines, source: str) -> ElectrodeLayout:
    names, rows = [], []
    for lineno, parts, raw in _records(lines, source, "NAME x y z"):
        try:
            rows.append([float(v) for v in parts[1:]])
        except ValueError:
            raise ConfigError(f"{source}:{lineno}: non-numeric coordinate in {raw.rstrip()!r}") from None
        names.append(parts[0])
    if not names:
        raise ConfigError(f"{source}: no electrodes found")
    return ElectrodeLayout(names, np.array(rows))


def load_layout(path) -> ElectrodeLayout:
    """Read a whitespace-delimited 'NAME x y z' layout file ('#' comments)."""
    with open(path) as fh:
        return _parse_layout_lines(fh, str(path))


def builtin_layout() -> ElectrodeLayout:
    """The bundled 62-channel 10-10 montage on an idealized spherical head."""
    ref = importlib.resources.files("eegraph") / "assets" / "layout62.txt"
    return _parse_layout_lines(ref.read_text().splitlines(), "layout62.txt")


def ring_layout(n: int, radius: float = 10.0) -> ElectrodeLayout:
    """Evenly spaced electrodes on a circle, for synthetic montages."""
    if n < 2:
        raise ConfigError("ring layout needs at least 2 electrodes")
    angles = 2.0 * np.pi * np.arange(n) / n
    pos = np.stack(
        [radius * np.cos(angles), radius * np.sin(angles), np.zeros(n)], axis=1
    )
    return ElectrodeLayout([f"E{i}" for i in range(n)], pos)


@dataclass
class GlobalPairSet:
    """Named left-right electrode pairs that receive the negative offset."""

    pairs: list[tuple[str, str]] = field(default_factory=list)

    def resolve(self, layout: ElectrodeLayout) -> list[tuple[int, int]]:
        out = []
        for a, b in self.pairs:
            ia, ib = layout.index(a), layout.index(b)
            if ia == ib:
                raise ConfigError(f"pair ({a}, {b}) maps to a single electrode")
            out.append((ia, ib))
        return out


def _parse_pairs(lines, source: str) -> GlobalPairSet:
    return GlobalPairSet([(a, b) for _, (a, b), _ in _records(lines, source, "NAME NAME")])


def load_global_pairs(path) -> GlobalPairSet:
    """Read a 'NAME NAME' pair file ('#' comments allowed)."""
    with open(path) as fh:
        return _parse_pairs(fh, str(path))


def default_global_pairs() -> GlobalPairSet:
    """Frontal-to-occipital symmetric pairs used by default."""
    ref = importlib.resources.files("eegraph") / "assets" / "global_pairs.txt"
    return _parse_pairs(ref.read_text().splitlines(), "global_pairs.txt")


def init_local_adjacency(distances: np.ndarray, delta: float = DELTA_DEFAULT) -> np.ndarray:
    """Distance-decayed initial connections, clamped to 1, self-loops on.

    Off-diagonal weight is min(1, delta / d_ij^2); the diagonal is 1.
    """
    if delta <= 0:
        raise ConfigError(f"delta must be positive, got {delta}")
    d = np.asarray(distances, dtype=np.float64)
    n = d.shape[0]
    with np.errstate(divide="ignore"):
        adj = np.minimum(1.0, delta / d**2)
    adj[np.arange(n), np.arange(n)] = 1.0
    return adj


def apply_global_connections(
    adj: np.ndarray, pairs: GlobalPairSet, layout: ElectrodeLayout
) -> np.ndarray:
    """Subtract 1 from each named pair's connection, symmetric, in place once.

    Local weights sit in [0, 1], so the paired entries land in [-1, 0].
    """
    out = np.array(adj, dtype=np.float64, copy=True)
    for ia, ib in pairs.resolve(layout):
        out[ia, ib] -= 1.0
        out[ib, ia] -= 1.0
    return out


def initial_adjacency(
    layout: ElectrodeLayout,
    pairs: GlobalPairSet | None = None,
    delta: float = DELTA_DEFAULT,
) -> SymmetricAdjacency:
    """Build the full geometry-based starting adjacency for a layout."""
    adj = init_local_adjacency(pairwise_distances(layout.positions), delta)
    if pairs is not None:
        adj = apply_global_connections(adj, pairs, layout)
    return SymmetricAdjacency(layout.n, pack_upper(adj))


def sparsity_fraction(adj: np.ndarray | SymmetricAdjacency, threshold: float = SPARSITY_THRESHOLD) -> float:
    """Fraction of off-diagonal entries whose |weight| exceeds the threshold.

    This is the "non-negligible" fraction; the initializer aims for roughly
    one fifth of possible connections mattering.
    """
    full = adj.full() if isinstance(adj, SymmetricAdjacency) else np.asarray(adj, dtype=np.float64)
    n = full.shape[0]
    mask = ~np.eye(n, dtype=bool)
    return float((np.abs(full[mask]) > threshold).mean())


def calibrate_delta(
    distances: np.ndarray,
    target: float = 0.2,
    threshold: float = SPARSITY_THRESHOLD,
) -> float:
    """Pick delta so roughly `target` of off-diagonal weights exceed `threshold`.

    weight > threshold iff d^2 < delta / threshold, so delta comes from the
    order statistics of squared pair distances: the cut sits midway between
    the k-th and (k+1)-th smallest, with k the desired above-threshold count.
    """
    if not 0.0 < target < 1.0:
        raise ConfigError(f"target fraction must be in (0, 1), got {target}")
    d = np.asarray(distances, dtype=np.float64)
    n = d.shape[0]
    rows, cols = upper_indices(n)
    off = rows != cols
    d2 = np.sort(d[rows[off], cols[off]] ** 2)  # ascending
    m = d2.size
    k = int(round(target * m))
    k = min(max(k, 1), m - 1)
    cut = 0.5 * (d2[k - 1] + d2[k])
    return float(threshold * cut)
