"""Symmetric adjacency storage, degree normalization, and feature propagation.

The adjacency over n channels is stored as the n(n+1)/2 upper-triangle
entries (row-major, diagonal included), so symmetry is structural rather
than a runtime invariant. Degrees are computed from absolute values
because learned edge weights can be negative. The packed entries may
carry leading axes (one adjacency per model); unpacking, degrees,
normalization and the gradient fold keep them. Unpacking and the fold
are gathers through cached index vectors (`take` on the last axis),
not 2-D fancy-index scatters.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IsolatedNodeError


@lru_cache(maxsize=64)
def upper_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = np.triu_indices(n)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


@lru_cache(maxsize=64)
def diagonal_positions(n: int) -> np.ndarray:
    """Packed positions of the n diagonal entries."""
    rows, cols = upper_indices(n)
    positions = np.flatnonzero(rows == cols)
    positions.setflags(write=False)
    return positions


@lru_cache(maxsize=64)
def packed_positions(n: int) -> np.ndarray:
    """Packed position of each entry of the raveled n x n matrix, both triangles."""
    rows, cols = upper_indices(n)
    index = np.empty((n, n), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(len(rows))
    index = index.ravel()
    index.setflags(write=False)
    return index


@lru_cache(maxsize=64)
def mirror_positions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Raveled positions of each packed entry (i, j) and of its mirror (j, i)."""
    rows, cols = upper_indices(n)
    upper, lower = rows * n + cols, cols * n + rows
    upper.setflags(write=False)
    lower.setflags(write=False)
    return upper, lower


def n_upper(n: int) -> int:
    return n * (n + 1) // 2


def pack_upper(matrix: np.ndarray) -> np.ndarray:
    """Extract the upper triangle (incl. diagonal) of a square matrix."""
    n = matrix.shape[0]
    rows, cols = upper_indices(n)
    return np.ascontiguousarray(matrix[rows, cols], dtype=np.float64)


def unpack_upper(upper: np.ndarray, n: int) -> np.ndarray:
    """Rebuild the full symmetric matrix from its packed upper triangle.

    One gather: every matrix entry reads its packed parameter.
    """
    if upper.shape[-1:] != (n_upper(n),):
        raise ValueError(f"expected {n_upper(n)} packed entries for n={n}, got {upper.shape}")
    full = np.asarray(upper, dtype=np.float64).take(packed_positions(n), axis=-1)
    return full.reshape(upper.shape[:-1] + (n, n))


def fold_full_gradient(grad_full: np.ndarray) -> np.ndarray:
    """Map a full-matrix gradient onto the packed parameters.

    An off-diagonal parameter backs two mirrored matrix entries, so its
    gradient is the sum of the (i, j) and (j, i) full-matrix gradients;
    a diagonal parameter backs one entry.
    """
    n = grad_full.shape[-1]
    upper, lower = mirror_positions(n)
    flat = grad_full.reshape(grad_full.shape[:-2] + (n * n,))
    g = flat.take(upper, axis=-1) + flat.take(lower, axis=-1)
    g[..., diagonal_positions(n)] = flat[..., :: n + 1]
    return g


@dataclass(frozen=True)
class SymmetricAdjacency:
    """Learnable symmetric channel-connection matrix with self-loops; frozen, so
    an `upper` that views a parameter vector views it for good."""

    n: int
    upper: np.ndarray  # (..., n(n+1)/2) float64

    def __post_init__(self):
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=np.float64))
        if self.upper.shape[-1:] != (n_upper(self.n),):
            raise ValueError(
                f"adjacency over {self.n} channels needs {n_upper(self.n)} parameters, "
                f"got {self.upper.shape}"
            )

    @classmethod
    def from_full(cls, matrix: np.ndarray) -> "SymmetricAdjacency":
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"adjacency must be square, got {matrix.shape}")
        if not np.array_equal(matrix, matrix.T):
            raise ValueError("adjacency matrix is not symmetric")
        return cls(matrix.shape[0], pack_upper(matrix))

    def full(self) -> np.ndarray:
        return unpack_upper(self.upper, self.n)

    def diagonal(self) -> np.ndarray:
        return self.upper[..., diagonal_positions(self.n)]


def degree(adj: SymmetricAdjacency | np.ndarray) -> np.ndarray:
    """Row sums of absolute connection weights, one per channel."""
    full = adj.full() if isinstance(adj, SymmetricAdjacency) else np.asarray(adj, dtype=np.float64)
    deg = np.abs(full).sum(axis=-1)
    if 0.0 in deg:
        dead = np.flatnonzero((deg == 0.0).any(axis=tuple(range(deg.ndim - 1))))
        raise IsolatedNodeError(f"channels {dead.tolist()} have zero total weight")
    return deg


def normalized_propagator(adj: SymmetricAdjacency) -> np.ndarray:
    """Degree-normalized propagation matrix D^(-1/2) A D^(-1/2), sign-preserving."""
    full = adj.full()
    return _normalize(full, degree(full))


def _normalize(full: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """The propagator of a full adjacency whose degrees are already known."""
    inv_sqrt = 1.0 / np.sqrt(deg)
    return full * inv_sqrt[..., :, None] * inv_sqrt[..., None, :]


def propagate(prop: np.ndarray, x: np.ndarray, steps: int) -> np.ndarray:
    """Apply the propagator `steps` times by successive multiplication.

    Accepts a single (n, d) feature matrix or a (batch, n, d) stack.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    out = np.asarray(x, dtype=np.float64)
    for _ in range(steps):
        out = np.matmul(prop, out)
    return out
