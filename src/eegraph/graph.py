"""Symmetric adjacency storage, degree normalization, and feature propagation.

The adjacency over n channels is stored as the n(n+1)/2 upper-triangle
entries (row-major, diagonal included), so symmetry is structural rather
than a runtime invariant. Degrees are computed from absolute values
because learned edge weights can be negative.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CorruptBundleError, IsolatedNodeError


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


def n_upper(n: int) -> int:
    return n * (n + 1) // 2


def pack_upper(matrix: np.ndarray) -> np.ndarray:
    """Extract the upper triangle (incl. diagonal) of a square matrix."""
    n = matrix.shape[0]
    rows, cols = upper_indices(n)
    return np.ascontiguousarray(matrix[rows, cols], dtype=np.float64)


def unpack_upper(upper: np.ndarray, n: int) -> np.ndarray:
    """Rebuild the full symmetric matrix from its packed upper triangle."""
    if upper.shape != (n_upper(n),):
        raise ValueError(f"expected {n_upper(n)} packed entries for n={n}, got {upper.shape}")
    rows, cols = upper_indices(n)
    full = np.zeros((n, n), dtype=np.float64)
    full[rows, cols] = upper
    full[cols, rows] = upper
    return full


def fold_full_gradient(grad_full: np.ndarray) -> np.ndarray:
    """Map a full-matrix gradient onto the packed parameters.

    An off-diagonal parameter backs two mirrored matrix entries, so its
    gradient is the sum of the (i, j) and (j, i) full-matrix gradients;
    a diagonal parameter backs one entry.
    """
    n = grad_full.shape[0]
    rows, cols = upper_indices(n)
    g = grad_full[rows, cols] + grad_full[cols, rows]
    diag = rows == cols
    g[diag] = grad_full[rows[diag], cols[diag]]
    return g


@dataclass
class SymmetricAdjacency:
    """Learnable symmetric channel-connection matrix with self-loops."""

    n: int
    upper: np.ndarray  # (n(n+1)/2,) float64

    def __post_init__(self):
        self.upper = np.asarray(self.upper, dtype=np.float64)
        if self.upper.shape != (n_upper(self.n),):
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

    @classmethod
    def identity(cls, n: int) -> "SymmetricAdjacency":
        return cls.from_full(np.eye(n))

    def full(self) -> np.ndarray:
        return unpack_upper(self.upper, self.n)

    def diagonal(self) -> np.ndarray:
        return self.upper[diagonal_positions(self.n)]

    def copy(self) -> "SymmetricAdjacency":
        return SymmetricAdjacency(self.n, self.upper.copy())

    # --- checkpoint block: u32 channel count, then packed float64 entries, little endian

    def to_bytes(self) -> bytes:
        return struct.pack("<I", self.n) + self.upper.astype("<f8").tobytes()

    @classmethod
    def from_bytes(cls, buf: bytes) -> tuple["SymmetricAdjacency", int]:
        """Parse one adjacency block; returns (adjacency, bytes consumed)."""
        if len(buf) < 4:
            raise CorruptBundleError("adjacency block truncated before channel count")
        (n,) = struct.unpack_from("<I", buf, 0)
        nbytes = 4 + 8 * n_upper(n)
        if len(buf) < nbytes:
            raise CorruptBundleError(
                f"adjacency block for {n} channels needs {nbytes} bytes, have {len(buf)}"
            )
        upper = np.frombuffer(buf[4:nbytes], dtype="<f8").astype(np.float64)
        return cls(n, upper), nbytes


def degree(adj: SymmetricAdjacency | np.ndarray) -> np.ndarray:
    """Row sums of absolute connection weights, one per channel."""
    full = adj.full() if isinstance(adj, SymmetricAdjacency) else np.asarray(adj, dtype=np.float64)
    deg = np.abs(full).sum(axis=1)
    if np.any(deg == 0.0):
        dead = np.flatnonzero(deg == 0.0)
        raise IsolatedNodeError(f"channels {dead.tolist()} have zero total weight")
    return deg


def normalized_propagator(adj: SymmetricAdjacency) -> np.ndarray:
    """Degree-normalized propagation matrix, sign-preserving."""
    full = adj.full()
    deg = degree(full)
    inv_sqrt = 1.0 / np.sqrt(deg)
    return full * inv_sqrt[:, None] * inv_sqrt[None, :]


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
