"""Per-vertex terminal-distance features feeding the learned solver.

Every vertex is described by its shortest-path distances to the K nearest
terminals that are still "active" (not yet absorbed into a partial
solution).  Rows are sorted ascending and zero-filled when fewer than K
active terminals remain, then scaled into [0, 1] by a per-instance
constant so the network sees the same feature semantics across instances.
"""

from __future__ import annotations

import numpy as np

from .graph import StpInstance


def terminal_distance_matrix(instance: StpInstance) -> np.ndarray:
    """Full |V| x |T| shortest-path distance table: a transposed view of
    ``instance.terminal_paths``' distances, column j for the j-th terminal
    in ascending order.  Vertices outside the terminal component keep +inf
    entries; they can never enter a frontier, so they are excluded from
    candidates downstream rather than rejected here.
    """
    return instance.terminal_paths[0].T


def feature_scale(table: np.ndarray) -> float:
    """Normalization constant: the largest finite entry of the initial table.

    Fixed once per instance so feature magnitudes stay comparable over an
    episode as terminals deactivate.  Degenerate all-zero tables fall back
    to 1.0 to keep division well defined.
    """
    finite = table[np.isfinite(table)]
    if finite.size == 0:
        return 1.0
    top = float(finite.max())
    return top if top > 0 else 1.0


def knn_features(table: np.ndarray, active_mask, k: int) -> np.ndarray:
    """Each vertex's k smallest distances over the active terminals, (|V|, k).

    Rows come out ascending and are zero-filled on the right when fewer
    than k active terminals exist (including the empty active set, which
    yields all-zero rows).  Infinite distances (unreachable terminals) sort
    last and are zero-filled, so rows stay finite.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    active = np.asarray(active_mask, dtype=bool)
    if active.shape[0] != table.shape[1]:
        raise ValueError("active_mask length must equal the terminal count")
    n = table.shape[0]
    rows = np.zeros((n, k))
    if active.any():
        sub = table[:, active]
        sub = np.sort(sub, axis=1)[:, :k]
        m = sub.shape[1]
        filled = np.where(np.isfinite(sub), sub, 0.0)
        rows[:, :m] = filled
    return rows

