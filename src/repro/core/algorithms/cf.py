"""Collaborative filtering on GaaS-X (Section IV, Figure 10).

Matrix factorization over the user-item rating graph, Equation 5:

    e_ui  = G_ui - Pu . Pi
    Pi*   = Pi + gamma * sum_u (e_ui Pu - lambda Pi)
    Pu*   = Pu + gamma * sum_i (e_ui Pi - lambda Pu)

Hardware mapping: edges (with ratings) live in the CAM crossbars;
user and item feature vectors live in MAC crossbars (a 32-feature
vector spans two 16-column arrays). Each epoch runs the paper's two
phases:

* **Item update** — for each item, a CAM search over the destination
  field finds its raters; transposed MACs compute the error dot
  products ``Pu . Pi``; a second selective MAC accumulates
  ``e_ui * Pu`` into the item's new feature vector.
* **User update** — symmetric, searching the source field and using
  the *updated* item features (the phase runs after the item phase, as
  in Figure 10c).

Updates are synchronous within a phase (all errors of a phase are
computed against that phase's starting factors), which keeps the
hardware model and the golden reference bit-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

from ...errors import AlgorithmError
from ...events import EventLog
from ..stats import CFResult
from . import execution

if TYPE_CHECKING:  # pragma: no cover
    from ..engine import GaaSXEngine


def initial_factors(
    num_users: int, num_items: int, num_features: int, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic starting factors shared with the golden reference."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(num_features)
    user = rng.uniform(0.0, scale, size=(num_users, num_features))
    item = rng.uniform(0.0, scale, size=(num_items, num_features))
    return user, item


def _scatter_rows(
    index: np.ndarray, rows: np.ndarray, num_rows: int
) -> np.ndarray:
    """``out[index[k]] += rows[k]`` by one ``bincount`` per column: it
    adds in input order as ``np.add.at`` does (bit-identical sums), and
    several times faster."""
    out = np.empty((num_rows, rows.shape[1]))
    for j, column in enumerate(rows.T):
        out[:, j] = np.bincount(index, weights=column, minlength=num_rows)
    return out


def reference_epoch(
    users: np.ndarray,
    items: np.ndarray,
    ratings: np.ndarray,
    user_features: np.ndarray,
    item_features: np.ndarray,
    learning_rate: float,
    regularization: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """One synchronous item-then-user epoch of Equation 5."""
    p, q = user_features, item_features

    errors = ratings - np.einsum("ij,ij->i", p[users], q[items])
    grad_q = _scatter_rows(items, errors[:, None] * p[users], q.shape[0])
    item_deg = np.bincount(items, minlength=q.shape[0]).astype(np.float64)
    q = q + learning_rate * (grad_q - regularization * item_deg[:, None] * q)

    errors = ratings - np.einsum("ij,ij->i", p[users], q[items])
    grad_p = _scatter_rows(users, errors[:, None] * q[items], p.shape[0])
    user_deg = np.bincount(users, minlength=p.shape[0]).astype(np.float64)
    p = p + learning_rate * (grad_p - regularization * user_deg[:, None] * p)
    return p, q


def run(
    engine: "GaaSXEngine",
    num_features: int = 32,
    epochs: int = 1,
    learning_rate: float = 0.002,
    regularization: float = 0.02,
    seed: int = 0,
) -> CFResult:
    """Execute collaborative filtering and return the factor matrices."""
    bipartite = engine.bipartite
    if bipartite is None:
        raise AlgorithmError("collaborative filtering needs a bipartite graph")
    if num_features <= 0:
        raise AlgorithmError("num_features must be positive")

    # The unified layout renumbers items after users; search groups on
    # the destination field are per-item, on the source field per-user.
    layout = engine.layout("col")
    item_groups = layout.groups_by("dst")
    user_groups = layout.groups_by("src")

    events = EventLog()
    # Edges (with the rating attribute) into CAM+MAC storage once.
    load_time = engine._account_load(layout, events, mac_values_per_edge=1)
    # Feature matrices into MAC crossbars: one row per vertex per
    # 16-column segment.
    segments = -(-num_features // engine.config.mac_cols)
    feature_rows = (bipartite.num_users + bipartite.num_items) * segments
    events.row_writes += feature_rows
    events.cell_writes += (
        (bipartite.num_users + bipartite.num_items)
        * num_features
        * engine.config.bit_slices
    )
    load_time += (
        feature_rows
        / engine.config.num_crossbars
        * engine.config.tech.write_row_latency_s
    )

    trace = execution.cf(
        bipartite, num_features, epochs, learning_rate, regularization, seed
    )

    # Accounting for one epoch, scaled by the epoch count. Each phase
    # performs two MAC sweeps over its groups: the error dot products
    # and the feature accumulation.
    pass_events = EventLog()
    pass_time = 0.0
    for groups in (item_groups, user_groups):
        for _sweep in ("error", "accumulate"):
            pass_time += engine._account_search_pass(
                layout,
                groups,
                pass_events,
                cols_engaged=num_features,
                mac_segments=segments,
            )
        # Error arithmetic: subtract + scale per rating; feature update:
        # three ops per feature per vertex (scale, regularize, add).
        pass_events.sfu_ops += 2 * bipartite.num_ratings
        pass_events.sfu_ops += 3 * num_features * groups.num_groups
        pass_events.buffer_reads += 2 * bipartite.num_ratings * segments
        pass_events.buffer_writes += groups.num_groups * segments
    events.merge(pass_events.scaled(epochs))
    compute_time = pass_time * epochs

    stats = engine._finalize(
        events,
        load_time,
        compute_time,
        passes=epochs,
        batches=layout.num_batches,
    )
    return CFResult(
        user_features=trace.user_features.copy(),
        item_features=trace.item_features.copy(),
        epochs=epochs,
        stats=stats,
    )
