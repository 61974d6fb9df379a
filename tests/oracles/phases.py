"""Per-cell reference loops for the core-labeling and border phases.

One Python iteration per grid cell, with distance blocks against the
cell's eps-neighbour cells: slow but obviously right.
:func:`repro.core.labeling.label_cores` and
:func:`repro.core.border.assign_borders` must reproduce these results
byte for byte on every input, including ``known_core`` carry and ``cells``
shard restriction.  :func:`neighbor_counts` computes the exact
``|B(p, eps)|`` the core predicate is defined on.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.errors import AlgorithmError
from repro.geometry import distance as dm
from repro.grid.cells import Grid


def label_cores(
    grid: Grid,
    min_pts: int,
    *,
    deadline=None,
    cells=None,
    known_core=None,
) -> np.ndarray:
    """Boolean core mask, one cell at a time with early termination."""
    points = grid.points
    sq_eps = dm.sq_radius(grid.eps)
    core = np.zeros(len(points), dtype=bool)
    if cells is not None:
        work = ((tuple(c), grid.points_in(c)) for c in cells)
    elif known_core is not None and known_core.any():
        # Monotone carry: only cells holding a not-yet-known point can
        # change anything; every other cell's verdict is the hint itself.
        core[:] = known_core
        unknown = np.nonzero(~known_core)[0]
        if len(unknown) == 0:
            return core
        ucells = np.unique(grid.point_cells[unknown], axis=0)
        work = ((tuple(c), grid.points_in(c)) for c in ucells.tolist())
    else:
        work = grid.cells.items()

    for cell, idx in work:
        if deadline is not None:
            deadline.tick()
        if len(idx) >= min_pts:
            core[idx] = True
            continue
        cell_size = len(idx)
        if known_core is not None:
            already = known_core[idx]
            if already.all():
                core[idx] = True
                continue
            if already.any():
                core[idx[already]] = True
                idx = idx[~already]
        # Sparse cell: count neighbours with early termination.  Neighbour
        # cells are processed in batches of a few hundred points so that
        # near-singleton cells (common on thin, spread-out data) do not pay
        # one numpy-call overhead per cell.  Same-cell points are all within
        # eps, so every point starts at the (full) cell occupancy.
        counts = np.full(len(idx), cell_size, dtype=np.int64)
        active = np.arange(len(idx))
        pending: list = []
        pending_size = 0
        done = False
        for ncell in grid.neighbor_cells(cell):
            pending.append(grid.points_in(ncell))
            pending_size += len(pending[-1])
            if pending_size < 256:
                continue
            nidx = np.concatenate(pending)
            pending, pending_size = [], 0
            block = dm.pairwise_sq_dists(points[idx[active]], points[nidx])
            counts[active] += (block <= sq_eps).sum(axis=1)
            active = active[counts[active] < min_pts]
            if len(active) == 0:
                done = True
                break
        if not done and pending:
            nidx = np.concatenate(pending)
            block = dm.pairwise_sq_dists(points[idx[active]], points[nidx])
            counts[active] += (block <= sq_eps).sum(axis=1)
        core[idx] = counts >= min_pts
    return core


def neighbor_counts(grid: Grid, cap: int | None = None) -> np.ndarray:
    """Exact ``|B(p, eps)|`` for every point (optionally capped at ``cap``).

    The brute ground truth of the core predicate; :func:`label_cores`
    only decides ``>= MinPts``.
    """
    if grid.side > grid.eps / np.sqrt(grid.dim) * (1.0 + 1e-9):
        raise AlgorithmError("neighbor_counts requires cell side <= eps/sqrt(d)")
    points = grid.points
    sq_eps = dm.sq_radius(grid.eps)
    counts = np.zeros(len(points), dtype=np.int64)
    for cell, idx in grid.cells.items():
        counts[idx] += len(idx)
        for ncell in grid.neighbor_cells(cell):
            nidx = grid.points_in(ncell)
            block = dm.pairwise_sq_dists(points[idx], points[nidx])
            counts[idx] += (block <= sq_eps).sum(axis=1)
    if cap is not None:
        np.minimum(counts, cap, out=counts)
    return counts


def assign_borders(
    grid: Grid,
    core_mask: np.ndarray,
    core_labels: np.ndarray,
    *,
    deadline=None,
    cells=None,
) -> Dict[int, Tuple[int, ...]]:
    """Border point -> sorted tuple of cluster ids, one cell at a time."""
    points = grid.points
    sq_eps = dm.sq_radius(grid.eps)
    out: Dict[int, Tuple[int, ...]] = {}
    if cells is None:
        work = grid.cells.items()
    else:
        work = ((tuple(c), grid.points_in(c)) for c in cells)

    for cell, idx in work:
        if deadline is not None:
            deadline.tick()
        non_core = idx[~core_mask[idx]]
        if len(non_core) == 0:
            continue
        # Candidate core points: those in the cell itself and in its
        # eps-neighbour cells.
        blocks = [idx[core_mask[idx]]]
        for ncell in grid.neighbor_cells(cell):
            nidx = grid.points_in(ncell)
            blocks.append(nidx[core_mask[nidx]])
        cores = np.concatenate(blocks)
        if len(cores) == 0:
            continue
        core_cids = core_labels[cores]
        sq = dm.pairwise_sq_dists(points[non_core], points[cores])
        within = sq <= sq_eps
        for row, q in enumerate(non_core):
            cids = np.unique(core_cids[within[row]])
            if len(cids):
                out[int(q)] = tuple(int(c) for c in cids)
    return out
