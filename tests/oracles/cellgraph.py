"""Per-pair reference loops for the core-cell graph's edge phase.

Each eps-neighbouring pair of core cells, in candidate order, pays one
connectivity check on a :class:`~tests.oracles.unionfind.KeyedUnionFind`
and, if still open, one call of the production edge predicate.  Slow but
obviously right: :func:`repro.core.cellgraph.exact_components` and
:func:`repro.core.cellgraph.approx_components` must reproduce these labels
byte for byte, with or without a ``preunion`` carry.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.cellgraph import approx_edge_predicate, core_cells, exact_edge_predicate
from repro.geometry.bcp import bcp_within
from repro.grid.cells import CellCoord, Grid
from repro.grid.hierarchy import FlatHierarchy

from .unionfind import KeyedUnionFind


def apply_preunion(
    uf: KeyedUnionFind,
    preunion: Optional[List[Tuple[CellCoord, CellCoord]]],
) -> None:
    """Seed a union-find with pairs already known to be connected in ``G``.

    Pairs naming cells absent from the forest are skipped:
    ``KeyedUnionFind.union`` would otherwise register them and shift every
    later component label.  Pre-unioning same-component pairs never
    changes the final partition or its labels, because
    ``component_labels`` orders components by key insertion order, which
    is fixed at construction.
    """
    if not preunion:
        return
    for c1, c2 in preunion:
        if c1 in uf and c2 in uf:
            uf.union(c1, c2)


def candidate_cell_pairs(
    grid: Grid,
    cells: Dict[CellCoord, np.ndarray],
    uf: KeyedUnionFind,
    *,
    seeded: bool,
) -> Iterator[Tuple[CellCoord, CellCoord]]:
    """Neighbour core-cell pairs still worth an edge test.

    Unseeded, this is exactly ``grid.neighbor_cell_pairs`` over the core
    cells.  Seeded, pairs whose endpoints already share a root are dropped
    up front: a union between same-component cells is a no-op.
    """
    keys, ii, jj = grid.neighbor_cell_pair_arrays(subset=cells.keys())
    if seeded and len(ii):
        root = np.fromiter(
            (uf.find(c) for c in keys), dtype=np.int64, count=len(keys)
        )
        keep = root[ii] != root[jj]
        ii, jj = ii[keep], jj[keep]
    for i, j in zip(ii.tolist(), jj.tolist()):
        yield keys[i], keys[j]


def labels_from_components(
    grid: Grid,
    cells: Dict[CellCoord, np.ndarray],
    uf: KeyedUnionFind,
) -> Tuple[np.ndarray, int]:
    """Scatter per-cell component labels onto the point array."""
    labels = np.full(len(grid.points), -1, dtype=np.int64)
    if cells:
        cell_label = uf.component_labels()
        per_cell = np.fromiter(
            (cell_label[c] for c in cells), dtype=np.int64, count=len(cells)
        )
        sizes = np.fromiter(
            (len(idx) for idx in cells.values()), dtype=np.int64, count=len(cells)
        )
        labels[np.concatenate(list(cells.values()))] = np.repeat(per_cell, sizes)
    return labels, uf.n_components


def _loop(grid, cells, edge, preunion, deadline) -> Tuple[np.ndarray, int]:
    uf = KeyedUnionFind(cells.keys())
    apply_preunion(uf, preunion)
    for c1, c2 in candidate_cell_pairs(grid, cells, uf, seeded=bool(preunion)):
        if deadline is not None:
            deadline.tick()
        if uf.connected(c1, c2):
            continue
        if edge(c1, c2):
            uf.union(c1, c2)
    return labels_from_components(grid, cells, uf)


def exact_components(
    grid: Grid,
    core_mask: np.ndarray,
    bcp_strategy: str = "auto",
    *,
    deadline=None,
    preunion: Optional[List[Tuple[CellCoord, CellCoord]]] = None,
    structures: Optional[Dict[CellCoord, object]] = None,
) -> Tuple[np.ndarray, int]:
    """Components of the exact graph ``G``, one BCP test per open pair."""
    cells = core_cells(grid, core_mask)
    edge = exact_edge_predicate(grid, cells, bcp_strategy, structures=structures)
    return _loop(grid, cells, edge, preunion, deadline)


def approx_components(
    grid: Grid,
    core_mask: np.ndarray,
    rho: float,
    exact_leaf_size: int | None = None,
    *,
    deadline=None,
    preunion: Optional[List[Tuple[CellCoord, CellCoord]]] = None,
    structures: Optional[Dict[CellCoord, FlatHierarchy]] = None,
) -> Tuple[np.ndarray, int]:
    """Components of the rho-approximate graph ``G``.

    Builds every core cell's Lemma 5 structure up front, then runs one
    batched probe per open pair.
    """
    cells = core_cells(grid, core_mask)
    points = grid.points
    kwargs = {} if exact_leaf_size is None else {"exact_leaf_size": exact_leaf_size}
    if structures is None:
        structures = {}
    for cell, idx in cells.items():
        if cell not in structures:
            if deadline is not None:
                deadline.tick()
            structures[cell] = FlatHierarchy(points[idx], grid.eps, rho, **kwargs)
    edge = approx_edge_predicate(
        grid, cells, rho, exact_leaf_size, structures=structures, deadline=deadline
    )
    return _loop(grid, cells, edge, preunion, deadline)


def edge_list_exact(
    grid: Grid, core_mask: np.ndarray, bcp_strategy: str = "auto"
) -> List[Tuple[CellCoord, CellCoord]]:
    """All edges of the exact graph ``G``, without union-find short cuts."""
    cells = core_cells(grid, core_mask)
    points = grid.points
    edges = []
    for c1, c2 in grid.neighbor_cell_pairs(subset=cells.keys()):
        if bcp_within(points[cells[c1]], points[cells[c2]], grid.eps, strategy=bcp_strategy):
            edges.append((c1, c2))
    return edges
