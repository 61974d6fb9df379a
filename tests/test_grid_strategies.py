"""Cross-validation of the grid's two neighbour-enumeration strategies.

The grid answers neighbour queries either from the precomputed offset
table or (in high dimension, where the table explodes) from a vectorised
all-pairs adjacency map.  Both must give identical answers; this suite
forces each path and compares.
"""

import numpy as np
import pytest

from repro.grid.cells import Grid

from .conftest import make_blobs


def forced(points, eps, use_allpairs):
    grid = Grid(points, eps)
    grid._use_allpairs = use_allpairs
    grid._adjacency = None
    return grid


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1])
def test_neighbor_cells_agree(d, seed):
    pts = make_blobs(150, d, 3, spread=1.0, domain=30.0, seed=seed)
    eps = 3.0
    offsets_grid = forced(pts, eps, use_allpairs=False)
    allpairs_grid = forced(pts, eps, use_allpairs=True)
    # Rows must agree in order, not just as sets: labeling's early exit
    # scans them lazily.
    for cell in offsets_grid.cells:
        a = list(offsets_grid.neighbor_cells(cell))
        b = list(allpairs_grid.neighbor_cells(cell))
        assert a == b, cell


@pytest.mark.parametrize("d", [2, 3])
def test_neighbor_cells_include_self_agree(d):
    pts = make_blobs(100, d, 2, spread=1.0, domain=20.0, seed=2)
    offsets_grid = forced(pts, 2.5, use_allpairs=False)
    allpairs_grid = forced(pts, 2.5, use_allpairs=True)
    cell = next(iter(offsets_grid.cells))
    a = list(offsets_grid.neighbor_cells(cell, include_self=True))
    b = list(allpairs_grid.neighbor_cells(cell, include_self=True))
    assert a == b
    assert cell in a


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_neighbor_cell_pairs_agree(d):
    pts = make_blobs(120, d, 3, spread=1.2, domain=25.0, seed=3)
    eps = 3.0
    offsets_grid = forced(pts, eps, use_allpairs=False)
    allpairs_grid = forced(pts, eps, use_allpairs=True)
    a = {frozenset(p) for p in offsets_grid.neighbor_cell_pairs()}
    b = {frozenset(p) for p in allpairs_grid.neighbor_cell_pairs()}
    assert a == b


def test_neighbor_cell_pairs_subset_agree():
    pts = make_blobs(150, 3, 3, spread=1.2, domain=25.0, seed=4)
    offsets_grid = forced(pts, 3.0, use_allpairs=False)
    allpairs_grid = forced(pts, 3.0, use_allpairs=True)
    subset = list(offsets_grid.cells)[::2]
    a = {frozenset(p) for p in offsets_grid.neighbor_cell_pairs(subset=subset)}
    b = {frozenset(p) for p in allpairs_grid.neighbor_cell_pairs(subset=subset)}
    assert a == b


def test_high_dimension_picks_allpairs():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 100_000, size=(500, 7))
    grid = Grid(pts, 5000.0)
    assert grid._use_allpairs


def test_low_dimension_picks_offsets():
    rng = np.random.default_rng(6)
    pts = rng.uniform(0, 100, size=(500, 2))
    grid = Grid(pts, 5.0)
    assert not grid._use_allpairs


def test_full_clustering_agrees_in_7d():
    """End-to-end: force both strategies through the exact algorithm."""
    from repro.algorithms.brute import brute_dbscan
    from repro.core.border import assign_borders
    from repro.core.cellgraph import exact_components
    from repro.core.labeling import label_cores
    from repro.core.result import build_clustering

    rng = np.random.default_rng(7)
    pts = np.vstack([
        rng.normal(20, 1.0, size=(60, 7)),
        rng.normal(60, 1.0, size=(60, 7)),
    ])
    eps, min_pts = 6.0, 5
    reference = brute_dbscan(pts, eps, min_pts)
    for use_allpairs in (False, True):
        grid = forced(pts, eps, use_allpairs)
        core = label_cores(grid, min_pts)
        labels, _k = exact_components(grid, core)
        borders = assign_borders(grid, core, labels)
        result = build_clustering(len(pts), core, labels, borders)
        assert result.same_clusters(reference)
