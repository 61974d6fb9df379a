"""Differential tests: the grid's CSR adjacency vs the reference builds.

``Grid`` builds its eps-neighbour CSR adjacency and its cell-pair arrays
with one ``searchsorted`` per offset run; ``tests.oracles.grid_probe``
does one per offset.  Both must agree exactly — values, order and dtype —
on every input, including grids too wide for packed int64 keys, where
production falls back to structured rows.  High-dimensional grids build
the same CSR from all-pairs box tests, serially or sharded over workers;
it must equal the reference ``cell -> [neighbours]`` dict build.
"""

import numpy as np
import pytest

import repro.grid.cells as cells_mod
from repro.api import dbscan
from repro.grid.cells import Grid
from repro.parallel import executor
from repro.parallel.executor import ParallelConfig, parallel_warm_neighbors

from .conftest import make_blobs
from .oracles import grid_probe


def probed_grid(points, eps, side=None):
    """A grid forced onto the probe build (small test grids would pick all-pairs)."""
    grid = Grid(points, eps, side=side)
    grid._use_allpairs = False
    return grid


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def assert_matches_oracle(grid, subsets, *, packed=True):
    grid.warm_neighbors()
    indptr, indices = grid_probe.csr_adjacency(grid, packed=packed)
    assert_same_array(grid._adjacency.indptr, indptr)
    assert_same_array(grid._adjacency.indices, indices)
    for subset in subsets:
        keys, ii, jj = grid.neighbor_cell_pair_arrays(subset=subset)
        want_keys, want_i, want_j = grid_probe.cell_pair_arrays(grid, subset, packed=packed)
        assert keys == want_keys
        assert_same_array(ii, want_i)
        assert_same_array(jj, want_j)


def subsets_of(grid, seed):
    """``None``, a core-like subset, a random subset, empty, and one cell."""
    keys = list(grid.cells)
    rng = np.random.default_rng(seed)
    core_like = [c for c in keys if len(grid.cells[c]) >= 2]
    random = [keys[t] for t in np.flatnonzero(rng.random(len(keys)) < 0.4)]
    rng.shuffle(random)  # subset order must not matter
    single = keys[len(keys) // 2:len(keys) // 2 + 1]
    return [None, core_like, random, [], single]


def dataset(kind, n, d, seed):
    rng = np.random.default_rng(seed)
    if kind == "blobs":
        return make_blobs(n, d, 4, spread=1.0, domain=30.0, seed=seed)
    if kind == "uniform":
        return rng.uniform(0.0, 25.0, size=(n, d))
    if kind == "negative":
        return make_blobs(n, d, 4, spread=1.0, domain=30.0, seed=seed) - 40.0
    raise ValueError(kind)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["blobs", "uniform", "negative"])
def test_probe_matches_oracle(d, kind):
    seed = 100 * d + len(kind)
    grid = probed_grid(dataset(kind, 300, d, seed), 3.0)
    assert len(grid) > 2
    assert_matches_oracle(grid, subsets_of(grid, seed))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("side_ratio", [0.3, 0.7, 1.0])
def test_probe_matches_oracle_custom_side(d, side_ratio):
    pts = dataset("negative", 250, d, 7 + d)
    grid = probed_grid(pts, 3.0, side=3.0 * side_ratio)
    assert_matches_oracle(grid, subsets_of(grid, d))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_tiny_grids(d):
    eps = 1.0
    side = eps / np.sqrt(d)
    empty = np.empty((0, d))
    one = np.full((1, d), 0.25 * side)
    # Two cells one step apart along the last axis (neighbours) ...
    near = np.vstack([one, one + np.eye(d)[-1] * side])
    # ... and two cells too far apart to be neighbours.
    far = np.vstack([one, one + 10.0])
    for pts, m, pairs in ((empty, 0, 0), (one, 1, 0), (near, 2, 1), (far, 2, 0)):
        grid = probed_grid(pts, eps)
        assert len(grid) == m
        assert_matches_oracle(grid, [None, [], list(grid.cells)[:1]])
        assert len(grid.neighbor_cell_pair_arrays()[1]) == pairs


@pytest.mark.parametrize("d", [2, 3, 4])
def test_default_strategy_matches_oracle(d):
    """Large enough grids take the probe build without being forced."""
    pts = np.random.default_rng(40 + d).uniform(0.0, 60.0, size=(3000, d))
    grid = Grid(pts, 2.0)
    assert not grid.uses_allpairs_adjacency
    assert_matches_oracle(grid, subsets_of(grid, d))


def test_cell_coords_are_the_sorted_cell_keys():
    grid = Grid(dataset("negative", 400, 3, 5), 2.0)
    coords = grid.cell_coords
    assert coords.dtype == np.int64 and coords.shape == (len(grid), 3)
    assert coords.tolist() == [list(c) for c in grid.cells]


# ----------------------------------------------------------- overflow fallback


def far_blobs(d, spread, per_blob, n_blobs, seed):
    """Tight blobs at mutually distant centres: packed keys would overflow."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-spread, spread, size=(n_blobs, d))
    return np.vstack([c + rng.normal(0.0, 0.6, size=(per_blob, d)) for c in centres])


@pytest.fixture
def row_probes(monkeypatch):
    """Count the grids that take the structured-row fallback."""
    built = []

    class Counting(cells_mod._RowProbe):
        def __init__(self, coords, runs):
            built.append(len(coords))
            super().__init__(coords, runs)

    monkeypatch.setattr(cells_mod, "_RowProbe", Counting)
    return built


@pytest.mark.parametrize("d, spread", [(3, 1e12), (4, 2e5), (2, 8e9)])
def test_overflow_fallback_matches_oracle(d, spread, row_probes):
    grid = probed_grid(far_blobs(d, spread, 60, 5, seed=d), 1.0)
    assert_matches_oracle(grid, subsets_of(grid, d), packed=False)
    assert row_probes, "the structured-row fallback was not taken"
    # The fallback's rows also equal the all-pairs box tests, in order.
    keys = list(grid.cells)
    lengths, indices = grid.adjacency_rows(0, len(keys))
    ends = np.cumsum(lengths)
    for t, cell in enumerate(keys):
        row = [keys[j] for j in indices[ends[t] - lengths[t]:ends[t]]]
        assert list(grid.neighbor_cells(cell)) == row


def test_overflow_fallback_dbscan_matches_brute(row_probes):
    pts = far_blobs(4, 2e5, 120, 6, seed=11)
    got = dbscan(pts, 1.0, 5)
    assert row_probes, "the structured-row fallback was not taken"
    want = dbscan(pts, 1.0, 5, algorithm="brute")
    assert got == want
    np.testing.assert_array_equal(got.labels, want.labels)


# ------------------------------------------------------------ all-pairs build


def allpairs_grid(points, eps):
    """A grid forced onto the all-pairs build."""
    grid = Grid(points, eps)
    grid._use_allpairs = True
    return grid


def assert_matches_allpairs_oracle(grid, subsets):
    grid.warm_neighbors()
    indptr, indices = grid_probe.allpairs_csr(grid)
    assert_same_array(grid._adjacency.indptr, indptr)
    assert_same_array(grid._adjacency.indices, indices)
    for subset in subsets:
        keys, ii, jj = grid.neighbor_cell_pair_arrays(subset=subset)
        want_keys, want_i, want_j = grid_probe.allpairs_pair_arrays(grid, subset)
        assert keys == want_keys
        assert_same_array(ii, want_i)
        assert_same_array(jj, want_j)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", ["blobs", "uniform", "negative"])
def test_allpairs_matches_oracle(d, kind):
    seed = 300 + 10 * d + len(kind)
    grid = allpairs_grid(dataset(kind, 200, d, seed), 3.0)
    assert len(grid) > 2
    assert_matches_allpairs_oracle(grid, subsets_of(grid, seed))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_allpairs_tiny_grids(d):
    eps = 1.0
    side = eps / np.sqrt(d)
    one = np.full((1, d), 0.25 * side)
    near = np.vstack([one, one + np.eye(d)[-1] * side])
    far = np.vstack([one, one + 10.0])
    for pts, m, pairs in ((np.empty((0, d)), 0, 0), (one, 1, 0), (near, 2, 1), (far, 2, 0)):
        grid = allpairs_grid(pts, eps)
        assert len(grid) == m
        assert_matches_allpairs_oracle(grid, [None, [], list(grid.cells)[:1]])
        assert len(grid.neighbor_cell_pair_arrays()[1]) == pairs


def test_high_dimension_default_takes_allpairs():
    """A 400-point d=5 grid picks the all-pairs build without being forced."""
    grid = Grid(dataset("uniform", 400, 5, 21), 3.0)
    assert grid.uses_allpairs_adjacency
    assert_matches_allpairs_oracle(grid, subsets_of(grid, 21))


def _parallel_warmed(points, eps):
    grid = Grid(points, eps)
    assert grid.uses_allpairs_adjacency and grid.needs_neighbor_warmup
    parallel_warm_neighbors(grid, ParallelConfig(workers=2, min_points=0))
    assert not grid.needs_neighbor_warmup
    return grid._adjacency


def test_parallel_warm_installs_serial_csr():
    pts = dataset("uniform", 400, 5, 22)
    serial = Grid(pts, 3.0)
    serial.warm_neighbors()
    parallel = _parallel_warmed(pts, 3.0)
    assert_same_array(parallel.indptr, serial._adjacency.indptr)
    assert_same_array(parallel.indices, serial._adjacency.indices)


def test_parallel_warm_tolerates_reordered_and_repeated_blocks(monkeypatch):
    """Blocks may arrive in any order and more than once (``_fan_out``'s contract)."""
    real = executor._fan_out
    delivered = []

    def replay(cfg, n_workers, payload, kind, items, consume, **guards):
        results = []
        real(cfg, n_workers, payload, kind, items, results.append, **guards)
        assert len(results) > 1
        delivered.extend(results[::-1] + results[:1])
        for result in delivered:
            consume(result)

    monkeypatch.setattr(executor, "_fan_out", replay)
    pts = dataset("uniform", 400, 5, 23)
    serial = Grid(pts, 3.0)
    serial.warm_neighbors()
    parallel = _parallel_warmed(pts, 3.0)
    assert delivered
    assert_same_array(parallel.indptr, serial._adjacency.indptr)
    assert_same_array(parallel.indices, serial._adjacency.indices)
