"""Unit tests for the grid T (cells, eps-neighbour enumeration, pairs)."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.grid.cells import Grid, default_side, expand_ranges, neighbor_offsets


class TestDefaultSide:
    def test_2d(self):
        assert default_side(1.0, 2) == pytest.approx(1.0 / np.sqrt(2))

    def test_same_cell_within_eps(self):
        # The defining property: the diagonal of a cell equals eps.
        for d in (1, 2, 3, 5, 7):
            side = default_side(10.0, d)
            assert np.sqrt(d) * side == pytest.approx(10.0)


class TestNeighborOffsets:
    def test_2d_neighbor_count(self):
        # The paper counts 21 eps-neighbour cells per 2D cell (its count
        # includes the cell itself and omits the four diagonal cells at
        # offset (+-2, +-2), whose minimum box distance is *exactly* eps —
        # a qualifying pair could only sit on the touching corners).  Our
        # table keeps those corners for inclusive <=-eps safety, giving the
        # full 5x5 block of 25 offsets.
        offsets = neighbor_offsets(1.0, default_side(1.0, 2), 2)
        assert len(offsets) == 25

    def test_2d_strict_interior_neighbor_count_is_21(self):
        # Dropping the exactly-at-eps corner cells recovers the paper's 21
        # (20 strict neighbours + the cell itself).
        side = default_side(1.0, 2)
        offsets = neighbor_offsets(1.0, side, 2)
        strict = [
            o for o in offsets.tolist()
            if (max(abs(o[0]) - 1, 0) ** 2 + max(abs(o[1]) - 1, 0) ** 2) * side ** 2
            < 1.0 - 1e-9
        ]
        assert len(strict) == 21

    def test_includes_zero_offset(self):
        offsets = neighbor_offsets(1.0, default_side(1.0, 3), 3)
        assert any(not off.any() for off in offsets)

    def test_symmetric(self):
        offsets = neighbor_offsets(1.0, default_side(1.0, 3), 3)
        table = {tuple(o) for o in offsets.tolist()}
        assert all(tuple(-v for v in o) in table for o in table)

    def test_1d(self):
        # side = eps in 1D: offsets -2..2 qualify (gap (|o|-1)*eps <= eps).
        offsets = neighbor_offsets(1.0, 1.0, 1)
        assert sorted(o[0] for o in offsets.tolist()) == [-2, -1, 0, 1, 2]

    def test_invalid_side(self):
        with pytest.raises(ParameterError):
            neighbor_offsets(1.0, 0.0, 2)

    def test_caching_returns_same_object(self):
        a = neighbor_offsets(2.0, default_side(2.0, 3), 3)
        b = neighbor_offsets(4.0, default_side(4.0, 3), 3)  # same ratio
        assert a is b


class TestGridBasics:
    def test_cell_assignment(self):
        pts = np.array([[0.1, 0.1], [0.9, 0.9], [5.0, 5.0]])
        grid = Grid(pts, eps=np.sqrt(2))  # side = 1
        assert grid.cell_of(0) == (0, 0)
        assert grid.cell_of(1) == (0, 0)
        assert grid.cell_of(2) == (5, 5)
        assert len(grid) == 2

    def test_negative_coordinates(self):
        pts = np.array([[-0.5, -0.5], [0.5, 0.5]])
        grid = Grid(pts, eps=np.sqrt(2))
        assert grid.cell_of(0) == (-1, -1)
        assert grid.cell_of(1) == (0, 0)

    def test_points_in(self):
        pts = np.array([[0.1, 0.1], [0.2, 0.2], [9.0, 9.0]])
        grid = Grid(pts, eps=np.sqrt(2))
        assert grid.points_in((0, 0)).tolist() == [0, 1]
        assert grid.points_in((100, 100)).tolist() == []

    def test_same_cell_points_within_eps(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 50, size=(500, 3))
        eps = 4.0
        grid = Grid(pts, eps)
        for _cell, idx in grid.cells.items():
            block = pts[idx]
            diff = block[:, None, :] - block[None, :, :]
            assert ((diff ** 2).sum(axis=2) <= eps * eps + 1e-9).all()

    def test_invalid_eps(self):
        with pytest.raises(ParameterError):
            Grid(np.zeros((2, 2)), eps=0.0)

    def test_contains(self):
        grid = Grid(np.array([[1.0, 1.0]]), eps=np.sqrt(2))
        assert (1, 1) in grid
        assert (0, 0) not in grid


class TestNeighborCells:
    def test_finds_adjacent_cells(self):
        pts = np.array([[0.5, 0.5], [1.5, 0.5], [50.0, 50.0]])
        grid = Grid(pts, eps=np.sqrt(2))  # side 1
        neighbors = list(grid.neighbor_cells((0, 0)))
        assert (1, 0) in neighbors
        assert (50, 50) not in neighbors

    def test_excludes_self_by_default(self):
        pts = np.array([[0.5, 0.5]])
        grid = Grid(pts, eps=np.sqrt(2))
        assert list(grid.neighbor_cells((0, 0))) == []
        assert list(grid.neighbor_cells((0, 0), include_self=True)) == [(0, 0)]

    def test_coverage_guarantee(self):
        # Every pair of points within eps must live in the same or
        # neighbouring cells — the one-sided guarantee everything relies on.
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 30, size=(200, 3))
        eps = 3.0
        grid = Grid(pts, eps)
        sq = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        for i, j in zip(*np.nonzero(sq <= eps * eps)):
            if i == j:
                continue
            ci, cj = grid.cell_of(int(i)), grid.cell_of(int(j))
            if ci == cj:
                continue
            assert cj in set(grid.neighbor_cells(ci)), (ci, cj)

    def test_neighbor_points_match_cells(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 10, size=(80, 2))
        grid = Grid(pts, eps=2.0)
        cell = grid.cell_of(0)
        via_cells = sorted(
            int(i)
            for c in grid.neighbor_cells(cell)
            for i in grid.points_in(c)
        )
        assert sorted(grid.neighbor_points(cell).tolist()) == via_cells


class TestNeighborCellPairs:
    def test_each_pair_once(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 20, size=(150, 2))
        grid = Grid(pts, eps=3.0)
        pairs = list(grid.neighbor_cell_pairs())
        keys = {frozenset((a, b)) for a, b in pairs}
        assert len(keys) == len(pairs)  # no duplicates in either order

    def test_pairs_are_neighbors(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 20, size=(100, 3))
        grid = Grid(pts, eps=4.0)
        for a, b in grid.neighbor_cell_pairs():
            assert b in set(grid.neighbor_cells(a))

    def test_subset_restriction(self):
        pts = np.array([[0.5, 0.5], [1.5, 0.5], [2.5, 0.5]])
        grid = Grid(pts, eps=np.sqrt(2))
        subset = [(0, 0), (2, 0)]
        pairs = list(grid.neighbor_cell_pairs(subset=subset))
        flat = {c for pair in pairs for c in pair}
        assert flat <= set(subset)

    def test_completeness_against_brute(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 15, size=(120, 2))
        eps = 2.5
        grid = Grid(pts, eps)
        got = {frozenset(p) for p in grid.neighbor_cell_pairs()}
        # Brute force: every unordered pair of distinct non-empty cells with
        # box distance <= eps must be present.
        cells = list(grid.cells)
        side = grid.side
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                a = np.asarray(cells[i])
                b = np.asarray(cells[j])
                gap = np.maximum(np.abs(a - b) - 1, 0) * side
                if (gap ** 2).sum() <= eps * eps:
                    assert frozenset((cells[i], cells[j])) in got


@pytest.mark.parametrize("seed", range(5))
def test_expand_ranges_matches_concatenated_aranges(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 40))
    starts = rng.integers(-20, 60, size=n)
    lengths = rng.integers(0, 4, size=n)  # zero-length ranges included
    want = [np.arange(s, s + k) for s, k in zip(starts.tolist(), lengths.tolist())]
    got = expand_ranges(starts, lengths)
    assert got.dtype == np.int64
    assert got.tolist() == np.concatenate(want + [np.empty(0, np.int64)]).tolist()
