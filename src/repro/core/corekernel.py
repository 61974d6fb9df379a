"""Staged, batched kernels for the core-labeling and border phases.

The per-cell reference loops of :mod:`repro.core.labeling` and
:mod:`repro.core.border` pay one Python iteration plus several small numpy
calls per grid cell — which dominates wall-clock on seed-spreader-style
grids where tens of thousands of cells hold only a handful of points each.
Following the phase structure of Wang/Gu/Shun ("Theoretically-Efficient
and Practical Parallel DBSCAN": mark-core -> cluster-core -> cluster-
border), this module settles both phases with staged, vectorised passes
over the grid's dense cell arrays:

* **Stage A — dense quick-accept.**  Cells holding at least ``MinPts``
  points make *all* their points core (same-cell points are within
  ``eps``).  The verdict needs only the cell sizes, so every dense cell in
  the pass is accepted by one vectorised comparison and one index scatter.

* **Stage B — size-classed sparse counting.**  The surviving sparse
  cells' points accumulate neighbour counts against their cells'
  eps-neighbour points.  The (cell, neighbour-cell) CSR adjacency is
  flattened into one per-cell neighbour-point list, the cells are grouped
  into power-of-two size classes (so padding waste stays below 2x), and
  each class runs as tiled, gathered distance blocks with *vectorised
  early retirement*: a point that reaches ``MinPts`` drops out of every
  later tile, and a cell whose points all retired contributes no further
  rows.  ``known_core`` sweep hints are honoured exactly as in the loop —
  known points skip their counting pass.

* **Stage C — batched border assignment.**  Non-core points gather their
  cells' candidate core points (own cell + eps-neighbour cells) through
  the same size-classed padded layout, and the per-point cluster
  memberships come out of one vectorised unique-(point, label) reduction
  into a CSR structure (:class:`BorderAssignments`) that callers consume
  dict-compatibly.

Every stage computes exactly the predicate of the reference loops —
``|B(p, eps)| >= MinPts`` for cores, "every cluster with a core point
within ``eps``" for borders — against the shared
:func:`repro.geometry.distance.sq_radius` decision boundary, so the
results are byte-identical to the loops on every path that runs these
phases (serial pipeline, parallel shard workers on both transports, the
engine sweep's ``known_core`` carry, the resilient cascade, and the
fully-approximate extension).  The kernels report their funnels through
:mod:`repro.grid.counters` (``core_*`` / ``border_*``), which the
pipeline publishes under ``meta["kernel_counters"]`` next to the edge
phase's ``edge_*`` funnel.  Deadlines are polled once per size-class
tile — the batched-loop granularity of the FlatHierarchy frontier
traversal — not per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.geometry import distance as dm
from repro.grid import counters
from repro.grid.cells import CellCoord, Grid, _CSRAdjacency

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.runtime.deadline import Deadline

_EMPTY = np.empty(0, dtype=np.int64)

#: Attribute name under which the per-grid dense arrays are cached on the
#: :class:`Grid` instance.  A grid's cells and adjacency are immutable
#: once built, so the cache never invalidates; shard workers calling the
#: kernel once per shard reuse it instead of rebuilding per task.
_SOA_ATTR = "_corekernel_soa"


@dataclass
class GridSoA:
    """Dense structure-of-arrays view of a grid's cells and adjacency.

    Cell ids are positions in the grid's cell insertion order.  ``cat`` is
    the concatenation of every cell's point-index array in that order
    (cell ``t`` owns ``cat[offsets[t] : offsets[t] + sizes[t]]``);
    ``adj_indptr`` / ``adj_indices`` are the CSR rows of the eps-neighbour
    cell adjacency in the same id space, preserving each row's neighbour
    order.  ``point_sq`` caches every point's squared norm for the
    expanded-form distance tiles.
    """

    keys: List[CellCoord]
    index: Dict[CellCoord, int]
    sizes: np.ndarray
    offsets: np.ndarray
    cat: np.ndarray
    adj_indptr: np.ndarray
    adj_indices: np.ndarray
    point_sq: np.ndarray

    def __len__(self) -> int:
        return len(self.keys)

    def adj_counts(self, ids: np.ndarray) -> np.ndarray:
        return self.adj_indptr[ids + 1] - self.adj_indptr[ids]


def grid_soa(grid: Grid) -> GridSoA:
    """The (cached) dense arrays for ``grid`` — built once per grid."""
    soa = getattr(grid, _SOA_ATTR, None)
    if soa is not None:
        return soa
    adjacency = grid._ensure_adjacency()
    if isinstance(adjacency, _CSRAdjacency):
        keys, index = adjacency.keys, adjacency.index
        adj_indptr, adj_indices = adjacency.indptr, adjacency.indices
    else:
        # All-pairs adjacency (high d) stores per-cell lists in a dict;
        # repack into CSR once — the only per-cell Python work the staged
        # kernels ever do, paid a single time per grid.
        keys = list(grid.cells.keys())
        index = {c: t for t, c in enumerate(keys)}
        rows = [adjacency[c] for c in keys]
        adj_indptr = np.zeros(len(keys) + 1, dtype=np.int64)
        np.cumsum([len(r) for r in rows], out=adj_indptr[1:])
        flat = [index[c] for row in rows for c in row]
        adj_indices = np.asarray(flat, dtype=np.int64)
    m = len(keys)
    points = grid.points
    point_sq = np.einsum("ij,ij->i", points, points)
    if m == 0:
        soa = GridSoA(
            keys, index, _EMPTY, _EMPTY.copy(), _EMPTY.copy(),
            adj_indptr, adj_indices, point_sq,
        )
        setattr(grid, _SOA_ATTR, soa)
        return soa
    sizes = np.fromiter(
        (len(idx) for idx in grid.cells.values()), dtype=np.int64, count=m
    )
    offsets = np.zeros(m, dtype=np.int64)
    np.cumsum(sizes[:-1], out=offsets[1:])
    cat = np.concatenate(list(grid.cells.values()))
    soa = GridSoA(
        keys, index, sizes, offsets, cat, adj_indptr, adj_indices, point_sq
    )
    setattr(grid, _SOA_ATTR, soa)
    return soa


def _take_ranges(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``values[starts[i] : starts[i] + lengths[i]]``, vectorised.

    The ranges-to-indices expansion that replaces every per-cell
    ``np.concatenate`` loop: one ``repeat`` + one ``arange`` regardless of
    how many ranges are being flattened.
    """
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=values.dtype)
    row = np.repeat(np.arange(len(starts)), lengths)
    prefix = np.zeros(len(starts), dtype=np.int64)
    np.cumsum(lengths[:-1], out=prefix[1:])
    inner = np.arange(total, dtype=np.int64) - prefix[row]
    return values[starts[row] + inner]


def _work_cell_ids(
    grid: Grid,
    soa: GridSoA,
    cells,
    known_core: Optional[np.ndarray],
) -> Tuple[np.ndarray, bool]:
    """Dense ids of the cells one pass must visit, plus the carry flag.

    Mirrors the work-selection of the reference loops: an explicit
    ``cells`` iterable (shard restriction) wins; otherwise a ``known_core``
    carry restricts the pass to cells holding at least one unknown point;
    otherwise every cell is visited.  The carry flag is True exactly when
    the caller must pre-seed the mask with ``known_core`` wholesale.
    """
    if cells is not None:
        ids = [soa.index.get(tuple(c)) for c in cells]
        found = [t for t in ids if t is not None]
        return np.asarray(found, dtype=np.int64), False
    if known_core is not None and known_core.any():
        unknown = np.nonzero(~known_core)[0]
        if len(unknown) == 0:
            return _EMPTY, True
        # point -> dense cell id, inverted from the concatenation layout.
        point_cell = np.empty(len(grid.points), dtype=np.int64)
        point_cell[soa.cat] = np.repeat(
            np.arange(len(soa), dtype=np.int64), soa.sizes
        )
        return np.unique(point_cell[unknown]), True
    return np.arange(len(soa), dtype=np.int64), False


def _size_classes(lengths: np.ndarray) -> Iterator[np.ndarray]:
    """Group positions by the power-of-two class of ``lengths``.

    Rows inside one class are padded to the class *maximum*, so the
    padding waste is bounded by the class width (< 2x).  Classes come out
    in ascending size order; zero-length rows are skipped entirely.
    """
    if len(lengths) == 0:
        return
    cls = np.zeros(len(lengths), dtype=np.int64)
    positive = lengths > 0
    cls[positive] = np.frexp(lengths[positive].astype(np.float64))[1]
    for c in np.unique(cls[positive]):
        yield np.nonzero(cls == c)[0]


def _padded_rows(
    flat: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Pad the CSR rows ``flat[starts[i] : +lengths[i]]`` into a matrix.

    Returns ``(matrix, valid)`` of shape ``(len(starts), max(lengths))``;
    padded slots repeat the row's first entry and are masked out by
    ``valid``.
    """
    width = int(lengths.max())
    col = np.arange(width, dtype=np.int64)
    valid = col[None, :] < lengths[:, None]
    take = starts[:, None] + np.where(valid, col[None, :], 0)
    return flat[take], valid


def _tile_width(active: int, dim: int, remaining: int) -> int:
    """Columns per distance tile, bounded by the shared chunk budget."""
    budget = max(1, dm._chunk_budget() // max(1, active * max(dim, 1)))
    return max(1, min(remaining, budget))


def _gathered_sq_dists(
    points: np.ndarray,
    point_sq: np.ndarray,
    q_idx: np.ndarray,
    nbr_idx: np.ndarray,
) -> np.ndarray:
    """Squared distances between ``points[q_idx[r]]`` and each gathered row.

    The expanded form ``|a|^2 + |b|^2 - 2 a.b`` of
    :func:`repro.geometry.distance.pairwise_sq_dists`, evaluated on a
    row-specific gather (``nbr_idx`` has shape ``(rows, width)``) instead
    of a full cross product.  Decisions are made against the shared
    :func:`~repro.geometry.distance.sq_radius` boundary, whose slack
    absorbs the kernels' rounding differences.
    """
    q = points[q_idx]
    nbr = points[nbr_idx]
    out = (
        point_sq[q_idx][:, None]
        + point_sq[nbr_idx]
        - 2.0 * np.einsum("rd,rwd->rw", q, nbr)
    )
    np.maximum(out, 0.0, out=out)
    return out


# ------------------------------------------------------------ core labeling


def label_cores_staged(
    grid: Grid,
    min_pts: int,
    *,
    deadline: Optional["Deadline"] = None,
    cells=None,
    known_core: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Staged, batched core labeling — byte-identical to the loop.

    See :func:`repro.core.labeling.label_cores` for the contract
    (``cells`` shard restriction, ``known_core`` monotone carry); this
    kernel computes the identical mask with three vectorised stages and
    publishes its funnel through the ``core_*`` counters:

    ``core_points_total == core_dense_points + core_known_points +
    core_counted_points`` over the cells the pass visited, and
    ``core_retired_points <= core_counted_points`` measures how much the
    early-retirement tiles saved.
    """
    points = grid.points
    sq_eps = dm.sq_radius(grid.eps)
    core = np.zeros(len(points), dtype=bool)
    soa = grid_soa(grid)
    work, carry = _work_cell_ids(grid, soa, cells, known_core)
    if carry:
        core[:] = known_core
    counters.add("core_cells_total", len(work))
    if len(work) == 0:
        return core
    if deadline is not None:
        deadline.check()
    work_sizes = soa.sizes[work]
    counters.add("core_points_total", int(work_sizes.sum()))

    # Stage A: dense quick-accept over every visited cell at once.
    dense = work_sizes >= min_pts
    dense_ids = work[dense]
    if len(dense_ids):
        core[_take_ranges(soa.cat, soa.offsets[dense_ids], soa.sizes[dense_ids])] = True
        counters.add("core_dense_cells", len(dense_ids))
        counters.add("core_dense_points", int(soa.sizes[dense_ids].sum()))
    sparse_ids = work[~dense]
    counters.add("core_sparse_cells", len(sparse_ids))
    if len(sparse_ids) == 0:
        return core

    # Queries: the sparse cells' points that still need a counting pass.
    q_all = _take_ranges(soa.cat, soa.offsets[sparse_ids], soa.sizes[sparse_ids])
    q_cell = np.repeat(np.arange(len(sparse_ids)), soa.sizes[sparse_ids])
    if known_core is not None:
        already = known_core[q_all]
        if already.any():
            core[q_all[already]] = True
            counters.add("core_known_points", int(already.sum()))
            q_all, q_cell = q_all[~already], q_cell[~already]
    counters.add("core_counted_points", len(q_all))
    if len(q_all) == 0:
        return core
    # Cells whose points were all known drop out before any neighbour work.
    live = np.unique(q_cell)
    remap = np.full(len(sparse_ids), -1, dtype=np.int64)
    remap[live] = np.arange(len(live))
    q_cell = remap[q_cell]
    live_ids = sparse_ids[live]

    # Flatten the (cell, neighbour-cell) CSR adjacency into one
    # neighbour-point list per live sparse cell.
    nb_cells = _take_ranges(
        soa.adj_indices, soa.adj_indptr[live_ids], soa.adj_counts(live_ids)
    )
    nb_owner = np.repeat(np.arange(len(live_ids)), soa.adj_counts(live_ids))
    nb_sizes = soa.sizes[nb_cells]
    nlen = np.bincount(nb_owner, weights=nb_sizes, minlength=len(live_ids)).astype(np.int64)
    nbr_flat = _take_ranges(soa.cat, soa.offsets[nb_cells], nb_sizes)
    nbr_starts = np.zeros(len(live_ids), dtype=np.int64)
    np.cumsum(nlen[:-1], out=nbr_starts[1:])

    # Queries of one cell are contiguous in ``q_all`` (built per cell, in
    # cell order), so each live cell owns one query range.
    q_counts = np.bincount(q_cell, minlength=len(live_ids)).astype(np.int64)
    q_starts = np.zeros(len(live_ids), dtype=np.int64)
    np.cumsum(q_counts[:-1], out=q_starts[1:])
    verdict = np.zeros(len(q_all), dtype=bool)

    # Upper-bound quick-reject: a sparse cell whose occupancy plus entire
    # neighbourhood stays below ``MinPts`` cannot make any point core —
    # no distance work needed (the loop pays the full scan here).
    ubound = soa.sizes[live_ids] + nlen
    rejected = ubound < min_pts
    if rejected.any():
        counters.add(
            "core_upperbound_reject_points", int(q_counts[rejected].sum())
        )
    needs_work = np.where(rejected, 0, nlen)

    # Stage B: size-classed counting, batched per *cell* — each class is
    # a (cells, max queries/cell, tile) block settled by one batched
    # matmul, with whole cells retiring from later tiles once all their
    # points reach MinPts.
    for rows in _size_classes(needs_work):
        nbr_pad, nbr_valid = _padded_rows(nbr_flat, nbr_starts[rows], nlen[rows])
        q_pad, q_valid = _padded_rows(q_all, q_starts[rows], q_counts[rows])
        q_max = q_pad.shape[1]
        # Counts start at the full cell occupancy (same-cell points are
        # all within eps), exactly like the loop; padded query slots are
        # born retired so they never keep a cell alive.
        count_mat = np.where(
            q_valid, soa.sizes[live_ids[rows]][:, None], np.int64(min_pts)
        )
        active = np.arange(len(rows))
        width = nbr_pad.shape[1]
        pos = 0
        while pos < width and len(active):
            if deadline is not None:
                deadline.check()  # one poll per tile, not per cell
            w = _tile_width(len(active) * q_max, grid.dim, width - pos)
            tile = slice(pos, pos + w)
            nbr_idx = nbr_pad[active][:, tile]
            q_idx = q_pad[active]
            # Expanded-form distances as one batched matmul per tile:
            # (cells, q_max, d) @ (cells, d, w) -> (cells, q_max, w).
            sq = (
                soa.point_sq[q_idx][:, :, None]
                + soa.point_sq[nbr_idx][:, None, :]
                - 2.0 * np.matmul(points[q_idx], points[nbr_idx].transpose(0, 2, 1))
            )
            np.maximum(sq, 0.0, out=sq)
            within = sq <= sq_eps
            within &= nbr_valid[active][:, None, tile]
            count_mat[active] += within.sum(axis=2)
            done = (count_mat[active] >= min_pts).all(axis=1)
            pos += w
            if done.any() and pos < width:
                retired = count_mat[active[done]] >= min_pts
                counters.add("core_retired_points", int((retired & q_valid[active[done]]).sum()))
                counters.add("core_retired_cells", int(done.sum()))
            active = active[~done]
        # Row-major valid entries of the count matrix are exactly the
        # class cells' queries, concatenated in class order.
        q_pos = _take_ranges(
            np.arange(len(q_all), dtype=np.int64), q_starts[rows], q_counts[rows]
        )
        verdict[q_pos] = count_mat[q_valid] >= min_pts
    core[q_all] = verdict
    return core


# ------------------------------------------------------------------ borders


class BorderAssignments:
    """CSR-backed mapping of border point -> sorted tuple of cluster ids.

    The staged border kernel's result: ``points`` holds the assigned
    border point indices (ascending), and point ``points[i]`` joins the
    clusters ``labels[indptr[i] : indptr[i + 1]]`` (each row sorted
    ascending, matching the reference loop's ``np.unique`` output).
    Implements the read-only mapping protocol, so every consumer of the
    classic ``Dict[int, Tuple[int, ...]]`` — ``build_clustering``,
    checkpoint flattening, the worker slab writers, plain ``dict(...)``
    adoption — works unchanged.
    """

    __slots__ = ("points", "indptr", "labels", "_pos")

    def __init__(self, points: np.ndarray, indptr: np.ndarray, labels: np.ndarray) -> None:
        self.points = np.asarray(points, dtype=np.int64)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.labels = np.asarray(labels, dtype=np.int64)
        self._pos: Optional[Dict[int, int]] = None

    @classmethod
    def empty(cls) -> "BorderAssignments":
        return cls(_EMPTY, np.zeros(1, dtype=np.int64), _EMPTY)

    def _position(self, idx: int) -> int:
        if self._pos is None:
            self._pos = {int(p): i for i, p in enumerate(self.points)}
        return self._pos[int(idx)]

    def __getitem__(self, idx: int) -> Tuple[int, ...]:
        i = self._position(idx)  # raises KeyError for non-border points
        return tuple(
            int(c) for c in self.labels[self.indptr[i]:self.indptr[i + 1]]
        )

    def get(self, idx: int, default=None):
        try:
            return self[idx]
        except KeyError:
            return default

    def __contains__(self, idx) -> bool:
        try:
            self._position(idx)
        except (KeyError, TypeError, ValueError):
            return False
        return True

    def __iter__(self):
        return iter(self.points.tolist())

    def __len__(self) -> int:
        return len(self.points)

    def keys(self):
        return self.points.tolist()

    def values(self):
        return [self[p] for p in self.points.tolist()]

    def items(self):
        return [(p, self[p]) for p in self.points.tolist()]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BorderAssignments):
            return (
                np.array_equal(self.points, other.points)
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.labels, other.labels)
            )
        if isinstance(other, dict):
            return dict(self.items()) == other
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):  # pragma: no cover - mappings are unhashable
        raise TypeError("BorderAssignments is unhashable (mutable-mapping shaped)")

    def __reduce__(self):
        return (BorderAssignments, (self.points, self.indptr, self.labels))

    def __repr__(self) -> str:
        return f"BorderAssignments({len(self)} border points)"


def assign_borders_staged(
    grid: Grid,
    core_mask: np.ndarray,
    core_labels: np.ndarray,
    *,
    deadline: Optional["Deadline"] = None,
    cells=None,
) -> BorderAssignments:
    """Staged, batched border assignment — dict-identical to the loop.

    See :func:`repro.core.border.assign_borders` for the contract.  The
    funnel partitions cleanly: ``border_points_total == border_assigned +
    border_noise``, where ``border_noise`` includes the
    ``border_no_candidates`` points whose cells hold no candidate core at
    all — the verdict the reference loop leaves implicit by skipping the
    cell.
    """
    points = grid.points
    sq_eps = dm.sq_radius(grid.eps)
    core_mask = np.asarray(core_mask, dtype=bool)
    soa = grid_soa(grid)
    work, _ = _work_cell_ids(grid, soa, cells, None)
    if len(work) == 0:
        return BorderAssignments.empty()
    if deadline is not None:
        deadline.check()

    # Non-core queries per visited cell.
    q_all = _take_ranges(soa.cat, soa.offsets[work], soa.sizes[work])
    q_cell = np.repeat(np.arange(len(work)), soa.sizes[work])
    non_core = ~core_mask[q_all]
    q_all, q_cell = q_all[non_core], q_cell[non_core]
    counters.add("border_points_total", len(q_all))
    if len(q_all) == 0:
        return BorderAssignments.empty()
    live = np.unique(q_cell)
    remap = np.full(len(work), -1, dtype=np.int64)
    remap[live] = np.arange(len(live))
    q_cell = remap[q_cell]
    live_ids = work[live]

    # Candidate cores per live cell: own cores first, then each
    # eps-neighbour cell's cores in adjacency order (order never reaches
    # the output — memberships are reduced to sorted unique labels).
    core_flags = core_mask[soa.cat]
    core_counts = np.zeros(len(soa), dtype=np.int64)
    if len(soa.cat):
        core_counts = np.add.reduceat(core_flags, soa.offsets).astype(np.int64)
        core_counts[soa.sizes == 0] = 0
    core_cat = soa.cat[core_flags]
    core_offsets = np.zeros(len(soa), dtype=np.int64)
    if len(soa) > 1:
        np.cumsum(core_counts[:-1], out=core_offsets[1:])

    adj_counts = soa.adj_counts(live_ids)
    entry_len = adj_counts + 1
    entry_ptr = np.zeros(len(live_ids), dtype=np.int64)
    np.cumsum(entry_len[:-1], out=entry_ptr[1:])
    entries = np.empty(int(entry_len.sum()), dtype=np.int64)
    entries[entry_ptr] = live_ids  # the cell itself leads its row
    rest = np.ones(len(entries), dtype=bool)
    rest[entry_ptr] = False
    entries[rest] = _take_ranges(
        soa.adj_indices, soa.adj_indptr[live_ids], adj_counts
    )
    entry_owner = np.repeat(np.arange(len(live_ids)), entry_len)
    cand_len = np.bincount(
        entry_owner, weights=core_counts[entries], minlength=len(live_ids)
    ).astype(np.int64)
    cand_flat = _take_ranges(core_cat, core_offsets[entries], core_counts[entries])
    cand_starts = np.zeros(len(live_ids), dtype=np.int64)
    np.cumsum(cand_len[:-1], out=cand_starts[1:])

    # Cells with zero candidate cores: every non-core point there is
    # noise — the explicit verdict the counters need to partition.
    empty_cells = cand_len[q_cell] == 0
    if empty_cells.any():
        counters.add("border_no_candidates", int(empty_cells.sum()))
        counters.add("border_noise", int(empty_cells.sum()))
        q_all, q_cell = q_all[~empty_cells], q_cell[~empty_cells]
    if len(q_all) == 0:
        counters.add("border_assigned", 0)
        return BorderAssignments.empty()

    # Stage C: size-classed, tiled candidate scan collecting (point,
    # label) hits; no early exit — every in-range core's label counts.
    hit_q: List[np.ndarray] = []
    hit_lab: List[np.ndarray] = []
    core_label_arr = np.asarray(core_labels, dtype=np.int64)
    for rows in _size_classes(cand_len):
        padmat, valid = _padded_rows(cand_flat, cand_starts[rows], cand_len[rows])
        row_of = np.full(len(live_ids), -1, dtype=np.int64)
        row_of[rows] = np.arange(len(rows))
        sel = np.nonzero(row_of[q_cell] >= 0)[0]
        if len(sel) == 0:
            continue
        q_rows = row_of[q_cell[sel]]
        width = padmat.shape[1]
        pos = 0
        while pos < width:
            if deadline is not None:
                deadline.check()  # one poll per tile, not per cell
            w = _tile_width(len(sel), grid.dim, width - pos)
            tile = slice(pos, pos + w)
            nbr_idx = padmat[q_rows][:, tile]
            within = _gathered_sq_dists(
                points, soa.point_sq, q_all[sel], nbr_idx
            ) <= sq_eps
            within &= valid[q_rows][:, tile]
            r, c = np.nonzero(within)
            if len(r):
                hit_q.append(q_all[sel[r]])
                hit_lab.append(core_label_arr[nbr_idx[r, c]])
            pos += w

    if not hit_q:
        counters.add("border_assigned", 0)
        counters.add("border_noise", len(q_all))
        return BorderAssignments.empty()
    pairs_q = np.concatenate(hit_q)
    pairs_lab = np.concatenate(hit_lab)
    # Unique labels per point: one lexsort + run-length dedup replaces a
    # per-point np.unique call.
    order = np.lexsort((pairs_lab, pairs_q))
    pq, pl = pairs_q[order], pairs_lab[order]
    keep = np.ones(len(pq), dtype=bool)
    keep[1:] = (pq[1:] != pq[:-1]) | (pl[1:] != pl[:-1])
    pq, pl = pq[keep], pl[keep]
    starts = np.nonzero(
        np.concatenate([[True], pq[1:] != pq[:-1]])
    )[0]
    out_points = pq[starts]
    indptr = np.append(starts, len(pq)).astype(np.int64)
    counters.add("border_assigned", len(out_points))
    counters.add("border_noise", int(len(q_all) - len(out_points)))
    return BorderAssignments(out_points, indptr, pl)
