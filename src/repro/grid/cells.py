"""The d-dimensional grid ``T`` underlying the paper's algorithms.

Sections 2.2 / 3.2 / 4.4 all impose a grid on the data space whose cells are
hyper-squares with side length ``eps / sqrt(d)``.  Two facts drive every use:

* any two points in the same cell are within distance ``eps`` of each other;
* a point's eps-ball can only reach points in the cell's *eps-neighbour*
  cells — cells whose minimum box distance to it is at most ``eps`` — and
  there are only ``O((sqrt(d)+2)^d) = O(1)`` of those for fixed ``d``
  (21 in 2D, as the paper notes).

:class:`Grid` maps points to integer cell coordinates, groups point indices
per non-empty cell, and enumerates eps-neighbour cells via a cached offset
table shared across instances.

The eps-neighbour adjacency is built with *interval probes*.  In the
lexicographic offset table, offsets that share their first ``d - 1``
coordinates and have consecutive last coordinates form a run
``(p, a..b)``.  Cells are packed into mixed-radix int64 keys whose order
is the lexicographic order of their coordinates, so the neighbours of
cell ``c`` along one run are exactly the sorted keys in
``[key(c) + s_p + a, key(c) + s_p + b]``: one ``searchsorted`` per run
(not per offset) finds where each interval starts, and a second one,
run only for the intervals that hold a key, finds where it ends.  Grids
too wide to pack fall back to the same runs over a structured row view,
with the emptiness test made in coordinate space.  High-dimensional
grids, whose offset table dwarfs their cell count, run all-pairs box
tests instead; either build yields the same CSR rows.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple, Union

import numpy as np

from repro.errors import ParameterError

CellCoord = Tuple[int, ...]

#: Cache of neighbour-offset tables keyed by ``(d, reach, ratio_key)``.
_OFFSET_CACHE: Dict[Tuple[int, int, int], np.ndarray] = {}


def default_side(eps: float, d: int) -> float:
    """The paper's cell side length ``eps / sqrt(d)``."""
    return eps / np.sqrt(d)


def neighbor_offsets(eps: float, side: float, d: int) -> np.ndarray:
    """Integer offsets ``o`` such that cells ``c`` and ``c + o`` can contain a
    pair of points within distance ``eps``.

    A cell at offset ``o`` has a minimum box-to-box gap of
    ``max(|o_i| - 1, 0) * side`` along axis ``i``; the offset qualifies iff
    the Euclidean combination of those gaps is at most ``eps``.  The zero
    offset (the cell itself) is included.
    """
    if side <= 0:
        raise ParameterError(f"grid side must be positive; got {side}")
    reach = int(np.floor(eps / side)) + 1
    # side/eps is almost always 1/sqrt(d); key the cache on a fine rounding
    # of the ratio so custom sides do not collide.
    ratio_key = int(round(side / eps * 1e9))
    cache_key = (d, reach, ratio_key)
    cached = _OFFSET_CACHE.get(cache_key)
    if cached is not None:
        return cached

    axes = [np.arange(-reach, reach + 1)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    offsets = np.stack([m.ravel() for m in mesh], axis=1)
    gaps = np.maximum(np.abs(offsets) - 1, 0) * side
    ok = np.einsum("ij,ij->i", gaps, gaps) <= eps * eps + 1e-9 * eps * eps
    result = offsets[ok]
    _OFFSET_CACHE[cache_key] = result
    return result


class Grid:
    """A grid over a point set, with per-cell point groups.

    Parameters
    ----------
    points:
        Array of shape ``(n, d)``.
    eps:
        The DBSCAN radius; determines neighbour reach.
    side:
        Cell side length.  Defaults to ``eps / sqrt(d)`` (the paper's
        choice, which guarantees same-cell pairs are within ``eps``).
    """

    def __init__(self, points: np.ndarray, eps: float, side: float | None = None) -> None:
        points = np.asarray(points, dtype=np.float64)
        if eps <= 0:
            raise ParameterError(f"eps must be positive; got {eps}")
        d = points.shape[1]
        self.points = points
        self.eps = float(eps)
        self.side = float(side) if side is not None else default_side(eps, d)
        if self.side <= 0:
            raise ParameterError(f"side must be positive; got {self.side}")
        self.dim = d

        coords = np.floor(points / self.side).astype(np.int64)
        self.point_cells = coords
        self._cell_coords, self._cells = _cell_table(coords)
        self._offsets = neighbor_offsets(self.eps, self.side, d)
        # In high dimensions the offset table explodes (~257k entries for
        # d = 7, ~1.6k for d = 4) far past the number of non-empty cells;
        # there, probing offsets is hopeless and a (chunked, vectorised)
        # all-pairs box-distance computation builds the same CSR adjacency
        # instead.  Built lazily on first neighbour query.
        self._adjacency: _CSRAdjacency | None = None
        m = len(self._cells)
        self._use_allpairs = len(self._offsets) > 4 * max(m, 64)

    @classmethod
    def from_soa(
        cls,
        points: np.ndarray,
        point_cells: np.ndarray,
        cell_coords: np.ndarray,
        cell_indptr: np.ndarray,
        cell_order: np.ndarray,
        adj_indptr: np.ndarray,
        adj_indices: np.ndarray,
        *,
        eps: float,
        side: float,
    ) -> "Grid":
        """Rebuild a grid from its structure-of-arrays export — zero copies.

        The inverse of ``repro.parallel.shm.grid_soa``: every per-cell
        index group and every adjacency row is a *view* into the given
        arrays (typically shared-memory mappings), so attaching workers
        reconstruct the parent's grid without materialising anything.
        ``cell_coords`` must be in the insertion order of the original
        ``cells`` dict (which :func:`_cell_table` makes lexicographic),
        and the CSR rows must preserve the original per-row neighbour
        order — both are what keeps parallel output byte-identical.
        """
        self = cls.__new__(cls)
        points = np.asarray(points, dtype=np.float64)
        self.points = points
        self.eps = float(eps)
        self.side = float(side)
        self.dim = int(points.shape[1])
        self.point_cells = np.asarray(point_cells, dtype=np.int64)
        m = int(cell_coords.shape[0])
        coord_rows = cell_coords.tolist()
        cells: Dict[CellCoord, np.ndarray] = {}
        indptr = cell_indptr.tolist()
        for t in range(m):
            cells[tuple(coord_rows[t])] = cell_order[indptr[t]:indptr[t + 1]]
        self._cells = cells
        self._cell_coords = np.asarray(cell_coords, dtype=np.int64)
        self._offsets = neighbor_offsets(self.eps, self.side, self.dim)
        self._adjacency = self._csr(
            np.asarray(adj_indptr, dtype=np.int64),
            np.asarray(adj_indices, dtype=np.int64),
        )
        self._use_allpairs = len(self._offsets) > 4 * max(m, 64)
        return self

    # ------------------------------------------------------------- inspection

    def __len__(self) -> int:
        """Number of non-empty cells."""
        return len(self._cells)

    def __contains__(self, cell: CellCoord) -> bool:
        return tuple(cell) in self._cells

    @property
    def cells(self) -> Dict[CellCoord, np.ndarray]:
        """Mapping of non-empty cell coordinate -> array of point indices."""
        return self._cells

    @property
    def cell_coords(self) -> np.ndarray:
        """``(m, d)`` int64 coordinates of the non-empty cells, in :attr:`cells`
        order (lexicographically ascending)."""
        return self._cell_coords

    def cell_of(self, i: int) -> CellCoord:
        """Cell coordinate of point ``i``."""
        return tuple(int(c) for c in self.point_cells[i])

    def points_in(self, cell: CellCoord) -> np.ndarray:
        """Indices of the points covered by ``cell`` (empty array if none)."""
        return self._cells.get(tuple(cell), _EMPTY_IDX)

    # ------------------------------------------------------------- neighbours

    def _ensure_adjacency(self) -> "_CSRAdjacency":
        """Build (once) the full cell adjacency in CSR form.

        Low dimensions use interval probes over the offset runs; the
        high-``d`` regime, where the offset table dwarfs the cell count,
        runs all-pairs box tests (:meth:`adjacency_rows`).  Both give each
        row in ascending neighbour id, which is offset-table order.
        """
        if self._adjacency is None:
            if self._use_allpairs:
                lengths, indices = self.adjacency_rows(0, len(self._cells))
                indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
                np.cumsum(lengths, out=indptr[1:])
                self.install_adjacency(indptr, indices)
            else:
                self._adjacency = self._adjacency_from_offsets()
        return self._adjacency

    def _csr(self, indptr: np.ndarray, indices: np.ndarray) -> "_CSRAdjacency":
        keys = list(self._cells.keys())
        return _CSRAdjacency(keys, indptr, indices, {c: t for t, c in enumerate(keys)})

    def _adjacency_from_offsets(self) -> "_CSRAdjacency":
        """CSR adjacency via interval probes over the non-zero offset runs.

        Within a row, ascending packed key is offset-table order, so a
        stable sort of the probe hits on their source cell followed by a
        range expansion yields each row in offset-table order — the order
        callers that scan neighbours lazily (labeling early-exit) observe.
        """
        m = len(self._cells)
        if m < 2:
            return self._csr(np.zeros(m + 1, dtype=np.int64), _EMPTY_IDX)
        nonzero = self._offsets[(self._offsets != 0).any(axis=1)]
        src, first, count, _ = _interval_probes(self._cell_coords, _offset_runs(nonzero))
        order = np.argsort(src, kind="stable")
        indptr = np.zeros(m + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(np.bincount(src, weights=count, minlength=m))
        return self._csr(indptr, expand_ranges(first[order], count[order]))

    def adjacency_rows(self, start: int, stop: int) -> Tuple[np.ndarray, np.ndarray]:
        """CSR rows of cells ``start .. stop - 1``, by vectorised box tests.

        Returns ``(lengths, indices)``: row lengths, and the neighbour ids
        of every row concatenated, each row ascending.  The unit of work of
        the all-pairs adjacency build: rows are independent of each other,
        which is what lets the parallel executor shard the build over
        contiguous id ranges and concatenate the blocks
        (:func:`repro.parallel.executor.parallel_warm_neighbors`).
        Internally chunked so the ``rows x cells`` distance blocks stay a
        few million elements regardless of range size.
        """
        coords = self._cell_coords
        limit = self.eps * self.eps * (1.0 + 1e-9)
        sub = max(1, 2_000_000 // max(len(coords) * self.dim, 1))
        lengths: List[np.ndarray] = [_EMPTY_IDX]
        indices: List[np.ndarray] = [_EMPTY_IDX]
        for lo in range(start, stop, sub):
            hi = min(lo + sub, stop)
            block = coords[lo:hi]
            gaps = (np.maximum(np.abs(block[:, None, :] - coords[None, :, :]) - 1, 0)
                    * self.side)
            ok = np.einsum("bmd,bmd->bm", gaps, gaps) <= limit
            ok[np.arange(hi - lo), np.arange(lo, hi)] = False
            rows, cols = np.nonzero(ok)
            lengths.append(np.bincount(rows, minlength=hi - lo))
            indices.append(cols)
        return np.concatenate(lengths), np.concatenate(indices)

    @property
    def needs_neighbor_warmup(self) -> bool:
        """True while the adjacency map is still unbuilt."""
        return self._adjacency is None

    @property
    def uses_allpairs_adjacency(self) -> bool:
        """True when adjacency comes from all-pairs box tests (high ``d``).

        Only that build is expensive enough to shard across workers; the
        interval-probe build is a fast vectorised pass done in-process.
        """
        return self._use_allpairs

    def warm_neighbors(self) -> None:
        """Force the (cached) adjacency build *now*.

        The parallel executor calls it before forking workers so every
        worker inherits the warm table instead of each rebuilding it, and
        the pipeline calls it during the grid phase so the cost is charged
        where it belongs.
        """
        self._ensure_adjacency()

    def install_adjacency(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        """Install an externally assembled CSR adjacency.

        Used by the parallel executor after sharding
        :meth:`adjacency_rows` across workers; ``indptr`` must cover every
        non-empty cell.
        """
        if len(indptr) != len(self._cells) + 1:
            raise ParameterError(
                f"adjacency covers {len(indptr) - 1} cells; grid has {len(self._cells)}"
            )
        self._adjacency = self._csr(indptr, indices)

    def neighbor_cells(self, cell: CellCoord, *, include_self: bool = False) -> Iterator[CellCoord]:
        """Yield the non-empty eps-neighbour cells of ``cell``.

        The guarantee is one-sided, as in the paper: every cell that could
        hold a point within ``eps`` of a point of ``cell`` is yielded; a
        yielded cell may still turn out to hold no qualifying point.
        """
        cell = tuple(cell)
        if cell in self._cells:
            if include_self:
                yield cell
            yield from self._ensure_adjacency().row(cell)
            return
        # A coordinate with no points has no adjacency row; probe offsets.
        base = np.asarray(cell, dtype=np.int64)
        cells = self._cells
        for off in self._offsets:
            if not off.any():
                continue
            other = tuple((base + off).tolist())
            if other in cells:
                yield other

    def neighbor_points(self, cell: CellCoord, *, include_self: bool = False) -> np.ndarray:
        """Indices of all points in the eps-neighbour cells of ``cell``."""
        blocks = [self.points_in(c) for c in self.neighbor_cells(cell, include_self=include_self)]
        if not blocks:
            return _EMPTY_IDX
        return np.concatenate(blocks)

    def neighbor_cell_pair_arrays(
        self, subset=None
    ) -> Tuple[List[CellCoord], np.ndarray, np.ndarray]:
        """Index-array form of :meth:`neighbor_cell_pairs`.

        Returns ``(keys, i, j)`` where the pairs are
        ``(keys[i[t]], keys[j[t]])`` — the representation callers want when
        they post-filter pairs vectorised (e.g. dropping pairs whose
        endpoints a carried pre-union already connects) instead of paying
        a Python-level yield per pair.  ``i``-side cells precede their
        ``j`` partners lexicographically, matching the orientation contract
        of :meth:`neighbor_cell_pairs`.  Probed grids give pairs
        offset-major (positive offsets in table order), ``i`` ascending
        within an offset; all-pairs grids read them off the CSR rows,
        ``i``-major.
        """
        sub_keys = list(self._cells.keys())
        coords = self._cell_coords
        kept = np.arange(len(sub_keys))
        if subset is not None:
            allowed = set(map(tuple, subset))
            kept = np.asarray([t for t, c in enumerate(sub_keys) if c in allowed], dtype=np.int64)
            sub_keys = [sub_keys[t] for t in kept.tolist()]
            coords = coords[kept]
        if len(sub_keys) < 2:
            return sub_keys, _EMPTY_IDX, _EMPTY_IDX
        if self._use_allpairs:
            # Each row's partners are ascending; keep the subset partners
            # with a larger id, renumbered to subset positions.
            adjacency = self._ensure_adjacency()
            pos = np.full(len(self._cells), -1, dtype=np.int64)
            pos[kept] = np.arange(len(kept))
            count = adjacency.indptr[kept + 1] - adjacency.indptr[kept]
            src = np.repeat(np.arange(len(kept)), count)
            dst = pos[adjacency.indices[expand_ranges(adjacency.indptr[kept], count)]]
            keep = dst > src
            return sub_keys, src[keep], dst[keep]
        positive = self._offsets[_positive_offset_mask(self._offsets)]
        runs = _offset_runs(positive)
        src, first, count, per_run = _interval_probes(coords, runs)
        if not len(src):
            return sub_keys, _EMPTY_IDX, _EMPTY_IDX
        jj = expand_ranges(first, count)
        # Offset rank of each pair: its run's first rank plus the step along
        # the last axis.  One stable sort on it restores offset-major order
        # with ``i`` ascending inside each offset.
        _, run_first, _, run_rank = runs
        last = coords[:, -1]
        rank = np.repeat(np.repeat(run_rank - run_first, per_run) - last[src], count)
        rank += last[jj]
        rank = rank.astype(np.min_scalar_type(len(positive)))
        order = np.argsort(rank, kind="stable")
        return sub_keys, np.repeat(src, count)[order], jj[order]

    def neighbor_cell_pairs(self, subset=None) -> Iterator[Tuple[CellCoord, CellCoord]]:
        """Yield each unordered pair of distinct eps-neighbour cells once.

        ``subset`` optionally restricts both endpoints to a collection of
        cells (e.g. the core cells when building the graph ``G``).
        Deduplication uses the lexicographic order of the offset vector, so
        the pair ``(c, c + o)`` is emitted only for positive offsets.
        """
        keys, ii, jj = self.neighbor_cell_pair_arrays(subset)
        for i, j in zip(ii.tolist(), jj.tolist()):
            yield keys[i], keys[j]


class _CSRAdjacency:
    """Cell adjacency in compressed-sparse-row form.

    ``indices[indptr[t]:indptr[t + 1]]`` are the positions (into ``keys``)
    of cell ``keys[t]``'s neighbours, in offset-table order.  Index arrays
    instead of per-cell Python lists keep the build fully vectorised.
    """

    __slots__ = ("keys", "indptr", "indices", "index")

    def __init__(
        self,
        keys: List[CellCoord],
        indptr: np.ndarray,
        indices: np.ndarray,
        index: Dict[CellCoord, int],
    ) -> None:
        self.keys = keys
        self.indptr = indptr
        self.indices = indices
        self.index = index

    def row(self, cell: CellCoord) -> Iterator[CellCoord]:
        t = self.index[cell]
        keys = self.keys
        for j in self.indices[self.indptr[t]:self.indptr[t + 1]].tolist():
            yield keys[j]


def _row_view(a: np.ndarray) -> np.ndarray:
    """A 1-D structured view of a 2-D integer array, one element per row.

    Structured elements compare field by field, i.e. lexicographically by
    row — the overflow-proof (but slower) fallback for row-wise searches
    when packed int64 keys cannot represent the coordinate range.
    """
    a = np.ascontiguousarray(a)
    return a.view([("", a.dtype)] * a.shape[1]).ravel()


def _offset_runs(offsets: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split a lexicographic offset table into runs ``(p, a..b)``.

    A run is a maximal stretch of consecutive table rows that share their
    first ``d - 1`` coordinates ``p`` and step their last coordinate by
    one.  The box-gap test is monotone in ``|o_d|``, so each prefix of the
    full table is one run; a table without the zero offset has that
    prefix split in two.  Returns ``(prefix, first, last, rank)``: the
    ``(R, d - 1)`` prefixes, the last-coordinate bounds ``a`` and ``b``,
    and the table position of each run's first offset.
    """
    tail = offsets[:, -1]
    starts = np.ones(len(offsets), dtype=bool)
    starts[1:] = (offsets[1:, :-1] != offsets[:-1, :-1]).any(axis=1) | (tail[1:] != tail[:-1] + 1)
    rank = np.flatnonzero(starts)
    ends = np.append(rank[1:], len(offsets)) - 1
    return offsets[rank, :-1], tail[rank], tail[ends], rank


class _PackedProbe:
    """Cells as ascending mixed-radix int64 keys.

    ``lo``/``spans`` are padded by the offset reach, which keeps every
    shifted coordinate in range, so run ``r`` of cell ``c`` is the key
    interval ``key(c) + [s_p + a, s_p + b]``.  A sentinel past the last
    key makes the emptiness test need no bounds check.
    """

    def __init__(self, coords: np.ndarray, runs, lo: np.ndarray, spans: np.ndarray) -> None:
        prefixes, run_first, run_last, _ = runs
        mults = np.concatenate([np.cumprod(spans[:0:-1])[::-1], [1]])
        self.keys = (coords - lo) @ mults
        self.guarded = np.append(self.keys, np.iinfo(np.int64).max)
        shift = prefixes @ mults[:-1]
        self.low = (shift + run_first).tolist()
        self.high = (shift + run_last).tolist()

    def first(self, r: int) -> np.ndarray:
        """Position of the first key at or above each cell's interval."""
        return np.searchsorted(self.keys, self.keys + self.low[r])

    def nonempty(self, pos: np.ndarray, r: int) -> np.ndarray:
        return self.guarded[pos] <= self.keys + self.high[r]

    def end(self, src: np.ndarray, r: int) -> np.ndarray:
        """One past the last key inside the interval of each ``src`` cell."""
        return np.searchsorted(self.keys, self.keys[src] + self.high[r], side="right")


class _RowProbe:
    """The overflow fallback: structured rows, range test on coordinates."""

    def __init__(self, coords: np.ndarray, runs) -> None:
        prefixes, run_first, run_last, _ = runs
        self.coords = coords
        self.rows = _row_view(coords)
        self.low = np.column_stack([prefixes, run_first])
        self.high = np.column_stack([prefixes, run_last])

    def first(self, r: int) -> np.ndarray:
        return np.searchsorted(self.rows, _row_view(self.coords + self.low[r]))

    def nonempty(self, pos: np.ndarray, r: int) -> np.ndarray:
        coords, high = self.coords, self.high[r]
        found = coords[np.minimum(pos, len(coords) - 1)]
        return (
            (pos < len(coords))
            & (found[:, :-1] == coords[:, :-1] + high[:-1]).all(axis=1)
            & (found[:, -1] <= coords[:, -1] + high[-1])
        )

    def end(self, src: np.ndarray, r: int) -> np.ndarray:
        upper = _row_view(self.coords[src] + self.high[r])
        return np.searchsorted(self.rows, upper, side="right")


def _interval_probes(
    coords: np.ndarray, runs: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Probe every cell of ``coords`` along every offset run.

    ``coords`` must hold distinct rows in ascending lexicographic order
    (what :func:`_cell_table` produces, and any subset of it).  Returns
    ``(src, first, count, per_run)``: for each non-empty probe, run-major
    and ``src`` ascending within a run, cells ``first .. first + count - 1``
    are ``src``'s neighbours along that run; ``per_run`` counts the
    non-empty probes of each run.  Only the non-empty probes (about 15%
    at d = 4) pay for the second search that finds where a range ends.
    """
    prefixes, run_first, run_last, _ = runs
    reach = int(np.abs(np.concatenate([prefixes.ravel(), run_first, run_last])).max(initial=0))
    lo = coords.min(axis=0) - reach
    spans = coords.max(axis=0) + reach + 1 - lo
    probe: Union[_PackedProbe, _RowProbe]
    if float(np.prod(spans.astype(np.float64))) < 2.0 ** 62:
        probe = _PackedProbe(coords, runs, lo, spans)
    else:
        probe = _RowProbe(coords, runs)
    parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    per_run = np.zeros(len(run_first), dtype=np.int64)
    for r in range(len(run_first)):
        pos = probe.first(r)
        src = np.flatnonzero(probe.nonempty(pos, r))
        if len(src):
            first = pos[src]
            parts.append((src, first, probe.end(src, r) - first))
            per_run[r] = len(src)
    if not parts:
        return _EMPTY_IDX, _EMPTY_IDX, _EMPTY_IDX, per_run
    src, first, count = (np.concatenate(column) for column in zip(*parts))
    return src, first, count, per_run


def expand_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[k], starts[k] + lengths[k])`` over ``k``.

    Zero-length ranges contribute nothing.  One cumulative sum over a step
    array: 1 inside a range, and at each range start the jump from the
    previous range's end.  ``values[expand_ranges(s, l)]`` gathers the
    ranges ``values[s[k] : s[k] + l[k]]`` in one fancy index.
    """
    if not lengths.all():
        keep = lengths > 0
        starts, lengths = starts[keep], lengths[keep]
    if not len(starts):
        return _EMPTY_IDX
    steps = np.ones(int(lengths.sum()), dtype=np.int64)
    steps[0] = starts[0]
    steps[np.cumsum(lengths[:-1])] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
    return np.cumsum(steps, out=steps)


def _positive_offset_mask(offsets: np.ndarray) -> np.ndarray:
    """Mask of lexicographically positive offsets (one direction per pair)."""
    nonzero = offsets != 0
    has_any = nonzero.any(axis=1)
    first = np.argmax(nonzero, axis=1)
    leading = offsets[np.arange(len(offsets)), first]
    return has_any & (leading > 0)


def _cell_table(coords: np.ndarray) -> Tuple[np.ndarray, Dict[CellCoord, np.ndarray]]:
    """Group row indices of an integer matrix by identical rows.

    One stable ``np.lexsort`` is the whole bucketing pass: stability makes
    the indices inside each group come out already ascending, and the
    group bodies are zero-copy views into the single sorted index array.
    Returns the distinct rows as an ``(m, d)`` array (lexicographically
    ascending) together with the ``row tuple -> indices`` dict in the same
    order.
    """
    if len(coords) == 0:
        return np.empty((0, coords.shape[1]), dtype=coords.dtype), {}
    order = np.lexsort(coords.T[::-1])
    sorted_coords = coords[order]
    change = np.any(sorted_coords[1:] != sorted_coords[:-1], axis=1)
    starts = np.concatenate([[0], np.nonzero(change)[0] + 1])
    bounds = np.append(starts, len(coords))
    rows = sorted_coords[starts]
    groups: Dict[CellCoord, np.ndarray] = {}
    for i, key in enumerate(rows.tolist()):
        groups[tuple(key)] = order[bounds[i]:bounds[i + 1]]
    return rows, groups


def _group_by_rows(coords: np.ndarray) -> Dict[CellCoord, np.ndarray]:
    """The ``row tuple -> indices`` dict of :func:`_cell_table`."""
    return _cell_table(coords)[1]


_EMPTY_IDX = np.empty(0, dtype=np.int64)
