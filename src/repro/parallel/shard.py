"""Spatially contiguous sharding of the grid ``T`` for the worker pool.

A *shard* is a contiguous range of dense cell ids handed to one worker
task.  Cell ids follow the grid's lexicographic cell order
(:func:`repro.grid.cells._cell_table`; the core cells keep that order), so
:func:`shard_cells` only cuts the id sequence into runs of roughly equal
point count:

* lexicographic order keeps a shard spatially coherent (cells that share a
  prefix of coordinates are neighbours along the last axes), so the search
  structures a worker builds for one cell tend to be reused by the next;
* balancing on *point* count rather than cell count evens out the skewed
  occupancy the seed spreader produces (a few dense cells, many sparse
  ones).

For the component phase, :func:`pair_tasks` lays the candidate cell pairs
emitted by :meth:`Grid.neighbor_cell_pair_arrays` out in task order:
*intra-shard* blocks (both endpoints in one shard — the worker's local
union-find short-circuits them like the serial loop) followed by chunks of
*boundary* pairs crossing shards, which the parent stitches into the
global forest.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

Range = Tuple[int, int]


def shard_cells(sizes: np.ndarray, n_shards: int) -> List[Range]:
    """Cut the cell ids ``0 .. len(sizes) - 1`` into contiguous ``(start, stop)`` ranges.

    ``sizes`` is each cell's weight (typically its point count).  The
    greedy cut closes a range at the first cell where the range's weight
    reaches ``total / n_shards`` (at least 1), but never strands the tail:
    no cut is made once no weight is left after the cell, and at most
    ``n_shards - 1`` cuts are made.  Each cut is one ``searchsorted`` over
    the cumulative weights.  Ranges are never empty, so there may be fewer
    than ``n_shards`` of them when there are few cells.
    """
    m = len(sizes)
    if m == 0:
        return []
    cuts = [0]
    if n_shards > 1 and m > 1:
        cum = np.cumsum(sizes, dtype=np.int64)
        total = int(cum[-1])
        # Integer weights reach the float target exactly when they reach
        # its ceiling, which keeps the search in integers.
        step = math.ceil(max(1.0, total / n_shards))
        base = 0
        while len(cuts) < n_shards:
            k = int(np.searchsorted(cum, base + step))
            if k >= m or cum[k] >= total:
                break
            cuts.append(k + 1)
            base = int(cum[k])
    cuts.append(m)
    return list(zip(cuts[:-1], cuts[1:]))


def pair_tasks(
    ii: np.ndarray,
    jj: np.ndarray,
    shards: List[Range],
    chunk_pairs: int,
) -> Tuple[np.ndarray, np.ndarray, List[Range]]:
    """Task-ordered ``(pair_i, pair_j)`` arrays and their ``(start, stop)`` tasks.

    ``ii`` / ``jj`` are candidate pairs over the cell ids that ``shards``
    partitions.  The layout holds, in this order, one block per shard with
    pairs inside it (shard order; shards without any are skipped), then
    the boundary pairs in chunks of at most ``chunk_pairs``.  Every block
    keeps the pairs' emission order and every pair its orientation — the
    approximate edge rule is only deterministic per *oriented* pair, and
    serial/parallel equivalence depends on both paths asking the same
    oriented questions.
    """
    lengths = [stop - start for start, stop in shards]
    owner = np.repeat(np.arange(len(shards), dtype=np.int64), lengths)
    si = owner[ii]
    intra = si == owner[jj]
    inside = np.flatnonzero(intra)
    inside = inside[np.argsort(si[inside], kind="stable")]
    order = np.concatenate([inside, np.flatnonzero(~intra)])
    tasks: List[Range] = []
    pos = 0
    for count in np.bincount(si[inside], minlength=len(shards)).tolist():
        if count:
            tasks.append((pos, pos + count))
            pos += count
    n_pairs = len(order)
    tasks.extend(
        (start, min(start + chunk_pairs, n_pairs))
        for start in range(pos, n_pairs, chunk_pairs)
    )
    return ii[order], jj[order], tasks
