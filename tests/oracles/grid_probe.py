"""Per-offset probe reference for the grid's eps-neighbour cell adjacency.

One ``searchsorted`` of every cell per neighbour offset: rows are packed
into mixed-radix int64 keys (the radix is padded by the offset reach, so a
shift is one scalar addition), with a structured row view as the overflow
fallback.  Slow but obviously right; :class:`repro.grid.cells.Grid` must
reproduce its CSR adjacency and cell-pair arrays exactly (values, order
and dtype).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro.grid.cells import neighbor_offsets

_EMPTY = np.empty(0, dtype=np.int64)


def _row_view(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    return a.view([("", a.dtype)] * a.shape[1]).ravel()


def _positive(offsets: np.ndarray) -> np.ndarray:
    nonzero = offsets != 0
    first = np.argmax(nonzero, axis=1)
    leading = offsets[np.arange(len(offsets)), first]
    return offsets[nonzero.any(axis=1) & (leading > 0)]


def offset_hits(
    coords: np.ndarray, offsets: np.ndarray, reach: int, *, packed: bool = True
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Per offset, ``(i, j)`` with ``coords[i] + off == coords[j]``, ``i`` ascending.

    ``packed=False`` forces the structured-row fallback that production
    takes when packed keys would overflow.
    """
    lo = coords.min(axis=0) - reach
    spans = coords.max(axis=0) + reach + 1 - lo
    if packed and float(np.prod(spans.astype(np.float64))) < 2.0 ** 62:
        mults = np.concatenate([[1], np.cumprod(spans[::-1][:-1])])[::-1]
        base = (coords - lo) @ mults
        shifts = [int(off @ mults) for off in offsets]
    else:
        base = _row_view(coords)
        shifts = None
    order = np.argsort(base, kind="stable")
    sorted_keys = base[order]
    last = len(sorted_keys) - 1
    for k, off in enumerate(offsets):
        shifted = base + shifts[k] if shifts is not None else _row_view(coords + off)
        pos = np.searchsorted(sorted_keys, shifted)
        np.minimum(pos, last, out=pos)
        hit = np.nonzero(sorted_keys[pos] == shifted)[0]
        if len(hit):
            yield hit, order[pos[hit]]


def _grid_parts(grid):
    keys = list(grid.cells.keys())
    offsets = neighbor_offsets(grid.eps, grid.side, grid.dim)
    reach = int(np.abs(offsets).max())
    return keys, offsets, reach


def csr_adjacency(grid, *, packed: bool = True) -> Tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of the adjacency, each row in offset-table order."""
    keys, offsets, reach = _grid_parts(grid)
    m = len(keys)
    if m < 2:
        return np.zeros(m + 1, dtype=np.int64), _EMPTY
    coords = np.asarray(keys, dtype=np.int64).reshape(m, grid.dim)
    nonzero = offsets[(offsets != 0).any(axis=1)]
    hits = list(offset_hits(coords, nonzero, reach, packed=packed))
    if not hits:
        return np.zeros(m + 1, dtype=np.int64), _EMPTY
    ii = np.concatenate([h[0] for h in hits])
    jj = np.concatenate([h[1] for h in hits])
    order = np.argsort(ii, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(ii, minlength=m))]).astype(np.int64)
    return indptr, jj[order]


def cell_pair_arrays(
    grid, subset=None, *, packed: bool = True
) -> Tuple[List[tuple], np.ndarray, np.ndarray]:
    """``(keys, i, j)``: one pair per positive offset hit, offset-major, ``i`` ascending."""
    keys, offsets, reach = _grid_parts(grid)
    if subset is not None:
        allowed = set(map(tuple, subset))
        keys = [c for c in keys if c in allowed]
    if len(keys) < 2:
        return keys, _EMPTY, _EMPTY
    coords = np.asarray(keys, dtype=np.int64).reshape(len(keys), grid.dim)
    hits = list(offset_hits(coords, _positive(offsets), reach, packed=packed))
    if not hits:
        return keys, _EMPTY, _EMPTY
    return (
        keys,
        np.concatenate([h[0] for h in hits]),
        np.concatenate([h[1] for h in hits]),
    )
