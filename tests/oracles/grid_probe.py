"""Reference builds of the grid's eps-neighbour cell adjacency.

The per-offset probe: one ``searchsorted`` of every cell per neighbour
offset, with rows packed into mixed-radix int64 keys (the radix is padded
by the offset reach, so a shift is one scalar addition) and a structured
row view as the overflow fallback.  The all-pairs build: box tests of each
cell against every cell, kept as a ``cell -> [neighbour cells]`` dict.
Slow but obviously right; :class:`repro.grid.cells.Grid` must reproduce
their CSR adjacency and cell-pair arrays exactly (values, order and dtype).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

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


def allpairs_adjacency(grid) -> Dict[tuple, List[tuple]]:
    """``cell -> [neighbour cells]`` by box tests against every cell, ids ascending."""
    keys = list(grid.cells.keys())
    coords = np.asarray(keys, dtype=np.int64).reshape(len(keys), grid.dim)
    limit = grid.eps * grid.eps * (1.0 + 1e-9)
    out: Dict[tuple, List[tuple]] = {}
    for key, row in zip(keys, coords):
        gaps = np.maximum(np.abs(row - coords) - 1, 0) * grid.side
        ok = np.einsum("md,md->m", gaps, gaps) <= limit
        out[key] = [keys[j] for j in np.nonzero(ok)[0] if keys[j] != key]
    return out


def allpairs_csr(grid) -> Tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of :func:`allpairs_adjacency` over the cell order."""
    keys = list(grid.cells.keys())
    index = {c: t for t, c in enumerate(keys)}
    rows = allpairs_adjacency(grid)
    indptr = np.zeros(len(keys) + 1, dtype=np.int64)
    np.cumsum([len(rows[c]) for c in keys], out=indptr[1:])
    indices = np.asarray([index[n] for c in keys for n in rows[c]], dtype=np.int64)
    return indptr, indices


def allpairs_pair_arrays(grid, subset=None) -> Tuple[List[tuple], np.ndarray, np.ndarray]:
    """``(keys, i, j)`` walked off :func:`allpairs_adjacency`: ``i``-major, ``j > i``."""
    keys = list(grid.cells.keys())
    if subset is not None:
        allowed = set(map(tuple, subset))
        keys = [c for c in keys if c in allowed]
    if len(keys) < 2:
        return keys, _EMPTY, _EMPTY
    index = {c: t for t, c in enumerate(keys)}
    rows = allpairs_adjacency(grid)
    ii: List[int] = []
    jj: List[int] = []
    for t, cell in enumerate(keys):
        for other in rows[cell]:
            u = index.get(other)
            if u is not None and cell < other:
                ii.append(t)
                jj.append(u)
    return keys, np.asarray(ii, dtype=np.int64), np.asarray(jj, dtype=np.int64)
