"""List-form shard cutting and pair splitting: the per-cell references.

``shard_cells`` walks a sorted cell list with the greedy point-count cut;
``pair_layout`` splits key-tuple pairs into per-shard intra lists and
boundary chunks, in emission order and orientation.  The array forms in
:mod:`repro.parallel.shard` must reproduce both exactly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.grid.cells import CellCoord

Pair = Tuple[CellCoord, CellCoord]


def shard_cells(
    cells: Iterable[CellCoord],
    n_shards: int,
    weights: Mapping[CellCoord, int] | None = None,
) -> List[List[CellCoord]]:
    """Partition ``cells`` into up to ``n_shards`` contiguous blocks of the
    sorted order, each aimed at ``total / n_shards`` weight."""
    ordered = sorted(cells)
    if n_shards <= 1 or len(ordered) <= 1:
        return [ordered] if ordered else []
    total = sum(1 if weights is None else int(weights[c]) for c in ordered)
    target = max(1.0, total / n_shards)
    shards: List[List[CellCoord]] = []
    block: List[CellCoord] = []
    acc = 0
    remaining = total
    for cell in ordered:
        w = 1 if weights is None else int(weights[cell])
        block.append(cell)
        acc += w
        remaining -= w
        # Cut when the block reached its target, but never strand the tail.
        if acc >= target and len(shards) < n_shards - 1 and remaining > 0:
            shards.append(block)
            block, acc = [], 0
    if block:
        shards.append(block)
    return shards


def pair_layout(
    pairs: Iterable[Pair],
    shards: Sequence[Sequence[CellCoord]],
    chunk_pairs: int,
) -> List[List[Pair]]:
    """Task lists: non-empty per-shard intra lists, then boundary chunks."""
    owner: Dict[CellCoord, int] = {
        cell: sid for sid, block in enumerate(shards) for cell in block
    }
    intra: List[List[Pair]] = [[] for _ in shards]
    boundary: List[Pair] = []
    for c1, c2 in pairs:
        s1 = owner[c1]
        if s1 == owner[c2]:
            intra[s1].append((c1, c2))
        else:
            boundary.append((c1, c2))
    tasks = [block for block in intra if block]
    tasks.extend(
        boundary[i:i + chunk_pairs] for i in range(0, len(boundary), chunk_pairs)
    )
    return tasks
