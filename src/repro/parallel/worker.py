"""Worker-process side of the parallel grid pipeline.

Each pool worker is initialised once per phase with a *payload* dict
carrying the parent's :class:`~repro.grid.cells.Grid` itself — under the
preferred ``fork`` start method the object (including its lazily built,
expensive neighbour-adjacency table, which the parent warms first) is
inherited copy-on-write for free; under ``spawn`` it is pickled once per
worker.  The payload also carries the *remaining* time
budget and the memory limit, from which the worker builds its own
cooperative :class:`~repro.runtime.Deadline` and
:class:`~repro.runtime.MemoryBudget` — budgets are polled inside workers
exactly as they are in the serial hot loops, and a worker that trips one
re-raises the library's own error across the pool boundary (the errors
are pickle-safe; see ``repro.errors``).

Task functions reuse the *serial* implementations (`label_cores`,
`assign_borders`, the cellgraph edge predicates) restricted to a shard's
cells, so there is a single source of truth for the per-cell and per-pair
decisions and serial/parallel drift is impossible by construction.

Task items are ``(start, stop)`` ranges on every transport: over the
grid's cell order for cores/borders, over the parent's task-ordered
candidate-pair arrays (``pair_i`` / ``pair_j``) for edges.  Under the
shared-memory transport (:mod:`repro.parallel.shm`) the payload carries
segment *headers* instead of the grid and the phase inputs: the worker
attaches read-only, reconstructs the grid as views
(:meth:`Grid.from_soa`), and writes per-cell results into the phase's
shared output slabs — the pickled return value shrinks to an ack (or the
rare border-slab overflow).  Slab writes are disjoint per shard and
position-stable, so a retried or re-pooled shard rewrites exactly the
same slots with exactly the same values.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.border import assign_borders
from repro.core.cellgraph import (
    approx_edge_predicate,
    core_cells,
    exact_edge_predicate,
)
from repro.core.edgekernel import apply_preunion_dense, cell_arrays, resolve_edges
from repro.core.labeling import label_cores
from repro.grid.cells import CellCoord, Grid
from repro.parallel.shard import Range
from repro.runtime.deadline import Deadline
from repro.runtime.memory import MemoryBudget
from repro.utils.unionfind import DenseUnionFind

#: Per-process context, set by :func:`init_worker` (pool initializer).
_CTX: Optional[Dict[str, object]] = None


def build_context(payload: Dict[str, object], *, in_worker: bool = True) -> Dict[str, object]:
    """Build a task context from a phase payload.

    ``in_worker`` distinguishes a pool worker from the parent process
    re-executing a quarantined shard: injected worker faults (see
    :mod:`repro.runtime.faultinject`) only fire when it is true, because a
    poison shard is by definition one that crashes *workers* but computes
    fine serially.
    """
    grid: Optional[Grid] = payload.get("grid")
    shm_in: Dict[str, np.ndarray] = {}
    shm_out: Dict[str, np.ndarray] = {}
    io_block = None
    if grid is None:
        # Shared-memory transport: attach the published grid and the
        # phase's IO block.  Attaching never copies and never takes
        # ownership — the parent unlinks (see repro.parallel.shm).
        from repro.parallel import shm as shm_transport

        grid = shm_transport.attach_grid(payload["grid_header"])
        io_block = shm_transport.SharedBlock.attach(
            payload["shm_io"], writable=True
        )
        for name, arr in io_block.arrays.items():
            if name.startswith("out_"):
                shm_out[name[4:]] = arr
            else:
                arr.flags.writeable = False
                shm_in[name[3:]] = arr
    time_remaining = payload.get("time_remaining")
    memory_limit_mb = payload.get("memory_limit_mb")
    # Attached segments appear in this process's RSS but were charged to
    # the parent's budget once at publication — subtract them here so an
    # N-worker fleet does not count the shared state N extra times.
    shared_bytes = float(payload.get("shm_shared_bytes") or 0) if in_worker else 0.0
    ctx: Dict[str, object] = {
        "grid": grid,
        "deadline": None if time_remaining is None else Deadline(float(time_remaining)),
        "memory": None if memory_limit_mb is None else MemoryBudget(
            float(memory_limit_mb), shared_bytes=shared_bytes
        ),
        "min_pts": payload.get("min_pts"),
        "phase": payload.get("phase", ""),
        "edge": None,
        "fault_spec": payload.get("fault_spec"),
        "in_worker": bool(in_worker),
        "shm_in": shm_in,
        "shm_out": shm_out,
        "shm_io_block": io_block,
    }

    def phase_input(name: str):
        # Pickled/thread transports carry phase inputs in the payload; shm
        # carries them in the IO block — either way the task reads one name.
        value = payload.get(name)
        return shm_in.get(name) if value is None else value

    ctx["known_core"] = phase_input("known_core")
    core_mask = phase_input("core_mask")
    if core_mask is not None:
        ctx["core_mask"] = np.asarray(core_mask, dtype=bool)
        ctx["cells"] = core_cells(grid, ctx["core_mask"])
    core_labels = phase_input("core_labels")
    if core_labels is not None:
        ctx["core_labels"] = np.asarray(core_labels, dtype=np.int64)
    ctx["pair_i"] = phase_input("pair_i")
    ctx["pair_j"] = phase_input("pair_j")
    # Monotone-sweep connectivity seed, restricted (as on the parent side)
    # to pairs whose cells are both core cells of *this* run.
    preunion = payload.get("preunion")
    if preunion:
        cells = ctx["cells"]
        ctx["preunion"] = [
            (c1, c2) for c1, c2 in preunion if c1 in cells and c2 in cells
        ]
    edge_rule = payload.get("edge_rule")
    if edge_rule == "exact":
        structures = payload.get("structures")
        ctx["edge"] = exact_edge_predicate(
            grid,
            ctx["cells"],
            payload["bcp_strategy"],
            structures=dict(structures) if structures else None,
        )
        ctx["reject_eps"] = None
    elif edge_rule == "approx":
        structures = payload.get("structures")
        ctx["edge"] = approx_edge_predicate(
            grid,
            ctx["cells"],
            payload["rho"],
            payload.get("exact_leaf_size"),
            structures=dict(structures) if structures else None,
            deadline=ctx["deadline"],
        )
        ctx["reject_eps"] = grid.eps * (1.0 + float(payload["rho"]))
    return ctx


def init_worker(payload: Dict[str, object]) -> None:
    """Pool initializer: adopt the parent's grid, build per-process guards."""
    global _CTX
    _CTX = build_context(payload, in_worker=True)


def _ctx() -> Dict[str, object]:
    if _CTX is None:
        raise RuntimeError("worker context not initialised; init_worker did not run")
    return _CTX


def _guards() -> Tuple[Optional[Deadline], Optional[MemoryBudget], str]:
    ctx = _ctx()
    return ctx["deadline"], ctx["memory"], str(ctx["phase"])


def adjacency_task(block: Tuple[int, int]) -> Tuple[int, np.ndarray, np.ndarray]:
    """All-pairs CSR rows for the cell ids ``start .. stop - 1``.

    Returns ``(start, lengths, indices)`` so the parent can place the
    block whatever order the results arrive in.
    """
    ctx = _ctx()
    deadline, memory, phase = _guards()
    if deadline is not None:
        deadline.tick()
    grid: Grid = ctx["grid"]
    start, stop = block
    lengths, indices = grid.adjacency_rows(start, stop)
    if memory is not None:
        memory.check(phase)
    return start, lengths, indices


def _cell_range(ctx: Dict[str, object], block: Range) -> List[CellCoord]:
    """Resolve a ``(start, stop)`` item against the grid's cell order
    (cached per context — the key list is built once per phase)."""
    keys = ctx.get("_cell_keys")
    if keys is None:
        keys = list(ctx["grid"].cells.keys())
        ctx["_cell_keys"] = keys
    start, stop = block
    return keys[start:stop]


def cores_task(block: Range) -> object:
    """Core determination for the cell ids ``start .. stop - 1``.

    Pickled/thread transports: the shard's ``(point_indices, core_flags)``.
    Shared-memory transport: flags are written into the shared ``core``
    slab — disjoint per shard, so writes are idempotent across retries —
    and only a count is returned.
    """
    ctx = _ctx()
    deadline, memory, phase = _guards()
    grid: Grid = ctx["grid"]
    cell_block = _cell_range(ctx, block)
    mask = label_cores(
        grid,
        int(ctx["min_pts"]),
        deadline=deadline,
        cells=cell_block,
        known_core=ctx.get("known_core"),
    )
    if memory is not None:
        memory.check(phase)
    blocks = [grid.points_in(c) for c in cell_block]
    idx = np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)
    slab = ctx["shm_out"].get("core")
    if slab is not None:
        slab[idx] = mask[idx]
        return int(len(idx))
    return idx, mask[idx]


def _edge_arrays(ctx: Dict[str, object]):
    """Per-phase dense cell arrays for the staged kernel (built once)."""
    arrays = ctx.get("_edge_arrays")
    if arrays is None:
        arrays = ctx["_edge_arrays"] = cell_arrays(
            ctx["grid"].points, ctx["cells"]
        )
    return arrays


def edges_task(block: Range) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve a range of oriented candidate pairs; return the unions made.

    ``block`` is a ``(start, stop)`` range of the parent's task-ordered
    ``pair_i`` / ``pair_j`` arrays (ids in the core-cell order).  The chunk
    runs the staged edge kernel (:func:`repro.core.edgekernel.resolve_edges`)
    against a chunk-local forest: vectorised quick-accept/quick-reject
    passes settle most pairs, survivors run the per-pair predicate
    cheapest-first, and the chunk-local connectivity short-circuits
    redundant tests (for an intra-shard chunk this is the full serial
    short-circuit).  Only the unions that *merged* two chunk-local
    components are returned — a spanning forest, so fewer than the chunk's
    cell count, and it spans the same connectivity as the chunk's true
    edge set, so the parent's stitching pass reconstructs the global
    components exactly.

    The result is three int64 arrays ``(t, a, b)``: ``t`` is the position
    of the pair that caused the union in the whole ``pair_i`` / ``pair_j``
    layout, ``(a, b)`` its cell ids.  A fresh chunk-local forest makes the
    kernel's schedule a pure function of the chunk, so a retried or
    duplicated task returns exactly the same triples and the parent's
    position-stable writes are idempotent.

    A monotone-sweep ``preunion`` seed (when present) is folded into the
    chunk-local forest too: pairs its connectivity already covers skip
    their edge tests and are *not* emitted — sound because the parent
    seeds its stitching forest with the very same pairs.
    """
    ctx = _ctx()
    deadline, memory, phase = _guards()
    arrays = _edge_arrays(ctx)
    uf = DenseUnionFind(len(arrays))
    apply_preunion_dense(uf, arrays.index, ctx.get("preunion"))
    grid: Grid = ctx["grid"]
    start, stop = block
    ii = np.asarray(ctx["pair_i"][start:stop], dtype=np.int64)
    jj = np.asarray(ctx["pair_j"][start:stop], dtype=np.int64)
    unions = resolve_edges(
        grid.points, grid.eps, arrays, ii, jj, uf, ctx["edge"],
        reject_eps=ctx.get("reject_eps"), deadline=deadline,
    )
    if memory is not None:
        memory.check(phase)
    t, a, b = np.array(unions, dtype=np.int64).reshape(-1, 3).T
    return t + start, a, b


def borders_task(block: Range) -> List[Tuple[int, Tuple[int, ...]]]:
    """Border assignment for the cell ids ``start .. stop - 1``, as
    ``(point, cluster-ids)`` items.

    Shared-memory transport: each border point's cluster ids land in its
    row of the ``border_labels`` slab and the id count in
    ``border_count`` — the labels row is written *before* the count, so a
    row is visible to the parent only once complete (a shard killed
    mid-write leaves count 0 and the retry rewrites the row).  Points
    touching more clusters than the slab is wide are returned as the
    (tiny, pickled) overflow remainder.
    """
    ctx = _ctx()
    deadline, memory, phase = _guards()
    out = assign_borders(
        ctx["grid"],
        ctx["core_mask"],
        ctx["core_labels"],
        deadline=deadline,
        cells=_cell_range(ctx, block),
    )
    if memory is not None:
        memory.check(phase)
    if "border_labels" in ctx["shm_out"]:
        labels = ctx["shm_out"]["border_labels"]
        counts = ctx["shm_out"]["border_count"]
        width = labels.shape[1]
        overflow: List[Tuple[int, Tuple[int, ...]]] = []
        for point, cluster_ids in out.items():
            k = len(cluster_ids)
            if k <= width:
                labels[point, :k] = cluster_ids
                counts[point] = k
            else:
                overflow.append((point, cluster_ids))
        return overflow
    return list(out.items())


#: Task-kind dispatch used by the supervised executor.
_TASKS = {
    "adjacency": adjacency_task,
    "cores": cores_task,
    "edges": edges_task,
    "borders": borders_task,
}


def supervised_task(kind: str, seq: int, item):
    """Run one tracked shard: fault check, then dispatch on ``kind``.

    The supervisor submits every shard through this wrapper so each task
    carries a stable ``(phase, seq)`` identity — the address injected
    worker faults (kill / hang / poison) are keyed on, and the unit the
    parent's retry and quarantine bookkeeping tracks.
    """
    ctx = _ctx()
    spec = ctx.get("fault_spec")
    if spec is not None and ctx.get("in_worker", True):
        from repro.runtime import faultinject

        faultinject.trigger_worker_fault(spec, str(ctx["phase"]), int(seq))
    return _TASKS[kind](item)


def make_local_runner(payload: Dict[str, object]):
    """A parent-process shard executor for quarantine / serial requeue.

    Builds the task context lazily (edge predicates are not free) and only
    once per phase, then runs the *same* task functions the workers run —
    a single source of truth, so a quarantined shard's result is
    indistinguishable from a pooled one.  The module-global worker context
    is swapped in around each call and restored after, so parent-side
    execution cannot leak state into a later ``init_worker``.
    """
    state: Dict[str, object] = {}

    def run(kind: str, item):
        global _CTX
        if "ctx" not in state:
            state["ctx"] = build_context(payload, in_worker=False)
        prev = _CTX
        _CTX = state["ctx"]
        try:
            return _TASKS[kind](item)
        finally:
            _CTX = prev

    return run
