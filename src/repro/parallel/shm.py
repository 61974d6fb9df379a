"""Zero-copy shared-memory transport for the parallel grid pipeline.

PR 4/5 turned the pipeline's hot state into structure-of-arrays numpy
buffers — exactly the layout ``multiprocessing.shared_memory`` wants.
This module publishes that state (points, per-point cell coordinates,
packed cell keys + CSR point membership, CSR cell adjacency) into named
shared-memory segments once per run, so pool workers *attach* and
reconstruct read-only numpy views instead of receiving pickled copies,
and write their results into preallocated shared output slabs instead of
pickling them back.  The parent still stitches fragments with the serial
insertion-order rule, so output stays byte-identical to serial (the
differential oracle of ``tests/test_shm_equivalence.py``).

Ownership model (the contract ``tests/test_shm_equivalence.py`` enforces):

* **The parent owns every segment.** It creates, registers, and unlinks
  them — in ``finally`` blocks around each fan-out, on every supervisor
  recovery rung (the supervisor never sees the segments; the executor's
  ``finally`` runs whether the ladder retried, respawned, quarantined, or
  gave up), and in an ``atexit`` safety net for anything still live at
  interpreter shutdown.
* **Workers only attach.** :meth:`SharedBlock.attach` suppresses the
  ``resource_tracker`` registration while mapping (see
  :func:`_untracked_attach`) so a worker's exit — normal or ``SIGKILL`` —
  never unlinks a segment it does not own, never trips the tracker's
  double-unlink warning, and never corrupts the tracker registry the
  forked fleet shares with the parent (the latent cleanup gap this PR
  fixes).

Segment layout: one segment packs many arrays at 64-byte-aligned offsets.
The *header* — a small picklable dict ``{segment, nbytes, fields: {name:
{offset, dtype, shape}}, meta}`` — travels in the task payload; attaching
is ``SharedMemory(name)`` plus one ``np.ndarray(buffer=...)`` per field,
no data copied anywhere.  ``meta`` carries the grid scalars (eps, side)
and a dataset fingerprint so an attach onto the wrong segment fails loudly
instead of computing garbage.
"""

from __future__ import annotations

import atexit
import os
import secrets
import threading
import zlib
from contextlib import contextmanager
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Mapping, Optional, Set, Tuple

import numpy as np

from repro.core.corekernel import grid_soa as cell_soa
from repro.errors import ParameterError
from repro.grid.cells import Grid
from repro.runtime.memory import MemoryBudget
from repro.utils.log import get_logger

_log = get_logger("parallel.shm")

#: Name prefix of every segment this module creates; the leak tests scan
#: ``/dev/shm`` for it.
SEGMENT_PREFIX = "repro-shm"

#: Byte alignment of every array packed into a segment.
_ALIGN = 64

#: Serialises the register-suppressing attach (one mapping at a time; the
#: patch on ``resource_tracker.register`` must not race another thread's
#: legitimate create).
_ATTACH_LOCK = threading.Lock()


def _segment_name() -> str:
    return f"{SEGMENT_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"


@contextmanager
def _untracked_attach():
    """Suppress ``resource_tracker`` registration while attaching.

    ``SharedMemory(name)`` registers every mapping for unlink-at-exit;
    correct for owners, wrong for attachers: a worker dying (or being
    killed) with a registration would either unlink the parent's live
    segment or emit the tracker's "leaked shared_memory" warning.  Python
    3.13 grew ``track=False`` for exactly this.  On 3.10-3.12 the popular
    workaround — ``resource_tracker.unregister`` right after attach — is
    itself buggy under the fork start method: forked workers share the
    parent's tracker daemon, so the worker's unregister removes the
    *parent's* registration and the owner's eventual ``unlink()`` raises a
    ``KeyError`` inside the tracker.  Suppressing the register call at the
    source keeps the shared registry balanced: exactly one register (the
    creator's) and one unregister (the creator's unlink).
    """
    original = resource_tracker.register
    with _ATTACH_LOCK:
        resource_tracker.register = lambda name, rtype: None
        try:
            yield
        finally:
            resource_tracker.register = original


#: Owner-side registry backing the atexit safety net.
_LIVE_BLOCKS: "Set[SharedBlock]" = set()


def _cleanup_at_exit() -> None:  # pragma: no cover - runs at interpreter exit
    for block in list(_LIVE_BLOCKS):
        block.close()


atexit.register(_cleanup_at_exit)


def fingerprint_points(points: np.ndarray) -> str:
    """Cheap, deterministic dataset fingerprint for the segment header.

    Shape plus a CRC over a strided sample — enough to catch an attach
    against the wrong dataset's segment without hashing gigabytes.
    """
    n = int(points.shape[0])
    stride = max(1, n // 64)
    sample = np.ascontiguousarray(points[::stride])
    crc = zlib.crc32(sample.tobytes()) & 0xFFFFFFFF
    return f"{n}x{int(points.shape[1])}-{crc:08x}"


class SharedBlock:
    """One named shared-memory segment packing several numpy arrays.

    Created by the owner from a ``{name: array}`` mapping; attached by
    workers from the picklable :attr:`header`.  ``arrays`` holds the live
    views either way.  :meth:`close` is idempotent and safe on every
    error path: owners unlink the name first (so nothing can leak even if
    releasing the local mapping fails), then drop the mapping.
    """

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        header: Dict[str, object],
        arrays: Dict[str, np.ndarray],
        *,
        owner: bool,
    ) -> None:
        self.segment = segment
        self.header = header
        self.arrays = arrays
        self.owner = owner
        self.closed = False

    # ------------------------------------------------------------ properties

    @property
    def name(self) -> str:
        return str(self.header["segment"])

    @property
    def nbytes(self) -> int:
        return int(self.header["nbytes"])

    # ------------------------------------------------------------- lifecycle

    @classmethod
    def create(
        cls,
        arrays: Mapping[str, np.ndarray],
        *,
        meta: Optional[Mapping[str, object]] = None,
        memory: Optional[MemoryBudget] = None,
        phase: str = "shm-publish",
    ) -> "SharedBlock":
        """Allocate a segment, copy ``arrays`` in, return the owning block.

        The parent's :class:`~repro.runtime.memory.MemoryBudget` (when
        given) is charged for the segment *before* allocation — once,
        fleet-wide: workers subtract the shared bytes from their own RSS
        polls (see :attr:`MemoryBudget.shared_bytes`), so a segment is
        never double-counted per attaching process.
        """
        packed: Dict[str, np.ndarray] = {
            name: np.ascontiguousarray(arr) for name, arr in arrays.items()
        }
        fields: Dict[str, Dict[str, object]] = {}
        offset = 0
        for name, arr in packed.items():
            offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
            fields[name] = {
                "offset": offset,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
            }
            offset += arr.nbytes
        total = max(1, offset)
        if memory is not None:
            memory.charge_estimate(total, phase)
        segment = None
        for _ in range(3):  # name collisions are ~impossible but cheap to retry
            try:
                segment = shared_memory.SharedMemory(
                    name=_segment_name(), create=True, size=total
                )
                break
            except FileExistsError:  # pragma: no cover
                continue
        if segment is None:  # pragma: no cover
            raise OSError("could not allocate a uniquely named shared-memory segment")
        views: Dict[str, np.ndarray] = {}
        for name, arr in packed.items():
            spec = fields[name]
            view = np.ndarray(
                arr.shape, dtype=arr.dtype, buffer=segment.buf, offset=int(spec["offset"])
            )
            view[...] = arr
            views[name] = view
        header = {
            "segment": segment.name,
            "nbytes": total,
            "fields": fields,
            "meta": dict(meta or {}),
        }
        block = cls(segment, header, views, owner=True)
        _LIVE_BLOCKS.add(block)
        _log.debug("published segment %s (%d bytes, %d arrays)", block.name, total, len(views))
        return block

    @classmethod
    def attach(cls, header: Mapping[str, object], *, writable: bool = False) -> "SharedBlock":
        """Map an existing segment and rebuild the views — zero copies.

        The mapping is immediately dropped from the ``resource_tracker``:
        attachers never own the name (see the module docstring).  Inputs
        should attach read-only so a worker bug cannot corrupt state
        shared by the whole fleet.
        """
        with _untracked_attach():
            segment = shared_memory.SharedMemory(name=str(header["segment"]), create=False)
        views: Dict[str, np.ndarray] = {}
        for name, spec in dict(header["fields"]).items():
            view = np.ndarray(
                tuple(spec["shape"]),
                dtype=np.dtype(str(spec["dtype"])),
                buffer=segment.buf,
                offset=int(spec["offset"]),
            )
            if not writable:
                view.flags.writeable = False
            views[name] = view
        return cls(segment, dict(header), views, owner=False)

    def close(self) -> None:
        """Release this mapping; the owner also unlinks the name.

        Unlink happens *first*: once the name is gone nothing can leak,
        even if dropping the local mapping fails because live numpy views
        (e.g. result arrays a caller copied out lazily) still export the
        buffer — that mapping simply dies with the process.
        """
        if self.closed:
            return
        self.closed = True
        _LIVE_BLOCKS.discard(self)
        if self.owner:
            try:
                self.segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self.arrays = {}
        try:
            self.segment.close()
        except BufferError:  # pragma: no cover - a view outlives the block
            pass


# --------------------------------------------------------------------- grid


def grid_soa(grid: Grid) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
    """Export a grid's hot state as SoA arrays plus scalar meta.

    Reads the grid's cached cell pack (:func:`repro.core.corekernel.grid_soa`),
    which forces the adjacency build first (serial if nobody warmed it):
    the published CSR must be the parent's own table so workers observe
    exactly the rows, in the order, the serial code observes.
    """
    soa = cell_soa(grid)
    cell_indptr = np.append(soa.offsets, len(soa.cat))
    arrays = {
        "points": grid.points,
        "point_cells": grid.point_cells,
        "cell_coords": grid.cell_coords,
        "cell_indptr": cell_indptr,
        "cell_order": soa.cat,
        "adj_indptr": soa.adj_indptr,
        "adj_indices": soa.adj_indices,
    }
    meta = {
        "eps": float(grid.eps),
        "side": float(grid.side),
        "dim": int(grid.dim),
        "fingerprint": fingerprint_points(grid.points),
    }
    return arrays, meta


def publish_grid(grid: Grid, *, memory: Optional[MemoryBudget] = None) -> SharedBlock:
    """Publish (or reuse) a grid's shared-memory segment.

    The block is cached on the grid (``grid._shm_publication``) so one
    publication serves every phase of a run — and, for engine-cached
    grids, every run that reuses the structure, no re-pickling anywhere.
    The grid's owner is responsible for :func:`unpublish_grid`; the
    structure cache and the pipeline both do (plus the atexit net).
    """
    pub = getattr(grid, "_shm_publication", None)
    if pub is not None and not pub.closed:
        return pub
    arrays, meta = grid_soa(grid)
    block = SharedBlock.create(arrays, meta=meta, memory=memory, phase="shm-publish")
    grid._shm_publication = block
    return block


def unpublish_grid(grid: Grid) -> None:
    """Unlink a grid's publication, if any.  Idempotent."""
    pub = getattr(grid, "_shm_publication", None)
    if pub is not None:
        pub.close()


def attach_grid(header: Mapping[str, object]) -> Grid:
    """Reconstruct a read-only :class:`Grid` from a published segment.

    Every array on the returned grid is a view into the mapped segment;
    the block itself is pinned on the grid (``grid._shm_attachment``) so
    the mapping lives as long as the grid does.
    """
    block = SharedBlock.attach(header, writable=False)
    meta = dict(header["meta"])
    a = block.arrays
    expected = fingerprint_points(a["points"])
    if str(meta.get("fingerprint")) != expected:
        block.close()
        raise ParameterError(
            f"shared-memory segment {block.name} does not match its header "
            f"fingerprint ({meta.get('fingerprint')!r} != {expected!r})"
        )
    grid = Grid.from_soa(
        a["points"],
        a["point_cells"],
        a["cell_coords"],
        a["cell_indptr"],
        a["cell_order"],
        a["adj_indptr"],
        a["adj_indices"],
        eps=float(meta["eps"]),
        side=float(meta["side"]),
    )
    grid._shm_attachment = block
    return grid


def leaked_segments() -> list:
    """Names of live ``/dev/shm`` entries created by this module (tests)."""
    root = "/dev/shm"
    try:
        entries = os.listdir(root)
    except OSError:  # pragma: no cover - non-Linux
        return []
    return sorted(e for e in entries if e.startswith(SEGMENT_PREFIX))
