"""Batched submission/completion-queue I/O backend (io_uring-style).

Real deployments batch: io_uring submits many requests per kernel
transition over pre-opened ("registered") file descriptors, and a
completion queue is reaped independently of submission.  This module
reproduces that *shape* on top of the submission loop every backend
shares (:meth:`~repro.io.aio.IOBackend._submit`):

- :class:`UringBackend` — the lane worker is the *submission* side: it
  claims the dequeued batch (the scheduler's coalescing machinery
  already groups compatible requests), runs each body with the lane's
  :class:`~repro.io.aio.IOContext` installed, and pushes the batch's
  completion-queue entries; a dedicated **reaper** thread applies the
  outcomes — terminal job states, done callbacks, lease release,
  health/tenant books — and stamps the reap lag the adaptive controller
  folds into its latency estimate;
- :class:`GDSSimBackend` — the simulated GPUDirect-Storage lane:
  stores whose source array belongs to a :class:`~repro.io.gds
  .GDSRegistry`-registered storage go straight to the SSD store with
  zero host copies booked; unregistered ones are staged through an
  explicit host bounce buffer (an arena lease + one copy), like real
  GDS falling back for unregistered allocations.

How bytes reach the file is the same on every backend: the stores move
each checksum frame with one ``pwritev``/``preadv`` over a descriptor
from the backend's :class:`~repro.io.aio.FDTable`.  The uring backend
differs from :class:`~repro.io.aio.ThreadBackend` only in who completes
the request (the reaper, not the lane worker) and in the optional
``O_DIRECT`` write descriptors.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.io.aio import FDTable, IOBackend, IOContext, IOJob, _CQE
from repro.io.buffers import BufferArena
from repro.io.gds import GDSRegistry

logger = logging.getLogger(__name__)

__all__ = ["GDSSimBackend", "UringBackend"]


class UringBackend(IOBackend):
    """Submission/completion-queue lane execution over pre-opened FDs.

    The dequeuing lane worker is the submission side: it runs the shared
    submission loop over the batch and pushes the whole batch to the
    completion queue.  The **reaper** thread is the completion side: it
    applies each outcome (terminal state, done callbacks — which release
    leases, decrement lane pending, refund tenant quota — health books)
    in submission order and stamps the reap lag onto the channel
    windows.  Everything the scheduler observes (books, health, lease
    reconciliation) is identical to the thread backend by construction;
    only the completion thread differs.

    Args:
        direct: open write descriptors with ``O_DIRECT`` where the
            filesystem allows (alignment via ``aligned=True`` arena
            leases; refused files fall back to buffered, counted).
        max_open_fds: LRU bound on the FD table.
        arena: staging-lease arena for O_DIRECT writes (and, in the
            GDS-sim subclass, bounce staging).  Created on demand when
            ``direct`` and omitted.
    """

    name = "uring"

    def __init__(
        self,
        direct: bool = False,
        max_open_fds: int = 128,
        arena: Optional[BufferArena] = None,
    ) -> None:
        super().__init__()
        self.fds = FDTable(max_open=max_open_fds, direct=direct)
        if arena is None and direct:
            arena = BufferArena()
        self.arena = arena
        self._cq: Deque[Tuple[str, List[_CQE]]] = deque()
        self._cq_cond = threading.Condition()
        self._stop = False
        self._reaper: Optional[threading.Thread] = None

    # ---------------------------------------------------------------- wiring
    def bind(self, scheduler) -> None:
        super().bind(scheduler)
        if self._reaper is None:
            self._reaper = threading.Thread(
                target=self._reap_loop, name=f"{self.name}-reaper", daemon=True
            )
            self._reaper.start()

    # ------------------------------------------------------------ submission
    def run_batch(self, lane: str, batch: List[IOJob]) -> None:
        cqes = list(self._submit(lane, batch))
        if cqes:
            with self._cq_cond:
                self._cq.append((lane, cqes))
                self._cq_cond.notify()

    # ------------------------------------------------------------ completion
    def _reap_loop(self) -> None:
        while True:
            with self._cq_cond:
                while not self._cq and not self._stop:
                    self._cq_cond.wait()
                if not self._cq and self._stop:
                    return
                lane, cqes = self._cq.popleft()
            try:
                self._reap(lane, cqes)
            except Exception:  # pragma: no cover - reaper must survive
                logger.exception("reaper failed on a %s batch", lane)
                for cqe in cqes:
                    if not cqe.request.done_event.is_set():
                        self.scheduler.finish_request(cqe.request)

    def _reap(self, lane: str, cqes: List[_CQE]) -> None:
        lag_total = 0.0
        for cqe in cqes:
            lag = max(0.0, time.monotonic() - cqe.request.finished_at)
            lag_total += lag
            self._complete(cqe, lag)
        self._book_coalesced(cqes)
        with self._stats_lock:
            stats = self._lane(lane)
            stats.reaped += len(cqes)
            stats.reap_lag_s += lag_total

    def shutdown(self) -> None:
        """Stop the reaper, then close every cached descriptor (idempotent)."""
        with self._cq_cond:
            self._stop = True
            self._cq_cond.notify_all()
        if self._reaper is not None:
            self._reaper.join(timeout=5)
            self._reaper = None
        super().shutdown()

    close = shutdown


class GDSSimBackend(UringBackend):
    """The uring backend plus simulated GPUDirect-Storage routing.

    Registered storages (the CUDA-malloc-hook model —
    :meth:`~repro.core.offloader.SSDOffloader.register_tensor` registers
    every offloaded tensor's storage at pack time) are written straight
    from their payload array: zero host copies, booked as
    ``bounce_copies_skipped``.  Unregistered arrays are staged through a
    host bounce buffer first (one arena lease + one copy, booked as
    ``bounce_copies``), like real GDS falling back for buffers the
    driver never registered.  Reads are already direct-to-destination
    either way.  The routing applies wherever a
    :class:`~repro.io.filestore.TensorFileStore` write runs under this
    backend; the chunk store's staging buffer *is* a host bounce by
    design, so chunked configurations route through it unchanged.
    """

    name = "gds-sim"

    def __init__(
        self,
        registry: Optional[GDSRegistry] = None,
        direct: bool = False,
        max_open_fds: int = 128,
        arena: Optional[BufferArena] = None,
    ) -> None:
        super().__init__(direct=direct, max_open_fds=max_open_fds, arena=arena)
        if self.arena is None:
            # Bounce staging for unregistered storages.
            self.arena = BufferArena()
        self.registry = registry if registry is not None else GDSRegistry()

    def _context_for(self, lane: str) -> IOContext:
        ctx = super()._context_for(lane)
        ctx.gds = self.registry
        return ctx
