"""Offloaders: the transfer backends of the tensor cache (Fig. 3).

Each offloader "encapsulates the logic to transfer CUDA tensors to and
from a target":

- :class:`SSDOffloader` — the primary target.  Persists tensors through a
  :class:`~repro.io.filestore.TensorFileStore` (real file I/O standing in
  for kvikio/GDS) and registers buffers with the
  :class:`~repro.io.gds.GDSRegistry` the way the CUDA-malloc hook library
  does.
- :class:`CPUOffloader` — host-memory target backed by a pre-allocated
  pinned pool whose size is fixed after profiling the first training step
  (Sec. III-A; the paper keeps it for future work on remote storage).
- :class:`~repro.core.tiered.TieredOffloader` — composes both into a
  capacity-aware GPU -> pinned-CPU -> SSD hierarchy (see
  :mod:`repro.core.tiered`).

All expose the same API: synchronous ``store``/``load`` primitives that
the cache wraps in typed :class:`~repro.io.scheduler.IORequest`\\ s and
runs on the :class:`~repro.io.scheduler.IOScheduler`'s per-tier lanes
(``store_lane``/``load_lane`` pick the lane), and a ``release`` that
reclaims the backing space once the cache drops the record.
:func:`~repro.core.engine.build_engine` builds any of them from an
:class:`~repro.core.engine.EngineConfig`.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.core.ids import TensorID
from repro.core.policy import Tier
from repro.io.buffers import (
    BufferArena,
    BufferLease,
    CopyCounter,
    DataPlaneStats,
    owned_copy,
)
from repro.io.chunkstore import ChunkedTensorStore
from repro.io.filestore import TensorFileStore
from repro.io.gds import GDSRegistry
from repro.io.tenancy import current_tenant
from repro.tensor.tensor import Tensor


class Offloader:
    """Abstract transfer backend."""

    #: Tier reported for stored tensors; single-target backends are static,
    #: the tiered offloader overrides :meth:`tier_of` per tensor.
    default_tier: Tier = Tier.SSD

    def tier_of(self, tid: TensorID) -> Tier:
        """Which tier holds ``tid`` after a completed store."""
        return self.default_tier

    def store_lane(self, tid: TensorID, nbytes: int) -> str:
        """Scheduler lane a store of ``nbytes`` should queue on.

        The cache builds typed :class:`~repro.io.scheduler.IORequest`\\ s
        and asks the backend which tier's lane will absorb the traffic;
        single-target backends answer with their static tier, the tiered
        offloader predicts placement from the policy.
        """
        return "cpu" if self.default_tier is Tier.CPU else "ssd"

    def load_lane(self, tid: TensorID) -> str:
        """Scheduler lane a load of ``tid`` should queue on (by the tier
        currently holding the tensor)."""
        return "cpu" if self.tier_of(tid) is Tier.CPU else "ssd"

    def store(self, tid: TensorID, data: np.ndarray) -> None:
        """Synchronously persist ``data`` under ``tid`` (runs on a pool)."""
        raise NotImplementedError

    def load(self, tid: TensorID, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        """Synchronously read the tensor back (runs on a pool)."""
        raise NotImplementedError

    def location(self, tid: TensorID) -> str:
        """Human-readable location (the record's "file path" column, Fig. 4)."""
        raise NotImplementedError

    def release(self, tid: TensorID) -> None:
        """Reclaim the backing space of one tensor (idempotent).

        The default covers backends that expose a ``file_store`` (delete
        the file / decrement the chunk refcount) or an ``evict`` method
        (drop the host buffer), so legacy backends work unchanged.
        """
        file_store = getattr(self, "file_store", None)
        if file_store is not None:
            file_store.delete(tid.filename())
        evict = getattr(self, "evict", None)
        if evict is not None:
            evict(tid)

    def shutdown(self) -> None:
        """Release backend resources (idempotent)."""

    def dataplane_stats(self) -> DataPlaneStats:
        """Copy-map telemetry aggregated across this backend's parts.

        Duck-typed: folds in the ``copy_stats`` counters of the backend
        itself and of its ``file_store`` (if any), plus the ``arena``'s
        lease accounting (if any).  Composite backends override to merge
        their tiers.
        """
        stats = DataPlaneStats()
        store_counter = getattr(getattr(self, "file_store", None), "copy_stats", None)
        if store_counter is not None:
            stats.add_counter(store_counter.snapshot())
        own_counter = getattr(self, "copy_stats", None)
        if own_counter is not None:
            stats.add_counter(own_counter.snapshot())
        arena = getattr(self, "arena", None)
        if arena is not None:
            stats.add_arena(arena.stats())
        return stats


class SSDOffloader(Offloader):
    """NVMe-SSD-targeting offloader via the file store.

    Args:
        store_dir: directory of the RAID0 array mount (e.g. ``/mnt/md1``).
        throttle_bytes_per_s: optional bandwidth cap for tests.
        array: SSD wear-model to charge with traffic.
        gds: registry emulating the CUDA-malloc-hook GDS registration.
        chunk_bytes: if set, back the offloader with a
            :class:`~repro.io.chunkstore.ChunkedTensorStore` of this chunk
            size — small activations coalesce into one sequential write
            per chunk instead of one file per tensor.
        durable: journal the chunk store's index to a manifest replayed
            on reopen (service-mode crash recovery; requires
            ``chunk_bytes``).
        store_roots: extra store directories for write-leveling
            (chunked store only).
    """

    def __init__(
        self,
        store_dir,
        throttle_bytes_per_s: Optional[float] = None,
        array=None,
        gds: Optional[GDSRegistry] = None,
        chunk_bytes: Optional[int] = None,
        durable: bool = False,
        store_roots=None,
    ) -> None:
        self.file_store: Union[TensorFileStore, ChunkedTensorStore]
        if chunk_bytes is not None:
            self.file_store = ChunkedTensorStore(
                store_dir,
                chunk_bytes=chunk_bytes,
                throttle_bytes_per_s=throttle_bytes_per_s,
                array=array,
                durable=durable,
                roots=store_roots,
            )
        else:
            if durable:
                raise ValueError("durable SSD offload requires chunk_bytes")
            if store_roots:
                raise ValueError("store_roots (write-leveling) requires chunk_bytes")
            self.file_store = TensorFileStore(
                store_dir, throttle_bytes_per_s=throttle_bytes_per_s, array=array
            )
        self.gds = gds if gds is not None else GDSRegistry()

    def register_tensor(self, tensor: Tensor) -> None:
        """Register the tensor's buffer for GDS, as the malloc hook would."""
        self.gds.register(tensor.untyped_storage())

    def store(self, tid: TensorID, data: np.ndarray) -> None:
        self.file_store.write(tid.filename(), data)

    def load(self, tid: TensorID, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        return self.file_store.read(tid.filename(), shape, dtype)

    def location(self, tid: TensorID) -> str:
        return str(self.file_store.path_for(tid.filename()))

    def shutdown(self) -> None:
        # A durable (service-mode) store must survive the engine: close
        # flushes and keeps the files + manifest for the next replay.
        # Ephemeral stores keep the original leave-nothing-behind clear.
        if getattr(self.file_store, "persistent", False):
            self.file_store.close()
        else:
            self.file_store.clear()


class PinnedMemoryPool:
    """A fixed-capacity host-pinned buffer pool.

    The paper sizes the pool by profiling the first training step; the
    cache calls :meth:`fit_to_high_watermark` after step 0.  Exceeding the
    capacity after sizing raises, surfacing the profiling assumption.
    """

    def __init__(self, capacity_bytes: Optional[int] = None) -> None:
        self.capacity_bytes = capacity_bytes
        #: Degraded-mode escape hatch: with the SSD tier dead, refusing a
        #: pool allocation would fail the training step to protect a
        #: capacity model whose spill target no longer exists.  The
        #: tiered offloader flips this during failover — correctness over
        #: the capacity model — and ``overflow_bytes`` records the debt.
        self.overflow_allowed = False
        self._lock = threading.Lock()
        self._used = 0
        self._high_watermark = 0
        #: Live bytes per owning tenant; zeroed keys are dropped, so a
        #: fully-released pool reads ``{}`` tenant by tenant (the exact
        #: per-tenant reconciliation surface of the isolation tests).
        self._used_by: Dict[str, int] = {}

    def alloc(self, nbytes: int, tenant: Optional[str] = None) -> None:
        owner = tenant if tenant is not None else current_tenant()
        with self._lock:
            new_used = self._used + nbytes
            if (
                self.capacity_bytes is not None
                and new_used > self.capacity_bytes
                and not self.overflow_allowed
            ):
                raise MemoryError(
                    f"pinned pool exhausted: {new_used} > {self.capacity_bytes} bytes"
                )
            self._used = new_used
            self._used_by[owner] = self._used_by.get(owner, 0) + nbytes
            self._high_watermark = max(self._high_watermark, new_used)

    @property
    def overflow_bytes(self) -> int:
        """Bytes currently allocated beyond capacity (degraded mode only)."""
        with self._lock:
            if self.capacity_bytes is None:
                return 0
            return max(0, self._used - self.capacity_bytes)

    def free(self, nbytes: int, tenant: Optional[str] = None) -> None:
        owner = tenant if tenant is not None else current_tenant()
        with self._lock:
            if nbytes > self._used:
                raise ValueError("freeing more pinned memory than allocated")
            owned = self._used_by.get(owner, 0)
            if nbytes > owned:
                raise ValueError(
                    f"tenant {owner!r} freeing {nbytes} pinned bytes but owns {owned}"
                )
            self._used -= nbytes
            remaining = owned - nbytes
            if remaining > 0:
                self._used_by[owner] = remaining
            else:
                del self._used_by[owner]

    def used_by(self, tenant: str) -> int:
        """Live pinned bytes currently charged to one tenant."""
        with self._lock:
            return self._used_by.get(tenant, 0)

    def used_by_tenant(self) -> Dict[str, int]:
        """Snapshot of live bytes per tenant (empty when fully released)."""
        with self._lock:
            return dict(self._used_by)

    @property
    def used(self) -> int:
        with self._lock:
            return self._used

    @property
    def high_watermark(self) -> int:
        with self._lock:
            return self._high_watermark

    def fit_to_high_watermark(self, slack: float = 1.1) -> int:
        """Fix capacity to the profiled peak (plus slack); returns it."""
        with self._lock:
            self.capacity_bytes = int(self._high_watermark * slack)
            return self.capacity_bytes


class CPUOffloader(Offloader):
    """Host-memory offloader backed by the pinned pool.

    Stores copy into **leased arena buffers** (``np.copyto`` into a
    reused, already-faulted allocation) instead of a fresh
    ``np.array(copy=True)`` per tensor; the lease lives exactly as long
    as the resident buffer (released on evict/overwrite/shutdown, or
    transferred wholesale to a demotion via :meth:`take` /
    :meth:`adopt`).

    Args:
        pool: pinned-pool capacity accounting.
        throttle_bytes_per_s: optional pacing of transfers, modelling the
            PCIe link to host memory the way the file store's throttle
            models SSD bandwidth (a local memcpy is otherwise instant,
            which no real GPU->host copy is).
        arena: the buffer pool to lease from; by default a private
            :class:`~repro.io.buffers.BufferArena` whose free-list
            retention is capped by this pool's (live) capacity.
    """

    default_tier = Tier.CPU

    def __init__(
        self,
        pool: Optional[PinnedMemoryPool] = None,
        throttle_bytes_per_s: Optional[float] = None,
        arena: Optional[BufferArena] = None,
    ) -> None:
        if throttle_bytes_per_s is not None and throttle_bytes_per_s <= 0:
            raise ValueError(f"throttle must be positive: {throttle_bytes_per_s}")
        self.pool = pool if pool is not None else PinnedMemoryPool()
        self.throttle_bytes_per_s = throttle_bytes_per_s
        self.arena = arena if arena is not None else BufferArena(pool=self.pool)
        self.copy_stats = CopyCounter()
        self._lock = threading.Lock()
        self._buffers: Dict[TensorID, np.ndarray] = {}
        self._leases: Dict[TensorID, BufferLease] = {}
        #: Owning tenant per resident tensor — pool bytes must be freed
        #: against the tenant they were charged to, even when the free
        #: happens on another tenant's thread (evict/demote/shutdown).
        self._owners: Dict[TensorID, str] = {}

    def _throttle(self, nbytes: int, start: float) -> None:
        if self.throttle_bytes_per_s is None:
            return
        required = nbytes / self.throttle_bytes_per_s
        elapsed = time.monotonic() - start
        if required > elapsed:
            time.sleep(required - elapsed)

    def store(self, tid: TensorID, data: np.ndarray) -> None:
        start = time.monotonic()
        src = np.asarray(data)
        owner = current_tenant()
        # Capacity first: a refused allocation must not leak a lease.
        self.pool.alloc(src.nbytes, tenant=owner)
        lease: Optional[BufferLease] = None
        try:
            lease = self.arena.lease(src.nbytes, tenant=owner)
            copy = lease.view(src.shape, src.dtype)
            np.copyto(copy, src)
            self.copy_stats.count_copy(src.nbytes)
        except BaseException:
            self.pool.free(src.nbytes, tenant=owner)
            if lease is not None:  # a failed view/copy must not leak it
                lease.release()
            raise
        self.adopt(tid, copy, lease, _alloc=False, tenant=owner)
        self._throttle(copy.nbytes, start)

    def adopt(
        self,
        tid: TensorID,
        buf: np.ndarray,
        lease: Optional[BufferLease] = None,
        _alloc: bool = True,
        tenant: Optional[str] = None,
    ) -> None:
        """Take ownership of an already-host-resident buffer (zero copy).

        The tier-failover and demotion-cancellation paths hand a parked
        buffer (and its arena lease) back without re-copying it; the
        pool is charged unless the caller already did (``_alloc=False``).
        The owning tenant defaults to the lease's owner (failover hands
        back the original tenant's lease), then the calling scope.
        """
        owner = tenant
        if owner is None:
            owner = lease.tenant if lease is not None else current_tenant()
        if _alloc:
            self.pool.alloc(buf.nbytes, tenant=owner)
        with self._lock:
            old = self._buffers.get(tid)
            old_lease = self._leases.pop(tid, None)
            old_owner = self._owners.get(tid)
            self._buffers[tid] = buf
            self._owners[tid] = owner
            if lease is not None:
                self._leases[tid] = lease
        if old is not None:
            self.pool.free(old.nbytes, tenant=old_owner)
        if old_lease is not None:
            old_lease.release()

    def owner_of(self, tid: TensorID) -> Optional[str]:
        """The tenant charged for ``tid``'s pool bytes (None if absent)."""
        with self._lock:
            return self._owners.get(tid)

    def load(self, tid: TensorID, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        start = time.monotonic()
        with self._lock:
            buf = self._buffers.get(tid)
            if buf is None:
                raise KeyError(f"tensor {tid} not in host pool")
            # The single ownership copy at the GPU-reinstate boundary —
            # a plain copy when the dtype already matches, one
            # conversion copy otherwise (never astype *and* copy).
            # Copied under the lock: an arena-backed buffer whose lease
            # a concurrent evict/overwrite releases may be recycled by
            # the next store, so reading it unlocked could observe torn
            # bytes.
            data = owned_copy(buf.reshape(shape), dtype, self.copy_stats)
        self._throttle(data.nbytes, start)
        return data

    def peek(self, tid: TensorID) -> Optional[np.ndarray]:
        """The stored buffer itself (no copy) — used by tier demotion,
        which hands the bytes straight to the SSD store."""
        with self._lock:
            return self._buffers.get(tid)

    def take(
        self, tid: TensorID
    ) -> Optional[Tuple[np.ndarray, Optional[BufferLease]]]:
        """Remove ``tid`` and transfer buffer *and lease* to the caller.

        Unlike :meth:`evict`, the arena lease is NOT released: an async
        demotion parks the buffer until its SSD write lands, and the
        arena must not hand that memory to anyone else meanwhile.  The
        caller releases the lease (write landed / cancelled) or adopts
        it back (failover reinstate).
        """
        with self._lock:
            buf = self._buffers.pop(tid, None)
            lease = self._leases.pop(tid, None)
            owner = self._owners.pop(tid, None)
        if buf is None:
            return None
        self.pool.free(buf.nbytes, tenant=owner)
        return buf, lease

    def evict(self, tid: TensorID) -> None:
        with self._lock:
            buf = self._buffers.pop(tid, None)
            lease = self._leases.pop(tid, None)
            owner = self._owners.pop(tid, None)
        if buf is not None:
            self.pool.free(buf.nbytes, tenant=owner)
        if lease is not None:
            lease.release()

    def location(self, tid: TensorID) -> str:
        return f"pinned://{tid.filename()}"

    def contains(self, tid: TensorID) -> bool:
        with self._lock:
            return tid in self._buffers

    def shutdown(self) -> None:
        with self._lock:
            buffers = [
                (buf, self._owners.get(tid)) for tid, buf in self._buffers.items()
            ]
            leases = list(self._leases.values())
            self._buffers.clear()
            self._leases.clear()
            self._owners.clear()
        for buf, owner in buffers:
            self.pool.free(buf.nbytes, tenant=owner)
        for lease in leases:
            lease.release()


#: Target names an :class:`~repro.core.engine.EngineConfig` accepts.
OFFLOAD_TARGETS = ("ssd", "cpu", "tiered")
