"""Asynchronous I/O substrate for activation offloading.

- :class:`~repro.io.scheduler.IOScheduler` — priority-aware scheduler with
  per-tier lanes, deadline promotion, store cancellation and write
  coalescing; the cache's I/O spine.
- :mod:`~repro.io.aio` — the :class:`IOJob` state machine, the lane
  backend interface (:class:`IOBackend`, default :class:`ThreadBackend`)
  and the one way bytes reach a file: ``pwritev``/``preadv`` over a
  descriptor from the lane's :class:`FDTable` or a transient open.
- :class:`~repro.io.filestore.TensorFileStore` — real file-backed tensor
  persistence with optional bandwidth throttling and SSD wear accounting.
- :class:`~repro.io.chunkstore.ChunkedTensorStore` — chunk-coalescing
  variant: many small tensors per fixed-size chunk file, one sequential
  write per chunk, refcounted space reclaim.
- :mod:`~repro.io.gds` — GPUDirect Storage path model: direct GPU<->SSD
  transfers vs. a CPU bounce buffer, plus the CUDA-malloc-hook registration
  emulation (Sec. III-A).
- :mod:`~repro.io.errors` — the typed I/O failure taxonomy
  (transient / permanent / integrity) and the retry classification rule.
- :mod:`~repro.io.faults` — seeded deterministic fault injection
  (:class:`FaultPlan` / :class:`FaultInjector`): the chaos harness that
  proves the retry, checksum, and tier-failover recovery paths.
- :mod:`~repro.io.buffers` — the zero-copy data plane's allocator:
  :class:`BufferArena` (size-class-binned pool of reusable host buffers
  with explicit lease/release) plus the copy-count telemetry that makes
  the eliminated copies measurable.
- :mod:`~repro.io.tenancy` — multi-tenant QoS layer:
  :class:`TenantContext` / :class:`TenantRegistry` (weights, byte and
  bandwidth quotas, admission) plus the thread-local tenant scope that
  attributes every store/load to its owning job.
- :mod:`~repro.io.uring` — the submission/completion-queue lane backend
  (a dedicated completion reaper, optional ``O_DIRECT`` write
  descriptors) and the simulated GPUDirect-Storage lane
  (:class:`GDSSimBackend`); it shares the thread backend's submission
  loop and differs only in who completes each request.
"""

from repro.io.aio import (
    FDTable,
    IOBackend,
    IOContext,
    IOJob,
    IOLaneStats,
    ThreadBackend,
    count_syscalls,
    current_io_context,
    io_context,
    syscall_tape,
)
from repro.io.buffers import (
    ArenaStats,
    BufferArena,
    BufferLease,
    CopyCounter,
    DataPlaneStats,
)
from repro.io.chunkstore import ChunkedTensorStore, DEFAULT_CHUNK_BYTES
from repro.io.errors import (
    IntegrityError,
    PermanentIOError,
    TransientIOError,
    is_retryable,
    retry_call,
)
from repro.io.faults import FaultInjector, FaultPlan, inject_faults
from repro.io.filestore import TensorFileStore
from repro.io.gds import BounceBufferPath, DirectGDSPath, GDSRegistry
from repro.io.scheduler import (
    ChannelWindow,
    IORequest,
    IOScheduler,
    LaneHealthTracker,
    Priority,
    SchedulerStats,
)
from repro.io.tenancy import (
    DEFAULT_TENANT,
    TenantContext,
    TenantQuotaError,
    TenantRegistry,
    TenantStats,
    current_tenant,
    jain_index,
    tenant_scope,
)
from repro.io.uring import GDSSimBackend, UringBackend

__all__ = [
    "IOBackend",
    "IOJob",
    "IOLaneStats",
    "ThreadBackend",
    "UringBackend",
    "GDSSimBackend",
    "FDTable",
    "IOContext",
    "current_io_context",
    "io_context",
    "count_syscalls",
    "syscall_tape",
    "ArenaStats",
    "BufferArena",
    "BufferLease",
    "CopyCounter",
    "DataPlaneStats",
    "IORequest",
    "IOScheduler",
    "LaneHealthTracker",
    "Priority",
    "SchedulerStats",
    "ChannelWindow",
    "TensorFileStore",
    "ChunkedTensorStore",
    "DEFAULT_CHUNK_BYTES",
    "GDSRegistry",
    "DirectGDSPath",
    "BounceBufferPath",
    "TransientIOError",
    "PermanentIOError",
    "IntegrityError",
    "is_retryable",
    "retry_call",
    "FaultPlan",
    "FaultInjector",
    "inject_faults",
    "DEFAULT_TENANT",
    "TenantContext",
    "TenantQuotaError",
    "TenantRegistry",
    "TenantStats",
    "current_tenant",
    "jain_index",
    "tenant_scope",
]
