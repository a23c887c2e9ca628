"""The IOJob state machine, the lane-backend interface, and the thread backend.

The paper's tensor cache owns two FIFO pools, "one for storing tensors
and the other for loading tensors" (Sec. III-C2); here both channels
run on the priority-aware :class:`~repro.io.scheduler.IOScheduler`
(``fifo=True`` restores the paper's submission order).
:class:`IOJob` is its unit of work: observable state
(pending/running/done/failed/cancelled), a completion event, done
callbacks, and a ``cancel``/``claim`` handshake that lets exactly one
side win the PENDING race.

This module also owns the one way bytes reach a file.  The stores
(:mod:`repro.io.filestore` / :mod:`repro.io.chunkstore`) move each
checksum frame with one ``pwritev``/``preadv`` (:func:`pwritev_full` /
:func:`preadv_full`) over a descriptor that comes from one of two
places: the lane's :class:`FDTable` when a backend installed an
:class:`IOContext` around the request body, or a transient
``open``/``close`` pair for callers outside a lane
(:func:`write_descriptor` / :func:`read_descriptor`).

The pluggable **lane execution backend** (:class:`IOBackend`) is what
the scheduler's worker loop hands each dequeued batch to.  Every backend
owns an FD table and runs the same submission loop
(:meth:`IOBackend._submit`: claim, ``begin_request``, then the body
under a syscall tape and the lane's I/O context); backends differ only
in who completes the request.  :class:`ThreadBackend` (the default)
completes each request inline on the lane worker;
:class:`~repro.io.uring.UringBackend` hands completions to a reaper
thread.

Backend contract (docs/architecture.md §10): for every request in the
batch the backend must (1) win :meth:`IOJob.claim` before touching it —
a lost claim means a canceller or a promoted duplicate got there first
and the request must be skipped silently; (2) bracket the body with
:meth:`IOScheduler.begin_request` / :meth:`IOScheduler.finish_request`
so channel telemetry, health, retry books, lease release, and tenant
refunds all fire exactly once; (3) leave every claimed request in a
terminal state (DONE/FAILED) even when the body raises something
unexpected — ``finish_request`` enforces this.  Retries happen inside
the body via :func:`~repro.io.errors.retry_call`; the backend never
re-runs a finished request.
"""

from __future__ import annotations

import enum
import logging
import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.io.errors import retry_call
from repro.io.tenancy import tenant_scope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.io.buffers import BufferArena
    from repro.io.gds import GDSRegistry

logger = logging.getLogger(__name__)


# --------------------------------------------------------------------------
# Syscall tape: per-thread attribution of kernel round-trips.
#
# The stores (:mod:`repro.io.filestore` / :mod:`repro.io.chunkstore`)
# call :func:`count_syscalls` next to every ``open``/``read``/``write``
# they issue; a backend wraps each request body in a
# :class:`syscall_tape` so the calls land on the per-lane books no
# matter which closure the request body routed through.  Outside an
# active tape the calls are no-ops (zero overhead on non-lane threads).
# --------------------------------------------------------------------------


class _TapeState(threading.local):
    count = 0
    depth = 0


_TAPE = _TapeState()


def count_syscalls(n: int = 1) -> None:
    """Record ``n`` kernel round-trips on the current thread's tape."""
    if _TAPE.depth:
        _TAPE.count += n


class syscall_tape:
    """Context manager measuring syscalls issued on this thread.

    Re-entrant: nested tapes each see the calls made inside their own
    scope (the inner scope's calls are part of the outer's too).
    """

    def __init__(self) -> None:
        self.count = 0
        self._start = 0

    def __enter__(self) -> "syscall_tape":
        _TAPE.depth += 1
        self._start = _TAPE.count
        return self

    def __exit__(self, *exc: object) -> bool:
        _TAPE.depth -= 1
        self.count = _TAPE.count - self._start
        if _TAPE.depth == 0:
            _TAPE.count = 0
        return False


# --------------------------------------------------------------------------
# Vectored syscalls: one iovec list carries a whole checksum frame
# --------------------------------------------------------------------------


#: Linux moves at most this many bytes per read/write call (MAX_RW_COUNT).
MAX_RW_BYTES = 0x7FFFF000


def _flat_views(buffers: Sequence) -> List[memoryview]:
    """Byte-granular views over ``buffers`` (kept writable for reads)."""
    views = []
    for buf in buffers:
        view = buf if isinstance(buf, memoryview) else memoryview(buf)
        if view.ndim != 1 or view.format != "B":
            view = view.cast("B")
        views.append(view)
    return views


def _advance(views: List[memoryview], moved: int) -> None:
    """Drop/trim the leading ``moved`` bytes from the iovec list."""
    while views and moved >= views[0].nbytes:
        moved -= views[0].nbytes
        views.pop(0)
    if views and moved:
        views[0] = views[0][moved:]


def pwritev_full(fd: int, buffers: Sequence, offset: int = 0) -> int:
    """Write every byte of ``buffers`` at ``offset`` via ``os.pwritev``.

    One syscall in the common case; short writes resume from where the
    kernel stopped.  Returns the total bytes written.
    """
    views = _flat_views(buffers)
    total = 0
    while views:
        written = os.pwritev(fd, views, offset)
        count_syscalls(1)
        if written <= 0:
            raise OSError(f"pwritev made no progress at offset {offset}")
        total += written
        offset += written
        _advance(views, written)
    return total


def preadv_full(fd: int, buffers: Sequence, offset: int = 0) -> int:
    """Fill ``buffers`` from ``offset`` via ``os.preadv``; stops at EOF.

    Returns the total bytes read (callers use the shortfall — or the
    overshoot into a probe buffer — to detect torn/oversized files
    without a separate ``fstat``).  On a regular file the kernel
    returns a short count only at EOF or at its per-call cap
    (:data:`MAX_RW_BYTES`), so a short read below the cap ends the loop
    without a second call to confirm EOF: reading a whole frame plus an
    unfilled probe byte is one syscall.
    """
    views = _flat_views(buffers)
    total = 0
    while views:
        wanted = sum(view.nbytes for view in views)
        got = os.preadv(fd, views, offset)
        count_syscalls(1)
        total += got
        if got < min(wanted, MAX_RW_BYTES):  # EOF
            break
        offset += got
        _advance(views, got)
    return total


# --------------------------------------------------------------------------
# FD table
# --------------------------------------------------------------------------


class _FDEntry:
    __slots__ = ("fd", "direct")

    def __init__(self, fd: int, direct: bool) -> None:
        self.fd = fd
        self.direct = direct


class FDTable:
    """Pre-opened file descriptors keyed by path (the fixed-file table).

    A write acquires (and caches) a descriptor so the follow-up read
    skips the ``open``/``close`` pair entirely; the LRU bound
    (``max_open``) keeps the table inside the process's fd budget —
    an evicted path simply reopens on next touch.

    ``direct=True`` opens *write* descriptors with ``O_DIRECT`` where
    the platform and filesystem allow, counting a ``direct_fallback``
    per refused file.  Read acquisitions always demote to a buffered
    descriptor: ``O_DIRECT`` reads would demand alignment from the
    caller-owned destination arrays, which the load path cannot
    guarantee (documented in docs/architecture.md §10).
    """

    def __init__(self, max_open: int = 128, direct: bool = False) -> None:
        if max_open < 1:
            raise ValueError(f"max_open must be >= 1: {max_open}")
        self.direct = direct and hasattr(os, "O_DIRECT")
        self.max_open = max_open
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _FDEntry]" = OrderedDict()
        self.opens = 0
        self.closes = 0
        self.direct_fallbacks = 0

    # ------------------------------------------------------------- internals
    def _open(self, path: str, flags: int) -> int:
        fd = os.open(path, flags, 0o644)
        count_syscalls(1)
        self.opens += 1
        return fd

    def _close(self, entry: _FDEntry) -> None:
        try:
            os.close(entry.fd)
        except OSError:  # pragma: no cover - close failures are benign
            pass
        count_syscalls(1)
        self.closes += 1

    def _evict_locked(self) -> None:
        while len(self._entries) > self.max_open:
            _, entry = self._entries.popitem(last=False)
            self._close(entry)

    # ------------------------------------------------------------- acquire
    def acquire_write(self, path: str) -> Tuple[int, bool, bool, bool]:
        """Descriptor for writing ``path``.

        Returns ``(fd, direct, cached, fell_back)``: ``direct`` is
        whether the descriptor carries ``O_DIRECT``; ``cached`` whether
        it was reused (the caller must ``ftruncate`` after a reused
        write — a fresh descriptor opens with ``O_TRUNC``);
        ``fell_back`` whether this call hit the O_DIRECT fallback.
        """
        with self._lock:
            entry = self._entries.get(path)
            if entry is not None:
                self._entries.move_to_end(path)
                return entry.fd, entry.direct, True, False
            flags = os.O_RDWR | os.O_CREAT | os.O_TRUNC
            fell_back = False
            direct = False
            if self.direct:
                try:
                    fd = self._open(path, flags | os.O_DIRECT)
                    direct = True
                except OSError:
                    # The filesystem refused O_DIRECT (common on tmpfs/
                    # overlayfs): fall back to buffered, per file.
                    self.direct_fallbacks += 1
                    fell_back = True
                    fd = self._open(path, flags)
            else:
                fd = self._open(path, flags)
            self._entries[path] = _FDEntry(fd, direct)
            self._evict_locked()
            return fd, direct, False, fell_back

    def acquire_read(self, path: str) -> int:
        """Descriptor for reading ``path`` (buffered, never O_DIRECT).

        Raises :class:`FileNotFoundError` when the path does not exist
        and no descriptor is cached, like a transient ``open`` would.
        """
        with self._lock:
            entry = self._entries.get(path)
            if entry is not None and not entry.direct:
                self._entries.move_to_end(path)
                return entry.fd
            if entry is not None:
                # A direct descriptor cannot serve unaligned destination
                # buffers; replace it with a buffered one.
                del self._entries[path]
                self._close(entry)
            fd = self._open(path, os.O_RDWR)
            self._entries[path] = _FDEntry(fd, False)
            self._evict_locked()
            return fd

    def invalidate(self, path: str) -> None:
        """Close and forget ``path``'s descriptor (file was deleted)."""
        with self._lock:
            entry = self._entries.pop(path, None)
            if entry is not None:
                self._close(entry)

    def close_all(self) -> None:
        with self._lock:
            for entry in self._entries.values():
                self._close(entry)
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


# --------------------------------------------------------------------------
# I/O context: the lane state a backend installs around request bodies
# --------------------------------------------------------------------------


class IOContext:
    """Per-batch execution context a backend installs around bodies.

    The stores read :func:`current_io_context` inside ``write``/``read``
    and, when one is active, take their descriptors from ``fds``.
    ``gds`` (GDS-sim only) carries the registry the SSD store consults
    for bounce-vs-direct routing; ``arena`` provides the staging leases
    for the bounce path and for O_DIRECT-aligned writes.
    """

    __slots__ = ("fds", "lane", "backend", "arena", "gds")

    def __init__(
        self,
        fds: FDTable,
        lane: str,
        backend: Optional["IOBackend"] = None,
        arena: Optional["BufferArena"] = None,
        gds: Optional["GDSRegistry"] = None,
    ) -> None:
        self.fds = fds
        self.lane = lane
        self.backend = backend
        self.arena = arena
        self.gds = gds

    def note_bounce(self, skipped: bool) -> None:
        """Book one GDS-sim routing decision on the backend's lane books."""
        if self.backend is not None:
            self.backend._note_bounce(self.lane, skipped)

    def note_direct_fallback(self) -> None:
        """Book a write-time O_DIRECT refusal (open-time ones are counted
        by the FD table)."""
        if self.backend is not None:
            self.backend._note_direct_fallback(self.lane)


class _ContextState(threading.local):
    current: Optional[IOContext] = None


_STATE = _ContextState()


def current_io_context() -> Optional[IOContext]:
    """The I/O context installed on this thread, if any."""
    return _STATE.current


@contextmanager
def io_context(ctx: IOContext) -> Iterator[IOContext]:
    """Install ``ctx`` as the thread's I/O context for the scope."""
    previous = _STATE.current
    _STATE.current = ctx
    try:
        yield ctx
    finally:
        _STATE.current = previous


@contextmanager
def write_descriptor(
    path: str, ctx: Optional[IOContext]
) -> Iterator[Tuple[int, bool, bool]]:
    """``(fd, direct, cached)`` for writing ``path``.

    Under a lane's context the descriptor comes from its FD table (see
    :meth:`FDTable.acquire_write`); otherwise it is a transient
    ``O_TRUNC`` open, closed when the scope exits.
    """
    if ctx is not None:
        fd, direct, cached, _ = ctx.fds.acquire_write(path)
        yield fd, direct, cached
        return
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    count_syscalls(1)
    try:
        yield fd, False, False
    finally:
        os.close(fd)
        count_syscalls(1)


@contextmanager
def read_descriptor(path: str, ctx: Optional[IOContext]) -> Iterator[int]:
    """A descriptor for reading ``path``: the lane's cached one under a
    context, else a transient open closed when the scope exits.  Raises
    :class:`FileNotFoundError` when the file is missing."""
    if ctx is not None:
        yield ctx.fds.acquire_read(path)
        return
    fd = os.open(path, os.O_RDONLY)
    count_syscalls(1)
    try:
        yield fd
    finally:
        os.close(fd)
        count_syscalls(1)


class JobState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


class IOJob:
    """A unit of I/O work with an observable state and completion event.

    ``max_retries``/``retry_backoff_s`` give the job a bounded
    retry-with-backoff budget: a body raising a *retryable* error
    (:func:`~repro.io.errors.is_retryable` — transient device errors,
    checksum mismatches) is re-run up to ``max_retries`` more times with
    exponential backoff before the job goes FAILED.  Non-retryable
    errors (permanent lane death, missing files) fail fast.  The default
    budget is 0 — plain jobs keep the original one-shot semantics; the
    scheduler stamps its default onto typed requests at submit time.
    """

    def __init__(
        self,
        fn: Callable[[], Any],
        label: str = "",
        max_retries: int = 0,
        retry_backoff_s: float = 0.0,
    ) -> None:
        self.fn = fn
        self.label = label
        self.state = JobState.PENDING
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        #: Re-attempts actually performed (0 = first try succeeded/failed).
        self.attempts = 0
        self.done_event = threading.Event()
        self._callbacks: List[Callable[["IOJob"], None]] = []
        self._lock = threading.Lock()

    def add_done_callback(self, cb: Callable[["IOJob"], None]) -> None:
        """Run ``cb(job)`` on completion (immediately if already done)."""
        run_now = False
        with self._lock:
            if self.done_event.is_set():
                run_now = True
            else:
                self._callbacks.append(cb)
        if run_now:
            cb(self)

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self.done_event.wait(timeout)

    def cancel(self) -> bool:
        """Cancel the job if (and only if) it has not started running.

        The PENDING -> CANCELLED and PENDING -> RUNNING transitions take
        the same lock, so exactly one of ``cancel()`` and ``run()`` wins:
        a job observed CANCELLED never touched the backing store, and a
        job that is already RUNNING (or finished) cannot be cancelled.
        Returns True when this call performed the cancellation.  Done
        callbacks fire for cancelled jobs too (with ``state`` CANCELLED).
        """
        with self._lock:
            if self.state is not JobState.PENDING:
                return False
            self.state = JobState.CANCELLED
            self.fn = None  # drop closure refs, as a completed run would
            callbacks = list(self._callbacks)
            self._callbacks.clear()
            self.done_event.set()
        self._dispatch(callbacks)
        return True

    def _dispatch(self, callbacks: List[Callable[["IOJob"], None]]) -> None:
        """Run completion callbacks, containing per-callback failures.

        One raising callback must never starve the ones behind it — the
        scheduler's pending/stats accounting rides on this list, and a
        skipped decrement turns into a drain() hang.
        """
        for cb in callbacks:
            try:
                cb(self)
            except Exception:
                logger.exception("done callback for job %s raised", self.label)

    def _finish(self, state: JobState) -> None:
        with self._lock:
            if self.done_event.is_set():  # already terminal; first wins
                return
            self.state = state
            callbacks = list(self._callbacks)
            self._callbacks.clear()
            self.done_event.set()
        self._dispatch(callbacks)

    def claim(self) -> bool:
        """Atomically take the PENDING -> RUNNING transition.

        Exactly one caller wins against :meth:`cancel` and against other
        claimers (a promoted request briefly has two queue entries, so
        two workers can race to execute it).  The loser must not run the
        job — nor report start/done events for it.
        """
        with self._lock:
            if self.state is not JobState.PENDING:
                return False
            self.state = JobState.RUNNING
            return True

    def _count_retry(self, exc: BaseException, attempt: int) -> None:
        self.attempts = attempt

    def run_body(self) -> Tuple[Any, Optional[BaseException]]:
        """Run the claimed body without finishing — the SQ half.

        Retryable failures are re-attempted within the job's budget via
        the stack's single retry rule (:func:`~repro.io.errors.retry_call`;
        the submitting worker holds the job for the backoff sleeps — the
        budget bounds that occupancy).  Returns ``(result, error)``; the
        job stays RUNNING until :meth:`complete` applies the outcome, so
        a completion-queue backend can reap on another thread.
        """
        try:
            result = retry_call(
                self.fn,
                max_retries=self.max_retries,
                backoff_s=self.retry_backoff_s,
                on_retry=self._count_retry,
            )
        except BaseException as exc:  # surfaced via .error for the waiter
            return None, exc
        return result, None

    def abandon(self, error: BaseException) -> bool:
        """Force a RUNNING job to FAILED without waiting for its body.

        The watchdog's half of the deadline contract: the body may be
        wedged in the kernel (a hung ``pwrite``), so nobody can make it
        return — but the waiter must still unblock and failover.  The
        job goes terminal with ``error``; when the wedged body finally
        returns, :meth:`complete` sees the terminal state and discards
        the late outcome.  ``fn`` is deliberately *not* dropped here —
        the body is still executing and owns its closure.  Returns True
        when this call performed the transition.
        """
        with self._lock:
            if self.done_event.is_set() or self.state is not JobState.RUNNING:
                return False
            self.state = JobState.FAILED
            self.error = error
            callbacks = list(self._callbacks)
            self._callbacks.clear()
            self.done_event.set()
        self._dispatch(callbacks)
        return True

    def complete(self, result: Any, error: Optional[BaseException]) -> None:
        """Apply a body outcome and finish — the CQ half.

        Idempotent once terminal: a late body outcome arriving after
        :meth:`abandon` (or after a hedge completed this job) is
        discarded — first completion wins.  The check-and-transition is
        one critical section, so an abandon can never interleave between
        the guard and the terminal write.
        """
        with self._lock:
            if self.done_event.is_set():
                self.fn = None  # the body returned; closure refs can go now
                return
            if error is not None:
                self.error = error
                self.state = JobState.FAILED
            else:
                self.result = result
                self.state = JobState.DONE
            self.fn = None  # drop closure refs so GPU buffers can be reclaimed
            callbacks = list(self._callbacks)
            self._callbacks.clear()
            self.done_event.set()
        self._dispatch(callbacks)

    def run(self) -> None:
        """Claim and run the job synchronously on the calling thread.

        The terminal state is DONE, or FAILED with the last error via
        ``.error``; a job already claimed or cancelled is left alone.
        """
        if self.claim():
            self.complete(*self.run_body())


# --------------------------------------------------------------------------
# Lane execution backends
# --------------------------------------------------------------------------


@dataclass
class IOLaneStats:
    """Per-lane backend telemetry (cumulative; snapshot via copies).

    ``syscalls`` counts kernel round-trips attributed to this lane's
    request bodies via the syscall tape; ``batched_requests`` counts the
    members of multi-request submissions (batches of >= 2);
    ``bounce_copies`` / ``bounce_copies_skipped`` book the GDS-sim
    routing decisions (host staging copy made vs. elided);
    ``direct_fallbacks`` counts files the filesystem refused to open
    with ``O_DIRECT``; ``reap_lag_s`` accumulates the delay between a
    request's I/O finishing and its completion being reaped (zero on the
    thread backend, where the two coincide).
    """

    syscalls: int = 0
    batches: int = 0
    batched_requests: int = 0
    reaped: int = 0
    reap_lag_s: float = 0.0
    bounce_copies: int = 0
    bounce_copies_skipped: int = 0
    direct_fallbacks: int = 0

    def merge(self, other: "IOLaneStats") -> "IOLaneStats":
        """Fold ``other`` into self (returns self for chaining)."""
        self.syscalls += other.syscalls
        self.batches += other.batches
        self.batched_requests += other.batched_requests
        self.reaped += other.reaped
        self.reap_lag_s += other.reap_lag_s
        self.bounce_copies += other.bounce_copies
        self.bounce_copies_skipped += other.bounce_copies_skipped
        self.direct_fallbacks += other.direct_fallbacks
        return self


class _CQE:
    """One completion-queue entry: a submitted request plus its outcome."""

    __slots__ = ("request", "result", "error")

    def __init__(
        self, request: IOJob, result: object, error: Optional[BaseException]
    ) -> None:
        self.request = request
        self.result = result
        self.error = error


class IOBackend:
    """How a lane batch reaches the kernel (see the module docstring).

    Every backend owns an :class:`FDTable` (plus an optional staging
    ``arena``) and submits through :meth:`_submit`; subclasses implement
    :meth:`run_batch` by deciding who completes each submitted request
    (:meth:`_complete`).  The scheduler calls :meth:`bind` once at
    construction and :meth:`shutdown` after its workers have been joined
    (so no batch is in flight when the backend closes its descriptors).
    """

    name = "backend"

    def __init__(self) -> None:
        self.scheduler = None  # bound by IOScheduler.__init__
        self._stats_lock = threading.Lock()
        self._lanes: Dict[str, IOLaneStats] = {}
        self.fds = FDTable()
        self.arena: Optional["BufferArena"] = None

    def bind(self, scheduler) -> None:
        self.scheduler = scheduler

    def run_batch(self, lane: str, batch: List["IOJob"]) -> None:
        """Execute one dequeued batch for ``lane``; must not raise."""
        raise NotImplementedError

    def lane_stats(self) -> Dict[str, IOLaneStats]:
        """Non-destructive snapshot of the per-lane telemetry."""
        with self._stats_lock:
            return {lane: replace(stats) for lane, stats in self._lanes.items()}

    def _lane(self, lane: str) -> IOLaneStats:
        """The live per-lane record; caller must hold ``_stats_lock``."""
        stats = self._lanes.get(lane)
        if stats is None:
            stats = self._lanes[lane] = IOLaneStats()
        return stats

    def _context_for(self, lane: str) -> IOContext:
        return IOContext(fds=self.fds, lane=lane, backend=self, arena=self.arena)

    def _note_bounce(self, lane: str, skipped: bool) -> None:
        with self._stats_lock:
            stats = self._lane(lane)
            if skipped:
                stats.bounce_copies_skipped += 1
            else:
                stats.bounce_copies += 1

    def _note_direct_fallback(self, lane: str) -> None:
        with self._stats_lock:
            self._lane(lane).direct_fallbacks += 1

    # ------------------------------------------------------------ submission
    def _submit(self, lane: str, batch: List[IOJob]) -> Iterator[_CQE]:
        """The shared submission loop; yields each body's outcome.

        Claims every member (a lost claim is skipped silently), books it
        started, and runs its body — bounded retries included — under a
        syscall tape, the request's tenant scope and the lane's
        :class:`IOContext`.  ``finished_at`` is stamped when the body
        returns, so any later completion delay is reap lag.
        """
        sched = self.scheduler
        ctx = self._context_for(lane)
        claimed = 0
        batch_syscalls = 0
        for request in batch:
            if not request.claim():
                # Lost to cancel() or a competing claim on a promoted
                # duplicate; the winner owns all bookkeeping.
                continue
            claimed += 1
            if claimed > 1:
                request.coalesced = True
            sched.begin_request(request)
            tape = syscall_tape()
            try:
                with tape, tenant_scope(request.tenant), io_context(ctx):
                    result, error = request.run_body()
            except Exception as exc:  # belt: run_body itself never raises
                result, error = None, exc
            batch_syscalls += tape.count
            request.finished_at = time.monotonic()
            yield _CQE(request, result, error)
        with self._stats_lock:
            stats = self._lane(lane)
            stats.syscalls += batch_syscalls
            if claimed:
                stats.batches += 1
            if claimed > 1:
                stats.batched_requests += claimed

    def _complete(self, cqe: _CQE, lag_s: float = 0.0) -> None:
        """Apply one outcome: terminal state and done callbacks (inside
        the request's tenant scope, so refunds and arena attribution land
        on the right tenant), then the scheduler's finish books."""
        request = cqe.request
        sched = self.scheduler
        try:
            with tenant_scope(request.tenant):
                request.complete(cqe.result, cqe.error)
        except Exception:
            logger.exception(
                "request %s raised outside its body (callback failure)",
                request.label,
            )
        finally:
            sched.note_reap_lag(request, lag_s)
            sched.finish_request(request)
        sched.notify_done(request)

    def _book_coalesced(self, cqes: List[_CQE]) -> None:
        """Book a completed batch's coalescing outcome on the scheduler."""
        done = [c.request for c in cqes if c.request.state is JobState.DONE]
        self.scheduler.book_coalesced(len(done), sum(r.nbytes for r in done[1:]))

    def shutdown(self) -> None:
        """Close every cached descriptor (idempotent)."""
        self.fds.close_all()

    close = shutdown

    def __enter__(self) -> "IOBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()


class ThreadBackend(IOBackend):
    """The default backend: blocking I/O completed on the lane worker.

    Each request's body runs through the shared submission loop and is
    completed inline right after it returns, before the next member of
    the batch starts — so completion never lags the I/O.
    """

    name = "thread"

    def run_batch(self, lane: str, batch: List[IOJob]) -> None:
        cqes = []
        for cqe in self._submit(lane, batch):
            self._complete(cqe)
            cqes.append(cqe)
        self._book_coalesced(cqes)
