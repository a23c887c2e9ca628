"""Priority-aware I/O scheduler: the successor of the two FIFO pools.

The paper's tensor cache drives all traffic through two strictly FIFO
worker pools (Sec. III-C2).  Under
load that design inverts priorities: a backlog of low-urgency stores can
starve the loads sitting on the backward critical path.  This module
replaces the pools with one :class:`IOScheduler` that understands *what*
each request is for:

- **per-tier lanes** — every storage tier (``"ssd"``, ``"cpu"``) gets its
  own worker group and request queue, modelling that PCIe traffic to host
  memory and NVMe queue depth are independent resources.  Store and load
  channels of a tier share its lane, the way reads and writes share one
  NVMe submission stream;
- **priority classes** — lanes dequeue by :class:`Priority`:
  backward-blocking loads > prefetch loads > tier demotions > stores.
  A blocking load submitted behind N queued stores runs next, not last;
- **deadline promotion** — a pending prefetch load is re-queued as
  BLOCKING_LOAD when its segment's backward arrives
  (:meth:`IOScheduler.promote`), so urgency follows the training
  schedule instead of submission order;
- **store cancellation** — a store whose tensor was already consumed via
  data forwarding is cancelled while still PENDING
  (:meth:`~repro.io.aio.IOJob.cancel`), reclaiming its queue slot and
  the SSD write it would have issued;
- **write coalescing** — a worker that dequeues a small store drains the
  adjacent small stores queued behind it and runs them back-to-back as
  one batch, so a :class:`~repro.io.chunkstore.ChunkedTensorStore`
  backend fills one chunk with one uninterrupted submission instead of
  interleaving chunk fragments with higher-priority work;
- **completion telemetry** — every executed request is timed, and the
  per-(lane, channel) aggregates (bytes moved, channel busy seconds,
  queue wait) are exported through
  :meth:`IOScheduler.consume_completion_stats`.  This is the feedback
  signal the online adaptive controller
  (:mod:`repro.core.autotune`) turns into live bandwidth estimates.

``fifo=True`` collapses every class into submission order — the paper's
original behaviour — which keeps an apples-to-apples baseline for the
priority-vs-FIFO comparison in benchmarks and tests.

**Multi-tenancy** (architecture §8): pass a
:class:`~repro.io.tenancy.TenantRegistry` and each lane swaps its heap
for a weighted fair-share queue — priority classes stay strictly
ordered, but *within* a class tenants are served by deficit round-robin
over per-tenant subqueues, so one tenant's backlog cannot starve
another's.  The registry also gates admission (byte quotas reject or
park over-budget submissions; parked requests re-enter when a refund
frees headroom) and paces bandwidth-quota'd tenants (soft token bucket,
work-conserving).  Telemetry, request books and lane health all grow a
per-tenant dimension with the same exact-reconciliation bar as the
global books.  Without a registry the legacy single-heap path runs
unchanged — the default-tenant behaviour is byte-identical to the
pre-tenancy scheduler.

**Failure model** (see :mod:`repro.io.errors` for the taxonomy and
``docs/architecture.md`` §6 for the map): a request whose body raises is
never allowed to take a lane worker down with it — the worker loop
survives any job exception (FAILED is a first-class terminal state with
exact accounting: ``submitted == executed + failed + cancelled`` once
drained, and the blocking waiter sees the error instead of a hang),
retryable errors are re-attempted within the request's bounded
retry-with-backoff budget before failing, and every outcome feeds the
per-lane :class:`LaneHealthTracker` — the signal the tiered offloader
uses to fail a dead SSD over to the CPU tier and the adaptive controller
uses to trim the budget on a degraded lane.

**Degraded modes** (architecture §12): with ``deadlines`` and/or
``hedge`` configured the scheduler runs a watchdog thread over the
in-flight set.  A request stuck past its per-class deadline is
*abandoned* — forced FAILED with :class:`~repro.io.errors
.DeadlineExceededError` so the waiter unblocks and fails over, while
the wedged body's eventual outcome is discarded (hung-I/O survival).
A BLOCKING_LOAD stuck past the adaptive hedge delay gets a *hedged
duplicate* submitted from its ``hedge_fn``; first completion wins, the
loser is cancelled, and ``hedges_issued``/``hedges_won`` book the
outcome.  ``slow_request_s`` arms a *slow* lane verdict distinct from
*dead* — sustained high latency (brownout) sheds prefetch/demotion
traffic off the lane without declaring the device gone.
"""

from __future__ import annotations

import enum
import heapq
import logging
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.io.aio import IOBackend, IOJob, IOLaneStats, JobState, ThreadBackend
from repro.io.errors import (
    DEFAULT_MAX_RETRIES,
    DEFAULT_RETRY_BACKOFF_S,
    DeadlineExceededError,
    PermanentIOError,
    is_device_error,
)
from repro.io.tenancy import (
    DEFAULT_TENANT,
    TenantQuotaError,
    TenantRegistry,
    current_tenant,
)

logger = logging.getLogger(__name__)

#: Default cap on the total bytes of one coalesced store batch.
DEFAULT_COALESCE_BYTES = 1 << 20


class Priority(enum.IntEnum):
    """Dequeue classes, most urgent first (lower value wins)."""

    BLOCKING_LOAD = 0   # backward is waiting on this tensor right now
    PREFETCH_LOAD = 1   # look-ahead load; needed soon, not yet
    DEMOTION = 2        # CPU -> SSD spill; pool space already reclaimed
    STORE = 3           # forward-pass offload; deadline is the step end


#: Request kinds (the channel of the paper's two pools, plus demotions).
REQUEST_KINDS = ("store", "load", "demote")


class IORequest(IOJob):
    """A typed unit of I/O work: what, how big, which lane, how urgent.

    Extends :class:`~repro.io.aio.IOJob` (state machine, completion event,
    done callbacks, cancellation) with the scheduling metadata the lanes
    dequeue by.  ``priority`` is mutated only by
    :meth:`IOScheduler.promote` while the request is PENDING.
    """

    def __init__(
        self,
        fn: Callable[[], object],
        *,
        kind: str,
        priority: Priority,
        tensor_id: str = "",
        nbytes: int = 0,
        lane: str = "ssd",
        label: str = "",
        max_retries: Optional[int] = None,
        retry_backoff_s: Optional[float] = None,
        lease=None,
        tenant: Optional[str] = None,
        deadline_s: Optional[float] = None,
        hedge_fn: Optional[Callable[[], object]] = None,
    ) -> None:
        if kind not in REQUEST_KINDS:
            raise ValueError(f"unknown request kind {kind!r}; expected one of {REQUEST_KINDS}")
        super().__init__(fn, label=label or f"{kind}:{tensor_id}")
        # None = inherit the scheduler's retry policy at submit time; an
        # explicit value (0 opts out — e.g. stateful demotion bodies that
        # retry internally) always wins.
        self._max_retries_override = max_retries
        self._retry_backoff_override = retry_backoff_s
        if max_retries is not None:
            self.max_retries = max_retries
        if retry_backoff_s is not None:
            self.retry_backoff_s = retry_backoff_s
        self.kind = kind
        self.priority = Priority(priority)
        self.tensor_id = tensor_id
        self.nbytes = int(nbytes)
        self.lane = lane
        #: Owning tenant; defaults to the submitting thread's scope
        #: (:func:`~repro.io.tenancy.current_tenant`), so un-scoped
        #: callers land on ``"default"`` and see pre-tenancy behaviour.
        self.tenant = tenant if tenant is not None else current_tenant()
        #: True while held by quota admission (not on any lane queue).
        self._parked = False
        #: True when this request ran as a trailing member of a coalesced
        #: store batch (not the batch head).  Set only once the member has
        #: actually won ``claim()`` — a batch member cancelled before the
        #: worker reached it never coalesced anything.
        self.coalesced = False
        #: Set by a body that *recovered* from an I/O failure internally
        #: (e.g. the tiered demotion writer failing a dead SSD over to
        #: the CPU tier): the request completes DONE, but the lane must
        #: still learn about the device failure it papered over.
        self.health_error: Optional[BaseException] = None
        #: Optional :class:`~repro.io.buffers.BufferLease` riding with the
        #: request (e.g. a queued demotion's parked buffer).  The
        #: scheduler releases whatever is still attached when the request
        #: reaches ANY terminal state (DONE / FAILED / CANCELLED) — no
        #: outcome may leak arena memory.  Code that wants to keep the
        #: bytes (cancellation reinstate, failover recovery) must
        #: :meth:`detach_lease` first; detach-then-decide under the
        #: owner's lock is the race-free order.
        self.lease = lease
        #: Per-request deadline override (seconds of *execution* time
        #: before the watchdog abandons it); ``None`` inherits the
        #: scheduler's per-class deadline, if any.
        self.deadline_s = deadline_s
        #: Idempotent re-issue closure for hedged reads: the watchdog
        #: builds the hedge request from this, so the duplicate does not
        #: share the (possibly wedged) original body.  ``None`` opts the
        #: request out of hedging.
        self.hedge_fn = hedge_fn
        #: The hedge duplicate issued for this request (at most one).
        self.hedge: Optional["IORequest"] = None
        #: True when this request *is* a hedge duplicate (never itself
        #: hedged).
        self.is_hedge = False
        #: Completion telemetry, stamped by the worker loop (monotonic
        #: seconds).  ``submitted_at`` is set by :meth:`IOScheduler.submit`.
        self.submitted_at: float = 0.0
        self.started_at: float = 0.0
        self.finished_at: float = 0.0

    @property
    def parked(self) -> bool:
        """True while quota admission holds the request off every lane."""
        return self._parked

    def detach_lease(self):
        """Atomically take ownership of the attached lease (or None)."""
        with self._lock:
            lease, self.lease = self.lease, None
        return lease


@dataclass
class SchedulerStats:
    """Cumulative counters (the benchmark / test / trace surface)."""

    submitted: int = 0
    executed: int = 0
    #: Requests submitted per priority class name.
    submitted_by_class: Dict[str, int] = field(default_factory=dict)
    cancelled: int = 0
    cancelled_stores: int = 0
    cancelled_bytes: int = 0
    #: Requests whose body failed terminally (retry budget exhausted or a
    #: non-retryable error).  Once drained the books always reconcile:
    #: ``submitted == executed + failed + cancelled``.
    failed: int = 0
    failed_bytes: int = 0
    #: Re-attempts performed across all requests (each healed transient
    #: fault is one retry that kept ``failed`` from growing).
    retries: int = 0
    promotions: int = 0
    #: Coalesced store batches with >= 2 *executed* members, and the
    #: executed members beyond each batch head (the stores that avoided a
    #: standalone submission).  Members cancelled after being claimed into
    #: a batch but before the worker reached them are not counted — they
    #: never ran, so they are cancellation wins, not coalescing wins.
    coalesced_batches: int = 0
    coalesced_requests: int = 0
    coalesced_bytes: int = 0
    #: Requests submitted carrying a buffer lease, and those leases
    #: resolved at a terminal state — released back to the arena by the
    #: scheduler, or already detached by an owner that kept the bytes
    #: (cancellation reinstate, failover recovery).  Once drained,
    #: ``leased_requests == leases_released`` — the no-leak invariant the
    #: property suite pins down.
    leased_requests: int = 0
    leases_released: int = 0
    #: Hedged-read books: duplicates issued by the watchdog for stuck
    #: blocking loads, and the subset whose result completed the primary
    #: first (the stall the hedge actually cut).
    hedges_issued: int = 0
    hedges_won: int = 0
    #: Requests force-failed by the watchdog for sitting past their
    #: per-class deadline (hung-I/O failover).
    deadline_abandons: int = 0


#: Channel names completion telemetry is aggregated under: stores and
#: demotions both consume a lane's write stream; loads its read stream.
CHANNELS = ("write", "read")


def _channel_of(kind: str) -> str:
    return "read" if kind == "load" else "write"


@dataclass
class ChannelWindow:
    """Executed-request aggregates for one (lane, channel) pair since the
    last :meth:`IOScheduler.consume_completion_stats` call.

    ``busy_s`` is the *union* of the channel's execution intervals —
    the wall time at least one worker was executing on the channel —
    not the per-request sum, so ``nbytes / busy_s`` stays an honest
    observed bandwidth even when several workers drain one lane
    concurrently (a sum would overcount the overlap and understate the
    bandwidth by up to the concurrency factor).  ``queued_s`` is the
    total submit-to-start wait, a direct read on how contended the lane
    was.
    """

    nbytes: int = 0
    busy_s: float = 0.0
    queued_s: float = 0.0
    count: int = 0
    #: Completion-reap delay accumulated over the window's requests: the
    #: time between a request's I/O finishing and its completion being
    #: reaped/booked.  Always 0.0 on the thread backend (execution and
    #: completion coincide); the SQ/CQ backend's reaper stamps it so the
    #: adaptive controller can see completion-path latency.
    reap_lag_s: float = 0.0

    def merge(self, other: "ChannelWindow") -> None:
        self.nbytes += other.nbytes
        self.busy_s += other.busy_s
        self.queued_s += other.queued_s
        self.count += other.count
        self.reap_lag_s += other.reap_lag_s

    def bandwidth_bytes_per_s(self) -> Optional[float]:
        """Observed throughput, or ``None`` when the window saw no work."""
        if self.busy_s <= 0.0:
            return None
        return self.nbytes / self.busy_s


@dataclass
class LaneHealthSnapshot:
    """Point-in-time health of one lane (read-only copy)."""

    successes: int = 0
    failures: int = 0
    consecutive_failures: int = 0
    dead: bool = False
    #: Brownout verdict: the lane answers, but sustained latency crossed
    #: the slow threshold.  Distinct from ``dead`` — a slow lane sheds
    #: deferrable traffic (prefetch, demotions) but keeps serving.
    slow: bool = False
    consecutive_slow: int = 0


class LaneHealthTracker:
    """Per-lane failure/success bookkeeping and the dead-lane verdict.

    Fed by the scheduler on every request completion.  A lane is marked
    **dead** the moment any request fails with a
    :class:`~repro.io.errors.PermanentIOError`, or after
    ``death_threshold`` *consecutive* terminal failures (a device that
    fails everything is dead in all but errno).  Death is sticky —
    storage does not resurrect itself; :meth:`revive` exists for
    operator-driven recovery (tests, a replaced device).

    Two consumer surfaces:

    - :meth:`is_dead` / :meth:`dead_lanes` — routing: the tiered
      offloader steers placements off a dead ``ssd`` lane (CPU failover);
    - :meth:`consume_failure_window` — per-step failure deltas the
      adaptive controller folds into its trim signal, the same way it
      consumes the completion-bandwidth windows.

    **Tenant scoping** (isolation, architecture §8): traffic from the
    default tenant drives the lane's *global* verdict exactly as
    before; a non-default tenant's failures drive a per-(lane, tenant)
    verdict only.  ``is_dead(lane, tenant)`` is the union — a lane is
    dead *for a tenant* when the device is globally dead or that
    tenant's own traffic bricked it — so tenant A's permanent failures
    degrade A's placement without touching B's.
    """

    def __init__(
        self,
        death_threshold: int = 3,
        slow_threshold_s: Optional[float] = None,
        slow_trip: int = 3,
    ) -> None:
        if death_threshold < 1:
            raise ValueError(f"death_threshold must be >= 1: {death_threshold}")
        if slow_trip < 1:
            raise ValueError(f"slow_trip must be >= 1: {slow_trip}")
        self.death_threshold = death_threshold
        #: Request duration at or above which an op counts as *slow*;
        #: ``None`` disables the brownout verdict entirely.
        self.slow_threshold_s = slow_threshold_s
        self.slow_trip = slow_trip
        self._lock = threading.Lock()
        self._lanes: Dict[str, LaneHealthSnapshot] = {}
        #: Per-(lane, tenant) verdicts for non-default tenants.
        self._tenant_lanes: Dict[Tuple[str, str], LaneHealthSnapshot] = {}
        #: Failures per lane since the last consume_failure_window()
        #: (lane-wide: every tenant's failures count — it feeds the
        #: adaptive controller's device-degradation signal).
        self._window: Dict[str, int] = {}

    def _state(self, lane: str) -> LaneHealthSnapshot:
        state = self._lanes.get(lane)
        if state is None:
            state = self._lanes[lane] = LaneHealthSnapshot()
        return state

    def _scoped_state(self, lane: str, tenant: str) -> LaneHealthSnapshot:
        if tenant == DEFAULT_TENANT:
            return self._state(lane)
        key = (lane, tenant)
        state = self._tenant_lanes.get(key)
        if state is None:
            state = self._tenant_lanes[key] = LaneHealthSnapshot()
        return state

    def record_success(self, lane: str, tenant: str = DEFAULT_TENANT) -> None:
        with self._lock:
            state = self._scoped_state(lane, tenant)
            state.successes += 1
            state.consecutive_failures = 0

    def record_failure(
        self, lane: str, permanent: bool = False, tenant: str = DEFAULT_TENANT
    ) -> None:
        with self._lock:
            state = self._scoped_state(lane, tenant)
            state.failures += 1
            state.consecutive_failures += 1
            self._window[lane] = self._window.get(lane, 0) + 1
            if permanent or state.consecutive_failures >= self.death_threshold:
                state.dead = True

    def record_duration(
        self, lane: str, seconds: float, tenant: str = DEFAULT_TENANT
    ) -> None:
        """Feed one executed request's duration into the brownout verdict.

        ``slow_trip`` consecutive ops at/above ``slow_threshold_s`` set
        the lane *slow*; a single fast op clears it — the brownouts that
        matter are sustained, and a device serving fast ops again has by
        definition recovered.  Lane-global (not tenant-scoped): latency
        is a device property, unlike quota-attributable failures.
        """
        if self.slow_threshold_s is None:
            return
        with self._lock:
            state = self._state(lane)
            if seconds >= self.slow_threshold_s:
                state.consecutive_slow += 1
                if state.consecutive_slow >= self.slow_trip:
                    state.slow = True
            else:
                state.consecutive_slow = 0
                state.slow = False

    def is_slow(self, lane: str) -> bool:
        with self._lock:
            state = self._lanes.get(lane)
            return state.slow if state is not None else False

    def slow_lanes(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(name for name, s in self._lanes.items() if s.slow))

    def mark_slow(self, lane: str) -> None:
        """Force the brownout verdict (operator/test hook)."""
        with self._lock:
            self._state(lane).slow = True

    def mark_dead(self, lane: str, tenant: Optional[str] = None) -> None:
        """Brick the lane globally, or for one tenant only."""
        with self._lock:
            if tenant is None or tenant == DEFAULT_TENANT:
                self._state(lane).dead = True
            else:
                self._scoped_state(lane, tenant).dead = True

    def revive(self, lane: str, tenant: Optional[str] = None) -> None:
        """Operator-driven recovery.  Reviving the lane globally (no
        tenant) also clears every tenant-scoped verdict for it — a
        replaced device is new for everyone."""
        with self._lock:
            if tenant is None or tenant == DEFAULT_TENANT:
                state = self._state(lane)
                state.dead = False
                state.consecutive_failures = 0
                state.slow = False
                state.consecutive_slow = 0
                if tenant is None:
                    for (ln, _), scoped in self._tenant_lanes.items():
                        if ln == lane:
                            scoped.dead = False
                            scoped.consecutive_failures = 0
            else:
                scoped = self._scoped_state(lane, tenant)
                scoped.dead = False
                scoped.consecutive_failures = 0

    def is_dead(self, lane: str, tenant: Optional[str] = None) -> bool:
        with self._lock:
            state = self._lanes.get(lane)
            if state is not None and state.dead:
                return True
            if tenant is None or tenant == DEFAULT_TENANT:
                return False
            scoped = self._tenant_lanes.get((lane, tenant))
            return scoped.dead if scoped is not None else False

    def dead_lanes(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(name for name, s in self._lanes.items() if s.dead))

    def dead_tenants(self, lane: str) -> Tuple[str, ...]:
        """Tenants whose own traffic bricked this lane (global deaths
        are reported by :meth:`dead_lanes`, not here)."""
        with self._lock:
            return tuple(
                sorted(t for (ln, t), s in self._tenant_lanes.items() if ln == lane and s.dead)
            )

    def tenant_snapshot(self) -> Dict[Tuple[str, str], LaneHealthSnapshot]:
        with self._lock:
            return {key: replace(s) for key, s in self._tenant_lanes.items()}

    def snapshot(self) -> Dict[str, LaneHealthSnapshot]:
        with self._lock:
            return {lane: replace(s) for lane, s in self._lanes.items()}

    def consume_failure_window(self) -> Dict[str, int]:
        """Failures per lane since the last call (the controller's feed)."""
        with self._lock:
            window, self._window = self._window, {}
            return window


class _ClassRing:
    """Deficit round-robin over per-tenant FIFO subqueues of one
    priority class.

    Classic DRR: tenants sit on a ring; each visit a tenant earns
    ``quantum * weight`` bytes of credit, and its head request is
    served once the accumulated deficit covers the request size — so
    over time each backlogged tenant's byte share converges to its
    weight share, and a tenant with a non-empty subqueue is always
    served within ``ceil(nbytes / (quantum * weight))`` ring passes
    (the no-starvation bound the property suite pins down).  Idle
    tenants leave the ring and forfeit their credit — deficit never
    accumulates while a tenant has nothing queued.
    """

    __slots__ = ("queues", "order", "idx", "deficit", "fresh")

    def __init__(self) -> None:
        self.queues: Dict[str, Deque[IORequest]] = {}
        self.order: List[str] = []
        self.idx = 0
        self.deficit: Dict[str, float] = {}
        #: True when the ring pointer just arrived at ``order[idx]`` —
        #: the arrival grants the tenant its ``quantum * weight`` credit
        #: exactly once; the pointer then stays (across pop() calls)
        #: while the deficit keeps covering the tenant's heads, and
        #: advances when it no longer does.  Granting per *arrival*
        #: rather than per visit is what makes byte shares track
        #: weights: a weight-2 tenant drains twice the bytes per round,
        #: not merely one request per turn.
        self.fresh = True

    def push(self, request: IORequest) -> None:
        queue = self.queues.get(request.tenant)
        if queue is None:
            queue = self.queues[request.tenant] = deque()
            self.order.append(request.tenant)
            self.deficit.setdefault(request.tenant, 0.0)
        queue.append(request)

    def retire(self, tenant: str) -> None:
        """Drop an emptied tenant from the ring (and its credit)."""
        pos = self.order.index(tenant)
        del self.order[pos]
        if pos < self.idx:
            self.idx -= 1
        elif pos == self.idx:
            self.fresh = True  # the pointer landed on the next tenant
        if self.idx >= len(self.order):
            self.idx = 0
        del self.queues[tenant]
        self.deficit.pop(tenant, None)

    def pop(self, weight_of, quantum: int, bw_gate) -> Tuple[Optional[IORequest], int]:
        """Serve the next request by DRR; returns (request | None,
        stale entries dropped).

        ``bw_gate(tenant, nbytes, force)`` is the registry's token
        bucket.  A bandwidth-blocked tenant is skipped while others can
        be served, but after a full bounded sweep with no service it is
        served anyway with ``force=True`` (work-conserving: quota
        pacing shapes order, it never idles the device — which also
        keeps this loop's termination unconditional).
        """
        dropped = 0
        visits_without_service = 0
        bw_blocked: Optional[str] = None
        while self.order:
            if self.idx >= len(self.order):
                self.idx = 0
            tenant = self.order[self.idx]
            queue = self.queues[tenant]
            while queue and queue[0].state is not JobState.PENDING:
                queue.popleft()  # cancelled while queued
                dropped += 1
            if not queue:
                self.retire(tenant)
                continue
            if self.fresh:
                self.deficit[tenant] = (
                    self.deficit.get(tenant, 0.0) + quantum * weight_of(tenant)
                )
                self.fresh = False
            head = queue[0]
            credit = self.deficit.get(tenant, 0.0)
            if credit >= head.nbytes:
                force = (
                    tenant == bw_blocked
                    and visits_without_service >= 2 * len(self.order)
                )
                if bw_gate is None or bw_gate(tenant, head.nbytes, force):
                    queue.popleft()
                    self.deficit[tenant] = credit - head.nbytes
                    if not queue:
                        self.retire(tenant)
                    # The pointer stays on this tenant (fresh stays
                    # False) so its burst continues while credit lasts.
                    return head, dropped
                if bw_blocked is None:
                    bw_blocked = tenant
            # Deficit exhausted or bandwidth-blocked: pointer moves on.
            visits_without_service += 1
            self.idx += 1
            self.fresh = True
        return None, dropped


class _FairQueue:
    """Per-lane weighted fair-share queue: priority classes stay
    strictly ordered (a blocking load still overtakes every store);
    *within* a class tenants are served by :class:`_ClassRing` DRR."""

    def __init__(self, registry: TenantRegistry) -> None:
        self.registry = registry
        self.classes: Dict[int, _ClassRing] = {}
        #: Queued entries, live + stale (drives the workers' wait
        #: predicate; stale entries are dropped lazily by pop()).
        self.size = 0

    def push(self, request: IORequest) -> None:
        cls = int(request.priority)
        ring = self.classes.get(cls)
        if ring is None:
            ring = self.classes[cls] = _ClassRing()
        ring.push(request)
        self.size += 1

    def pop(self) -> Optional[IORequest]:
        for cls in sorted(self.classes):
            ring = self.classes[cls]
            request, dropped = ring.pop(
                self.registry.weight, self.registry.quantum_bytes, self._bw_gate
            )
            self.size -= dropped
            if not ring.order:
                del self.classes[cls]
            if request is not None:
                self.size -= 1
                return request
        return None

    def _bw_gate(self, tenant: str, nbytes: int, force: bool) -> bool:
        return self.registry.bw_admit(tenant, nbytes, force=force)

    def remove(self, request: IORequest) -> bool:
        """Unlink a queued request (promotion re-push); False when it
        is not queued here (already popped, or parked)."""
        cls = int(request.priority)
        ring = self.classes.get(cls)
        if ring is None:
            return False
        queue = ring.queues.get(request.tenant)
        if queue is None:
            return False
        try:
            queue.remove(request)
        except ValueError:
            return False
        self.size -= 1
        if not queue:
            ring.retire(request.tenant)
            if not ring.order:
                del self.classes[cls]
        return True

    def peek_tenant_head(self, tenant: str) -> Optional[IORequest]:
        """The tenant's most urgent live queued request (coalescing
        looks here for the next batch member, so a batch never crosses
        tenants — adjacency within the owner is the point)."""
        for cls in sorted(self.classes):
            ring = self.classes[cls]
            queue = ring.queues.get(tenant)
            if queue is None:
                continue
            while queue and queue[0].state is not JobState.PENDING:
                queue.popleft()
                self.size -= 1
            if not queue:
                ring.retire(tenant)
                if not ring.order:
                    del self.classes[cls]
                continue
            return queue[0]
        return None


class _Lane:
    """One tier's queue + bookkeeping (workers live on the scheduler)."""

    def __init__(self, name: str, fair: Optional[_FairQueue] = None) -> None:
        self.name = name
        self.lock = threading.Lock()
        self.cond = threading.Condition(self.lock)
        #: Heap of (priority value, seq, entry priority snapshot, request).
        self.heap: List[Tuple[int, int, int, IORequest]] = []
        self.seq = 0
        self.pending = 0  # submitted, not yet finished or cancelled
        self.idle = threading.Event()
        self.idle.set()
        #: Fair-share queue replacing the heap when the scheduler runs
        #: with a tenant registry (None = legacy single-heap path).
        self.fair = fair

    def has_work(self) -> bool:
        return bool(self.heap) if self.fair is None else self.fair.size > 0


class IOScheduler:
    """Single scheduler owning per-tier lanes with priority dequeue.

    Args:
        num_store_workers / num_load_workers: kept for drop-in
            compatibility with the two FIFO pools; their sum is each
            lane's worker count (total channel concurrency per tier is
            unchanged, but any worker may serve any class — that is what
            lets a blocking load overtake the store backlog).
        lanes: tier names to create lanes for.
        fifo: ignore priority classes and dequeue in submission order
            (the paper's baseline behaviour; promotion becomes a no-op).
        coalesce_bytes: cap on one coalesced store batch; ``0`` disables
            coalescing.  A store larger than the cap always runs alone.
        max_retries / retry_backoff_s: default bounded retry budget
            stamped onto requests that do not carry their own; retryable
            job errors (transient device faults, checksum mismatches)
            are re-attempted this many times with exponential backoff
            before the request goes FAILED.
        tenants: a :class:`~repro.io.tenancy.TenantRegistry` to share
            the lanes across jobs: enables quota admission and — unless
            ``fifo`` — weighted fair-share (DRR) dequeue across tenants
            within each priority class.  ``None`` (the default) keeps
            the legacy single-heap path, byte-identical to the
            pre-tenancy scheduler (a registry is still created for
            bookkeeping, but never drives dequeue order).
        name: thread-name prefix.
        backend: the lane execution backend
            (:class:`~repro.io.aio.IOBackend`).  ``None`` installs the
            default :class:`~repro.io.aio.ThreadBackend` — blocking
            per-request I/O completed on the dequeuing worker;
            :mod:`repro.io.uring` provides the SQ/CQ (reaper-completed)
            and simulated-GDS backends.
    """

    def __init__(
        self,
        num_store_workers: int = 2,
        num_load_workers: int = 2,
        lanes: Tuple[str, ...] = ("ssd", "cpu"),
        fifo: bool = False,
        coalesce_bytes: int = DEFAULT_COALESCE_BYTES,
        max_retries: int = DEFAULT_MAX_RETRIES,
        retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
        tenants: Optional[TenantRegistry] = None,
        name: str = "ssdtrain-io",
        backend: Optional[IOBackend] = None,
        deadlines: Optional[Dict[str, float]] = None,
        hedge: bool = False,
        hedge_delay_s: Optional[float] = None,
        slow_request_s: Optional[float] = None,
        watchdog_interval_s: float = 0.005,
    ) -> None:
        if num_store_workers < 1 or num_load_workers < 1:
            raise ValueError("each channel needs at least one worker")
        if not lanes:
            raise ValueError("need at least one lane")
        if coalesce_bytes < 0:
            raise ValueError(f"coalesce_bytes must be >= 0: {coalesce_bytes}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {max_retries}")
        if retry_backoff_s < 0:
            raise ValueError(f"retry_backoff_s must be >= 0: {retry_backoff_s}")
        for cls, seconds in (deadlines or {}).items():
            if cls not in Priority.__members__:
                raise ValueError(
                    f"unknown deadline class {cls!r}; expected one of "
                    f"{tuple(Priority.__members__)}"
                )
            if seconds <= 0:
                raise ValueError(f"deadline for {cls} must be positive: {seconds}")
        if hedge_delay_s is not None and hedge_delay_s < 0:
            raise ValueError(f"hedge_delay_s must be >= 0: {hedge_delay_s}")
        if slow_request_s is not None and slow_request_s <= 0:
            raise ValueError(f"slow_request_s must be positive: {slow_request_s}")
        if watchdog_interval_s <= 0:
            raise ValueError(
                f"watchdog_interval_s must be positive: {watchdog_interval_s}"
            )
        self.name = name
        self.fifo = fifo
        self.coalesce_bytes = coalesce_bytes
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        #: Tenant registry: admission control + per-tenant books.  Fair
        #: dequeue engages only when a registry was passed explicitly
        #: (and not in FIFO mode) — the implicit bookkeeping registry
        #: must not perturb the legacy heap order.
        self.tenants = tenants if tenants is not None else TenantRegistry()
        self.fair_share = tenants is not None and not fifo
        #: Requests held by quota admission, per tenant, in submit
        #: order; not on any lane (pending/drain ignore them) until a
        #: refund re-admits them.  Guarded by _park_lock.
        self._parked: Dict[str, Deque[IORequest]] = {}
        self._park_lock = threading.Lock()
        self.stats = SchedulerStats()
        #: Per-class execution deadlines (Priority name -> seconds) the
        #: watchdog abandons stuck requests against; empty = no deadlines.
        self.deadlines: Dict[str, float] = dict(deadlines or {})
        #: Hedged-read knobs: ``hedge`` arms the watchdog's duplicate
        #: issue for stuck blocking loads; ``hedge_delay_s`` pins the
        #: stuck threshold (None = adaptive from recent load durations).
        self.hedge = hedge
        self.hedge_delay_s = hedge_delay_s
        self.watchdog_interval_s = watchdog_interval_s
        #: Per-lane failure/death bookkeeping fed by request completions;
        #: the tiered offloader and the adaptive controller both read it.
        self.health = LaneHealthTracker(slow_threshold_s=slow_request_s)
        self._stats_lock = threading.Lock()
        # An Event, not a lock-guarded bool: worker loops read the flag
        # under their lane's condition while shutdown() runs under the
        # stats lock — a plain bool written under one lock and read under
        # another has no consistent guard, so a lane mid-wait could miss
        # it.  The Event's own lock makes every read/write coherent and
        # the check-then-wait under ``lane.cond`` stays race-free against
        # the post-set ``notify_all`` (which also takes ``lane.cond``).
        self._shutdown = threading.Event()
        #: Per-(lane, channel) completion aggregates since the last
        #: consume_completion_stats() call; guarded by _stats_lock.
        self._windows: Dict[Tuple[str, str], ChannelWindow] = {}
        #: Per-(lane, channel) [active_count, interval_open_time]:
        #: tracks the union of execution intervals across the lane's
        #: workers so busy_s never double-counts overlap.
        self._channel_usage: Dict[Tuple[str, str], List[float]] = {}
        #: Per-(tenant, lane, channel) mirrors of the two dicts above —
        #: the per-tenant telemetry surface (autotune per tenant).
        self._tenant_windows: Dict[Tuple[str, str, str], ChannelWindow] = {}
        self._tenant_usage: Dict[Tuple[str, str, str], List[float]] = {}
        self._listeners: List[Callable[[str, IORequest], None]] = []
        #: How dequeued batches reach the kernel; see
        #: :class:`~repro.io.aio.IOBackend` for the contract a backend
        #: must honour.
        self.backend = backend if backend is not None else ThreadBackend()
        self.backend.bind(self)
        self._lanes: Dict[str, _Lane] = {
            lane: _Lane(lane, _FairQueue(self.tenants) if self.fair_share else None)
            for lane in lanes
        }
        #: Worker threads per lane: how many requests one lane executes
        #: at once (the tensor cache sizes its store window from it).
        self.workers_per_lane = num_store_workers + num_load_workers
        self._workers: List[threading.Thread] = []
        for lane in self._lanes.values():
            for i in range(self.workers_per_lane):
                worker = threading.Thread(
                    target=self._worker_loop,
                    args=(lane,),
                    name=f"{name}-{lane.name}-{i}",
                    daemon=True,
                )
                self._workers.append(worker)
                worker.start()
        #: In-flight (begun, not finished) requests the watchdog scans;
        #: maintained only when a watchdog runs.  Guarded by _inflight_lock.
        self._inflight: set = set()
        self._inflight_lock = threading.Lock()
        #: Recent executed-load durations per lane, the adaptive hedge
        #: delay's sample window.  Guarded by _stats_lock.
        self._load_durations: Dict[str, Deque[float]] = {}
        # The watchdog thread exists only when a degraded-mode feature
        # needs it — a default-configured scheduler spawns no extra
        # thread (the engine-lifecycle leak test counts on that).
        self._watchdog: Optional[threading.Thread] = None
        if self.deadlines or self.hedge:
            self._watchdog = threading.Thread(
                target=self._watchdog_loop, name=f"{name}-watchdog", daemon=True
            )
            self._watchdog.start()

    # --------------------------------------------------------------- listeners
    def add_listener(self, listener: Callable[[str, IORequest], None]) -> None:
        """Subscribe to scheduler events.

        ``listener(event, request)`` fires for ``"submit"``, ``"start"``,
        ``"done"``, ``"cancel"``, ``"promote"`` and — under quota
        admission — ``"park"`` / ``"unpark"`` (after the fact, with
        no scheduler lock held).  The I/O tracer uses this to surface
        cancellations and promotions in overlap reports.
        """
        self._listeners.append(listener)

    def _notify(self, event: str, request: IORequest) -> None:
        for listener in self._listeners:
            listener(event, request)

    # ------------------------------------------------------------------ submit
    def _lane_of(self, request: IORequest) -> _Lane:
        lane = self._lanes.get(request.lane)
        if lane is None:
            raise ValueError(
                f"unknown lane {request.lane!r}; scheduler has {tuple(self._lanes)}"
            )
        return lane

    def _sort_key(self, request: IORequest) -> int:
        return 0 if self.fifo else int(request.priority)

    def submit(self, request: IORequest) -> IORequest:
        """Enqueue a typed request on its tier lane; returns the request.

        Tenant admission runs first: an over-quota submission is either
        rejected (:class:`~repro.io.tenancy.TenantQuotaError`) or
        parked — held off-lane until a refund (a cancellation or
        failure of an admitted request) frees headroom, at which point
        it is enqueued in park order.  A parked request is PENDING and
        cancellable, but invisible to ``pending()``/``drain()``.
        """
        self._lane_of(request)  # validate the lane before charging quota
        outcome = self.tenants.admit(request.tenant, request.nbytes)
        if outcome == "reject":
            raise TenantQuotaError(
                f"tenant {request.tenant!r} over quota: {request.label} "
                f"({request.nbytes} bytes) rejected"
            )
        if outcome == "park":
            with self._park_lock:
                if self._shutdown.is_set():
                    self.tenants.note_parked_cancelled(request.tenant)
                    raise RuntimeError(f"scheduler {self.name} is shut down")
                request._parked = True
                self._parked.setdefault(request.tenant, deque()).append(request)
            self._safe_notify("park", request)
            return request
        return self._enqueue(request)

    def _enqueue(self, request: IORequest) -> IORequest:
        """Admission already charged: put the request on its lane."""
        lane = self._lane_of(request)
        # Requests without an explicit retry policy inherit the
        # scheduler's (an explicit 0 opts out — stateful bodies that
        # handle their own retries must not be blindly re-executed).
        if request._max_retries_override is None:
            request.max_retries = self.max_retries
        if request._retry_backoff_override is None:
            request.retry_backoff_s = self.retry_backoff_s
        request.submitted_at = time.monotonic()
        with lane.cond:
            shut = self._shutdown.is_set()
            if not shut:
                lane.pending += 1
                lane.idle.clear()
                if lane.fair is not None:
                    lane.fair.push(request)
                else:
                    heapq.heappush(
                        lane.heap,
                        (self._sort_key(request), lane.seq, int(request.priority), request),
                    )
                    lane.seq += 1
                lane.cond.notify()
        if shut:
            # Admission already booked/charged this request; undo it so
            # the per-tenant books stay exact through the refusal.
            self.tenants.rollback_submitted(request.tenant, request.nbytes)
            raise RuntimeError(f"scheduler {self.name} is shut down")
        # Finishing — by execution or by cancellation — is bookkept in one
        # place so the pending count never double-decrements on the
        # cancel-vs-dequeue race.
        had_lease = request.lease is not None
        request.add_done_callback(
            lambda req, ln=lane, leased=had_lease: self._on_request_done(ln, req, leased)
        )
        with self._stats_lock:
            self.stats.submitted += 1
            if had_lease:
                self.stats.leased_requests += 1
            cls = request.priority.name
            self.stats.submitted_by_class[cls] = (
                self.stats.submitted_by_class.get(cls, 0) + 1
            )
        self._safe_notify("submit", request)
        return request

    def _on_request_done(
        self, lane: _Lane, request: IORequest, leased: bool = False
    ) -> None:
        state = request.state
        if leased:
            # Whatever terminal state this is, the riding lease must not
            # leak: release anything still attached (an owner that kept
            # the bytes detached it first, which counts as resolved).
            # Resolved BEFORE the pending decrement below — drain()
            # returns the moment every lane goes idle, and the no-leak
            # invariants (leased == released, arena outstanding == 0)
            # must already hold at that point.
            lease = request.detach_lease()
            if lease is not None:
                lease.release()
            with self._stats_lock:
                self.stats.leases_released += 1
        with lane.cond:
            lane.pending -= 1
            if lane.pending == 0:
                lane.idle.set()
        with self._stats_lock:
            self.stats.retries += request.attempts
            if state is JobState.CANCELLED:
                self.stats.cancelled += 1
                self.stats.cancelled_bytes += request.nbytes
                if request.kind in ("store", "demote"):
                    self.stats.cancelled_stores += 1
            elif state is JobState.FAILED:
                self.stats.failed += 1
                self.stats.failed_bytes += request.nbytes
            else:
                self.stats.executed += 1
        outcome = (
            "cancelled"
            if state is JobState.CANCELLED
            else "failed" if state is JobState.FAILED else "executed"
        )
        self.tenants.note_finished(
            request.tenant, outcome, request.nbytes, retries=request.attempts
        )
        if outcome != "executed":
            # The bytes never landed: refund the tenant's quota charge
            # and give any of its parked submissions a shot at the
            # freed headroom.
            self.tenants.refund(request.tenant, request.nbytes)
            self.kick_parked(request.tenant)
        # Health is learned only from requests that actually ran, and
        # only from *device-shaped* errors: a MemoryError (pool capacity
        # spike), a structural OSError (missing file, permissions), or a
        # plain bug in a job body says nothing about the device, and
        # must not brick a lane.  A body that recovered from an I/O
        # failure internally (tiered demotion failover) reports it via
        # ``health_error`` so the lane still learns the truth despite
        # the request completing DONE.  Verdicts are tenant-scoped: the
        # default tenant drives the lane's global verdict, any other
        # tenant only its own (isolation).
        if state is JobState.CANCELLED:
            return
        error = request.error if state is JobState.FAILED else request.health_error
        if is_device_error(error):
            self.health.record_failure(
                request.lane,
                permanent=isinstance(error, PermanentIOError),
                tenant=request.tenant,
            )
        elif state is JobState.DONE:
            self.health.record_success(request.lane, tenant=request.tenant)

    # ------------------------------------------------------------------ parked
    def parked(self, tenant: Optional[str] = None) -> int:
        """Requests currently held by quota admission (one tenant or all)."""
        with self._park_lock:
            if tenant is not None:
                return sum(
                    1
                    for req in self._parked.get(tenant, ())
                    if req.state is JobState.PENDING
                )
            return sum(
                1
                for queue in self._parked.values()
                for req in queue
                if req.state is JobState.PENDING
            )

    def kick_parked(self, tenant: str) -> int:
        """Re-try admission for the tenant's parked requests, in park
        order, until the head no longer fits; returns how many were
        enqueued.  Called automatically on every refund; call it
        manually after :meth:`TenantRegistry.resume` or a quota raise.
        """
        enqueued = 0
        while True:
            with self._park_lock:
                queue = self._parked.get(tenant)
                while queue and queue[0].state is not JobState.PENDING:
                    queue.popleft()  # cancelled while parked
                    self.tenants.note_parked_cancelled(tenant)
                if not queue:
                    if queue is not None:
                        self._parked.pop(tenant, None)
                    return enqueued
                request = queue[0]
                if not self.tenants.try_charge(tenant, request.nbytes):
                    return enqueued  # still no headroom; stays parked
                queue.popleft()
                request._parked = False
                if not queue:
                    self._parked.pop(tenant, None)
            self._enqueue(request)
            self._safe_notify("unpark", request)
            enqueued += 1

    def _discard_parked(self, request: IORequest) -> bool:
        with self._park_lock:
            queue = self._parked.get(request.tenant)
            if not queue:
                return False
            try:
                queue.remove(request)
            except ValueError:
                return False
            request._parked = False
            if not queue:
                self._parked.pop(request.tenant, None)
        self.tenants.note_parked_cancelled(request.tenant)
        return True

    # ------------------------------------------------------ cancel / promote
    def cancel(self, request: IORequest) -> bool:
        """Cancel a PENDING request (False if it already started).

        The request's done event fires either way once it reaches a
        terminal state; a successful cancel reaches it without touching
        the backing store.  Cancelling a parked request unlinks it from
        the park queue immediately (it owed no quota).
        """
        if request.cancel():
            if request._parked:
                self._discard_parked(request)
            self._safe_notify("cancel", request)
            return True
        return False

    def promote(self, request: Optional[IORequest], priority: Priority = Priority.BLOCKING_LOAD) -> bool:
        """Raise a PENDING request's urgency (deadline promotion).

        Legacy path: re-pushes the request with the new class; the stale
        heap entry is skipped at dequeue time (its priority snapshot no
        longer matches).  Fair path: the request is unlinked from its
        class ring and re-pushed under the new class (no stale entries).
        A parked request just has its priority raised — it enters the
        queue with it when admission unparks it.  No-op in FIFO mode,
        for requests already at least that urgent, and for requests
        that left the queue.
        """
        if request is None or self.fifo:
            return False
        if request._parked:
            with self._park_lock:
                if not request._parked or request.state is not JobState.PENDING:
                    return False
                if int(priority) >= int(request.priority):
                    return False
                request.priority = Priority(priority)
            with self._stats_lock:
                self.stats.promotions += 1
            self._safe_notify("promote", request)
            return True
        lane = self._lane_of(request)
        with lane.cond:
            if request.state is not JobState.PENDING:
                return False
            if int(priority) >= int(request.priority):
                return False
            if lane.fair is not None:
                requeue = lane.fair.remove(request)
                request.priority = Priority(priority)
                if requeue:
                    lane.fair.push(request)
                    lane.cond.notify()
            else:
                request.priority = Priority(priority)
                heapq.heappush(
                    lane.heap,
                    (self._sort_key(request), lane.seq, int(request.priority), request),
                )
                lane.seq += 1
                lane.cond.notify()
        with self._stats_lock:
            self.stats.promotions += 1
        self._safe_notify("promote", request)
        return True

    # ----------------------------------------------------------------- workers
    def _pop_valid_locked(self, lane: _Lane) -> Optional[IORequest]:
        """Pop the most urgent live entry; drops stale/cancelled ones."""
        while lane.heap:
            _, _, entry_priority, request = heapq.heappop(lane.heap)
            if request.state is not JobState.PENDING:
                continue  # cancelled while queued (or stale duplicate)
            if entry_priority != int(request.priority):
                continue  # stale entry left behind by a promotion
            return request
        return None

    def _pop_batch_locked(self, lane: _Lane) -> List[IORequest]:
        """Pop one request, plus — for small stores — the adjacent small
        stores queued behind it, to run back-to-back as one batch.

        Stores are the lowest class, so when a store is at the front the
        whole heap is stores: draining from the top preserves priority
        order while guaranteeing the batch is adjacent in queue order.

        Members claimed into a batch ride behind its head even if another
        worker goes idle — adjacency is the point (one chunk submission).
        Within the store class that can reorder a later store ahead of a
        claimed one, which is fine: stores carry no ordering guarantee,
        only a step-end deadline, and claimed members stay cancellable
        until the worker reaches them.
        """
        if lane.fair is not None:
            return self._pop_batch_fair_locked(lane)
        head = self._pop_valid_locked(lane)
        if head is None:
            return []
        batch = [head]
        if (
            self.coalesce_bytes <= 0
            or head.kind not in ("store", "demote")
            or head.nbytes >= self.coalesce_bytes
        ):
            return batch
        total = head.nbytes
        while lane.heap:
            _, _, entry_priority, nxt = lane.heap[0]
            if nxt.state is not JobState.PENDING or entry_priority != int(nxt.priority):
                heapq.heappop(lane.heap)  # stale: drop and keep scanning
                continue
            if nxt.kind not in ("store", "demote"):
                break
            if total + nxt.nbytes > self.coalesce_bytes:
                break
            heapq.heappop(lane.heap)
            batch.append(nxt)
            total += nxt.nbytes
        return batch

    def _pop_batch_fair_locked(self, lane: _Lane) -> List[IORequest]:
        """Fair-path dequeue: DRR picks the head; coalescing then
        drains the *same tenant's* queued small stores/demotions (in
        its class order) into the batch — a batch never mixes tenants,
        so coalescing cannot become a fairness loophole (the bytes a
        batch moves are all charged to the tenant DRR selected)."""
        head = lane.fair.pop()
        if head is None:
            return []
        batch = [head]
        if (
            self.coalesce_bytes <= 0
            or head.kind not in ("store", "demote")
            or head.nbytes >= self.coalesce_bytes
        ):
            return batch
        total = head.nbytes
        while True:
            nxt = lane.fair.peek_tenant_head(head.tenant)
            if (
                nxt is None
                or nxt.kind not in ("store", "demote")
                or total + nxt.nbytes > self.coalesce_bytes
            ):
                break
            lane.fair.remove(nxt)
            batch.append(nxt)
            total += nxt.nbytes
        return batch

    @staticmethod
    def _usage_open(usage_map, key, at: float) -> None:
        usage = usage_map.setdefault(key, [0, 0.0])
        if usage[0] == 0:
            usage[1] = at  # a new busy interval opens
        usage[0] += 1

    @staticmethod
    def _usage_close(usage_map, windows_map, key, request: IORequest) -> None:
        window = windows_map.setdefault(key, ChannelWindow())
        if request.state is not JobState.FAILED:
            # A failed request moved no usable bytes; counting them
            # would inflate the observed bandwidth the adaptive
            # controller trusts.  Its busy time is still real, so the
            # interval-union accounting below proceeds either way.
            window.nbytes += request.nbytes
            window.queued_s += max(0.0, request.started_at - request.submitted_at)
            window.count += 1
        usage = usage_map[key]
        usage[0] -= 1
        if usage[0] == 0:
            # Last concurrent request on the channel: the busy
            # interval closes, credited once for all of them.
            window.busy_s += max(0.0, request.finished_at - usage[1])

    def _channel_started(self, request: IORequest) -> None:
        channel = _channel_of(request.kind)
        with self._stats_lock:
            self._usage_open(
                self._channel_usage, (request.lane, channel), request.started_at
            )
            self._usage_open(
                self._tenant_usage,
                (request.tenant, request.lane, channel),
                request.started_at,
            )

    def _record_completion(self, request: IORequest) -> None:
        channel = _channel_of(request.kind)
        with self._stats_lock:
            self._usage_close(
                self._channel_usage, self._windows, (request.lane, channel), request
            )
            self._usage_close(
                self._tenant_usage,
                self._tenant_windows,
                (request.tenant, request.lane, channel),
                request,
            )

    def stats_snapshot(self) -> SchedulerStats:
        """A point-in-time copy of the cumulative counters.

        Unlike reading :attr:`stats` directly this is coherent (taken
        under the stats lock) and detached — mutating the copy, or the
        scheduler executing more work, does not affect the other.  The
        aggregate :meth:`repro.core.engine.Engine.stats` surface is built
        from this, so it never hands callers the live mutable books.
        """
        with self._stats_lock:
            snap = replace(self.stats)
            snap.submitted_by_class = dict(self.stats.submitted_by_class)
        return snap

    def peek_completion_stats(self) -> Dict[str, Dict[str, ChannelWindow]]:
        """Copy the per-lane completion windows WITHOUT draining them:
        ``{lane: {"write" | "read": ChannelWindow}}``.

        The consuming reader is the adaptive controller
        (:meth:`consume_completion_stats` once per step); a second
        consumer would silently steal its bandwidth samples.  This
        read-only view lets ``engine.stats()`` report the windows while
        leaving the controller's feed intact.  Open busy intervals are
        closed *virtually* (elapsed time added to the copy only), so an
        in-flight transfer still shows up with honest busy seconds.
        """
        now = time.monotonic()
        out: Dict[str, Dict[str, ChannelWindow]] = {}
        with self._stats_lock:
            for (lane, channel), window in self._windows.items():
                copy = replace(window)
                usage = self._channel_usage.get((lane, channel))
                if usage is not None and usage[0] > 0:
                    copy.busy_s += max(0.0, now - usage[1])
                out.setdefault(lane, {})[channel] = copy
        return out

    def consume_completion_stats(self) -> Dict[str, Dict[str, ChannelWindow]]:
        """Drain the per-lane completion windows accumulated since the
        last call: ``{lane: {"write" | "read": ChannelWindow}}``.

        Cancelled requests never appear (they moved no bytes).  The
        adaptive controller calls this once per training step and feeds
        each window's observed bandwidth into its EWMA estimators.
        """
        now = time.monotonic()
        with self._stats_lock:
            # Close any still-open busy interval at the window boundary
            # so in-flight work's elapsed time lands in this window and
            # the next interval starts fresh.
            for key, usage in self._channel_usage.items():
                if usage[0] > 0:
                    window = self._windows.setdefault(key, ChannelWindow())
                    window.busy_s += max(0.0, now - usage[1])
                    usage[1] = now
            windows, self._windows = self._windows, {}
        out: Dict[str, Dict[str, ChannelWindow]] = {}
        for (lane, channel), window in windows.items():
            out.setdefault(lane, {})[channel] = window
        return out

    def consume_tenant_completion_stats(
        self,
    ) -> Dict[str, Dict[str, Dict[str, ChannelWindow]]]:
        """Per-tenant completion windows since the last call:
        ``{tenant: {lane: {"write" | "read": ChannelWindow}}}``.

        The per-tenant mirror of :meth:`consume_completion_stats` (same
        interval-union busy accounting, scoped to one tenant's
        requests) — the feed for per-tenant bandwidth reporting and a
        future per-tenant autotune.  The two surfaces drain independent
        window dicts, so consuming one does not reset the other.
        """
        now = time.monotonic()
        with self._stats_lock:
            for key, usage in self._tenant_usage.items():
                if usage[0] > 0:
                    window = self._tenant_windows.setdefault(key, ChannelWindow())
                    window.busy_s += max(0.0, now - usage[1])
                    usage[1] = now
            windows, self._tenant_windows = self._tenant_windows, {}
        out: Dict[str, Dict[str, Dict[str, ChannelWindow]]] = {}
        for (tenant, lane, channel), window in windows.items():
            out.setdefault(tenant, {}).setdefault(lane, {})[channel] = window
        return out

    def _safe_notify(self, event: str, request: IORequest) -> None:
        """Listener dispatch that cannot take a worker down: a raising
        listener is a telemetry bug, not a reason to strand a lane."""
        try:
            self._notify(event, request)
        except Exception:
            logger.exception(
                "scheduler listener raised on %r for %s", event, request.label
            )

    @staticmethod
    def _force_terminal(request: IORequest) -> None:
        """Last-resort guarantee that a claimed request reaches a
        terminal state.  ``run_body()`` captures any body
        exception, but a *done callback* raising mid-dispatch can
        propagate out with the remaining callbacks unrun; re-finishing
        is not possible (the state is already terminal), so this only
        covers the theoretical claimed-but-never-finished hole — a
        waiter must never block forever on a request a worker touched."""
        if request.done_event.is_set():
            return
        request.error = request.error or RuntimeError(
            f"request {request.label} left non-terminal by a callback failure"
        )
        try:
            request._finish(JobState.FAILED)
        except Exception:
            logger.exception("failing stranded request %s raised", request.label)
            request.done_event.set()

    # ---------------------------------------------------- watchdog
    # Runs only when deadlines or hedging are configured: scans the
    # in-flight set, abandons requests stuck past their per-class
    # deadline, and issues hedge duplicates for stuck blocking loads.

    def hedge_delay_for(self, lane: str) -> float:
        """Seconds a blocking load may run before its hedge is issued.

        Explicit ``hedge_delay_s`` wins.  Otherwise adapt from the
        lane's recent executed-load durations: the p99, capped at four
        medians — on a healthy lane (tail ≈ median) only genuine
        stragglers hedge, while under brownout (tail ≫ median) the
        median cap pulls the delay down so hedges fire as soon as a
        request exceeds 4x the typical latency.  With too few samples
        the conservative 50 ms default applies.
        """
        if self.hedge_delay_s is not None:
            return self.hedge_delay_s
        with self._stats_lock:
            samples = list(self._load_durations.get(lane, ()))
        if len(samples) < 8:
            return 0.05
        ordered = sorted(samples)
        p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
        p50 = ordered[len(ordered) // 2]
        return max(0.002, min(p99, 4.0 * p50))

    def _deadline_of(self, request: IORequest) -> Optional[float]:
        if request.deadline_s is not None:
            return request.deadline_s
        return self.deadlines.get(request.priority.name)

    def _watchdog_loop(self) -> None:
        while not self._shutdown.wait(self.watchdog_interval_s):
            try:
                self._watchdog_scan()
            except Exception:  # a scan bug must not kill the watchdog
                logger.exception("scheduler %s watchdog scan raised", self.name)

    def _watchdog_scan(self, now: Optional[float] = None) -> None:
        """One pass over the in-flight set (public for deterministic tests
        via an explicit ``now``)."""
        now = time.monotonic() if now is None else now
        with self._inflight_lock:
            inflight = list(self._inflight)
        for request in inflight:
            if request.done_event.is_set() or not request.started_at:
                continue
            elapsed = now - request.started_at
            deadline = self._deadline_of(request)
            if deadline is not None and elapsed > deadline:
                self._abandon(request, elapsed, deadline)
                continue
            if (
                self.hedge
                and request.kind == "load"
                and request.priority is Priority.BLOCKING_LOAD
                and not request.is_hedge
                and request.hedge is None
                and request.hedge_fn is not None
                and elapsed >= self.hedge_delay_for(request.lane)
            ):
                self._issue_hedge(request)

    def _abandon(self, request: IORequest, elapsed: float, deadline: float) -> None:
        """Force a stuck request FAILED; the wedged body's eventual
        outcome is discarded by the job's first-completion-wins rule."""
        error = DeadlineExceededError(
            f"{request.label} exceeded its {deadline:.3f}s deadline on lane "
            f"{request.lane!r} ({elapsed:.3f}s elapsed)"
        )
        if request.abandon(error):
            with self._stats_lock:
                self.stats.deadline_abandons += 1
            self._safe_notify("abandon", request)

    def _issue_hedge(self, request: IORequest) -> None:
        """Submit the hedge duplicate for a stuck blocking load.

        First completion wins: the hedge's DONE result completes the
        primary (idempotent :meth:`~repro.io.aio.IOJob.complete` — a
        late primary outcome is discarded), and a primary completing
        first cancels a still-PENDING hedge.
        """
        hedge = IORequest(
            request.hedge_fn,
            kind="load",
            priority=Priority.BLOCKING_LOAD,
            tensor_id=request.tensor_id,
            nbytes=request.nbytes,
            lane=request.lane,
            label=f"hedge:{request.label}",
            tenant=request.tenant,
        )
        hedge.is_hedge = True
        request.hedge = hedge

        def hedge_done(job: IOJob, primary: IORequest = request) -> None:
            if job.state is JobState.DONE and not primary.done_event.is_set():
                primary.complete(job.result, None)
                with self._stats_lock:
                    self.stats.hedges_won += 1

        hedge.add_done_callback(hedge_done)
        try:
            self.submit(hedge)
        except Exception:
            # Shutdown race or quota rejection: the hedge never ran;
            # the primary proceeds as if no hedge had been issued.
            logger.debug("hedge submit for %s refused", request.label, exc_info=True)
            return
        if hedge._parked:
            # A parked hedge would fire long after the stall it was
            # meant to cut; retract it rather than waste the quota.
            self.cancel(hedge)
            return
        with self._stats_lock:
            self.stats.hedges_issued += 1
        request.add_done_callback(lambda _req, h=hedge: self.cancel(h))

    # ---------------------------------------------------- backend hooks
    # The installed IOBackend drives these for every request it claimed;
    # together they are the whole bookkeeping contract (docs §10).  Kept
    # as small public wrappers so a backend never reaches into the
    # scheduler's locking discipline.

    def begin_request(self, request: IORequest) -> None:
        """Book a claimed request as started (telemetry + listeners).

        Must be called exactly once per won :meth:`IOJob.claim`, before
        the body runs — the channel busy interval opens here.
        """
        request.started_at = time.monotonic()
        if self._watchdog is not None:
            with self._inflight_lock:
                self._inflight.add(request)
        self._channel_started(request)
        self._safe_notify("start", request)

    def finish_request(self, request: IORequest) -> None:
        """Book a begun request as finished and force a terminal state.

        Must be called exactly once per :meth:`begin_request`, after the
        body's outcome has been applied (or when the backend gave up on
        the request).  Closes the busy interval, books the completion
        windows, and guarantees the job is DONE/FAILED so no waiter can
        block forever on a request a backend touched.  ``finished_at``
        is stamped here unless the backend already did (an SQ/CQ
        backend stamps it at I/O completion, before the reap).
        """
        if not request.finished_at:
            request.finished_at = time.monotonic()
        if self._watchdog is not None:
            with self._inflight_lock:
                self._inflight.discard(request)
        duration = request.finished_at - request.started_at
        self.health.record_duration(request.lane, duration)
        if self.hedge and request.kind == "load":
            with self._stats_lock:
                window = self._load_durations.get(request.lane)
                if window is None:
                    window = self._load_durations[request.lane] = deque(maxlen=64)
                window.append(duration)
        self._record_completion(request)
        self._force_terminal(request)

    def notify_done(self, request: IORequest) -> None:
        """Emit the ``"done"`` listener event for a finished request."""
        self._safe_notify("done", request)

    def book_coalesced(self, done_members: int, trailing_done_bytes: int) -> None:
        """Book one multi-request submission's coalescing outcome.

        ``done_members`` counts the batch members that reached DONE;
        only the trailing ones (beyond the head) count as coalesced
        work, preserving ``coalesced_requests <= executed``.  A batch
        with fewer than two DONE members books nothing.
        """
        if done_members <= 1:
            return
        with self._stats_lock:
            self.stats.coalesced_batches += 1
            self.stats.coalesced_requests += done_members - 1
            self.stats.coalesced_bytes += trailing_done_bytes

    def note_reap_lag(self, request: IORequest, lag_s: float) -> None:
        """Credit completion-reap delay to the request's channel window.

        The SQ/CQ backend's reaper calls this with ``reaped_at -
        finished_at``; the controller folds the per-request lag into its
        read-latency estimate.  The thread backend never calls it (its
        windows keep ``reap_lag_s == 0.0``).
        """
        if lag_s <= 0.0:
            return
        channel = _channel_of(request.kind)
        with self._stats_lock:
            window = self._windows.setdefault((request.lane, channel), ChannelWindow())
            window.reap_lag_s += lag_s
            tenant_key = (request.tenant, request.lane, channel)
            tenant_window = self._tenant_windows.setdefault(tenant_key, ChannelWindow())
            tenant_window.reap_lag_s += lag_s

    def backend_stats_snapshot(self) -> Dict[str, IOLaneStats]:
        """Non-destructive per-lane backend telemetry (syscalls, batch
        membership, GDS-sim routing) — the ``EngineStats.io_lanes``
        surface."""
        return self.backend.lane_stats()

    def _worker_loop(self, lane: _Lane) -> None:
        while True:
            with lane.cond:
                while not lane.has_work() and not self._shutdown.is_set():
                    lane.cond.wait()
                if not lane.has_work() and self._shutdown.is_set():
                    return
                batch = self._pop_batch_locked(lane)
            # How the batch's members reach the kernel is the installed
            # backend's business (blocking per-request I/O on this
            # thread, or SQ/CQ submission with a separate reaper); the
            # scheduler's books are updated through the begin/finish
            # hooks the backend is contractually bound to call.  The
            # backend must not raise — but one poisoned batch still must
            # not kill the lane and hang drain() on the work queued
            # behind it, so the residual hazard is contained here too.
            try:
                self.backend.run_batch(lane.name, batch)
            except Exception:
                logger.exception(
                    "backend %s raised on a %s batch; worker %s continues",
                    self.backend.name,
                    lane.name,
                    threading.current_thread().name,
                )
                for request in batch:
                    if request.state is JobState.RUNNING:
                        try:
                            self.finish_request(request)
                        except Exception:
                            self._force_terminal(request)

    # ------------------------------------------------------------------- drain
    def pending(self, lane: Optional[str] = None) -> int:
        """Requests submitted but not yet finished (one lane or all)."""
        lanes = [self._lanes[lane]] if lane is not None else list(self._lanes.values())
        total = 0
        for ln in lanes:
            with ln.lock:
                total += ln.pending
        return total

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every lane is simultaneously empty and idle.

        A single pass is not enough: work finishing on a later-checked
        lane may submit onto an earlier-checked one (a cpu-lane store
        triggering a tiered demotion queues an ssd-lane write), so loop
        until one pass observes every lane idle at once.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            for lane in self._lanes.values():
                remaining = (
                    None if deadline is None else max(0.0, deadline - time.monotonic())
                )
                if not lane.idle.wait(remaining):
                    return False
            if all(lane.idle.is_set() for lane in self._lanes.values()):
                return True

    def shutdown(self) -> None:
        """Finish queued work and stop the workers (idempotent).

        Parked requests are cancelled — they were never admitted, and
        nothing will refund quota for them after the lanes stop."""
        with self._stats_lock:  # idempotency only; readers use the Event
            if self._shutdown.is_set():
                return
            self._shutdown.set()
        with self._park_lock:
            parked = [req for queue in self._parked.values() for req in queue]
            self._parked.clear()
        for request in parked:
            request._parked = False
            self.tenants.note_parked_cancelled(request.tenant)
            if request.cancel():
                self._safe_notify("cancel", request)
        self.drain()
        for lane in self._lanes.values():
            with lane.cond:
                lane.cond.notify_all()
        for worker in self._workers:
            worker.join(timeout=5)
        if self._watchdog is not None:
            self._watchdog.join(timeout=5)
        # Only after the lane workers are gone: no batch can be in
        # flight, so the backend can stop its reaper and close its FDs.
        self.backend.shutdown()

    #: Closeable-resource alias; service restarts lean on it being
    #: idempotent and actually joining every worker (no daemon leaks).
    close = shutdown

    @property
    def closed(self) -> bool:
        """True once :meth:`shutdown` has begun."""
        return self._shutdown.is_set()

    def __enter__(self) -> "IOScheduler":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()
