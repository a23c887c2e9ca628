"""Tiered offloading: GPU -> pinned CPU pool -> SSD (chunked or per-file).

The paper's tensor cache drives exactly one transfer target.  This module
composes the existing backends into a capacity-aware hierarchy in the
PatrickStar / ColossalAI ``StatefulTensor`` tradition:

- **GPU** — hot: KEEP-decided records never reach the offloader;
- **CPU** — warm: a bounded :class:`~repro.core.offloader.PinnedMemoryPool`
  absorbs stores at PCIe speed.  When the pool fills, the **least
  recently used** residents are *demoted* to SSD to make room (write-back,
  not write-through: a tensor lives in exactly one tier);
- **SSD** — cold: the file/chunk store; with ``chunk_bytes`` set, small
  demotions coalesce into one sequential chunk write
  (:class:`~repro.io.chunkstore.ChunkedTensorStore`).

Loads *promote*: reading an SSD-resident tensor copies it back into the
pool when there is room, so a re-read (recomputation replays, multi-scope
saves, repeated prefetch) hits host memory instead of the SSD.

Placement is a policy decision
(:meth:`~repro.core.policy.OffloadPolicy.place`): the pool takes any
tensor under ``cpu_tier_max_tensor_bytes`` that the pool *could* hold;
making room by demotion is this module's job.

The class implements the full :class:`~repro.core.offloader.Offloader`
API, so an unchanged :class:`~repro.core.tensor_cache.TensorCache` can
drive all three tiers; the cache additionally records each record's tier
(:attr:`ActivationRecord.tier`) by calling :meth:`tier_of` when a store
completes.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.ids import TensorID
from repro.core.offloader import CPUOffloader, Offloader, PinnedMemoryPool, SSDOffloader
from repro.core.policy import OffloadPolicy, Tier
from repro.io.breaker import BreakerState, CircuitBreaker, Listener
from repro.io.buffers import BufferLease, DataPlaneStats, owned_copy
from repro.io.errors import PermanentIOError, is_enospc, retry_call
from repro.io.gds import GDSRegistry
from repro.io.scheduler import IORequest, IOScheduler, Priority
from repro.io.tenancy import DEFAULT_TENANT, current_tenant, tenant_scope
from repro.tensor.tensor import Tensor

logger = logging.getLogger(__name__)


@dataclass
class TierStats:
    """Cumulative tier-traffic counters (benchmark / test surface)."""

    cpu_stored_tensors: int = 0
    cpu_stored_bytes: int = 0
    ssd_stored_tensors: int = 0     # direct-to-SSD stores (policy bypass)
    ssd_stored_bytes: int = 0
    demotions: int = 0              # CPU -> SSD spills on pool pressure
    demoted_bytes: int = 0
    promotions: int = 0             # SSD -> CPU copies on load
    promoted_bytes: int = 0
    cpu_hits: int = 0               # loads served from the pinned pool
    cpu_hit_bytes: int = 0
    ssd_loads: int = 0
    ssd_loaded_bytes: int = 0
    cancelled_demotions: int = 0    # SSD writes avoided: victim released
    cancelled_demotion_bytes: int = 0
    demotion_forward_hits: int = 0  # loads served from an in-flight demotion
    #: Stores/demotions re-routed to the CPU tier because the SSD store
    #: is dead (permanent I/O failure) or its write exhausted the retry
    #: budget — the failure-recovery path, not normal placement.
    failovers: int = 0
    failover_bytes: int = 0
    #: Stores kept on the CPU tier because the SSD lane is browning out
    #: (slow verdict, not dead): tail latency trades against capacity
    #: until the lane speeds back up.
    shed_stores: int = 0
    shed_bytes: int = 0
    #: ENOSPC events absorbed (root re-route, compact-and-retry, or CPU
    #: degrade) without failing the step.
    enospc_events: int = 0
    #: Breaker probe rounds that re-closed and resurrected the SSD tier.
    resurrections: int = 0


class TieredOffloader(Offloader):
    """Capacity-aware multi-backend offloader.

    Args:
        store_dir: directory for the SSD tier's files.
        cpu_pool_bytes: pinned pool capacity — the CPU tier's size.
        chunk_bytes: if set, the SSD tier coalesces tensors into chunks
            of this size (one physical write per chunk).
        policy: supplies the tier-placement rule; defaults to a fresh
            :class:`OffloadPolicy` (pool-first placement).
        promote_on_load: copy SSD-resident tensors back into the pool on
            load when there is free room (no demotion is triggered for a
            promotion — promotions must never thrash the warm set).
        durable / store_roots: forwarded to the SSD tier's chunk store
            (manifest journaling and write-leveling, service mode).
        throttle_bytes_per_s / array / gds: forwarded to the SSD tier.
    """

    def __init__(
        self,
        store_dir,
        cpu_pool_bytes: int,
        chunk_bytes: Optional[int] = None,
        policy: Optional[OffloadPolicy] = None,
        promote_on_load: bool = True,
        throttle_bytes_per_s: Optional[float] = None,
        array=None,
        gds: Optional[GDSRegistry] = None,
        durable: bool = False,
        store_roots=None,
        probe_backoff_s: Optional[float] = None,
    ) -> None:
        if cpu_pool_bytes < 0:
            raise ValueError(f"cpu_pool_bytes must be >= 0: {cpu_pool_bytes}")
        self.cpu = CPUOffloader(PinnedMemoryPool(cpu_pool_bytes))
        self.ssd = SSDOffloader(
            store_dir,
            throttle_bytes_per_s=throttle_bytes_per_s,
            array=array,
            gds=gds,
            chunk_bytes=chunk_bytes,
            durable=durable,
            store_roots=store_roots,
        )
        self.policy = policy if policy is not None else OffloadPolicy()
        self.promote_on_load = promote_on_load
        self.stats = TierStats()
        # Coarse lock over placement metadata and tier moves.  I/O on the
        # cache's store/load pools serializes through it; the functional
        # engine models mechanism, not device parallelism, so correctness
        # of the demote/promote/forward dance wins over overlap here.
        self._lock = threading.RLock()
        self._tier: Dict[TensorID, Tier] = {}
        #: CPU-resident tids in LRU order (oldest first = first demoted).
        self._lru: "OrderedDict[TensorID, int]" = OrderedDict()
        #: Observer for demotions/promotions (the cache keeps its Fig. 4
        #: records' tier column truthful through it).
        self._tier_listener: Optional[Callable[[TensorID, Tier], None]] = None
        #: With a scheduler attached, demotions run as DEMOTION-priority
        #: requests on the SSD store lane instead of inline: the pool
        #: bytes are reclaimed immediately, the SSD write happens when
        #: the lane gets to it, and releasing (or re-loading) the victim
        #: first *cancels* the write.  The buffers park here meanwhile.
        self._scheduler: Optional[IOScheduler] = None
        self._pending_demotions: Dict[TensorID, "np.ndarray"] = {}
        self._demotion_reqs: Dict[TensorID, IORequest] = {}
        #: Demotions whose SSD write is in flight *outside* the tier lock
        #: (so a slow/throttled write never blocks loads on other tids).
        #: Readers serve the parked buffer; writers to the same tid wait
        #: on the event before touching the SSD copy.
        self._writing_demotions: Dict[TensorID, "np.ndarray"] = {}
        self._writing_events: Dict[TensorID, threading.Event] = {}
        #: Target free headroom the pool keeps between steps (bytes);
        #: installed by the adaptive controller, enforced on demand by
        #: :meth:`apply_watermark`.  0 = no proactive demotion.
        self._free_watermark_bytes = 0
        #: SSD-tier circuit breaker: trips on the first PermanentIOError
        #: from the SSD store (or when the scheduler's lane health
        #: declares the ssd lane dead).  While open, every placement
        #: targets the CPU tier — correctness over capacity — and the
        #: pinned pool is allowed to overflow its cap rather than fail
        #: the step.  Unlike the pre-PR10 latch this is not sticky:
        #: after a backoff, :meth:`maybe_probe_ssd` canaries the device
        #: and a passing probe budget resurrects the tier.
        #: ``probe_backoff_s`` doubles as the breaker backoff *and* the
        #: opt-in for store-path auto-probing; ``None`` (the default)
        #: keeps the conservative backoff and probes only when the
        #: service housekeeping loop (or a test) calls
        #: :meth:`maybe_probe_ssd` explicitly.
        self.probe_backoff_s = probe_backoff_s
        backoff = probe_backoff_s if probe_backoff_s is not None else 0.05
        self._breaker = CircuitBreaker(name="ssd", backoff_s=backoff)
        #: Tenant-scoped breakers: an SSD failure attributed to one
        #: tenant (via the scheduler's per-tenant lane health or a failed
        #: store in that tenant's scope) degrades only that tenant's
        #: placement; every other tenant keeps its SSD tier.  The default
        #: tenant never lands here — its failures drive the global
        #: breaker, preserving single-tenant behaviour exactly.
        self._tenant_breakers: Dict[str, CircuitBreaker] = {}
        self._breaker_listener: Optional[Listener] = None
        #: ``pool.overflow_allowed`` before the first trip, restored when
        #: the last open breaker closes (resurrection exits overflow).
        self._overflow_before_trip: Optional[bool] = None
        #: Owning tenant per stored tensor: demotions/evictions of a
        #: victim must run (and account) against the tenant that stored
        #: it, not whichever tenant's store triggered the pool pressure.
        self._tid_owner: Dict[TensorID, str] = {}
        if durable:
            self._rehydrate_tier_map()

    def _rehydrate_tier_map(self) -> None:
        """Seed the tier map from a replayed durable store.

        The tier map is in-memory state; after a service restart every
        replayed SSD-resident tensor would otherwise read as "never
        stored".  Host-tier residents are genuinely gone (RAM died with
        the process), so only the SSD side is rebuilt.
        """
        store = self.ssd.file_store
        tensor_ids = getattr(store, "tensor_ids", None)
        if tensor_ids is None:
            return
        for name in tensor_ids():
            try:
                tid = TensorID.from_filename(name)
            except ValueError:
                continue  # foreign key in a shared store directory
            self._tier[tid] = Tier.SSD

    # ---------------------------------------------------------------- failover
    @property
    def ssd_dead(self) -> bool:
        """True while the SSD breaker is open (traffic routes around the
        tier).  No longer sticky: a passed probe budget clears it."""
        return self._breaker.is_open

    @property
    def breaker(self) -> CircuitBreaker:
        """The global SSD-tier circuit breaker (state/stats surface)."""
        return self._breaker

    def ssd_dead_for(self, tenant: str) -> bool:
        """True when ``tenant``'s SSD placement is written off (global
        death counts for everyone; tenant-scoped death only for them)."""
        return self._ssd_unhealthy(tenant)

    @property
    def dead_tenants(self) -> Set[str]:
        """Tenants whose own SSD breaker is currently open (copy)."""
        with self._lock:
            return {
                tenant
                for tenant, breaker in self._tenant_breakers.items()
                if breaker.is_open
            }

    def _tenant_breaker_open(self, tenant: str) -> bool:
        breaker = self._tenant_breakers.get(tenant)
        return breaker is not None and breaker.is_open

    def _tenant_breaker(self, tenant: str) -> CircuitBreaker:
        """Get-or-create the breaker scoped to ``tenant`` (under lock)."""
        with self._lock:
            breaker = self._tenant_breakers.get(tenant)
            if breaker is None:
                breaker = CircuitBreaker(
                    name=f"ssd/{tenant}", backoff_s=self._breaker.backoff_s
                )
                if self._breaker_listener is not None:
                    breaker.add_listener(self._breaker_listener)
                self._tenant_breakers[tenant] = breaker
            return breaker

    def set_breaker_listener(self, listener: Listener) -> None:
        """Observe every breaker transition: ``listener(name, old, new,
        reason)``.  Applied to the global breaker and to every tenant
        breaker, existing and future (the service publishes these on its
        control bus)."""
        with self._lock:
            self._breaker_listener = listener
            breakers = [self._breaker, *self._tenant_breakers.values()]
        for breaker in breakers:
            breaker.add_listener(listener)

    def _ssd_unhealthy(self, tenant: Optional[str] = None) -> bool:
        if self._breaker.is_open:
            return True
        scheduler = self._scheduler
        if tenant is None or tenant == DEFAULT_TENANT:
            return scheduler is not None and scheduler.health.is_dead("ssd")
        if self._tenant_breaker_open(tenant):
            return True
        return scheduler is not None and scheduler.health.is_dead("ssd", tenant)

    def _lane_slow(self) -> bool:
        """Brownout verdict: the ssd lane is alive but past the slow
        threshold — shed optional traffic, keep serving blocking work."""
        scheduler = self._scheduler
        return scheduler is not None and scheduler.health.is_slow("ssd")

    def _mark_ssd_dead(self, tenant: Optional[str] = None) -> None:
        """Trip degraded mode; callers hold (or are about to release)
        ``self._lock``.

        ``tenant`` scopes the trip: a non-default tenant's failure
        degrades only that tenant's placement (the blast radius of the
        isolation guarantee), while the default tenant — and ``None`` —
        trip the pre-tenancy global breaker.
        """
        if self._overflow_before_trip is None:
            # Remember the operator's setting before degraded mode
            # forces overflow on; resurrection restores it.
            self._overflow_before_trip = self.pool.overflow_allowed
        if tenant is not None and tenant != DEFAULT_TENANT:
            breaker = self._tenant_breaker(tenant)
            # Trip only from CLOSED: callers re-sync this latch on every
            # degraded placement, and knocking a HALF_OPEN breaker back
            # to OPEN would double its backoff and starve the canary
            # probes (probe failures re-open it via the breaker itself).
            if breaker.state == BreakerState.CLOSED and breaker.trip(
                "store failure"
            ):
                logger.warning(
                    "SSD breaker opened for tenant %r; "
                    "failing that tenant's placements over to the CPU tier",
                    tenant,
                )
            # The dead tenant's bytes may no longer spill, so its share
            # of the pool can exceed the capacity model: allow overflow
            # rather than fail steps (same trade as the global breaker).
            self.pool.overflow_allowed = True
            if self._scheduler is not None:
                self._scheduler.health.mark_dead("ssd", tenant=tenant)
            return
        if self._breaker.state == BreakerState.CLOSED and self._breaker.trip(
            "store failure"
        ):
            logger.warning(
                "SSD breaker opened; failing all placements over to the CPU tier"
            )
        self.pool.overflow_allowed = True
        if self._scheduler is not None:
            self._scheduler.health.mark_dead("ssd")

    # ------------------------------------------------------ probing / healing
    def maybe_probe_ssd(self, tenant: Optional[str] = None) -> Optional[bool]:
        """Canary an open SSD breaker; resurrect the tier when it closes.

        Single-flight and backoff-gated by the breaker itself, so this is
        cheap to call from hot paths and housekeeping loops alike.
        Probes the global breaker, then — when ``tenant`` names a
        non-default tenant with its own tripped breaker — that one too.

        Returns ``None`` when no probe was due, ``True`` when a canary
        succeeded, ``False`` when it failed (the breaker re-opens with a
        doubled backoff).
        """
        result = self._probe_one(self._breaker, None)
        if tenant is not None and tenant != DEFAULT_TENANT:
            with self._lock:
                scoped = self._tenant_breakers.get(tenant)
            if scoped is not None:
                scoped_result = self._probe_one(scoped, tenant)
                if result is None:
                    result = scoped_result
        return result

    def _probe_one(
        self, breaker: CircuitBreaker, tenant: Optional[str]
    ) -> Optional[bool]:
        if not breaker.allow_probe():
            return None
        if self._canary_probe():
            if breaker.record_probe_success():
                self._resurrect_ssd(tenant)
            return True
        breaker.record_probe_failure()
        return False

    def _canary_probe(self) -> bool:
        """One tiny write + read-back + delete against the SSD store.

        Runs through ``ssd.file_store`` so an attached fault injector —
        or a genuinely broken device — is exercised exactly like
        production traffic; a healed injector lets the canary through
        and the breaker learns the device is back.
        """
        store = self.ssd.file_store
        payload = np.arange(8, dtype=np.float32)  # 32-byte canary
        canary_id = "__breaker_canary__"
        try:
            store.write(canary_id, payload)
            flush = getattr(store, "flush", None)
            if flush is not None:
                flush()
            back = store.read(canary_id, payload.shape, payload.dtype)
            ok = bool(np.array_equal(back, payload))
        except OSError:
            ok = False
        try:
            store.delete(canary_id)
        except OSError:
            pass
        return ok

    def _resurrect_ssd(self, tenant: Optional[str]) -> None:
        """Side effects of a breaker re-closing: placement re-enabled
        (implicit — ``_ssd_unhealthy`` reads the breaker), lane-health
        verdicts cleared, and pinned-pool overflow exited once no breaker
        remains open.  Queued demotions resume at the next watermark
        application / pool-pressure event."""
        with self._lock:
            if self._scheduler is not None:
                self._scheduler.health.revive("ssd", tenant=tenant)
            if not self._breaker.is_open and not any(
                b.is_open for b in self._tenant_breakers.values()
            ):
                if self._overflow_before_trip is not None:
                    self.pool.overflow_allowed = self._overflow_before_trip
                    self._overflow_before_trip = None
            self.stats.resurrections += 1
        logger.warning(
            "SSD tier resurrected%s: breaker closed after successful probes",
            f" for tenant {tenant!r}" if tenant else "",
        )

    def set_tier_listener(self, listener: Callable[[TensorID, Tier], None]) -> None:
        """Register a callback fired after a tensor moves tier (demotion
        or promotion).  Called with no offloader lock held."""
        self._tier_listener = listener

    def set_scheduler(self, scheduler: Optional[IOScheduler]) -> None:
        """Route demotion writes through a priority-aware scheduler.

        The cache wires its own scheduler in; ``None`` (the default)
        keeps demotions synchronous, which standalone users rely on.
        """
        self._scheduler = scheduler

    def _fire(self, events: List[Tuple[TensorID, Tier]]) -> None:
        listener = self._tier_listener
        if listener is None:
            return
        for tid, tier in events:
            listener(tid, tier)

    # -------------------------------------------------------------- plumbing
    @property
    def file_store(self):
        """The SSD tier's store (tests/trace tooling read its counters)."""
        return self.ssd.file_store

    @property
    def pool(self) -> PinnedMemoryPool:
        return self.cpu.pool

    @property
    def arena(self):
        """The CPU tier's buffer arena."""
        return self.cpu.arena

    def dataplane_stats(self) -> DataPlaneStats:
        """Merge both tiers' copy-map telemetry."""
        return self.cpu.dataplane_stats().merge(self.ssd.dataplane_stats())

    def stats_snapshot(self) -> TierStats:
        """A coherent, detached copy of the tier-traffic counters.

        :attr:`stats` is mutated under the tier lock by stores, loads
        and background demotions; a reader iterating the live object can
        see a half-updated pair (e.g. ``demotions`` without its
        ``demoted_bytes``).  ``engine.stats()`` reports this copy.
        """
        with self._lock:
            return replace(self.stats)

    @property
    def cpu_capacity_bytes(self) -> int:
        return self.pool.capacity_bytes or 0

    def cpu_free_bytes(self) -> int:
        return max(0, self.cpu_capacity_bytes - self.pool.used)

    def register_tensor(self, tensor: Tensor) -> None:
        """GDS registration for the direct-to-SSD path."""
        self.ssd.register_tensor(tensor)

    def tier_of(self, tid: TensorID) -> Tier:
        """Which tier currently holds ``tid`` (GPU if never stored)."""
        with self._lock:
            return self._tier.get(tid, Tier.GPU)

    # ------------------------------------------------------------------ store
    def store(self, tid: TensorID, data: np.ndarray) -> None:
        events: List[Tuple[TensorID, Tier]] = []
        nbytes = int(np.asarray(data).nbytes)
        owner = current_tenant()
        # Never race the background spill writer on the same tid: the
        # re-store logic below assumes the SSD copy is either absent or
        # fully landed.
        self._await_inflight_write(tid)
        # Opt-in self-healing on the hot path: with a tripped breaker
        # whose backoff has elapsed, spend one cheap canary before
        # deciding placement (single-flight — a store storm cannot
        # hammer a struggling device).  Outside the tier lock: the
        # canary is real I/O.
        if self.probe_backoff_s is not None and (
            self._breaker.is_open or self._tenant_breaker_open(owner)
        ):
            self.maybe_probe_ssd(owner)
        with self._lock:
            # With a dead SSD tier there is exactly one viable placement;
            # otherwise the policy sees the capacity the pool *could*
            # free: every resident is demotable, so the whole pool is
            # reclaimable.  Death is judged per-tenant: another tenant's
            # latch must not move this tenant's placements.
            ssd_down = self._ssd_unhealthy(owner)
            if ssd_down:
                self._mark_ssd_dead(owner)  # sync the latch + pool overflow
                placement = Tier.CPU
            else:
                placement = self.policy.place_for(
                    owner, nbytes=nbytes, cpu_free_bytes=self.cpu_capacity_bytes
                )
                if (
                    placement is Tier.SSD
                    and self._lane_slow()
                    and nbytes <= self.cpu_free_bytes()
                ):
                    # Brownout shed: the lane is alive but slow, and the
                    # pool can absorb this store without demoting into
                    # the very lane that is struggling.  Keep it warm.
                    placement = Tier.CPU
                    self.stats.shed_stores += 1
                    self.stats.shed_bytes += nbytes
            # Re-store: drop the old backing copy first.  A cross-tier
            # move would otherwise leak it (orphaned SSD file / pinned
            # chunk refcount), and a CPU-tier overwrite must free its old
            # bytes *before* _make_room or it demotes an innocent victim.
            # An in-flight demotion of the same tid is obsolete either
            # way: cancel it so the stale bytes never reach the SSD.
            old = self._tier.get(tid)
            if old is Tier.CPU:
                self.cpu.evict(tid)
                self._lru.pop(tid, None)
            elif old is Tier.SSD:
                cancelled = self._cancel_pending_demotion_locked(tid)
                if cancelled is not None:
                    # The queued spill held the old bytes; they are
                    # obsolete, so the lease goes straight back.
                    _, stale_lease = cancelled
                    if stale_lease is not None:
                        stale_lease.release()
                elif placement is not Tier.SSD:
                    self.ssd.release(tid)
            if placement is Tier.SSD:
                try:
                    if self._scheduler is None:
                        # Standalone (scheduler-less) mode has no job-level
                        # retry above it; apply the stack's retry rule here,
                        # matching the sync demotion path.
                        retry_call(lambda: self.ssd.store(tid, data))
                    else:
                        self.ssd.store(tid, data)
                except PermanentIOError as exc:
                    # Tier failover: the device is gone, the bytes are in
                    # hand — land them in the pinned pool (overflow
                    # allowed) instead of failing the step.  Transient
                    # errors propagate: the request's bounded retry
                    # re-enters this method with the books consistent.
                    logger.warning("SSD store failed for %s (%s); failing over", tid, exc)
                    self._mark_ssd_dead(owner)
                    placement = Tier.CPU
                    self.stats.failovers += 1
                    self.stats.failover_bytes += nbytes
                except OSError as exc:
                    if not is_enospc(exc):
                        raise
                    # Resource exhaustion is not device death: the
                    # breaker stays closed.  Compact to free dead bytes
                    # and retry once; a genuinely full device degrades
                    # this store to the CPU tier (overflow-tolerant)
                    # instead of failing the step.
                    self.stats.enospc_events += 1
                    if self._retry_store_after_compaction(tid, data):
                        self._tier[tid] = Tier.SSD
                        self._tid_owner[tid] = owner
                        self.stats.ssd_stored_tensors += 1
                        self.stats.ssd_stored_bytes += nbytes
                    else:
                        logger.warning(
                            "SSD store of %s hit ENOSPC even after "
                            "compaction; degrading to the CPU tier", tid,
                        )
                        placement = Tier.CPU
                        self.pool.overflow_allowed = True
                        self.stats.failovers += 1
                        self.stats.failover_bytes += nbytes
                else:
                    self._tier[tid] = Tier.SSD
                    self._tid_owner[tid] = owner
                    self.stats.ssd_stored_tensors += 1
                    self.stats.ssd_stored_bytes += nbytes
            if placement is Tier.CPU:
                # Global death means nowhere to demote *to*; a latch
                # scoped to other tenants still leaves their residents
                # demotable (and _make_room skips the dead ones).
                if not self._ssd_unhealthy():
                    self._make_room(nbytes, events)
                self.cpu.store(tid, data)
                self._tier[tid] = Tier.CPU
                self._tid_owner[tid] = owner
                self._lru[tid] = nbytes
                self._lru.move_to_end(tid)
                self.stats.cpu_stored_tensors += 1
                self.stats.cpu_stored_bytes += nbytes
        self._fire(events)

    def _retry_store_after_compaction(self, tid: TensorID, data) -> bool:
        """ENOSPC recovery: force a GC pass to reclaim dead bytes, then
        retry the SSD store once.  Holds the tier lock (callers do).
        Returns True when the retried write landed."""
        compact = getattr(self.ssd.file_store, "compact", None)
        if compact is None:
            return False
        logger.warning(
            "SSD store of %s hit ENOSPC; compacting and retrying", tid
        )
        try:
            compact(max_dead_ratio=0.01)
        except OSError:
            return False  # compaction itself needs space it cannot get
        try:
            self.ssd.store(tid, data)
        except OSError as exc:
            if is_enospc(exc):
                return False
            raise
        return True

    def _make_room(self, nbytes: int, events: List[Tuple[TensorID, Tier]]) -> None:
        """Demote LRU pool residents until ``nbytes`` fits; holds the lock.

        With the SSD tier dead there is nowhere to demote *to*: stop
        making room and let the pool overflow instead (degraded mode).
        A *tenant-scoped* latch only shrinks the victim set — that
        tenant's residents are pinned (their spill target is gone) while
        everyone else's remain demotable.
        """
        while self._lru and self.cpu_free_bytes() < nbytes:
            if self._ssd_unhealthy():
                self._mark_ssd_dead()
                return
            victim: Optional[TensorID] = None
            victim_bytes = 0
            for cand, cand_bytes in self._lru.items():
                cand_owner = self._tid_owner.get(cand, DEFAULT_TENANT)
                if self._tenant_breakers and self._ssd_unhealthy(cand_owner):
                    continue  # this tenant's bytes cannot spill anymore
                victim, victim_bytes = cand, cand_bytes
                break
            if victim is None:
                # Every resident belongs to a dead-SSD tenant: nothing
                # can spill, so the pool overflows (already allowed by
                # the tenant breaker) rather than failing the store.
                return
            if not self._demote_locked(victim, victim_bytes, events):
                # The spill could not run (device full, not dead): stop
                # demoting and let the pool overflow rather than fail.
                self.pool.overflow_allowed = True
                return

    def _demote_locked(
        self, tid: TensorID, nbytes: int, events: List[Tuple[TensorID, Tier]]
    ) -> bool:
        """Returns True when the victim was demoted (or its spill was
        queued); False when the spill could not run and the victim stays
        CPU-resident — the caller stops making room."""
        owner = self._tid_owner.get(tid, DEFAULT_TENANT)
        if self._scheduler is None:
            buf = self.cpu.peek(tid)
            if buf is None:  # raced with a release
                self._lru.pop(tid, None)
                self._tier.pop(tid, None)
                self._tid_owner.pop(tid, None)
                return True
            try:
                retry_call(lambda: self.ssd.store(tid, buf))
            except Exception as exc:
                # The victim stays CPU-resident (nothing was evicted
                # yet): no data moved, no data lost.  A dead device
                # flips degraded mode (scoped to the victim's tenant)
                # so the caller stops demoting their residents.
                if isinstance(exc, PermanentIOError):
                    logger.warning("demotion of %s hit a dead SSD (%s)", tid, exc)
                    self._mark_ssd_dead(owner)
                    return False
                if is_enospc(exc):
                    # Full, not dead: keep the victim warm; the caller
                    # overflows the pool instead of failing the store.
                    self.stats.enospc_events += 1
                    logger.warning(
                        "demotion of %s hit ENOSPC; keeping it CPU-resident", tid
                    )
                    return False
                raise
            self.cpu.evict(tid)
        else:
            # Asynchronous spill: reclaim the pool accounting now (the
            # in-flight buffer plays the staging role), queue the SSD
            # write at DEMOTION priority — behind every load, ahead of
            # fresh stores — and keep it cancellable until it runs.
            # ``take`` transfers the arena lease along with the buffer:
            # the parked bytes are the tensor's only copy, so the arena
            # must not recycle that memory until the write lands (the
            # request's lease is released on its DONE, or handed back on
            # cancellation / failover reinstate).
            taken = self.cpu.take(tid)
            if taken is None:  # raced with a release (tier lock says no)
                self._lru.pop(tid, None)
                self._tier.pop(tid, None)
                return True
            buf, lease = taken
            self._pending_demotions[tid] = buf
            # max_retries=0: _run_demotion is stateful (it pops the
            # parked buffer), so job-level re-execution would find it
            # gone; the SSD write retries *inside* the body instead.
            # The spill is charged to (and its health attributed to) the
            # *victim's* tenant — pool pressure from tenant A must never
            # bill tenant B's demotion to A, nor let B's write failures
            # poison A's lane-health verdict.
            request = IORequest(
                lambda t=tid: self._run_demotion(t),
                kind="demote",
                priority=Priority.DEMOTION,
                tensor_id=str(tid),
                nbytes=nbytes,
                lane="ssd",
                max_retries=0,
                lease=lease,
                tenant=owner,
            )
            self._demotion_reqs[tid] = request
            self._scheduler.submit(request)
        self._lru.pop(tid, None)
        self._tier[tid] = Tier.SSD
        self.stats.demotions += 1
        self.stats.demoted_bytes += nbytes
        if self._scheduler is None:
            # Async demotions fire the tier event when the write lands
            # (:meth:`_run_demotion`), not when the spill is queued.
            events.append((tid, Tier.SSD))
        return True

    def _run_demotion(self, tid: TensorID) -> None:
        """Scheduler-side half of a demotion: the actual SSD write.

        The write runs with the tier lock released — a throttled spill
        must not stall unrelated loads — with the buffer parked in
        ``_writing_demotions`` so concurrent readers of this tid are
        still served, and mutators wait on the per-tid event.
        """
        with self._lock:
            buf = self._pending_demotions.pop(tid, None)
            request = self._demotion_reqs.pop(tid, None)
            if buf is None:
                return  # released, reloaded or re-stored before the write
            self._writing_demotions[tid] = buf
            self._writing_events[tid] = threading.Event()
        landed_tier = Tier.SSD
        try:
            try:
                retry_call(lambda: self.ssd.store(tid, buf))
            except Exception as exc:
                # The parked buffer is the only copy of this tensor: a
                # failed spill must never lose it.  Reinstate it in the
                # pinned pool (overflow allowed — reinstatement cannot be
                # refused), and write the SSD off on permanent death.
                logger.warning(
                    "demotion write for %s failed (%s); reinstating in the CPU tier",
                    tid,
                    exc,
                )
                lease: Optional[BufferLease] = None
                if request is not None:
                    # The request will complete DONE (the data is safe),
                    # but the SSD lane must still learn about the write
                    # it failed — an SSD that flakes every demotion has
                    # to accumulate toward the death verdict.
                    request.health_error = exc
                    # Reinstate keeps the parked buffer alive: detach the
                    # lease so the request's DONE does not hand the
                    # memory back to the arena while the CPU tier owns it.
                    lease = request.detach_lease()
                owner = self._tid_owner.get(tid, DEFAULT_TENANT)
                with self._lock:
                    if isinstance(exc, PermanentIOError):
                        self._mark_ssd_dead(owner)
                    elif is_enospc(exc):
                        self.stats.enospc_events += 1
                    previous_overflow = self.pool.overflow_allowed
                    self.pool.overflow_allowed = True
                    try:
                        # Zero-copy reinstate: the parked buffer (and its
                        # lease) re-enter the CPU tier as-is.
                        self.cpu.adopt(tid, buf, lease, tenant=owner)
                    finally:
                        if not self._breaker.is_open and not self._tenant_breaker_open(
                            owner
                        ):
                            self.pool.overflow_allowed = previous_overflow
                    self._tier[tid] = Tier.CPU
                    self._lru[tid] = buf.nbytes
                    self._lru.move_to_end(tid)
                    self.stats.failovers += 1
                    self.stats.failover_bytes += buf.nbytes
                landed_tier = Tier.CPU
        finally:
            with self._lock:
                self._writing_demotions.pop(tid, None)
                event = self._writing_events.pop(tid, None)
            if event is not None:
                event.set()
        self._fire([(tid, landed_tier)])

    def _await_inflight_write(self, tid: TensorID) -> None:
        """Block (lock-free) until an in-flight spill write of ``tid``
        lands, so store/release never race the background writer."""
        while True:
            with self._lock:
                event = self._writing_events.get(tid)
            if event is None:
                return
            event.wait()

    def _cancel_pending_demotion_locked(
        self, tid: TensorID
    ) -> Optional[Tuple["np.ndarray", Optional[BufferLease]]]:
        """Pull ``tid`` out of the demotion queue; returns (buffer, lease).

        Whoever pops the parked buffer first — this canceller or the
        lane worker's :meth:`_run_demotion` — wins the race under the
        tier lock; a successful pop here means the SSD write never
        happens, and the queued request is cancelled (or no-ops if the
        worker already claimed it).  The arena lease is detached from the
        request *before* the cancel, so its terminal state cannot release
        memory the caller is about to adopt; the caller now owns the
        lease (release it, or adopt it back into the CPU tier).
        """
        buf = self._pending_demotions.pop(tid, None)
        if buf is None:
            return None
        request = self._demotion_reqs.pop(tid, None)
        lease: Optional[BufferLease] = None
        if request is not None:
            lease = request.detach_lease()
            if self._scheduler is not None:
                self._scheduler.cancel(request)
        self.stats.cancelled_demotions += 1
        self.stats.cancelled_demotion_bytes += buf.nbytes
        return buf, lease

    @property
    def free_watermark_bytes(self) -> int:
        return self._free_watermark_bytes

    def set_free_watermark(self, nbytes: int) -> None:
        """Set the free-headroom target the pool maintains between steps.

        The adaptive controller raises the watermark when the next step's
        forward burst would outrun the SSD drain rate — proactively
        demoting cold residents while the lanes are idle is cheaper than
        demoting them inside the burst, on the store critical path.  The
        value is clamped to the pool capacity; it takes effect at the
        next :meth:`apply_watermark` call.
        """
        if nbytes < 0:
            raise ValueError(f"watermark must be >= 0: {nbytes}")
        self._free_watermark_bytes = min(int(nbytes), self.cpu_capacity_bytes)

    def apply_watermark(self) -> int:
        """Demote LRU residents until free headroom meets the watermark.

        Returns the number of tensors demoted.  With a scheduler attached
        the SSD writes queue at DEMOTION priority (behind every load), so
        applying the watermark between steps costs idle-lane time only —
        and each spill stays cancellable until it runs.
        """
        events: List[Tuple[TensorID, Tier]] = []
        demoted = 0
        with self._lock:
            if self._lane_slow():
                # Brownout shed: proactive demotions are optional traffic
                # — keep them off a lane that is already struggling so
                # blocking loads get what bandwidth remains.
                return 0
            while self._lru and self.cpu_free_bytes() < self._free_watermark_bytes:
                victim, victim_bytes = next(iter(self._lru.items()))
                if not self._demote_locked(victim, victim_bytes, events):
                    break
                demoted += 1
        self._fire(events)
        return demoted

    def demote(self, tid: TensorID) -> bool:
        """Explicitly spill one CPU-resident tensor to SSD (True if moved)."""
        events: List[Tuple[TensorID, Tier]] = []
        with self._lock:
            nbytes = self._lru.get(tid)
            if nbytes is None:
                return False
            moved = self._demote_locked(tid, nbytes, events)
        self._fire(events)
        return moved

    # ------------------------------------------------------------------- load
    def load(self, tid: TensorID, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        events: List[Tuple[TensorID, Tier]] = []
        with self._lock:
            tier = self._tier.get(tid)
            if tier is Tier.CPU:
                data = self.cpu.load(tid, shape, dtype)
                self._lru.move_to_end(tid)
                self.stats.cpu_hits += 1
                self.stats.cpu_hit_bytes += data.nbytes
                return data
            if tier is None:
                raise KeyError(f"tensor {tid} was never stored in any tier")
            writing = self._writing_demotions.get(tid)
            if writing is not None:
                # The spill write is mid-flight on a lane worker: the
                # parked buffer is authoritative — serve it without
                # waiting for (or blocking) the write.
                self.stats.demotion_forward_hits += 1
                return owned_copy(writing.reshape(shape), dtype, self.cpu.copy_stats)
            pending = self._pending_demotions.get(tid)
            if pending is not None:
                # Demotion forwarding: the victim is being re-read while
                # its spill is still queued — serve the in-flight buffer.
                # When the pool has room again, cancel the now-pointless
                # SSD write and reinstate the tensor (a promotion that
                # never touched the SSD); otherwise the spill proceeds,
                # since the queued buffer is the only backing copy.
                data = owned_copy(pending.reshape(shape), dtype, self.cpu.copy_stats)
                self.stats.demotion_forward_hits += 1
                if self.promote_on_load and pending.nbytes <= self.cpu_free_bytes():
                    cancelled = self._cancel_pending_demotion_locked(tid)
                    if cancelled is not None:
                        # Zero-copy promotion: the parked buffer (and its
                        # lease) re-enter the CPU tier without touching
                        # the SSD — or copying the bytes again.  Charged
                        # to the owning tenant, not the (possibly
                        # different) reader.
                        buf, lease = cancelled
                        self.cpu.adopt(
                            tid, buf, lease,
                            tenant=self._tid_owner.get(tid, DEFAULT_TENANT),
                        )
                        self._tier[tid] = Tier.CPU
                        self._lru[tid] = buf.nbytes
                        self.stats.promotions += 1
                        self.stats.promoted_bytes += buf.nbytes
                        events.append((tid, Tier.CPU))
            else:
                if self._scheduler is None:
                    # Standalone mode: apply the retry rule here (with a
                    # scheduler, the surrounding load request retries).
                    data = retry_call(lambda: self.ssd.load(tid, shape, dtype))
                else:
                    data = self.ssd.load(tid, shape, dtype)
                self.stats.ssd_loads += 1
                self.stats.ssd_loaded_bytes += data.nbytes
                if self.promote_on_load and data.nbytes <= self.cpu_free_bytes():
                    # Promote in the owner's scope: the pool bytes must
                    # land on the tenant that stored the tensor even when
                    # a different tenant's thread triggers the promotion.
                    with tenant_scope(self._tid_owner.get(tid, DEFAULT_TENANT)):
                        self.cpu.store(tid, data)
                    self.ssd.release(tid)
                    self._tier[tid] = Tier.CPU
                    self._lru[tid] = data.nbytes
                    self.stats.promotions += 1
                    self.stats.promoted_bytes += data.nbytes
                    events.append((tid, Tier.CPU))
        self._fire(events)
        return data

    # ---------------------------------------------------------------- reclaim
    def release(self, tid: TensorID) -> None:
        # A spill write in flight lands before its file is deleted (the
        # writer owns the bytes until then).
        self._await_inflight_write(tid)
        with self._lock:
            tier = self._tier.pop(tid, None)
            self._lru.pop(tid, None)
            self._tid_owner.pop(tid, None)
            if tier is Tier.CPU:
                self.cpu.evict(tid)
            elif tier is Tier.SSD:
                # A queued demotion of a released tensor is an SSD write
                # for data nobody will read again: cancel it outright.
                cancelled = self._cancel_pending_demotion_locked(tid)
                if cancelled is None:
                    self.ssd.release(tid)
                else:
                    _, lease = cancelled
                    if lease is not None:
                        lease.release()

    def location(self, tid: TensorID) -> str:
        with self._lock:
            tier = self._tier.get(tid)
            demoting = tid in self._pending_demotions
        if tier is Tier.CPU:
            return f"tier:cpu:{self.cpu.location(tid)}"
        if tier is Tier.SSD:
            suffix = "!queued" if demoting else ""
            return f"tier:ssd{suffix}:{self.ssd.location(tid)}"
        return f"tier:gpu:{tid.filename()}"

    def flush(self) -> None:
        """Flush a partially-filled SSD chunk, if the SSD tier is chunked."""
        flush = getattr(self.ssd.file_store, "flush", None)
        if flush is not None:
            flush()

    def store_lane(self, tid: TensorID, nbytes: int) -> str:
        """Predict the lane from the policy's placement rule.

        The actual landing tier is decided inside :meth:`store` (the pool
        may have filled meanwhile); the prediction only routes the queue
        slot, and the pool-capacity input mirrors :meth:`store`'s ("every
        resident is demotable").
        """
        tenant = current_tenant()
        if self._ssd_unhealthy(tenant):
            return "cpu"  # dead SSD (for this tenant): placement fails over
        placement = self.policy.place_for(
            tenant, nbytes=nbytes, cpu_free_bytes=self.cpu_capacity_bytes
        )
        if (
            placement is Tier.SSD
            and self._lane_slow()
            and nbytes <= self.cpu_free_bytes()
        ):
            return "cpu"  # brownout shed: mirror store()'s placement
        return "cpu" if placement is Tier.CPU else "ssd"

    def shutdown(self) -> None:
        with self._lock:
            # Queued spill writes are pointless now; drop them without
            # touching the cancellation counters (nothing was saved,
            # the whole store is going away).
            for request in self._demotion_reqs.values():
                request.cancel()
            self._pending_demotions.clear()
            self._demotion_reqs.clear()
            self._tier.clear()
            self._lru.clear()
            self._tid_owner.clear()
        self.cpu.shutdown()
        self.ssd.shutdown()
