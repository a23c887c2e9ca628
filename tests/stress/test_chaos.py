"""Seeded chaos suite: end-to-end training under injected I/O failures.

The acceptance properties of the failure model (ISSUE 4 / architecture
§6), each proven on the functional engine with real file I/O:

1. under a seeded **transient-fault** plan the run completes with losses
   bit-exact vs the fault-free run (retries heal everything; zero FAILED
   requests leak through);
2. under **permanent SSD death** the run completes via CPU-tier failover
   with losses still bit-exact;
3. **100 % of injected job exceptions leave every scheduler worker
   alive**, with the request books reconciling exactly
   (``submitted == executed + failed + cancelled``, zero pending).

Seeds are fixed for determinism; set ``REPRO_CHAOS_STRESS=1`` to sweep a
wider seed range (the CI stress-smoke job does).
"""

import os
import threading

import numpy as np
import pytest

from repro.core import (
    EngineConfig,
    OffloadPolicy,
    PolicyConfig,
    TensorCache,
    build_engine,
)
from repro.data import SyntheticCorpus, TokenBatchLoader
from repro.device import GPU
from repro.io import IORequest, IOScheduler, Priority
from repro.io.aio import JobState
from repro.io.errors import PermanentIOError, TransientIOError
from repro.io.faults import FaultPlan, inject_faults
from repro.models import GPT, ModelConfig
from repro.optim import SGD
from repro.train import PlacementStrategy, Trainer

CONFIG = ModelConfig(
    arch="gpt", hidden=64, num_layers=2, vocab_size=97, seq_len=32, head_dim=32
)
STEPS = 3

#: Fixed seed set; the stress-smoke CI job widens it via the env knob.
SEEDS = (0, 1, 2)
if os.environ.get("REPRO_CHAOS_STRESS"):
    SEEDS = tuple(range(8))


def _assert_scheduler_invariants(scheduler):
    """Worker liveness + exact request-book reconciliation."""
    for worker in scheduler._workers:
        assert worker.is_alive(), f"worker {worker.name} died"
    assert scheduler.pending() == 0
    stats = scheduler.stats
    assert stats.submitted == stats.executed + stats.failed + stats.cancelled


def _train(
    tmp_path,
    name,
    plan=None,
    target="ssd",
    cpu_pool_bytes=None,
    chunk_bytes=None,
    kill_before_step=None,
):
    """Train the reference model; returns (losses, injector, cache)."""
    gpu = GPU()
    model = GPT(CONFIG, rng=np.random.default_rng(0)).to(gpu)
    policy = OffloadPolicy(PolicyConfig(min_offload_numel=256))
    cache = TensorCache(
        build_engine(
            EngineConfig(
                target=target,
                store_dir=tmp_path / name,
                cpu_pool_bytes=cpu_pool_bytes,
                chunk_bytes=chunk_bytes,
                policy=policy,
            )
        ).offloader,
        policy=policy,
    )
    injector = inject_faults(cache.offloader, plan) if plan is not None else None
    trainer = Trainer(
        model,
        SGD(model.parameters(), lr=1e-3),
        gpu,
        strategy=PlacementStrategy.OFFLOAD,
        cache=cache,
    )
    loader = TokenBatchLoader(
        SyntheticCorpus(vocab_size=CONFIG.vocab_size, seed=5),
        batch_size=2,
        seq_len=CONFIG.seq_len,
        device=gpu,
    )
    losses = []
    try:
        for step in range(STEPS):
            if injector is not None and kill_before_step == step:
                injector.kill()
            losses.append(trainer.train_step([loader.next_batch()]).loss)
        _assert_scheduler_invariants(cache.scheduler)
        stats = cache.scheduler.stats
    finally:
        trainer.close()
    return losses, injector, stats, cache


# ----------------------------------------------------------- transient faults
@pytest.mark.parametrize("seed", SEEDS)
def test_transient_faults_heal_to_bit_exact_results(tmp_path, seed):
    clean, _, _, _ = _train(tmp_path, "clean")
    plan = FaultPlan.transient(rate=0.25, seed=seed)
    faulted, injector, stats, cache = _train(tmp_path, f"faulted{seed}", plan=plan)
    assert injector.fault_stats.injected_transient > 0, "the plan must actually bite"
    assert stats.retries >= injector.fault_stats.injected_transient
    assert stats.failed == 0, "every transient fault must heal within the budget"
    assert faulted == clean, "results must be bit-exact vs the fault-free run"
    assert cache.stats.store_failures == 0 and cache.stats.load_failures == 0


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_transient_faults_chunked_backend_bit_exact(tmp_path, seed):
    clean, _, _, _ = _train(tmp_path, "clean", chunk_bytes=1 << 16)
    plan = FaultPlan.transient(rate=0.25, seed=seed)
    faulted, injector, stats, _ = _train(
        tmp_path, f"chunk{seed}", plan=plan, chunk_bytes=1 << 16
    )
    assert injector.fault_stats.injected_transient > 0
    assert stats.failed == 0
    assert faulted == clean


def test_latency_spikes_are_slow_not_wrong(tmp_path):
    clean, _, _, _ = _train(tmp_path, "clean")
    plan = FaultPlan.flaky_latency(rate=0.3, spike_s=0.002, seed=1)
    slow, injector, stats, _ = _train(tmp_path, "slow", plan=plan)
    assert injector.fault_stats.injected_latency > 0
    assert stats.failed == 0 and stats.retries == 0
    assert slow == clean


# ---------------------------------------------------------- permanent death
def test_permanent_ssd_death_mid_run_fails_over_to_cpu(tmp_path):
    """The SSD bricks between steps; the tiered engine re-routes every
    placement (and the in-flight demotions' buffers) to the pinned pool
    and the run completes bit-exact."""
    clean, _, _, _ = _train(
        tmp_path, "clean", target="tiered", cpu_pool_bytes=64 << 10
    )
    dead, injector, stats, cache = _train(
        tmp_path,
        "dead",
        plan=FaultPlan(),
        target="tiered",
        cpu_pool_bytes=64 << 10,
        kill_before_step=1,
    )
    tier_stats = cache.offloader.stats
    assert injector.fault_stats.permanent_failures >= 1
    assert cache.offloader.ssd_dead
    assert tier_stats.failovers >= 1
    assert dead == clean, "CPU failover must keep results bit-exact"
    # Arena accounting stays exact through the failover chaos: every
    # reinstated demotion buffer's lease was returned by shutdown.
    arena_stats = cache.offloader.arena.stats()
    assert arena_stats.outstanding == 0
    assert arena_stats.leaked == 0


def test_ssd_dead_on_arrival_tiered_completes_via_cpu(tmp_path):
    clean, _, _, _ = _train(
        tmp_path, "clean", target="tiered", cpu_pool_bytes=64 << 10
    )
    dead, injector, stats, cache = _train(
        tmp_path,
        "doa",
        plan=FaultPlan.dead(after_ops=0),
        target="tiered",
        cpu_pool_bytes=64 << 10,
    )
    assert cache.offloader.ssd_dead
    assert cache.offloader.pool.overflow_allowed
    assert dead == clean
    arena_stats = cache.offloader.arena.stats()
    assert arena_stats.outstanding == 0
    assert arena_stats.leaked == 0


def test_ssd_death_single_tier_recovers_by_keeping_tensors(tmp_path):
    """Without a CPU tier to fail over to, a dead store still must not
    corrupt training: failed stores keep their tensor GPU-resident
    (the offload saving is lost, the numerics are not)."""
    clean, _, _, _ = _train(tmp_path, "clean")
    dead, injector, stats, cache = _train(
        tmp_path, "deadssd", plan=FaultPlan.dead(after_ops=0)
    )
    assert stats.failed >= 1  # the bricked stores surfaced as FAILED
    assert cache.stats.store_failures >= 1
    assert cache.scheduler.health.is_dead("ssd")
    assert dead == clean


# -------------------------------------------------------------- worker storm
@pytest.mark.parametrize("seed", SEEDS[:2])
def test_exception_storm_leaves_all_workers_alive(seed):
    """A seeded storm of failing / succeeding / cancelled requests from
    several threads: every worker survives, drain returns, and the books
    reconcile exactly."""
    import random

    rng = random.Random(seed)
    sched = IOScheduler(num_store_workers=2, num_load_workers=2, retry_backoff_s=0)
    submitted = []
    lock = threading.Lock()

    def body(mode):
        if mode == "transient":
            raise TransientIOError("storm blip")  # exhausts the 0-retry opt-out
        if mode == "permanent":
            raise PermanentIOError("storm brick")
        if mode == "bug":
            raise ValueError("storm bug")
        return None

    def submitter(tseed):
        trng = random.Random(tseed)
        for i in range(60):
            mode = trng.choice(["ok", "ok", "transient", "permanent", "bug"])
            req = IORequest(
                lambda m=mode: body(m),
                kind=trng.choice(["store", "load"]),
                priority=trng.choice(list(Priority)),
                tensor_id=f"t{tseed}-{i}",
                nbytes=trng.randrange(1, 4096),
                lane=trng.choice(["ssd", "cpu"]),
                max_retries=0 if mode == "transient" else None,
            )
            sched.submit(req)
            with lock:
                submitted.append(req)
            if trng.random() < 0.2:
                sched.cancel(req)

    threads = [
        threading.Thread(target=submitter, args=(rng.randrange(1 << 30),))
        for _ in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert sched.drain(10), "drain must return despite the exception storm"
    _assert_scheduler_invariants(sched)
    states = [req.state for req in submitted]
    assert all(req.done_event.is_set() for req in submitted)
    stats = sched.stats
    assert stats.executed == sum(1 for s in states if s is JobState.DONE)
    assert stats.failed == sum(1 for s in states if s is JobState.FAILED)
    assert stats.cancelled == sum(1 for s in states if s is JobState.CANCELLED)
    assert stats.failed > 0  # the storm actually injected failures
    sched.shutdown()


def test_drain_timeout_returns_after_store_failure(tmp_path):
    """Satellite regression: drain(timeout) must return — not hang —
    after a backend store failure killed work mid-queue."""
    from repro.core import SSDOffloader

    offloader = SSDOffloader(tmp_path / "s")
    injector = inject_faults(offloader, FaultPlan.dead(after_ops=0))
    sched = IOScheduler(num_store_workers=1, num_load_workers=1, retry_backoff_s=0)
    data = np.ones((64,), dtype=np.float32)
    reqs = [
        sched.submit(
            IORequest(
                lambda i=i: offloader.file_store.write(f"t{i}", data),
                kind="store",
                priority=Priority.STORE,
                tensor_id=f"t{i}",
                nbytes=data.nbytes,
            )
        )
        for i in range(6)
    ]
    assert sched.drain(5), "drain hung after injected store failures"
    assert all(r.state is JobState.FAILED for r in reqs)
    assert injector.fault_stats.permanent_failures == 6
    _assert_scheduler_invariants(sched)
    sched.shutdown()


# ------------------------------------------------------ tenant isolation
def _train_pair(tmp_path, name, plan_for_a=None, kill_before_step=None):
    """Two tenants share one fair-share scheduler; faults (if any) are
    injected into tenant ``a``'s offloader only.  Returns per-tenant
    losses plus the injector, registry and both caches."""
    from repro.io import TenantRegistry, tenant_scope

    registry = TenantRegistry()
    registry.register("a")
    registry.register("b")
    scheduler = IOScheduler(
        num_store_workers=2,
        num_load_workers=2,
        tenants=registry,
        retry_backoff_s=0,
        name=f"chaos-{name}",
    )

    def build(tenant):
        gpu = GPU()
        model = GPT(CONFIG, rng=np.random.default_rng(0)).to(gpu)
        policy = OffloadPolicy(PolicyConfig(min_offload_numel=256))
        cache = TensorCache(
            build_engine(
                EngineConfig(
                    target="tiered",
                    store_dir=tmp_path / name / tenant,
                    cpu_pool_bytes=64 << 10,
                    policy=policy,
                )
            ).offloader,
            policy=policy,
            scheduler=scheduler,
        )
        trainer = Trainer(
            model,
            SGD(model.parameters(), lr=1e-3),
            gpu,
            strategy=PlacementStrategy.OFFLOAD,
            cache=cache,
        )
        loader = TokenBatchLoader(
            SyntheticCorpus(vocab_size=CONFIG.vocab_size, seed=5),
            batch_size=2,
            seq_len=CONFIG.seq_len,
            device=gpu,
        )
        return cache, trainer, loader

    cache_a, trainer_a, loader_a = build("a")
    cache_b, trainer_b, loader_b = build("b")
    injector = (
        inject_faults(cache_a.offloader, plan_for_a)
        if plan_for_a is not None
        else None
    )
    losses = {"a": [], "b": []}
    try:
        for step in range(STEPS):
            if injector is not None and kill_before_step == step:
                injector.kill()
            with tenant_scope("a"):
                losses["a"].append(trainer_a.train_step([loader_a.next_batch()]).loss)
            with tenant_scope("b"):
                losses["b"].append(trainer_b.train_step([loader_b.next_batch()]).loss)
        _assert_scheduler_invariants(scheduler)
        for tenant in ("a", "b"):
            stats = registry.stats_of(tenant)
            assert (
                stats.submitted == stats.executed + stats.failed + stats.cancelled
            ), f"tenant {tenant!r} books do not reconcile"
    finally:
        trainer_a.close()
        trainer_b.close()
    return losses, injector, registry, cache_a, cache_b


def test_tenant_ssd_death_is_isolated_and_b_stays_bit_exact(tmp_path):
    """Tenant A's SSD bricks mid-run on a *shared* scheduler: A fails
    over to its CPU tier, the death latch stays scoped to A, and tenant
    B's losses are bit-exact vs the run where A stayed healthy."""
    clean, _, _, clean_a, clean_b = _train_pair(tmp_path, "clean")
    dead, injector, registry, cache_a, cache_b = _train_pair(
        tmp_path, "dead", plan_for_a=FaultPlan(), kill_before_step=1
    )
    assert injector.fault_stats.permanent_failures >= 1
    # The latch fired for tenant A only -- never globally, never for B.
    assert cache_a.offloader.ssd_dead_for("a")
    assert not cache_a.offloader.ssd_dead
    assert not cache_b.offloader.ssd_dead_for("b")
    scheduler = cache_a.scheduler
    assert not scheduler.health.is_dead("ssd")
    assert scheduler.health.is_dead("ssd", "a")
    assert set(scheduler.health.dead_tenants("ssd")) == {"a"}
    assert cache_a.offloader.stats.failovers >= 1
    assert cache_b.offloader.stats.failovers == 0
    assert not cache_b.offloader.pool.overflow_allowed
    # Isolation: B is bit-exact; failover correctness: A is too.
    assert dead["b"] == clean["b"], "tenant B must be untouched by A's chaos"
    assert dead["a"] == clean["a"], "A's CPU failover must stay bit-exact"
    # Per-tenant lease accounting reconciles exactly after shutdown.
    for cache in (cache_a, cache_b, clean_a, clean_b):
        arena_stats = cache.offloader.arena.stats()
        assert arena_stats.outstanding == 0
        assert arena_stats.leaked == 0
        assert arena_stats.outstanding_by_tenant == {}
        assert cache.offloader.pool.used_by_tenant() == {}


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_tenant_transient_storm_retries_stay_attributed_to_a(tmp_path, seed):
    """A transient-fault storm against tenant A heals via retries whose
    cost never shows up in tenant B's books or losses."""
    clean, _, _, _, _ = _train_pair(tmp_path, "clean")
    plan = FaultPlan.transient(rate=0.25, seed=seed)
    storm, injector, registry, cache_a, cache_b = _train_pair(
        tmp_path, f"storm{seed}", plan_for_a=plan
    )
    assert injector.fault_stats.injected_transient > 0
    stats_a = registry.stats_of("a")
    stats_b = registry.stats_of("b")
    # The tiered engine heals some faults with in-offloader synchronous
    # retries that never reach the scheduler books, so only a subset of
    # injected faults shows up as request-level retries -- but all of
    # those must land on A.
    assert stats_a.retries > 0
    assert stats_b.retries == 0, "A's retry storm leaked into B's books"
    assert stats_a.failed == 0, "every transient fault must heal"
    assert storm["b"] == clean["b"]
    assert storm["a"] == clean["a"]


def test_retry_storm_degrades_other_tenant_bandwidth_under_15pct():
    """Deterministic virtual-clock storm: every one of tenant A's writes
    fails once (the aborted attempt burns a slice of device time) and
    tenant B's contended-window bandwidth degrades by less than 15 %."""
    from repro.io import TenantRegistry, tenant_scope

    bandwidth = 256e6
    nbytes = 32 << 10
    per_tenant = 64

    def run(storm):
        registry = TenantRegistry()
        registry.register("a")
        registry.register("b")
        sched = IOScheduler(
            num_store_workers=1,
            num_load_workers=1,
            lanes=("ssd",),
            tenants=registry,
            coalesce_bytes=0,
            retry_backoff_s=0,
            name=f"vdev-{'storm' if storm else 'clean'}",
        )
        lock = threading.Lock()
        start = threading.Event()
        clock = [0.0]
        served = []
        failed_once = set()

        def write(tenant, tid):
            start.wait(10)
            with lock:
                if storm and tenant == "a" and tid not in failed_once:
                    failed_once.add(tid)
                    # An aborted attempt still burns device time before
                    # the error surfaces -- a slice of the full write.
                    clock[0] += (nbytes / bandwidth) * 0.15
                    raise TransientIOError("storm blip")
                clock[0] += nbytes / bandwidth
                served.append((tenant, nbytes, clock[0]))

        try:
            for tenant in ("a", "b"):
                with tenant_scope(tenant):
                    for i in range(per_tenant):
                        sched.submit(
                            IORequest(
                                lambda t=tenant, i=i: write(t, f"{t}{i}"),
                                kind="store",
                                priority=Priority.STORE,
                                tensor_id=f"{tenant}{i}",
                                nbytes=nbytes,
                            )
                        )
            start.set()
            assert sched.drain(30)
        finally:
            start.set()
            sched.shutdown()
        if storm:
            assert len(failed_once) == per_tenant, "the storm must bite every write"
        assert registry.stats_of("a").failed == 0
        assert registry.stats_of("b").retries == 0
        finish = {
            t: max(at for who, _, at in served if who == t) for t in ("a", "b")
        }
        window = min(finish.values())
        b_bytes = sum(n for who, n, at in served if who == "b" and at <= window + 1e-12)
        return b_bytes / window

    clean_bw = run(storm=False)
    storm_bw = run(storm=True)
    degradation = 1.0 - storm_bw / clean_bw
    assert degradation < 0.15, f"tenant B lost {degradation:.1%} bandwidth to A's storm"
