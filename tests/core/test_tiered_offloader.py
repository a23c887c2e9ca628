"""Tests for the tiered offload hierarchy (GPU -> pinned CPU -> SSD).

Covers the offloader-level mechanics (placement, demotion on pool
exhaustion, promotion on load, refcounted chunk reclaim), the policy's
tier-placement rule, the cache integration (per-record tier, forwarding
across tiers, end-to-end training equivalence), the offloader each
``build_engine`` target builds, and the chunk-coalescing write-count win.
"""

import numpy as np
import pytest

from repro.core import (
    CPUOffloader,
    OffloadPolicy,
    PolicyConfig,
    SSDOffloader,
    TensorCache,
    Tier,
    TieredOffloader,
)
from repro.core.engine import EngineConfig, build_engine
from repro.core.ids import TensorID

from tests.core.test_tensor_cache import _fresh_model, _run_model_step

DATA = np.arange(256, dtype=np.float32)  # 1 KiB


def _offloader(target: str, **config):
    """The synchronous offloader of a ``target`` engine."""
    return build_engine(EngineConfig(target=target, **config)).offloader


def _tid(i: int) -> TensorID:
    return TensorID(stamp=i, shape=(256,))


@pytest.fixture
def tiered(tmp_path):
    off = TieredOffloader(tmp_path / "tiers", cpu_pool_bytes=2 * DATA.nbytes)
    yield off
    off.shutdown()


# ------------------------------------------------------------------ placement
def test_policy_place_prefers_cpu_when_it_fits():
    policy = OffloadPolicy()
    assert policy.place(nbytes=100, cpu_free_bytes=1000) is Tier.CPU
    assert policy.place(nbytes=2000, cpu_free_bytes=1000) is Tier.SSD
    assert policy.place(nbytes=100, cpu_free_bytes=None) is Tier.SSD


def test_policy_place_large_tensor_bypasses_pool():
    policy = OffloadPolicy(PolicyConfig(cpu_tier_max_tensor_bytes=512))
    assert policy.place(nbytes=513, cpu_free_bytes=10_000) is Tier.SSD
    assert policy.place(nbytes=512, cpu_free_bytes=10_000) is Tier.CPU


# ------------------------------------------------------- demotion / promotion
def test_store_lands_in_cpu_until_pool_fills(tiered):
    tiered.store(_tid(1), DATA)
    tiered.store(_tid(2), DATA)
    assert tiered.tier_of(_tid(1)) is Tier.CPU
    assert tiered.tier_of(_tid(2)) is Tier.CPU
    assert tiered.pool.used == 2 * DATA.nbytes
    assert tiered.stats.demotions == 0


def test_pool_exhaustion_demotes_lru_to_ssd(tiered):
    tiered.store(_tid(1), DATA)
    tiered.store(_tid(2), DATA + 1)
    tiered.store(_tid(3), DATA + 2)  # pool full: oldest (1) spills
    assert tiered.tier_of(_tid(1)) is Tier.SSD
    assert tiered.tier_of(_tid(2)) is Tier.CPU
    assert tiered.tier_of(_tid(3)) is Tier.CPU
    assert tiered.stats.demotions == 1
    assert tiered.stats.demoted_bytes == DATA.nbytes
    # The demoted bytes survive the move intact.
    assert np.array_equal(tiered.load(_tid(1), (256,), np.float32), DATA)


def test_lru_order_follows_loads(tiered):
    tiered.store(_tid(1), DATA)
    tiered.store(_tid(2), DATA + 1)
    tiered.load(_tid(1), (256,), np.float32)  # 1 becomes most-recent
    tiered.store(_tid(3), DATA + 2)  # now 2 is the LRU victim
    assert tiered.tier_of(_tid(1)) is Tier.CPU
    assert tiered.tier_of(_tid(2)) is Tier.SSD


def test_load_promotes_ssd_tensor_when_pool_has_room(tmp_path):
    off = TieredOffloader(tmp_path, cpu_pool_bytes=2 * DATA.nbytes)
    try:
        big = np.arange(1024, dtype=np.float32)  # 4 KiB: never fits the pool
        off.store(TensorID(stamp=9, shape=(1024,)), big)
        assert off.tier_of(TensorID(stamp=9, shape=(1024,))) is Tier.SSD

        off.store(_tid(1), DATA)
        off.demote(_tid(1))
        assert off.tier_of(_tid(1)) is Tier.SSD
        back = off.load(_tid(1), (256,), np.float32)  # prefetch: promote
        assert np.array_equal(back, DATA)
        assert off.tier_of(_tid(1)) is Tier.CPU
        assert off.stats.promotions == 1
        # Promotion moves (not copies): a second load is a pure CPU hit.
        off.load(_tid(1), (256,), np.float32)
        assert off.stats.cpu_hits >= 1
    finally:
        off.shutdown()


def test_promotion_never_demotes_the_warm_set(tmp_path):
    off = TieredOffloader(tmp_path, cpu_pool_bytes=2 * DATA.nbytes)
    try:
        off.store(_tid(1), DATA)
        off.store(_tid(2), DATA + 1)
        off.store(_tid(3), DATA + 2)  # demotes 1 to SSD; pool full
        off.load(_tid(1), (256,), np.float32)  # no room: stays on SSD
        assert off.tier_of(_tid(1)) is Tier.SSD
        assert off.stats.promotions == 0
        assert off.tier_of(_tid(2)) is Tier.CPU
        assert off.tier_of(_tid(3)) is Tier.CPU
    finally:
        off.shutdown()


def test_release_frees_whichever_tier(tiered):
    tiered.store(_tid(1), DATA)
    tiered.store(_tid(2), DATA)
    tiered.store(_tid(3), DATA)  # 1 demoted to SSD
    tiered.release(_tid(2))
    assert tiered.pool.used == DATA.nbytes
    tiered.release(_tid(1))
    with pytest.raises((KeyError, FileNotFoundError)):
        tiered.load(_tid(1), (256,), np.float32)
    tiered.release(_tid(1))  # idempotent


def test_restore_across_tiers_drops_old_backing(tmp_path):
    """Re-storing an SSD-resident tensor into the CPU tier must release
    the SSD copy (and vice versa) — a tensor lives in exactly one tier."""
    off = TieredOffloader(tmp_path, cpu_pool_bytes=2 * DATA.nbytes)
    try:
        off.store(_tid(1), DATA)
        off.demote(_tid(1))
        ssd_path = off.ssd.file_store.path_for(_tid(1).filename())
        assert ssd_path.exists()
        off.store(_tid(1), DATA + 5)  # lands in CPU again
        assert off.tier_of(_tid(1)) is Tier.CPU
        assert not ssd_path.exists()  # old SSD copy reclaimed
        assert np.array_equal(off.load(_tid(1), (256,), np.float32), DATA + 5)

        # Same-tier CPU overwrite: frees the old bytes first, so the pool
        # neither grows nor demotes an innocent resident to make room.
        off.store(_tid(2), DATA)
        used_before = off.pool.used
        off.store(_tid(2), DATA + 7)
        assert off.pool.used == used_before
        assert off.tier_of(_tid(1)) is Tier.CPU  # no spurious demotion
        assert off.stats.demotions == 1  # only the explicit demote above
    finally:
        off.shutdown()


def test_tiered_honours_shared_policy(tmp_path):
    policy = OffloadPolicy(
        PolicyConfig(cpu_tier_max_tensor_bytes=DATA.nbytes - 1)
    )
    off = _offloader(
        "tiered", store_dir=tmp_path, cpu_pool_bytes=8 * DATA.nbytes, policy=policy
    )
    try:
        off.store(_tid(1), DATA)  # above the cap: bypasses the pool
        assert off.tier_of(_tid(1)) is Tier.SSD
        assert off.pool.used == 0
    finally:
        off.shutdown()


def test_location_names_the_tier(tiered):
    assert tiered.location(_tid(1)).startswith("tier:gpu:")
    tiered.store(_tid(1), DATA)
    assert tiered.location(_tid(1)).startswith("tier:cpu:")
    tiered.demote(_tid(1))
    assert tiered.location(_tid(1)).startswith("tier:ssd:")


# -------------------------------------------------------------------- factory
def test_build_engine_targets(tmp_path):
    assert isinstance(_offloader("ssd", store_dir=tmp_path / "s"), SSDOffloader)
    cpu = _offloader("cpu", cpu_pool_bytes=1024)
    assert isinstance(cpu, CPUOffloader)
    assert cpu.pool.capacity_bytes == 1024
    tiered = _offloader(
        "tiered", store_dir=tmp_path / "t", cpu_pool_bytes=2048, chunk_bytes=512
    )
    assert isinstance(tiered, TieredOffloader)
    tiered.shutdown()


def test_build_engine_validation(tmp_path):
    with pytest.raises(ValueError):
        _offloader("ssd")
    with pytest.raises(ValueError):
        _offloader("tiered", store_dir=tmp_path)  # needs a pool bound
    with pytest.raises(ValueError):
        _offloader("tape", store_dir=tmp_path)
    # Knobs that would be silently inert for the target are rejected.
    with pytest.raises(ValueError):
        _offloader("cpu", chunk_bytes=4096)
    with pytest.raises(ValueError):
        _offloader("ssd", store_dir=tmp_path, cpu_pool_bytes=4096)


# ---------------------------------------------------------- cache integration
def _tiered_cache(tmp_path, cpu_pool_bytes, **offloader_kwargs):
    return TensorCache(
        TieredOffloader(
            tmp_path / "cache-tiers", cpu_pool_bytes=cpu_pool_bytes, **offloader_kwargs
        ),
        policy=OffloadPolicy(PolicyConfig(min_offload_numel=64)),
    )


def test_tiered_training_matches_baseline(gpu, tiny_gpt_config, tmp_path):
    baseline = _fresh_model(gpu, tiny_gpt_config)
    loss0, grads0, peak0 = _run_model_step(baseline, gpu)

    cache = _tiered_cache(tmp_path, cpu_pool_bytes=32 * 1024)  # forces spills
    try:
        model = _fresh_model(gpu, tiny_gpt_config)
        cache.register_weights(model)
        cache.attach(model)
        loss1, grads1, peak1 = _run_model_step(model, gpu, cache)
        assert loss0 == pytest.approx(loss1, abs=1e-6)
        for name in grads0:
            assert np.array_equal(grads0[name], grads1[name]), name
        stats = cache.offloader.stats
        # Both warm and cold tiers saw traffic; the pool never overflowed.
        assert stats.cpu_stored_bytes > 0
        assert stats.ssd_stored_bytes + stats.demoted_bytes > 0
        assert peak1 < peak0
    finally:
        cache.shutdown()


def test_cache_records_tier_per_activation(gpu, tiny_gpt_config, tmp_path):
    cache = _tiered_cache(tmp_path, cpu_pool_bytes=32 * 1024)
    try:
        model = _fresh_model(gpu, tiny_gpt_config)
        cache.register_weights(model)
        cache.attach(model)
        rng = np.random.default_rng(3)
        from repro.tensor.tensor import Tensor

        tokens = Tensor(
            rng.integers(0, tiny_gpt_config.vocab_size, (2, 16)).astype(np.int64),
            device=gpu,
        )
        targets = Tensor(
            rng.integers(0, tiny_gpt_config.vocab_size, (2, 16)).astype(np.int64),
            device=gpu,
        )
        with cache:
            loss = model(tokens, targets)
            cache.scheduler.drain()
            records = list(cache.current.records.values())
            tiers = {rec.tier for rec in records}
            # The bounded pool splits the step's records across both tiers,
            # and every stored record names its tier in the Fig. 4 column.
            assert Tier.CPU in tiers and Tier.SSD in tiers
            for rec in records:
                if rec.tier is Tier.CPU:
                    assert rec.location.startswith("tier:cpu:")
                elif rec.tier is Tier.SSD:
                    assert rec.location.startswith("tier:ssd:")
            cache.on_backward_begin()
            loss.backward()
            cache.on_backward_end()
        cache.on_step_end()
    finally:
        cache.shutdown()


def test_forwarding_across_tiers(gpu, tiny_gpt_config, tmp_path):
    """A load racing an in-flight tiered store adopts the in-memory
    reference, whichever tier the store is headed for."""
    cache = TensorCache(
        TieredOffloader(
            tmp_path / "fwd-tiers",
            cpu_pool_bytes=32 * 1024,
            throttle_bytes_per_s=5e5,  # slow SSD tier: stores stay in flight
        ),
        policy=OffloadPolicy(PolicyConfig(min_offload_numel=64)),
    )
    try:
        model = _fresh_model(gpu, tiny_gpt_config)
        cache.register_weights(model)
        cache.attach(model)
        loss1, _, _ = _run_model_step(model, gpu, cache)
        assert cache.stats.forwarded_tensors > 0
        baseline = _fresh_model(gpu, tiny_gpt_config)
        loss0, _, _ = _run_model_step(baseline, gpu)
        assert loss0 == pytest.approx(loss1, abs=1e-6)
    finally:
        cache.shutdown()


def test_tiered_step_end_reclaims_all_tiers(gpu, tiny_gpt_config, tmp_path):
    cache = _tiered_cache(tmp_path, cpu_pool_bytes=32 * 1024)
    try:
        model = _fresh_model(gpu, tiny_gpt_config)
        cache.register_weights(model)
        cache.attach(model)
        _run_model_step(model, gpu, cache)
        assert cache.offloader.pool.used == 0
        assert not cache.offloader._tier
    finally:
        cache.shutdown()


# ----------------------------------------------------------- chunk coalescing
def test_chunked_ssd_writes_at_least_4x_fewer_files(gpu, tiny_gpt_config, tmp_path):
    """Acceptance: for a quickstart-sized step, chunk coalescing cuts the
    SSD write count by >= 4x versus one file per tensor."""

    def run_step(offloader):
        cache = TensorCache(
            offloader, policy=OffloadPolicy(PolicyConfig(min_offload_numel=64))
        )
        try:
            model = _fresh_model(gpu, tiny_gpt_config)
            cache.register_weights(model)
            cache.attach(model)
            _run_model_step(model, gpu, cache)
            executed = cache.stats.stored_tensors - cache.stats.cancelled_stores
            return executed, offloader.file_store.write_count
        finally:
            cache.shutdown()

    stored, per_tensor_writes = run_step(SSDOffloader(tmp_path / "per-tensor"))
    # One file per store that actually ran (forwarding may have cancelled
    # a queued store or two before it hit the SSD).
    assert per_tensor_writes == stored

    _, chunk_writes = run_step(
        SSDOffloader(tmp_path / "chunked", chunk_bytes=64 * 1024)
    )
    assert per_tensor_writes >= 4 * max(chunk_writes, 1)


def test_tiered_with_chunked_ssd_trains_correctly(gpu, tiny_gpt_config, tmp_path):
    baseline = _fresh_model(gpu, tiny_gpt_config)
    loss0, _, _ = _run_model_step(baseline, gpu)
    cache = _tiered_cache(tmp_path, cpu_pool_bytes=32 * 1024, chunk_bytes=64 * 1024)
    try:
        model = _fresh_model(gpu, tiny_gpt_config)
        cache.register_weights(model)
        cache.attach(model)
        loss1, _, _ = _run_model_step(model, gpu, cache)
        assert loss0 == pytest.approx(loss1, abs=1e-6)
    finally:
        cache.shutdown()


# ------------------------------------------------------------- tier failover
def test_direct_ssd_store_fails_over_to_cpu_on_permanent_error(tmp_path):
    """A policy-bypass (oversized) store hitting a dead SSD lands in the
    pinned pool instead of failing, and the SSD tier is written off."""
    from repro.core import OffloadPolicy, PolicyConfig
    from repro.io.faults import FaultPlan, inject_faults

    data = np.ones((64, 64), dtype=np.float32)
    off = TieredOffloader(
        tmp_path / "t",
        cpu_pool_bytes=4 * data.nbytes,
        policy=OffloadPolicy(PolicyConfig(cpu_tier_max_tensor_bytes=data.nbytes // 2)),
    )
    inject_faults(off, FaultPlan.dead(after_ops=0))
    try:
        off.store(_tid(1), data)  # placed SSD (too big for the pool cap)
        assert off.ssd_dead
        assert off.stats.failovers == 1
        assert off.stats.failover_bytes == data.nbytes
        assert off.tier_of(_tid(1)) is Tier.CPU
        out = off.load(_tid(1), (64, 64), np.dtype(np.float32))
        assert np.array_equal(out, data)
        # Subsequent placements skip the dead tier outright.
        off.store(_tid(2), data)
        assert off.tier_of(_tid(2)) is Tier.CPU
        assert off.store_lane(_tid(3), data.nbytes) == "cpu"
        assert off.stats.failovers == 1  # no second failover needed
    finally:
        off.shutdown()


def test_queued_demotion_reinstates_to_cpu_when_ssd_dies(tmp_path):
    """An async spill whose write hits the dead SSD must not lose the
    buffer: the victim is reinstated in the pool (overflow allowed) and
    stays loadable."""
    from repro.io import IOScheduler
    from repro.io.faults import FaultPlan, inject_faults

    sched = IOScheduler(num_store_workers=1, num_load_workers=1, retry_backoff_s=0)
    rng = np.random.default_rng(9)
    a = rng.standard_normal((64, 64)).astype(np.float32)
    b = rng.standard_normal((64, 64)).astype(np.float32)
    off = TieredOffloader(tmp_path / "t", cpu_pool_bytes=a.nbytes)
    off.set_scheduler(sched)
    inject_faults(off, FaultPlan.dead(after_ops=0))
    try:
        off.store(_tid(1), a)
        off.store(_tid(2), b)  # demotes tid 1; the queued spill will fail
        assert sched.drain(5)
        assert off.ssd_dead
        assert off.stats.failovers == 1
        assert off.tier_of(_tid(1)) is Tier.CPU
        assert off.pool.overflow_allowed  # both tensors share a 1-tensor pool
        assert np.array_equal(off.load(_tid(1), (64, 64), np.dtype(np.float32)), a)
        assert np.array_equal(off.load(_tid(2), (64, 64), np.dtype(np.float32)), b)
    finally:
        sched.shutdown()
        off.shutdown()


def test_sync_demotion_on_dead_ssd_keeps_victim_resident(tmp_path):
    """Scheduler-less demotions: a dead SSD write leaves the victim in
    the pool (no data loss) and latches degraded mode."""
    from repro.io.faults import FaultPlan, inject_faults

    data = np.ones((64, 64), dtype=np.float32)
    off = TieredOffloader(tmp_path / "t", cpu_pool_bytes=data.nbytes)
    inject_faults(off, FaultPlan.dead(after_ops=0))
    try:
        off.store(_tid(1), data)
        off.store(_tid(2), data)  # wants to demote tid 1; the SSD is dead
        assert off.ssd_dead
        assert off.tier_of(_tid(1)) is Tier.CPU
        assert off.tier_of(_tid(2)) is Tier.CPU
        assert off.pool.overflow_bytes == data.nbytes
        out = off.load(_tid(1), (64, 64), np.dtype(np.float32))
        assert np.array_equal(out, data)
    finally:
        off.shutdown()


def test_failed_over_demotion_still_feeds_ssd_lane_health(tmp_path):
    """Review regression: a demotion whose SSD write exhausted its
    retries and was reinstated into the CPU tier completes DONE — the
    ssd lane must still record the failure, so a persistently flaky SSD
    accumulates toward the death verdict instead of being masked."""
    from repro.io import IOScheduler
    from repro.io.faults import FaultPlan, inject_faults

    sched = IOScheduler(num_store_workers=1, num_load_workers=1, retry_backoff_s=0)
    data = np.ones((64, 64), dtype=np.float32)
    off = TieredOffloader(tmp_path / "t", cpu_pool_bytes=data.nbytes)
    off.set_scheduler(sched)
    # Every write op faults more attempts than any retry budget covers.
    inject_faults(off, FaultPlan(transient_write_rate=1.0, transient_repeats=10))
    try:
        off.store(_tid(1), data)
        off.store(_tid(2), data)  # demotes tid 1; the spill write flakes out
        assert sched.drain(5)
        assert off.stats.failovers == 1
        assert off.tier_of(_tid(1)) is Tier.CPU
        assert not off.ssd_dead  # transient exhaustion alone is not death...
        window = sched.health.consume_failure_window()
        assert window.get("ssd") == 1  # ...but the lane learned about it
        assert sched.health.snapshot()["ssd"].consecutive_failures == 1
    finally:
        sched.shutdown()
        off.shutdown()


def test_sync_direct_ssd_store_retries_transient_faults(tmp_path):
    """Review regression: the scheduler-less store() path applies the
    same retry rule as the sync demotion path — a survivable transient
    plan must not fail a standalone store outright."""
    from repro.core import OffloadPolicy, PolicyConfig
    from repro.io.faults import FaultPlan, inject_faults

    data = np.ones((64, 64), dtype=np.float32)
    off = TieredOffloader(
        tmp_path / "t",
        cpu_pool_bytes=4 * data.nbytes,
        policy=OffloadPolicy(PolicyConfig(cpu_tier_max_tensor_bytes=data.nbytes // 2)),
    )
    injector = inject_faults(off, FaultPlan.transient(rate=1.0))
    try:
        off.store(_tid(1), data)  # SSD placement; first write attempt faults
        assert injector.fault_stats.injected_transient >= 1
        assert off.tier_of(_tid(1)) is Tier.SSD  # healed, landed on SSD
        assert not off.ssd_dead
        # The sync load path heals its read fault the same way.
        out = off.load(_tid(1), (64, 64), np.dtype(np.float32))
        assert np.array_equal(out, data)
        assert injector.fault_stats.injected_transient >= 2
    finally:
        off.shutdown()


# --------------------------------------------------------- durable rehydration
def test_durable_tiered_rehydrates_ssd_tier_map(tmp_path):
    """A restarted durable tiered engine must remember which tensors
    live on SSD — the replayed store index seeds the tier map, so loads
    of pre-crash tensors hit SSD instead of raising 'never stored'."""
    first = TieredOffloader(
        tmp_path / "t",
        cpu_pool_bytes=4 * DATA.nbytes,
        chunk_bytes=4096,
        durable=True,
    )
    try:
        for i in range(3):
            first.store(_tid(i), DATA + i)
            assert first.demote(_tid(i))  # force SSD residency
        first.flush()
    finally:
        first.shutdown()  # durable: close() keeps the chunk files

    second = TieredOffloader(
        tmp_path / "t",
        cpu_pool_bytes=4 * DATA.nbytes,
        chunk_bytes=4096,
        durable=True,
    )
    try:
        for i in range(3):
            assert second.tier_of(_tid(i)) is Tier.SSD
            assert np.array_equal(
                second.load(_tid(i), DATA.shape, DATA.dtype), DATA + i
            )
    finally:
        second.shutdown()


def test_volatile_tiered_starts_empty(tmp_path):
    """Without durable=True the store clears on shutdown, so a second
    offloader on the same directory sees nothing — the pre-PR9 contract."""
    first = TieredOffloader(
        tmp_path / "t", cpu_pool_bytes=4 * DATA.nbytes, chunk_bytes=4096
    )
    first.store(_tid(1), DATA)
    first.demote(_tid(1))
    first.shutdown()

    second = TieredOffloader(
        tmp_path / "t", cpu_pool_bytes=4 * DATA.nbytes, chunk_bytes=4096
    )
    try:
        assert second.tier_of(_tid(1)) is Tier.GPU  # "never stored" default
        with pytest.raises(KeyError):
            second.load(_tid(1), DATA.shape, DATA.dtype)
    finally:
        second.shutdown()
