"""Engine facade: typed config validation, the offloader each target
builds, and one stats snapshot."""

import numpy as np
import pytest

from repro.core import (
    EngineConfig,
    EngineConfigError,
    OffloadPolicy,
    build_engine,
)
from repro.core.ids import TensorID
from repro.core.offloader import CPUOffloader, SSDOffloader
from repro.core.tiered import TieredOffloader
from repro.io.tenancy import TenantRegistry

DATA = np.arange(256, dtype=np.float32)


# -------------------------------------------------------------- validation
@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(target="dram"), "unknown offload target"),
        (dict(target="cpu", chunk_bytes=4096),
         "chunk_bytes applies to the ssd/tiered targets, not cpu"),
        (dict(target="ssd", store_dir="x", cpu_pool_bytes=1),
         "cpu_pool_bytes applies to the cpu/tiered targets, not ssd"),
        (dict(target="ssd"), "ssd target requires store_dir"),
        (dict(target="tiered", cpu_pool_bytes=1),
         "tiered target requires store_dir"),
        (dict(target="tiered", store_dir="x"),
         "tiered target requires cpu_pool_bytes"),
        (dict(target="cpu", cpu_pool_bytes=-1), "cpu_pool_bytes must be >= 0"),
        (dict(target="cpu", num_store_workers=0), "at least one worker"),
        (dict(target="cpu", num_load_workers=0), "at least one worker"),
        (dict(target="cpu", prefetch_window=-1), "prefetch_window must be >= 0"),
    ],
)
def test_config_validation_is_typed(kwargs, message):
    with pytest.raises(EngineConfigError, match=message):
        build_engine(EngineConfig(**kwargs))


def test_config_error_is_a_value_error():
    # Callers may catch the typed error as a plain ValueError.
    assert issubclass(EngineConfigError, ValueError)
    with pytest.raises(ValueError, match="ssd target requires store_dir"):
        build_engine(EngineConfig(target="ssd"))
    with pytest.raises(ValueError, match="unknown offload target"):
        build_engine(target="dram")


# ------------------------------------------------------- offloader per target
def test_build_engine_builds_ssd_offloader(tmp_path):
    off = build_engine(
        EngineConfig(target="ssd", store_dir=tmp_path, chunk_bytes=4096)
    ).offloader
    assert type(off) is SSDOffloader
    tid = TensorID(stamp=1, shape=tuple(DATA.shape))
    off.store(tid, DATA)
    assert np.array_equal(off.load(tid, DATA.shape, DATA.dtype), DATA)


def test_build_engine_builds_cpu_offloader():
    off = build_engine(EngineConfig(target="cpu", cpu_pool_bytes=1 << 20)).offloader
    assert type(off) is CPUOffloader
    assert off.pool.capacity_bytes == 1 << 20


def test_build_engine_builds_tiered_offloader(tmp_path):
    policy = OffloadPolicy()
    off = build_engine(
        EngineConfig(
            target="tiered",
            store_dir=tmp_path,
            cpu_pool_bytes=1 << 16,
            policy=policy,
        )
    ).offloader
    assert type(off) is TieredOffloader
    # The shared policy is wired through to the tier placement.
    assert off.policy is policy


# ------------------------------------------------------------------ wiring
def test_engine_cache_shares_policy_and_scheduler(tmp_path):
    engine = build_engine(
        EngineConfig(target="tiered", store_dir=tmp_path, cpu_pool_bytes=1 << 16)
    )
    try:
        assert not engine.scheduler_started  # the I/O plane is lazy
        cache = engine.cache()
        assert engine.scheduler_started
        assert cache.policy is engine.policy
        assert cache.scheduler is engine.scheduler
        assert cache.offloader is engine.offloader
        assert cache.prefetch_window == engine.config.prefetch_window
        other = engine.cache(prefetch_window=3)
        assert other.scheduler is cache.scheduler
        assert other.prefetch_window == 3
    finally:
        engine.shutdown()


def test_engine_overrides_form(tmp_path):
    engine = build_engine(
        EngineConfig(target="ssd", store_dir=tmp_path), fifo_io=True
    )
    try:
        assert engine.config.fifo_io is True
        assert engine.config.target == "ssd"
    finally:
        engine.shutdown()


# ------------------------------------------------------------------- stats
def test_engine_stats_aggregates_every_plane(tmp_path):
    registry = TenantRegistry()
    registry.register("alice")
    engine = build_engine(
        EngineConfig(
            target="tiered",
            store_dir=tmp_path,
            cpu_pool_bytes=1 << 16,
            tenants=registry,
        )
    )
    try:
        snap = engine.stats()
        assert snap.target == "tiered"
        assert snap.scheduler is None  # lazy plane untouched
        assert snap.tiers is not None
        assert snap.pool is not None
        assert snap.pool.capacity_bytes == 1 << 16
        assert "alice" in snap.tenants  # registry books without a scheduler

        tid = TensorID(stamp=1, shape=tuple(DATA.shape))
        engine.offloader.store(tid, DATA)
        engine.scheduler.drain()
        snap = engine.stats()
        assert snap.scheduler is not None
        assert snap.tiers.cpu_stored_bytes >= DATA.nbytes
        assert snap.pool.used_bytes >= DATA.nbytes
        assert snap.dataplane is not None
        assert snap.arena is not None
    finally:
        engine.shutdown()


def test_stats_snapshot_is_detached(tmp_path):
    engine = build_engine(EngineConfig(target="cpu"))
    try:
        engine.scheduler  # start the I/O plane
        snap = engine.stats()
        snap.scheduler.submitted += 1000
        assert engine.stats().scheduler.submitted != snap.scheduler.submitted
    finally:
        engine.shutdown()


def test_delegating_accessors_are_views_of_stats(tmp_path):
    engine = build_engine(
        EngineConfig(target="tiered", store_dir=tmp_path, cpu_pool_bytes=1 << 16)
    )
    try:
        assert engine.pool_stats().capacity_bytes == 1 << 16
        assert engine.dataplane_stats() is not None
        assert engine.tenant_stats() == {}
        assert engine.channel_windows() == {}
    finally:
        engine.shutdown()


def test_stats_never_steals_the_controller_feed(tmp_path):
    """engine.stats() must not drain consume_completion_stats()."""
    engine = build_engine(EngineConfig(target="ssd", store_dir=tmp_path))
    try:
        cache = engine.cache()
        tid = TensorID(stamp=1, shape=tuple(DATA.shape))
        engine.offloader.store(tid, DATA)
        engine.scheduler.drain()
        engine.stats()  # peek — must leave the destructive feed intact
        del cache
    finally:
        engine.shutdown()
