"""Engine lifecycle: idempotent close, context manager, and leak-freedom.

The service mode restarts engines inside one process for days; the
contract is that ``build_engine(...)`` / ``shutdown()`` cycles leak
**nothing** — no worker threads, no file descriptors — so a supervised
service's footprint is flat no matter how many times it restarts.  An
engine whose caller forgets ``shutdown()`` is stopped by its finalizer
once collected, with a :class:`ResourceWarning`.
"""

import gc
import os
import threading

import numpy as np
import pytest

from repro.core.engine import EngineConfig, EngineStats, build_engine
from repro.core.ids import TensorID
from repro.io.scheduler import IORequest, Priority

DATA = np.arange(256, dtype=np.float32)
TID = TensorID(stamp=1, shape=(256,))


def _through_lanes(engine):
    """Store and load ``DATA`` through the engine's scheduler lanes, so the
    backend's FD table caches a descriptor."""
    off = engine.offloader
    for kind, priority, fn in (
        ("store", Priority.STORE, lambda: off.store(TID, DATA)),
        (
            "load",
            Priority.BLOCKING_LOAD,
            lambda: off.load(TID, DATA.shape, DATA.dtype),
        ),
    ):
        request = engine.scheduler.submit(
            IORequest(fn, kind=kind, priority=priority, lane=off.store_lane(TID, 0))
        )
        assert request.wait(5) and request.error is None
    assert np.array_equal(request.result, DATA)


def _cycle(config):
    """One full engine life: build, run I/O on the lanes, shut down."""
    engine = build_engine(config)
    engine.offloader.store(TID, DATA)
    back = engine.offloader.load(TID, DATA.shape, DATA.dtype)
    assert np.array_equal(back, DATA)
    _through_lanes(engine)
    engine.shutdown()


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize(
    "config",
    [
        EngineConfig(target="cpu"),
        EngineConfig(target="ssd", store_dir="PLACEHOLDER"),
        EngineConfig(target="ssd", store_dir="PLACEHOLDER", chunk_bytes=4096),
        EngineConfig(
            target="ssd",
            store_dir="PLACEHOLDER",
            chunk_bytes=4096,
            durable=True,
            io_backend="uring",
        ),
    ],
    ids=["cpu", "ssd-thread", "ssd-chunked", "ssd-durable-uring"],
)
def test_twenty_cycles_leak_no_threads_or_fds(tmp_path, config):
    config.store_dir = tmp_path if config.store_dir else None
    _cycle(config)  # warm-up: imports, pytest plumbing, etc.
    threads_before = threading.active_count()
    fds_before = _open_fds()
    for _ in range(20):
        _cycle(config)
    assert threading.active_count() == threads_before
    assert _open_fds() == fds_before


def test_shutdown_is_idempotent(tmp_path):
    engine = build_engine(
        EngineConfig(target="ssd", store_dir=tmp_path, chunk_bytes=4096)
    )
    engine.offloader.store(TID, DATA)
    assert not engine.closed
    engine.shutdown()
    assert engine.closed
    engine.shutdown()  # second close is a no-op, not an error
    engine.close()  # alias
    assert engine.closed


def test_engine_context_manager(tmp_path):
    with build_engine(
        EngineConfig(target="ssd", store_dir=tmp_path, chunk_bytes=4096)
    ) as engine:
        engine.offloader.store(TID, DATA)
        assert not engine.closed
    assert engine.closed


def test_scheduler_and_backends_close_aliases(tmp_path):
    """Every layer of the I/O plane is a context manager with an
    idempotent ``close`` — the leak-freedom building blocks."""
    from repro.io.aio import ThreadBackend
    from repro.io.scheduler import IOScheduler
    from repro.io.uring import UringBackend

    with IOScheduler(num_store_workers=1, num_load_workers=1) as sched:
        pass
    sched.close()  # idempotent after __exit__
    assert sched.closed

    for backend_type in (ThreadBackend, UringBackend):
        with backend_type() as backend:
            backend.fds.acquire_write(str(tmp_path / backend_type.name))
        assert len(backend.fds) == 0  # close shut the FD table
        backend.close()


def _open_and_drop(store_dir, io_backend):
    """Build an engine, run I/O on its lanes, and drop it unclosed."""
    engine = build_engine(
        EngineConfig(target="ssd", store_dir=store_dir, io_backend=io_backend)
    )
    _through_lanes(engine)


@pytest.mark.parametrize("io_backend", ["thread", "uring"])
def test_unclosed_engine_is_stopped_by_its_finalizer(tmp_path, io_backend):
    """A collected engine nobody shut down must give back its lane
    threads and cached descriptors, and say so with a ResourceWarning."""
    _cycle(EngineConfig(target="ssd", store_dir=tmp_path / "warm-up"))
    threads_before = threading.active_count()
    fds_before = _open_fds()
    for i in range(4):
        with pytest.warns(ResourceWarning, match="without shutdown"):
            _open_and_drop(tmp_path / str(i), io_backend)
            gc.collect()
        assert threading.active_count() == threads_before
        assert _open_fds() == fds_before


def test_finalizer_leaves_a_shut_down_scheduler_alone(tmp_path, recwarn):
    """A cache shutdown already stopped the lanes: collecting the engine
    afterwards is silent."""
    engine = build_engine(EngineConfig(target="ssd", store_dir=tmp_path))
    cache = engine.cache()
    assert cache.engine is engine  # the cache keeps its engine alive
    cache.shutdown()
    del engine, cache
    gc.collect()
    assert not [w for w in recwarn if issubclass(w.category, ResourceWarning)]


def test_stats_available_after_shutdown(tmp_path):
    """The service snapshots stats around restarts; a closed engine must
    still report (it no longer mutates)."""
    engine = build_engine(
        EngineConfig(
            target="ssd", store_dir=tmp_path, chunk_bytes=4096, durable=True
        )
    )
    engine.offloader.store(TID, DATA)
    engine.shutdown()
    stats = engine.stats()
    assert isinstance(stats, EngineStats)
    assert stats.endurance is not None
    assert stats.endurance.bytes_written > 0
