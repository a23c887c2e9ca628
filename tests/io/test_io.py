"""Tests for the async I/O substrate: pools, file store, GDS paths."""

import threading
import time

import numpy as np
import pytest

from repro.device.pcie import GPU_LINK_GEN4_X16
from repro.device.ssd import INTEL_OPTANE_P5800X_1600GB, RAID0Array
from repro.io import (
    BounceBufferPath,
    ChunkedTensorStore,
    DirectGDSPath,
    GDSRegistry,
    TensorFileStore,
)
from repro.io.aio import IOJob, JobState
from repro.io.scheduler import (
    DEFAULT_COALESCE_BYTES,
    IORequest,
    IOScheduler,
    Priority,
)
from repro.tensor.tensor import Tensor


# ------------------------------------------------------------- the FIFO pools
# The paper's two FIFO pools (Sec. III-C2) are the scheduler's lanes run
# with ``fifo=True``; these tests hold the scheduler and its IOJob units
# to the pool semantics the tensor cache relies on.
def _pool() -> IOScheduler:
    return IOScheduler(num_store_workers=1, num_load_workers=1, fifo=True)


def _job(fn, nbytes: int = 0) -> IORequest:
    return IORequest(fn, kind="store", priority=Priority.STORE, nbytes=nbytes)


def test_pool_executes_jobs():
    pool = _pool()
    job = pool.submit(_job(lambda: 42))
    assert job.wait(5)
    assert job.result == 42
    assert job.state is JobState.DONE
    pool.shutdown()


def test_pool_fifo_order_single_worker():
    pool = _pool()
    started = threading.Semaphore(0)
    release = threading.Event()

    def hold():
        started.release()
        release.wait()

    for _ in range(2):  # park both of the lane's workers (too big to coalesce)
        pool.submit(_job(hold, nbytes=DEFAULT_COALESCE_BYTES))
    for _ in range(2):
        assert started.acquire(timeout=5)
    order = []
    for i in range(20):
        pool.submit(_job(lambda i=i: order.append(i)))
    release.set()
    # The first free worker takes the whole queued run as one coalesced
    # batch and executes it in submission order.
    assert pool.drain(5)
    assert order == list(range(20))
    pool.shutdown()


def test_pool_error_captured_not_raised():
    def boom():
        raise ValueError("io error")

    job = IOJob(boom)
    job.run()  # the body's error is captured on the job, never raised
    assert job.state is JobState.FAILED
    assert isinstance(job.error, ValueError)


def test_pool_done_callback_fires():
    pool = _pool()
    fired = threading.Event()
    job = pool.submit(_job(lambda: 1))
    job.add_done_callback(lambda j: fired.set())
    assert fired.wait(5)
    pool.shutdown()


def test_pool_done_callback_after_completion_runs_immediately():
    job = IOJob(lambda: 1)
    job.run()
    fired = []
    job.add_done_callback(lambda j: fired.append(j.state))
    assert fired == [JobState.DONE]


def test_pool_drops_closure_after_run():
    """The job must not pin the stored tensor after completion (GPU memory
    is reclaimed by refcount once the store finishes)."""
    job = IOJob(lambda: None)
    job.run()
    assert job.fn is None
    pool = _pool()
    request = pool.submit(_job(lambda: None))
    assert request.wait(5)
    pool.shutdown()
    assert request.fn is None


def test_pool_pending_and_drain():
    pool = _pool()
    release = threading.Event()
    pool.submit(_job(release.wait))
    pool.submit(_job(lambda: 1))
    assert pool.pending() == 2
    release.set()
    assert pool.drain(5)
    assert pool.pending() == 0
    pool.shutdown()


def test_pool_shutdown_rejects_new_work():
    pool = _pool()
    pool.shutdown()
    assert pool.closed
    with pytest.raises(RuntimeError):
        pool.submit(_job(lambda: 1))


def test_pool_validation():
    with pytest.raises(ValueError):
        IOScheduler(num_store_workers=0)
    with pytest.raises(ValueError):
        IOScheduler(num_load_workers=0)


# --------------------------------------------------------------- TensorFileStore
def test_filestore_roundtrip(tmp_path):
    store = TensorFileStore(tmp_path)
    data = np.random.default_rng(0).standard_normal((4, 5)).astype(np.float32)
    store.write("t1", data)
    back = store.read("t1", (4, 5), np.float32)
    assert np.array_equal(back, data)


def test_filestore_roundtrip_fp16(tmp_path):
    store = TensorFileStore(tmp_path)
    data = np.ones((8,), dtype=np.float16)
    store.write("t2", data)
    assert store.read("t2", (8,), np.float16).dtype == np.float16


def test_filestore_missing_tensor(tmp_path):
    store = TensorFileStore(tmp_path)
    with pytest.raises(FileNotFoundError):
        store.read("nope", (1,), np.float32)


def test_filestore_stats(tmp_path):
    store = TensorFileStore(tmp_path)
    data = np.zeros(16, dtype=np.float32)
    store.write("a", data)
    store.read("a", (16,), np.float32)
    assert store.bytes_written == 64
    assert store.bytes_read == 64
    assert store.write_count == store.read_count == 1
    store.reset_stats()
    assert store.bytes_written == 0


def test_filestore_throttle_slows_io(tmp_path):
    data = np.zeros(25000, dtype=np.float32)  # 100 KB
    slow = TensorFileStore(tmp_path / "slow", throttle_bytes_per_s=1e6)
    start = time.monotonic()
    slow.write("x", data)
    assert time.monotonic() - start >= 0.09


def test_filestore_charges_ssd_array(tmp_path):
    array = RAID0Array(INTEL_OPTANE_P5800X_1600GB, num_ssds=2)
    store = TensorFileStore(tmp_path, array=array)
    store.write("w", np.zeros(100, dtype=np.float32))
    assert array.host_bytes_written == 400


def test_filestore_delete_and_clear(tmp_path):
    store = TensorFileStore(tmp_path)
    store.write("a", np.zeros(4, dtype=np.float32))
    store.write("b", np.zeros(4, dtype=np.float32))
    store.delete("a")
    store.delete("a")  # idempotent
    assert not store.path_for("a").exists()
    store.clear()
    assert not store.path_for("b").exists()


# ----------------------------------------------------------- ChunkedTensorStore
def test_chunkstore_roundtrip(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=256)
    data = np.random.default_rng(0).standard_normal((4, 5)).astype(np.float32)
    store.write("t1", data)
    assert np.array_equal(store.read("t1", (4, 5), np.float32), data)


def test_chunkstore_serves_open_chunk_from_memory(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=1 << 20)
    data = np.arange(8, dtype=np.float16)
    store.write("t1", data)
    # Nothing flushed yet: zero physical writes, read still succeeds.
    assert store.write_count == 0
    assert store.num_chunks == 0
    back = store.read("t1", (8,), np.float16)
    assert back.dtype == np.float16 and np.array_equal(back, data)


def test_chunkstore_coalesces_many_small_writes(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=1024)
    data = np.zeros(64, dtype=np.float32)  # 256 B each, 4 per chunk
    for i in range(16):
        store.write(f"t{i}", data)
    assert store.write_count == 4  # 16 tensors -> 4 chunk files
    assert store.bytes_written == 16 * 256
    for i in range(16):
        assert np.array_equal(store.read(f"t{i}", (64,), np.float32), data)


def test_chunkstore_oversized_tensor_flushes_immediately(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=128)
    big = np.arange(256, dtype=np.float32)  # 1 KiB > chunk_bytes
    store.write("big", big)
    assert store.write_count == 1
    assert np.array_equal(store.read("big", (256,), np.float32), big)


def test_chunkstore_refcount_reclaims_chunk(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=512)
    data = np.zeros(64, dtype=np.float32)  # 256 B: two tensors fill a chunk
    store.write("a", data)
    store.write("b", data)
    assert store.num_chunks == 1
    chunk_path = store.path_for("a")
    assert chunk_path.exists()
    store.delete("a")
    assert chunk_path.exists()  # "b" still pins the chunk
    assert store.reclaimed_bytes == 0
    store.delete("b")
    assert not chunk_path.exists()  # refcount hit zero -> space reclaimed
    assert store.reclaimed_bytes == 512
    assert store.num_chunks == 0
    store.delete("b")  # idempotent


def test_chunkstore_delete_open_entry_never_writes(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=1 << 20)
    store.write("a", np.zeros(4, dtype=np.float32))
    store.delete("a")
    store.flush()
    assert store.write_count == 0
    assert list(tmp_path.glob("*.bin")) == []


def test_chunkstore_dead_bytes_accounting(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=512)
    data = np.zeros(64, dtype=np.float32)  # 256 B
    store.write("a", data)
    store.write("b", data)  # flushes a 512 B chunk
    store.write("c", data)  # open chunk
    assert store.dead_bytes == 0
    store.delete("a")  # hole inside the live flushed chunk
    assert store.dead_bytes == 256
    store.delete("c")  # open-chunk hole -> buffer dropped entirely
    assert store.dead_bytes == 256
    store.delete("b")  # chunk refcount 0 -> file reclaimed, hole gone
    assert store.dead_bytes == 0
    assert store.reclaimed_bytes == 512


def test_chunkstore_overwrite_replaces_bytes(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=256)
    store.write("a", np.zeros(64, dtype=np.float32))
    store.write("a", np.ones(64, dtype=np.float32))
    assert store.read("a", (64,), np.float32)[0] == 1.0


def test_chunkstore_missing_tensor(tmp_path):
    store = ChunkedTensorStore(tmp_path)
    with pytest.raises(FileNotFoundError):
        store.read("nope", (1,), np.float32)


def test_chunkstore_charges_ssd_array(tmp_path):
    array = RAID0Array(INTEL_OPTANE_P5800X_1600GB, num_ssds=2)
    store = ChunkedTensorStore(tmp_path, chunk_bytes=256, array=array)
    store.write("w", np.zeros(100, dtype=np.float32))  # 400 B -> flushes
    assert array.host_bytes_written == 400


def test_chunkstore_clear_removes_chunks(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=128)
    for i in range(4):
        store.write(f"t{i}", np.zeros(64, dtype=np.float32))
    assert store.num_chunks > 0
    store.clear()
    assert store.num_chunks == 0
    assert list(tmp_path.glob("*.bin")) == []


def test_chunkstore_validation(tmp_path):
    with pytest.raises(ValueError):
        ChunkedTensorStore(tmp_path, chunk_bytes=0)
    with pytest.raises(ValueError):
        ChunkedTensorStore(tmp_path, throttle_bytes_per_s=0)


# ------------------------------------------------------------------------- GDS
def test_gds_registry_weak_membership():
    registry = GDSRegistry()
    t = Tensor(np.zeros(4, dtype=np.float32))
    registry.register(t.untyped_storage())
    assert registry.is_registered(t.untyped_storage())
    registry.deregister(t.untyped_storage())
    assert not registry.is_registered(t.untyped_storage())


def test_gds_registry_does_not_pin_storage():
    import gc

    registry = GDSRegistry()
    t = Tensor(np.zeros(4, dtype=np.float32))
    registry.register(t.untyped_storage())
    del t
    gc.collect()
    # WeakSet drops the entry; no way to query directly, but register_count
    # stays (audit trail).
    assert registry.register_count == 1


def test_direct_path_bounded_by_slower_hop():
    array = RAID0Array(INTEL_OPTANE_P5800X_1600GB, num_ssds=4)
    path = DirectGDSPath(GPU_LINK_GEN4_X16, array)
    assert path.write_bandwidth() == pytest.approx(
        min(GPU_LINK_GEN4_X16.bandwidth, array.write_bw)
    )
    assert path.write_time(0) == 0.0
    assert path.read_time(10**9) > 0


def test_bounce_path_slower_than_direct():
    """The motivation for GDS: the CPU bounce buffer path loses bandwidth."""
    array = RAID0Array(INTEL_OPTANE_P5800X_1600GB, num_ssds=4)
    direct = DirectGDSPath(GPU_LINK_GEN4_X16, array)
    bounce = BounceBufferPath(GPU_LINK_GEN4_X16, array, host_contention=0.6)
    assert bounce.write_bandwidth() < direct.write_bandwidth()
    assert bounce.write_time(10**9) > direct.write_time(10**9)


def test_bounce_serialized_worse_than_double_buffered():
    array = RAID0Array(INTEL_OPTANE_P5800X_1600GB, num_ssds=4)
    buffered = BounceBufferPath(GPU_LINK_GEN4_X16, array, double_buffered=True)
    serialized = BounceBufferPath(GPU_LINK_GEN4_X16, array, double_buffered=False)
    assert serialized.write_bandwidth() < buffered.write_bandwidth()


def test_bounce_validation():
    array = RAID0Array(INTEL_OPTANE_P5800X_1600GB, num_ssds=1)
    with pytest.raises(ValueError):
        BounceBufferPath(GPU_LINK_GEN4_X16, array, host_contention=0.0)
