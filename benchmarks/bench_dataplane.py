"""Benchmarks for the zero-copy offload data plane.

The store and load paths of every store (one ``pwritev``/``preadv`` per
frame, no ``tobytes()`` temporaries, no whole-file slurps) and of the
arena-backed CPU tier, plus the arena's lease/release hot path.  The CI
regression guard (``scripts/check_bench_regression.py``) watches the
``dataplane``/``buffers``-named benches against ``BENCH_PR5.json``; each
bench also asserts its deterministic copy count or arena reuse, so the
data plane cannot silently start copying again.
"""

import numpy as np

from repro.core.ids import TensorID
from repro.core.offloader import CPUOffloader, PinnedMemoryPool
from repro.io.buffers import BufferArena
from repro.io.chunkstore import ChunkedTensorStore
from repro.io.filestore import TensorFileStore

from benchmarks.conftest import emit

MiB = 1 << 20
#: Store-path working set: 16 x 1 MiB tensors per measured round.
N_TENSORS = 16
TENSOR = np.random.default_rng(7).random(MiB // 8)  # 1 MiB of float64
NAMES = [f"t{i}" for i in range(N_TENSORS)]
TIDS = [TensorID(stamp=i, shape=TENSOR.shape) for i in range(N_TENSORS)]


def _store_round(store):
    for name in NAMES:
        store.write(name, TENSOR)


def _load_round(store):
    for name in NAMES:
        store.read(name, TENSOR.shape, TENSOR.dtype)


def test_dataplane_filestore_store_pooled(benchmark, tmp_path):
    store = TensorFileStore(tmp_path)
    benchmark(_store_round, store)
    snap = store.copy_stats.snapshot()
    emit(
        "Data plane — filestore store path",
        [f"copies: {snap.copies}",
         f"syscalls per write: {store.write_syscalls / store.write_count:g}"],
    )
    # Contiguous input: the frame reaches the kernel with zero memcpys.
    assert snap.copies == 0


def test_dataplane_filestore_load_pooled(benchmark, tmp_path):
    store = TensorFileStore(tmp_path)
    _store_round(store)
    benchmark(_load_round, store)
    # One disk-to-array transfer per load: the returned array itself.
    assert store.copy_stats.snapshot().copies == store.read_count


def test_dataplane_chunkstore_store_pooled(benchmark, tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=4 * MiB)
    benchmark(_store_round, store)
    # One staging append per tensor; the flush adds no copy.
    before = store.copy_stats.snapshot().copies
    _store_round(store)
    assert store.copy_stats.snapshot().copies - before == N_TENSORS


def test_dataplane_cpu_store_pooled(benchmark):
    """CPU-tier stores copy into leased arena buffers.

    The win here is structural, not a microbench ratio: a store is one
    memcpy either way, and in a tight same-size loop the OS allocator
    caches the freed block just like the arena does — so the gated
    invariant is arena reuse (no per-store allocation / first-touch page
    faults, memory bounded by the retention cap), which is what shows up
    under real allocator pressure."""
    offloader = CPUOffloader(PinnedMemoryPool())

    def round_():
        for tid in TIDS:
            offloader.store(tid, TENSOR)

    # One untimed round stores every tid once, so each timed round
    # overwrites: the steady state holds at any round count, including
    # the single round of --benchmark-disable.
    round_()
    benchmark(round_)
    stats = offloader.arena.stats()
    emit(
        "Data plane — CPU-pool store path (arena-backed)",
        [f"arena hit rate: {stats.hit_rate:.0%}",
         f"arena hits: {stats.hits}"],
    )
    # Steady state: every overwrite reuses the evicted buffer's class.
    assert stats.hits > 0
    offloader.shutdown()


def test_dataplane_buffers_arena_lease_hot_path(benchmark):
    """Lease/release cycle cost — runs on every pooled CPU store, so it
    must stay in the microseconds."""
    arena = BufferArena()

    def round_():
        for _ in range(64):
            lease = arena.lease(MiB)
            lease.release()

    benchmark(round_)
    stats = arena.stats()
    assert stats.leaked == 0
    assert stats.hit_rate > 0.9
