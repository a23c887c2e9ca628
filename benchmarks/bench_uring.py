"""Benchmarks for the SQ/CQ I/O backend.

The uring-style backend (completions on a reaper thread) against the
thread backend (completions on the lane worker) on the scheduler's
store path, plus the simulated GDS lane's routing win.  The CI
regression guard (``scripts/check_bench_regression.py``) watches the
``uring``/``backend``-named benches; ``test_uring_backend_equal_syscalls_ab``
asserts deterministically that both backends reach the kernel the same
way, with exact syscall counts.
"""

import numpy as np

from repro.io import (
    GDSSimBackend,
    IORequest,
    IOScheduler,
    Priority,
    TensorFileStore,
    UringBackend,
)
from repro.tensor.tensor import Tensor

from benchmarks.conftest import emit

MiB = 1 << 20
#: Store-path working set: 16 x 1 MiB tensors per measured round.
N_TENSORS = 16
TENSOR = np.random.default_rng(11).random(MiB // 8)  # 1 MiB of float64


def _store_round(sched, store):
    requests = [
        sched.submit(
            IORequest(
                lambda i=i: store.write(f"t{i}", TENSOR),
                kind="store",
                priority=Priority.STORE,
                tensor_id=f"t{i}",
                nbytes=TENSOR.nbytes,
            )
        )
        for i in range(N_TENSORS)
    ]
    assert sched.drain(30)
    for request in requests:
        assert request.error is None


def _run_one_round(tmp_path, name, backend):
    """One deterministic round; returns (store, lane stats, sched stats)."""
    sched = IOScheduler(num_store_workers=1, num_load_workers=1, backend=backend)
    store = TensorFileStore(tmp_path / name)
    try:
        _store_round(sched, store)
        lanes = sched.backend_stats_snapshot()
        stats = sched.stats
        assert stats.submitted == stats.executed + stats.failed + stats.cancelled
    finally:
        sched.shutdown()
    return store, lanes["ssd"], stats


def test_uring_backend_store_round(benchmark, tmp_path):
    sched = IOScheduler(
        num_store_workers=1, num_load_workers=1, backend=UringBackend()
    )
    store = TensorFileStore(tmp_path)
    try:
        benchmark(_store_round, sched, store)
        lane = sched.backend_stats_snapshot()["ssd"]
        emit(
            "SQ/CQ backend — uring store round (16 x 1 MiB)",
            [f"syscalls: {lane.syscalls} over {lane.batches} batches",
             f"requests batched: {lane.batched_requests}",
             f"reaped: {lane.reaped} (lag {lane.reap_lag_s * 1e3:.1f} ms)"],
        )
        assert lane.reaped > 0
    finally:
        sched.shutdown()


def test_thread_backend_store_round(benchmark, tmp_path):
    sched = IOScheduler(num_store_workers=1, num_load_workers=1)
    store = TensorFileStore(tmp_path)
    try:
        benchmark(_store_round, sched, store)
    finally:
        sched.shutdown()


def test_uring_backend_equal_syscalls_ab(tmp_path):
    """Both backends share one store path: at identical bytes written,
    each fresh write is exactly open + pwritev on either of them."""
    thread_store, thread_lane, _ = _run_one_round(tmp_path, "thread", None)
    uring_store, uring_lane, _ = _run_one_round(tmp_path, "uring", UringBackend())
    assert uring_store.bytes_written == thread_store.bytes_written
    assert thread_store.write_syscalls == uring_store.write_syscalls == 2 * N_TENSORS
    assert thread_lane.syscalls == uring_lane.syscalls == 2 * N_TENSORS
    emit(
        "Backends — syscalls at equal bytes (16 x 1 MiB stores)",
        [f"thread: {thread_lane.syscalls} syscalls",
         f"uring:  {uring_lane.syscalls} syscalls"],
    )


def test_gds_sim_backend_skips_bounce_copies(tmp_path):
    """Registered storages route past the host bounce buffer: the
    ``bounce_copies_skipped`` counter must move on a registered round."""
    backend = GDSSimBackend()
    sched = IOScheduler(num_store_workers=1, num_load_workers=1, backend=backend)
    store = TensorFileStore(tmp_path)
    tensors = [Tensor(TENSOR.copy()) for _ in range(N_TENSORS)]
    for t in tensors:
        backend.registry.register(t.untyped_storage())
    try:
        requests = [
            sched.submit(
                IORequest(
                    lambda i=i: store.write(f"t{i}", tensors[i].data),
                    kind="store",
                    priority=Priority.STORE,
                    tensor_id=f"t{i}",
                    nbytes=TENSOR.nbytes,
                )
            )
            for i in range(N_TENSORS)
        ]
        assert sched.drain(30)
        for request in requests:
            assert request.error is None
        lane = sched.backend_stats_snapshot()["ssd"]
        emit(
            "SQ/CQ backend — GDS-sim routing (16 registered stores)",
            [f"bounce copies skipped: {lane.bounce_copies_skipped}",
             f"bounce copies staged: {lane.bounce_copies}"],
        )
        assert lane.bounce_copies_skipped > 0
        assert lane.bounce_copies == 0
        assert backend.arena.stats().outstanding_bytes == 0
    finally:
        sched.shutdown()
