"""Durable chunk store: manifest replay, exact books, GC, write-leveling.

The service-mode durability contract (docs/architecture.md §11): a
durable :class:`ChunkedTensorStore` survives any process death — clean
close, hard drop, or a torn final journal record — and a fresh store on
the same root replays to the *exact* prior state: every live tensor
bit-exact, every byte book identical.
"""

import numpy as np
import pytest

from repro.io.chunkstore import ChunkedTensorStore
from repro.io.manifest import frame_record, read_journal
from repro.io.aio import FDTable, IOContext, io_context

CHUNK = 4096
ELEMS = 256  # 1 KiB float32 => 4 tensors per chunk


def _tensor(i):
    return np.random.default_rng(i).standard_normal(ELEMS).astype(np.float32)


def _fill(store, n, prefix="t"):
    for i in range(n):
        store.write(f"{prefix}{i}_{ELEMS}", _tensor(i))
    store.flush()


def _books(store):
    return {
        "bytes_written": store.bytes_written,
        "reclaimed_bytes": store.reclaimed_bytes,
        "dead_bytes": store.dead_bytes,
        "gc_runs": store.gc_runs,
        "gc_bytes_rewritten": store.gc_bytes_rewritten,
        "gc_reclaimed_dead_bytes": store.gc_reclaimed_dead_bytes,
        "root_bytes_written": store.root_bytes_written,
        "write_count": store.write_count,
    }


# ------------------------------------------------------------------ replay
def test_replay_serves_every_live_tensor_bit_exact(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=CHUNK, durable=True)
    _fill(store, 12)
    store.delete(f"t3_{ELEMS}")
    store.delete(f"t7_{ELEMS}")
    store.close()

    reopened = ChunkedTensorStore(tmp_path, chunk_bytes=CHUNK, durable=True)
    assert reopened.manifest_records_replayed > 0
    assert not reopened.replay_was_torn
    assert sorted(reopened.tensor_ids()) == sorted(
        f"t{i}_{ELEMS}" for i in range(12) if i not in (3, 7)
    )
    for i in (0, 1, 2, 4, 5, 6, 8, 9, 10, 11):
        assert np.array_equal(
            reopened.read(f"t{i}_{ELEMS}", (ELEMS,), np.float32), _tensor(i)
        )
    with pytest.raises(FileNotFoundError):
        reopened.read(f"t3_{ELEMS}", (ELEMS,), np.float32)
    reopened.close()


def test_hard_drop_without_close_replays_flushed_state(tmp_path):
    """The crash case: the store object is dropped mid-life (no close);
    everything flushed is replayable, only the open chunk is lost."""
    store = ChunkedTensorStore(tmp_path, chunk_bytes=CHUNK, durable=True)
    _fill(store, 8)
    store.write(f"open_{ELEMS}", _tensor(99))  # buffered, never flushed
    del store  # hard drop: no close, no flush

    reopened = ChunkedTensorStore(tmp_path, chunk_bytes=CHUNK, durable=True)
    assert not reopened.replay_was_torn
    for i in range(8):
        assert np.array_equal(
            reopened.read(f"t{i}_{ELEMS}", (ELEMS,), np.float32), _tensor(i)
        )
    with pytest.raises(FileNotFoundError):
        reopened.read(f"open_{ELEMS}", (ELEMS,), np.float32)
    reopened.close()


def test_exact_books_survive_close_reopen(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=CHUNK, durable=True)
    _fill(store, 16)
    for i in range(0, 16, 2):
        store.delete(f"t{i}_{ELEMS}")  # half-dead chunks + no full reclaim
    store.compact(max_dead_ratio=0.5)
    store.close()
    books = _books(store)
    assert books["gc_runs"] > 0  # the scenario exercised every book

    reopened = ChunkedTensorStore(tmp_path, chunk_bytes=CHUNK, durable=True)
    assert _books(reopened) == books
    reopened.close()


def test_torn_final_record_is_skipped_not_fatal(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=CHUNK, durable=True)
    _fill(store, 4)
    store.close()
    intact, torn = read_journal(store.manifest_path)
    assert not torn
    # Simulate a crash mid-append: half a delete record at the tail.
    with open(store.manifest_path, "ab") as fh:
        fh.write(frame_record({"op": "delete", "tid": f"t0_{ELEMS}"})[:-5])

    reopened = ChunkedTensorStore(tmp_path, chunk_bytes=CHUNK, durable=True)
    assert reopened.replay_was_torn
    assert reopened.manifest_records_replayed == len(intact)
    # The torn delete never happened: t0 is still live and bit-exact.
    assert np.array_equal(
        reopened.read(f"t0_{ELEMS}", (ELEMS,), np.float32), _tensor(0)
    )
    reopened.close()


def test_clear_reconciliation_survives_replay(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=CHUNK, durable=True)
    _fill(store, 8)
    written = store.bytes_written
    store.clear()
    assert store.reclaimed_bytes == written  # every flushed byte booked
    assert store.dead_bytes == 0
    assert store.tensor_ids() == ()
    store.close()

    reopened = ChunkedTensorStore(tmp_path, chunk_bytes=CHUNK, durable=True)
    assert reopened.tensor_ids() == ()
    assert reopened.reclaimed_bytes == written
    assert reopened.dead_bytes == 0
    assert reopened.bytes_written == written
    reopened.close()


# ------------------------------------------------------------------ chunk ids
def test_chunk_ids_continue_after_replay_no_path_reuse(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=CHUNK, durable=True)
    _fill(store, 8)
    store.close()
    old_paths = {p.name for p in tmp_path.glob("chunk*.bin")}

    reopened = ChunkedTensorStore(tmp_path, chunk_bytes=CHUNK, durable=True)
    _fill(reopened, 8, prefix="u")
    new_paths = {p.name for p in reopened.root.glob("chunk*.bin")} - old_paths
    # New chunks landed at fresh ids: a descriptor cached against an old
    # chunk path can never alias a new chunk's bytes.
    assert new_paths and all(
        int(name[len("chunk") : -len(".bin")])
        > max(int(n[len("chunk") : -len(".bin")]) for n in old_paths)
        for name in new_paths
    )
    reopened.close()


def test_orphan_chunks_are_swept_on_replay(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=CHUNK, durable=True)
    _fill(store, 4)
    store.close()
    # A chunk file written just before a crash, whose journal record
    # never landed: replay must remove it, not resurrect it.
    orphan = tmp_path / "chunk9000.bin"
    orphan.write_bytes(b"\x00" * 128)

    reopened = ChunkedTensorStore(tmp_path, chunk_bytes=CHUNK, durable=True)
    assert not orphan.exists()
    assert not reopened.replay_was_torn
    reopened.close()


# --------------------------------------------------------------- compaction
def test_compaction_books_and_bit_exact_migration(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=CHUNK, durable=True)
    _fill(store, 8)  # 2 chunks of 4 tensors
    for i in (0, 1, 4, 5):
        store.delete(f"t{i}_{ELEMS}")  # both chunks half-dead
    dead = store.dead_bytes
    written_before = store.bytes_written

    reclaimed = store.compact(max_dead_ratio=0.5)
    assert reclaimed == dead
    assert store.dead_bytes == 0
    assert store.gc_runs == 2
    assert store.gc_reclaimed_dead_bytes == dead
    # The rewrite is charged as write amplification, and the books
    # balance: every byte ever written is either on disk or reclaimed.
    assert store.gc_bytes_rewritten == dead  # live half == dead half here
    assert store.bytes_written == written_before + store.gc_bytes_rewritten
    on_disk = sum(p.stat().st_size for p in tmp_path.glob("chunk*.bin"))
    assert store.bytes_written == on_disk + store.reclaimed_bytes

    for i in (2, 3, 6, 7):
        assert np.array_equal(
            store.read(f"t{i}_{ELEMS}", (ELEMS,), np.float32), _tensor(i)
        )
    store.close()

    reopened = ChunkedTensorStore(tmp_path, chunk_bytes=CHUNK, durable=True)
    assert _books(reopened) == _books(store)
    for i in (2, 3, 6, 7):
        assert np.array_equal(
            reopened.read(f"t{i}_{ELEMS}", (ELEMS,), np.float32), _tensor(i)
        )
    reopened.close()


def test_compaction_threshold_and_validation(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=CHUNK, durable=True)
    _fill(store, 4)  # one chunk, fully live
    assert store.compact() == 0  # nothing dead, nothing to do
    store.delete(f"t0_{ELEMS}")  # 25% dead: below the default threshold
    assert store.compact() == 0
    assert store.compact(max_dead_ratio=0.25) > 0  # opt-in lower bar
    with pytest.raises(ValueError):
        store.compact(max_dead_ratio=0.0)
    with pytest.raises(ValueError):
        store.compact(max_dead_ratio=1.5)
    store.close()


# ------------------------------------------------------------- write-leveling
def test_write_leveling_spreads_chunks_across_roots(tmp_path):
    roots = [tmp_path / "nvme1", tmp_path / "nvme2"]
    store = ChunkedTensorStore(
        tmp_path / "nvme0", chunk_bytes=CHUNK, durable=True, roots=roots
    )
    _fill(store, 24)  # 6 chunks across 3 equal roots
    per_root = store.root_bytes_written
    assert len(per_root) == 3 and all(b > 0 for b in per_root)
    assert max(per_root) - min(per_root) <= CHUNK  # leveled within one chunk
    store.close()

    # Replay restores placement: every tensor readable from whichever
    # root its chunk landed on, and the per-root wear books survive.
    reopened = ChunkedTensorStore(
        tmp_path / "nvme0", chunk_bytes=CHUNK, durable=True, roots=roots
    )
    assert reopened.root_bytes_written == per_root
    for i in range(24):
        assert np.array_equal(
            reopened.read(f"t{i}_{ELEMS}", (ELEMS,), np.float32), _tensor(i)
        )
    reopened.close()


def test_single_root_layout_unchanged_by_leveling(tmp_path):
    """Ties break to root 0: without extra roots the durable store's
    on-disk layout is byte-identical to the pre-leveling behavior."""
    a = ChunkedTensorStore(tmp_path / "a", chunk_bytes=CHUNK)
    b = ChunkedTensorStore(tmp_path / "b", chunk_bytes=CHUNK, durable=True)
    _fill(a, 8)
    _fill(b, 8)
    a_chunks = sorted(p.name for p in (tmp_path / "a").glob("chunk*.bin"))
    b_chunks = sorted(p.name for p in (tmp_path / "b").glob("chunk*.bin"))
    assert a_chunks == b_chunks
    for name in a_chunks:
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()
    a.clear()
    b.close()


# ----------------------------------------------------- FD-table invalidation
def _uring_ctx():
    return IOContext(fds=FDTable(), lane="ssd", arena=None, gds=None)


def test_delete_then_read_misses_under_uring(tmp_path):
    """Regression: a chunk unlinked by refcount-zero delete must drop
    its cached descriptor — a stale fd would serve the deleted inode."""
    store = ChunkedTensorStore(tmp_path, chunk_bytes=CHUNK, durable=True)
    ctx = _uring_ctx()
    with io_context(ctx):
        _fill(store, 4)  # exactly one flushed chunk
        path = store.path_for(f"t0_{ELEMS}")
        store.read(f"t0_{ELEMS}", (ELEMS,), np.float32)  # caches a read fd
        for i in range(4):
            store.delete(f"t{i}_{ELEMS}")  # refcount 0 -> unlink
        assert not path.exists()
        with pytest.raises(FileNotFoundError):
            store.read(f"t0_{ELEMS}", (ELEMS,), np.float32)
    # The unlink invalidated the cached descriptor, so the table cannot
    # resurrect the deleted file either.
    with pytest.raises(FileNotFoundError):
        ctx.fds.acquire_read(str(path))
    ctx.fds.close_all()
    store.close()


def test_compaction_invalidates_every_attached_table(tmp_path):
    """A service restart swaps backends; the unlink must invalidate the
    *old* generation's FD table too, not just the current driver's."""
    store = ChunkedTensorStore(tmp_path, chunk_bytes=CHUNK, durable=True)
    old_gen, new_gen = _uring_ctx(), _uring_ctx()
    with io_context(old_gen):
        _fill(store, 4)
        victim = store.path_for(f"t0_{ELEMS}")
        store.read(f"t0_{ELEMS}", (ELEMS,), np.float32)
    with io_context(new_gen):
        store.read(f"t1_{ELEMS}", (ELEMS,), np.float32)
        for i in (0, 1):
            store.delete(f"t{i}_{ELEMS}")
        assert store.compact(max_dead_ratio=0.5) > 0
    assert not victim.exists()
    for table in (old_gen.fds, new_gen.fds):
        with pytest.raises(FileNotFoundError):
            table.acquire_read(str(victim))
        table.close_all()
    # Survivors migrated intact through the compaction.
    for i in (2, 3):
        assert np.array_equal(
            store.read(f"t{i}_{ELEMS}", (ELEMS,), np.float32), _tensor(i)
        )
    store.close()


# ------------------------------------------------------------------ lifecycle
def test_close_is_idempotent_and_keeps_data(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=CHUNK, durable=True)
    assert store.persistent
    _fill(store, 4)
    store.close()
    store.close()
    assert store.closed
    assert list(tmp_path.glob("chunk*.bin")) and store.manifest_path.exists()


def test_non_durable_store_has_no_manifest(tmp_path):
    store = ChunkedTensorStore(tmp_path, chunk_bytes=CHUNK)
    assert not store.persistent
    _fill(store, 4)
    store.close()  # just a flush for the volatile store
    assert not store.manifest_path.exists()
    store.clear()
    assert not list(tmp_path.glob("chunk*.bin"))
